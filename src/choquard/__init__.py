"""Ground states and Coxeter-symmetric saddles of the nonlocal Choquard equation.

The equation -Delta u + u = (I_alpha * F(u)) F'(u) is discretized on a
truncated cube with homogeneous Dirichlet conditions.  Submodules:

coxeter      finite reflection groups of rank <= 3 as matrix groups
field        cell-centered grids, group actions on fields, spectral operators
riesz        Riesz potential convolution, folded on the axes the caller's grid names
functionals  energy, Pohozaev functional, gradients, dilation scaling
solver       symmetrized gradient descent with Pohozaev rescaling
analysis     nodal domains, decay fits, energy hierarchy reports
cli          command line driver
"""

from . import analysis, coxeter, errors, field, functionals, riesz, solver

__all__ = [
    "analysis",
    "coxeter",
    "errors",
    "field",
    "functionals",
    "riesz",
    "solver",
]

__version__ = "0.1.0"
