"""Riesz potential I_alpha * v on the truncated grid.

The kernel I_alpha(x) = A_alpha |x|^(alpha - N) is sampled at all node
offsets of the doubled grid; convolution is then carried out as an exact
linear (zero-padded) circular convolution via real FFTs.  The singular
zero-offset sample is replaced by the exact mean of the kernel over one
grid cell: by radial integration the cell integral equals the integral
over the inscribed-half-width ball times a dimensionless cube correction
factor, which is computed once per (N, alpha) by Gauss-Legendre quadrature
of a smooth boundary integrand.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from .errors import AlphaOutOfRange
from .field import GridSpec, thread_count

_GAUSS_ORDER = 80


def riesz_constant(dim: int, alpha: float) -> float:
    """A_alpha = Gamma((N - alpha)/2) / (2^alpha pi^(N/2) Gamma(alpha/2))."""
    if not (0.0 < alpha < dim):
        raise AlphaOutOfRange(f"alpha must lie in (0, {dim}), got {alpha}")
    log_a = (
        math.lgamma((dim - alpha) / 2.0)
        - alpha * math.log(2.0)
        - (dim / 2.0) * math.log(math.pi)
        - math.lgamma(alpha / 2.0)
    )
    return math.exp(log_a)


_corr_cache: dict = {}


def cube_correction(dim: int, alpha: float) -> float:
    """Ratio of the |x|^(alpha-N) integral over [-1,1]^N to that over B_1.

    Writing the cube integral radially gives (1/alpha) int_S R(w)^alpha dw;
    parametrized over the cube faces the solid-angle element cancels the
    singularity, leaving a smooth integrand:

        N=2:  (4/alpha) int_{-1}^{1} (1 + u^2)^((alpha-2)/2) du
        N=3:  (6/alpha) int_{[-1,1]^2} (1 + u^2 + v^2)^((alpha-3)/2) du dv

    The ball integral is S_{N-1}/alpha.
    """
    key = (dim, round(alpha, 12))
    if key in _corr_cache:
        return _corr_cache[key]
    nodes, weights = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    if dim == 2:
        cube = 4.0 / alpha * float(
            np.sum(weights * (1.0 + nodes ** 2) ** ((alpha - 2.0) / 2.0))
        )
        ball = 2.0 * math.pi / alpha
    else:
        uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
        ww = np.outer(weights, weights)
        cube = 6.0 / alpha * float(
            np.sum(ww * (1.0 + uu ** 2 + vv ** 2) ** ((alpha - 3.0) / 2.0))
        )
        ball = 4.0 * math.pi / alpha
    _corr_cache[key] = cube / ball
    return cube / ball


def singular_cell_average(grid: GridSpec, alpha: float) -> float:
    """Mean of A_alpha |x|^(alpha-N) over one grid cell centered at 0."""
    n, h = grid.dim, grid.h
    a = h / 2.0
    surface = 2.0 * math.pi if n == 2 else 4.0 * math.pi
    ball = surface * a ** alpha / alpha
    return riesz_constant(n, alpha) * cube_correction(n, alpha) * ball / h ** n


_NEAR_RADIUS = 2
_NEAR_GAUSS = 16


def _near_cell_average(dim: int, alpha: float, offset, h: float) -> float:
    """Mean of A_alpha |z|^(alpha-N) over the cell centered at offset * h.

    Used for the cells adjacent to the singularity, where the kernel bends
    too sharply for the midpoint sample to represent the cell.  The origin
    is outside these cells, so plain tensor Gauss-Legendre converges fast.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_NEAR_GAUSS)
    axes = [offset[a] * h + nodes * (h / 2.0) for a in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r2 = sum(c ** 2 for c in mesh)
    wt = np.ones(())
    for _ in range(dim):
        wt = np.multiply.outer(wt, weights / 2.0)
    val = float(np.sum(wt * r2 ** ((alpha - dim) / 2.0)))
    return riesz_constant(dim, alpha) * val


class RieszKernel:
    """Sampled free-space kernel on the doubled grid plus its real FFT.

    Cells within _NEAR_RADIUS of the singularity carry exact cell averages
    instead of midpoint samples; without this the quadrature error of the
    convolution is concentrated at the singularity and shows up as an O(h^2)
    defect in the scaling identities at critical points.
    """

    def __init__(self, grid: GridSpec, alpha: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.constant = riesz_constant(grid.dim, alpha)
        m2 = 2 * grid.M
        # offset index o maps to displacement ((o + M) mod 2M - M) h
        d = ((np.arange(m2) + grid.M) % m2 - grid.M) * grid.h
        r2 = np.zeros((m2,) * grid.dim)
        for axis in range(grid.dim):
            shape = [1] * grid.dim
            shape[axis] = m2
            r2 = r2 + (d ** 2).reshape(shape)
        with np.errstate(divide="ignore"):
            k = self.constant * np.sqrt(r2) ** (alpha - grid.dim)
        span = range(-_NEAR_RADIUS, _NEAR_RADIUS + 1)
        for offset in np.ndindex(*(len(span),) * grid.dim):
            cell = tuple(span[o] for o in offset)
            idx = tuple(c % m2 for c in cell)
            if all(c == 0 for c in cell):
                k[idx] = singular_cell_average(grid, alpha)
            else:
                k[idx] = _near_cell_average(grid.dim, alpha, cell, grid.h)
        self.sampled = k
        self.sampled.setflags(write=False)
        self._khat = scipy.fft.rfftn(k, workers=thread_count())

    def offset_value(self, offset) -> float:
        """Kernel sample at integer node offset (j - i) per axis."""
        m2 = 2 * self.grid.M
        idx = tuple(int(o) % m2 for o in offset)
        return float(self.sampled[idx])

    def convolve_array(self, v: np.ndarray) -> np.ndarray:
        m, n = self.grid.M, self.grid.dim
        pad = np.zeros((2 * m,) * n)
        pad[(slice(0, m),) * n] = v
        vhat = scipy.fft.rfftn(pad, workers=thread_count())
        conv = scipy.fft.irfftn(vhat * self._khat, s=(2 * m,) * n,
                                workers=thread_count())
        return conv[(slice(0, m),) * n] * self.grid.cell_volume


_kernel_cache: dict = {}


def get_kernel(grid: GridSpec, alpha: float) -> RieszKernel:
    key = (grid.dim, grid.M, grid.L, round(float(alpha), 12))
    kern = _kernel_cache.get(key)
    if kern is None:
        kern = RieszKernel(grid, alpha)
        _kernel_cache[key] = kern
    return kern
