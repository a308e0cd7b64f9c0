"""The three desk-scale yardstick workloads and their correctness pins.

Grid settings are the ones pinned by tests/test_acceptance.py.  Each
workload is a chain of solves run in the order `choquard hierarchy` uses:
the ground state first, then every saddle seeded from that ground field.

Why these three:

- ref3d: the Riesz convolution does most of the work (64^3 fields on a
  128^3 transform), and retraction probe energies are nearly half of all
  state evaluations.  Group actions are signed permutations and cheap.
- plane2d: the same code on small 2D transforms, so per-iteration
  overheads (dilation, sine transforms) weigh more.  A change that pays off
  only on big 3D FFTs should show much less here.
- wide_i23: the six-fold group acts through dense shear tensors, so the
  field group action does most of the work and the shear-tensor cache
  dominates peak memory.  Riesz is a small share.
"""

from __future__ import annotations

from dataclasses import dataclass

GRAD_TOL = 1e-4
POHOZAEV_TOL = 1e-3
PIN_REL = 0.02
ENERGY_MATCH_REL = 1e-12
LAYERS = ("riesz", "field", "functionals", "solver", "analysis", "coxeter")


@dataclass(frozen=True)
class Solve:
    tag: str
    restarts: int
    pin: float  # reference energy, checked to PIN_REL


@dataclass(frozen=True)
class Workload:
    name: str
    dim: int
    M: int
    L: float
    alpha: float
    chain: tuple


# Pins of ref3d and plane2d are the criterion-6 levels of
# tests/test_acceptance.py.  The tests pin neither wide_i23 level; the two
# values below are this benchmark's own references, measured at seed 0.
WORKLOADS = {
    "ref3d": Workload("ref3d", 3, 64, 12.0, 2.0, (
        Solve("trivial", 3, 7.3518),
        Solve("A1", 1, 11.2948),
    )),
    "plane2d": Workload("plane2d", 2, 256, 16.0, 1.0, (
        Solve("trivial", 1, 1.9024),
        Solve("A1", 1, 3.2491),
        Solve("I2:2", 1, 5.1974),
    )),
    "wide_i23": Workload("wide_i23", 2, 256, 24.0, 1.0, (
        Solve("trivial", 1, 1.90331),
        Solve("I2:3", 1, 6.92277),
    )),
}
