"""Riesz potential I_alpha * v on the truncated grid.

The kernel I_alpha(x) = A_alpha |x|^(alpha - N) is even in every axis, so
its samples at node offsets 0..M per axis determine it on the doubled grid;
convolution is an exact linear (zero-padded) circular convolution.  The
singular zero-offset sample is replaced by the exact mean of the kernel over
one grid cell: by radial integration the cell integral equals the integral
over the inscribed-half-width ball times a dimensionless cube correction
factor, which is computed once per (N, alpha) by Gauss-Legendre quadrature
of a smooth boundary integrand.

For an even sequence the length-2M real FFT equals the DCT-I of its
samples 0..M (Martucci, IEEE Trans. Signal Process. 42(5), 1994), so the
one DCT-I of the samples serves every axis.  The caller's grid names the
folded axes, along which it holds a mirror-even input as its positive
half; there the convolution is a symmetric one: the half, zero-padded to
M nodes, goes through a DCT-II, is multiplied by DCT-I entries 0..M-1 and
comes back through the inverse DCT-II, which keeps the positive half.
Those axes transform at length M instead of 2M.  Every other axis keeps
the zero-padded real FFT of length 2M, multiplied by the DCT-I entries
mirrored to the FFT's frequencies.  There is one path, and it reads
nothing from the input to choose it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import AlphaOutOfRange
from .field import GridSpec

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


@lru_cache(maxsize=16)
def cube_correction(dim: int, alpha: float) -> float:
    """Ratio of the |x|^(alpha-N) integral over [-1,1]^N to that over B_1.

    Writing the cube integral radially gives (1/alpha) int_S R(w)^alpha dw;
    parametrized over the cube faces the solid-angle element cancels the
    singularity, leaving a smooth integrand:

        N=2:  (4/alpha) int_{-1}^{1} (1 + u^2)^((alpha-2)/2) du
        N=3:  (6/alpha) int_{[-1,1]^2} (1 + u^2 + v^2)^((alpha-3)/2) du dv

    The ball integral is S_{N-1}/alpha.
    """
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
    """Kernel samples at node offsets 0..M per axis plus their DCT-I.

    Cells within _NEAR_RADIUS of the singularity carry exact cell averages
    instead of midpoint samples; without this the quadrature error of the
    convolution is concentrated at the singularity and shows up as an O(h^2)
    defect in the scaling identities at critical points.  Both arrays,
    `sampled` and `spectrum`, are (M+1)^N and read-only.
    """

    def __init__(self, grid: GridSpec, alpha: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.constant = riesz_constant(grid.dim, alpha)
        d = np.arange(grid.M + 1) * grid.h
        r2 = sum(np.ix_(*(d ** 2,) * grid.dim))
        with np.errstate(divide="ignore"):
            k = self.constant * np.sqrt(r2) ** (alpha - grid.dim)
        for cell in np.ndindex(*(_NEAR_RADIUS + 1,) * grid.dim):
            if any(cell):
                k[cell] = _near_cell_average(grid.dim, alpha, cell, grid.h)
            else:
                k[cell] = singular_cell_average(grid, alpha)
        self.sampled = k
        self.spectrum = scipy.fft.dctn(k, type=1)
        self.sampled.setflags(write=False)
        self.spectrum.setflags(write=False)

    def convolve_array(self, v: np.ndarray, folded: tuple = ()) -> np.ndarray:
        """I_alpha * v at the nodes; on the axes in folded, named by the caller's
        grid, v is mirror-even and v and the result are their positive halves."""
        m, n = self.grid.M, self.grid.dim
        rest = tuple(ax for ax in range(n) if ax not in folded)
        # A folded axis reads entries 0..M-1, the rfft axis all M+1 of its
        # frequencies; a full FFT axis reads them mirrored to length 2M.
        khat = self.spectrum[tuple(slice(0, m) if ax in folded else slice(None)
                                   for ax in range(n))]
        for ax in rest[:-1]:
            khat = khat.take(np.r_[0:m + 1, m - 1:0:-1], axis=ax)
        # Each transform zero-pads its own axis (n= and s=), and each
        # inverse DCT keeps only the positive half, so every folded stage
        # runs on the smallest array it can; the largest stages run along
        # the last, contiguous axis.
        for ax in folded:
            v = scipy.fft.dct(v, type=2, n=m, axis=ax)
        if rest:
            v = scipy.fft.rfftn(v, s=(2 * m,) * len(rest), axes=rest)
            v = scipy.fft.irfftn(v * khat, s=(2 * m,) * len(rest), axes=rest)
            v = v[tuple(slice(None) if ax in folded else slice(0, m)
                        for ax in range(n))]
        else:
            v = v * khat
        for ax in reversed(folded):
            v = scipy.fft.idct(v, type=2, axis=ax)
            v = v[(slice(None),) * ax + (slice(0, m // 2),)]
        return v * self.grid.cell_volume


# A 3D kernel at M = 128 holds 2 * 129^3 doubles, about 34 MB.  Eight is
# the fewest that makes the test suite rebuild no kernel it has evicted.
@lru_cache(maxsize=8)
def get_kernel(grid: GridSpec, alpha: float) -> RieszKernel:
    """The kernel for (grid, alpha), shared by callers while it stays cached."""
    return RieszKernel(grid, alpha)
