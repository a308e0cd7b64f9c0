"""Riesz potential I_alpha * v on the truncated grid.

The kernel I_alpha(x) = A_alpha |x|^(alpha - N) is even in every axis, so
its samples at node offsets 0..M per axis determine it on the doubled grid;
convolution is an exact linear (zero-padded) circular convolution.  Near
the singularity a midpoint sample misrepresents its cell, so the cells
within _NEAR_RADIUS of the origin, the singular one included, carry the
exact mean of the kernel over the cell instead.  One rule gives them all:
by the divergence theorem each box integral of |x|^(alpha - N) is a sum of
smooth face integrals, computed once per (N, alpha) by Gauss-Legendre on
the unit grid and scaled by h^(alpha - N).

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

import copy
import math
from functools import lru_cache

import numpy as np
import scipy.fft

from .errors import AlphaOutOfRange, IncompatibleGrid
from .field import GridSpec


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


_NEAR_RADIUS = 2
_FACE_GAUSS = 32


@lru_cache(maxsize=16)
def _near_cell_integrals(dim: int, alpha: float) -> np.ndarray:
    """Integrals of |x|^(alpha-N) over the unit cells centered at the offsets
    0.._NEAR_RADIUS per axis, the singular cell included; read-only.

    The field x |x|^(alpha-N) / alpha has divergence |x|^(alpha-N), so the
    integral over a box [0, c_1] x ... x [0, c_N] is
    (1/alpha) sum_i c_i int_{x_i = c_i} |x|^(alpha-N) dS: the faces through
    the origin carry no flux, and the others keep away from the singularity,
    where Gauss-Legendre converges fast.  The integrand is symmetric in the
    face coordinates, so one face table serves every axis.  The boxes with
    corners k + 1/2 difference per axis into the cells: [-1/2, 1/2] is twice
    [0, 1/2] and the cell at k >= 1 is [0, k + 1/2] less [0, k - 1/2].
    """
    nodes, weights = np.polynomial.legendre.leggauss(_FACE_GAUSS)
    c = np.arange(_NEAR_RADIUS + 1) + 0.5
    # face[a, b_1, ..] = int over [0, c_b1] x .. of (c_a^2 + |y|^2)^((alpha-N)/2)
    r2, wt = c ** 2, np.ones(())
    for _ in range(dim - 1):
        r2 = np.add.outer(r2, np.multiply.outer(c, nodes + 1.0) ** 2 / 4.0)
        wt = np.multiply.outer(wt, np.multiply.outer(c, weights) / 2.0)
    face = np.sum(wt * r2 ** ((alpha - dim) / 2.0),
                  axis=tuple(range(2, 2 * dim - 1, 2)))
    flux = c.reshape((-1,) + (1,) * (dim - 1)) * face
    table = sum(np.moveaxis(flux, 0, ax) for ax in range(dim)) / alpha
    for ax in range(dim):
        table = np.diff(table, axis=ax, prepend=-table.take([0], axis=ax))
    table.setflags(write=False)
    return table


def kernel_samples(grid: GridSpec, alpha: float) -> np.ndarray:
    """The kernel at node offsets 0..M per axis, (M+1)^N.

    The offsets within _NEAR_RADIUS of the singularity carry the cell means
    A_alpha h^(alpha-N) _near_cell_integrals(N, alpha), every other offset
    its midpoint sample; with midpoint samples near the origin the
    quadrature error of the convolution concentrates at the singularity and
    shows up as an O(h^2) defect in the scaling identities at critical
    points.
    """
    const = riesz_constant(grid.dim, alpha)
    # Q of a field of order one on the box scales as (2L)^(N+alpha), and
    # must neither overflow nor fall below the normal floats
    scale = (grid.dim + alpha) * math.log(2.0 * grid.L)
    if not (math.log(np.finfo(float).tiny) < scale < math.log(np.finfo(float).max)):
        raise IncompatibleGrid(f"L = {grid.L} puts the interaction scale "
                               f"(2L)^{grid.dim + alpha:g} out of float range")
    # offsets in units of h, so no square overflows on the widest box
    k = sum(np.ix_(*(np.arange(grid.M + 1.0) ** 2,) * grid.dim))
    with np.errstate(divide="ignore"):
        np.power(k, (alpha - grid.dim) / 2.0, out=k)
    k[(slice(0, _NEAR_RADIUS + 1),) * grid.dim] = _near_cell_integrals(
        grid.dim, float(alpha))
    k *= const * grid.h ** (alpha - grid.dim)
    return k


class RieszKernel:
    """The kernel on grid as its DCT-I, `spectrum`: (M+1)^N and read-only,
    the one array the convolution and `restrict` read."""

    def __init__(self, grid: GridSpec, alpha: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.spectrum = scipy.fft.dctn(kernel_samples(grid, alpha), type=1)
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

    def restrict(self, grid: GridSpec) -> "RieszKernel":
        """This kernel on grid, the full grid of the same box with M' <= M: on
        their common period 4L, DCT-I entries 0..M' times (M'/M)^N are the fine
        multipliers at grid's frequencies (Galerkin R A P).  Each call cuts a
        new read-only spectrum, a slice far cheaper than the kernel's build."""
        if grid != GridSpec(self.grid.dim, min(grid.M, self.grid.M), self.grid.L):
            raise IncompatibleGrid(f"cannot restrict the kernel of {self.grid} to {grid}")
        coarse = copy.copy(self)
        coarse.grid, coarse.spectrum = grid, self.spectrum[
            (slice(0, grid.M + 1),) * grid.dim] * (grid.M / self.grid.M) ** grid.dim
        coarse.spectrum.setflags(write=False)
        return coarse


# A 3D kernel at M = 128 holds 129^3 doubles, about 17 MB, and no restrictions:
# `restrict` cuts a new one on every call.  The test suite builds 14 kernels here
# (4 more are refused) and rebuilds none it has evicted at 5 entries or more, one
# at 4; 6 keeps one spare.
@lru_cache(maxsize=6)
def get_kernel(grid: GridSpec, alpha: float) -> RieszKernel:
    """The kernel for (grid, alpha), shared by callers while it stays cached."""
    return RieszKernel(grid, alpha)
