"""Riesz kernel tests: constants, singular cells, convolution equivalence.

The cell-average oracles below were computed with scipy.integrate dblquad
and tplquad at 1e-11 absolute tolerance on the unit-spacing integrand
1/|x|, which covers both production kernels (N=2 alpha=1 and N=3 alpha=2
have the same radial profile).  The 2D origin value equals the closed
form 4 asinh(1).
"""

import itertools

import numpy as np
import pytest
import scipy.fft

from choquard.errors import AlphaOutOfRange
from choquard.field import Field, GridSpec, inner, parity_fold
from choquard.riesz import RieszKernel, get_kernel, riesz_constant

# mean of 1/|x| over unit-spacing cells centered at the given offsets
UNIT_CELL_AVG = {
    (2, (0, 0)): 3.5254943480781726,
    (2, (1, 0)): 1.0380497359047562,
    (3, (0, 0, 0)): 2.380077363979553,
    (3, (1, 1, 0)): 0.7075658177425841,
}


def test_constant_pekar_case():
    # Gamma(1/2) = sqrt(pi), Gamma(1) = 1 collapse the formula to 1/(4 pi)
    assert riesz_constant(3, 2.0) == pytest.approx(1.0 / (4.0 * np.pi),
                                                   abs=1e-14)


def test_constant_planar_case():
    # the Gamma factors cancel, leaving 1/(2 pi)
    assert riesz_constant(2, 1.0) == pytest.approx(1.0 / (2.0 * np.pi),
                                                   abs=1e-14)


@pytest.mark.parametrize("dim,alpha", [(2, 0.5), (2, 1.5), (3, 1.0), (3, 2.5)])
def test_constant_gamma_formula(dim, alpha):
    from scipy.special import gamma
    want = gamma((dim - alpha) / 2) / (
        2 ** alpha * np.pi ** (dim / 2) * gamma(alpha / 2))
    assert riesz_constant(dim, alpha) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim,alpha", [(2, 0.0), (2, 2.0), (2, -1.0),
                                       (3, 3.0), (3, 3.5)])
def test_alpha_range_enforced(dim, alpha):
    with pytest.raises(AlphaOutOfRange):
        riesz_constant(dim, alpha)


@pytest.mark.parametrize(
    "dim,alpha,M,L", [(2, 1.0, 16, 4.0), (2, 1.0, 32, 4.0), (3, 2.0, 16, 4.0)]
)
def test_singular_and_near_cells_match_quadrature(dim, alpha, M, L):
    """Kernel samples near the origin are exact cell averages."""
    grid = GridSpec(dim, M, L)
    kern = RieszKernel(grid, alpha)
    const = riesz_constant(dim, alpha)
    for offset_nd, unit_avg in UNIT_CELL_AVG.items():
        d, offset = offset_nd
        if d != dim:
            continue
        want = const * unit_avg / grid.h  # exponent alpha - N = -1 here
        assert kern.offset_value(offset) == pytest.approx(want, rel=1e-10)


def test_far_cells_are_midpoint_samples():
    grid = GridSpec(2, 32, 8.0)
    kern = RieszKernel(grid, 1.0)
    offset = (7, 4)
    r = grid.h * np.hypot(*offset)
    want = riesz_constant(2, 1.0) / r
    assert kern.offset_value(offset) == pytest.approx(want, rel=1e-13)


def test_kernel_positive_and_radially_decreasing():
    grid = GridSpec(2, 32, 8.0)
    kern = RieszKernel(grid, 1.0)
    along_axis = [kern.offset_value((j, 0)) for j in range(grid.M)]
    assert np.all(np.array(along_axis) > 0)
    assert np.all(np.diff(along_axis) < 0)


@pytest.mark.parametrize("dim,M,alpha", [(2, 32, 1.0), (2, 16, 0.5),
                                         (3, 12, 2.0), (3, 10, 1.5)])
def test_fft_convolution_equals_direct_summation(dim, M, alpha):
    """The doubled-grid FFT path reproduces the quadratic-cost sum."""
    grid = GridSpec(dim, M, 2.0 * M / 8.0)
    kern = RieszKernel(grid, alpha)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    conv = kern.convolve_array(f)
    idx = (np.arange(M)[:, None] - np.arange(M)[None, :]) % (2 * M)
    t = kern.sampled
    if dim == 2:
        kk = t[idx[:, :, None, None], idx[None, None, :, :]]
        direct = np.einsum("abcd,bd->ac", kk, f) * grid.cell_volume
    else:
        kk = t[idx[:, :, None, None, None, None],
               idx[None, None, :, :, None, None],
               idx[None, None, None, None, :, :]]
        direct = np.einsum("abcdef,bdf->ace", kk, f) * grid.cell_volume
    rel = np.max(np.abs(conv - direct)) / np.max(np.abs(direct))
    assert rel <= 1e-9


def test_convolution_is_symmetric_bilinear():
    """int (I * f) g = int (I * g) f for the discrete kernel."""
    grid = GridSpec(2, 32, 6.0)
    kern = RieszKernel(grid, 1.0)
    rng = np.random.default_rng(12)
    f = Field(grid, rng.standard_normal(grid.shape))
    g = Field(grid, rng.standard_normal(grid.shape))
    lhs = inner(Field(grid, kern.convolve_array(f.data)), g)
    rhs = inner(Field(grid, kern.convolve_array(g.data)), f)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_convolution_of_positive_data_is_positive():
    grid = GridSpec(2, 32, 6.0)
    kern = RieszKernel(grid, 1.0)
    f = np.exp(-grid.radius() ** 2)
    assert np.all(kern.convolve_array(f) > 0)


def test_newtonian_potential_of_gaussian():
    """N=3, alpha=2 reduces to the Coulomb potential of the charge density.

    For a unit-mass Gaussian of width sigma the potential is
    erf(r / (sigma sqrt(2))) / (4 pi r), an exact closed form to test the
    full pipeline against.
    """
    from scipy.special import erf
    grid = GridSpec(3, 32, 8.0)
    kern = RieszKernel(grid, 2.0)
    sigma = 0.8
    norm = (2.0 * np.pi * sigma ** 2) ** -1.5
    rho = norm * np.exp(-grid.radius() ** 2 / (2 * sigma ** 2))
    pot = kern.convolve_array(rho)
    r = grid.radius()
    want = erf(r / (sigma * np.sqrt(2.0))) / (4.0 * np.pi * r)
    far = r > 2.0  # discretization error concentrates near the core
    rel = np.max(np.abs(pot[far] - want[far]) / want[far])
    assert rel < 2e-3
    core = np.abs(pot - want) / want
    assert np.max(core) < 2e-2


def test_kernel_cache_reuses_instances():
    grid = GridSpec(2, 16, 4.0)
    assert get_kernel(grid, 1.0) is get_kernel(grid, 1.0)
    assert get_kernel(grid, 1.0) is not get_kernel(grid, 0.5)


def test_kernel_samples_are_read_only():
    grid = GridSpec(2, 16, 4.0)
    kern = RieszKernel(grid, 1.0)
    with pytest.raises(ValueError):
        kern.sampled[0, 0] = 0.0


def doubled_grid_convolution(kern, v):
    """The zero-padded length-2M real FFT convolution on every axis."""
    m, n = kern.grid.M, kern.grid.dim
    pad = np.zeros((2 * m,) * n)
    pad[(slice(0, m),) * n] = v
    conv = scipy.fft.irfftn(scipy.fft.rfftn(pad) * scipy.fft.rfftn(kern.sampled),
                            s=(2 * m,) * n)
    return conv[(slice(0, m),) * n] * kern.grid.cell_volume


@pytest.mark.parametrize("dim,M,alpha,axes", [
    pytest.param(dim, M, alpha, axes,
                 id=f"{dim}D-even" + "".join(str(ax) for ax in axes))
    for dim, M, alpha in [(2, 32, 1.0), (3, 16, 2.0)]
    for r in range(1, dim + 1)
    for axes in itertools.combinations(range(dim), r)
])
def test_folded_convolution_matches_doubled_grid(dim, M, alpha, axes):
    """Symmetric convolution on the mirror-even axes, any subset of them."""
    grid = GridSpec(dim, M, 4.0)
    kern = RieszKernel(grid, alpha)
    rng = np.random.default_rng(13)
    v = parity_fold(rng.standard_normal(grid.shape),
                    [1 if ax in axes else 0 for ax in range(dim)])
    conv = kern.convolve_array(v)
    assert set(kern._spectra) == {axes}
    want = doubled_grid_convolution(kern, v)
    assert np.max(np.abs(conv - want)) <= 1e-13 * np.max(np.abs(want))
    for ax in axes:
        assert np.array_equal(conv, np.flip(conv, ax))


@pytest.mark.parametrize("dim,M", [(2, 32), (3, 16)])
def test_one_asymmetric_sample_takes_the_doubled_grid_path(dim, M):
    grid = GridSpec(dim, M, 4.0)
    kern = RieszKernel(grid, 1.0)
    v = parity_fold(np.exp(-grid.radius() ** 2), (1,) * dim)
    kern.convolve_array(v)
    v[(1,) * dim] += 1e-9
    assert np.array_equal(kern.convolve_array(v), doubled_grid_convolution(kern, v))
    assert set(kern._spectra) == {tuple(range(dim)), ()}
