"""Riesz kernel tests: constants, singular cells, convolution equivalence.

The cell-average oracles below were computed offline with scipy.integrate
dblquad and tplquad at 1e-11 absolute tolerance on the unit-spacing
integrand |x|^(alpha-N).  UNIT_CELL_AVG holds 1/|x|, which covers both
production kernels (N=2 alpha=1 and N=3 alpha=2 have the same radial
profile); its 2D origin value equals the closed form 4 asinh(1).
UNIT_CELL_AVG_ALPHA holds exponents other than -1, computed the same way
at 1e-11 absolute and relative tolerance, with each cell split at the
mirrors it straddles so that the singularity sits at a corner of every
piece.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from choquard.errors import AlphaOutOfRange, IncompatibleGrid
from choquard.field import Field, GridSpec
from choquard.functionals import (
    _gradient_from_parts,
    _state_parts,
    evaluate_with_gradient,
    power,
)
from choquard.riesz import (
    RieszKernel,
    _near_cell_integrals,
    get_kernel,
    kernel_samples,
    riesz_constant,
)
from helpers import mirror_class


def offset_value(kern, offset):
    """Kernel sample at integer node offset (j - i) per axis."""
    samples = kernel_samples(kern.grid, kern.alpha)
    return float(samples[tuple(abs(int(o)) for o in offset)])


def inner(u, v):
    return float(u.grid.cell_volume * np.sum(u.data * v.data))


# mean of 1/|x| over unit-spacing cells centered at the given offsets
UNIT_CELL_AVG = {
    (2, (0, 0)): 3.5254943480781726,
    (2, (1, 0)): 1.0380497359047562,
    (3, (0, 0, 0)): 2.380077363979553,
    (3, (1, 1, 0)): 0.7075658177425841,
}

# mean of |x|^(alpha-N) over unit-spacing cells, keyed by (N, alpha, offset)
UNIT_CELL_AVG_ALPHA = {
    (2, 0.5, (0, 0)): 9.400517582780541,
    (2, 0.5, (2, 1)): 0.3049532872569307,
    (3, 1.0, (0, 0, 0)): 7.674124222443736,
    (3, 1.0, (2, 1, 1)): 0.16912445706388418,
    (3, 2.5, (0, 0, 0)): 1.5085612293494572,
    (3, 2.5, (1, 2, 0)): 0.6673016788501069,
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
        assert offset_value(kern, offset) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("key", list(UNIT_CELL_AVG_ALPHA),
                         ids=lambda k: f"{k[0]}D-alpha{k[1]}-{''.join(map(str, k[2]))}")
def test_near_cells_match_quadrature_for_every_alpha(key):
    """The one near-field rule holds for exponents other than -1 too."""
    dim, alpha, offset = key
    grid = GridSpec(dim, 16, 4.0)  # h = 0.5
    kern = RieszKernel(grid, alpha)
    want = (riesz_constant(dim, alpha) * grid.h ** (alpha - dim)
            * UNIT_CELL_AVG_ALPHA[key])
    assert offset_value(kern, offset) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("dim,M,L,alpha", [(2, 64, 8.0, 0.5), (3, 32, 6.0, 2.8)])
def test_near_cells_are_the_scaled_unit_table(dim, M, L, alpha):
    """Offsets 0..2 hold A_alpha h^(alpha-N) times the cached unit table."""
    grid = GridSpec(dim, M, L)
    table = _near_cell_integrals(dim, alpha)
    assert table is _near_cell_integrals(dim, alpha)
    assert table.shape == (3,) * dim and not table.flags.writeable
    near = kernel_samples(grid, alpha)[(slice(0, 3),) * dim]
    want = riesz_constant(dim, alpha) * grid.h ** (alpha - dim) * table
    np.testing.assert_allclose(near, want, rtol=1e-15, atol=0)


@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_scale_is_finite_on_the_finest_accepted_grid(dim):
    """GridSpec keeps h^N a normal float, so h^(alpha-N) stays finite for
    every alpha in (0, N); a grid just finer is refused."""
    h = np.finfo(float).tiny ** (1.0 / dim) * (1.0 + 1e-12)
    grid = GridSpec(dim, 8, 4.0 * h)
    assert grid.h ** (1e-9 - dim) < np.inf
    with pytest.raises(IncompatibleGrid, match="out of float range"):
        GridSpec(dim, 8, 4.0 * h * 0.999)


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (3, 2.0), (2, 0.001)])
def test_kernel_refuses_a_box_whose_interaction_scale_overflows(dim, alpha):
    """Q scales as (2L)^(N+alpha); the widest box that keeps it a float
    builds a finite kernel, and one just wider is refused, naming L."""
    half = 0.5 * np.finfo(float).max ** (1.0 / (dim + alpha))
    grid = GridSpec(dim, 8, half * (1.0 - 1e-9))
    assert np.all(np.isfinite(kernel_samples(grid, alpha)))
    assert np.all(np.isfinite(RieszKernel(grid, alpha).spectrum))
    with pytest.raises(IncompatibleGrid, match="L = .* interaction scale"):
        RieszKernel(GridSpec(dim, 8, half * (1.0 + 1e-9)), alpha)


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (3, 2.0), (3, 1.0)])
def test_kernel_refuses_a_box_whose_interaction_scale_underflows(dim, alpha):
    """The small side of the same check: the narrowest box whose
    (2L)^(N+alpha) is a normal float builds a finite kernel, and one just
    narrower is refused, naming L."""
    half = 0.5 * np.finfo(float).tiny ** (1.0 / (dim + alpha))
    grid = GridSpec(dim, 8, half * (1.0 + 1e-9))
    assert np.all(np.isfinite(kernel_samples(grid, alpha)))
    assert np.all(np.isfinite(RieszKernel(grid, alpha).spectrum))
    with pytest.raises(IncompatibleGrid, match="L = .* interaction scale"):
        RieszKernel(GridSpec(dim, 8, half * (1.0 - 1e-9)), alpha)


def test_far_cells_are_midpoint_samples():
    grid = GridSpec(2, 32, 8.0)
    kern = RieszKernel(grid, 1.0)
    offset = (7, 4)
    r = grid.h * np.hypot(*offset)
    want = riesz_constant(2, 1.0) / r
    assert offset_value(kern, offset) == pytest.approx(want, rel=1e-13)


def test_kernel_positive_and_radially_decreasing():
    grid = GridSpec(2, 32, 8.0)
    kern = RieszKernel(grid, 1.0)
    along_axis = [offset_value(kern, (j, 0)) for j in range(grid.M)]
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
    idx = np.abs(np.arange(M)[:, None] - np.arange(M)[None, :])
    t = kernel_samples(kern.grid, kern.alpha)
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
        kern.spectrum[0, 0] = 0.0


@pytest.mark.parametrize("dim,M,L,alpha", [(2, 32, 4.0, 1.0), (3, 16, 4.0, 2.0),
                                           (2, 16, 6.0, 0.5)])
def test_spectrum_is_the_dct_of_the_samples(dim, M, L, alpha):
    """The kernel keeps the DCT-I of kernel_samples, bit for bit."""
    grid = GridSpec(dim, M, L)
    np.testing.assert_array_equal(RieszKernel(grid, alpha).spectrum,
                                  scipy.fft.dctn(kernel_samples(grid, alpha), type=1))


@pytest.mark.parametrize("dim,M,coarse_m,alpha", [(2, 32, 16, 1.0), (3, 16, 8, 2.0),
                                                   (2, 32, 20, 0.5), (3, 16, 16, 2.5)])
def test_restricted_kernel_keeps_the_fine_multipliers(dim, M, coarse_m, alpha):
    """The kernel restricted to M' <= M on the same box multiplies by the
    fine DCT-I entries 0..M' per axis, scaled by (h/h')^N = (M'/M)^N, in a
    read-only spectrum; at M' = M it is the fine spectrum."""
    kern = RieszKernel(GridSpec(dim, M, 4.0), alpha)
    grid = GridSpec(dim, coarse_m, 4.0)
    coarse = kern.restrict(grid)
    assert (coarse.grid, coarse.alpha, kern.grid.M) == (grid, alpha, M)
    np.testing.assert_array_equal(
        coarse.spectrum,
        kern.spectrum[(slice(0, coarse_m + 1),) * dim] * (coarse_m / M) ** dim)
    with pytest.raises(ValueError):
        coarse.spectrum[(0,) * dim] = 0.0
    if coarse_m == M:
        np.testing.assert_array_equal(coarse.spectrum, kern.spectrum)


def test_repeated_restrictions_give_the_same_spectrum():
    """Every call cuts a new read-only kernel, and the same grid gets the same
    spectrum again, whether restricted from the fine kernel or from a
    restriction of it."""
    kern = RieszKernel(GridSpec(2, 32, 4.0), 1.0)
    for m in (16, 8, 10, 12, 14, 18):
        grid = GridSpec(2, m, 4.0)
        coarse = kern.restrict(grid)
        again = kern.restrict(grid)
        assert again is not coarse
        np.testing.assert_array_equal(again.spectrum, coarse.spectrum)
        assert not coarse.spectrum.flags.writeable and not again.spectrum.flags.writeable
    ladder = kern.restrict(GridSpec(2, 16, 4.0)).restrict(GridSpec(2, 8, 4.0))
    np.testing.assert_array_equal(ladder.spectrum,
                                  kern.restrict(GridSpec(2, 8, 4.0)).spectrum)
    assert not ladder.spectrum.flags.writeable


@pytest.mark.parametrize("grid", [GridSpec(2, 16, 5.0), GridSpec(3, 16, 4.0),
                                  GridSpec(2, 64, 4.0), GridSpec(2, 16, 4.0, (1, 1))],
                         ids=["box", "dim", "finer", "half"])
def test_restriction_to_another_box_dim_or_finer_grid_is_refused(grid):
    with pytest.raises(IncompatibleGrid):
        RieszKernel(GridSpec(2, 32, 4.0), 1.0).restrict(grid)


def test_kernel_build_memory_is_bounded_by_the_half_grid():
    """Only the (M+1)^N samples and their DCT-I are built; the DCT-I alone
    is kept."""
    grid = GridSpec(3, 64, 12.0)
    RieszKernel(GridSpec(3, 8, 2.0), 2.0)  # warm the quadrature caches
    tracemalloc.start()
    try:
        kern = RieszKernel(grid, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6
    assert sum(val.nbytes for val in vars(kern).values()
               if isinstance(val, np.ndarray)) == 8 * 65 ** 3


def mirrored_kernel(kern):
    """The (2M)^N kernel: index o holds the sample at ((o + M) mod 2M) - M."""
    m = kern.grid.M
    o = np.abs((np.arange(2 * m) + m) % (2 * m) - m)
    return kernel_samples(kern.grid, kern.alpha)[np.ix_(*(o,) * kern.grid.dim)]


def doubled_grid_convolution(kern, v):
    """The zero-padded length-2M real FFT convolution on every axis."""
    m, n = kern.grid.M, kern.grid.dim
    pad = np.zeros((2 * m,) * n)
    pad[(slice(0, m),) * n] = v
    conv = scipy.fft.irfftn(scipy.fft.rfftn(pad)
                            * scipy.fft.rfftn(mirrored_kernel(kern)),
                            s=(2 * m,) * n)
    return conv[(slice(0, m),) * n] * kern.grid.cell_volume


@pytest.mark.parametrize("dim,M,alpha", [(2, 32, 1.0), (3, 16, 2.0)])
def test_spectrum_is_rfft_of_the_mirrored_kernel(dim, M, alpha):
    kern = RieszKernel(GridSpec(dim, M, 4.0), alpha)
    want = scipy.fft.rfftn(mirrored_kernel(kern))
    peak = np.max(np.abs(want))
    assert np.max(np.abs(want.imag)) <= 1e-13 * peak
    # the full-FFT axes hold the same entries again, mirrored, above M
    half = want.real[(slice(0, M + 1),) * dim]
    assert np.max(np.abs(kern.spectrum - half)) <= 1e-13 * peak


def parity_id(parity):
    """2D-even0-odd1 for parity (1, -1); 2D-none for (0, 0)."""
    parts = [name + "".join(str(ax) for ax, p in enumerate(parity) if p == s)
             for name, s in (("even", 1), ("odd", -1)) if s in parity]
    return "-".join([f"{len(parity)}D"] + (parts or ["none"]))


@pytest.mark.parametrize("dim,M,alpha,parity", [
    pytest.param(dim, M, alpha, parity, id=parity_id(parity))
    for dim, M, alpha in [(2, 32, 1.0), (3, 16, 2.0)]
    for parity in itertools.product((1, -1, 0), repeat=dim)
])
def test_folded_convolution_matches_doubled_grid(dim, M, alpha, parity):
    """Every parity class: the positive half on the even axes, folded
    there, FFT on the others; unfolded, it is the doubled-grid result."""
    grid = GridSpec(dim, M, 4.0)
    even = GridSpec(dim, M, 4.0, parity=tuple(int(s == 1) for s in parity))
    kern = RieszKernel(grid, alpha)
    rng = np.random.default_rng(13)
    v = mirror_class(grid, rng.standard_normal(grid.shape), parity)
    conv = even.unfold(kern.convolve_array(even.fold(v), even.folded))
    want = doubled_grid_convolution(kern, v)
    assert np.max(np.abs(conv - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dim,M", [(2, 32), (3, 16)])
def test_one_asymmetric_sample_is_not_folded(dim, M):
    """One sample off its mirrors leaves every axis unfolded, so the field
    is evaluated on the full grid; one slice off leaves only its axis."""
    grid = GridSpec(dim, M, 4.0)
    kern = RieszKernel(grid, 1.0)
    v = mirror_class(grid, np.exp(-grid.radius() ** 2), (1,) * dim)
    v[(1,) * dim] += 1e-9
    want = doubled_grid_convolution(kern, v)
    conv = kern.convolve_array(v)
    assert np.max(np.abs(conv - want)) <= 1e-13 * np.max(np.abs(want))
    u = Field(grid, v)
    assert u.half == grid
    nl = power(2.0)
    state, grad = evaluate_with_gradient(nl, kern, u)
    full, coeff, conv = _state_parts(nl, kern, v, grid)
    assert state == full
    assert np.array_equal(grad.data,
                          _gradient_from_parts(nl, kern, v, coeff, conv, grid))
    w = mirror_class(grid, np.exp(-grid.radius() ** 2), (1,) * dim)
    w[1] += 1e-9
    assert Field(grid, w).half.parity == (0,) + (1,) * (dim - 1)
