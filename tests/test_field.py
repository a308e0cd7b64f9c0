"""Grid, spectral operator, group action and serialization tests."""

import numpy as np
import pytest

from choquard.coxeter import from_name
from choquard.errors import GridMismatch, IncompatibleGrid, ParseError
from choquard.field import (
    Field,
    GridSpec,
    GroupAction,
    act,
    boundary_amplitude,
    dilate,
    from_function,
    helmholtz_inverse_array,
    inner,
    l2_sq_integral,
    radial_shell_stats,
    read_field,
    sine_multipliers,
    symmetrize_array,
    symmetry_residual,
    translate,
    write_field,
    write_radial_csv,
    zeros,
)
from choquard.functionals import evaluate, evaluate_with_gradient, power
from choquard.riesz import get_kernel

# F = 0 leaves E = (A + B)/2, whose L^2 gradient is -Delta u + u
NO_INTERACTION = power(2.0, coeff=0.0)


def grad_sq_integral(u):
    """A(u) = integral of |grad u|^2, through the evaluation core."""
    return evaluate(NO_INTERACTION, get_kernel(u.grid, 1.0), u).A


def gaussian(grid, center=None, width=1.0):
    center = np.zeros(grid.dim) if center is None else np.asarray(center)

    def fn(*xs):
        r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        return np.exp(-r2 / (2.0 * width ** 2))

    return from_function(grid, fn)


# -- grid validation ----------------------------------------------------------

@pytest.mark.parametrize("dim,M,L", [(1, 32, 8.0), (4, 32, 8.0),
                                     (2, 7, 8.0), (2, 6, 8.0),
                                     (2, 32, 0.0), (2, 32, -1.0)])
def test_grid_validation(dim, M, L):
    with pytest.raises(IncompatibleGrid):
        GridSpec(dim, M, L)


def test_grid_accepts_non_power_of_two_even_m():
    grid = GridSpec(3, 12, 6.0)
    assert grid.h == pytest.approx(1.0)
    assert grid.shape == (12, 12, 12)


def test_axis_coords_are_antisymmetric():
    grid = GridSpec(2, 16, 4.0)
    ax = grid.axis_coords()
    np.testing.assert_allclose(ax, -ax[::-1], atol=0)
    assert ax[0] == pytest.approx(-4.0 + grid.h / 2)


def test_field_shape_checked():
    grid = GridSpec(2, 16, 4.0)
    with pytest.raises(IncompatibleGrid):
        Field(grid, np.zeros((16, 8)))


# -- spectral operators -------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("mode", [(1, 2), (3, 1), (2, 2)])
def test_laplacian_eigenfunctions(dim, mode):
    """Sine modes of the Dirichlet box diagonalize the Laplacian."""
    grid = GridSpec(dim, 32, 5.0)
    ks = (mode + (1,))[:dim]
    kap = np.array([k * np.pi / (2 * grid.L) for k in ks])

    def fn(*xs):
        out = 1.0
        for x, k in zip(xs, kap):
            out = out * np.sin(k * (x + grid.L))
        return out

    u = from_function(grid, fn)
    lam = float(np.sum(kap ** 2))
    # (1 - Delta)^{-1} u = u / (1 + lam) exactly when -Delta u = lam u
    np.testing.assert_allclose(
        (1.0 + lam) * helmholtz_inverse_array(grid, u.data), u.data,
        atol=1e-10 * lam)
    assert grad_sq_integral(u) == pytest.approx(lam * l2_sq_integral(u),
                                                rel=1e-12)


def test_helmholtz_inverse_inverts():
    grid = GridSpec(2, 32, 5.0)
    rng = np.random.default_rng(0)
    a = rng.standard_normal(grid.shape)
    w = helmholtz_inverse_array(grid, a)
    # the L^2 gradient without interaction applies 1 - Delta
    back = evaluate_with_gradient(NO_INTERACTION, get_kernel(grid, 1.0),
                                  Field(grid, w))[1].data
    np.testing.assert_allclose(back, a, atol=1e-9)


def test_grad_integral_positive_definite():
    grid = GridSpec(3, 16, 4.0)
    u = gaussian(grid)
    assert grad_sq_integral(u) > 0
    assert grad_sq_integral(zeros(grid)) == 0.0


# -- group actions ------------------------------------------------------------

def test_signed_permutation_action_on_one_hot():
    """g moves the unit mass at node x0 to the node at g x0."""
    grid = GridSpec(3, 16, 4.0)
    group = from_name("B3")
    action = GroupAction(group, grid)
    ax = grid.axis_coords()
    i0 = (3, 7, 12)
    x0 = np.array([ax[i] for i in i0])
    data = np.zeros(grid.shape)
    data[i0] = 1.0
    u = Field(grid, data)
    rng = np.random.default_rng(1)
    for g in rng.choice(group.order, size=8, replace=False):
        mat = group.element_matrices()[g]
        moved = act(action, mat, u)
        target = mat @ x0
        idx = tuple(int(np.argmin(np.abs(ax - t))) for t in target)
        assert moved.data[idx] == 1.0
        assert np.sum(np.abs(moved.data)) == 1.0


@pytest.mark.parametrize("tag", ["A1", "I2:2", "I2:4", "B3"])
def test_action_preserves_l2_grid_exact(tag):
    group = from_name(tag)
    dim = max(2, group.rank)
    grid = GridSpec(dim, 16, 4.0)
    action = GroupAction(group, grid)
    rng = np.random.default_rng(2)
    u = Field(grid, rng.standard_normal(grid.shape))
    for mat, _ in group.elements:
        assert l2_sq_integral(act(action, mat, u)) == pytest.approx(
            l2_sq_integral(u), rel=1e-12)


def test_planar_rotation_matches_analytic():
    """The shear-factored rotation agrees with rotating the function."""
    grid = GridSpec(2, 64, 6.0)
    action = GroupAction(from_name("I2:3"), grid)
    center = np.array([1.1, 0.4])
    u = gaussian(grid, center, width=0.8)
    mats = from_name("I2:3").element_matrices()
    for mat in mats:
        moved = act(action, mat, u)
        expected = gaussian(grid, mat @ center, width=0.8)
        err = np.max(np.abs(moved.data - expected.data))
        assert err < 1e-6


def test_rotation_action_is_exactly_invertible():
    """g then g^{-1} returns the samples up to spectral roundoff."""
    grid = GridSpec(2, 64, 6.0)
    group = from_name("I2:5")
    action = GroupAction(group, grid)
    u = gaussian(grid, np.array([0.9, -0.3]), width=0.7)
    mat = group.element_matrices()[1]
    back = act(action, mat.T, act(action, mat, u))
    assert np.max(np.abs(back.data - u.data)) < 1e-8


@pytest.mark.parametrize("tag", ["A1", "I2:2", "B3"])
def test_symmetrize_idempotent_grid_exact(tag):
    group = from_name(tag)
    dim = max(2, group.rank)
    grid = GridSpec(dim, 16, 4.0)
    action = GroupAction(group, grid)
    rng = np.random.default_rng(3)
    u = Field(grid, rng.standard_normal(grid.shape))
    pu = u.with_data(symmetrize_array(action, u.data))
    ppu = symmetrize_array(action, pu.data)
    np.testing.assert_allclose(ppu, pu.data, atol=1e-13)
    assert symmetry_residual(action, pu) <= 1e-10 or l2_sq_integral(pu) < 1e-20


@pytest.mark.parametrize("tag", ["I2:3", "I2:5"])
def test_symmetrize_near_idempotent_interpolated(tag):
    group = from_name(tag)
    grid = GridSpec(2, 64, 6.0)
    action = GroupAction(group, grid)
    u = gaussian(grid, np.array([1.0, 0.5]), width=0.8)
    pu = u.with_data(symmetrize_array(action, u.data))
    ppu = symmetrize_array(action, pu.data)
    denom = np.sqrt(l2_sq_integral(pu))
    assert np.sqrt(l2_sq_integral(Field(grid, ppu - pu.data))) / denom < 1e-3
    assert symmetry_residual(action, pu) < 1e-2


def test_symmetrize_is_self_adjoint():
    grid = GridSpec(2, 16, 4.0)
    action = GroupAction(from_name("I2:2"), grid)
    rng = np.random.default_rng(4)
    u = Field(grid, rng.standard_normal(grid.shape))
    v = Field(grid, rng.standard_normal(grid.shape))
    pu = u.with_data(symmetrize_array(action, u.data))
    pv = v.with_data(symmetrize_array(action, v.data))
    assert inner(pu, v) == pytest.approx(inner(u, pv), rel=1e-12)


def test_action_rank_cannot_exceed_dim():
    with pytest.raises(IncompatibleGrid):
        GroupAction(from_name("B3"), GridSpec(2, 16, 4.0))


def test_embed_pads_with_identity():
    grid = GridSpec(3, 16, 4.0)
    action = GroupAction(from_name("A1"), grid)
    g = action.embed(np.array([[-1.0]]))
    np.testing.assert_array_equal(g, np.diag([-1.0, 1.0, 1.0]))
    np.testing.assert_array_equal(action.embed_point(np.array([2.0])),
                                  [2.0, 0.0, 0.0])


# -- dilation and translation -------------------------------------------------

def test_dilate_identity():
    grid = GridSpec(2, 32, 6.0)
    u = gaussian(grid)
    np.testing.assert_allclose(dilate(u, 1.0).data, u.data, atol=1e-12)


@pytest.mark.parametrize("t,tol", [(0.8, 1e-4), (1.15, 1e-12)])
def test_dilate_matches_analytic_gaussian(t, tol):
    # shrinking goes through cubic interpolation, stretching through the
    # sine interpolant, which is exact on data this smooth
    grid = GridSpec(2, 64, 8.0)
    u = gaussian(grid, width=1.0)
    expected = gaussian(grid, width=t)
    err = np.max(np.abs(dilate(u, t).data - expected.data))
    assert err < tol


def test_dilate_l2_scaling():
    """|u(./t)|_2^2 = t^N |u|_2^2 up to interpolation error."""
    grid = GridSpec(2, 128, 8.0)
    u = gaussian(grid)
    b0 = l2_sq_integral(u)
    for t in (0.8, 1.2):
        bt = l2_sq_integral(dilate(u, t))
        assert abs(bt - t ** 2 * b0) / (t ** 2 * b0) < 1e-4


def test_translate_matches_analytic():
    grid = GridSpec(2, 64, 8.0)
    u = gaussian(grid)
    shift = np.array([1.3, -0.7])
    expected = gaussian(grid, center=shift)
    err = np.max(np.abs(translate(u, shift).data - expected.data))
    assert err < 1e-4


# -- radial statistics and boundary -------------------------------------------

def test_radial_shells_use_nearest_binning():
    grid = GridSpec(2, 32, 4.0)
    ax = grid.axis_coords()
    data = np.zeros(grid.shape)
    i, j = 20, 25
    data[i, j] = 2.5
    u = Field(grid, data)
    r = np.hypot(ax[i], ax[j])
    centers, max_abs, sign = radial_shell_stats(u)
    k = int(np.argmax(max_abs))
    assert max_abs[k] == 2.5
    assert sign[k] == 1.0
    assert abs(centers[k] - r) <= grid.h / 2


def test_radial_shells_drop_empty_bins():
    grid = GridSpec(3, 16, 4.0)
    u = gaussian(grid)
    centers, max_abs, _ = radial_shell_stats(u)
    # no cell center lies within h/2 of the origin, so no r = 0 shell
    assert centers[0] > 0
    assert np.all(max_abs > 0)


def test_boundary_amplitude():
    grid = GridSpec(2, 32, 4.0)
    assert boundary_amplitude(gaussian(grid, width=0.3)) < 1e-10
    u = Field(grid, np.ones(grid.shape))
    assert boundary_amplitude(u) == pytest.approx(1.0)


# -- serialization ------------------------------------------------------------

def test_field_roundtrip(tmp_path):
    grid = GridSpec(3, 16, 4.0)
    rng = np.random.default_rng(5)
    u = Field(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "u.field"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == grid
    np.testing.assert_array_equal(v.data, u.data)


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.field"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ParseError):
        read_field(path)


def test_radial_csv_format(tmp_path):
    grid = GridSpec(2, 16, 4.0)
    path = tmp_path / "u.csv"
    write_radial_csv(path, gaussian(grid))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "r,abs_u,sign"
    rows = [line.split(",") for line in lines[1:]]
    radii = np.array([float(r[0]) for r in rows])
    assert np.all(np.diff(radii) > 0)
    assert all(int(r[2]) in (-1, 0, 1) for r in rows)
