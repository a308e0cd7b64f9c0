"""Grid, spectral operator, group action and serialization tests."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from choquard import field as field_mod
from choquard.coxeter import from_name, is_signed_permutation
from choquard.errors import GridMismatch, IncompatibleGrid, ParseError
from choquard.field import (
    Field,
    GridSpec,
    GroupAction,
    _dst,
    _planar_shear,
    _sine_eval_matrix,
    act,
    apply_matrix_array,
    boundary_amplitude,
    dilate,
    helmholtz_inverse_array,
    l2_sq_integral,
    radial_shell_stats,
    read_field,
    sine_multipliers,
    symmetrize_array,
    symmetry_residual,
    thread_count,
    translate,
    write_field,
    write_radial_csv,
    x_dot_grad_array,
)
from choquard.functionals import evaluate_with_gradient, power
from choquard.solver import _gaussian_seed
from choquard.riesz import get_kernel
from helpers import mirror_class, node_mesh, project

# F = 0 leaves E = (A + B)/2, whose L^2 gradient is -Delta u + u
NO_INTERACTION = power(2.0, coeff=0.0)


def from_function(grid, fn):
    return Field(grid, fn(*node_mesh(grid)))


def inner(u, v):
    assert u.grid == v.grid
    return float(u.grid.cell_volume * np.sum(u.data * v.data))


def grad_sq_integral(u):
    """A(u) = integral of |grad u|^2, through the evaluation core."""
    return evaluate_with_gradient(NO_INTERACTION, get_kernel(u.grid, 1.0), u)[0].A


def gaussian(grid, center=None, width=1.0):
    center = np.zeros(grid.dim) if center is None else np.asarray(center)

    def fn(*xs):
        r2 = sum((x - c) ** 2 for x, c in zip(xs, center))
        return np.exp(-r2 / (2.0 * width ** 2))

    return from_function(grid, fn)


# -- grid validation ----------------------------------------------------------

@pytest.mark.parametrize("dim,M,L", [(1, 32, 8.0), (4, 32, 8.0),
                                     (2, 7, 8.0), (2, 6, 8.0),
                                     (2, 32, 0.0), (2, 32, -1.0),
                                     (2, 16, np.inf), (2, 16, np.nan),
                                     (2, 16, 1e-300), (2, 16, 1e300),
                                     (3, 8, 1e-104), (3, 8, 1e103)])
def test_grid_validation(dim, M, L):
    with pytest.raises(IncompatibleGrid):
        GridSpec(dim, M, L)


@pytest.mark.parametrize("dim", [2, 3])
def test_broadcast_radius_matches_the_mesh_bit_for_bit(dim):
    """|x| and |x|^2 from per-axis coordinates equal the full-mesh sums."""
    grid = GridSpec(dim, 16, 4.0)
    r2 = np.zeros(grid.shape)
    for x in node_mesh(grid):
        r2 += x * x
    assert np.array_equal(grid.radius_sq(), r2)
    assert np.array_equal(grid.radius(), np.sqrt(r2))
    assert np.array_equal(grid.kappa, (np.arange(16) + 1) * np.pi / 8.0)


def test_grid_accepts_non_power_of_two_even_m():
    grid = GridSpec(3, 12, 6.0)
    assert grid.h == pytest.approx(1.0)
    assert grid.shape == (12, 12, 12)


def test_axis_coords_are_antisymmetric():
    grid = GridSpec(2, 16, 4.0)
    ax = grid.axis_coords()
    np.testing.assert_allclose(ax, -ax[::-1], atol=0)
    assert ax[0] == pytest.approx(-4.0 + grid.h / 2)


def test_axis_coords_are_mirror_exact_off_dyadic_steps():
    """On 66^2 at L = 10, where h is not a dyadic fraction, the coordinates
    are exact negatives of their mirrors, so the Gaussian built on the half
    equals the folded full-grid Gaussian bit for bit."""
    grid = GridSpec(2, 66, 10.0)
    ax = grid.axis_coords()
    assert np.array_equal(ax, -ax[::-1])
    half = replace(grid, parity=(1, 1))
    assert np.array_equal(half.axis_coords(0), ax[grid.M // 2:])
    assert np.array_equal(_gaussian_seed(half), half.fold(_gaussian_seed(grid)))


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


@pytest.mark.parametrize("dim,M", [(2, 24), (3, 12)])
def test_x_dot_grad_matches_analytic_sine_product(dim, M):
    """x . grad u of a product of sine modes, the Nyquist mode included."""
    grid = GridSpec(dim, M, 3.0)
    ks = (M, 3, 2)[:dim]
    kap = [k * np.pi / (2 * grid.L) for k in ks]
    xs = node_mesh(grid)
    sines = [np.sin(k * (x + grid.L)) for x, k in zip(xs, kap)]
    u = np.prod(sines, axis=0)
    expected = np.zeros(grid.shape)
    for i, (x, k) in enumerate(zip(xs, kap)):
        d = x * k * np.cos(k * (x + grid.L))
        expected += d * np.prod(sines[:i] + sines[i + 1:], axis=0)
    np.testing.assert_allclose(x_dot_grad_array(grid, _dst(u, grid.parity)), expected,
                               atol=1e-12 * np.max(np.abs(expected)))


def test_x_dot_grad_allocates_no_coordinate_mesh():
    """Peak traced memory of one 3D call stays under six grid arrays.

    It reads about four; building x . grad u from N full coordinate
    arrays, as a mesh does, peaks at seven.
    """
    grid = GridSpec(3, 32, 6.0)
    coeff = _dst(np.exp(-grid.radius() ** 2), grid.parity)
    x_dot_grad_array(grid, coeff)
    tracemalloc.start()
    try:
        x_dot_grad_array(grid, coeff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * coeff.nbytes


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
    assert grad_sq_integral(Field(grid, np.zeros(grid.shape))) == 0.0


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
    for mat in group.element_matrices():
        assert l2_sq_integral(act(action, mat, u)) == pytest.approx(
            l2_sq_integral(u), rel=1e-12)


@pytest.mark.parametrize("tag,dim", [("I2:3", 2), ("I2:5", 2), ("I2:8", 2), ("I2:3", 3)])
def test_planar_rotation_matches_analytic(tag, dim):
    """The shear-factored rotation agrees with rotating the function."""
    grid = GridSpec(dim, 64, 6.0)
    action = GroupAction(from_name(tag), grid)
    center = np.array([1.1, 0.4, -0.3][:dim])
    u = gaussian(grid, center, width=0.8)
    mats = from_name(tag).element_matrices()
    for mat in mats:
        moved = act(action, mat, u)
        expected = gaussian(grid, action.embed(mat) @ center, width=0.8)
        err = np.max(np.abs(moved.data - expected.data))
        assert err < 1e-6


def _direct_shear(grid, a, moved, coef):
    """The sheared samples, evaluating the sine interpolant point by point."""
    ax = grid.axis_coords()
    c = scipy.fft.dst(a, type=2, axis=moved, norm="ortho")
    if moved == 0:   # out[i, j] reads the moved axis 0 at x_i + coef * x_j
        mat = _sine_eval_matrix(grid, ax[:, None] + coef * ax[None, :], 0)
        return np.einsum("ijk,kj...->ij...", mat, c)
    mat = _sine_eval_matrix(grid, ax[None, :] + coef * ax[:, None], 0)
    return np.einsum("ijk,ik...->ij...", mat, c)


@pytest.mark.parametrize("dim,M", [(2, 48), (3, 16)])
@pytest.mark.parametrize("moved", [0, 1])
def test_planar_shear_matches_direct_evaluation(dim, M, moved):
    """The phase-shift shear is the sine interpolant at the sheared points,
    masked to zero outside the cube (coefficients up to 1 push points out)."""
    grid = GridSpec(dim, M, 5.0)
    a = np.random.default_rng(7).standard_normal(grid.shape)
    for coef in (0.37, -0.26, 1.0):
        ref = _direct_shear(grid, a, moved, coef)
        got = _planar_shear(grid, a, moved, coef)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    pu = u.with_data(project(action, u.data))
    ppu = project(action, pu.data)
    np.testing.assert_allclose(ppu, pu.data, atol=1e-13)
    assert symmetry_residual(action, pu) <= 1e-10 or l2_sq_integral(pu) < 1e-20


@pytest.mark.parametrize("tag", ["I2:3", "I2:5"])
def test_symmetrize_near_idempotent_sheared(tag):
    group = from_name(tag)
    grid = GridSpec(2, 64, 6.0)
    action = GroupAction(group, grid)
    u = gaussian(grid, np.array([1.0, 0.5]), width=0.8)
    pu = u.with_data(project(action, u.data))
    ppu = project(action, pu.data)
    denom = np.sqrt(l2_sq_integral(pu))
    assert np.sqrt(l2_sq_integral(Field(grid, ppu - pu.data))) / denom < 1e-3
    assert symmetry_residual(action, pu) < 1e-2


def test_symmetrize_is_self_adjoint():
    grid = GridSpec(2, 16, 4.0)
    action = GroupAction(from_name("I2:2"), grid)
    rng = np.random.default_rng(4)
    u = Field(grid, rng.standard_normal(grid.shape))
    v = Field(grid, rng.standard_normal(grid.shape))
    pu = u.with_data(project(action, u.data))
    pv = v.with_data(project(action, v.data))
    assert inner(pu, v) == pytest.approx(inner(u, pv), rel=1e-12)


# every named group with an exact action, on the grid dims it fits
EXACT_2D = ["trivial", "A1", "A1xA1", *(f"I2:{m}" for m in range(2, 9))]
EXACT_3D = EXACT_2D + ["A1xA1xA1", "A1xI2:2", "A1xI2:4", "A3", "B3"]


def _off_class_field(action):
    """Two smooth bumps, one in the open chamber 4 units out, neither on a
    mirror: far from the class, and its average does not cancel away."""
    grid = action.grid
    center = np.array([0.9, -0.6, 1.3][:grid.dim])
    q = action.group.chamber_interior_point()
    if q.size:
        center[:q.size] = 4.0 * q / np.linalg.norm(q)
    other = np.array([-1.7, 0.8, -0.4][:grid.dim])
    return gaussian(grid, center).data + 0.5 * gaussian(grid, other, 1.5).data


@pytest.mark.parametrize("dim,M,tag", [
    *((2, 64, tag) for tag in EXACT_2D), *((3, 24, tag) for tag in EXACT_3D)])
def test_symmetrize_is_the_group_average(dim, M, tag):
    """The double-coset sum equals (1/|G|) sum_g psi(g) g . a term by term,
    for a on the action's half, unfolded."""
    a, got, want = _projector_and_group_average(dim, M, tag)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    if tag != "trivial":
        assert np.max(np.abs(a - want)) > 0.5 * np.max(np.abs(a))


def _projector_and_group_average(dim, M, tag):
    """(a, the projection of a, (1/|G|) sum_g psi(g) g . a') for the
    off-class field a on the (dim, M, L=8) grid: the projection unfolds
    symmetrize_array of a's fold onto the action's half, and a' is that
    fold unfolded."""
    group = from_name(tag)
    grid = GridSpec(dim, M, 8.0)
    action = GroupAction(group, grid)
    a = _off_class_field(action)
    folded = action.half.unfold(action.half.fold(a))
    want = sum(s * apply_matrix_array(grid, action.embed(g).T, folded)
               for g, s in zip(group.element_matrices(), group.element_signs(),
                               strict=True)) / group.order
    return a, project(action, a), want


@pytest.mark.parametrize("tag", ["I2:16", "I2:40"])
@pytest.mark.parametrize("dim,M", [(2, 64), (3, 24)])
def test_symmetrize_is_the_group_average_across_quarter_turn_ties(dim, M, tag):
    """I2:8k holds rotations by odd multiples of pi/4, whose split sits on a
    quarter-turn tie; the projector is the group average only when every
    tie splits off the flip part, whatever the entries' last bits."""
    _, got, want = _projector_and_group_average(dim, M, tag)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("tag,dim,M", [
    ("I2:3", 2, 256), ("I2:3", 2, 64), ("I2:4", 2, 64), ("I2:5", 2, 66),
    ("I2:6", 2, 64), ("A3", 3, 16), ("B3", 3, 16), ("I2:3", 3, 16),
    ("A1xI2:4", 3, 16),
])
def test_projector_on_the_half_is_the_full_grid_construction_bit_for_bit(tag, dim, M):
    """symmetrize_array on the half equals, to the last bit and signed
    zeros included, the fold of the full-grid construction
    P_D (sum_r w_r r .) P_D of the unfolded input, P_D the mirror average
    over the flips in G, unfold(fold(.)) on the half of parity flips."""
    action = GroupAction(from_name(tag), GridSpec(dim, M, 8.0))
    half = action.half
    b = half.fold(_off_class_field(action))
    b[np.abs(b) < 1e-6] = -0.0
    a = mirror_class(action.grid, half.unfold(b), action.flips)
    (_, weight), *rest = action.cosets
    acc = weight * a
    for r, w in rest:
        acc += w * apply_matrix_array(action.grid, r.T, a)
    want = half.fold(mirror_class(action.grid, acc, action.flips))
    assert np.any(np.signbit(b) & (b == 0.0))
    assert symmetrize_array(action, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("tag,dim,reps", [
    ("trivial", 2, 0), ("A1", 2, 0), ("I2:2", 2, 0), ("I2:3", 2, 1),
    ("I2:4", 2, 1), ("I2:5", 2, 2), ("I2:6", 2, 1), ("I2:8", 2, 2),
    ("I2:3", 3, 1), ("A1xA1xA1", 3, 0), ("A1xI2:4", 3, 1),
    ("A3", 3, 23), ("B3", 3, 5),
])
def test_double_coset_representatives(tag, dim, reps):
    """One term per double coset of the flips in G, identity first, each
    weighted psi(r) |DrD| / |G|: the weights' magnitudes sum to 1."""
    action = GroupAction(from_name(tag), GridSpec(dim, 16, 4.0))
    (first, _), *rest = action.cosets
    np.testing.assert_array_equal(first, np.eye(dim))
    assert len(rest) == reps
    weights = np.array([w for _, w in action.cosets])
    assert np.sum(np.abs(weights)) == pytest.approx(1.0, abs=1e-15)
    for r, w in action.cosets:
        assert np.sign(w) == round(np.linalg.det(r))
    assert action.flips == tuple(s if s < 0 else 0 for s in action.half.parity)
    assert action.half_holds_class is (len(action.cosets) == 1)


def test_i23_projection_runs_one_group_action(monkeypatch):
    """The identity is a scaled copy and the fold averages the one axis
    flip, so an I2:3 projection runs a single (three-shear) group action."""
    grid = GridSpec(2, 64, 8.0)
    action = GroupAction(from_name("I2:3"), grid)
    moved = []
    original = field_mod.apply_matrix_array

    def counted(grid, p, a):
        if not np.array_equal(p, np.eye(grid.dim)):
            moved.append(p)
        return original(grid, p, a)

    monkeypatch.setattr(field_mod, "apply_matrix_array", counted)
    b = action.half.fold(_off_class_field(action))
    for n in (1, 2):
        symmetrize_array(action, b)
        assert len(moved) == n
    assert not is_signed_permutation(moved[0])


def test_action_rank_cannot_exceed_dim():
    with pytest.raises(IncompatibleGrid):
        GroupAction(from_name("B3"), GridSpec(2, 16, 4.0))


@pytest.mark.parametrize("tag,exact", [
    ("trivial", True), ("A1", True), ("A1xA1", True), ("A1xA1xA1", True),
    *((f"I2:{m}", True) for m in range(2, 9)),
    ("A1xI2:2", True), ("A1xI2:3", False), ("A1xI2:4", True),
    ("A3", True), ("B3", True), ("H3", False),
])
def test_group_acts_exactly_or_is_rejected(tag, exact):
    """Index moves or planar shears, or IncompatibleGrid before any use."""
    group = from_name(tag)
    grid = GridSpec(max(2, group.rank), 32, 8.0)
    if not exact:
        with pytest.raises(IncompatibleGrid):
            GroupAction(group, grid)
        return
    action = GroupAction(group, grid)
    u = gaussian(grid, np.linspace(0.3, 0.9, grid.dim))
    pu = u.with_data(project(action, u.data))
    # shears of a smooth bump at h = 0.5 are exact to about 3e-4 (I2:8)
    assert symmetry_residual(action, pu) < 1e-3


@pytest.mark.parametrize("tag,parity2,parity3", [
    pytest.param(*case, id=case[0]) for case in [
        ("trivial", (1, 1), (1, 1, 1)),
        ("A1", (-1, 1), (-1, 1, 1)),
        ("A1xA1", (-1, -1), (-1, -1, 1)),
        ("A1xA1xA1", None, (-1, -1, -1)),
        *((f"I2:{m}", (p, -1), (p, -1, 1)) for m, p in
          [(2, -1), (3, 0), (4, -1), (5, 0), (6, -1), (7, 0), (8, -1)]),
        ("A1xI2:2", None, (-1, -1, -1)),
        ("A1xI2:4", None, (-1, -1, -1)),
        ("A3", None, (0, 0, 0)),
        ("B3", None, (-1, -1, -1)),
    ]
])
def test_group_parity(tag, parity2, parity3):
    """-1 where the axis flip is in G, +1 on axes G fixes, 0 otherwise."""
    group = from_name(tag)
    for dim, want in ((2, parity2), (3, parity3)):
        if want is None:
            continue
        action = GroupAction(group, GridSpec(dim, 16, 4.0))
        assert action.half.parity == want
        # the group average already has the parity of every flip in G
        u = gaussian(action.grid, np.linspace(0.3, 0.9, dim)).data
        pu = project(action, u)
        for ax, s in enumerate(want):
            if s == -1:
                assert np.allclose(pu, s * np.flip(pu, ax), atol=1e-12)


def _acting_cases():
    """(tag, dim) for each named tag, I2:2-24 and A1xI2:2-12 that acts
    exactly on a 2D or a 3D grid."""
    tags = ["trivial", "A1", "A1xA1", "A1xA1xA1", "A3", "B3", "H3",
            *(f"I2:{m}" for m in range(2, 25)),
            *(f"A1xI2:{m}" for m in range(2, 13))]
    cases = []
    for tag in tags:
        for dim in (2, 3):
            try:
                GroupAction(from_name(tag), GridSpec(dim, 16, 4.0))
            except IncompatibleGrid:
                continue
            cases.append(pytest.param(tag, dim, id=f"{tag}-{dim}d"))
    return cases


@pytest.mark.parametrize("tag,dim", _acting_cases())
def test_parity_is_even_beyond_the_rank_and_the_flips_within(tag, dim):
    """The rank rule agrees with a scan of every embedded element: +1 on
    each axis that all of them fix, the flip of the axis elsewhere."""
    action = GroupAction(from_name(tag), GridSpec(dim, 16, 4.0))
    mats = np.array([action.embed(g) for g in action.group.element_matrices()])
    fixed = [np.allclose(mats[:, ax], e) and np.allclose(mats[:, :, ax], e)
             for ax, e in enumerate(np.eye(dim))]
    assert action.half.parity == tuple(1 if f else s
                                       for f, s in zip(fixed, action.flips))


@pytest.mark.parametrize("parity", [(1, 1), (-1, 1), (0, -1), (1, -1, 0),
                                    (-1, -1, -1), (0, 1, -1)],
                         ids=lambda p: ",".join(map(str, p)))
def test_parity_fold_is_exact_and_idempotent(parity):
    """The mirror average unfold(fold(a)) on the half of that parity."""
    grid = GridSpec(len(parity), 16, 4.0)
    a = np.random.default_rng(5).standard_normal(grid.shape)
    b = mirror_class(grid, a, parity)
    for ax, s in enumerate(parity):
        if s:
            assert np.array_equal(b, s * np.flip(b, ax))
        else:
            assert not np.allclose(b, np.flip(b, ax))
            assert not np.allclose(b, -np.flip(b, ax))
    assert np.array_equal(mirror_class(grid, b, parity), b)
    # a projector: the folded-away part is orthogonal to the result
    assert abs(np.sum((a - b) * b)) <= 1e-12 * np.sum(a * a)



@pytest.mark.parametrize("parity", [(1, 1, 1), (-1, 1, 1), (-1, -1, 0), (0, 0, 0)],
                         ids=lambda p: ",".join(map(str, p)))
def test_fold_is_the_positive_half_of_parity_fold_bit_for_bit(parity):
    """GridSpec.fold is exact on its own mirror average: the unfold of a
    fold holds it in the positive halves, and folding that again gives it
    back to the last bit, signed zeros included.  The class projector's
    last fold rests on this."""
    half = GridSpec(3, 32, 4.0, parity)
    a = np.random.default_rng(7).standard_normal((32,) * 3)
    a[np.abs(a) < 0.3] = 0.0
    a[a > 1.5] = -0.0
    b = half.fold(a)
    full = half.unfold(b)
    positive = tuple(slice(16, None) if s else slice(None) for s in parity)
    assert full[positive].tobytes() == b.tobytes()
    assert half.fold(full).tobytes() == b.tobytes()


_C, _S = np.cos(0.3), np.sin(0.3)


@pytest.mark.parametrize("mat", [
    pytest.param([[1.0, 0, 0], [0, _C, -_S], [0, _S, _C]], id="tilt"),
    pytest.param([[1.0, 0.3, 0], [0, 1, 0], [0, 0, 1]], id="planar-shear"),
    pytest.param([[_C, -_S, 0], [_S, _C, 0], [0, 0, -1]], id="rotation-and-flip"),
])
def test_non_exact_matrix_is_rejected(mat):
    """Only signed permutations and orthogonal maps of the first two axes
    act: a shear or a planar rotation that also flips axis 2 is refused."""
    grid = GridSpec(3, 16, 4.0)
    with pytest.raises(IncompatibleGrid):
        apply_matrix_array(grid, np.array(mat), np.zeros(grid.shape))


def _split_cases():
    """Every element of I2:2-24 (2D), A1xI2:2, A1xI2:4, A3 and B3 (3D),
    and its transpose, embedded in its grid."""
    tags = [*((f"I2:{m}", 2) for m in range(2, 25)),
            ("A1xI2:2", 3), ("A1xI2:4", 3), ("A3", 3), ("B3", 3)]
    for tag, dim in tags:
        action = GroupAction(from_name(tag), GridSpec(dim, 16, 4.0))
        for g in action.group.element_matrices():
            p = action.embed(g)
            yield tag, p
            yield tag, p.T


def test_split_is_a_signed_permutation_then_a_small_rotation():
    """P = S R(phi), S a signed permutation and |phi| <= pi/4, with phi
    exactly 0 when P is itself a signed permutation."""
    for tag, p in _split_cases():
        s, phi = field_mod._split(p)
        assert is_signed_permutation(s) and np.array_equal(s, np.rint(s)), tag
        assert abs(phi) <= np.pi / 4 + 1e-12, tag
        rot = np.eye(len(p))
        rot[:2, :2] = [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
        assert np.max(np.abs(s @ rot - p)) <= 1e-12, tag
        if is_signed_permutation(p):
            assert phi == 0.0, tag


@pytest.mark.parametrize("dc", [0.0, -2.2e-16, 2.2e-16])
def test_split_breaks_a_quarter_turn_tie_to_the_flip_part(dc):
    """R(+-pi/4) and R(pi/4) F, with the cosine moved in its last bits, split
    with S the flip part (a diagonal S) and |phi| = pi/4."""
    c, s = np.cos(np.pi / 4) + dc, np.sin(np.pi / 4)
    for p, flip in [([[c, -s], [s, c]], [1, 1]), ([[c, s], [-s, c]], [1, 1]),
                    ([[c, s], [s, -c]], [1, -1])]:
        got, phi = field_mod._split(np.array(p))
        np.testing.assert_array_equal(got, np.diag(flip))
        assert abs(phi) == pytest.approx(np.pi / 4, abs=1e-15)


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


@pytest.mark.parametrize("t", [0.3, 0.5, 0.8, 1.15])
def test_dilate_matches_analytic_gaussian(t):
    grid = GridSpec(2, 64, 8.0)
    u = gaussian(grid, width=1.0)
    expected = gaussian(grid, width=t)
    err = np.max(np.abs(dilate(u, t).data - expected.data))
    assert err < 1e-12


@pytest.mark.parametrize("parity", list(itertools.product((-1, 0, 1), repeat=2)),
                         ids=lambda p: ",".join(map(str, p)))
def test_l2_sq_integral_is_the_full_grid_b_on_every_half(parity):
    """A parity-reduced field gives the B of its unfolded full-grid field."""
    grid = GridSpec(2, 16, 4.0)
    a = mirror_class(grid, gaussian(grid, [1.2, -0.9]).data, parity)
    half = replace(grid, parity=parity)
    full_b = l2_sq_integral(Field(grid, a))
    assert full_b > 0.1
    assert l2_sq_integral(Field(half, half.fold(a))) == pytest.approx(full_b, rel=1e-13)


def test_dilate_l2_scaling():
    """|u(./t)|_2^2 = t^N |u|_2^2 up to interpolation error."""
    grid = GridSpec(2, 128, 8.0)
    u = gaussian(grid)
    b0 = l2_sq_integral(u)
    for t in (0.8, 1.2):
        bt = l2_sq_integral(dilate(u, t))
        assert abs(bt - t ** 2 * b0) / (t ** 2 * b0) < 1e-12


def test_translate_matches_analytic():
    grid = GridSpec(2, 64, 8.0)
    u = gaussian(grid)
    shift = np.array([1.3, -0.7])
    expected = gaussian(grid, center=shift)
    err = np.max(np.abs(translate(u, shift).data - expected.data))
    assert err < 1e-12


@pytest.mark.parametrize("parity", [(1, 1), (-1, -1), (0, 0), (1, -1, 0)],
                         ids=lambda p: ",".join(map(str, p)))
def test_translate_prolongs_and_restricts_between_grids_of_one_box(parity):
    """Sine modes the M = 16 grid carries, sampled on its half of each
    parity, prolong onto the M = 32 half as their own samples there and
    restrict back to themselves; the highest mode each axis carries, the
    coarse Nyquist mode on an odd or free axis, is among them."""
    dim = len(parity)
    coarse = GridSpec(dim, 16, 5.0, parity)
    fine = GridSpec(dim, 32, 5.0, parity)
    rng = np.random.default_rng(4)
    carried = [np.arange(16)[field_mod._modes(p)] for p in parity]
    modes = [tuple(int(k[-1]) for k in carried)]
    modes += [tuple(int(rng.choice(k)) for k in carried) for _ in range(5)]
    weights = rng.uniform(0.5, 1.5, size=len(modes))

    def sampled(grid):
        out = np.zeros(grid.shape)
        for w, ks in zip(weights, modes):
            term = w
            for ax, k in enumerate(ks):
                x = grid.axis_coords(ax)
                term = term * grid.along(ax, np.sin(grid.kappa[k] * (x + grid.L)))
            out = out + term
        return out

    origin = np.zeros(dim)
    a = sampled(coarse)
    up = translate(Field(coarse, a), origin, fine)
    scale = np.max(np.abs(a))
    assert np.max(np.abs(up.data - sampled(fine))) <= 1e-12 * scale
    back = translate(up, origin, coarse)
    assert back.grid == coarse
    assert np.max(np.abs(back.data - a)) <= 1e-12 * scale


def test_translate_refuses_another_box():
    u = gaussian(GridSpec(2, 16, 4.0))
    for target in (GridSpec(2, 16, 5.0), GridSpec(3, 16, 4.0)):
        with pytest.raises(GridMismatch, match="another box"):
            translate(u, np.zeros(2), target)


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


@pytest.mark.parametrize("dim", [2, 3])
def test_radial_shells_of_an_odd_field_read_its_positive_half(dim):
    """x0 times a Gaussian, exactly odd in x0: both signs attain every shell
    maximum on the full grid, and the stored half x0 > 0 is positive."""
    grid = GridSpec(dim, 16, 4.0)
    x = node_mesh(grid)
    u = Field(grid, mirror_class(grid, x[0] * gaussian(grid).data,
                                 (-1,) + (0,) * (dim - 1)))
    _, _, sign = radial_shell_stats(u)
    assert np.all(sign == 1)


def test_radial_shell_attained_by_both_signs_has_sign_zero():
    grid = GridSpec(2, 32, 4.0)
    data = np.zeros(grid.shape)
    i, j = 20, 25
    data[i, j], data[j, i] = 2.5, -2.5
    _, max_abs, sign = radial_shell_stats(Field(grid, data))
    k = int(np.argmax(max_abs))
    assert max_abs[k] == 2.5
    assert sign[k] == 0
    assert np.count_nonzero(sign) == 0


def _radial_oracle(u):
    """Shell centers and max |u| by a loop over every node of the full grid."""
    grid = u.grid
    c = grid.axis_coords()
    best = {}
    for idx in itertools.product(range(grid.M), repeat=grid.dim):
        r = np.sqrt(sum(c[i] * c[i] for i in idx))
        k = int(np.rint(r / grid.h))
        best[k] = max(best.get(k, 0.0), abs(float(u.data[idx])))
    ks = sorted(best)
    return np.array(ks) * grid.h, np.array([best[k] for k in ks])


@pytest.mark.parametrize("parity", [(1, 1), (-1, 1), (0, -1), (1, 1, 1),
                                    (-1, -1, -1), (1, -1, 0), (0, 0, 0)])
def test_radial_shells_match_a_full_grid_oracle(parity):
    """Even, odd and mixed-parity fields: the half-grid shells are the full
    grid's, bit for bit."""
    grid = GridSpec(len(parity), 16, 4.0)
    rng = np.random.default_rng(11)
    u = Field(grid, mirror_class(grid, rng.standard_normal(grid.shape), parity))
    centers, max_abs, _ = radial_shell_stats(u)
    want_centers, want_max = _radial_oracle(u)
    np.testing.assert_array_equal(centers, want_centers)
    np.testing.assert_array_equal(max_abs, want_max)


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


def test_reduced_field_reads_back_unfolded(tmp_path):
    """A parity-reduced field is written, and read back, as its full grid."""
    half = GridSpec(2, 16, 4.0, parity=(1, -1))
    rng = np.random.default_rng(6)
    u = Field(half, rng.standard_normal(half.shape))
    path = tmp_path / "u.field"
    write_field(path, u)
    v = read_field(path)
    assert v.grid == GridSpec(2, 16, 4.0)
    np.testing.assert_array_equal(v.data, half.unfold(u.data))


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


def test_thread_count_is_scipy_fft_workers():
    assert thread_count() == 1
    with scipy.fft.set_workers(2):
        assert thread_count() == 2
    assert thread_count() == 1
