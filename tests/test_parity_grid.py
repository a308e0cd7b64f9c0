"""The parity-reduced grid against the full grid.

A field of fixed mirror parity along an axis is stored as its positive
half there.  Every operator the solver runs on that half (sine transforms,
A and B, the Helmholtz inverse, x.grad u, the dilation, the translation
and the Riesz convolution) must give the positive half of what the full
grid gives, for every parity vector in {+1, -1, 0}^N.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from choquard.coxeter import from_name
from choquard.errors import GridMismatch
from choquard import field as field_mod
from choquard.field import (
    Field,
    GridSpec,
    GroupAction,
    _dst,
    _idst,
    dilate,
    helmholtz_inverse_array,
    symmetry_residual,
    translate,
    x_dot_grad_array,
)
from choquard.functionals import (
    _gradient_from_parts,
    _state_parts,
    evaluate_with_gradient,
    power,
)
from choquard.riesz import RieszKernel
from helpers import generator_residual, mirror_class, project

TOL = 1e-13
GRIDS = {2: GridSpec(2, 32, 6.0), 3: GridSpec(3, 16, 5.0)}
KERNELS = {}
CASES = [
    pytest.param(dim, par, id=f"{dim}D" + "".join("0+-"[s] for s in par))
    for dim in (2, 3) for par in itertools.product((1, -1, 0), repeat=dim)
]


def kernel_for(grid):
    if grid not in KERNELS:
        KERNELS[grid] = RieszKernel(grid, 1.0 if grid.dim == 2 else 2.0)
    return KERNELS[grid]


def class_field(grid, par, seed=0):
    """A field exactly in the parity class, decaying toward the wall, with
    every sine mode present (the Nyquist mode included)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.shape) * np.exp(-grid.radius_sq() / grid.L)
    return mirror_class(grid, a, par)


def positive_half(grid, par, a):
    m = grid.M // 2
    return a[tuple(slice(m, None) if s else slice(None) for s in par)]


def rel(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


@pytest.mark.parametrize("dim,par", CASES)
def test_fold_unfold_round_trip(dim, par):
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    b = half.fold(a)
    assert b.shape == half.shape
    assert np.array_equal(b, positive_half(grid, par, a))
    assert np.array_equal(half.unfold(b), a)


def concatenated_unfold(half, b):
    """The full-grid array with positive halves b, one concatenation per
    folded axis."""
    for ax in half.folded:
        b = np.concatenate((half.parity[ax] * np.flip(b, ax), b), axis=ax)
    return b


@pytest.mark.parametrize("dim,par", CASES)
def test_unfold_writes_the_concatenated_mirror_images_bit_for_bit(dim, par):
    """Signed zeros included: the one-write unfold negates what the
    concatenation multiplies by -1."""
    half = replace(GRIDS[dim], parity=par)
    b = np.random.default_rng(1).standard_normal(half.shape)
    b[b < -1.0] = -0.0
    b[b > 1.0] = 0.0
    got = half.unfold(b)
    assert got.shape == GRIDS[dim].shape
    assert got.tobytes() == concatenated_unfold(half, b).tobytes()


@pytest.mark.parametrize("dim,par", CASES)
def test_exact_half_finds_the_class_once_per_field(dim, par, monkeypatch):
    calls = []
    find = field_mod._mirror_sign
    monkeypatch.setattr(field_mod, "_mirror_sign",
                        lambda a, ax: calls.append(ax) or find(a, ax))
    u = Field(GRIDS[dim], class_field(GRIDS[dim], par))
    assert u.half.parity == par
    # the stored positive halves, read in place and read-only
    view = u.half_data
    assert np.array_equal(view, positive_half(GRIDS[dim], par, u.data))
    assert np.shares_memory(view, u.data) and not view.flags.writeable
    assert calls == list(range(dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_a_half_grid_field_keeps_its_folded_axis_and_finds_a_whole_even_one(
        dim, monkeypatch):
    """x0 exp(-|x|) stored on the half odd along axis 0 only: the folded
    axis keeps its parity, only the whole axes are searched, and each is
    found even."""
    calls = []
    find = field_mod._mirror_sign
    monkeypatch.setattr(field_mod, "_mirror_sign",
                        lambda a, ax: calls.append(ax) or find(a, ax))
    grid = GridSpec(dim, 16, 4.0)
    x0 = grid.along(0, grid.axis_coords())
    full = x0 * np.exp(-grid.radius())
    h = replace(grid, parity=(-1,) + (0,) * (dim - 1))
    u = Field(h, h.fold(full))
    assert u.half == replace(grid, parity=(-1,) + (1,) * (dim - 1))
    assert np.array_equal(u.half_data, positive_half(grid, u.half.parity, full))
    assert calls == list(range(1, dim))


@pytest.mark.parametrize("dim", [2, 3])
def test_an_odd_axis_with_zero_planes_at_its_mirror_is_odd(dim):
    """Zero node planes next to the mirror pass the even check there; only
    the whole half rules +1 out, and -1 holds."""
    grid = GRIDS[dim]
    a = class_field(grid, (-1,) + (0,) * (dim - 1))
    a[grid.M // 2 - 1] = a[grid.M // 2] = 0.0
    assert Field(grid, a).half.parity == (-1,) + (0,) * (dim - 1)
    even = class_field(grid, (1,) * dim)
    even[grid.M // 2 - 1] = even[grid.M // 2] = 0.0
    assert Field(grid, even).half.parity == (1,) * dim


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("par", [1, -1])
@pytest.mark.parametrize("index", [0, 3, -1])
def test_a_last_bit_asymmetry_leaves_the_axis_whole(dim, par, index):
    """One node plane, at the cube's edge, inside, or next to the mirror,
    one ulp larger in magnitude than its mirror image leaves its axis
    unfolded and the others, along which it stays in the class, not."""
    grid = GRIDS[dim]
    a = class_field(grid, (par,) * dim)
    plane = grid.M // 2 + index if index < 0 else index
    a[plane] = np.copysign(np.nextafter(np.abs(a[plane]), np.inf), a[plane])
    assert Field(grid, a).half.parity == (0,) + (par,) * (dim - 1)


@pytest.mark.parametrize("dim,tag", [
    (2, "A1"), (2, "I2:2"), (2, "I2:3"), (2, "I2:4"),
    (3, "A1"), (3, "A1xA1xA1"), (3, "B3"), (3, "A3")])
def test_symmetry_residual_with_held_flips_skipped_equals_every_generator_applied(dim, tag):
    """The residual with held flips skipped equals the one that applies every
    generator, for a class field, a field of the half's parity that the
    class does not hold, and a field with no parity; it applies no
    generator when every one is a flip the half holds."""
    grid = GRIDS[dim]
    action = GroupAction(from_name(tag), grid)
    rng = np.random.default_rng(2)
    noise = rng.standard_normal(grid.shape)
    fields = [project(action, noise), mirror_class(grid, noise, action.flips), noise]
    for a in fields:
        u = Field(grid, a)
        assert symmetry_residual(action, u) == generator_residual(action, u)
    held = all(ax is not None and action.flips[ax] for ax in action.generator_axes)
    assert held is (tag in ("A1", "I2:2", "A1xA1xA1"))


def test_symmetry_residual_of_a_held_flip_applies_nothing(monkeypatch):
    grid = GRIDS[3]
    action = GroupAction(from_name("A1xA1xA1"), grid)
    u = Field(grid, class_field(grid, (-1, -1, -1)))
    monkeypatch.setattr(field_mod, "act", None)
    assert symmetry_residual(action, u) == 0.0


@pytest.mark.parametrize("dim,par", CASES)
def test_transform_round_trip_and_class_modes(dim, par):
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    b = half.fold(a)
    c = _dst(b, par)
    assert rel(_idst(c, par), b) <= TOL
    # each reduced coefficient is, up to sign, the full grid's coefficient
    # of the same mode: kappa_{2j} on an even axis, kappa_{2j+1} on an odd one
    modes = tuple(slice(None) if not s else slice(0 if s > 0 else 1, None, 2)
                  for s in par)
    assert rel(np.abs(c), np.abs(_dst(a, grid.parity)[modes])) <= TOL


@pytest.mark.parametrize("dim,par", CASES)
def test_reduced_a_and_b_match_the_full_grid(dim, par):
    """The core on the half, directly and through evaluate_with_gradient,
    which finds the half itself, against the core on the full grid."""
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    kernel = kernel_for(grid)
    nl = power(2.0)
    a = class_field(grid, par)
    full, coeff, conv = _state_parts(nl, kernel, a, grid)
    reduced = _state_parts(nl, kernel, half.fold(a), half)[0]
    assert Field(grid, a).half == half
    evaluated, grad = evaluate_with_gradient(nl, kernel, Field(grid, a))
    for state in (reduced, evaluated):
        for name in ("A", "B", "Q", "energy"):
            assert getattr(state, name) == pytest.approx(
                getattr(full, name), rel=TOL, abs=0.0)
    assert grad.grid == grid
    want = _gradient_from_parts(nl, kernel, a, coeff, conv, grid)
    assert rel(grad.data, want) <= TOL


@pytest.mark.parametrize("dim,par", CASES)
def test_reduced_helmholtz_inverse(dim, par):
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    out = helmholtz_inverse_array(half, half.fold(a))
    assert rel(out, positive_half(grid, par, helmholtz_inverse_array(grid, a))) <= TOL


@pytest.mark.parametrize("dim,par", CASES)
def test_reduced_x_dot_grad(dim, par):
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    out = x_dot_grad_array(half, _dst(half.fold(a), par))
    full = x_dot_grad_array(grid, _dst(a, grid.parity))
    assert rel(out, positive_half(grid, par, full)) <= TOL


@pytest.mark.parametrize("t", [0.9, 1.1])
@pytest.mark.parametrize("dim,par", CASES)
def test_reduced_dilation(dim, par, t):
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    out = dilate(Field(half, half.fold(a)), t)
    assert out.grid == half
    full = dilate(Field(grid, a), t).data
    assert rel(out.data, positive_half(grid, par, full)) <= TOL


@pytest.mark.parametrize("dim,par", CASES)
def test_dilation_from_held_coefficients_is_bit_identical(dim, par):
    half = replace(GRIDS[dim], parity=par)
    u = Field(half, half.fold(class_field(GRIDS[dim], par)))
    held = dilate(u, 1.1, _dst(u.data, par))
    assert np.array_equal(held.data, dilate(u, 1.1).data)


SHIFT = np.array([0.7, -0.4, 0.3])


@pytest.mark.parametrize("dim,par", CASES)
def test_translation_folds_onto_the_target_half(dim, par):
    """An even source translated onto the half of parity par is that
    half's fold of the full-grid translate."""
    grid = GRIDS[dim]
    even = replace(grid, parity=(1,) * dim)
    a = class_field(grid, even.parity)
    target = replace(grid, parity=par)
    out = translate(Field(even, even.fold(a)), SHIFT[:dim], target)
    assert out.grid == target
    full = translate(Field(grid, a), SHIFT[:dim]).data
    assert rel(out.data, target.fold(full)) <= TOL


@pytest.mark.parametrize("dim,par", CASES)
def test_translation_from_a_half_source_reads_its_mirror_images(dim, par):
    """A source stored on the half of parity par, translated onto the full
    grid, is the full-grid translate of the whole field."""
    grid = GRIDS[dim]
    half = replace(grid, parity=par)
    a = class_field(grid, par)
    out = translate(Field(half, half.fold(a)), SHIFT[:dim], grid)
    assert rel(out.data, translate(Field(grid, a), SHIFT[:dim]).data) <= TOL


def test_translation_target_must_share_the_cube():
    grid = GRIDS[2]
    with pytest.raises(GridMismatch):
        translate(Field(grid, class_field(grid, (0, 0))), SHIFT[:2],
                  GridSpec(2, grid.M, 2.0 * grid.L, (1, 1)))


@pytest.mark.parametrize("dim,par", CASES)
def test_half_input_convolution_is_the_positive_half(dim, par):
    """The half input, folded on every axis with a parity, unfolds to the
    doubled-grid convolution, which folds no axis."""
    grid = GRIDS[dim]
    kernel = kernel_for(grid)
    even = replace(grid, parity=tuple(abs(s) for s in par))
    v = class_field(grid, even.parity) ** 2
    out = kernel.convolve_array(positive_half(grid, par, v), even.folded)
    assert rel(even.unfold(out), kernel.convolve_array(v)) <= TOL


HOLDS_CLASS = {"trivial": True, "A1": True, "I2:2": True, "A1xA1": True,
               "A1xA1xA1": True, "A1xI2:2": True, "I2:3": False,
               "I2:4": False, "I2:6": False, "A1xI2:4": False, "A3": False,
               "B3": False}


@pytest.mark.parametrize("dim,tag", [
    (dim, tag) for dim in (2, 3) for tag in HOLDS_CLASS
    if from_name(tag).rank <= dim])
def test_action_carries_its_half_grid_and_whether_it_holds_the_class(dim, tag):
    """half keeps the positive half of every parity axis; the half alone
    holds the class exactly for groups of axis flips that fold every axis."""
    grid = GRIDS[dim]
    action = GroupAction(from_name(tag), grid)
    assert replace(action.half, parity=None) == grid
    assert all(p == f for p, f in zip(action.half.parity, action.flips) if f)
    assert action.half_holds_class is HOLDS_CLASS[tag]
