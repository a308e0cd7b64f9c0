"""Tests for the constrained descent solver and the orbit-bump initializer.

The shared grid is deliberately small (2D, 64 cells per axis, half-width 10)
so the whole module runs in a few seconds while still converging to the
configured tolerances.
"""

import functools
import itertools
import json
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from choquard.analysis import nodal_domains
from choquard.coxeter import from_name
from choquard import solver
from choquard.errors import (
    GridMismatch,
    NoDescent,
    NonpositiveQ,
    ParseError,
    SymmetryDrift,
)
from choquard.field import (
    Field,
    GridSpec,
    GroupAction,
    _dst,
    dilate,
    symmetrize_array,
    symmetry_residual,
    translate,
    x_dot_grad_array,
)
from choquard.functionals import (
    _state_parts,
    evaluate_with_gradient,
    parse_nonlinearity,
    pohozaev_root,
    ray_maximum,
)
from choquard.riesz import RieszKernel
from choquard.solver import (
    SolverConfig,
    _Descent,
    _gaussian_seed,
    _least_ray_start,
    _projector,
    build_initializer,
    quintic_cutoff,
    solve_ground,
    solve_saddle,
)
from helpers import node_mesh

GRID = GridSpec(dim=2, M=64, L=10.0)
NL = parse_nonlinearity("power:p=2")
CFG = SolverConfig(seed=0, restarts=2)
TRIVIAL = GroupAction(from_name("trivial"), GRID)
# _Descent iterates on the trivial group's parity-reduced grid
HALF = TRIVIAL.half


@pytest.fixture(scope="module")
def kernel():
    return RieszKernel(GRID, alpha=1.0)


@pytest.fixture(scope="module")
def ground(kernel):
    return solve_ground(NL, kernel, GRID, CFG)


@pytest.fixture(scope="module")
def saddle(kernel, ground):
    group = from_name("A1")
    return solve_saddle(group, NL, kernel, GRID,
                        SolverConfig(seed=0, restarts=1), base=ground.field)


def test_ground_converges(ground):
    assert ground.grad_residual <= CFG.grad_tol
    assert ground.p_residual <= CFG.pohozaev_tol
    assert ground.iters >= 1
    assert 1.85 < ground.energy < 1.95
    assert ground.group == "trivial"
    assert ground.symmetry_residual == 0.0
    assert ground.wall_clock > 0.0


def test_ground_is_nonnegative_and_localized(ground):
    u = ground.field.data
    assert u.min() >= 0.0
    assert 0.5 < u.max() < 1.5
    # the state should have died out well before the wall
    assert ground.boundary_amplitude < 1e-3


def test_ground_nehari_identity(ground):
    # at a critical point the pairing with u itself gives A + B = 2Q for
    # the quadratic branch, independent of the descent path that found it
    lhs = ground.A + ground.B
    assert abs(lhs - 2.0 * ground.Q) <= 1e-2 * lhs


def test_ground_deterministic(kernel, ground):
    again = solve_ground(NL, kernel, GRID, CFG)
    assert again.energy == ground.energy
    assert np.array_equal(again.field.data, ground.field.data)


def test_restart_energies_agree(ground):
    energies = np.asarray(ground.restart_energies)
    assert energies.shape == (CFG.restarts,)
    assert np.all(np.isfinite(energies))
    spread = energies.max() - energies.min()
    assert spread <= 1e-3 * abs(energies.mean())


def _recorded_retractions(monkeypatch):
    """Record each _retract call's input array."""
    retract, calls = _Descent._retract, []

    def recorded(self, a, *parts):
        calls.append(a)
        return retract(self, a, *parts)

    monkeypatch.setattr(_Descent, "_retract", recorded)
    return calls


def test_a_converged_start_is_returned_without_a_retraction(kernel, ground,
                                                            monkeypatch):
    """A start that already meets grad_tol and pohozaev_tol in the class is
    the descent's result as it stands: 0 iterations, no retraction, and the
    residuals its own gradient gives."""
    calls = _recorded_retractions(monkeypatch)
    start = HALF.fold(ground.field.data)
    a, state, grad_res, p_res, iters = _Descent(NL, kernel, CFG, TRIVIAL).run(start)
    assert calls == [] and iters == 0
    assert a is start
    assert state.energy == ground.energy
    assert (grad_res, p_res) == (ground.grad_residual, ground.p_residual)


def test_a_converged_ground_start_with_a_negative_node_still_retracts(
        kernel, ground, monkeypatch):
    """|.| would change a ground start with one negative node, so the start
    is retracted, and projected, before the descent judges it."""
    calls = _recorded_retractions(monkeypatch)
    start = HALF.fold(ground.field.data)
    start[-1, -1] = -1e-12
    a, _, grad_res, _, iters = _Descent(NL, kernel, CFG, TRIVIAL).run(start)
    assert len(calls) == 1 and calls[0] is start
    assert a.min() >= 0.0 and iters == 0 and grad_res <= CFG.grad_tol


def _recorded_averages(monkeypatch):
    """Script every residual as converged, and record each _retract call
    and, for each group average, whether a _retract call runs it."""
    averaged, retracting = [], []
    average, retract = solver.symmetrize_array, _Descent._retract

    def recorded_average(*args):
        averaged.append(bool(retracting))
        return average(*args)

    def recorded_retract(self, *args):
        retracting.append(None)
        return retract(self, *args)

    monkeypatch.setattr(solver, "symmetrize_array", recorded_average)
    monkeypatch.setattr(_Descent, "_retract", recorded_retract)
    monkeypatch.setattr(solver, "residuals", lambda grid, state, grad: (0.0, 0.0))
    return averaged, retracting


def test_an_averaging_class_start_off_the_class_still_retracts(kernel, ground,
                                                                monkeypatch):
    """For I2:3, whose projector averages over the group, a start near the
    manifold whose residuals are scripted as converged but whose symmetry
    residual exceeds grad_tol is retracted once, and the group average runs
    only inside that retraction."""
    action = GroupAction(from_name("I2:3"), GRID)
    built = build_initializer(action, ground.field)
    state = _state_parts(NL, kernel, built.data, built.grid)[0]
    start = dilate(built, pohozaev_root(state, GRID.dim, kernel.alpha)).data
    descent = _Descent(NL, kernel, CFG, action)
    assert descent._near_gradient(
        start, *_state_parts(NL, kernel, start, built.grid))[1] is not None
    drift = symmetry_residual(action, Field(GRID, built.grid.unfold(start)))
    assert drift > CFG.grad_tol
    averaged, retracting = _recorded_averages(monkeypatch)
    *_, iters = descent.run(start)
    assert iters == 0 and len(retracting) == 1 and averaged == [True]


def _i23_class_start(kernel, action):
    """Im (x + iy)^3 under a Gaussian, sampled on the grid, folded onto the
    I2:3 half and scaled onto the manifold (its Pohozaev root goes as
    1 / amplitude^2 here)."""
    x, y = node_mesh(GRID)
    a = action.half.fold((3.0 * x * x * y - y ** 3) * np.exp(-(x * x + y * y) / 4.0))
    state = _state_parts(NL, kernel, a, action.half)[0]
    return np.sqrt(pohozaev_root(state, GRID.dim, kernel.alpha)) * a


def test_an_averaging_class_start_in_the_class_is_returned_as_it_stands(
        kernel, monkeypatch):
    """An I2:3 start whose symmetry residual is within grad_tol, with its
    residuals scripted as converged, is the descent's result as it stands:
    0 iterations, no retraction and no group average."""
    action = GroupAction(from_name("I2:3"), GRID)
    start = _i23_class_start(kernel, action)
    drift = symmetry_residual(action, Field(GRID, action.half.unfold(start)))
    assert drift <= CFG.grad_tol
    averaged, retracting = _recorded_averages(monkeypatch)
    a, _, _, _, iters = _Descent(NL, kernel, CFG, action).run(start)
    assert a is start and iters == 0 and retracting == [] and averaged == []


def test_a_held_averaging_start_is_measured_once(kernel, monkeypatch):
    """A solve whose last level holds its I2:3 start in the class, with the
    residuals scripted as converged, reports the symmetry residual that
    descent read to hold it: one measurement in the whole solve, equal bit
    for bit to measuring the report's field."""
    action = GroupAction(from_name("I2:3"), GRID)
    start = _i23_class_start(kernel, action)
    calls = []
    measure = solver.symmetry_residual
    monkeypatch.setattr(solver, "symmetry_residual",
                        lambda *args: calls.append(None) or measure(*args))
    monkeypatch.setattr(solver, "residuals", lambda grid, state, grad: (0.0, 0.0))
    cfg = SolverConfig(restarts=1)
    rep = solver._solve(cfg, Field(action.half, start),
                        [_Descent(NL, kernel, cfg, action)])
    assert rep.iters == 0 and len(calls) == 1
    assert rep.symmetry_residual == measure(action, rep.field)


def test_report_json_round_trip(ground):
    d = ground.to_json_dict()
    assert set(d) == {
        "group", "grid", "alpha", "nonlinearity", "iters", "coarse_iters",
        "energy", "A", "B", "Q", "P_residual", "grad_residual",
        "symmetry_residual", "nodal_count", "decay_rate", "boundary_amplitude",
        "wall_clock",
    }
    assert d["coarse_iters"] == 8  # the 32^2 descent of the winning restart
    assert d["grid"] == {"dim": 2, "M": 64, "L": 10.0}
    assert d["nonlinearity"] == "power:p=2"
    parsed = json.loads(json.dumps(d))
    assert parsed["energy"] == pytest.approx(ground.energy)


def discrete_pohozaev(kernel, a):
    """P_h = d/dt E_h(u(./t)) at t = 1 = -<grad E_h(u), x . grad u>_h."""
    _, grad = evaluate_with_gradient(NL, kernel, Field(GRID, a))
    xgu = x_dot_grad_array(GRID, _dst(a, GRID.parity))
    return -GRID.cell_volume * float(np.sum(grad.data * xgu))


@pytest.mark.parametrize("t", [0.97, 0.99, 1.01, 1.03])
def test_near_regime_retraction_cuts_discrete_pohozaev(kernel, ground, t):
    """One retraction of a dilated ground state shrinks |P_h| at least 100x."""
    a = dilate(ground.field, t).data
    state, coeff, conv = _state_parts(NL, kernel, a, GRID)
    assert abs(pohozaev_root(state, GRID.dim, kernel.alpha) - 1.0) <= 0.05
    half = HALF.fold(a)
    retracted = HALF.unfold(_Descent(NL, kernel, CFG, TRIVIAL)._retract(
        half, *_state_parts(NL, kernel, half, HALF))[0])
    before = discrete_pohozaev(kernel, a)
    assert abs(discrete_pohozaev(kernel, retracted)) * 100.0 <= abs(before)


def test_retraction_returns_continuum_root_when_fold_leaves_q_nonpositive(
        kernel, ground):
    """A defect P_h - P larger than the folded Q falls back to t0."""
    a = HALF.fold(ground.field.data)
    state, coeff, conv = _state_parts(NL, kernel, a, HALF)
    dim, alpha = GRID.dim, kernel.alpha
    # Q with P(u(./t)) = 0 at t = 1, and a continuum P far below P_h
    q_root = ((dim - 2) * state.A + dim * state.B) / (dim + alpha)
    synthetic = replace(state, Q=q_root, pohozaev=-10.0 * (state.A + state.B))
    t0 = pohozaev_root(synthetic, dim, alpha)
    assert abs(t0 - 1.0) <= 0.05
    descent = _Descent(NL, kernel, CFG, TRIVIAL)
    assert descent._retraction_root(a, synthetic, coeff, conv) == t0


def test_trial_whose_retraction_raises_is_a_rejected_trial(kernel, monkeypatch):
    """NonpositiveQ from a trial retraction halves the step like Q <= 0 does,
    and the retraction is the one place where the projector runs."""
    root = _Descent._retraction_root
    calls = []

    def first_trial_raises(self, *args):
        calls.append(None)
        if len(calls) == 2:  # the first call retracts the start field
            raise NonpositiveQ("forced")
        return root(self, *args)

    monkeypatch.setattr(_Descent, "_retraction_root", first_trial_raises)
    projected = []

    def project(a):  # the ground projector on the half grid
        projected.append(None)
        return np.abs(a)

    retract = _Descent._retract
    trials, retracted, projections = [], [], []

    def recorded(self, a, *parts):
        trials.append(a)
        before = len(projected)
        try:
            out = retract(self, a, *parts)
        finally:
            projections.append(len(projected) - before)
        retracted.append(out[0])
        return out

    monkeypatch.setattr(_Descent, "_retract", recorded)
    monkeypatch.setattr(solver, "_projector", lambda action: project)
    cfg = SolverConfig(seed=0, restarts=1)
    a, state, grad_res, p_res, iters = _Descent(NL, kernel, cfg, TRIVIAL).run(
        HALF.fold(_gaussian_seed(GRID)))
    assert grad_res <= cfg.grad_tol and iters >= 1 and len(calls) > 2
    # one projection per retraction, none where the forced failure cut it
    # short, and none outside the retraction
    assert projections == [1, 0] + [1] * (len(trials) - 2)
    assert len(projected) == len(trials) - 1
    # _retract sees: the start field, then trials at eta = 1 and, after the
    # forced failure, eta = 1/2 from the same iterate, the retracted start
    iterate = retracted[0]
    full, half = trials[1] - iterate, trials[2] - iterate
    assert np.allclose(half, 0.5 * full, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(full)))


def test_bb_step_is_the_curvature_ratio():
    s = np.array([1.0, 2.0, 0.5])
    y = np.array([2.0, 1.0, 1.0])
    py = np.array([1.0, 0.5, 0.5])
    # <s, y> = 4.5, <y, Py> = 3.0
    assert solver._bb_step(s, y, py) == pytest.approx(1.5, rel=1e-15)


@pytest.mark.parametrize("scale,expected", [(1e-3, solver.STEP_MIN),
                                            (1e3, solver.STEP_MAX)])
def test_bb_step_is_clipped(scale, expected):
    y = np.array([1.0, -2.0])
    assert solver._bb_step(scale * y, y, y) == expected


@pytest.mark.parametrize("s,py", [
    (np.array([-1.0, 0.0]), np.array([1.0, 0.0])),  # <s, y> < 0
    (np.array([0.0, 1.0]), np.array([1.0, 0.0])),   # <s, y> = 0
    (np.array([1.0, 0.0]), np.array([-1.0, 0.0])),  # <y, Py> < 0
    (np.array([1.0, 0.0]), np.array([0.0, 1.0])),   # <y, Py> = 0
])
def test_bb_step_falls_back_without_positive_curvature(s, py):
    assert solver._bb_step(s, np.array([1.0, 0.0]), py) == solver.STEP


def test_trial_above_the_iterate_but_below_the_window_is_accepted(
        kernel, monkeypatch):
    """Retracted energies scripted 10 (start), 5, 7, then 1: the trial at 7
    lies above the iterate at 5 but below the window maximum 10, so the
    second line search accepts it without a backtrack and the third
    iteration starts from it."""
    retract = _Descent._retract
    script = [10.0, 5.0, 7.0]
    retracted = []

    def scripted(self, *args):
        a, state, coeff, conv = retract(self, *args)
        energy = script[len(retracted)] if len(retracted) < len(script) else 1.0
        retracted.append(energy)
        return a, replace(state, energy=energy), coeff, conv

    monkeypatch.setattr(_Descent, "_retract", scripted)
    judged = []
    measure = solver.residuals

    def recorded(grid, state, grad):
        judged.append(state.energy)
        return measure(grid, state, grad)

    monkeypatch.setattr(solver, "residuals", recorded)
    cfg = SolverConfig(max_iters=3, grad_tol=1e-14, pohozaev_tol=1e-14)
    with pytest.raises(NoDescent, match="no convergence in 3 iterations"):
        _Descent(NL, kernel, cfg, TRIVIAL).run(HALF.fold(_gaussian_seed(GRID)))
    assert judged == [10.0, 5.0, 7.0]
    assert retracted == script + [1.0]  # one trial per line search


def test_zero_initializer_rejected(kernel):
    cfg = SolverConfig(seed=0, restarts=1)
    flat = Field(HALF, np.zeros(HALF.shape))
    with pytest.raises(NonpositiveQ):
        solver._solve(cfg, flat, [_Descent(NL, kernel, cfg, TRIVIAL)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["saddle_base"])
def test_non_finite_start_field_is_rejected(kernel, entry, bad, monkeypatch):
    """A base holding NaN or Inf is refused before the spacing scan."""
    built, _ = _recorded_scan(monkeypatch)
    data = np.exp(-GRID.radius() ** 2)
    data[GRID.M // 2, GRID.M // 2] = bad
    with pytest.raises(ParseError, match="NaN or Inf"):
        solve_saddle(from_name("A1"), NL, kernel, GRID,
                     SolverConfig(seed=0, restarts=1), base=Field(GRID, data))
    assert built == []


def test_iteration_budget_exhaustion_raises(kernel):
    cfg = SolverConfig(seed=0, restarts=1, max_iters=1, grad_tol=1e-14,
                       pohozaev_tol=1e-14)
    with pytest.raises(NoDescent):
        solve_ground(NL, kernel, GRID, cfg)


def test_discrete_convergence_with_a_pohozaev_excess_stops_at_once():
    """The planar ground on a 32^2 box of half-width 8 reaches grad_tol with
    a continuum Pohozaev residual above pohozaev_tol.  The descent stops
    there with NoDescent, not after its iteration budget."""
    grid = GridSpec(2, 32, 8.0)
    with pytest.raises(NoDescent, match="Pohozaev residual") as err:
        solve_ground(NL, RieszKernel(grid, alpha=1.0), grid,
                     SolverConfig(restarts=1, max_iters=400))
    stop = re.search(r"at iteration (\d+)", str(err.value))
    assert stop is not None and int(stop.group(1)) < 50


def test_solver_grid_must_match_kernel(kernel):
    with pytest.raises(GridMismatch):
        solve_ground(NL, kernel, GridSpec(2, 32, 10.0),
                     SolverConfig(seed=0, restarts=1))


def test_a_kernel_for_another_grid_is_refused_before_the_scan(kernel, monkeypatch):
    """A saddle solve given a base and the 64^2 kernel on a 32^2 grid raises
    GridMismatch before the spacing scan builds a candidate."""
    built, evaluated = _recorded_scan(monkeypatch)
    grid = GridSpec(2, 32, 10.0)
    with pytest.raises(GridMismatch, match="kernel grid"):
        solve_saddle(from_name("A1"), NL, kernel, grid,
                     SolverConfig(seed=0, restarts=1), base=_even_base(grid))
    assert built == [] and evaluated == []


@pytest.mark.parametrize("radius", [1.5, 2.5])
def test_quintic_cutoff_plateau_and_support(radius):
    c = quintic_cutoff(GRID, radius)
    r = GRID.radius()
    assert np.all(c[r <= radius] == 1.0)
    assert np.all(c[r >= 2.0 * radius] == 0.0)
    assert np.all((c >= 0.0) & (c <= 1.0))
    # the power form of the blend, to within rounding
    s = np.clip((r - radius) / radius, 0.0, 1.0)
    blend = 1.0 - (6.0 * s ** 5 - 15.0 * s ** 4 + 10.0 * s ** 3)
    np.testing.assert_allclose(c, blend, rtol=0.0, atol=1e-14)
    # radially non-increasing along the positive first axis
    row = c[GRID.M // 2 :, GRID.M // 2]
    assert np.all(np.diff(row) <= 1e-12)


def test_orbit_bump_initializer(kernel, ground):
    action = GroupAction(from_name("A1"), GRID)
    init = Field(GRID, action.half.unfold(build_initializer(action, ground.field).data))
    assert init.data.min() < 0.0 < init.data.max()
    assert init.data.max() == pytest.approx(-init.data.min(), rel=1e-12)
    assert symmetry_residual(action, init) <= 1e-12
    assert evaluate_with_gradient(NL, kernel, init)[0].Q > 0.0
    nod = nodal_domains(init)
    assert nod.count == 2
    assert nod.sizes[0] == nod.sizes[1]


def _full_grid_start(action, base, spacing):
    """The orbit-bump start as the full grid builds it: the cut-off base
    translated to l R q, |G| Pi_G of that, folded onto the action's half."""
    group, grid = action.group, action.grid
    q = group.chamber_interior_point()
    q = q / np.linalg.norm(q)
    orbit = group.orbit(q)
    separation = spacing / orbit.min_dist
    radius = 0.80 * grid.L / (separation * np.max(np.abs(orbit.points)) + 2.0)
    bump = quintic_cutoff(grid, radius) * base.data
    moved = translate(Field(grid, bump), action.embed_point(separation * radius * q))
    return group.order * symmetrize_array(action, action.half.fold(moved.data))


GRID3 = GridSpec(dim=3, M=16, L=6.0)


def _even_base(grid):
    return Field(grid, np.exp(-grid.radius_sq() / 2.0))


def _off_centre_base(grid):
    x, y = node_mesh(grid)
    return Field(grid, np.exp(-((x - 0.7) ** 2 + (y + 0.4) ** 2) / 2.0))


@pytest.mark.parametrize("spacing", [1.5, 6.0])
@pytest.mark.parametrize("tag,grid,make_base,source_parity", [
    ("A1", GRID, None, (1, 1)),
    ("I2:2", GRID, None, (1, 1)),
    ("I2:3", GRID, None, (1, 1)),
    ("A1", GRID3, _even_base, (1, 1, 1)),
    ("A1xA1xA1", GRID3, _even_base, (1, 1, 1)),
    ("A1", GRID, _off_centre_base, (0, 0)),
    ("I2:3", GRID, _off_centre_base, (0, 0)),
])
def test_half_grid_start_is_the_folded_full_grid_start(
        ground, tag, grid, make_base, source_parity, spacing):
    """The start built on the half equals, to rounding, the full-grid
    construction folded once: from the ground state's all-even half, and
    from an off-centre base whose source half is the full grid."""
    base = ground.field if make_base is None else make_base(grid)
    assert base.half.parity == source_parity
    action = GroupAction(from_name(tag), grid)
    start = build_initializer(action, base, spacing)
    assert start.grid == action.half
    expected = _full_grid_start(action, base, spacing)
    assert np.max(np.abs(start.data - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_each_restart_start_is_convolved_once(kernel, monkeypatch):
    """run evaluates its start once and hands that to the Q > 0 check: no
    array reaches the convolution twice in a solve with a noisy restart."""
    convolve = RieszKernel.convolve_array
    seen = []

    def recorded(self, v, *args):
        seen.append(hash(v.tobytes()))
        return convolve(self, v, *args)

    monkeypatch.setattr(RieszKernel, "convolve_array", recorded)
    solve_ground(NL, kernel, GRID, SolverConfig(restarts=2))
    assert len(seen) == len(set(seen))


def test_trivial_group_solve_is_the_ground_solve(kernel, ground, monkeypatch):
    """solve_saddle of the trivial group is solve_ground bit for bit: one
    Q > 0 check per descent, a coarse one per restart and the winner's fine
    one, and no spacing scan."""
    def no_scan(*args):
        raise AssertionError("the spacing scan ran")

    checks = []
    ensure = solver._ensure_positive_q
    monkeypatch.setattr(solver, "_least_ray_start", no_scan)
    monkeypatch.setattr(solver, "_ensure_positive_q",
                        lambda *args: checks.append(None) or ensure(*args))
    rep = solve_saddle(from_name("trivial"), NL, kernel, GRID, CFG)
    assert len(checks) == CFG.restarts + 1
    assert (rep.energy, rep.iters) == (ground.energy, ground.iters)
    assert rep.restart_energies == ground.restart_energies
    assert rep.field.data.tobytes() == ground.field.data.tobytes()


@pytest.mark.parametrize("grid,first_m", [
    (GRID, 32), (GridSpec(3, 64, 12.0), 32), (GridSpec(2, 256, 16.0), 32),
    (GridSpec(2, 256, 24.0), 64), (GridSpec(2, 12, 3.0), 12),
], ids=["test", "ref3d", "plane2d", "wide_i23", "12^2"])
def test_ground_starts_from_the_gaussian_built_on_the_half(monkeypatch, grid,
                                                           first_m):
    """The trivial group's start is the Gaussian built on the half its first
    descent runs on, the coarsest level of the ladder (the fine half at
    M = 12, whose M/2 is below 8), equal bit for bit to the Gaussian of that
    half's full grid folded; no solve runs."""
    starts = []

    def capture(cfg, start, levels):
        starts.append((start, levels))
        raise NoDescent("scripted: start captured")

    monkeypatch.setattr(solver, "_solve", capture)
    with pytest.raises(NoDescent, match="start captured"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=1))
    (start, levels), = starts
    first = levels[0]
    assert levels[-1].action.grid == grid
    assert first.action.grid == GridSpec(grid.dim, first_m, grid.L)
    assert start.grid == first.grid
    assert np.array_equal(start.data,
                          first.grid.fold(_gaussian_seed(first.action.grid)))


def _scripted_descents(monkeypatch, grid, coarse_energies=None,
                       fine_energies=None, failing=()):
    """Replace _Descent.run by a script that records each descent's grid,
    settings and start.  Every descent below the solve's grid returns twice
    its start after 3 iterations: on the first level, the grid of the first
    descent, the k-th with energy coarse_energies[k] (default k + 1) or
    raising "scripted coarse" where that entry is None; on a level between
    the first and the fine one, raising "scripted level M" where its M is in
    failing.  The k-th fine descent (on the solve's grid) returns its start
    after 4 iterations with energy fine_energies[k] where that key is given,
    raises it where it is an exception, and otherwise raises "scripted fine
    k"; by default every fine descent raises, so no solve completes."""
    runs = []
    coarse = iter(coarse_energies if coarse_energies is not None
                  else itertools.count(1.0))
    fine_energies = fine_energies or {}
    fine = itertools.count()

    def run(self, a0):
        runs.append((self.grid, self.cfg, a0))
        if self.grid.M < grid.M:
            energy = next(coarse) if self.grid.M == runs[0][0].M else 0.0
            if energy is None:
                raise NoDescent("scripted coarse")
            if self.grid.M in failing:
                raise NoDescent(f"scripted level {self.grid.M}")
            return 2.0 * a0, SimpleNamespace(energy=energy), 0.0, 0.0, 3
        assert self.grid.M == grid.M
        k = next(fine)
        energy = fine_energies.get(k, NoDescent(f"scripted fine {k}"))
        if isinstance(energy, Exception):
            raise energy
        state = SimpleNamespace(energy=energy, A=1.0, B=1.0, Q=1.0)
        return a0, state, 0.0, 0.0, 4

    monkeypatch.setattr(_Descent, "run", run)
    return runs


def _carried(a, grids, failing=()):
    """a, the start of a descent on grids[0], carried up the ladder grids as
    `_solve` carries it under the script: each level's result, twice its
    start, prolonged onto the next grid, or, where the level's M is in
    failing, its start prolonged."""
    for below, above in zip(grids, grids[1:]):
        b = a if below.M in failing else 2.0 * a
        a = translate(Field(below, b), np.zeros(below.dim), above).data
    return a


def _kernel_stub(grid, alpha=1.0):
    """What _solve reads of the fine kernel when the descents are scripted;
    its restriction to a coarser grid is the real kernel's, built once and
    only when a ladder asks for it."""
    real = functools.cache(lambda: RieszKernel(grid, alpha))
    return SimpleNamespace(grid=grid, alpha=alpha,
                           restrict=lambda coarse: real().restrict(coarse))


@pytest.mark.parametrize("grid,ladder", [
    (GridSpec(2, 256, 16.0), [32, 64, 128, 256]),
    (GridSpec(3, 64, 12.0), [32, 64]),
    (GridSpec(2, 160, 16.0), [40, 80, 160]),
    (GridSpec(3, 32, 8.0), [16, 32]),
    (GridSpec(2, 64, 10.0), [32, 64]),
    (GridSpec(2, 96, 12.0), [24, 48, 96]),
    (GridSpec(3, 28, 8.0), [14, 28]),
    (GridSpec(2, 16, 4.0), [8, 16]),
    (GridSpec(2, 256, 24.0), [64, 128, 256]),
    (GridSpec(2, 128, 16.0), [32, 64, 128]),
    (GridSpec(2, 128, 10.0), [32, 64, 128]),
], ids=["plane2d", "ref3d", "160^2", "32^3", "64^2", "96^2", "28^3", "16^2",
        "wide_i23", "128^2-L16", "128^2-L10"])
def test_a_yardstick_grid_descends_first_on_its_half_resolution(monkeypatch, grid,
                                                                ladder):
    """Every grid whose M/2 grid exists, down to M = 16 and its 8^2 half,
    descends on that M/2 grid of the same box below the fine one, and first
    on the coarsest further halving that keeps h <= 1 (32^2 of plane2d has
    h = 1; 32^2 of wide_i23 and 16^3 of ref3d, at h = 1.5, are not levels).
    Each level below the fine one runs to the solve's grad_tol with no
    Pohozaev bound and at most COARSE_MAX_ITERS iterations, the first from
    the Gaussian built on its half, and each later level from the prolonged
    result of the level below."""
    runs = _scripted_descents(monkeypatch, grid)
    with pytest.raises(NoDescent, match="scripted"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=1))
    halves = [GridSpec(grid.dim, m, grid.L, (1,) * grid.dim) for m in ladder]
    assert [g for g, _, _ in runs] == halves
    coarse_cfg = replace(SolverConfig(restarts=1), pohozaev_tol=np.inf,
                         max_iters=solver.COARSE_MAX_ITERS)
    assert [cfg for _, cfg, _ in runs] == [coarse_cfg] * (len(ladder) - 1) + [
        SolverConfig(restarts=1)]
    np.testing.assert_array_equal(runs[0][2], _gaussian_seed(halves[0]))
    for k in range(1, len(ladder)):
        np.testing.assert_array_equal(runs[k][2],
                                      _carried(runs[0][2], halves[:k + 1]))


@pytest.mark.parametrize("max_iters", [40, 4000])
def test_the_coarse_level_takes_the_solve_tolerance_and_a_capped_budget(max_iters):
    """Each level below the fine one runs with the solve's own grad_tol, no
    Pohozaev bound and the solve's budget capped at COARSE_MAX_ITERS, on the
    fine kernel restricted to its grid; the fine descent keeps the solve's
    settings and kernel."""
    grid = GridSpec(2, 256, 16.0)
    kernel = RieszKernel(grid, 1.0)
    cfg = SolverConfig(max_iters=max_iters, grad_tol=3e-5, restarts=1)
    *coarse, fine = solver._levels(NL, kernel, cfg, from_name("trivial"), grid)
    assert (fine.cfg, fine.kernel) == (cfg, kernel)
    assert [level.kernel.grid.M for level in coarse] == [32, 64, 128]
    for level in coarse:
        m = level.kernel.grid.M
        assert level.cfg == replace(cfg, pohozaev_tol=np.inf,
                                    max_iters=min(max_iters, solver.COARSE_MAX_ITERS))
        assert level.kernel.grid == GridSpec(2, m, 16.0)
        np.testing.assert_array_equal(level.kernel.spectrum,
                                      kernel.spectrum[:m + 1, :m + 1] * (m / 256) ** 2)


@pytest.mark.parametrize("grid", [
    GridSpec(2, 258, 16.0),   # M % 4 != 0
    GridSpec(2, 8, 4.0),      # M/2 = 4, below GridSpec's least M
    GridSpec(2, 12, 4.0),     # M/2 = 6, below GridSpec's least M
], ids=["M%4", "8^2", "12^2"])
def test_no_coarse_stage_off_the_rule(monkeypatch, grid):
    """A grid whose M/2 is odd or below 8 runs the fine descent alone, from
    the Gaussian built on the fine half."""
    runs = _scripted_descents(monkeypatch, grid)
    fine = replace(grid, parity=(1,) * grid.dim)
    with pytest.raises(NoDescent, match="scripted"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=1))
    (descent_grid, cfg, a0), = runs
    assert descent_grid == fine and cfg == SolverConfig(restarts=1)
    np.testing.assert_array_equal(a0, _gaussian_seed(fine))


def test_a_failed_coarse_descent_leaves_the_start(monkeypatch):
    """Where every level below the fine one raises, the fine descent starts
    from the restart's own start carried up the ladder: the Gaussian of the
    coarsest half prolonged onto each grid in turn."""
    grid = GridSpec(2, 256, 16.0)
    halves = [GridSpec(2, m, 16.0, (1, 1)) for m in (32, 64, 128, 256)]
    runs = _scripted_descents(monkeypatch, grid, itertools.repeat(None),
                              failing={64, 128})
    with pytest.raises(NoDescent, match="scripted"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=1))
    assert [g for g, _, _ in runs] == halves
    gaussian = _gaussian_seed(halves[0])
    np.testing.assert_array_equal(runs[0][2], gaussian)
    np.testing.assert_array_equal(
        runs[3][2], _carried(gaussian, halves, failing={32, 64, 128}))


def test_a_failed_middle_level_carries_its_own_prolonged_start(monkeypatch):
    """On a three-level ladder (96^2: 24^2, 48^2, 96^2) whose middle descent
    raises, the fine descent starts from that level's own start prolonged,
    the first level's result carried up through it, and the solve counts
    the first level's iterations alone as coarse."""
    grid = GridSpec(2, 96, 12.0)
    halves = [GridSpec(2, m, 12.0, (1, 1)) for m in (24, 48, 96)]
    runs = _scripted_descents(monkeypatch, grid, fine_energies={0: 7.5},
                              failing={48})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=1))
    assert [g for g, _, _ in runs] == halves
    expected = _carried(runs[0][2], halves, failing={48})
    np.testing.assert_array_equal(runs[2][2], expected)
    np.testing.assert_array_equal(rep.field.data, halves[-1].unfold(expected))
    assert (rep.energy, rep.iters, rep.coarse_iters) == (7.5, 4, 3)


def _recorded_scan(monkeypatch):
    """Record, for each candidate the spacing scan builds, the half it is
    built on, and for each state evaluation outside a descent, the kernel's
    grid and the grid evaluated on."""
    built, evaluated = [], []
    build, parts = solver.build_initializer, solver._state_parts

    def recorded_build(*args):
        start = build(*args)
        built.append(start.grid)
        return start

    def recorded_parts(nl, kernel, a, grid, *rest):
        evaluated.append((kernel.grid, grid))
        return parts(nl, kernel, a, grid, *rest)

    monkeypatch.setattr(solver, "build_initializer", recorded_build)
    monkeypatch.setattr(solver, "_state_parts", recorded_parts)
    return built, evaluated


@pytest.mark.parametrize("grid,first_m", [(GridSpec(2, 256, 16.0), 32),
                                          (GridSpec(3, 64, 12.0), 32)],
                         ids=["plane2d", "ref3d"])
def test_a_yardstick_saddle_scans_its_starts_on_the_half_resolution(monkeypatch,
                                                                    grid, first_m):
    """On a grid with a ladder the scan builds one candidate
    per spacing on the half of the action on the ladder's first grid,
    evaluates each with the fine kernel restricted to that grid, and its
    winner is the first descent's start."""
    runs = _scripted_descents(monkeypatch, grid)
    built, evaluated = _recorded_scan(monkeypatch)
    base = _even_base(grid)
    with pytest.raises(NoDescent, match="scripted"):
        solve_saddle(from_name("A1"), NL, _kernel_stub(grid), grid,
                     SolverConfig(restarts=1), base=base)
    coarse_action = GroupAction(from_name("A1"), GridSpec(grid.dim, first_m, grid.L))
    coarse = coarse_action.half
    assert built == [coarse] * len(solver.SPACINGS)
    assert evaluated == [(coarse_action.grid, coarse)] * len(solver.SPACINGS)
    expected = _least_ray_start(NL, RieszKernel(grid, 1.0).restrict(coarse_action.grid),
                                coarse_action, base)
    assert runs[0][0] == coarse
    np.testing.assert_array_equal(runs[0][2], expected.data)


@pytest.mark.parametrize("grid", [GridSpec(2, 66, 10.0)], ids=["M%4"])
def test_the_scan_stays_on_the_fine_half_off_the_rule(monkeypatch, grid):
    """On a grid whose M/2 is odd the scan builds and evaluates its
    candidates on the fine half with the fine kernel, as without a coarse
    stage, and the fine descent is the only one."""
    runs = _scripted_descents(monkeypatch, grid)
    built, evaluated = _recorded_scan(monkeypatch)
    action = GroupAction(from_name("A1"), grid)
    with pytest.raises(NoDescent, match="scripted"):
        solve_saddle(from_name("A1"), NL, RieszKernel(grid, 1.0), grid,
                     SolverConfig(restarts=1), base=_even_base(grid))
    assert built == [action.half] * len(solver.SPACINGS)
    assert evaluated == [(grid, action.half)] * len(solver.SPACINGS)
    (descent_grid, _, _), = runs
    assert descent_grid == action.half


def _coarse_noise(first, seed, scale):
    """Restart noise as the ladder builds it: on the full grid of its first
    level first, folded onto its all-even half."""
    noise = solver._smooth_noise(first, np.random.default_rng(seed), scale)
    return replace(first, parity=(1,) * first.dim).fold(noise)


def test_a_restart_adds_noise_built_on_the_coarse_grid(monkeypatch):
    """Restart 1 starts its first descent, on 32^2 for plane2d, from the
    Gaussian there plus noise drawn at seed + 1 on that grid, scaled by the
    Gaussian's peak and folded onto its half; both first-level descents run
    before any higher one."""
    grid = GridSpec(2, 256, 16.0)
    runs = _scripted_descents(monkeypatch, grid)
    with pytest.raises(NoDescent, match="scripted"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=2, seed=3))
    halves = [GridSpec(2, m, 16.0, (1, 1)) for m in (32, 64, 128, 256)]
    assert [g for g, _, _ in runs] == halves[:1] * 2 + halves[1:] * 2
    gaussian = _gaussian_seed(halves[0])
    np.testing.assert_array_equal(runs[0][2], gaussian)
    noise = _coarse_noise(GridSpec(2, 32, 16.0), 4, 0.05 * np.max(gaussian))
    np.testing.assert_array_equal(runs[1][2], gaussian + noise)


@pytest.mark.parametrize("tag,restarts", [("trivial", 2), ("A1", 1)])
def test_a_failed_coarse_descent_leaves_the_prolonged_start(monkeypatch, tag,
                                                            restarts):
    """Where every level below the fine one raises, the fine descent starts
    from the restart's own start carried up the ladder onto the fine half:
    for the trivial group at r = 1 the first level's Gaussian plus the noise
    built there, and for a start the scan built on the first half, that
    start."""
    grid = GridSpec(2, 256, 16.0)
    runs = _scripted_descents(monkeypatch, grid, itertools.repeat(None),
                              failing={64, 128})
    with pytest.raises(NoDescent, match="scripted"):
        solve_saddle(from_name(tag), NL, _kernel_stub(grid), grid,
                     SolverConfig(restarts=restarts), base=_even_base(grid))
    parity = GroupAction(from_name(tag), grid).half.parity
    halves = [GridSpec(2, m, 16.0, parity) for m in (32, 64, 128, 256)]
    assert [g for g, _, _ in runs] == halves[:1] * restarts + halves[1:] * restarts
    for r in range(restarts):
        np.testing.assert_array_equal(
            runs[restarts + 3 * r + 2][2],
            _carried(runs[r][2], halves, failing={32, 64, 128}))
    if tag == "trivial":
        gaussian = _gaussian_seed(halves[0])
        noise = _coarse_noise(GridSpec(2, 32, 16.0), 1, 0.05 * np.max(gaussian))
        np.testing.assert_array_equal(runs[0][2], gaussian)
        np.testing.assert_array_equal(runs[1][2], gaussian + noise)


PLANE_HALVES = [GridSpec(2, m, 16.0, (1, 1)) for m in (32, 64, 128, 256)]


def test_fine_descents_follow_the_coarse_energies(monkeypatch):
    """On a ladder every restart descends on the first level first; the
    restarts then climb in order of that energy, each from its own result
    carried up, and the first that converges on the fine level is the solve:
    the restart of first-level energy 3 never climbs."""
    grid = GridSpec(2, 256, 16.0)
    runs = _scripted_descents(monkeypatch, grid, [3.0, 1.0, 2.0], {1: 7.5})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=3))
    assert [g for g, _, _ in runs] == PLANE_HALVES[:1] * 3 + PLANE_HALVES[1:] * 2
    for climb, r in ((3, 1), (6, 2)):
        np.testing.assert_array_equal(runs[climb + 2][2],
                                      _carried(runs[r][2], PLANE_HALVES))
    np.testing.assert_array_equal(rep.field.data,
                                  PLANE_HALVES[-1].unfold(runs[8][2]))
    assert (rep.energy, rep.iters, rep.coarse_iters) == (7.5, 4, 9)
    assert rep.restart_energies == [3.0, 1.0, 2.0]


def test_a_failed_coarse_restart_races_last(monkeypatch):
    """A restart whose first-level descent raised climbs after all the
    others, from its own start, and reports only the iterations of the
    levels above the first as coarse when it wins."""
    grid = GridSpec(2, 256, 16.0)
    runs = _scripted_descents(monkeypatch, grid, [None, 2.0, 1.0], {2: 7.5})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=3))
    assert [g for g, _, _ in runs] == PLANE_HALVES[:1] * 3 + PLANE_HALVES[1:] * 3
    for climb, r in ((3, 2), (6, 1)):
        np.testing.assert_array_equal(runs[climb + 2][2],
                                      _carried(runs[r][2], PLANE_HALVES))
    np.testing.assert_array_equal(
        runs[11][2], _carried(runs[0][2], PLANE_HALVES, failing={32}))
    assert (rep.energy, rep.iters, rep.coarse_iters) == (7.5, 4, 6)


def test_when_every_descent_fails_the_last_failure_is_raised(monkeypatch):
    """With no fine descent converging, every restart climbs, in order of
    first-level energy, and the solve raises the last one's failure."""
    grid = GridSpec(2, 256, 16.0)
    runs = _scripted_descents(monkeypatch, grid, [2.0, None, 1.0])
    with pytest.raises(NoDescent, match="^scripted fine 2$"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=3))
    assert [g for g, _, _ in runs] == PLANE_HALVES[:1] * 3 + PLANE_HALVES[1:] * 3
    for climb, r in ((3, 2), (6, 0)):
        np.testing.assert_array_equal(runs[climb + 2][2],
                                      _carried(runs[r][2], PLANE_HALVES))
    np.testing.assert_array_equal(
        runs[11][2], _carried(runs[1][2], PLANE_HALVES, failing={32}))


@pytest.mark.parametrize("coarse_energies", [
    [1.0, 2.0, 3.0], [None, 2.0, 3.0], [1.0, None, None], [None, None, 3.0]])
def test_coarse_stage_restart_energies_are_the_coarse_levels(monkeypatch,
                                                             coarse_energies):
    """A coarse-stage solve reports one energy per restart, its coarse
    energy, with NaN exactly where its coarse descent failed."""
    grid = GridSpec(2, 256, 16.0)
    _scripted_descents(monkeypatch, grid, coarse_energies, {0: 7.5})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=3))
    energies = np.asarray(rep.restart_energies)
    assert energies.shape == (3,)
    assert np.array_equal(np.isnan(energies),
                          [e is None for e in coarse_energies])
    np.testing.assert_array_equal(
        energies, [np.nan if e is None else e for e in coarse_energies])


def test_without_a_coarse_stage_every_restart_descends_and_the_lowest_wins(
        monkeypatch):
    """On a grid whose M/2 is odd each restart runs its fine descent, the
    lowest fine energy wins, and restart_energies are the fine energies,
    NaN where a fine descent failed."""
    grid = GridSpec(2, 130, 16.0)
    runs = _scripted_descents(monkeypatch, grid, fine_energies={0: 7.5, 2: 7.25})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=3))
    fine = replace(grid, parity=(1, 1))
    assert [g for g, _, _ in runs] == [fine] * 3
    np.testing.assert_array_equal(rep.field.data, fine.unfold(runs[2][2]))
    assert (rep.energy, rep.coarse_iters) == (7.25, 0)
    np.testing.assert_array_equal(rep.restart_energies, [7.5, np.nan, 7.25])


@pytest.mark.parametrize("grid", [GridSpec(2, 256, 16.0), GridSpec(2, 130, 16.0)],
                         ids=["coarse-stage", "fine-only"])
def test_a_drifting_descent_loses_the_race(monkeypatch, grid):
    """SymmetryDrift in a restart's last descent loses the race as any
    other failure does, with or without a coarse stage: a later restart
    wins, and when every descent drifts the last drift is raised."""
    drift = [SymmetryDrift(f"scripted drift {k}") for k in range(2)]
    _scripted_descents(monkeypatch, grid, fine_energies={0: drift[0], 1: 7.5})
    rep = solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=2))
    assert rep.energy == 7.5
    _scripted_descents(monkeypatch, grid, fine_energies=dict(enumerate(drift)))
    with pytest.raises(SymmetryDrift, match="^scripted drift 1$"):
        solve_ground(NL, _kernel_stub(grid), grid, SolverConfig(restarts=2))


def test_saddle_sits_above_ground(ground, saddle):
    assert saddle.group == "A1"
    assert saddle.grad_residual <= 1e-4
    assert saddle.p_residual <= 1e-3
    assert 3.1 < saddle.energy < 3.4
    assert saddle.energy > ground.energy


def test_solves_are_exact_mirror_images(ground, saddle):
    """Ground even in every axis; A1 odd in x1 and even in x2, bit for bit."""
    u = ground.field.data
    assert all(np.array_equal(u, np.flip(u, ax)) for ax in range(GRID.dim))
    v = saddle.field.data
    assert np.array_equal(v, -np.flip(v, 0))
    assert np.array_equal(v, np.flip(v, 1))


def test_half_grid_solves_keep_the_full_grid_energies(ground, saddle):
    """Energies and iteration counts of the Barzilai-Borwein step with the
    nonmonotone acceptance on the half grid, each iterate projected once
    after its dilation, the saddle started at the least ray maximum over
    SPACINGS, each solve descending on the 32^2 grid first and confirmed on
    the 64^2 grid; a change to the step rule, to the start, to where the
    descent projects, to the ladder or to the half-grid arithmetic moves
    them."""
    assert ground.energy == pytest.approx(1.9052390504820544, rel=1e-9, abs=0.0)
    assert saddle.energy == pytest.approx(3.2534875444637374, rel=1e-9, abs=0.0)
    assert ((ground.iters, ground.coarse_iters),
            (saddle.iters, saddle.coarse_iters)) == ((1, 8), (0, 27))


def _fine_only(kernel, cfg, action, start):
    """The solve of a one-level ladder, the fine descent alone, from start
    on the action's half."""
    return solver._solve(cfg, start, [_Descent(NL, kernel, cfg, action)])


def test_the_ladder_reaches_the_fine_only_solutions(kernel, ground, saddle):
    """On the 64^2 test grid the ladder's ground and A1 saddle lie within
    1e-8 relative energy of the fine descent alone from the same start on
    the fine half: the Gaussian, and the scan's start from the same ground;
    the nodal counts agree."""
    cfg = SolverConfig(seed=0, restarts=1)
    fine_ground = _fine_only(kernel, cfg, TRIVIAL,
                             Field(HALF, HALF.fold(_gaussian_seed(GRID))))
    action = GroupAction(from_name("A1"), GRID)
    fine_saddle = _fine_only(kernel, cfg, action,
                             _least_ray_start(NL, kernel, action, ground.field))
    for ladder, fine in [(ground, fine_ground), (saddle, fine_saddle)]:
        assert fine.coarse_iters == 0 and fine.iters > 0
        assert ladder.energy == pytest.approx(fine.energy, rel=1e-8, abs=0.0)
        assert nodal_domains(ladder.field).count == nodal_domains(fine.field).count


def test_scanned_and_widest_starts_reach_the_same_saddle(kernel, ground):
    """At a tight gradient tolerance the scanned start and the 6R start
    converge to one discrete critical energy: the scan changes the path,
    not the critical point the pin above approximates.  Both descend on
    the fine grid alone."""
    action = GroupAction(from_name("A1"), GRID)
    cfg = SolverConfig(seed=0, restarts=1, grad_tol=1e-9)
    widest = _fine_only(kernel, cfg, action,
                        build_initializer(action, ground.field, 6.0))
    scanned = _fine_only(kernel, cfg, action,
                         _least_ray_start(NL, kernel, action, ground.field))
    assert scanned.energy == pytest.approx(widest.energy, rel=1e-12, abs=0.0)
    assert scanned.iters < widest.iters


def _ray_level(kernel, action, start):
    state = _state_parts(NL, kernel, start.data, start.grid)[0]
    return ray_maximum(state, GRID.dim, kernel.alpha)


@pytest.mark.parametrize("tag", ["A1", "I2:3"])
def test_scanned_start_has_the_least_ray_maximum(kernel, ground, tag):
    action = GroupAction(from_name(tag), GRID)
    chosen = _least_ray_start(NL, kernel, action, ground.field)
    levels = [_ray_level(kernel, action,
                         build_initializer(action, ground.field, c))
              for c in solver.SPACINGS]
    assert 6.0 in solver.SPACINGS
    assert _ray_level(kernel, action, chosen) == min(levels)
    assert min(levels) <= levels[solver.SPACINGS.index(6.0)]


def test_scan_builds_one_start_per_spacing(kernel, ground, monkeypatch):
    calls = []
    build = solver.build_initializer
    monkeypatch.setattr(solver, "build_initializer",
                        lambda *args: calls.append(args) or build(*args))
    _least_ray_start(NL, kernel, GroupAction(from_name("A1"), GRID), ground.field)
    assert len(calls) == len(solver.SPACINGS)


def test_start_falls_back_to_the_widest_spacing(kernel, ground, monkeypatch):
    """With no candidate admitting a Pohozaev root, the start is 6R."""
    def no_root(*args):
        raise NonpositiveQ("scripted: no root")

    monkeypatch.setattr(solver, "ray_maximum", no_root)
    action = GroupAction(from_name("A1"), GRID)
    chosen = _least_ray_start(NL, kernel, action, ground.field)
    widest = build_initializer(action, ground.field, 6.0)
    assert np.array_equal(chosen.data, widest.data)


def test_saddle_is_odd_with_two_nodal_domains(saddle):
    u = saddle.field.data
    # reflection through the first coordinate flips the sign exactly
    assert np.max(np.abs(u + u[::-1, :])) <= 1e-12
    assert saddle.symmetry_residual <= 1e-12
    nod = nodal_domains(saddle.field)
    assert nod.count == 2
    assert nod.positive_count == 1
    assert nod.negative_count == 1


@pytest.mark.parametrize("tag,checks", [("trivial", False), ("A1", False),
                                        ("I2:3", True)])
def test_descent_checks_drift_only_when_the_projector_averages(
        kernel, ground, monkeypatch, tag, checks):
    """Iterates of trivial and A1 are in the class by construction on the
    half grid; only the averaging projector of I2:3 can let them drift (on
    this coarse grid it does, past the limit, at iteration 0)."""
    calls = []
    measure = solver.symmetry_residual

    def counted(*args):
        calls.append(None)
        return measure(*args)

    monkeypatch.setattr(solver, "symmetry_residual", counted)
    action = GroupAction(from_name(tag), GRID)
    project = _projector(action)
    assert (project is np.abs) == (tag == "trivial")
    assert (project is None) == (tag == "A1")
    start = (action.half.fold(_gaussian_seed(GRID)) if tag == "trivial"
             else build_initializer(action, ground.field).data)
    cfg = SolverConfig(max_iters=1, grad_tol=1e-14, pohozaev_tol=1e-14)
    with pytest.raises(SymmetryDrift if checks else NoDescent):
        _Descent(NL, kernel, cfg, action).run(start)
    assert bool(calls) is checks


def test_negative_seed_is_refused():
    """np.random.default_rng takes no negative seed; refuse it up front."""
    with pytest.raises(ParseError, match="seed"):
        SolverConfig(seed=-1)


@pytest.mark.parametrize("name,value", [
    ("max_iters", 0), ("max_iters", -1), ("restarts", 0), ("restarts", -3),
    ("grad_tol", 0.0), ("grad_tol", -1.0), ("grad_tol", np.nan),
    ("pohozaev_tol", 0.0), ("pohozaev_tol", np.nan),
])
def test_settings_the_solver_cannot_run_are_refused(name, value):
    with pytest.raises(ParseError, match=f"{name} must be positive"):
        SolverConfig(**{name: value})


def test_an_infinite_tolerance_is_allowed():
    """pohozaev_tol = inf turns the Pohozaev test off."""
    assert SolverConfig(grad_tol=np.inf, pohozaev_tol=np.inf).pohozaev_tol == np.inf
