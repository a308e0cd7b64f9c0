"""Tests for the constrained descent solver and the orbit-bump initializer.

The shared grid is deliberately small (2D, 64 cells per axis, half-width 10)
so the whole module runs in a few seconds while still converging to the
configured tolerances.
"""

import json
from dataclasses import replace

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
    exact_half,
    symmetrize_array,
    symmetry_residual,
    translate,
    x_dot_grad_array,
)
from choquard.functionals import (
    _state_parts,
    evaluate,
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


def test_warm_start_converges_immediately(kernel, ground):
    rep = solve_ground(NL, kernel, GRID, SolverConfig(seed=0, restarts=1),
                       init=ground.field)
    assert rep.iters == 0
    assert rep.energy == pytest.approx(ground.energy, rel=1e-10)


def test_report_json_round_trip(ground):
    d = ground.to_json_dict()
    assert set(d) == {
        "group", "grid", "alpha", "nonlinearity", "iters", "energy",
        "A", "B", "Q", "P_residual", "grad_residual", "symmetry_residual",
        "nodal_count", "decay_rate", "boundary_amplitude", "wall_clock",
    }
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
    retracted = HALF.unfold(_Descent(NL, kernel, CFG, np.abs, TRIVIAL)._retract(
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
    descent = _Descent(NL, kernel, CFG, np.abs, TRIVIAL)
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
    cfg = SolverConfig(seed=0, restarts=1)
    a, state, grad_res, p_res, iters = _Descent(NL, kernel, cfg, project, TRIVIAL).run(
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

    def recorded(grid, state, grad, a):
        judged.append(state.energy)
        return measure(grid, state, grad, a)

    monkeypatch.setattr(solver, "residuals", recorded)
    cfg = SolverConfig(max_iters=3, grad_tol=1e-14, pohozaev_tol=1e-14)
    with pytest.raises(NoDescent, match="no convergence in 3 iterations"):
        _Descent(NL, kernel, cfg, np.abs, TRIVIAL).run(HALF.fold(_gaussian_seed(GRID)))
    assert judged == [10.0, 5.0, 7.0]
    assert retracted == script + [1.0]  # one trial per line search


def test_zero_initializer_rejected(kernel):
    flat = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(NonpositiveQ):
        solve_ground(NL, kernel, GRID, SolverConfig(seed=0, restarts=1),
                     init=flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", ["ground_init", "saddle_init", "saddle_base"])
def test_non_finite_start_field_is_rejected(kernel, entry, bad):
    data = np.exp(-GRID.radius() ** 2)
    data[GRID.M // 2, GRID.M // 2] = bad
    start = Field(GRID, data)
    cfg = SolverConfig(seed=0, restarts=1)
    with pytest.raises(ParseError, match="NaN or Inf"):
        if entry == "ground_init":
            solve_ground(NL, kernel, GRID, cfg, init=start)
        elif entry == "saddle_init":
            solve_saddle(from_name("A1"), NL, kernel, GRID, cfg, init=start)
        else:
            solve_saddle(from_name("A1"), NL, kernel, GRID, cfg, base=start)


def test_iteration_budget_exhaustion_raises(kernel):
    cfg = SolverConfig(seed=0, restarts=1, max_iters=1, grad_tol=1e-14,
                       pohozaev_tol=1e-14)
    with pytest.raises(NoDescent):
        solve_ground(NL, kernel, GRID, cfg)


def test_solver_grid_must_match_kernel(kernel):
    with pytest.raises(GridMismatch):
        solve_ground(NL, kernel, GridSpec(2, 32, 10.0),
                     SolverConfig(seed=0, restarts=1))


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
    assert evaluate(NL, kernel, init).Q > 0.0
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
    return action.half.fold(group.order * symmetrize_array(action, moved.data))


GRID3 = GridSpec(dim=3, M=16, L=6.0)


def _even_base(grid):
    return Field(grid, np.exp(-grid.radius_sq() / 2.0))


def _off_centre_base(grid):
    x, y = grid.mesh()
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
    assert exact_half(base).parity == source_parity
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
    descent per restart (one Q > 0 check each) and no spacing scan."""
    def no_scan(*args):
        raise AssertionError("the spacing scan ran")

    checks = []
    ensure = solver._ensure_positive_q
    monkeypatch.setattr(solver, "_least_ray_start", no_scan)
    monkeypatch.setattr(solver, "_ensure_positive_q",
                        lambda *args: checks.append(None) or ensure(*args))
    rep = solve_saddle(from_name("trivial"), NL, kernel, GRID, CFG)
    assert len(checks) == CFG.restarts
    assert (rep.energy, rep.iters) == (ground.energy, ground.iters)
    assert rep.restart_energies == ground.restart_energies
    assert rep.field.data.tobytes() == ground.field.data.tobytes()


@pytest.mark.parametrize("grid", [GRID, GridSpec(3, 64, 12.0),
                                  GridSpec(2, 256, 16.0), GridSpec(2, 256, 24.0)],
                         ids=["test", "ref3d", "plane2d", "wide_i23"])
def test_ground_starts_from_the_gaussian_built_on_the_half(monkeypatch, grid):
    """The trivial group's start is the Gaussian built on its half grid,
    equal bit for bit to the full-grid Gaussian folded; no solve runs."""
    starts = []

    def capture(nl, kernel, solve_grid, cfg, init, action):
        starts.append((init, action))
        raise NoDescent("scripted: start captured")

    monkeypatch.setattr(solver, "_solve", capture)
    with pytest.raises(NoDescent, match="start captured"):
        solve_ground(NL, None, grid, SolverConfig(restarts=1))
    (init, action), = starts
    assert init.grid == action.half
    assert np.array_equal(init.data, action.half.fold(_gaussian_seed(grid)))


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
    SPACINGS; a change to the step rule, to the start, to where the
    descent projects or to the half-grid arithmetic moves them."""
    assert ground.energy == pytest.approx(1.905239053117299, rel=1e-9, abs=0.0)
    assert saddle.energy == pytest.approx(3.2534875445509903, rel=1e-9, abs=0.0)
    assert (ground.iters, saddle.iters) == (8, 32)


def test_scanned_and_widest_starts_reach_the_same_saddle(kernel, ground):
    """At a tight gradient tolerance the scanned start and the 6R start
    converge to one discrete critical energy: the scan changes the path,
    not the critical point the pin above approximates."""
    group = from_name("A1")
    action = GroupAction(group, GRID)
    cfg = SolverConfig(seed=0, restarts=1, grad_tol=1e-9)
    widest = solve_saddle(group, NL, kernel, GRID, cfg,
                          init=build_initializer(action, ground.field, 6.0))
    scanned = solve_saddle(group, NL, kernel, GRID, cfg, base=ground.field)
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


def test_start_on_another_half_is_refused(kernel, ground):
    """An A1 start has the shape of an I2:2 half but not its parity."""
    start = build_initializer(GroupAction(from_name("A1"), GRID), ground.field)
    assert start.data.shape == GroupAction(from_name("I2:2"), GRID).half.shape
    with pytest.raises(GridMismatch, match="start field grid"):
        solve_saddle(from_name("I2:2"), NL, kernel, GRID,
                     SolverConfig(seed=0, restarts=1), init=start)


def test_given_start_bypasses_the_scan(kernel, ground, monkeypatch):
    def no_scan(*args):
        raise AssertionError("the spacing scan ran")

    monkeypatch.setattr(solver, "_least_ray_start", no_scan)
    action = GroupAction(from_name("A1"), GRID)
    init = build_initializer(action, ground.field)
    rep = solve_saddle(from_name("A1"), NL, kernel, GRID,
                       SolverConfig(seed=0, restarts=1), init=init)
    assert rep.grad_residual <= 1e-4


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
        _Descent(NL, kernel, cfg, project, action).run(start)
    assert bool(calls) is checks
