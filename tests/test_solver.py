"""Tests for the constrained descent solver and the orbit-bump initializer.

The shared grid is deliberately small (2D, 64 cells per axis, half-width 10)
so the whole module runs in a few seconds while still converging to the
configured tolerances.
"""

import json

import numpy as np
import pytest

from choquard.analysis import nodal_domains
from choquard.coxeter import from_name
from choquard.errors import (
    BumpLeavesDomain,
    GridMismatch,
    NoDescent,
    NonpositiveQ,
    SeparationViolation,
)
from choquard.field import Field, GridSpec, GroupAction, symmetry_residual
from choquard.functionals import evaluate, parse_nonlinearity
from choquard.riesz import RieszKernel
from choquard.solver import (
    SolverConfig,
    build_initializer,
    quintic_cutoff,
    solve_ground,
    solve_saddle,
)

GRID = GridSpec(dim=2, M=64, L=10.0)
NL = parse_nonlinearity("power:p=2")
CFG = SolverConfig(seed=0, restarts=2)


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


def test_zero_initializer_rejected(kernel):
    flat = Field(GRID, np.zeros(GRID.shape))
    with pytest.raises(NonpositiveQ):
        solve_ground(NL, kernel, GRID, SolverConfig(seed=0, restarts=1),
                     init=flat)


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
    # radially non-increasing along the positive first axis
    row = c[GRID.M // 2 :, GRID.M // 2]
    assert np.all(np.diff(row) <= 1e-12)


def test_orbit_bump_initializer(kernel, ground):
    action = GroupAction(from_name("A1"), GRID)
    init = build_initializer(action, ground.field)
    assert init.data.min() < 0.0 < init.data.max()
    assert init.data.max() == pytest.approx(-init.data.min(), rel=1e-12)
    assert symmetry_residual(action, init) <= 1e-12
    assert evaluate(NL, kernel, init).Q > 0.0
    nod = nodal_domains(init)
    assert nod.count == 2
    assert nod.sizes[0] == nod.sizes[1]


def test_initializer_rejects_overlapping_bumps(ground):
    action = GroupAction(from_name("A1"), GRID)
    with pytest.raises(SeparationViolation):
        build_initializer(action, ground.field, separation=0.5)


def test_initializer_rejects_oversized_bumps(ground):
    action = GroupAction(from_name("A1"), GRID)
    with pytest.raises(BumpLeavesDomain):
        build_initializer(action, ground.field, radius=8.0)


def test_saddle_sits_above_ground(ground, saddle):
    assert saddle.group == "A1"
    assert saddle.grad_residual <= 1e-4
    assert saddle.p_residual <= 1e-3
    assert 3.1 < saddle.energy < 3.4
    assert saddle.energy > ground.energy


def test_saddle_is_odd_with_two_nodal_domains(saddle):
    u = saddle.field.data
    # reflection through the first coordinate flips the sign exactly
    assert np.max(np.abs(u + u[::-1, :])) <= 1e-12
    assert saddle.symmetry_residual <= 1e-12
    nod = nodal_domains(saddle.field)
    assert nod.count == 2
    assert nod.positive_count == 1
    assert nod.negative_count == 1
