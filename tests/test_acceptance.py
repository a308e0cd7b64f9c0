"""Acceptance gate: ten structural criteria checked at desk scale.

Every test prints one `criterion N: PASS/FAIL (...)` line with its measured
numbers (run pytest with -s to see the lines as they happen).  Two clauses
are genuinely out of reach for the truncated desk boxes and fail honestly:
they assert every clause that does hold, print the measured values for the
one that does not, and raise; the strict xfail marker turns an accidental
fix into a visible suite failure so the expectation has to be updated.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from choquard.analysis import annotate_report, decay_fit, nodal_domains
from choquard.coxeter import from_name
from choquard.field import (
    Field,
    GridSpec,
    GroupAction,
    act,
    dilate,
    symmetry_residual,
    translate,
)
from choquard.functionals import (
    _assemble,
    _state_parts,
    evaluate_with_gradient,
    pohozaev_root,
    power,
)
from choquard import solver
from choquard.riesz import RieszKernel, get_kernel, kernel_samples
from choquard.solver import SolverConfig, solve_ground, solve_saddle
from helpers import dilation_pohozaev, full_grid_nodal_domains, generator_residual
from test_analysis import nodal_min_bound

NL = power(2.0)

# quadratic branch on the cube of half-width 12: the three dimensional
# reference configuration with the Newtonian kernel
REF_GRID = GridSpec(dim=3, M=64, L=12.0)
REF_ALPHA = 2.0

# planar reference configuration
PLANE_GRID = GridSpec(dim=2, M=256, L=16.0)
PLANE_ALPHA = 1.0

# wider planar box for the sheared six-fold group
WIDE_GRID = GridSpec(dim=2, M=256, L=24.0)


class HonestFailure(Exception):
    """A criterion clause the desk configuration measurably cannot meet."""


def emit(n, ok, details):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({details})"
    print(line, flush=True)
    return line


# -- shared solves ------------------------------------------------------------

@pytest.fixture(scope="module")
def ref_ground():
    kern = get_kernel(REF_GRID, REF_ALPHA)
    return solve_ground(NL, kern, REF_GRID, SolverConfig(seed=0, restarts=3))


@pytest.fixture(scope="module")
def ref_a1(ref_ground):
    kern = get_kernel(REF_GRID, REF_ALPHA)
    return solve_saddle(from_name("A1"), NL, kern, REF_GRID,
                        SolverConfig(seed=0, restarts=1),
                        base=ref_ground.field)


@pytest.fixture(scope="module")
def plane():
    kern = get_kernel(PLANE_GRID, PLANE_ALPHA)
    cfg = SolverConfig(seed=0, restarts=1)
    ground = solve_ground(NL, kern, PLANE_GRID, cfg)
    a1 = solve_saddle(from_name("A1"), NL, kern, PLANE_GRID, cfg,
                      base=ground.field)
    i22 = solve_saddle(from_name("I2:2"), NL, kern, PLANE_GRID, cfg,
                       base=ground.field)
    return {"ground": ground, "A1": a1, "I2:2": i22}


@pytest.fixture(scope="module")
def wide_i23():
    kern = get_kernel(WIDE_GRID, PLANE_ALPHA)
    cfg = SolverConfig(seed=0, restarts=1)
    ground = solve_ground(NL, kern, WIDE_GRID, cfg)
    i23 = solve_saddle(from_name("I2:3"), NL, kern, WIDE_GRID, cfg,
                       base=ground.field)
    return {"ground": ground, "I2:3": i23}


# -- criterion 1: reflection group engine -------------------------------------

def brute_force_closure(gens):
    """Independent breadth-first closure over rounded matrix keys."""
    def key(g):
        return tuple(np.round(g, 9).ravel())

    k = gens[0].shape[0]
    seen = {key(np.eye(k)): np.eye(k)}
    frontier = [np.eye(k)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = s @ g
                kk = key(h)
                if kk not in seen:
                    seen[kk] = h
                    nxt.append(h)
        frontier = nxt
        if len(seen) > 2000:
            raise RuntimeError("runaway closure")
    return list(seen.values())


def test_criterion_01_group_orders_closure_and_character():
    start = time.perf_counter()
    expected = {"A1": 2, "A3": 24, "B3": 48, "H3": 120}
    expected.update({f"I2:{m}": 2 * m for m in range(2, 9)})
    worst_set = worst_psi = 0.0
    for tag, order in expected.items():
        group = from_name(tag)
        oracle = brute_force_closure(group.generators)
        assert group.order == order
        assert len(oracle) == order
        mats = group.element_matrices()
        for h in oracle:
            worst_set = max(worst_set,
                            float(np.abs(mats - h).max(axis=(1, 2)).min()))
        for m, s in zip(mats, group.element_signs()):
            worst_psi = max(worst_psi, abs(float(np.linalg.det(m)) - int(s)))
    elapsed = time.perf_counter() - start
    ok = worst_set <= 1e-9 and worst_psi <= 1e-9 and elapsed < 5.0
    emit(1, ok, f"{len(expected)} groups, closure set-dist {worst_set:.1e}, "
                f"|psi-det| {worst_psi:.1e}, {elapsed:.2f}s < 5s")
    assert ok


# -- criterion 2: two independent convolution routes --------------------------

def direct_convolution(kernel, f, grid):
    m = grid.M
    idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    t = kernel_samples(kernel.grid, kernel.alpha)
    if grid.dim == 2:
        kk = t[idx[:, :, None, None], idx[None, None, :, :]]
        return np.einsum("abcd,bd->ac", kk, f) * grid.cell_volume
    kk = t[idx[:, :, None, None, None, None],
           idx[None, None, :, :, None, None],
           idx[None, None, None, None, :, :]]
    return np.einsum("abcdef,bdf->ace", kk, f) * grid.cell_volume


def test_criterion_02_convolution_route_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    rels = []
    for dim, m, half, alpha in [(2, 32, 8.0, 1.0), (3, 12, 6.0, 2.0)]:
        grid = GridSpec(dim=dim, M=m, L=half)
        kern = RieszKernel(grid, alpha=alpha)
        f = rng.standard_normal(grid.shape)
        fft_route = kern.convolve_array(f)
        sum_route = direct_convolution(kern, f, grid)
        rels.append(float(np.max(np.abs(fft_route - sum_route))
                          / np.max(np.abs(sum_route))))
    elapsed = time.perf_counter() - start
    ok = max(rels) <= 1e-9 and elapsed < 10.0
    emit(2, ok, f"32^2 rel {rels[0]:.2e}, 12^3 rel {rels[1]:.2e}, "
                f"{elapsed:.2f}s < 10s")
    assert ok


# -- criterion 3: gradient vs central differences -----------------------------

def test_criterion_03_gradient_against_finite_differences():
    rng = np.random.default_rng(20250822)
    worst = {}
    for dim, m, half, alpha in [(3, 16, 6.0, 2.0), (2, 32, 8.0, 1.0)]:
        grid = GridSpec(dim=dim, M=m, L=half)
        kern = RieszKernel(grid, alpha=alpha)
        w = 0.0
        for _ in range(20):
            damp = np.exp(-grid.radius() ** 2 / 4.0)
            u = Field(grid, rng.standard_normal(grid.shape) * damp)
            phi = Field(grid, rng.standard_normal(grid.shape) * damp)
            _, grad = evaluate_with_gradient(NL, kern, u)
            dd = float(np.sum(grad.data * phi.data) * grid.cell_volume)
            eps = 1e-5
            ep = evaluate_with_gradient(
                NL, kern, Field(grid, u.data + eps * phi.data))[0].energy
            em = evaluate_with_gradient(
                NL, kern, Field(grid, u.data - eps * phi.data))[0].energy
            fd = (ep - em) / (2 * eps)
            w = max(w, abs(dd - fd) / max(abs(fd), 1e-14))
        worst[(dim, alpha)] = w
    ok = max(worst.values()) <= 1e-5
    emit(3, ok, "20 pairs each; worst rel "
         + ", ".join(f"N={d} alpha={a}: {v:.1e}" for (d, a), v in worst.items()))
    assert ok


# -- criterion 4: dilation ray machinery --------------------------------------

def test_criterion_04_pohozaev_root_and_dilation_laws():
    rng = np.random.default_rng(11)

    # the root zeroes the ray derivative for random coercive states
    worst_beta = 0.0
    for dim, alpha in [(2, 0.5), (2, 1.0), (3, 2.0), (3, 3.5)]:
        for _ in range(10):
            a, b, q = rng.uniform(0.1, 5.0, size=3)
            st = _assemble(dim, alpha, a, b, q)
            t = pohozaev_root(st, dim, alpha)
            worst_beta = max(worst_beta,
                             abs(dilation_pohozaev(t, st, dim, alpha))
                             / (st.A + st.B))

    # planar closed form against an independent bracketed solve
    worst_closed = 0.0
    for alpha in (0.5, 1.0, 1.5):
        for _ in range(10):
            a, b, q = rng.uniform(0.1, 5.0, size=3)
            st = _assemble(2, alpha, a, b, q)
            t_closed = pohozaev_root(st, 2, alpha)
            t_num = brentq(lambda t: dilation_pohozaev(t, st, 2, alpha),
                           1e-3, 1e3, xtol=1e-14, rtol=8.9e-16)
            worst_closed = max(worst_closed, abs(t_closed - t_num))

    # a state already on the constraint set keeps t = 1
    worst_unit = 0.0
    for dim, alpha in [(2, 1.0), (3, 2.0)]:
        b, q = 2.0, 1.7
        if dim == 2:
            b = (2.0 + alpha) * q / 2.0
            a = 3.1
        else:
            a = (dim + alpha) * q - dim * b
        st = _assemble(dim, alpha, a, b, q)
        worst_unit = max(worst_unit, abs(pohozaev_root(st, dim, alpha) - 1.0))

    # interpolated rescaling obeys the scaling laws, error halving with h
    errs = {}
    for m in (128, 256):
        grid = GridSpec(dim=2, M=m, L=8.0)
        kern = get_kernel(grid, 1.0)
        u = Field(grid, np.exp(-grid.radius() ** 2 / 2.0))
        st = evaluate_with_gradient(NL, kern, u)[0]
        t = 0.8
        stt = evaluate_with_gradient(NL, kern, dilate(u, t))[0]
        errs[m] = (abs(stt.B - t ** 2 * st.B) / (t ** 2 * st.B),
                   abs(stt.Q - t ** 3 * st.Q) / (t ** 3 * st.Q))
    law_ok = (max(errs[128]) <= 0.02
              and errs[256][0] <= 0.5 * errs[128][0]
              and errs[256][1] <= 0.5 * errs[128][1])

    ok = (worst_beta <= 1e-10 and worst_closed <= 1e-10
          and worst_unit <= 1e-6 and law_ok)
    emit(4, ok,
         f"|beta(t_u)|/(A+B) {worst_beta:.1e}, closed-vs-bracketed "
         f"{worst_closed:.1e}, unit-root off by {worst_unit:.1e}, "
         f"law errs M=128 {errs[128][0]:.1e}/{errs[128][1]:.1e} "
         f"M=256 {errs[256][0]:.1e}/{errs[256][1]:.1e}")
    assert ok


# -- criterion 5: reference ground state solve --------------------------------

@pytest.mark.xfail(strict=True, raises=HonestFailure, reason=(
    "at half-width 12 the ground state tail still carries about 5e-5 of the "
    "peak amplitude at the wall, above the 1e-6 relative bound; every "
    "convergence clause holds"))
def test_criterion_05_reference_ground_solve(ref_ground):
    rep = ref_ground
    spread = (max(rep.restart_energies) - min(rep.restart_energies)) \
        / abs(np.mean(rep.restart_energies))
    # clauses that must hold regardless of the box
    assert rep.grad_residual <= 1e-4
    assert rep.p_residual <= 1e-3
    assert len(rep.restart_energies) == 3 and spread <= 0.01
    assert rep.wall_clock < 600.0
    umax = float(np.max(np.abs(rep.field.data)))
    boundary_ok = rep.boundary_amplitude <= 1e-6 * umax
    # restarts are compared on the first level they descend on: the coarse
    # stage's M/2 grid where one runs
    level = solver._coarse_grid(rep.grid) or rep.grid
    line = emit(5, boundary_ok,
                f"grad {rep.grad_residual:.1e} <= 1e-4, P {rep.p_residual:.1e}"
                f" <= 1e-3, restart spread on M={level.M} {spread:.1e} <= 1e-2, "
                f"{rep.wall_clock:.0f}s < 600s, boundary "
                f"{rep.boundary_amplitude:.2e} vs 1e-6*max|u| "
                f"{1e-6 * umax:.2e}")
    if not boundary_ok:
        raise HonestFailure(line)


# -- criterion 6: energy hierarchy --------------------------------------------

def test_criterion_06_energy_hierarchy(ref_ground, ref_a1, plane):
    c0, ca1 = ref_ground.energy, ref_a1.energy
    d0, da1, di22 = (plane["ground"].energy, plane["A1"].energy,
                     plane["I2:2"].energy)
    # frozen converged levels, loose bands to catch a basin swap
    assert c0 == pytest.approx(7.3518, rel=0.02)
    assert ca1 == pytest.approx(11.2948, rel=0.02)
    assert d0 == pytest.approx(1.9024, rel=0.02)
    assert da1 == pytest.approx(3.2491, rel=0.02)
    assert di22 == pytest.approx(5.1974, rel=0.02)
    margins = (ca1 - c0, 2 * c0 - ca1, 2 * da1 - di22, 4 * d0 - 2 * da1)
    ok = all(m > 0 for m in margins)
    emit(6, ok,
         f"c0 {c0:.4f} < cA1 {ca1:.4f} < 2c0 {2 * c0:.4f} margins "
         f"{margins[0]:.3f}/{margins[1]:.3f}; planar cI22 {di22:.4f} < "
         f"2cA1 {2 * da1:.4f} < 4c0 {4 * d0:.4f} margins "
         f"{margins[2]:.3f}/{margins[3]:.3f}")
    assert ok


# -- criterion 7: nodal structure ---------------------------------------------

def test_criterion_07_nodal_counts(ref_a1, plane, wide_i23):
    rep3 = nodal_domains(ref_a1.field, 1e-3,
                         GroupAction(from_name("A1"), REF_GRID))
    rep4 = nodal_domains(plane["I2:2"].field, 1e-3,
                         GroupAction(from_name("I2:2"), PLANE_GRID))
    rep6 = nodal_domains(wide_i23["I2:3"].field, 1e-3,
                         GroupAction(from_name("I2:3"), WIDE_GRID))
    ok = (rep3.count == 2 and rep4.count == 4 and rep6.count == 6
          and rep3.sign_on_chamber in (1, -1)
          and rep4.sign_on_chamber in (1, -1))
    emit(7, ok, f"counts A1 {rep3.count}/2, I2:2 {rep4.count}/4, "
                f"I2:3 {rep6.count}/6; chamber signs {rep3.sign_on_chamber}, "
                f"{rep4.sign_on_chamber}")
    assert ok


def test_yardstick_diagnostics_on_the_half_equal_the_full_grid_oracles(
        ref_ground, ref_a1, plane, wide_i23):
    """On the seven yardstick fields, read back from their files as `choquard
    verify` reads them, the nodal report with the chamber sign and the
    symmetry residual equal the full-grid labelling and the residual that
    applies every generator."""
    reports = [ref_ground, ref_a1, *plane.values(), *wide_i23.values()]
    for rep in reports:
        action = GroupAction(from_name(rep.group), rep.grid)
        u = Field(rep.grid, rep.field.data)
        assert (nodal_domains(u, 1e-3, action)
                == full_grid_nodal_domains(u, 1e-3, action)), rep.group
        assert symmetry_residual(action, u) == generator_residual(action, u)


# -- criterion 8: exact equivariance of grid-exact saddles --------------------

def elementwise_residual(group, grid, u):
    """max over every group element of ||g.u - psi(g) u|| / ||u||."""
    action = GroupAction(group, grid)
    denom = float(np.sqrt(np.sum(u.data ** 2)))
    worst = 0.0
    for g, s in zip(group.element_matrices(), group.element_signs()):
        moved = act(action, g, u).data
        worst = max(worst, float(
            np.sqrt(np.sum((moved - s * u.data) ** 2)) / denom))
    return worst


def test_criterion_08_equivariance_residual(ref_a1, plane):
    r1 = elementwise_residual(from_name("A1"), REF_GRID, ref_a1.field)
    r2 = elementwise_residual(from_name("I2:2"), PLANE_GRID,
                              plane["I2:2"].field)
    ok = max(r1, r2) <= 1e-10
    emit(8, ok, f"max_g residual A1 {r1:.1e}, I2:2 {r2:.1e}, bound 1e-10")
    assert ok


# -- criterion 9: exponential decay of the tails ------------------------------

@pytest.mark.xfail(strict=True, raises=HonestFailure, reason=(
    "the order-two saddle's bumps sit near radius 3.3, so over the pinned "
    "window [4.8, 8.4] its tail has not yet reached the asymptotic rate; on "
    "a twice-wider box the same solver lands the rate inside the band"))
def test_criterion_09_decay_rates(ref_ground, ref_a1):
    fit_g = decay_fit(ref_ground.field)
    # the radially monotone ground state passes inside the pinned window
    assert 0.7 <= fit_g.rate <= 1.05
    assert fit_g.rms_residual <= 0.05
    fit_s = decay_fit(ref_a1.field)
    saddle_ok = 0.7 <= fit_s.rate <= 1.05 and fit_s.rms_residual <= 0.05
    line = emit(9, saddle_ok,
                f"ground rate {fit_g.rate:.4f} in [0.7,1.05] rms "
                f"{fit_g.rms_residual:.4f} <= 0.05; A1 rate {fit_s.rate:.4f} "
                f"rms {fit_s.rms_residual:.4f} over [{fit_g.r_min:.1f},"
                f"{fit_g.r_max:.1f}]")
    if not saddle_ok:
        raise HonestFailure(line)


# -- criterion 10: sign-changing solutions stay below twice the ground --------

def test_criterion_10_nodal_minimizer_bound(ref_ground, ref_a1):
    annotated = annotate_report(ref_a1, group=from_name("A1"))
    bound = nodal_min_bound([annotated])
    ok = bound < 2.0 * ref_ground.energy
    emit(10, ok, f"min sign-changing level {bound:.4f} < 2c0 "
                 f"{2 * ref_ground.energy:.4f}, margin "
                 f"{2 * ref_ground.energy - bound:.4f}")
    assert ok


# -- the coarse stage of the yardstick solves ---------------------------------

def test_coarse_stage_halves_the_yardstick_iterations(ref_ground, ref_a1, plane,
                                                      wide_i23):
    """Every yardstick grid first descends on its M/2 grid, and its fine
    descent takes at most half the iterations it took from the start
    itself (ref3d 7 and 16, plane2d 7, 12 and 14, wide_i23 8 and 15)."""
    bounds = [(ref_ground, 3), (ref_a1, 8), (plane["ground"], 3),
              (plane["A1"], 6), (plane["I2:2"], 7), (wide_i23["ground"], 4),
              (wide_i23["I2:3"], 7)]
    for rep, most in bounds:
        assert rep.coarse_iters > 0, rep.group
        assert rep.iters <= most, (rep.group, rep.iters)


@pytest.mark.parametrize("name,grid,alpha", [("ref3d", REF_GRID, REF_ALPHA),
                                             ("plane2d", PLANE_GRID, PLANE_ALPHA)])
def test_the_restricted_kernel_gives_the_coarse_half_the_fine_energy(
        request, name, grid, alpha):
    """The fine ground state, restricted onto the all-even M/2 half, keeps
    its fine energy to 1e-6 under the fine kernel restricted to M/2, so the
    coarse level solves the fine problem; under the kernel built on M/2 it
    lies off by that kernel's quadrature error (ref3d 4.0e-3, plane2d
    9.6e-4)."""
    ground = (request.getfixturevalue("ref_ground") if name == "ref3d"
              else request.getfixturevalue("plane")["ground"])
    coarse = GridSpec(grid.dim, grid.M // 2, grid.L)
    half = GridSpec(grid.dim, grid.M // 2, grid.L, (1,) * grid.dim)
    a = translate(ground.field, np.zeros(grid.dim), half).data

    def offset(kernel):
        energy = _state_parts(NL, kernel, a, half)[0].energy
        return abs(energy - ground.energy) / ground.energy

    restricted = offset(get_kernel(grid, alpha).restrict(coarse))
    built = offset(RieszKernel(coarse, alpha))
    print(f"{name}: coarse energy off by {restricted:.2e} restricted, {built:.2e} built")
    assert restricted <= 1e-6
    assert built >= 5e-4


def test_warm_start_on_a_yardstick_grid_skips_the_coarse_stage(plane):
    """The plane2d ground, folded onto the fine half, is its own solution on
    the fine level alone: it is held with 0 iterations, and no descent
    moves it off the fine critical point."""
    ground = plane["ground"]
    cfg = SolverConfig(seed=0, restarts=1)
    action = GroupAction(from_name("trivial"), PLANE_GRID)
    fine = solver._Descent(NL, get_kernel(PLANE_GRID, PLANE_ALPHA), cfg, action)
    start = Field(action.half, action.half.fold(ground.field.data))
    rep = solver._solve(cfg, start, [fine])
    assert (rep.iters, rep.coarse_iters) == (0, 0)
    assert rep.energy == pytest.approx(ground.energy, rel=1e-10)


def test_plane2d_i24_saddle_solves_with_eight_nodal_domains(plane):
    """The four-fold dihedral saddle on the planar yardstick grid, as
    `choquard solve --dim 2 --M 256 --L 16 --alpha 1 --group I2:4
    --restarts 1` runs it, converges with one nodal domain per chamber of
    the group's eight."""
    rep = annotate_report(solve_saddle(
        from_name("I2:4"), NL, get_kernel(PLANE_GRID, PLANE_ALPHA), PLANE_GRID,
        SolverConfig(seed=0, restarts=1), base=plane["ground"].field))
    assert rep.grad_residual <= 1e-4 and rep.p_residual <= 1e-3
    assert rep.nodal_count == 8
    assert rep.energy > plane["I2:2"].energy


def _scan_spacing(monkeypatch, kernel, action, base):
    """The spacing of the start the saddle-start scan picks on the action's
    half grid with the kernel."""
    built = []
    build = solver.build_initializer

    def recorded(*args):
        start = build(*args)
        built.append((start, args[2]))
        return start

    with monkeypatch.context() as patch:
        patch.setattr(solver, "build_initializer", recorded)
        chosen = solver._least_ray_start(NL, kernel, action, base)
    return next(spacing for start, spacing in built if start is chosen)


def test_coarse_scan_picks_the_fine_scan_spacing(monkeypatch, ref_ground, plane,
                                                 wide_i23):
    """The saddle-start scan of a yardstick solve runs on the M/2 grid with
    the fine kernel restricted to it; from the yardstick ground fields it
    picks the spacing the scan on the solve grid picks."""
    cases = [("ref3d A1", REF_GRID, REF_ALPHA, "A1", ref_ground),
             ("plane2d A1", PLANE_GRID, PLANE_ALPHA, "A1", plane["ground"]),
             ("plane2d I2:2", PLANE_GRID, PLANE_ALPHA, "I2:2", plane["ground"]),
             ("wide_i23 I2:3", WIDE_GRID, PLANE_ALPHA, "I2:3", wide_i23["ground"])]
    for name, grid, alpha, tag, ground in cases:
        group = from_name(tag)
        coarse = solver._coarse_grid(grid)
        fine = get_kernel(grid, alpha)
        picks = [_scan_spacing(monkeypatch, k, GroupAction(group, k.grid), ground.field)
                 for k in (fine, fine.restrict(coarse))]
        assert picks[0] == picks[1], (name, picks)


# -- committed records of the yardstick solves --------------------------------

RECORDS = Path(__file__).with_name("yardstick_records.json")
# relative tolerance of each float field; iters and coarse_iters are exact
RECORD_RTOL = {"energy": 1e-10, "restart_energies": 1e-10,
               "grad_residual": 1e-6, "P_residual": 1e-6}


def _record(rep):
    return {"iters": rep.iters, "coarse_iters": rep.coarse_iters,
            "energy": rep.energy, "restart_energies": rep.restart_energies,
            "grad_residual": rep.grad_residual, "P_residual": rep.p_residual}


def _record_holds(want, got):
    if (got["iters"], got["coarse_iters"]) != (want["iters"], want["coarse_iters"]):
        return False
    for key, rtol in RECORD_RTOL.items():
        w, g = np.asarray(want[key], float), np.asarray(got[key], float)
        if w.shape != g.shape or not np.allclose(g, w, rtol=rtol, atol=0.0,
                                                 equal_nan=True):
            return False
    return True


def test_yardstick_solves_keep_their_committed_records(ref_ground, ref_a1, plane,
                                                       wide_i23):
    """The seven seed-0 yardstick solves reproduce the records committed in
    yardstick_records.json: iteration counts exactly, energies to 1e-10 and
    residuals to 1e-6 relative.  A change that moves a solve fails here with
    the current records printed as JSON, to be committed with the reason."""
    reports = {"ref3d trivial": ref_ground, "ref3d A1": ref_a1,
               **{f"plane2d {rep.group}": rep for rep in plane.values()},
               **{f"wide_i23 {rep.group}": rep for rep in wide_i23.values()}}
    current = {name: _record(rep) for name, rep in reports.items()}
    committed = json.loads(RECORDS.read_text())
    moved = sorted(name for name in current.keys() | committed.keys()
                   if name not in current or name not in committed
                   or not _record_holds(committed[name], current[name]))
    if moved:
        pytest.fail(f"solves moved off their records: {moved}; current records:\n"
                    + json.dumps(current, indent=1))
