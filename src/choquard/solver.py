"""Symmetrized gradient descent with Pohozaev rescaling.

Ground states minimize E on the Pohozaev manifold P = 0; sign-changing
saddles minimize E over the equivariant class H_G intersected with the
manifold.  The iteration descends E along the Sobolev gradient
(1 - Delta)^{-1} gradE with a Barzilai-Borwein step in that metric
(Barzilai & Borwein 1988).  The retraction is where an iterate enters
the class: it dilates each trial back onto the manifold (near convergence,
onto the zero of the discrete ray derivative of E_h), then projects it,
once.  A retracted trial is accepted when its energy does not exceed the
highest of the last ENERGY_WINDOW accepted energies, and the step is
halved otherwise: the nonmonotone acceptance of Raydan (1997) that makes
the BB step globally convergent.
The group action alone describes the solve class: every descent stores and
iterates only its half grid (`GroupAction.half`, the positive half of each
axis with a mirror parity), where transforms, dilation and convolution run
at length M/2.  F is even, so F(u) is mirror-even along every axis with a
parity and the convolution folds them all.  A full-grid start field and
each restart's noise are folded onto the half once, so restarts explore
only the parity class, and the report's field is unfolded from it.  Each
descent evaluates its start once, and neither a trial nor a dilation
transforms again what an evaluation already holds.
`_projector` picks the map into the class once per solve: |u| for the
ground state, none where the half grid holds the class (A1, I2:2,
A1xA1xA1), and otherwise unfold, `symmetrize_array`, fold, where the group
average runs over the double cosets of the axis flips in G, one group
action per non-trivial double coset (one three-shear rotation for I2:3);
only that averaging projector needs the symmetry drift watched.  Stopping
is measured on the L^2 gradient and the continuum Pohozaev residual.  All
functional values come from `functionals`; `solve_saddle` is the one entry
and `_solve` the one driver for every group, and `pohozaev_root` alone
decides whether Q admits a retraction.

`solve_saddle` is also the one place that chooses a start: the caller's,
else a Gaussian built on the half grid for the trivial group, else the
orbit-bump start of least ray maximum, the energy at its Pohozaev root,
over one start for each orbit spacing in SPACINGS, read off one evaluation
of each.  An orbit-bump start translates a cut-off copy of a base profile
to the orbit of a chamber-interior direction and antisymmetrizes, giving
one signed bump per orbit point, built on the half grid from the base's
own half; only the averaging class map of I2:m unfolds it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .coxeter import CoxeterGroup, from_name
from .errors import GridMismatch, NoDescent, NonpositiveQ, ParseError, SymmetryDrift
from .field import (
    Field,
    GridSpec,
    GroupAction,
    _idst,
    boundary_amplitude,
    dilate,
    exact_half,
    helmholtz_inverse_coeff,
    symmetrize_array,
    symmetry_residual,
    translate,
    x_dot_grad_array,
)
# bench/tracer.py wraps helmholtz_inverse_array here by name; nothing in
# this module calls it.
from .field import helmholtz_inverse_array  # noqa: F401
from .functionals import (
    Nonlinearity,
    _ensure_positive_q,
    _gradient_from_parts,
    _state_parts,
    pohozaev_root,
    ray_maximum,
    residuals,
)
from .riesz import RieszKernel

SYMMETRY_DRIFT_LIMIT = 1e-2
ENERGY_SLACK = 1e-12
MAX_BACKTRACKS = 30
STEP = 1.0
STEP_MIN, STEP_MAX = 0.2, 10.0
ENERGY_WINDOW = 5
# Orbit spacings, in bump radii, of the candidate saddle starts; the last,
# 6, keeps the supports disjoint and is the start when no candidate serves.
SPACINGS = (1.0, 1.5, 2.0, 3.0, 6.0)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 4000
    grad_tol: float = 1e-4
    pohozaev_tol: float = 1e-3
    restarts: int = 3
    seed: int = 0


@dataclass
class SolveReport:
    """Converged solution with its residuals and diagnostics."""

    group: str
    grid: GridSpec
    alpha: float
    nonlinearity: str
    iters: int
    energy: float
    A: float
    B: float
    Q: float
    p_residual: float
    grad_residual: float
    symmetry_residual: float
    boundary_amplitude: float
    wall_clock: float
    field: Field
    restart_energies: list = dc_field(default_factory=list)
    nodal_count: int | None = None
    decay_rate: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "group": self.group,
            "grid": {"dim": self.grid.dim, "M": self.grid.M, "L": self.grid.L},
            "alpha": self.alpha,
            "nonlinearity": self.nonlinearity,
            "iters": self.iters,
            "energy": self.energy,
            "A": self.A,
            "B": self.B,
            "Q": self.Q,
            "P_residual": self.p_residual,
            "grad_residual": self.grad_residual,
            "symmetry_residual": self.symmetry_residual,
            "nodal_count": self.nodal_count,
            "decay_rate": self.decay_rate,
            "boundary_amplitude": self.boundary_amplitude,
            "wall_clock": self.wall_clock,
        }


def _bb_step(s, y, py):
    """Barzilai-Borwein step <s, y> / <y, Py> in the (1 - Delta)^{-1} metric,
    clipped to [STEP_MIN, STEP_MAX]; STEP where either product is not
    positive.  s and y are the changes of the iterate and the L^2 gradient
    over the last accepted step, Py the change of the Sobolev direction."""
    sy = float(np.vdot(s, y))
    ypy = float(np.vdot(y, py))
    if not (sy > 0.0 and ypy > 0.0):
        return STEP
    return min(max(sy / ypy, STEP_MIN), STEP_MAX)


class _Descent:
    """One descent run from a fixed initial iterate, on the action's half
    grid; project maps arrays into the class there (None: every array on
    the half is in the class already)."""

    def __init__(self, nl, kernel, cfg, project, action):
        self.nl = nl
        self.kernel = kernel
        self.grid = action.half
        self.cfg = cfg
        self.project = project or (lambda a: a)
        self.action = action

    # bench/tracer.py wraps _ray_energy by name; nothing in this module calls it.
    def _ray_energy(self, a, t):
        w = dilate(Field(self.grid, a), t).data
        return _state_parts(self.nl, self.kernel, w, self.grid)[0].energy

    def _retraction_root(self, a, state, coeff, conv):
        """Dilation factor that restores the zero-Pohozaev condition.

        Far from the critical point this is the root of the continuum
        dilation polynomial.  Near it, where the O(h^2) quadrature defect of
        that root would trap the iteration in a limit cycle of small
        dilations, the defect is folded into Q so that P becomes the discrete
        ray derivative d/dt E_h(u(./t)) at t = 1 = -<grad E_h(u), x . grad u>_h;
        the root is then 1 exactly where the grid energy is stationary on the ray.
        A defect so large that the folded Q is not positive is not folded:
        the continuum root is returned instead.
        """
        dim, alpha = self.grid.dim, self.kernel.alpha
        t0 = pohozaev_root(state, dim, alpha)
        if abs(t0 - 1.0) > 0.05:
            return t0
        grad = _gradient_from_parts(self.nl, self.kernel, a, coeff, conv, self.grid)
        p_h = -self.grid.weight * np.sum(grad * x_dot_grad_array(self.grid, coeff))
        q = float(state.Q - 2.0 * (p_h - state.pohozaev) / (dim + alpha))
        if not (q > 0.0):
            return t0
        return pohozaev_root(replace(state, Q=q), dim, alpha)

    def _retract(self, a, state, coeff, conv):
        """Dilate a back onto the ray maximum, project it into the class and
        evaluate it there: the one place where an iterate enters the class.
        The dilation reads a's sine coefficients coeff from its evaluation."""
        t = self._retraction_root(a, state, coeff, conv)
        a = self.project(dilate(Field(self.grid, a), t, coeff).data)
        return (a, *_state_parts(self.nl, self.kernel, a, self.grid))

    def run(self, a0: np.ndarray):
        """Descend from a0, evaluated once here; its amplitude is doubled
        first where its Q is not positive."""
        cfg = self.cfg
        grid = self.grid
        nl, kernel = self.nl, self.kernel
        a0, parts = _ensure_positive_q(nl, kernel, a0, grid,
                                       _state_parts(nl, kernel, a0, grid))
        a, state, coeff, conv = self._retract(a0, *parts)
        # energies of the last accepted iterates: a trial is accepted when
        # it does not rise above the highest of them (nonmonotone descent)
        recent = deque([state.energy], maxlen=ENERGY_WINDOW)
        prev = None
        grad_res = p_res = float("inf")
        # every pass through the loop accepts a step or raises, so the
        # loop index counts the accepted steps
        for it in range(cfg.max_iters):
            grad = _gradient_from_parts(nl, kernel, a, coeff, conv, grid)
            grad_res, p_res = residuals(grid, state, grad, a)
            if grad_res <= cfg.grad_tol and p_res <= cfg.pohozaev_tol:
                return a, state, grad_res, p_res, it
            if not self.action.half_holds_class and it % 20 == 0:
                drift = symmetry_residual(self.action,
                                          Field(self.action.grid, grid.unfold(a)))
                if drift > SYMMETRY_DRIFT_LIMIT:
                    raise SymmetryDrift(
                        f"symmetry residual {drift:.3e} at iteration {it}"
                    )
            # a trial's sine coefficients are coeff - eta * dcoeff, so it
            # is evaluated without a transform of its own
            dcoeff = helmholtz_inverse_coeff(grid, grad)
            direction = _idst(dcoeff, grid.parity)
            eta = STEP if prev is None else _bb_step(
                a - prev[0], grad - prev[1], direction - prev[2])
            prev = (a, grad, direction)
            ceiling = max(recent)
            ceiling += ENERGY_SLACK * abs(ceiling)
            # The Pohozaev rescaling is applied inside the line search and
            # the comparison uses the energy of the rescaled trial.  Judging
            # the raw trial instead admits two failure modes: descent drains
            # into u = 0 (a local minimum below every critical level), and
            # near convergence the preconditioned step keeps a first-order
            # component along the dilation ray, whose apparent energy gain
            # the rescaling exactly undoes, freezing the iteration.
            for _ in range(MAX_BACKTRACKS):
                trial = a - eta * direction
                parts = _state_parts(nl, kernel, trial, grid, coeff - eta * dcoeff)
                try:  # a trial whose Q admits no Pohozaev root is rejected
                    t_parts = self._retract(trial, *parts)
                except NonpositiveQ:
                    eta *= 0.5
                    continue
                if t_parts[1].energy <= ceiling:
                    a, state, coeff, conv = t_parts
                    recent.append(state.energy)
                    break
                eta *= 0.5
            else:
                raise NoDescent(
                    f"line search stalled at iteration {it}: "
                    f"E = {state.energy:.6e}, grad residual {grad_res:.3e}"
                )
        raise NoDescent(
            f"no convergence in {cfg.max_iters} iterations: "
            f"grad residual {grad_res:.3e}, Pohozaev residual {p_res:.3e}"
        )


def _smooth_noise(grid, rng, scale):
    """(1 - Delta)^{-2} of white noise on the full grid, peak scaled to scale."""
    raw = rng.standard_normal(grid.shape)
    smooth = _idst(helmholtz_inverse_coeff(grid, raw, power=2), grid.parity)
    peak = np.max(np.abs(smooth))
    return scale * smooth / peak if peak > 0 else smooth


def _gaussian_seed(grid: GridSpec) -> np.ndarray:
    sigma = grid.L / 6.0
    return np.exp(-grid.radius_sq() / (2.0 * sigma ** 2))


def _projector(action):
    """The map into the class of the action on its half grid: |.| for the
    trivial group, None where the half grid holds the class, and otherwise
    unfold, group average, fold."""
    if action.group.rank == 0:
        return np.abs
    if action.half_holds_class:
        return None
    half = action.half
    return lambda a: half.fold(symmetrize_array(action, half.unfold(a)))


def _solve(nl, kernel, grid, cfg, init, action):
    """Best of cfg.restarts descents from the start field init and its noisy
    copies.

    init on the action's half grid is used as it is, and init on the full
    grid and each restart's noise are folded once onto the half; the
    report's field is unfolded from it, and its symmetry residual measured.
    """
    if grid != kernel.grid:
        raise GridMismatch("solver grid does not match the kernel grid")
    half = action.half
    if init.grid not in (grid, half):
        raise GridMismatch("start field grid does not match the solver grid")
    if not np.all(np.isfinite(init.data)):
        raise ParseError("start field holds NaN or Inf")
    start = time.perf_counter()
    project = _projector(action)
    best = None
    energies = []
    failure = None
    a0 = init.data if init.grid == half else half.fold(init.data)
    noise_scale = 0.05 * np.max(np.abs(init.data))
    for r in range(max(1, cfg.restarts)):
        rng = np.random.default_rng(cfg.seed + r)
        a_init = a0.copy()
        if r > 0:
            a_init += half.fold(_smooth_noise(grid, rng, noise_scale))
        try:
            result = _Descent(nl, kernel, cfg, project, action).run(a_init)
        except (NoDescent, NonpositiveQ) as exc:
            failure = exc
            energies.append(float("nan"))
            continue
        energies.append(result[1].energy)
        if best is None or result[1].energy < best[1].energy:
            best = result
    if best is None:
        raise failure
    a, state, grad_res, p_res, iters = best
    wall = time.perf_counter() - start
    u = Field(grid, half.unfold(a))
    return SolveReport(
        group=action.group.tag or "custom",
        grid=grid,
        alpha=kernel.alpha,
        nonlinearity=nl.config_string(),
        iters=iters,
        energy=state.energy,
        A=state.A,
        B=state.B,
        Q=state.Q,
        p_residual=p_res,
        grad_residual=grad_res,
        symmetry_residual=symmetry_residual(action, u),
        boundary_amplitude=boundary_amplitude(u),
        wall_clock=wall,
        field=u,
        restart_energies=energies,
    )


def solve_ground(nl: Nonlinearity, kernel: RieszKernel, grid: GridSpec,
                 cfg: SolverConfig = SolverConfig(), init: Field = None
                 ) -> SolveReport:
    """Positive ground state: `solve_saddle` of the trivial group."""
    return solve_saddle(from_name("trivial"), nl, kernel, grid, cfg, init=init)


def quintic_cutoff(grid: GridSpec, radius: float) -> np.ndarray:
    """C^2 radial cutoff: 1 on |x| <= R, 0 on |x| >= 2R, quintic blend between."""
    r = grid.radius()
    s = np.clip((r - radius) / radius, 0.0, 1.0)
    # 6s^5 - 15s^4 + 10s^3 by products: an array ** runs pow per element
    return 1.0 - s * s * s * (10.0 + s * (6.0 * s - 15.0))


def build_initializer(action: GroupAction, base: Field,
                      spacing: float = 6.0) -> Field:
    """Signed orbit-bump seed on the action's half grid: the fold of
    |G| Pi_G of a cut-off base translated to l R q.

    q is the chamber-interior direction, so the orbit is free and the bumps
    are copies signed by the character.  The separation l = spacing / k1,
    k1 the least distance between orbit points of the unit q, puts
    neighbouring centers spacing * R apart.  The supports, of radius 2R,
    are disjoint for a spacing of at least 4; below that neighbouring
    copies overlap and partly cancel, since they carry opposite signs
    across each wall.  The output is scaled by the group order so that
    each bump, where it stands alone, keeps the base amplitude.

    The bump is cut on the base's own half (`exact_half`, all-even for a
    ground state); one sine-interpolant evaluation translates it and folds
    it onto the action's half.  The class map is then `_projector`'s: none
    where the half holds the class, else unfold, group average and fold,
    whose unfold is the only full-grid array built.  For the trivial group
    this is |base| cut off at the origin; `solve_saddle` starts that group
    from a Gaussian instead.
    """
    group = action.group
    grid = action.grid
    q = group.chamber_interior_point()
    q = q / np.linalg.norm(q)
    orbit = group.orbit(q)
    separation = spacing / orbit.min_dist
    # The farthest-out coordinate over the whole embedded orbit governs how
    # large the bumps can be; using q alone would overflow the box whenever
    # a group element rotates q onto a coordinate axis.
    qmax = float(np.max(np.abs(orbit.points), initial=0.0))
    # Fill at most 80% of the half-width: the descent path stretches the
    # configuration before settling, and a seed that already touches the
    # boundary turns those dilations into wall artifacts.
    radius = 0.80 * grid.L / (separation * qmax + 2.0)
    source = exact_half(base)
    bump = quintic_cutoff(source, radius) * source.fold(base.data)
    center = action.embed_point(separation * radius * q)
    a = translate(Field(source, bump), center, action.half).data
    project = _projector(action)
    return Field(action.half, group.order * (project(a) if project else a))


def _least_ray_start(nl, kernel, action, base):
    """The orbit-bump start over SPACINGS of least ray maximum a(t_u), from
    one half-grid evaluation of each: the peak selection of the local
    minimax method (Li & Zhou, SIAM J. Sci. Comput. 23, 2001) applied to
    the start.  Candidates with no Pohozaev root are skipped; the start is
    the last one built, spaced 6R, when none has one."""
    best, least = None, np.inf
    for spacing in SPACINGS:
        start = build_initializer(action, base, spacing)
        state = _state_parts(nl, kernel, start.data, start.grid)[0]
        try:
            level = ray_maximum(state, start.grid.dim, kernel.alpha)
        except NonpositiveQ:
            continue
        if level < least:
            best, least = start, level
    return best if best is not None else start


def solve_saddle(group: CoxeterGroup, nl: Nonlinearity, kernel: RieszKernel,
                 grid: GridSpec, cfg: SolverConfig = SolverConfig(),
                 base: Field = None, init: Field = None) -> SolveReport:
    """Least-energy solution in the sign-equivariant class of the group:
    the one solve entry, the trivial group's ground state included.

    The start is init when given; else, for the trivial group, a Gaussian
    built on the half grid; else the least-ray-maximum orbit-bump start
    from base, which defaults to the ground state.
    """
    action = GroupAction(group, grid)
    if init is None and group.rank == 0:
        init = Field(action.half, _gaussian_seed(action.half))
    elif init is None:
        if base is None:
            base = solve_ground(nl, kernel, grid, cfg).field
        init = _least_ray_start(nl, kernel, action, base)
    return _solve(nl, kernel, grid, cfg, init, action)
