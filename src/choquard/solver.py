"""Symmetrized gradient descent with Pohozaev rescaling.

Ground states minimize E on the Pohozaev manifold P = 0; sign-changing
saddles minimize E over the equivariant class H_G intersected with the
manifold.  The iteration descends E with a backtracked step along the
Sobolev gradient (1 - Delta)^{-1} gradE, projecting every trial back
onto the manifold by an exact dilation rescale, onto nonnegativity by
taking |u| for ground states, and onto H_G by the group average for
saddles.  Stopping is measured on the L^2 gradient and the Pohozaev
residual.  All functional values come from `functionals`; one driver,
`_solve`, serves the trivial group and real groups alike.

Saddle initializers translate a cut-off copy of a base profile to the
orbit of a chamber-interior direction and antisymmetrize, producing one
signed bump per orbit point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .coxeter import CoxeterGroup
from .errors import (
    BumpLeavesDomain,
    GridMismatch,
    NoDescent,
    NonpositiveQ,
    SeparationViolation,
    SymmetryDrift,
)
from .field import (
    Field,
    GridSpec,
    GroupAction,
    boundary_amplitude,
    dilate,
    helmholtz_inverse_array,
    symmetrize_array,
    symmetry_residual,
    translate,
)
# bench/tracer.py wraps _idst here by name; nothing in this module calls it.
from .field import _idst  # noqa: F401
from .functionals import (
    Nonlinearity,
    _ensure_positive_q,
    _gradient_from_parts,
    _state_parts,
    pohozaev_root,
    residuals,
)
from .riesz import RieszKernel

SYMMETRY_DRIFT_LIMIT = 1e-2
ENERGY_SLACK = 1e-12
MAX_BACKTRACKS = 30


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 4000
    step: float = 1.0
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


class _Descent:
    """One descent run from a fixed initial iterate."""

    def __init__(self, nl, kernel, cfg, project, action=None):
        self.nl = nl
        self.kernel = kernel
        self.grid = kernel.grid
        self.cfg = cfg
        self.project = project
        self.action = action

    def _ray_energy(self, a, t):
        w = dilate(Field(self.grid, a), t).data
        return _state_parts(self.nl, self.kernel, w)[0].energy

    def _retraction_root(self, a, state):
        """Dilation factor that restores the zero-Pohozaev condition.

        Far from the critical point the closed-form root of the continuum
        dilation polynomial is good enough.  Near it the O(h^2) quadrature
        defect biases that root away from 1 by a small constant, which traps
        the iteration in a limit cycle of repeated small dilations.  A
        three-point parabola fit to the energy actually realized on the grid
        removes the bias: at a discrete critical point every resampling
        family is energy-stationary, so the fitted maximizer sits at t = 1
        and the retraction degenerates to the identity.
        """
        t0 = pohozaev_root(state, self.grid.dim, self.kernel.alpha)
        if abs(t0 - 1.0) > 0.05:
            return t0
        s = t0 - 1.0
        if abs(s) < 5e-4:
            s = 5e-4 if s >= 0 else -5e-4
        e0 = state.energy
        e1 = self._ray_energy(a, 1.0 + s)
        e2 = self._ray_energy(a, 1.0 + 2.0 * s)
        curv = e0 - 2.0 * e1 + e2
        if not (curv < 0.0):
            return t0
        t_fit = (1.0 + s) + 0.5 * s * (e0 - e2) / curv
        lo, hi = sorted((1.0 - 2.0 * abs(s), 1.0 + 3.0 * abs(s)))
        return min(max(t_fit, lo), hi)

    def _retract(self, a, state):
        """Dilate a back onto the ray maximum; reuses state when t = 1."""
        t = self._retraction_root(a, state)
        if abs(t - 1.0) <= 1e-12:
            return a, state, None, None
        a = self.project(dilate(Field(self.grid, a), t).data)
        state, coeff, conv = _state_parts(self.nl, self.kernel, a)
        return a, state, coeff, conv

    def run(self, a0: np.ndarray):
        cfg = self.cfg
        grid = self.grid
        nl, kernel = self.nl, self.kernel
        a = self.project(a0)
        state, coeff, conv = _state_parts(nl, kernel, a)
        if not (state.Q > 0.0):
            raise NonpositiveQ(f"initializer has Q = {state.Q:g}")
        a, state, c2, v2 = self._retract(a, state)
        if c2 is not None:
            coeff, conv = c2, v2
        eta = cfg.step
        grad_res = p_res = float("inf")
        # every pass through the loop accepts a step or raises, so the
        # loop index counts the accepted steps
        for it in range(cfg.max_iters):
            grad = _gradient_from_parts(nl, kernel, a, coeff, conv)
            grad_res, p_res = residuals(grid, state, grad, a)
            if grad_res <= cfg.grad_tol and p_res <= cfg.pohozaev_tol:
                return a, state, grad_res, p_res, it
            if self.action is not None and it % 20 == 0:
                drift = symmetry_residual(self.action, Field(grid, a))
                if drift > SYMMETRY_DRIFT_LIMIT:
                    raise SymmetryDrift(
                        f"symmetry residual {drift:.3e} at iteration {it}"
                    )
            direction = helmholtz_inverse_array(grid, grad)
            # The Pohozaev rescaling is applied inside the line search and
            # the comparison uses the energy of the rescaled trial.  Judging
            # the raw trial instead admits two failure modes: descent drains
            # into u = 0 (a local minimum below every critical level), and
            # near convergence the preconditioned step keeps a first-order
            # component along the dilation ray, whose apparent energy gain
            # the rescaling exactly undoes, freezing the iteration.
            for _ in range(MAX_BACKTRACKS):
                trial = self.project(a - eta * direction)
                t_state, t_coeff, t_conv = _state_parts(nl, kernel, trial)
                if not (t_state.Q > 0.0):
                    eta *= 0.5
                    continue
                trial, t_state, c2, v2 = self._retract(trial, t_state)
                if c2 is not None:
                    t_coeff, t_conv = c2, v2
                if t_state.energy <= state.energy + ENERGY_SLACK * abs(state.energy):
                    a, state, coeff, conv = trial, t_state, t_coeff, t_conv
                    break
                eta *= 0.5
            else:
                raise NoDescent(
                    f"line search stalled at iteration {it}: "
                    f"E = {state.energy:.6e}, grad residual {grad_res:.3e}"
                )
            eta = min(eta * 2.0, cfg.step)
        raise NoDescent(
            f"no convergence in {cfg.max_iters} iterations: "
            f"grad residual {grad_res:.3e}, Pohozaev residual {p_res:.3e}"
        )


def _smooth_noise(grid, rng, scale):
    raw = rng.standard_normal(grid.shape)
    smooth = helmholtz_inverse_array(grid, helmholtz_inverse_array(grid, raw))
    peak = np.max(np.abs(smooth))
    return scale * smooth / peak if peak > 0 else smooth


def _gaussian_seed(grid: GridSpec) -> np.ndarray:
    sigma = grid.L / 6.0
    r2 = np.zeros(grid.shape)
    for x in grid.mesh():
        r2 += x * x
    return np.exp(-r2 / (2.0 * sigma ** 2))


def _solve(nl, kernel, grid, cfg, project, a0, tag, action=None):
    """Best of cfg.restarts descents from a0 and its noisy copies.

    project maps an array into the admissible class: |.| for ground states,
    the group average for saddles; action, when given, is the group action
    whose drift the descent watches and the report measures.
    """
    if grid != kernel.grid:
        raise GridMismatch("solver grid does not match the kernel grid")
    start = time.perf_counter()
    best = None
    energies = []
    failure = None
    for r in range(max(1, cfg.restarts)):
        rng = np.random.default_rng(cfg.seed + r)
        a_init = a0.copy()
        if r > 0:
            a_init += _smooth_noise(grid, rng, 0.05 * np.max(np.abs(a0)))
        try:
            # run() projects once more; the shear group average is not
            # bit-idempotent, so dropping either projection moves the result
            a_init = _ensure_positive_q(nl, kernel, project(a_init))
            result = _Descent(nl, kernel, cfg, project, action).run(a_init)
        except (NoDescent, NonpositiveQ) as exc:
            failure = exc
            energies.append(float("nan"))
            continue
        energies.append(result[1].energy)
        if best is None or result[1].energy < best[1].energy:
            best = result
    if best is None:
        raise failure if failure is not None else NoDescent("all restarts failed")
    a, state, grad_res, p_res, iters = best
    wall = time.perf_counter() - start
    u = Field(grid, a)
    return SolveReport(
        group=tag,
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
        symmetry_residual=(
            symmetry_residual(action, u) if action is not None else 0.0),
        boundary_amplitude=boundary_amplitude(u),
        wall_clock=wall,
        field=u,
        restart_energies=energies,
    )


def solve_ground(nl: Nonlinearity, kernel: RieszKernel, grid: GridSpec,
                 cfg: SolverConfig = SolverConfig(), init: Field = None
                 ) -> SolveReport:
    """Positive ground state on the trivial symmetry class."""
    a0 = init.data if init is not None else _gaussian_seed(grid)
    return _solve(nl, kernel, grid, cfg, np.abs, a0, "trivial")


def quintic_cutoff(grid: GridSpec, radius: float) -> np.ndarray:
    """C^2 radial cutoff: 1 on |x| <= R, 0 on |x| >= 2R, quintic blend between."""
    r = grid.radius()
    s = np.clip((r - radius) / radius, 0.0, 1.0)
    return 1.0 - (6.0 * s ** 5 - 15.0 * s ** 4 + 10.0 * s ** 3)


def build_initializer(action: GroupAction, base: Field, radius: float = None,
                      separation: float = None, q: np.ndarray = None) -> Field:
    """Signed orbit-bump seed: Pi_G of a cut-off base translated to l R q.

    The output is scaled by the group order so each bump keeps the base
    amplitude; for a chamber-interior q the orbit is free and the bumps are
    disjoint copies signed by the character.
    """
    group = action.group
    grid = action.grid
    if q is None:
        q = group.chamber_interior_point()
    q = np.asarray(q, dtype=float)
    if q.size and np.linalg.norm(q) > 0:
        q = q / np.linalg.norm(q)
    orbit = group.orbit(q) if group.rank else None
    k1 = orbit.min_dist if orbit is not None else np.inf
    if separation is None:
        separation = 0.0 if np.isinf(k1) else 6.0 / k1
    if radius is None:
        # The farthest-out coordinate over the whole embedded orbit governs
        # how large the bumps can be; using q alone would overflow the box
        # whenever a group element rotates q onto a coordinate axis.
        if orbit is not None and orbit.points.size:
            qmax = max(
                float(np.max(np.abs(action.embed_point(p))))
                for p in orbit.points
            )
        else:
            qmax = 0.0
        # Fill at most 80% of the half-width: the descent path stretches the
        # configuration before settling, and a seed that already touches the
        # boundary turns those dilations into wall artifacts.
        radius = 0.80 * grid.L / (separation * qmax + 2.0)
    if np.isfinite(k1) and separation * k1 < 4.0:
        raise SeparationViolation(
            f"separation {separation:g} x orbit distance {k1:g} < 4; "
            "bump supports overlap"
        )
    centers = (
        orbit.points * separation * radius if orbit is not None else np.zeros((1, 0))
    )
    reach = 0.0
    for c in centers:
        c_emb = action.embed_point(c)
        reach = max(reach, float(np.max(np.abs(c_emb))) + 2.0 * radius)
    if reach > grid.L:
        raise BumpLeavesDomain(
            f"bump support reaches {reach:g} beyond half-width {grid.L:g}"
        )
    bump = quintic_cutoff(grid, radius) * base.data
    center = action.embed_point(separation * radius * q)
    shifted = translate(Field(grid, bump), center)
    return Field(grid, group.order * symmetrize_array(action, shifted.data))


def solve_saddle(group: CoxeterGroup, nl: Nonlinearity, kernel: RieszKernel,
                 grid: GridSpec, cfg: SolverConfig = SolverConfig(),
                 base: Field = None, init: Field = None) -> SolveReport:
    """Least-energy solution in the sign-equivariant class of the group."""
    action = GroupAction(group, grid)
    if init is None:
        if base is None:
            base = solve_ground(nl, kernel, grid, cfg).field
        init = build_initializer(action, base)

    def project(a):
        return symmetrize_array(action, a)

    return _solve(nl, kernel, grid, cfg, project, init.data,
                  group.tag or "custom", action)
