"""Structural diagnostics: nodal domains, decay rates, energy hierarchy.

Nodal domains are face-connected components of {u > theta} and {u < -theta}
with theta a relative threshold, matching the prediction that a saddle for
a group G of order |G| has exactly |G| nodal domains, one per chamber
image, with signs given by the character.  The energy hierarchy compares
each saddle level c_G against |Gq| c_{S_q} for stabilizers S_q of chamber
facet representatives, and the decay fit checks the exponential tail of
|u| against a log-linear model over radial shells.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
# eager: imported lazily, it would add ~0.4 s to the first nodal_domains call
from scipy import ndimage

from .coxeter import CoxeterGroup, from_name
from .errors import AllBelowFloor
from .field import Field, GroupAction, radial_shell_stats
# bench/tracer.py wraps symmetrize_array here by name; nothing in this module calls it.
from .field import symmetrize_array  # noqa: F401
from .functionals import Nonlinearity
from .riesz import RieszKernel
from .solver import SolveReport, SolverConfig, solve_saddle

AMPLITUDE_FLOOR = 1e-300
CHAMBER_TOL = 1e-9  # wall distance, relative to 1 + |x|, that counts as on the wall
NODAL_THRESHOLD = 1e-3  # default nodal level, relative to max |u|


@dataclass(frozen=True)
class NodalReport:
    count: int
    positive_count: int
    negative_count: int
    sizes: tuple
    threshold: float
    sign_on_chamber: object  # +1, -1, 0 for mixed, None when no chamber given


def open_chamber_mask(action: GroupAction) -> np.ndarray:
    """Nodes x with <x, n_i> > CHAMBER_TOL (1 + |x|) on every chamber wall i."""
    group, grid = action.group, action.grid
    c = grid.axis_coords()
    tol = CHAMBER_TOL * (1.0 + grid.radius())
    mask = np.ones(grid.shape, dtype=bool)
    for i in range(group.rank):
        d = np.zeros(grid.shape)
        for a in range(group.rank):
            d += group.chamber_normals[i, a] * grid.along(a, c)
        mask &= d > tol
    return mask


def nodal_domains(u: Field, threshold: float = NODAL_THRESHOLD,
                  action: GroupAction = None) -> NodalReport:
    """Count face-connected components of u above/below the threshold."""
    theta = threshold * u.norm_max()
    pos = u.data > theta
    neg = u.data < -theta
    structure = ndimage.generate_binary_structure(u.grid.dim, 1)
    lab_pos, n_pos = ndimage.label(pos, structure=structure)
    lab_neg, n_neg = ndimage.label(neg, structure=structure)
    sizes = [int(s) for s in ndimage.sum_labels(pos, lab_pos,
                                                range(1, n_pos + 1))]
    sizes += [int(s) for s in ndimage.sum_labels(neg, lab_neg,
                                                 range(1, n_neg + 1))]
    sign = None
    if action is not None:
        sel = open_chamber_mask(action) & (pos | neg)
        if not np.any(sel):
            sign = 0
        else:
            has_pos = bool(np.any(pos & sel))
            has_neg = bool(np.any(neg & sel))
            sign = 0 if (has_pos and has_neg) else (1 if has_pos else -1)
    return NodalReport(n_pos + n_neg, n_pos, n_neg, tuple(sorted(sizes)),
                       threshold, sign)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    rms_residual: float
    r_min: float
    r_max: float
    n_shells: int


def decay_fit(u: Field, r_min: float = None, r_max: float = None) -> DecayFit:
    """Fit log max_shell |u| = log C - rate * r over a radial window."""
    grid = u.grid
    if r_min is None:
        r_min = 0.4 * grid.L
    if r_max is None:
        r_max = 0.7 * grid.L
    if not (0.0 < r_min < r_max < grid.L):
        raise ValueError(f"window [{r_min}, {r_max}] not inside (0, {grid.L})")
    centers, max_abs, _ = radial_shell_stats(u)
    sel = (centers >= r_min) & (centers <= r_max)
    if int(sel.sum()) < 10:
        raise ValueError(f"only {int(sel.sum())} shells in window, need >= 10")
    r = centers[sel]
    vals = max_abs[sel]
    if np.all(vals <= AMPLITUDE_FLOOR):
        raise AllBelowFloor("all shell amplitudes at the floating point floor")
    keep = vals > AMPLITUDE_FLOOR
    r, vals = r[keep], vals[keep]
    slope, intercept = np.polyfit(r, np.log(vals), 1)
    resid = np.log(vals) - (slope * r + intercept)
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
        r_min=r_min,
        r_max=r_max,
        n_shells=int(keep.sum()),
    )


def annotate_report(report: SolveReport, threshold: float = NODAL_THRESHOLD,
                    group: CoxeterGroup = None) -> SolveReport:
    """Fill the nodal count and decay rate diagnostics of a solve report.

    The nodal count needs no chamber, so group is not read; it stays in
    the signature for callers that pass it.
    """
    nodal = nodal_domains(report.field, threshold)
    try:
        decay = decay_fit(report.field).rate
    except (ValueError, AllBelowFloor):
        decay = None
    return dataclasses.replace(report, nodal_count=nodal.count,
                               decay_rate=decay)


# -- energy hierarchy ---------------------------------------------------------

def facet_ray_representatives(group: CoxeterGroup):
    """One representative q per stratum of codimension rank-1 in the chamber.

    Rank k returns a unit vector on each extreme ray (intersection of k-1
    walls) of the chamber cone: none for rank 0, and for rank 1 the chamber
    side of the line, the SVD of the empty 0 x 1 matrix giving vh = [[1.]].
    """
    reps = []
    normals = group.chamber_normals
    for leave_out in range(group.rank):
        rows = np.delete(normals, leave_out, axis=0)
        _, _, vh = np.linalg.svd(rows)
        d = vh[-1]
        s = float(normals[leave_out] @ d)
        if abs(s) < 1e-12:
            continue
        if s < 0:
            d = -d
        reps.append(d / np.linalg.norm(d))
    return reps


@dataclass(frozen=True)
class Inequality:
    kind: str
    group: str
    description: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin > 0.0


@dataclass
class HierarchyReport:
    rows: list
    inequalities: list
    notes: list

    @property
    def all_hold(self) -> bool:
        return all(iq.holds for iq in self.inequalities)

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {"group": r.group, "energy": r.energy, "iters": r.iters,
                 "nodal_count": r.nodal_count}
                for r in self.rows
            ],
            "inequalities": [
                {"kind": iq.kind, "group": iq.group,
                 "description": iq.description, "lhs": iq.lhs, "rhs": iq.rhs,
                 "margin": iq.margin, "holds": iq.holds}
                for iq in self.inequalities
            ],
            "notes": list(self.notes),
            "all_hold": self.all_hold,
        }

    def to_text(self) -> str:
        lines = ["group        energy          iters  nodal"]
        for r in self.rows:
            nodal = "-" if r.nodal_count is None else str(r.nodal_count)
            lines.append(
                f"{r.group:<12} {r.energy:< 15.8e} {r.iters:>5}  {nodal}"
            )
        lines.append("")
        for iq in self.inequalities:
            verdict = "ok" if iq.holds else "FAIL"
            lines.append(
                f"[{verdict}] {iq.description}: {iq.lhs:.8e} < {iq.rhs:.8e} "
                f"(margin {iq.margin:.3e})"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def hierarchy_report(tags, nl: Nonlinearity, kernel: RieszKernel,
                     grid, cfg: SolverConfig = SolverConfig(),
                     threshold: float = NODAL_THRESHOLD) -> HierarchyReport:
    """Solve a chain of groups and check c_G < |Gq| c_{S_q} instances.

    For every group the facet-ray representatives q give stabilizers S_q;
    the stabilizer level c_{S_q} is looked up among the already-solved
    groups by (rank, order), for which the chain should start at 'trivial'
    and include each stabilizer class.  Uses the ground state as the base
    profile of every saddle initializer (the stabilizer of an interior
    direction is trivial).
    """
    groups = [from_name(tag) for tag in tags]
    for group in groups:
        GroupAction(group, grid)  # a group with no exact action fails here
    rows = []
    notes = []
    by_signature = {}
    ground = None
    for group in groups:
        report = solve_saddle(group, nl, kernel, grid, cfg,
                              base=ground.field if ground else None)
        if group.rank == 0:
            ground = report
        report = annotate_report(report, threshold)
        rows.append(report)
        sig = (group.rank, group.order)
        by_signature.setdefault(sig, report)

    inequalities = []
    for group, report in zip(groups, rows):
        best_rhs = None
        best_nontrivial = None
        for q in facet_ray_representatives(group):
            stab = group.isotropy(q)
            orbit_size = group.order // stab.order
            ref = by_signature.get((stab.rank, stab.order))
            if ref is None:
                notes.append(
                    f"{report.group}: no solved group with stabilizer "
                    f"signature rank {stab.rank}, order {stab.order}"
                )
                continue
            rhs = orbit_size * ref.energy
            inequalities.append(Inequality(
                kind="saddle_vs_stabilizer",
                group=report.group,
                description=(
                    f"c[{report.group}] < {orbit_size} x c[{ref.group}]"
                ),
                lhs=report.energy,
                rhs=rhs,
            ))
            if best_rhs is None or rhs < best_rhs:
                best_rhs = rhs
                best_nontrivial = stab.order > 1
        if best_rhs is not None and best_nontrivial and ground is not None:
            inequalities.append(Inequality(
                kind="chain",
                group=report.group,
                description=(
                    f"c*[{report.group}] < {group.order} x c[trivial]"
                ),
                lhs=best_rhs,
                rhs=group.order * ground.energy,
            ))
    return HierarchyReport(rows, inequalities, notes)
