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
from .errors import ParseError
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
    """Nodes x with <x, n_i> > CHAMBER_TOL (1 + |x|) on every chamber wall i;
    each <x, n_i> spans only the first rank axes, broadcast over the rest."""
    group, grid = action.group, action.grid
    c = grid.axis_coords()
    tol = grid.radius()
    tol += 1.0
    tol *= CHAMBER_TOL
    mask = np.ones(grid.shape, dtype=bool)
    for i in range(group.rank):
        mask &= sum(group.chamber_normals[i, a] * grid.along(a, c)
                    for a in range(group.rank)) > tol
    return mask


def _unfolded_domains(mask: np.ndarray, half) -> tuple:
    """Sizes of the full-grid components that a mask on the half and its
    mirror images make, with how many keep and how many flip the sign.

    A component C touching e even mirror faces joins its images across
    them, and across no odd one, whose image flips the sign: it gives
    2^(f - e) domains of |C| 2^e nodes, f the number of folded axes, half
    of them flipped when a folded axis is odd."""
    lab, n = ndimage.label(mask, ndimage.generate_binary_structure(mask.ndim, 1))
    size = np.bincount(lab.ravel(), minlength=n + 1)[1:]
    even = [ax for ax in half.folded if half.parity[ax] > 0]
    faces = sum((np.bincount(lab.take(0, axis=ax).ravel(), minlength=n + 1)[1:] > 0
                 for ax in even), np.zeros(n, dtype=int))
    copies = 2 ** (len(half.folded) - faces)
    total = int(copies.sum())
    flipped = total // 2 if len(even) < len(half.folded) else 0
    return np.repeat(size * 2 ** faces, copies), total - flipped, flipped


def nodal_domains(u: Field, threshold: float = NODAL_THRESHOLD,
                  action: GroupAction = None) -> NodalReport:
    """Count face-connected components of u above/below the threshold,
    labelled on `u.half` with their mirror images counted
    (`_unfolded_domains`); the chamber sign reads u on its full grid."""
    half, b = u.half, u.half_data
    theta = threshold * float(np.max(np.abs(b)))
    pos_sizes, pos_kept, pos_flipped = _unfolded_domains(b > theta, half)
    neg_sizes, neg_kept, neg_flipped = _unfolded_domains(b < -theta, half)
    n_pos, n_neg = pos_kept + neg_flipped, neg_kept + pos_flipped
    sign = None
    if action is not None:
        chamber = open_chamber_mask(action)
        has_pos = bool(np.any(chamber & (u.data > theta)))
        has_neg = bool(np.any(chamber & (u.data < -theta)))
        sign = 0 if has_pos == has_neg else (1 if has_pos else -1)
    sizes = np.sort(np.concatenate((pos_sizes, neg_sizes))).tolist()
    return NodalReport(n_pos + n_neg, n_pos, n_neg, tuple(sizes), threshold, sign)


@dataclass(frozen=True)
class DecayFit:
    rate: float
    amplitude: float
    rms_residual: float
    r_min: float
    r_max: float
    n_shells: int


def decay_fit(u: Field) -> DecayFit:
    """Fit log max_shell |u| = log C - rate * r over the shells of the radial
    window [0.4 L, 0.7 L] whose maximum is above AMPLITUDE_FLOOR; fewer than
    10 such shells raise ValueError."""
    r_min, r_max = 0.4 * u.grid.L, 0.7 * u.grid.L
    centers, max_abs, _ = radial_shell_stats(u)
    sel = (centers >= r_min) & (centers <= r_max) & (max_abs > AMPLITUDE_FLOOR)
    r, vals = centers[sel], max_abs[sel]
    if r.size < 10:
        raise ValueError(f"only {r.size} shells in window above the floor "
                         f"{AMPLITUDE_FLOOR:g}, need >= 10")
    slope, intercept = np.polyfit(r, np.log(vals), 1)
    resid = np.log(vals) - (slope * r + intercept)
    return DecayFit(
        rate=float(-slope),
        amplitude=float(np.exp(intercept)),
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
        r_min=r_min,
        r_max=r_max,
        n_shells=r.size,
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
    except ValueError:
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


def parse_chain(tags, grid) -> list:
    """The groups of a chain of tags, each parsed and checked for an exact
    action on grid once; a group named twice, by its canonical tag, is refused."""
    groups = [from_name(tag) for tag in tags]
    for k, group in enumerate(groups):
        if group.tag in [g.tag for g in groups[:k]]:
            raise ParseError(f"group {group.tag!r} repeated in the chain")
        GroupAction(group, grid)  # a group with no exact action fails here
    return groups


def hierarchy_report(groups, nl: Nonlinearity, kernel: RieszKernel,
                     cfg: SolverConfig = SolverConfig(),
                     threshold: float = NODAL_THRESHOLD) -> HierarchyReport:
    """Solve the groups `parse_chain` returns and check c_G < |Gq| c_{S_q}.

    For every group the facet-ray representatives q give stabilizers S_q;
    the stabilizer level c_{S_q} is looked up among the already-solved
    groups by (rank, order), once per signature, for which the chain should
    start at 'trivial' and include each stabilizer class.  Uses the ground
    state as the base profile of every saddle initializer (the stabilizer
    of an interior direction is trivial).
    """
    rows = []
    notes = []
    by_signature = {}
    ground = None
    for group in groups:
        report = solve_saddle(group, nl, kernel, kernel.grid, cfg,
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
        stabs = (group.isotropy(q) for q in facet_ray_representatives(group))
        for rank, order in dict.fromkeys((stab.rank, stab.order) for stab in stabs):
            orbit_size = group.order // order
            ref = by_signature.get((rank, order))
            if ref is None:
                notes.append(
                    f"{report.group}: no solved group with stabilizer "
                    f"signature rank {rank}, order {order}"
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
                best_nontrivial = order > 1
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
