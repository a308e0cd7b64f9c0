"""Tests for nodal counting, decay fits, chamber masks, and the hierarchy.

The chamber restriction and unfolding live here: no program code needs
them, and the round trip checks the open chamber mask and the group
average together.  So does the nodal minimizer bound, which criterion 10
of test_acceptance.py imports from here.
"""

import dataclasses
import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

from choquard import analysis
from choquard.analysis import (
    CHAMBER_TOL,
    annotate_report,
    decay_fit,
    facet_ray_representatives,
    hierarchy_report,
    nodal_domains,
    open_chamber_mask,
    parse_chain,
)
from choquard.coxeter import from_name
from choquard.errors import ChoquardError, ParseError
from choquard.field import Field, GridSpec, GroupAction
from choquard.functionals import parse_nonlinearity
from choquard.riesz import RieszKernel
from choquard.solver import SolverConfig, solve_ground
from helpers import full_grid_nodal_domains, mirror_class, node_mesh, project

GRID = GridSpec(dim=2, M=64, L=10.0)
NL = parse_nonlinearity("power:p=2")


class NoNodalCandidates(ChoquardError):
    """No converged sign-changing solutions available for the bound."""


def nodal_min_bound(reports) -> float:
    """Minimum energy among converged sign-changing reports.

    The structural prediction places this strictly below twice the ground
    level.  Reports must carry a nodal count (see annotate_report).
    """
    candidates = [
        r.energy
        for r in reports
        if r.nodal_count is not None and r.nodal_count >= 2
    ]
    if not candidates:
        raise NoNodalCandidates("no converged sign-changing reports")
    return float(min(candidates))


class SupportViolation(ChoquardError):
    """Field support is not contained in the closed fundamental chamber."""


def closed_chamber_mask(action):
    """Nodes x with <x, n_i> >= -CHAMBER_TOL (1 + |x|) on every chamber wall i."""
    group, grid = action.group, action.grid
    c = grid.axis_coords()
    tol = CHAMBER_TOL * (1.0 + grid.radius())
    mask = np.ones(grid.shape, dtype=bool)
    for i in range(group.rank):
        d = np.zeros(grid.shape)
        for a in range(group.rank):
            d += group.chamber_normals[i, a] * grid.along(a, c)
        mask &= d >= -tol
    return mask


def chamber_reconstruct(action, v):
    """U(v)(x) = sum_g psi(g) (chi_F v)(g x), the equivariant unfolding.

    Requires supp v inside the closed chamber; for v = chi_F u with u in the
    equivariant class this inverts the restriction.
    """
    restricted = v.data * closed_chamber_mask(action)
    denom = np.max(np.abs(v.data))
    if denom > 0:
        leak = np.max(np.abs(v.data - restricted)) / denom
        if leak > 1e-9:
            raise SupportViolation(
                f"support leaks outside the chamber by {leak:.3e} relative"
            )
    return Field(v.grid, action.group.order * project(action, restricted))


def chamber_restrict(action, u):
    """u restricted to the closed fundamental chamber, zero elsewhere."""
    return Field(u.grid, u.data * closed_chamber_mask(action))


@pytest.fixture(scope="module")
def mesh():
    return node_mesh(GRID)


@pytest.fixture(scope="module")
def gauss(mesh):
    return np.exp(-GRID.radius() ** 2 / 4.0)


@pytest.fixture(scope="module")
def kernel():
    return RieszKernel(GRID, alpha=1.0)


# -- nodal domains ------------------------------------------------------------

def test_single_bump_counts_one(gauss):
    rep = nodal_domains(Field(GRID, gauss))
    assert (rep.count, rep.positive_count, rep.negative_count) == (1, 1, 0)
    assert len(rep.sizes) == 1
    assert rep.sign_on_chamber is None


def test_dipole_counts_two(mesh, gauss):
    x, _ = mesh
    action = GroupAction(from_name("A1"), GRID)
    rep = nodal_domains(Field(GRID, x * gauss), action=action)
    assert (rep.count, rep.positive_count, rep.negative_count) == (2, 1, 1)
    assert rep.sizes[0] == rep.sizes[1]
    # the chamber of the order-two group is {x1 > 0}, where this field is > 0
    assert rep.sign_on_chamber == 1
    flipped = nodal_domains(Field(GRID, -x * gauss), action=action)
    assert flipped.sign_on_chamber == -1


def test_quadrupole_counts_four(mesh, gauss):
    x, y = mesh
    action = GroupAction(from_name("I2:2"), GRID)
    rep = nodal_domains(Field(GRID, x * y * gauss), action=action)
    assert (rep.count, rep.positive_count, rep.negative_count) == (4, 2, 2)
    assert len(set(rep.sizes)) == 1
    assert rep.sign_on_chamber == 1


def test_threshold_hides_small_satellites(mesh, gauss):
    x, y = mesh
    satellite = 0.01 * np.exp(-((x - 5.0) ** 2 + (y - 5.0) ** 2) / 0.5)
    u = Field(GRID, gauss + satellite)
    assert nodal_domains(u, threshold=1e-3).count == 2
    assert nodal_domains(u, threshold=0.05).count == 1


def test_sizes_are_sorted(mesh, gauss):
    x, _ = mesh
    rep = nodal_domains(Field(GRID, (x + 1.0) * gauss))
    assert rep.sizes == tuple(sorted(rep.sizes))


# -- nodal domains on the exact half against the full-grid oracle -------------

ORACLE_GRIDS = {2: GridSpec(2, 32, 6.0), 3: GridSpec(3, 16, 5.0)}
ORACLE_CASES = [
    pytest.param(dim, par, id=f"{dim}D" + "".join("0+-"[s] for s in par))
    for dim in (2, 3) for par in itertools.product((1, -1, 0), repeat=dim)
]
# groups whose open chamber the sign is read on, per dimension
ORACLE_GROUPS = {2: ("A1", "I2:2", "I2:3"), 3: ("A1", "A1xA1xA1", "B3")}


def bump(grid, center, width=1.0):
    return np.exp(-sum(grid.along(ax, (grid.axis_coords() - c) ** 2)
                       for ax, c in enumerate(center)) / width)


def smooth_field(grid, par, seed):
    """Signed Gaussian bumps at random centers, folded into the parity
    class: components that touch mirror faces, cross them, and do not."""
    rng = np.random.default_rng(seed)
    a = sum(rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
            * bump(grid, rng.uniform(-0.7, 0.7, grid.dim) * grid.L,
                   rng.uniform(0.3, 1.5))
            for _ in range(8))
    return mirror_class(grid, a, par)


@pytest.mark.parametrize("dim,par", ORACLE_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_half_grid_nodal_report_is_the_full_grid_labelling(dim, par, seed):
    """Count, split, sorted sizes and chamber sign equal the full grid's for
    every parity pattern, with the threshold at 0 and at two levels."""
    grid = ORACLE_GRIDS[dim]
    u = Field(grid, smooth_field(grid, par, seed))
    assert u.half.parity == par
    for threshold in (0.0, 1e-3, 0.2):
        assert nodal_domains(u, threshold) == full_grid_nodal_domains(u, threshold)
    for tag in ORACLE_GROUPS[dim]:
        action = GroupAction(from_name(tag), grid)
        assert (nodal_domains(u, 1e-3, action)
                == full_grid_nodal_domains(u, 1e-3, action))


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_field_has_no_nodal_domain(dim):
    u = Field(ORACLE_GRIDS[dim], np.zeros(ORACLE_GRIDS[dim].shape))
    assert u.half.parity == (1,) * dim
    action = GroupAction(from_name("A1"), u.grid)
    for threshold in (0.0, 1e-3):
        rep = nodal_domains(u, threshold, action)
        assert rep == full_grid_nodal_domains(u, threshold, action)
        assert (rep.count, rep.sizes, rep.sign_on_chamber) == (0, (), 0)


@pytest.mark.parametrize("center,faces", [
    ((0.0, 0.0, 0.0), 3), ((2.0, 0.0, 0.0), 2),
    ((2.0, 2.0, 0.0), 1), ((2.0, 2.0, 2.0), 0)])
def test_a_component_joins_its_images_across_the_even_faces_it_touches(center, faces):
    """A bump on an all-even grid that touches e mirror faces gives 2^(3-e)
    domains of 2^e times its half-grid size."""
    grid = ORACLE_GRIDS[3]
    u = Field(grid, mirror_class(grid, bump(grid, center), (1, 1, 1)))
    rep = nodal_domains(u, 0.1)
    assert rep == full_grid_nodal_domains(u, 0.1)
    assert (rep.count, rep.negative_count) == (2 ** (3 - faces), 0)
    assert len(set(rep.sizes)) == 1 and rep.sizes[0] % 2 ** faces == 0


@pytest.mark.parametrize("par", [(-1, 1, 1), (-1, -1, 1), (-1, -1, -1)])
def test_a_component_never_joins_its_image_across_an_odd_axis(par):
    """A bump at the origin touches every mirror face; each odd axis keeps
    its image apart and flips its sign."""
    grid = ORACLE_GRIDS[3]
    u = Field(grid, mirror_class(grid, bump(grid, (0.5, 0.5, 0.5)), par))
    rep = nodal_domains(u, 0.1)
    odd = par.count(-1)
    assert rep == full_grid_nodal_domains(u, 0.1)
    assert (rep.count, rep.positive_count, rep.negative_count) == (
        2 ** odd, 2 ** (odd - 1), 2 ** (odd - 1))


# -- chamber masks and unfolding ----------------------------------------------

def test_chamber_masks_match_half_space(mesh):
    x, y = mesh
    act = GroupAction(from_name("A1"), GRID)
    assert np.array_equal(open_chamber_mask(act), x > 0)
    # no grid point sits on the wall, so open and closed agree here
    assert np.array_equal(closed_chamber_mask(act), x > 0)
    act2 = GroupAction(from_name("I2:2"), GRID)
    assert np.array_equal(open_chamber_mask(act2), (x > 0) & (y > 0))


@pytest.mark.parametrize("tag", ["A1", "I2:2"])
def test_chamber_round_trip_is_exact(tag, mesh, gauss):
    x, y = mesh
    u = Field(GRID, x * gauss if tag == "A1" else x * y * gauss)
    action = GroupAction(from_name(tag), GRID)
    rec = chamber_reconstruct(action, chamber_restrict(action, u))
    assert np.max(np.abs(rec.data - u.data)) == 0.0


def test_reconstruct_rejects_leaking_support(gauss):
    action = GroupAction(from_name("A1"), GRID)
    with pytest.raises(SupportViolation):
        chamber_reconstruct(action, Field(GRID, gauss))


# -- decay fits ---------------------------------------------------------------

@pytest.mark.parametrize("c", [0.5, 1.0])
def test_decay_fit_recovers_exponential_rate(c):
    u = Field(GRID, np.exp(-c * GRID.radius()))
    fit = decay_fit(u)
    assert fit.rate == pytest.approx(c, rel=2e-2)
    assert fit.rms_residual < 1e-3
    assert fit.amplitude > 0.0
    assert fit.n_shells >= 10
    assert (fit.r_min, fit.r_max) == (4.0, 7.0)


def test_power_law_leaves_large_residual():
    r = GRID.radius()
    fit = decay_fit(Field(GRID, (1.0 + r) ** -3))
    assert fit.rms_residual > 0.01


def test_decay_fit_needs_ten_shells():
    """On 16^2 at L = 4 the window [1.6, 2.8] holds two shells."""
    grid = GridSpec(2, 16, 4.0)
    with pytest.raises(ValueError, match="only 2 shells"):
        decay_fit(Field(grid, np.exp(-grid.radius())))


def test_decay_fit_floor():
    with pytest.raises(ValueError, match="above the floor"):
        decay_fit(Field(GRID, np.zeros(GRID.shape)))


def test_decay_fit_counts_only_shells_above_the_floor(ground):
    """exp(-|x|) cut to 0 past |x| = 4.1: in the window [4, 7] one
    shell holds a nonzero maximum, too few to fit."""
    r = GRID.radius()
    u = Field(GRID, np.where(r < 4.1, np.exp(-r), 0.0))
    with pytest.raises(ValueError, match="only 1 shells in window above the floor"):
        decay_fit(u)
    rep = annotate_report(dataclasses.replace(ground, field=u))
    assert rep.decay_rate is None


# -- report annotation and the nodal bound ------------------------------------

@pytest.fixture(scope="module")
def ground(kernel):
    return solve_ground(NL, kernel, GRID, SolverConfig(seed=0, restarts=1))


def test_annotate_fills_diagnostics(ground):
    rep = annotate_report(ground)
    assert rep.nodal_count == 1
    assert rep.decay_rate is not None
    assert rep.decay_rate > 0.3


def test_annotate_survives_unfittable_field(ground):
    small = GridSpec(dim=2, M=16, L=2.0)
    u = Field(small, np.exp(-small.radius() ** 2))
    stub = dataclasses.replace(ground, grid=small, field=u)
    rep = annotate_report(stub)
    assert rep.nodal_count == 1
    assert rep.decay_rate is None


def test_nodal_min_bound_selects_sign_changers():
    reports = [
        SimpleNamespace(energy=1.0, nodal_count=1),
        SimpleNamespace(energy=3.0, nodal_count=2),
        SimpleNamespace(energy=5.0, nodal_count=4),
        SimpleNamespace(energy=0.5, nodal_count=None),
    ]
    assert nodal_min_bound(reports) == 3.0
    with pytest.raises(NoNodalCandidates):
        nodal_min_bound(reports[:1])


# -- facet representatives and the hierarchy ----------------------------------

def test_facet_representatives():
    assert facet_ray_representatives(from_name("trivial")) == []
    a1 = facet_ray_representatives(from_name("A1"))
    assert len(a1) == 1 and np.linalg.norm(a1[0]) == pytest.approx(1.0)
    reps = facet_ray_representatives(from_name("I2:2"))
    found = {tuple(np.round(q, 9)) for q in reps}
    assert found == {(0.0, 1.0), (1.0, 0.0)}


def test_facet_representative_stabilizers_b3():
    group = from_name("B3")
    orders = sorted(group.isotropy(q).order
                    for q in facet_ray_representatives(group))
    assert orders == [4, 6, 8]


@pytest.fixture(scope="module")
def hierarchy(kernel):
    return hierarchy_report(parse_chain(["trivial", "A1"], GRID), NL, kernel,
                            SolverConfig(seed=0, restarts=1))


def test_hierarchy_rows(hierarchy):
    assert [r.group for r in hierarchy.rows] == ["trivial", "A1"]
    assert hierarchy.rows[0].nodal_count == 1
    assert hierarchy.rows[1].nodal_count == 2
    assert hierarchy.notes == []


def test_hierarchy_inequality_holds(hierarchy):
    assert len(hierarchy.inequalities) == 1
    iq = hierarchy.inequalities[0]
    assert iq.kind == "saddle_vs_stabilizer"
    assert iq.description == "c[A1] < 2 x c[trivial]"
    assert iq.lhs == pytest.approx(hierarchy.rows[1].energy)
    assert iq.rhs == pytest.approx(2.0 * hierarchy.rows[0].energy)
    assert iq.holds
    assert hierarchy.all_hold


@pytest.mark.parametrize("tags,listed", [
    (["trivial", "A1", "I2:2"], "c[I2:2] < 2 x c[A1]"),
    (["trivial", "I2:2"], "I2:2: no solved group with stabilizer signature "
                          "rank 1, order 2"),
], ids=("inequality", "note"))
def test_hierarchy_lists_each_stabilizer_signature_once(monkeypatch, tags, listed):
    """Both facet rays of I2:2 have a stabilizer of signature (rank 1,
    order 2), so its inequality against A1, or the note that no such group
    was solved, appears once, in the report and in its text.  The solves
    are stubbed, so no descent runs and the kernel is its grid alone."""
    energies = {"trivial": 1.9, "A1": 3.25, "I2:2": 5.2}

    def solved(group, *args, **kwargs):
        return SimpleNamespace(group=group.tag, energy=energies[group.tag],
                               iters=0, nodal_count=None, field=None)

    monkeypatch.setattr(analysis, "solve_saddle", solved)
    monkeypatch.setattr(analysis, "annotate_report", lambda report, threshold: report)
    report = hierarchy_report(parse_chain(tags, GRID), NL, SimpleNamespace(grid=GRID))
    pairs = [(iq.group, iq.description) for iq in report.inequalities]
    assert len(set(pairs)) == len(pairs)
    assert len(set(report.notes)) == len(report.notes)
    assert ("I2:2", listed) in pairs or report.notes == [listed]
    lines = report.to_text().splitlines()
    assert sum(listed in line for line in lines) == 1


@pytest.mark.parametrize("tags,repeated", [
    (["trivial", "A1", "A1"], "A1"),
    (["trivial", "I2:2", "A1", "I2:02"], "I2:2"),
], ids=["A1", "I2:02"])
def test_hierarchy_refuses_a_repeated_group_before_any_solve(monkeypatch, tags,
                                                             repeated):
    """A chain that names one group twice, by its canonical tag (I2:02 is
    I2:2), is refused by `parse_chain` with a ParseError naming it, so
    `hierarchy_report`, which takes the parsed groups, never sees it and
    no solve runs."""
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(analysis, "solve_saddle", no_solve)
    with pytest.raises(ParseError, match=f"group '{repeated}' repeated"):
        parse_chain(tags, GRID)


def test_hierarchy_serialization(hierarchy):
    d = hierarchy.to_json_dict()
    assert set(d) == {"rows", "inequalities", "notes", "all_hold"}
    assert d["all_hold"] is True
    json.dumps(d)
    text = hierarchy.to_text()
    assert "c[A1]" in text and "[ok]" in text
