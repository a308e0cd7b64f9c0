"""Group engine tests: enumeration, signs, orbits, chamber geometry.

The closure oracle below is an independent breadth-first enumeration over
rounded matrix keys; it shares no code with the production closure.
"""

import numpy as np
import pytest

from choquard.analysis import facet_ray_representatives
from choquard.coxeter import (
    MATRIX_TOL,
    CoxeterMatrix,
    Subgroup,
    build_group,
    from_name,
)
from choquard.errors import CapExceeded, ChoquardError, NonPositiveDefinite, ParseError

# textbook orders of the finite reflection groups handled here
KNOWN_ORDERS = {
    "trivial": 1,
    "A1": 2,
    "A3": 24,
    "B3": 48,
    "H3": 120,
    **{f"I2:{m}": 2 * m for m in [*range(2, 25), 60]},
}


def brute_force_closure(generators, cap=5000):
    """BFS closure over tuples of matrix entries rounded to 9 digits."""

    def key(g):
        return tuple(np.round(g, 9).ravel() + 0.0)

    k = generators[0].shape[0]
    elements = {key(np.eye(k)): np.eye(k)}
    frontier = [np.eye(k)]
    while frontier:
        new = []
        for g in frontier:
            for s in generators:
                h = s @ g
                kk = key(h)
                if kk not in elements:
                    elements[kk] = h
                    new.append(h)
        frontier = new
        assert len(elements) <= cap, "runaway closure"
    return list(elements.values())


@pytest.mark.parametrize("tag", sorted(set(KNOWN_ORDERS) - {"trivial"}))
def test_order_matches_brute_force_oracle(tag):
    group = from_name(tag)
    oracle = brute_force_closure(group.generators)
    assert group.order == KNOWN_ORDERS[tag]
    assert len(oracle) == KNOWN_ORDERS[tag]
    # the two element sets must coincide as sets of matrices
    mats = group.element_matrices()
    for h in oracle:
        dist = np.abs(mats - h).max(axis=(1, 2)).min()
        assert dist < 1e-9


@pytest.mark.parametrize("tag", sorted(set(KNOWN_ORDERS) - {"trivial"}))
def test_sign_character_is_determinant(tag):
    group = from_name(tag)
    for g, s in zip(group.element_matrices(), group.element_signs(), strict=True):
        assert s in (-1, 1)
        assert abs(np.linalg.det(g) - s) < 1e-9


@pytest.mark.parametrize("tag", sorted(set(KNOWN_ORDERS) - {"trivial"}))
def test_generators_are_orthogonal_involutions(tag):
    group = from_name(tag)
    for s in group.generators:
        np.testing.assert_allclose(s @ s.T, np.eye(group.rank), atol=1e-12)
        np.testing.assert_allclose(s @ s, np.eye(group.rank), atol=1e-12)
        assert abs(np.linalg.det(s) + 1.0) < 1e-12


# textbook Coxeter matrices of the named groups (Humphreys 1990, chapter 2)
TEXTBOOK_MATRICES = {
    "trivial": np.zeros((0, 0)),
    "A1": [[1]],
    "A1xA1": [[1, 2], [2, 1]],
    "A1xA1xA1": [[1, 2, 2], [2, 1, 2], [2, 2, 1]],
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B3": [[1, 3, 2], [3, 1, 4], [2, 4, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
    **{f"I2:{m}": [[1, m], [m, 1]] for m in [*range(2, 13), 16, 24, 40, 60]},
    **{f"A1xI2:{m}": [[1, 2, 2], [2, 1, m], [2, m, 1]] for m in range(2, 9)},
}
NAMED_TAGS = list(TEXTBOOK_MATRICES)


@pytest.mark.parametrize("tag", NAMED_TAGS)
def test_normals_realize_the_coxeter_matrix(tag):
    """n_i . n_j = B_ij = -cos(pi / m_ij), and the generators are the wall
    reflections I - 2 n_i n_i^T, so the normals alone fix the group."""
    group = from_name(tag)
    normals = group.chamber_normals
    form = -np.cos(np.pi / np.array(TEXTBOOK_MATRICES[tag], dtype=float))
    np.testing.assert_allclose(normals @ normals.T, form, rtol=0, atol=1e-12)
    for n, s in zip(normals, group.generators, strict=True):
        np.testing.assert_allclose(s, np.eye(group.rank) - 2.0 * np.outer(n, n),
                                   rtol=0, atol=1e-15)
    if group.grid_exact:
        assert np.all(np.isin(group.element_matrices(), (-1.0, 0.0, 1.0)))


def test_trivial_group_is_rank_zero():
    group = from_name("trivial")
    assert group.rank == 0
    assert group.order == 1
    assert group.grid_exact
    assert group.chamber_interior_point().shape == (0,)
    orbit = group.orbit(np.zeros(0))
    assert orbit.points.shape == (1, 0)
    assert orbit.min_dist == np.inf
    assert group.isotropy(np.zeros(0)) == Subgroup(1, 0)
    assert facet_ray_representatives(group) == []
    built = build_group(CoxeterMatrix(np.zeros((0, 0), int)))
    assert np.array_equal(built.element_matrices(), group.element_matrices())
    assert np.array_equal(built.element_signs(), group.element_signs())


@pytest.mark.parametrize(
    "tag,exact",
    [("A1", True), ("I2:2", True), ("I2:3", False), ("I2:4", True),
     ("I2:5", False), ("A3", True), ("B3", True), ("H3", False)],
)
def test_grid_exact_flag(tag, exact):
    assert from_name(tag).grid_exact is exact


@pytest.mark.parametrize("tag", ["A1", "I2:2", "I2:3", "B3", "H3"])
def test_orbit_stabilizer_product(tag):
    """|orbit(q)| * |stabilizer(q)| = |G| for interior and wall points."""
    group = from_name(tag)
    rng = np.random.default_rng(3)
    points = [group.chamber_interior_point()]
    points += [group.chamber_normals[0]]  # on every wall but the first
    points += [rng.standard_normal(group.rank) for _ in range(3)]
    for q in points:
        orbit = group.orbit(q)
        stab = group.isotropy(q)
        assert len(orbit.points) * stab.order == group.order


def test_orbit_distances_dihedral():
    # square dihedral group acting on a unit vector along a mirror
    group = from_name("I2:2")
    orbit = group.orbit(np.array([1.0, 0.0]))
    assert len(orbit.points) == 2
    assert orbit.min_dist == pytest.approx(2.0)
    # generic direction gives the full 4-point orbit
    orbit = group.orbit(group.chamber_interior_point())
    assert len(orbit.points) == 4
    assert orbit.min_dist == pytest.approx(np.sqrt(2.0))


def test_singleton_orbit_reports_infinite_distance():
    group = from_name("A1")
    orbit = group.orbit(np.zeros(1))
    assert len(orbit.points) == 1
    assert np.isinf(orbit.min_dist)


class PointOutsideChamber(ChoquardError):
    """Query point lies outside the closed fundamental chamber."""


def chamber_stratum(group, q):
    """Number of chamber walls containing q, for q in the closed chamber."""
    q = np.asarray(q, dtype=float)
    if group.rank == 0:
        return 0
    scale = max(1.0, float(np.linalg.norm(q)))
    dots = group.chamber_normals @ q
    if np.any(dots < -MATRIX_TOL * scale):
        raise PointOutsideChamber(f"point {q} has negative wall products {dots}")
    return int(np.sum(np.abs(dots) <= MATRIX_TOL * scale))


@pytest.mark.parametrize("tag", ["I2:2", "I2:3", "B3"])
def test_chamber_stratum_counts_walls(tag):
    group = from_name(tag)
    q = group.chamber_interior_point()
    assert chamber_stratum(group, q) == 0
    # walking onto one wall raises the stratum to one
    normals = group.chamber_normals
    for leave_out in range(group.rank):
        rows = np.delete(normals, leave_out, axis=0)
        _, _, vh = np.linalg.svd(rows)
        d = vh[-1]
        if normals[leave_out] @ d < 0:
            d = -d
        assert chamber_stratum(group, d) == group.rank - 1
        stab = group.isotropy(d)
        assert stab.rank == group.rank - 1
    assert chamber_stratum(group, np.zeros(group.rank)) == group.rank


def test_stratum_rejects_exterior_point():
    group = from_name("I2:2")
    with pytest.raises(PointOutsideChamber):
        chamber_stratum(group, np.array([-1.0, -1.0]))


def test_interior_point_is_interior():
    for tag in ["A1", "I2:5", "A3", "B3", "H3"]:
        group = from_name(tag)
        q = group.chamber_interior_point()
        assert np.linalg.norm(q) == pytest.approx(1.0)
        assert np.all(group.chamber_normals @ q > 1e-3)


@pytest.mark.parametrize("tag", NAMED_TAGS)
def test_isotropy_counts_the_elements_that_fix_the_point(tag):
    """The stabilizer's order is the number of elements with ||g q - q||
    <= 1e-9, on the facet rays, the interior point, the axes and random
    vectors."""
    group = from_name(tag)
    k = group.rank
    rng = np.random.default_rng(4)
    points = [*facet_ray_representatives(group), group.chamber_interior_point(),
              *np.eye(k), *rng.standard_normal((5, k))]
    mats = group.element_matrices()
    for q in points:
        fixed = np.linalg.norm(mats @ q - q, axis=1) <= 1e-9
        assert group.isotropy(q).order == np.count_nonzero(fixed)


def test_isotropy_of_interior_point_is_trivial():
    for tag in ["I2:2", "I2:4", "B3", "H3"]:
        group = from_name(tag)
        stab = group.isotropy(group.chamber_interior_point())
        assert stab.order == 1
        assert stab.rank == 0


@pytest.mark.parametrize(
    "text", ["I2", "I2:", "I2:1", "I2:x", "A2:3", "Z9", "", "B4"]
)
def test_parse_rejects_malformed_tags(text):
    with pytest.raises(ParseError):
        from_name(text)


def test_affine_matrix_is_rejected():
    # all off-diagonal labels 3 in rank 3 gives the affine plane tiling
    # group, whose bilinear form is only positive semidefinite
    mat = CoxeterMatrix(np.array([[1, 3, 3], [3, 1, 3], [3, 3, 1]]))
    with pytest.raises(NonPositiveDefinite):
        build_group(mat)


def test_element_cap_is_enforced():
    """I2:600 has 1,200 elements, past the cap of 1,024; a dihedral order
    past the cap is refused before its Coxeter matrix is built, so one
    past int64 is refused alike."""
    for tag in ["I2:600", "I2:1025", "I2:99999999999999999999",
                "A1xI2:99999999999999999999"]:
        with pytest.raises(CapExceeded, match="1024"):
            from_name(tag)


def test_coxeter_matrix_validation():
    with pytest.raises(ParseError):
        CoxeterMatrix(np.array([[1, 2], [3, 1]]))  # asymmetric
    with pytest.raises(ParseError):
        CoxeterMatrix(np.array([[2, 3], [3, 1]]))  # bad diagonal
    with pytest.raises(ParseError):
        CoxeterMatrix(np.array([[1, 1], [1, 1]]))  # label < 2 off-diagonal
