"""Finite Coxeter groups of rank <= 3 as concrete orthogonal matrix groups.

A group is its chamber normals: unit vectors n_i whose wall reflections
I - 2 n_i n_i^T generate it, with n_i . n_j = B_ij = -cos(pi / m_ij) for
its Coxeter matrix m (Humphreys, Reflection Groups and Coxeter Groups,
1990, sections 1.12 and 5.3).  Named groups with an axis-aligned
realization (products of A1, the dihedral groups with mirrors on coordinate
planes and diagonals, the tetrahedral and the full cube group) take
hand-picked normals whose reflections are signed permutations, so that
their action on a symmetric grid is exact.  A Coxeter matrix is only ever
an input, to `build_group` (H3 and custom matrices): B is positive definite
exactly when the group is finite, and then the rows of its lower Cholesky
factor are normals (the Tits route).

Elements are enumerated by breadth-first closure under generator
multiplication.  `element_keys`, the entries rounded at MATRIX_TOL, is the
one test of whether two elements, or two orbit points, are the same, and
of whether an element fixes a point.  The sign character is the
determinant, which equals -1 on every reflection and is multiplicative,
i.e. the parity of word length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NonPositiveDefinite, ParseError

MATRIX_TOL = 1e-9
ELEMENT_CAP = 1024
RANK_CAP = 3


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric integer matrix with 1 on the diagonal and entries >= 2 off it."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=int)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ParseError("Coxeter matrix must be square")
        k = m.shape[0]
        if k > RANK_CAP:
            raise ParseError(f"rank {k} exceeds the cap {RANK_CAP}")
        if not np.array_equal(m, m.T):
            raise ParseError("Coxeter matrix must be symmetric")
        if not np.all(np.diag(m) == 1):
            raise ParseError("Coxeter matrix diagonal must be 1")
        off = m[~np.eye(k, dtype=bool)]
        if off.size and off.min() < 2:
            raise ParseError("off-diagonal Coxeter entries must be >= 2")
        object.__setattr__(self, "entries", m)

    def bilinear_form(self) -> np.ndarray:
        """Return B with B_ij = -cos(pi / m_ij)."""
        m = self.entries.astype(float)
        with np.errstate(divide="ignore"):
            return -np.cos(np.pi / m)


def _snap_signed_perm(g: np.ndarray) -> np.ndarray:
    """Round g to an exact signed permutation matrix within MATRIX_TOL of it."""
    return np.rint(g) if is_signed_permutation(g, MATRIX_TOL) else g


def is_signed_permutation(g: np.ndarray, tol: float = 1e-12) -> bool:
    """True when g is within tol of a matrix with one entry +-1 per row and
    column and zeros elsewhere."""
    r = np.rint(g)
    if np.max(np.abs(g - r), initial=0.0) > tol:
        return False
    a = np.abs(r)
    return bool(np.all(a.sum(axis=0) == 1) and np.all(a.sum(axis=1) == 1))


def element_keys(arrays) -> list:
    """Hashable keys of the arrays stacked along the first axis: the entries
    of each rounded at MATRIX_TOL, so equal elements share a key."""
    a = np.asarray(arrays)
    a = np.rint(a.reshape(len(a), -1) / MATRIX_TOL).astype(np.int64)
    return [tuple(row) for row in a.tolist()]


def _close_under_products(generators):
    """Breadth-first closure of the generator set under multiplication.

    Matrices are deduplicated by `element_keys`; candidates close to a signed
    permutation are snapped first so exact subgroups do not accumulate
    rounding drift.  More than ELEMENT_CAP elements raise CapExceeded.
    """
    k = generators[0].shape[0] if generators else 0
    found = {element_keys(np.eye(k)[None])[0]: np.eye(k)}
    frontier = [np.eye(k)]
    while frontier:
        new = []
        for m in frontier:
            for s in generators:
                c = _snap_signed_perm(m @ s)
                key = element_keys(c[None])[0]
                if key not in found:
                    found[key] = c
                    new.append(c)
                    if len(found) > ELEMENT_CAP:
                        raise CapExceeded(
                            f"group closure exceeded {ELEMENT_CAP} elements"
                        )
        frontier = new
    return list(found.values())


def _element_sign(g: np.ndarray) -> int:
    d = np.linalg.det(g)
    s = int(round(d))
    if s not in (-1, 1) or abs(d - s) > 1e-6:
        raise ValueError(f"element determinant {d} is not +-1")
    return s


@dataclass(frozen=True)
class Orbit:
    """Orbit points of a vector, deduplicated, with their least pairwise distance."""

    points: np.ndarray
    min_dist: float


@dataclass(frozen=True)
class Subgroup:
    """Order and reflection rank of a stabilizer."""

    order: int
    rank: int


class CoxeterGroup:
    """Finite Coxeter group realized by orthogonal k x k matrices.

    Attributes
    ----------
    chamber_normals : ndarray, shape (k, k)
        Row i is the inward unit normal n_i of the i-th wall; the closed
        fundamental chamber is the cone where all <x, n_i> >= 0, and
        n_i . n_j = B_ij.  The rank k is their number (0 for the trivial
        group).
    generators : list of ndarray
        The wall reflections I - 2 n_i n_i^T, one per normal, snapped to an
        exact signed permutation when within MATRIX_TOL of one.
    tag : str or None
        Name used to build the group, when it came from a named tag.
    """

    def __init__(self, chamber_normals, tag=None):
        self.chamber_normals = np.array(chamber_normals, dtype=float)
        self.tag = tag
        k = self.rank
        self.generators = [_snap_signed_perm(np.eye(k) - 2.0 * np.outer(n, n))
                           for n in self.chamber_normals]
        mats = _close_under_products(self.generators)
        self._mats = np.array(mats)
        self._signs = np.array([_element_sign(g) for g in mats], dtype=int)
        self.grid_exact = all(is_signed_permutation(g) for g in self.generators)

    @property
    def rank(self) -> int:
        return len(self.chamber_normals)

    @property
    def order(self) -> int:
        return self._mats.shape[0]

    def element_matrices(self) -> np.ndarray:
        return self._mats

    def element_signs(self) -> np.ndarray:
        return self._signs

    def sign(self, g: np.ndarray) -> int:
        return _element_sign(np.asarray(g, dtype=float))

    def orbit(self, q: np.ndarray) -> Orbit:
        """Deduplicated orbit G q with its least pairwise distance.

        A singleton orbit reports an infinite distance: no separation
        constraint binds a single bump.
        """
        q = np.asarray(q, dtype=float)
        pts = self._mats @ q
        first = {}
        for i, key in enumerate(element_keys(pts)):
            first.setdefault(key, i)
        pts = pts[list(first.values())]
        if len(pts) < 2:
            return Orbit(pts, math.inf)
        diff = pts[:, None, :] - pts[None, :, :]
        dist = np.sqrt((diff ** 2).sum(-1))
        iu = np.triu_indices(len(pts), k=1)
        return Orbit(pts, float(dist[iu].min()))

    def isotropy(self, q: np.ndarray) -> Subgroup:
        """Stabilizer subgroup S_q = {g : g q = q}, by `element_keys`."""
        q = np.asarray(q, dtype=float)
        key = element_keys(q[None])[0]
        fix = np.array([k == key for k in element_keys(self._mats @ q)])
        mats = self._mats[fix]
        k = self.rank
        rows = (mats - np.eye(k)).reshape(len(mats) * k, k)
        rank = int(np.linalg.matrix_rank(rows, tol=1e-8))
        return Subgroup(len(mats), rank)

    def chamber_interior_point(self) -> np.ndarray:
        """Unit vector with <q, n_i> > 0 for every wall normal."""
        q = np.linalg.solve(self.chamber_normals, np.ones(self.rank))
        return q / np.linalg.norm(q)

    def info_dict(self) -> dict:
        return {
            "tag": self.tag,
            "rank": self.rank,
            "order": self.order,
            "grid_exact": self.grid_exact,
            "generators": [g.tolist() for g in self.generators],
            "chamber_normals": self.chamber_normals.tolist(),
        }


def build_group(matrix: CoxeterMatrix, tag: str | None = None) -> CoxeterGroup:
    """Build a group from its Coxeter matrix by the Tits route.

    The rows of the lower Cholesky factor L of B = L L^T satisfy
    n_i . n_j = B_ij, so they are unit chamber normals whose reflections
    realize the Coxeter matrix.  A form that is not positive definite (least
    eigenvalue <= 1e-12) belongs to an infinite group and raises
    NonPositiveDefinite.
    """
    b = matrix.bilinear_form()
    least = np.linalg.eigvalsh(b).min(initial=np.inf)
    if least <= 1e-12:
        raise NonPositiveDefinite(
            f"bilinear form eigenvalue {least:.3e} <= 1e-12; group is infinite")
    return CoxeterGroup(np.linalg.cholesky(b), tag=tag)


def _dihedral_normals(m: int) -> np.ndarray:
    """Normals of the I2(m) mirrors: the x1-axis line and the line at angle pi/m."""
    theta = np.pi / m
    return np.array([[0.0, 1.0], [math.sin(theta), -math.cos(theta)]])


def _embed_block(g: np.ndarray, k: int, offset: int) -> np.ndarray:
    out = np.eye(k)
    r = g.shape[0]
    out[offset:offset + r, offset:offset + r] = g
    return out


_SQ2 = math.sqrt(0.5)

# chamber normals of the named groups realized by signed permutations
# outside the I2:m and A1xI2:m families; A3 is the tetrahedral group, and
# A1xA1 keeps the I2:2 normals
_AXIS_REALIZATIONS = {
    "trivial": np.zeros((0, 0)),
    "A1": np.eye(1),
    "A1xA1": _dihedral_normals(2),
    "A1xA1xA1": np.eye(3),
    "A3": [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [-_SQ2, -_SQ2, 0]],
    "B3": [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [0, 0, 1]],
}


def from_name(tag: str) -> CoxeterGroup:
    """Build a named group: a tag of `_AXIS_REALIZATIONS`, H3, or I2:m or
    A1xI2:m for a dihedral order 2 <= m <= ELEMENT_CAP."""
    tag = tag.strip()
    head, colon, tail = tag.partition(":")
    if colon and head in ("I2", "A1xI2"):
        try:
            m = int(tail)
        except ValueError:
            raise ParseError(f"bad dihedral order in tag {tag!r}") from None
        if m < 2:
            raise ParseError(f"dihedral order must be >= 2, got {m}")
        if m > ELEMENT_CAP:  # 2m elements, refused before any is built
            raise CapExceeded(f"dihedral order {m} exceeds the element cap of {ELEMENT_CAP}")
        normals = _dihedral_normals(m)
        if head == "A1xI2":
            normals = _embed_block(normals, 3, 1)
    elif tag == "H3":  # no signed-permutation realization; use the Tits route
        return build_group(CoxeterMatrix([[1, 5, 2], [5, 1, 3], [2, 3, 1]]), tag)
    elif tag in _AXIS_REALIZATIONS:
        normals = _AXIS_REALIZATIONS[tag]
    else:
        raise ParseError(f"unknown group tag {tag!r}")
    return CoxeterGroup(normals, tag=tag)
