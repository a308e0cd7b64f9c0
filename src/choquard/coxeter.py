"""Finite Coxeter groups of rank <= 3 as concrete orthogonal matrix groups.

A group is its chamber normals: unit vectors n_i whose wall reflections
I - 2 n_i n_i^T generate it, with n_i . n_j = B_ij = -cos(pi / m_ij) for
its Coxeter matrix m (Humphreys, Reflection Groups and Coxeter Groups,
1990, sections 1.12 and 5.3).  The finite groups of rank <= 3 are all
tags of `from_name` (Coxeter 1934; Humphreys sections 2.4-2.7): A1, I2:m,
A1xA1, A1xA1xA1, A1xI2:m, A3, B3 and H3, so no other input builds a
group.  Those with an axis-aligned realization (products of A1, the
dihedral groups with mirrors on coordinate planes and diagonals, the
tetrahedral and the full cube group) take hand-picked normals whose
reflections are signed permutations, so that their action on a symmetric
grid is exact.  H3 has none and takes the rows of the lower Cholesky
factor of its B (the Tits route).  A group given by normals whose closure
is infinite is refused by ELEMENT_CAP.

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

from .errors import CapExceeded, ParseError

MATRIX_TOL = 1e-9
ELEMENT_CAP = 1024


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

# chamber normals of the named groups outside the I2:m and A1xI2:m
# families; all but H3 are realized by signed permutations, A3 as the
# tetrahedral group, and A1xA1 keeps the I2:2 normals; H3 takes the rows
# of the lower Cholesky factor of its B, whose Coxeter labels are 5, 2, 3
_NAMED_NORMALS = {
    "trivial": np.zeros((0, 0)),
    "A1": np.eye(1),
    "A1xA1": _dihedral_normals(2),
    "A1xA1xA1": np.eye(3),
    "A3": [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [-_SQ2, -_SQ2, 0]],
    "B3": [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [0, 0, 1]],
    "H3": np.linalg.cholesky(
        -np.cos(np.pi / np.array([[1, 5, 2], [5, 1, 3], [2, 3, 1]]))),
}


def from_name(tag: str) -> CoxeterGroup:
    """Build a named group: a tag of `_NAMED_NORMALS`, or I2:m or A1xI2:m
    for an order m >= 2 in ASCII digits whose 2m or 4m elements fit ELEMENT_CAP.

    A dihedral group is tagged with m in canonical form, so I2:03 is I2:3.
    """
    tag = tag.strip()
    head, colon, tail = tag.partition(":")
    if colon and head in ("I2", "A1xI2"):
        if not (tail.isascii() and tail.isdigit()):
            raise ParseError(f"bad dihedral order in tag {tag!r}")
        digits = tail.lstrip("0") or "0"
        # I2:m has 2m elements and A1xI2:m 4m, refused before any is built;
        # an order too long for int() to read is refused by its length
        factor = 2 if head == "I2" else 4
        if len(digits) > len(str(ELEMENT_CAP)) or factor * int(digits) > ELEMENT_CAP:
            raise CapExceeded(f"{head}:{digits} has {factor} x {digits} elements, "
                              f"past the element cap of {ELEMENT_CAP}")
        m = int(digits)
        if m < 2:
            raise ParseError(f"dihedral order must be >= 2, got {m}")
        normals = _dihedral_normals(m)
        if head == "A1xI2":
            normals = _embed_block(normals, 3, 1)
        tag = f"{head}:{m}"
    elif tag in _NAMED_NORMALS:
        normals = _NAMED_NORMALS[tag]
    else:
        raise ParseError(f"unknown group tag {tag!r}")
    return CoxeterGroup(normals, tag=tag)
