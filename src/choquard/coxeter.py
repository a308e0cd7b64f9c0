"""Finite Coxeter groups of rank <= 3 as concrete orthogonal matrix groups.

A group is specified by its Coxeter matrix m, from which the bilinear form
B_ij = -cos(pi / m_ij) is built.  The form is positive definite exactly when
the group is finite; in that case the Tits reflection representation
conjugated by a Cholesky factor of B yields orthogonal generators.  Named
groups with an axis-aligned realization (products of A1, the dihedral groups
with mirrors on coordinate planes and diagonals, the tetrahedral and the full
cube group) are built from hand-picked signed-permutation generators
instead, so that their action on a symmetric grid is exact.

Elements are enumerated by breadth-first closure under generator
multiplication.  `element_keys`, the entries rounded at MATRIX_TOL, is the
one test of whether two elements, or two orbit points, are the same.  The
sign character is the determinant, which equals -1 on every reflection and
is multiplicative, i.e. the parity of word length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    @property
    def rank(self) -> int:
        return self.entries.shape[0]

    def bilinear_form(self) -> np.ndarray:
        """Return B with B_ij = -cos(pi / m_ij)."""
        m = self.entries.astype(float)
        with np.errstate(divide="ignore"):
            return -np.cos(np.pi / m)


def _cholesky(b: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of b, raising if any pivot is <= 1e-12."""
    k = b.shape[0]
    low = np.zeros_like(b)
    for i in range(k):
        pivot = b[i, i] - low[i, :i] @ low[i, :i]
        if pivot <= 1e-12:
            raise NonPositiveDefinite(
                f"bilinear form pivot {pivot:.3e} at row {i}; group is infinite"
            )
        low[i, i] = math.sqrt(pivot)
        for j in range(i + 1, k):
            low[j, i] = (b[j, i] - low[j, :i] @ low[i, :i]) / low[i, i]
    return low


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
    matrix : CoxeterMatrix
        Defining matrix (rank 0 for the trivial group).
    generators : list of ndarray
        Reflection matrices, one per node of the diagram.
    chamber_normals : ndarray, shape (k, k)
        Row i is the inward unit normal of the mirror of generator i; the
        closed fundamental chamber is the cone where all <x, n_i> >= 0.
    tag : str or None
        Name used to build the group, when it came from a named tag.
    """

    def __init__(self, matrix, generators, chamber_normals, tag=None):
        self.matrix = matrix
        self.generators = [np.array(g, dtype=float) for g in generators]
        self.chamber_normals = np.array(chamber_normals, dtype=float)
        self.tag = tag
        mats = _close_under_products(self.generators)
        self._mats = np.array(mats)
        self._signs = np.array([_element_sign(g) for g in mats], dtype=int)
        self.grid_exact = all(is_signed_permutation(g) for g in self.generators)

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def order(self) -> int:
        return self._mats.shape[0]

    @property
    def elements(self):
        """List of (matrix, sign) pairs, identity first."""
        return list(zip(self._mats, self._signs))

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
        """Stabilizer subgroup S_q = {g : g q = q}."""
        q = np.asarray(q, dtype=float)
        scale = max(1.0, float(np.linalg.norm(q)))
        fix = np.linalg.norm(self._mats @ q - q, axis=1) <= MATRIX_TOL * scale
        mats = self._mats[fix]
        k = self.rank
        rows = (mats - np.eye(k)).reshape(len(mats) * k, k)
        rank = int(np.linalg.matrix_rank(rows, tol=1e-8)) if len(mats) else 0
        return Subgroup(int(fix.sum()), rank)

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
    """Build a group from its Coxeter matrix via the Tits representation.

    The Tits reflections sigma_i(x) = x - 2 B(x, e_i) e_i preserve B; with
    B = L L^T they are conjugated by C = L^T into orthogonal matrices.  The
    image C e_i of the i-th basis vector is the -1 eigenvector of the i-th
    conjugated reflection and serves as the chamber normal.
    """
    k = matrix.rank
    b = matrix.bilinear_form()
    c = _cholesky(b).T
    cinv = np.linalg.inv(c)
    gens = []
    for i in range(k):
        tits = np.eye(k) - 2.0 * np.outer(np.eye(k)[i], b[i])
        gens.append(_snap_signed_perm(c @ tits @ cinv))
    normals = c.T / np.linalg.norm(c, axis=0)  # row i = C e_i normalized
    return CoxeterGroup(matrix, gens, normals, tag=tag)


def _dihedral_realization(m: int):
    """Mirrors of I2(m) as the x1-axis line and the line at angle pi/m."""
    theta = np.pi / m
    r1 = np.array([[1.0, 0.0], [0.0, -1.0]])
    r2 = np.array([
        [math.cos(2 * theta), math.sin(2 * theta)],
        [math.sin(2 * theta), -math.cos(2 * theta)],
    ])
    gens = [r1, _snap_signed_perm(r2)]
    normals = np.array([
        [0.0, 1.0],
        [math.sin(theta), -math.cos(theta)],
    ])
    return gens, normals


def _embed_block(g: np.ndarray, k: int, offset: int) -> np.ndarray:
    out = np.eye(k)
    r = g.shape[0]
    out[offset:offset + r, offset:offset + r] = g
    return out


_SQ2 = math.sqrt(0.5)
_SWAP01 = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]])
_SWAP12 = np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])

# (generators, chamber normals) of the named groups realized by signed
# permutations outside the dihedral family; A3 is the tetrahedral group
_AXIS_REALIZATIONS = {
    "trivial": ([], np.zeros((0, 0))),
    "A1": ([-np.eye(1)], np.eye(1)),
    "A1xA1xA1": ([np.diag(d) for d in 1.0 - 2.0 * np.eye(3)], np.eye(3)),
    "A3": ([_SWAP01, _SWAP12, np.diag([-1.0, -1, 1]) @ _SWAP01],
           [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [-_SQ2, -_SQ2, 0]]),
    "B3": ([_SWAP01, _SWAP12, np.diag([1.0, 1, -1])],
           [[_SQ2, -_SQ2, 0], [0, _SQ2, -_SQ2], [0, 0, 1]]),
}

_NAMED_MATRICES = {
    "trivial": np.zeros((0, 0), dtype=int),
    "A1": [[1]],
    "A1xA1": [[1, 2], [2, 1]],
    "A1xA1xA1": [[1, 2, 2], [2, 1, 2], [2, 2, 1]],
    "A3": [[1, 3, 2], [3, 1, 3], [2, 3, 1]],
    "B3": [[1, 3, 2], [3, 1, 4], [2, 4, 1]],
    "H3": [[1, 5, 2], [5, 1, 3], [2, 3, 1]],
}


def parse_tag(tag: str):
    """Parse a group tag into (canonical tag, CoxeterMatrix, dihedral order or None)."""
    tag = tag.strip()
    m = None
    if tag.startswith("I2:") or tag.startswith("A1xI2:"):
        head, _, tail = tag.partition(":")
        try:
            m = int(tail)
        except ValueError:
            raise ParseError(f"bad dihedral order in tag {tag!r}") from None
        if m < 2:
            raise ParseError(f"dihedral order must be >= 2, got {m}")
        if head == "I2":
            mat = [[1, m], [m, 1]]
        else:
            mat = [[1, 2, 2], [2, 1, m], [2, m, 1]]
        return tag, CoxeterMatrix(np.array(mat)), m
    if tag in _NAMED_MATRICES:
        return tag, CoxeterMatrix(np.array(_NAMED_MATRICES[tag])), None
    raise ParseError(f"unknown group tag {tag!r}")


def from_name(tag: str) -> CoxeterGroup:
    """Build a named group, preferring grid-exact realizations where they exist."""
    tag, matrix, m = parse_tag(tag)
    if tag in _AXIS_REALIZATIONS:
        gens, normals = _AXIS_REALIZATIONS[tag]
    elif tag == "A1xA1" or tag.startswith("I2:"):
        gens, normals = _dihedral_realization(m or 2)
    elif tag.startswith("A1xI2:"):
        dg, dn = _dihedral_realization(m)
        gens = [np.diag([-1.0, 1, 1])] + [_embed_block(g, 3, 1) for g in dg]
        normals = np.zeros((3, 3))
        normals[0, 0] = 1.0
        normals[1:, 1:] = dn
    else:  # H3 has no signed-permutation realization; use the Tits route
        return build_group(matrix, tag=tag)
    return CoxeterGroup(matrix, gens, normals, tag=tag)
