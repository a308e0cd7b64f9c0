"""Cell-centered grids on [-L, L]^N, fields, group actions and spectral operators.

Nodes sit at x_j = -L + (j + 1/2) h with h = 2L/M, so the node set is
symmetric under sign flips and axis permutations and no node lies on a
coordinate mirror or at the origin.  Homogeneous Dirichlet data at the cube
boundary is emulated by expanding in the odd sine basis
sin(k pi (x + L) / (2L)), k >= 1, which the type-II discrete sine transform
diagonalizes on this node set.  Group elements act exactly or not at all:
`_split` writes each as a signed permutation, an index move, then a rotation
of the first two axes by at most pi/4, three shears of the sine interpolant
with zero extension outside the cube; it rejects any other with IncompatibleGrid.
Dilation and translation sample the same sine interpolant, which reads zero
outside the cube; there is no other resampling model.

A `GridSpec` with parity +-1 on an axis holds only the positive half of
that axis, for fields even or odd under its mirror; the full grid is parity
(0, ..., 0).  `GridSpec.fold` and `unfold` are the one mirror fold, exact
since no node lies on a mirror; `Field.half` alone finds the half that
holds a field, read there as `Field.half_data`.  The sine modes split alike
(Martucci, IEEE Trans. Signal Process. 42(5), 1994): an even axis carries
kappa_{2j} through a DCT-IV of the half, an odd axis kappa_{2j+1} through a
DST-II of length M/2, each orthonormal times sqrt 2, so every reduced
coefficient is, up to sign, the full grid's.  The Laplacian, Helmholtz
inverse, x.grad u and dilation read the parity from the grid; there is one
set of operators.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import product

import numpy as np
import scipy.fft

from .coxeter import CoxeterGroup, _embed_block, element_keys, is_signed_permutation
from .errors import GridMismatch, IncompatibleGrid, ParseError

FORMAT_MAGIC = b"CHQF"
FORMAT_VERSION = 1


def thread_count() -> int:
    """FFT workers: scipy's default, or what scipy.fft.set_workers sets."""
    return scipy.fft.get_workers()


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [-L, L]^dim; parity[i] = +-1 keeps only
    the nodes M/2..M-1 of axis i, 0 (the default) all M."""

    dim: int
    M: int
    L: float
    parity: tuple = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise IncompatibleGrid(f"dim must be 2 or 3, got {self.dim}")
        if self.M < 8 or self.M % 2 != 0:
            raise IncompatibleGrid(f"M must be an even integer >= 8, got {self.M}")
        if not (0 < self.L < np.inf):
            raise IncompatibleGrid(f"L must be positive and finite, got {self.L}")
        # the box volume (2L)^N and the cell volume h^N are normal floats, and
        # so is every kernel scale h^(alpha-N) with 0 < alpha < N
        if not (self.dim * np.log(2.0 * self.L) < np.log(np.finfo(float).max)
                and self.h ** self.dim >= np.finfo(float).tiny):
            raise IncompatibleGrid(f"L = {self.L} puts the box volume (2L)^{self.dim} "
                                   f"or the cell volume h^{self.dim} out of float range")
        parity = tuple(int(s) for s in self.parity or (0,) * self.dim)
        if len(parity) != self.dim or not set(parity) <= {-1, 0, 1}:
            raise IncompatibleGrid(f"parity must be dim entries in -1, 0, 1, got {parity}")
        object.__setattr__(self, "parity", parity)

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def shape(self) -> tuple:
        return tuple(self.M // 2 if s else self.M for s in self.parity)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    @property
    def folded(self) -> tuple:
        return tuple(ax for ax, s in enumerate(self.parity) if s)

    @property
    def weight(self) -> float:
        """Quadrature weight of a stored node: h^N, twice per folded axis."""
        return self.cell_volume * 2 ** len(self.folded)

    @property
    def kappa(self) -> np.ndarray:
        """Wavenumbers (k + 1) pi / 2L of the sine modes k = 0 .. M-1."""
        return (np.arange(self.M) + 1) * np.pi / (2.0 * self.L)

    def axis_coords(self, axis: int = None) -> np.ndarray:
        """Node coordinates, mirror-exact; along a folded axis, its positive half."""
        c = (np.arange(self.M) - (self.M - 1) / 2) * self.h
        return c[self.M // 2:] if axis is not None and self.parity[axis] else c

    def fold(self, a: np.ndarray) -> np.ndarray:
        """Positive halves of (a + s flip(a)) / 2 along each folded axis of
        parity s, one after another, for a full-grid array a."""
        for ax in self.folded:
            low, high = np.split(a, 2, axis=ax)
            a = (high + self.parity[ax] * np.flip(low, ax)) / 2.0
        return a

    def unfold(self, b: np.ndarray) -> np.ndarray:
        """The full-grid array with positive halves b, mirrored with sign
        into one array written once, one folded axis after another."""
        if not self.folded:
            return b
        out = np.empty((self.M,) * self.dim)
        m = self.M // 2
        index = [slice(m, None) if s else slice(None) for s in self.parity]
        out[tuple(index)] = b
        for ax in self.folded:
            index[ax] = slice(None)
            v = np.moveaxis(out[tuple(index)], ax, 0)
            np.multiply(v[:m - 1:-1], self.parity[ax], out=v[:m])
        return out

    def along(self, axis: int, v: np.ndarray) -> np.ndarray:
        """The length-M array v laid along one axis, broadcast over the rest."""
        return v.reshape([-1 if b == axis else 1 for b in range(self.dim)])

    def radius_sq(self) -> np.ndarray:
        """|x|^2 at every node, summed over the axes in order."""
        return sum(self.along(axis, self.axis_coords(axis) ** 2)
                   for axis in range(self.dim))

    def radius(self) -> np.ndarray:
        """|x| at every node."""
        r2 = self.radius_sq()
        return np.sqrt(r2, out=r2)


@dataclass(frozen=True)
class Field:
    """Immutable scalar field sampled at the grid nodes."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.data, dtype=float)
        if a.shape != self.grid.shape:
            raise IncompatibleGrid(
                f"data shape {a.shape} does not match grid {self.grid.shape}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "data", a)

    def with_data(self, data: np.ndarray) -> "Field":
        return Field(self.grid, data)

    def norm_max(self) -> float:
        return float(np.max(np.abs(self.data)))

    @cached_property
    def half(self) -> GridSpec:
        """The grid of the positive halves that hold this field: an axis the
        grid folds keeps its parity, and a whole axis takes parity s where
        the data equal s times their mirror image bit for bit, s = +1 tried
        first, else 0.  Found on first use and kept: data is read-only."""
        return replace(self.grid, parity=tuple(
            s or _mirror_sign(self.data, ax) for ax, s in enumerate(self.grid.parity)))

    @property
    def half_data(self) -> np.ndarray:
        """The stored positive halves on `half`: a read-only view of data."""
        return self.data[tuple(slice(n - m, None)
                               for n, m in zip(self.data.shape, self.half.shape))]


def _mirror_sign(a: np.ndarray, ax: int) -> int:
    """s = +1, else -1, where a equals s times its flip along ax bit for
    bit, else 0.  The first half of the axis is compared with the second
    reversed, so each mirror pair is read once; the two node planes next
    to the mirror are compared first and can only rule a sign out."""
    a = np.moveaxis(a, ax, 0)
    k = (len(a) + 1) // 2
    low, high = a[:k], a[::-1][:k]
    for s in (1, -1):
        if all(np.array_equal(x, y if s > 0 else -y)
               for x, y in ((low[-1], high[-1]), (low, high))):
            return s
    return 0


# -- spectral operators -------------------------------------------------------

def _modes(parity: int) -> slice:
    """Sine modes k an axis of this parity carries: even k if even, odd k if odd."""
    return slice(None) if not parity else slice(0 if parity > 0 else 1, None, 2)


@lru_cache(maxsize=16)
def sine_multipliers(grid: GridSpec) -> np.ndarray:
    """Eigenvalues sum_a kappa_(k_a)^2 of -Delta on the grid's sine modes."""
    lam = np.zeros(grid.shape)
    for a in range(grid.dim):
        lam = lam + grid.along(a, grid.kappa[_modes(grid.parity[a])] ** 2)
    lam.setflags(write=False)
    return lam


def _sine_transform(a, parity, axes, inverse=False):
    """Sine transform along axes on the grid of that parity: DST-II (or its
    inverse) on free and odd axes, DCT-IV on even ones, times sqrt 2 per
    folded axis among them (divided by it when inverse)."""
    even = [ax for ax in axes if parity[ax] > 0]
    rest = [ax for ax in axes if parity[ax] <= 0]
    if even:
        a = scipy.fft.dctn(a, type=4, axes=even, norm="ortho")
    if rest:
        fn = scipy.fft.idstn if inverse else scipy.fft.dstn
        a = fn(a, type=2, axes=rest, norm="ortho")
    folded = sum(1 for ax in axes if parity[ax])
    return a * 2.0 ** (folded / (-2 if inverse else 2)) if folded else a


def _dst(a: np.ndarray, parity: tuple) -> np.ndarray:
    """Sine coefficients of a on the grid of that parity."""
    return _sine_transform(a, parity, range(a.ndim))


def _idst(c: np.ndarray, parity: tuple) -> np.ndarray:
    """Inverse of _dst."""
    return _sine_transform(c, parity, range(c.ndim), inverse=True)


def helmholtz_inverse_coeff(grid: GridSpec, a: np.ndarray, power: int = 1) -> np.ndarray:
    """Sine coefficients of (1 - Delta)^{-power} a."""
    return _dst(a, grid.parity) / (1.0 + sine_multipliers(grid)) ** power


def helmholtz_inverse_array(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """(1 - Delta)^{-1} a in the sine basis."""
    return _idst(helmholtz_inverse_coeff(grid, a), grid.parity)


def x_dot_grad_array(grid: GridSpec, coeff: np.ndarray) -> np.ndarray:
    """x . grad u at the nodes from the sine coefficients coeff of u.

    d/dx_i sin(kappa_k x') = kappa_k cos(kappa_k x') (x' = x + L, or x on an
    odd axis) is the DCT-II mode one up: a DCT-III sums it, and the Nyquist
    cosine vanishes on the nodes.  On an even axis -kappa sin(kappa x) is
    summed by a DST-IV.  The other axes take their inverse transforms.
    """
    out = np.zeros(grid.shape)
    for axis, s in enumerate(grid.parity):
        kappa = grid.kappa[_modes(s)] * (0.5 ** 0.5 if s else 1.0)
        d = coeff * grid.along(axis, kappa)
        if s > 0:
            d = -scipy.fft.dst(d, type=4, axis=axis, norm="ortho")
        else:
            d = np.roll(d, 1, axis=axis)
            np.moveaxis(d, axis, 0)[0] = 0.0
            d = scipy.fft.idct(d, type=2, axis=axis, norm="ortho")
        others = tuple(b for b in range(grid.dim) if b != axis)
        out += grid.along(axis, grid.axis_coords(axis)) * _sine_transform(
            d, grid.parity, others, inverse=True)
    return out


def l2_sq_integral(u: Field) -> float:
    """B(u) = integral of u^2 over the full cube: the node sum weighted by
    `grid.weight`, so a parity-reduced field counts each mirror image."""
    return float(u.grid.weight * np.sum(u.data ** 2))


# -- group action -------------------------------------------------------------

class GroupAction:
    """Action of a rank-k Coxeter group on fields over a dim-N grid, k <= N.

    An element g acts on the first k coordinates, g x = (g + 1_{N-k}) x, and
    on fields by (g . u)(x) = u(g^{-1} x).  Every element must act exactly:
    a signed permutation, or an orthogonal map of the first two axes.  Any
    other group raises IncompatibleGrid here, before any solve.

    flips[i] is -1 when the single flip of axis i is in G (psi = det is -1
    on it), and 0 otherwise; these flips generate D, the subgroup whose
    average the fold onto `half` takes exactly; generator_axes[j] is the
    axis whose single flip generator j is, None if it is none.  `half` is
    the grid that keeps the positive half of every axis with the mirror
    parity the class imposes: +1 on the axes at or beyond the rank, which
    every element fixes, and flips[i] on the others.  `half_holds_class`
    says that the half alone holds the class: G has one double coset, so
    G = D and every field on the half is in the class.  `cosets` holds one
    element r of each double coset D r D with its weight psi(r) |D r D| /
    |G|, identity first: the terms `symmetrize_array` sums.
    """

    def __init__(self, group: CoxeterGroup, grid: GridSpec):
        if group.rank > grid.dim:
            raise IncompatibleGrid(
                f"group rank {group.rank} exceeds grid dim {grid.dim}"
            )
        self.group = group
        self.grid = grid
        elements = group.element_matrices()
        mats = np.array([self.embed(g) for g in elements])
        for g, m in zip(elements, mats):
            try:
                _split(m.T)
            except IncompatibleGrid:
                raise IncompatibleGrid(
                    f"group {group.tag or 'custom'} has an element with no "
                    f"exact action on the grid: {g.tolist()}"
                ) from None
        keys = element_keys(mats)
        members = set(keys)
        eye = np.eye(grid.dim)
        flip_keys = element_keys([eye - 2.0 * np.outer(e, e) for e in eye])
        self.flips = tuple(-1 if k in members else 0 for k in flip_keys)
        axis_of = dict(zip(flip_keys, range(grid.dim)))
        self.generator_axes = tuple(axis_of.get(element_keys([self.embed(g)])[0])
                                    for g in group.generators)
        self.half = replace(grid, parity=tuple(1 if ax >= group.rank else s
                                               for ax, s in enumerate(self.flips)))
        self.cosets = self._double_cosets(mats, group.element_signs(), keys)
        self.half_holds_class = len(self.cosets) == 1

    def _double_cosets(self, mats, signs, keys) -> tuple:
        """(r, psi(r) |DrD| / |G|) for one r in each double coset D r D of
        the flip subgroup D, identity first; keyed by `element_keys`."""
        d = np.array(list(product(
            *((1.0, -1.0) if s else (1.0,) for s in self.flips))))
        both_sides = (d[:, None, :, None] * d[None, :, None, :]).reshape(
            -1, *mats.shape[1:])
        seen = set()
        cosets = []
        for g, s, key in zip(mats, signs, keys):  # the identity comes first
            if key in seen:
                continue
            coset = set(element_keys(both_sides * g))
            seen |= coset
            cosets.append((g, s * len(coset) / len(mats)))
        return tuple(cosets)

    def embed(self, g: np.ndarray) -> np.ndarray:
        return _embed_block(g, self.grid.dim, 0)

    def embed_point(self, q: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.dim)
        out[: q.shape[0]] = q
        return out


def _signed_perm_apply(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(P x) on the node set, P an exact signed permutation."""
    n = p.shape[0]
    cols = np.argmax(np.abs(p), axis=1)
    signs = p[np.arange(n), cols]
    out = np.flip(a, axis=tuple(np.flatnonzero(signs < 0)))
    return np.ascontiguousarray(np.transpose(out, np.argsort(cols)))


_SHEAR_CACHE: dict = {}
_SHEAR_CACHE_CAP = 6


def _shear_tensor(grid: GridSpec, coef: float) -> tuple:
    """Tables (cos, sin_up, inside) for the sheared points x_i + coef * x_j.

    With s_j = coef * x_j and kappa_k = (k + 1) pi / 2L, cos[j, k] is
    cos(kappa_k s_j) and sin_up[j, k] is sin(kappa_{k-1} s_j), one mode up,
    with sin_up[j, 0] = 0; inside[j, i] is True where |x_i + s_j| <= L and
    False outside the cube.  Each table holds M^2 entries, doubles or, for
    inside, bytes, and depends only on (M, L, coef).
    """
    key = (grid.M, float(grid.L), round(float(coef), 14))
    t = _SHEAR_CACHE.get(key)
    if t is None:
        ax = grid.axis_coords()
        kappa = grid.kappa
        s = coef * ax[:, None]
        sin_up = np.zeros((grid.M, grid.M))
        sin_up[:, 1:] = np.sin(s * kappa[:-1])
        inside = np.abs(ax[None, :] + s) <= grid.L
        t = (np.cos(s * kappa), sin_up, inside)
        if len(_SHEAR_CACHE) >= _SHEAR_CACHE_CAP:
            _SHEAR_CACHE.pop(next(iter(_SHEAR_CACHE)))
        _SHEAR_CACHE[key] = t
    return t


def _planar_shear(grid: GridSpec, a: np.ndarray, moved: int, coef: float) -> np.ndarray:
    """Samples of a(.., x_moved + coef * x_driving, ..) on the first two axes.

    The moved coordinate is resampled through the sine interpolant by a
    phase shift of its DST-II coefficients, driving coordinate fixed per
    slice: sin(kappa (x + L + s)) splits into a cos(kappa s) part, summed by
    a DST-III, and a sin(kappa s) part, summed by a DCT-III one mode up.  The
    Nyquist cosine vanishes on the nodes, so nothing is lost.  Points outside
    the cube read zero; axes beyond the second ride along as a batch.  The
    forward transform writes the moved axis last and contiguous; the rest
    runs there in place on two buffers, and a view puts the axes back.
    """
    cos_t, sin_up, inside = _shear_tensor(grid, coef)
    shape = (grid.M,) + (1,) * (a.ndim - 2) + (grid.M,)
    cos_t, sin_up, inside = (t.reshape(shape) for t in (cos_t, sin_up, inside))
    c = scipy.fft.dst(np.moveaxis(a, moved, -1), type=2, axis=-1, norm="ortho")
    up = np.empty_like(c)  # c one mode up, as np.roll(c, 1) along the axis
    up[..., 1:], up[..., 0] = c[..., :-1], c[..., -1]
    c *= cos_t
    up *= sin_up
    out = scipy.fft.idst(c, type=2, axis=-1, norm="ortho", overwrite_x=True)
    out += scipy.fft.idct(up, type=2, axis=-1, norm="ortho", overwrite_x=True)
    out *= inside
    return np.moveaxis(out, -1, moved)


def _split(p: np.ndarray) -> tuple:
    """(S, phi) with P = S R(phi), S a signed permutation and R(phi) rotating
    the first two axes by |phi| <= pi/4; phi = 0 when P is a signed
    permutation.  Any P but those and the orthogonal maps of the first two
    axes has no exact action and raises IncompatibleGrid.

    A planar block B is R(theta) or R(theta) F, F = diag(1, -1), and both
    send e_1 to the angle theta = atan2(B_10, B_00).  With k pi/2 the quarter
    turn nearest theta and phi_r = theta - k pi/2, R(theta) F equals
    R(k pi/2) F R(-phi_r), so phi = det(B) phi_r and S = P R(-phi) rounded.
    At a tie, |phi_r| = pi/4 up to rounding, theta / (pi/2) is rounded to 9
    decimals first and then half to even, so k is even and S is the flip
    part of P whatever the last bits of its entries: the double-coset
    projector equals the group average only under this rule.
    """
    if is_signed_permutation(p):
        return np.rint(p), 0.0
    blk = p[:2, :2]
    if not (np.max(np.abs(p - _embed_block(blk, len(p), 0))) < 1e-12
            and np.max(np.abs(blk @ blk.T - np.eye(2))) <= 1e-10):
        raise IncompatibleGrid(f"no exact grid action for the matrix {p.tolist()}")
    theta = np.arctan2(blk[1, 0], blk[0, 0])
    phi_r = theta - np.round(np.round(theta / (np.pi / 2.0), 9)) * np.pi / 2.0
    phi = float(np.sign(np.linalg.det(blk)) * phi_r)
    undo = np.array([[np.cos(phi), np.sin(phi)], [-np.sin(phi), np.cos(phi)]])
    return np.rint(p @ _embed_block(undo, len(p), 0)), phi


def apply_matrix_array(grid: GridSpec, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(P x), P = S R(phi) by `_split`, which rejects any P
    with no exact action: an index move for S, then, when phi != 0, three
    shears (x, y, x) of the sine interpolant for R(phi).

    The shears are exact for band-limited data, and |phi| <= pi/4 keeps
    their coefficients small, so little content strays outside the cube.
    Piecewise-polynomial resampling here would inject kink noise on every
    symmetrization, and since the saddle classes of non-axis-aligned groups
    are enforced by projecting each iterate, that noise accumulates faster
    than descent can drain it.
    """
    s, phi = _split(p)
    out = _signed_perm_apply(s, a)
    if phi:
        shx = -np.tan(phi / 2.0)
        out = _planar_shear(grid, out, 0, shx)
        out = _planar_shear(grid, out, 1, float(np.sin(phi)))
        out = _planar_shear(grid, out, 0, shx)
    return out


def act(action: GroupAction, g: np.ndarray, u: Field) -> Field:
    """(g . u)(x) = u(g^{-1} x)."""
    if u.grid != action.grid:
        raise GridMismatch("field grid does not match the action grid")
    p = action.embed(np.asarray(g, dtype=float)).T  # inverse of orthogonal g
    return u.with_data(apply_matrix_array(action.grid, p, u.data))


def symmetrize_array(action: GroupAction, b: np.ndarray) -> np.ndarray:
    """Projector onto the sign-equivariant class, (1/|G|) sum_g psi(g) g . a
    for a = half.unfold(b), folded onto `action.half`, where b lies too;
    summed over the double cosets of the flip subgroup D (Bossavit 1986).

    The fold over D, P_D, is exact and absorbs the character: P_D d =
    psi(d) P_D for d in D, so every g in D r D gives the same P_D g P_D up
    to psi, and the average is P_D (sum_r psi(r) |D r D| / |G| r .) P_D;
    a is in D's class already, and `half.fold` is P_D on the way out.
    Each non-identity representative costs one group action; the identity
    is a scaled copy.
    """
    half = action.half
    a = half.unfold(b)
    (_, weight), *rest = action.cosets
    acc = weight * a
    for g, w in rest:
        acc += w * apply_matrix_array(action.grid, g.T, a)
    return half.fold(acc)


def symmetry_residual(action: GroupAction, u: Field) -> float:
    """max over generators of ||g.u - psi(g) u||_2 / ||u||_2.  A generator
    that flips one axis, along which `u.half` already holds u with the sign
    psi(g), gives exactly 0.0: it is not applied, and where no generator
    is, ||u|| is not summed either."""
    if u.grid != action.grid:
        raise GridMismatch("field grid does not match the action grid")
    signs = [action.group.sign(g) for g in action.group.generators]
    applied = [(g, s) for g, s, ax in zip(action.group.generators, signs,
                                          action.generator_axes)
               if ax is None or u.half.parity[ax] != s]
    denom = np.sqrt(np.sum(u.data ** 2)) if applied else 0.0
    if denom == 0.0:
        return 0.0
    worst = 0.0
    for g, s in applied:
        moved = act(action, g, u).data
        worst = max(worst, float(np.sqrt(np.sum((moved - s * u.data) ** 2)) / denom))
    return worst


# -- resampling ---------------------------------------------------------------

def _sine_eval_matrix(grid: GridSpec, pts: np.ndarray, parity: int) -> np.ndarray:
    """Rows evaluate the sine interpolant at physical points along one axis.

    The last axis of the result dotted with one axis of sine coefficients
    gives the trigonometric interpolant at the corresponding entry of pts,
    which may have any shape.  An axis of the given parity carries its own
    modes: sin(kappa (x + L)) on a free axis, cos(kappa x) on an even one and
    sin(kappa x) on an odd one.  Points outside the open cube map to zero
    rows, matching the Dirichlet extension.
    """
    norm = np.full(grid.M, np.sqrt(2.0 / grid.M))
    norm[grid.M - 1] = np.sqrt(1.0 / grid.M)
    norm, kappa = norm[_modes(parity)], grid.kappa[_modes(parity)]
    pts = np.asarray(pts, dtype=float)
    arg = (pts if parity else pts + grid.L)[..., None] * kappa
    mat = norm * (np.cos(arg) if parity > 0 else np.sin(arg))
    mat[np.abs(pts) > grid.L] = 0.0
    return mat


def _spectral_resample(u: Field, rows, coeff=None) -> np.ndarray:
    """Apply rows[axis], an evaluation matrix from `_sine_eval_matrix`, along
    each axis to the sine coefficients of u: coeff when the caller holds
    them, else computed here.  u may live on a parity-reduced grid."""
    out = _dst(u.data, u.grid.parity) if coeff is None else coeff
    for axis, mat in enumerate(rows):
        out = np.moveaxis(
            np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis
        )
    return out


def dilate(u: Field, t: float, coeff: np.ndarray = None) -> Field:
    """u(x / t) from the sine interpolant, zero outside the cube.

    Exact for band-limited data at every t > 0, so the rescaling inside the
    solver, which runs on every trial step, adds no interpolation noise to
    the gradient residual.  On a parity-reduced grid it evaluates the
    class's modes at the positive-half points.  coeff, when given, must be
    the sine coefficients of u (`_dst(u.data, u.grid.parity)`): a caller
    that already holds them spares the transform, bit for bit.
    """
    if not (t > 0):
        raise ValueError(f"dilation factor must be positive, got {t}")
    grid = u.grid
    rows = [_sine_eval_matrix(grid, grid.axis_coords(ax) / t, grid.parity[ax])
            for ax in range(grid.dim)]
    return u.with_data(_spectral_resample(u, rows, coeff))


def translate(u: Field, shift: np.ndarray, target: GridSpec = None) -> Field:
    """u(x - shift) from the sine interpolant, zero outside the cube, on the
    target grid (default u's own), which may differ from u's in parity and
    in M but not in the box.

    Along an axis the target keeps whole, the nodes x read u(x - s); along
    an axis it folds with parity p, its positive-half nodes read
    1/2 [u(x - s) + p u(-x - s)], the target's fold of the translate, so
    one evaluation both moves u and folds it without building the full
    grid.  u may itself live on a parity-reduced grid.  With a zero shift
    and another M this restricts or prolongs u between the grids of one box.
    """
    grid = u.grid
    target = grid if target is None else target
    if (target.dim, target.L) != (grid.dim, grid.L):
        raise GridMismatch("translate target covers another box than the field's grid")
    shift = np.asarray(shift, dtype=float)
    rows = []
    for ax, p in enumerate(target.parity):
        x, s = target.axis_coords(ax), shift[ax]
        mat = _sine_eval_matrix(grid, x - s, grid.parity[ax])
        if p:
            mat = 0.5 * (mat + p * _sine_eval_matrix(grid, -x - s, grid.parity[ax]))
        rows.append(mat)
    return Field(target, _spectral_resample(u, rows))


def boundary_amplitude(u: Field) -> float:
    """max |u| over cells touching the cube boundary."""
    worst = 0.0
    for axis in range(u.grid.dim):
        sl = [slice(None)] * u.grid.dim
        for edge in (0, -1):
            sl[axis] = edge
            worst = max(worst, float(np.max(np.abs(u.data[tuple(sl)]))))
    return worst


# -- radial statistics --------------------------------------------------------

def radial_shell_stats(u: Field):
    """Shell-wise radial profile: center radius, max |u|, sign at the max.

    u is read on `u.half`, whose mirror images carry the same |u|, so the
    shell maxima are the full grid's.  Points are binned to the nearest
    multiple of h, so shell k is centered at radius k*h and covers
    [k*h - h/2, k*h + h/2). The sign is +1 if every stored node attaining
    the shell maximum is positive, -1 if every one is negative, 0 if both
    signs attain it; on an odd axis the stored half is the positive one.
    Shells containing no grid point (always the origin shell on a
    cell-centered grid) are dropped from the output.
    """
    half = u.half
    vals = u.half_data.ravel()
    idx = np.rint(half.radius().ravel() / half.h).astype(int)
    counts = np.bincount(idx)
    max_abs = np.zeros(counts.size)
    np.maximum.at(max_abs, idx, np.abs(vals))
    top = np.abs(vals) == max_abs[idx]
    sign = (np.sign(np.bincount(idx[top & (vals > 0)], minlength=counts.size))
            - np.sign(np.bincount(idx[top & (vals < 0)], minlength=counts.size)))
    centers = np.arange(counts.size) * half.h
    keep = counts > 0
    return centers[keep], max_abs[keep], sign[keep]


# -- serialization ------------------------------------------------------------

def write_field(path, u: Field):
    """Binary field file: magic, version, dim, per-axis M, L, row-major f64
    of the full grid (a parity-reduced field is unfolded)."""
    grid = u.grid
    with open(path, "wb") as fh:
        fh.write(FORMAT_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<B3x", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *(grid.M,) * grid.dim))
        fh.write(struct.pack("<d", grid.L))
        fh.write(np.ascontiguousarray(grid.unfold(u.data), "<f8").tobytes())


def read_field(path) -> Field:
    """Inverse of write_field; a cut or overlong file or NaN/Inf data is a ParseError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read field file {path}: {exc.strerror}") from None
    if blob[:4] != FORMAT_MAGIC:
        raise ParseError(f"{path}: bad magic, not a field file")
    try:
        version, dim = struct.unpack_from("<IB3x", blob, 4)
        if version != FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported version {version}")
        if dim not in (2, 3):
            raise ParseError(f"{path}: bad dimension {dim}")
        *ms, big_l = struct.unpack_from(f"<{dim}Id", blob, 12)
    except struct.error:
        raise ParseError(f"{path}: truncated header") from None
    if len(set(ms)) != 1:
        raise IncompatibleGrid(f"{path}: anisotropic grid {tuple(ms)} not supported")
    grid = GridSpec(dim, ms[0], big_l)
    head = 20 + 4 * dim
    if len(blob) - head != 8 * grid.M ** dim:
        raise ParseError(f"{path}: {len(blob) - head} data bytes, "
                         f"expected {8 * grid.M ** dim}")
    data = np.frombuffer(blob, dtype="<f8", offset=head).reshape(grid.shape)
    if not np.all(np.isfinite(data)):
        raise ParseError(f"{path}: field data holds NaN or Inf")
    return Field(grid, data)


def write_radial_csv(path, u: Field):
    centers, max_abs, sign = radial_shell_stats(u)
    with open(path, "w") as fh:
        fh.write("r,abs_u,sign\n")
        for r, m, s in zip(centers, max_abs, sign):
            fh.write(f"{float(r)!r},{float(m)!r},{int(s)}\n")
