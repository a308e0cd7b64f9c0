"""Cell-centered grids on [-L, L]^N, fields, group actions and spectral operators.

Nodes sit at x_j = -L + (j + 1/2) h with h = 2L/M, so the node set is
symmetric under sign flips and axis permutations and no node lies on a
coordinate mirror or at the origin.  Homogeneous Dirichlet data at the cube
boundary is emulated by expanding in the odd sine basis
sin(k pi (x + L) / (2L)), k >= 1, which the type-II discrete sine transform
diagonalizes on this node set.  Signed-permutation group elements act by
exact index manipulation; all other orthogonal elements act by multilinear
interpolation with zero extension outside the cube.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.ndimage import map_coordinates

from .coxeter import CoxeterGroup, is_signed_permutation
from .errors import GridMismatch, IncompatibleGrid, ParseError

FORMAT_MAGIC = b"CHQF"
FORMAT_VERSION = 1


def thread_count() -> int:
    """Worker cap for FFT calls, from CHOQUARD_THREADS (default 1)."""
    try:
        n = int(os.environ.get("CHOQUARD_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, n)


@dataclass(frozen=True)
class GridSpec:
    """Uniform cell-centered grid on [-L, L]^dim."""

    dim: int
    M: int
    L: float

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise IncompatibleGrid(f"dim must be 2 or 3, got {self.dim}")
        if self.M < 8 or self.M % 2 != 0:
            raise IncompatibleGrid(f"M must be an even integer >= 8, got {self.M}")
        if not (self.L > 0):
            raise IncompatibleGrid(f"L must be positive, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.M

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_coords(self) -> np.ndarray:
        return -self.L + (np.arange(self.M) + 0.5) * self.h

    def mesh(self):
        c = self.axis_coords()
        return np.meshgrid(*(c,) * self.dim, indexing="ij")

    def radius(self) -> np.ndarray:
        """|x| at every node."""
        r2 = np.zeros(self.shape)
        for x in self.mesh():
            r2 += x * x
        return np.sqrt(r2)


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


def zeros(grid: GridSpec) -> Field:
    return Field(grid, np.zeros(grid.shape))


def from_function(grid: GridSpec, fn) -> Field:
    return Field(grid, fn(*grid.mesh()))


def check_same_grid(u: Field, v: Field):
    if u.grid != v.grid:
        raise GridMismatch(f"grids differ: {u.grid} vs {v.grid}")


# -- spectral operators -------------------------------------------------------

_mult_cache: dict = {}


def sine_multipliers(grid: GridSpec) -> np.ndarray:
    """Eigenvalues sum_a ((k_a + 1) pi / 2L)^2 of -Delta on the sine basis."""
    key = (grid.dim, grid.M, grid.L)
    lam = _mult_cache.get(key)
    if lam is None:
        kappa2 = (((np.arange(grid.M) + 1) * np.pi / (2.0 * grid.L)) ** 2)
        lam = np.zeros(grid.shape)
        for a in range(grid.dim):
            shape = [1] * grid.dim
            shape[a] = grid.M
            lam = lam + kappa2.reshape(shape)
        lam.setflags(write=False)
        _mult_cache[key] = lam
    return lam


def _dst(a: np.ndarray) -> np.ndarray:
    return scipy.fft.dstn(a, type=2, norm="ortho", workers=thread_count())


def _idst(a: np.ndarray) -> np.ndarray:
    return scipy.fft.idstn(a, type=2, norm="ortho", workers=thread_count())


def helmholtz_inverse_array(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    """(1 - Delta)^{-1} a in the sine basis."""
    return _idst(_dst(a) / (1.0 + sine_multipliers(grid)))


def l2_sq_integral(u: Field) -> float:
    """B(u) = integral of u^2 as the plain cell sum."""
    return float(u.grid.cell_volume * np.sum(u.data ** 2))


def inner(u: Field, v: Field) -> float:
    check_same_grid(u, v)
    return float(u.grid.cell_volume * np.sum(u.data * v.data))


# -- group action -------------------------------------------------------------

class GroupAction:
    """Action of a rank-k Coxeter group on fields over a dim-N grid, k <= N.

    An element g acts on the first k coordinates, g x = (g + 1_{N-k}) x, and
    on fields by (g . u)(x) = u(g^{-1} x).
    """

    def __init__(self, group: CoxeterGroup, grid: GridSpec):
        if group.rank > grid.dim:
            raise IncompatibleGrid(
                f"group rank {group.rank} exceeds grid dim {grid.dim}"
            )
        self.group = group
        self.grid = grid

    def embed(self, g: np.ndarray) -> np.ndarray:
        n = self.grid.dim
        out = np.eye(n)
        k = g.shape[0]
        out[:k, :k] = g
        return out

    def embed_point(self, q: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.dim)
        out[: q.shape[0]] = q
        return out


def _signed_perm_apply(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(P x) on the node set, P an exact signed permutation."""
    n = p.shape[0]
    cols = np.argmax(np.abs(p), axis=1)
    signs = p[np.arange(n), cols]
    out = a
    for axis in range(n):
        if signs[axis] < 0:
            out = np.flip(out, axis=axis)
    return np.ascontiguousarray(np.transpose(out, np.argsort(cols)))


def _interp_apply(grid: GridSpec, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(P x) by multilinear interpolation, zero outside."""
    mesh = grid.mesh()
    coords = np.empty((grid.dim,) + grid.shape)
    for b in range(grid.dim):
        y = np.zeros(grid.shape)
        for c in range(grid.dim):
            if p[b, c] != 0.0:
                y = y + p[b, c] * mesh[c]
        coords[b] = (y + grid.L) / grid.h - 0.5
    return map_coordinates(a, coords, order=1, mode="constant", cval=0.0)


_SHEAR_CACHE: dict = {}
_SHEAR_CACHE_CAP = 6


def _shear_tensor(grid: GridSpec, coef: float) -> np.ndarray:
    """Evaluation tensor T[j, i, :] for the sheared points x_i + coef * x_j.

    T[j] maps one axis of DST-II coefficients to interpolant values at the
    axis nodes shifted by coef times the j-th node of the driving axis.  The
    tensors depend only on (M, L, coef) and are cached; at M = 256 each one
    holds M^3 doubles, so the cache is kept short.
    """
    key = (grid.M, float(grid.L), round(float(coef), 14))
    t = _SHEAR_CACHE.get(key)
    if t is None:
        ax = grid.axis_coords()
        t = _sine_eval_matrix(grid, ax[None, :] + coef * ax[:, None])
        if len(_SHEAR_CACHE) >= _SHEAR_CACHE_CAP:
            _SHEAR_CACHE.pop(next(iter(_SHEAR_CACHE)))
        _SHEAR_CACHE[key] = t
    return t


def _planar_shear(grid: GridSpec, a: np.ndarray, moved: int, coef: float) -> np.ndarray:
    """Samples of a(.., x_moved + coef * x_driving, ..) on the first two axes.

    The moved coordinate is resampled through the sine interpolant, driving
    coordinate fixed per slice; axes beyond the second ride along as a batch.
    """
    m = grid.M
    tail = a.shape[2:]
    c = scipy.fft.dst(a, type=2, axis=moved, norm="ortho", workers=thread_count())
    t = _shear_tensor(grid, coef)
    if moved == 0:
        cc = np.moveaxis(c, 1, 0).reshape(m, m, -1)   # (drive j, mode k, batch)
        out = np.matmul(t, cc)                        # (j, node i, batch)
        return np.moveaxis(out.reshape((m, m) + tail), 0, 1)
    cc = c.reshape(m, m, -1)                          # (drive i, mode k, batch)
    out = np.matmul(t, cc)                            # (i, node j, batch)
    return out.reshape((m, m) + tail)


def _rotation_apply(grid: GridSpec, phi: float, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(R(phi) x), R(phi) rotating the first two axes.

    Factors the rotation into three axis-aligned shears (x-shear, y-shear,
    x-shear), each evaluated through the sine interpolant, so the result is
    exact for band-limited data.  Piecewise-polynomial resampling here would
    inject kink noise on every symmetrization, and since the saddle classes
    of non-axis-aligned groups are enforced by projecting each iterate, that
    noise accumulates faster than descent can drain it.
    """
    shx = -np.tan(phi / 2.0)
    shy = float(np.sin(phi))
    out = _planar_shear(grid, a, 0, shx)
    out = _planar_shear(grid, out, 1, shy)
    return _planar_shear(grid, out, 0, shx)


def _planar_rotation_block(grid: GridSpec, p: np.ndarray) -> np.ndarray | None:
    """The 2x2 orthogonal block of p if p acts only on the first two axes."""
    n = p.shape[0]
    if n < 2 or grid.M < 2:
        return None
    if n > 2:
        if not (np.all(np.abs(p[2:, :] - np.eye(n)[2:, :]) < 1e-12)
                and np.all(np.abs(p[:2, 2:]) < 1e-12)):
            return None
    blk = p[:2, :2]
    if np.max(np.abs(blk @ blk.T - np.eye(2))) > 1e-10:
        return None
    return blk


def _planar_orthogonal_apply(grid: GridSpec, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Samples of x -> a(P x) for P orthogonal on the first two axes.

    P factors as (quarter-turn signed permutation) o (rotation by at most 45
    degrees) o (optional axis flip); the exact factors cost nothing and keep
    the shear coefficients small, so no content strays far outside the cube
    during the intermediate stages.
    """
    blk = p[:2, :2].copy()
    reflect = bool(np.linalg.det(blk) < 0.0)
    if reflect:
        blk = blk @ np.diag([1.0, -1.0])
    phi = float(np.arctan2(blk[1, 0], blk[0, 0]))
    k = int(np.round(phi / (np.pi / 2.0)))
    phi_r = phi - k * np.pi / 2.0
    out = a
    if k % 4:
        cs = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
        pe = np.eye(p.shape[0])
        pe[:2, :2] = ((cs[0], -cs[1]), (cs[1], cs[0]))
        out = _signed_perm_apply(pe, out)
    if abs(phi_r) > 1e-14:
        out = _rotation_apply(grid, phi_r, out)
    if reflect:
        pf = np.eye(p.shape[0])
        pf[1, 1] = -1.0
        out = _signed_perm_apply(pf, out)
    return np.ascontiguousarray(out)


def apply_matrix_array(grid: GridSpec, p: np.ndarray, a: np.ndarray) -> np.ndarray:
    if is_signed_permutation(p):
        return _signed_perm_apply(p, a)
    if _planar_rotation_block(grid, p) is not None:
        return _planar_orthogonal_apply(grid, p, a)
    return _interp_apply(grid, p, a)


def act(action: GroupAction, g: np.ndarray, u: Field) -> Field:
    """(g . u)(x) = u(g^{-1} x)."""
    if u.grid != action.grid:
        raise GridMismatch("field grid does not match the action grid")
    p = action.embed(np.asarray(g, dtype=float)).T  # inverse of orthogonal g
    return u.with_data(apply_matrix_array(action.grid, p, u.data))


def symmetrize_array(action: GroupAction, a: np.ndarray) -> np.ndarray:
    """Projector onto the sign-equivariant class: (1/|G|) sum_g psi(g) g . a."""
    mats = action.group.element_matrices()
    signs = action.group.element_signs()
    acc = np.zeros_like(a)
    for g, s in zip(mats, signs):
        p = action.embed(g).T
        acc += s * apply_matrix_array(action.grid, p, a)
    return acc / len(mats)


def symmetry_residual(action: GroupAction, u: Field) -> float:
    """max over generators of ||g.u - psi(g) u||_2 / ||u||_2."""
    denom = np.sqrt(np.sum(u.data ** 2))
    if denom == 0.0:
        return 0.0
    worst = 0.0
    for g in action.group.generators:
        moved = act(action, g, u).data
        s = action.group.sign(g)
        worst = max(worst, float(np.sqrt(np.sum((moved - s * u.data) ** 2)) / denom))
    return worst


# -- resampling ---------------------------------------------------------------

def _sine_eval_matrix(grid: GridSpec, pts: np.ndarray) -> np.ndarray:
    """Rows evaluate the orthonormal sine interpolant at physical points.

    The last axis of the result dotted with one axis of DST-II coefficients
    gives the trigonometric interpolant at the corresponding entry of pts,
    which may have any shape.  Points outside the open cube map to zero rows,
    matching the Dirichlet extension.
    """
    k = np.arange(grid.M)
    kappa = (k + 1) * np.pi / (2.0 * grid.L)
    norm = np.full(grid.M, np.sqrt(2.0 / grid.M))
    norm[grid.M - 1] = np.sqrt(1.0 / grid.M)
    pts = np.asarray(pts, dtype=float)
    mat = norm * np.sin((pts + grid.L)[..., None] * kappa)
    mat[np.abs(pts) > grid.L] = 0.0
    return mat


def _spectral_resample(u: Field, pts: np.ndarray) -> np.ndarray:
    """Sample the sine interpolant of u on the tensor grid pts x ... x pts."""
    mat = _sine_eval_matrix(u.grid, pts)
    out = _dst(u.data)
    for axis in range(u.grid.dim):
        out = np.moveaxis(
            np.tensordot(mat, np.moveaxis(out, axis, 0), axes=(1, 0)), 0, axis
        )
    return out


def dilate(u: Field, t: float) -> Field:
    """u(x / t), zero outside the cube.

    Mild shrinkages and all expansions (t >= 0.9) are resampled through the
    sine interpolant, which is exact for band-limited data and leaves no
    rough residue; this matters inside the solver, where the rescaling step
    runs on every trial step and piecewise-polynomial interpolation injects
    O(h^2) noise whose Laplacian dominates the gradient residual long before
    the stopping tolerance is reached.  Stronger shrinkages read points far
    outside the cube, where the periodic sine extension is wrong, so they
    fall back to cubic spline interpolation.
    """
    if not (t > 0):
        raise ValueError(f"dilation factor must be positive, got {t}")
    grid = u.grid
    if t >= 0.9:
        return u.with_data(_spectral_resample(u, grid.axis_coords() / t))
    c = (grid.axis_coords() / t + grid.L) / grid.h - 0.5
    mesh = np.meshgrid(*(c,) * grid.dim, indexing="ij")
    return u.with_data(
        map_coordinates(u.data, np.stack(mesh), order=3, mode="constant", cval=0.0)
    )


def translate(u: Field, shift: np.ndarray) -> Field:
    """u(x - shift) by cubic spline interpolation, zero outside the cube."""
    grid = u.grid
    shift = np.asarray(shift, dtype=float)
    axes = [
        (grid.axis_coords() - shift[a] + grid.L) / grid.h - 0.5
        for a in range(grid.dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return u.with_data(
        map_coordinates(u.data, np.stack(mesh), order=3, mode="constant", cval=0.0)
    )


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

    Points are binned to the nearest multiple of h, so shell k is centered
    at radius k*h and covers [k*h - h/2, k*h + h/2). Shells containing no
    grid point (always the origin shell on a cell-centered grid) are
    dropped from the output.
    """
    grid = u.grid
    r = grid.radius().ravel()
    vals = u.data.ravel()
    idx = np.rint(r / grid.h).astype(int)
    nshell = int(idx.max()) + 1
    counts = np.zeros(nshell, dtype=int)
    np.add.at(counts, idx, 1)
    max_abs = np.zeros(nshell)
    np.maximum.at(max_abs, idx, np.abs(vals))
    # write signs in ascending |u| order so the argmax sign lands last
    order = np.argsort(np.abs(vals))
    sign = np.zeros(nshell)
    sign[idx[order]] = np.sign(vals[order])
    centers = np.arange(nshell) * grid.h
    keep = counts > 0
    return centers[keep], max_abs[keep], sign[keep]


# -- serialization ------------------------------------------------------------

def write_field(path, u: Field):
    """Binary field file: magic, version, dim, per-axis M, L, row-major f64."""
    grid = u.grid
    with open(path, "wb") as fh:
        fh.write(FORMAT_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<B3x", grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *(grid.M,) * grid.dim))
        fh.write(struct.pack("<d", grid.L))
        fh.write(np.ascontiguousarray(u.data, dtype="<f8").tobytes())


def read_field(path) -> Field:
    """Inverse of write_field; a cut or overlong file or NaN/Inf data is a ParseError."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
