"""Energy and Pohozaev functionals for -Delta u + u = (I_alpha * F(u)) F'(u).

With A = int |grad u|^2, B = int u^2 and Q = int (I_alpha * F(u)) F(u):

    E(u) = (A + B)/2 - Q/2
    P(u) = (N-2) A / 2 + N B / 2 - (N + alpha) Q / 2

Along the dilation path t -> u(./t) these become polynomials in t,

    a(t) = t^(N-2) A/2 + t^N B/2 - t^(N+alpha) Q/2
    b(t) = P(u(./t)) = t a'(t),

and for Q > 0 the equation b(t) = 0 has a unique positive root t_u, the
projection of u onto the Pohozaev manifold.  For N = 2 and 3 alike it is
one monotone Newton iteration on the concave polynomial b(t) / t^(N-2) in
s = t^2 (`pohozaev_root`), so solving imports no scipy.optimize.

This module is the one evaluation core: the solver, `evaluate` and
`choquard verify` all take A, B, Q, the gradient and the residuals from
the array functions `_state_parts`, `_gradient_from_parts` and
`residuals`, on the grid the caller passes, which names the folded
axes: the solver's half grid, or the field's `field.exact_half` in
`evaluate`, which unfolds the gradient from it.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NoDescent, NonpositiveQ, ParseError
from .field import Field, _dst, _idst, exact_half, sine_multipliers
from .riesz import RieszKernel


class Nonlinearity:
    """Even F and f = F' held one way: terms maps each exponent p to the
    summed nonzero coefficient of its |s|^p, and table, None for a power
    sum, holds a monotone-cubic profile of F on s >= 0, read at |s|.

    F is even, so the energy is invariant under u -> psi(g) u o g^-1 and the
    sign-equivariant classes are natural constraints (Palais, Comm. Math.
    Phys. 69, 1979).  config is the text the nonlinearity was given by, or
    the canonical text of its terms.
    """

    def __init__(self, terms=(), table=None, config=None):
        terms = list(terms)
        if not np.all(np.isfinite(terms)):
            raise ParseError("nonlinearity coefficients and exponents must be finite")
        summed = {}
        for c, p in terms:
            summed[p] = summed.get(p, 0.0) + c
        self.terms = {p: c for p, c in summed.items() if c != 0.0}
        self.table = table
        if table is not None:
            s_vals, f_vals = table
            s_vals = np.asarray(s_vals, dtype=float)
            f_vals = np.asarray(f_vals, dtype=float)
            if s_vals.ndim != 1 or s_vals.size < 3:
                raise ParseError("tabulated nonlinearity needs >= 3 samples")
            if not (np.all(np.isfinite(s_vals)) and np.all(np.isfinite(f_vals))):
                raise ParseError("tabulated samples must be finite")
            if np.any(np.diff(s_vals) <= 0):
                raise ParseError("tabulated s values must be increasing")
            if s_vals[0] != 0.0:
                raise ParseError("tabulated profile must start at s = 0")
            # lazy: scipy.interpolate loads scipy's linalg and sparse stacks
            from scipy.interpolate import PchipInterpolator

            self._interp = PchipInterpolator(s_vals, f_vals, extrapolate=True)
            self._dinterp = self._interp.derivative()
        if config is None:
            config = "tabulated" if table is not None else "sum:" + ";".join(
                f"c{i}={_num(c)},p{i}={_num(p)}"
                for i, (p, c) in enumerate(self.terms.items(), start=1))
        self.config = config

    def F(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.table is not None:
            return self._interp(np.abs(s))
        out = np.zeros_like(s)
        for p, c in self.terms.items():
            out += c * _abs_power(s, p)
        return out

    def f(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.table is not None:
            return self._dinterp(np.abs(s)) * np.sign(s)
        out = np.zeros_like(s)
        for p, c in self.terms.items():
            out += c * p * np.copysign(_abs_power(s, p - 1.0), s)
        return out


def _abs_power(s, p):
    """|s|^p; for p = 1, 2 and 3 without the per-element pow call of **."""
    if p == 2.0:
        return np.square(s)
    if p == 1.0:
        return np.abs(s)
    if p == 3.0:
        return np.abs(s) * np.square(s)
    return np.abs(s) ** p


def _num(x: float) -> str:
    """Short form of x that parses back to x exactly."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def power(p: float, coeff: float = 1.0) -> Nonlinearity:
    text = (f"power:p={_num(p)}" if coeff == 1.0
            else f"sum:c1={_num(coeff)},p1={_num(p)}")
    return Nonlinearity([(coeff, p)], config=text)


def parse_nonlinearity(text: str) -> Nonlinearity:
    """Parse 'power:p=2', 'sum:c1=1,p1=2;c2=0.5,p2=3' or 'tabulated:file=...'."""
    text = text.strip()
    kind, sep, body = text.partition(":")
    if not sep:
        raise ParseError(f"nonlinearity {text!r} lacks a ':' separator")

    def pairs(chunk):
        out = {}
        for item in chunk.split(","):
            key, eq, val = (part.strip() for part in item.partition("="))
            if not eq:
                raise ParseError(f"bad nonlinearity entry {item!r}")
            if key in out:
                raise ParseError(f"repeated key {key!r} in {text!r}")
            out[key] = val
        return out

    if kind == "power":
        kv = pairs(body)
        try:
            p = float(kv.pop("p"))
        except KeyError:
            raise ParseError("power nonlinearity needs p=<exponent>") from None
        except ValueError:
            raise ParseError(f"bad exponent in {text!r}") from None
        if kv:
            raise ParseError(f"unexpected keys {sorted(kv)} in {text!r}")
        return Nonlinearity([(1.0, p)], config=text)
    if kind == "sum":
        terms = []
        for i, chunk in enumerate(body.split(";"), start=1):
            kv = pairs(chunk)
            if set(kv) != {f"c{i}", f"p{i}"}:
                raise ParseError(f"sum term {i} must provide c{i} and p{i} "
                                 f"and nothing else, got {chunk!r}")
            try:
                terms.append((float(kv[f"c{i}"]), float(kv[f"p{i}"])))
            except ValueError:
                raise ParseError(f"bad number in sum term {chunk!r}") from None
        return Nonlinearity(terms, config=text)
    if kind == "tabulated":
        kv = pairs(body)
        path = kv.pop("file", None)
        if path is None:
            raise ParseError("tabulated nonlinearity needs file=<csv path>")
        if kv:
            raise ParseError(f"unexpected keys {sorted(kv)} in {text!r}")
        s_vals, f_vals = [], []
        try:
            with open(path) as fh:
                rows = csv.reader(fh)
                for row in rows:
                    if not row or row[0].lstrip().startswith("#"):
                        continue
                    try:
                        s_val, f_val = float(row[0]), float(row[1])
                    except (IndexError, ValueError):
                        raise ParseError(f"{path}:{rows.line_num}: expected two "
                                         f"numbers s,F(s), got {row!r}") from None
                    s_vals.append(s_val)
                    f_vals.append(f_val)
        except OSError as exc:
            raise ParseError(f"cannot read table {path}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ParseError(f"table {path} is not text") from None
        return Nonlinearity(table=(s_vals, f_vals), config=text)
    raise ParseError(f"unknown nonlinearity kind {kind!r}")


# -- structural hypotheses ----------------------------------------------------

def validate_hypotheses(nl: Nonlinearity, dim: int, alpha: float) -> tuple:
    """Violations of (F0)-(F2), read from F's held terms; empty when all
    three hold.

    Tabulated profiles carry no symbolic data; they are passed through with
    a warning and no violations.
    """
    if nl.table is not None:
        warnings.warn(
            "tabulated nonlinearity: growth hypotheses not verifiable",
            stacklevel=2,
        )
        return ()
    if not nl.terms:
        return ("(F0): F vanishes identically",)
    low, high, mu = min(nl.terms), max(nl.terms), 2.0 * nl.terms.get(2.0, 0.0)
    crit = (dim + alpha) / (dim - 2) if dim > 2 else math.inf
    violations = []
    if low < 2.0:
        violations.append(f"(F1): exponent {low:g} < 2 makes f(s)/s blow up at 0")
    elif mu < 0.0:
        violations.append(f"(F1): limit f(s)/s = {mu:g} is negative")
    if high >= crit:
        violations.append(f"(F2): exponent {high:g} >= critical {crit:g}")
    return tuple(violations)


# -- functionals --------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalState:
    """A, B, Q of a field together with energy and Pohozaev values."""

    A: float
    B: float
    Q: float
    energy: float
    pohozaev: float


def _assemble(dim, alpha, a_val, b_val, q_val) -> FunctionalState:
    energy = 0.5 * (a_val + b_val) - 0.5 * q_val
    poh = 0.5 * (dim - 2) * a_val + 0.5 * dim * b_val - 0.5 * (dim + alpha) * q_val
    return FunctionalState(a_val, b_val, q_val, energy, poh)


def _check_grid(kernel: RieszKernel, u: Field):
    if u.grid != kernel.grid:
        raise GridMismatch("field grid does not match the kernel grid")


def evaluate(nl: Nonlinearity, kernel: RieszKernel, u: Field) -> FunctionalState:
    """State of u, on the half of its grid that exact_half finds."""
    _check_grid(kernel, u)
    half = exact_half(u)
    return _state_parts(nl, kernel, half.fold(u.data), half)[0]


def evaluate_with_gradient(nl, kernel, u):
    """State and gradient sharing one convolution and one sine transform, on
    the half of u's grid that exact_half finds; the gradient is unfolded."""
    _check_grid(kernel, u)
    half = exact_half(u)
    a = half.fold(u.data)
    state, coeff, conv = _state_parts(nl, kernel, a, half)
    return state, u.with_data(
        half.unfold(_gradient_from_parts(nl, kernel, a, coeff, conv, half)))


def _state_parts(nl, kernel, a, grid, coeff=None):
    """FunctionalState of a on grid plus its sine coefficients and the
    convolution I_alpha * F(u), folded on the folded axes of grid, along
    which the even F makes F(u) even; coeff, when given, stands for the
    sine coefficients of a."""
    if coeff is None:
        coeff = _dst(a, grid.parity)
    a_val = float(grid.cell_volume * np.sum(sine_multipliers(grid) * coeff ** 2))
    b_val = float(grid.weight * np.sum(a ** 2))
    f_of_u = nl.F(a)
    conv = kernel.convolve_array(f_of_u, grid.folded)
    q_val = float(grid.weight * np.sum(conv * f_of_u))
    state = _assemble(grid.dim, kernel.alpha, a_val, b_val, q_val)
    return state, coeff, conv


def _gradient_from_parts(nl, kernel, a, coeff, conv, grid):
    """L^2 gradient -Delta u + u - (I_alpha * F(u)) f(u) from _state_parts."""
    lap = _idst(-sine_multipliers(grid) * coeff, grid.parity)
    return -lap + a - conv * nl.f(a)


def _ensure_positive_q(nl, kernel, a, grid, parts):
    """Double the amplitude of a until Q > 0, from parts = _state_parts(a),
    evaluating again only after a doubling; returns the amplitude reached
    and its parts.  The zero field never gets there, and a Q that is not
    finite is refused at once."""
    for doubling in range(60):
        if doubling:
            a = 2.0 * a
            parts = _state_parts(nl, kernel, a, grid)
        q = parts[0].Q
        if not np.isfinite(q):
            raise NonpositiveQ(f"Q = {q} is not finite")
        if q > 0.0:
            return a, parts
    raise NonpositiveQ("could not reach Q > 0 by amplitude doubling")


def residuals(grid, state, grad):
    """Gradient residual ||grad||/||u|| and Pohozaev residual |P|/(A + B),
    with ||u|| = sqrt(B)."""
    scale = state.A + state.B
    if not (0.0 < scale < np.inf):
        raise NoDescent(f"iterate drained: A + B = {scale:g}")
    denom = math.sqrt(state.B)
    grad_res = math.sqrt(grid.weight * np.sum(grad ** 2)) / denom if denom else np.inf
    return grad_res, abs(state.pohozaev) / scale


# -- dilation path ------------------------------------------------------------

def pohozaev_root(state: FunctionalState, dim: int, alpha: float) -> float:
    """Unique t > 0 with b(t) = 0, for finite A >= 0, B > 0 and Q > 0.

    In s = t^2, h(s) = 2 b(t) / t^(N-2) = (N-2) A + N B s - (N+alpha) Q s^p,
    p = 1 + alpha/2, is strictly concave with h(0) >= 0 and h'(0) = N B > 0,
    so it has one positive root, and Newton's method started at any s with
    h(s) <= 0 falls monotonically to it: the first iterate that does not
    decrease ends it.  Both the start and the steps read h through
    g(s) = h(s) / s = (N-2) A / s + N B - (N+alpha) Q s^(alpha/2), which has
    the sign of h but does not underflow where s is tiny, and the step
    s - h / h' is s - s (g / h').  The start is the least s = 4^k with
    g(s) <= 0, found by bisecting k on the bracket [-511, 39], so a root
    is started within a factor 4 of it.  The bracket closes only when
    g(4^-511) > 0 >= g(4^39), with g and h' finite at the start; otherwise
    there is no root t in (2^-511, 2^39] and it is refused on either side:
    a planar (2B / ((2+alpha) Q))^(1/alpha) past 2^39 or below 2^-511.
    """
    # Python floats: c0 / s past the float range is inf, with no warning
    a, b, q, alpha = float(state.A), float(state.B), float(state.Q), float(alpha)
    c0, c1, c2, p = (dim - 2) * a, dim * b, (dim + alpha) * q, 1.0 + 0.5 * alpha

    def g_slope(s):
        w = c2 * s ** (0.5 * alpha)
        return c0 / s + c1 - w, c1 - p * w

    lo, hi = -511, 39  # g(4^lo) > 0 >= g(4^hi) while the bracket is closed
    closed = (0.0 <= a < math.inf and 0.0 < b < math.inf and 0.0 < q < math.inf
              and g_slope(4.0 ** lo)[0] > 0.0 >= g_slope(4.0 ** hi)[0])
    while closed and hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if g_slope(4.0 ** mid)[0] <= 0.0 else (mid, hi)
    s = 4.0 ** hi
    g, slope = g_slope(s)
    if not (closed and -math.inf < g and -math.inf < slope < 0.0):
        raise NonpositiveQ(f"no finite Pohozaev root, the bracket did not close: "
                           f"A = {a:g}, B = {b:g}, Q = {q:g}")
    while (nxt := s - s * (g / slope)) < s:
        s = nxt
        g, slope = g_slope(s)
    return math.sqrt(s)


def ray_maximum(state: FunctionalState, dim: int, alpha: float) -> float:
    """a(t_u), the energy at the Pohozaev root of u's dilation ray and the
    maximum of a(t) over t > 0, from A, B and Q alone: no dilation."""
    t = pohozaev_root(state, dim, alpha)
    return 0.5 * (t ** (dim - 2) * state.A + t ** dim * state.B
                  - t ** (dim + alpha) * state.Q)
