"""Energy and Pohozaev functionals for -Delta u + u = (I_alpha * F(u)) F'(u).

With A = int |grad u|^2, B = int u^2 and Q = int (I_alpha * F(u)) F(u):

    E(u) = (A + B)/2 - Q/2
    P(u) = (N-2) A / 2 + N B / 2 - (N + alpha) Q / 2

Along the dilation path t -> u(./t) these become polynomials in t,

    a(t) = t^(N-2) A/2 + t^N B/2 - t^(N+alpha) Q/2
    b(t) = P(u(./t)) = t a'(t),

and for Q > 0 the equation b(t) = 0 has a unique positive root t_u, the
projection of u onto the Pohozaev manifold.  For N = 2 the root is the
closed form (2B / ((2+alpha) Q))^(1/alpha).

This module is the one evaluation core: the solver, `evaluate` and
`choquard verify` all take A, B, Q, the gradient and the residuals from
the array functions `_state_parts`, `_gradient_from_parts` and
`residuals`, on the grid the caller passes, which names the folded
axes: the solver's half grid, or the field's `field.exact_half` in
`evaluate`, which unfolds the gradient from it.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import GridMismatch, NoDescent, NonpositiveQ, ParseError
from .field import Field, _dst, _idst, exact_half, sine_multipliers
from .riesz import RieszKernel


@dataclass(frozen=True)
class PowerTerm:
    coeff: float
    exponent: float


class Nonlinearity:
    """Even F and f = F' for power sums or a tabulated monotone-cubic profile.

    F is even, so the energy is invariant under u -> psi(g) u o g^-1 and the
    sign-equivariant classes are natural constraints (Palais, Comm. Math.
    Phys. 69, 1979); a table gives F on s >= 0 and is read at |s|.
    """

    def __init__(self, kind, terms=(), table=None, config=None):
        self.kind = kind
        self.terms = tuple(terms)
        self._config = config
        if not np.all(np.isfinite([(t.coeff, t.exponent) for t in self.terms])):
            raise ParseError("nonlinearity coefficients and exponents must be finite")
        if kind == "tabulated":
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
            self._interp = PchipInterpolator(s_vals, f_vals, extrapolate=True)
            self._dinterp = self._interp.derivative()
        elif kind not in ("power", "sum"):
            raise ParseError(f"unknown nonlinearity kind {kind!r}")

    def F(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "tabulated":
            return self._interp(np.abs(s))
        out = np.zeros_like(s)
        for t in self.terms:
            out += t.coeff * _abs_power(s, t.exponent)
        return out

    def f(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "tabulated":
            return self._dinterp(np.abs(s)) * np.sign(s)
        out = np.zeros_like(s)
        for t in self.terms:
            out += t.coeff * t.exponent * np.copysign(_abs_power(s, t.exponent - 1.0), s)
        return out

    def exponents(self):
        return [t.exponent for t in self.terms]

    def config_string(self) -> str:
        if self._config is not None:
            return self._config
        if self.kind == "power" and self.terms[0].coeff == 1.0:
            return f"power:p={_num(self.terms[0].exponent)}"
        if self.kind in ("power", "sum"):
            parts = [
                f"c{i+1}={_num(t.coeff)},p{i+1}={_num(t.exponent)}"
                for i, t in enumerate(self.terms)
            ]
            return "sum:" + ";".join(parts)
        return "tabulated"


def _abs_power(s, p):
    """|s|^p; for p = 1 and 2 without the per-element pow call of **."""
    if p == 2.0:
        return np.square(s)
    if p == 1.0:
        return np.abs(s)
    return np.abs(s) ** p


def _num(x: float) -> str:
    """Short form of x that parses back to x exactly."""
    return f"{x:g}" if float(f"{x:g}") == x else repr(x)


def power(p: float, coeff: float = 1.0) -> Nonlinearity:
    return Nonlinearity("power", [PowerTerm(coeff, p)])


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
        return Nonlinearity("power", [PowerTerm(1.0, p)], config=text)
    if kind == "sum":
        terms = []
        for i, chunk in enumerate(body.split(";"), start=1):
            kv = pairs(chunk)
            if set(kv) != {f"c{i}", f"p{i}"}:
                raise ParseError(f"sum term {i} must provide c{i} and p{i} "
                                 f"and nothing else, got {chunk!r}")
            try:
                terms.append(PowerTerm(float(kv[f"c{i}"]), float(kv[f"p{i}"])))
            except ValueError:
                raise ParseError(f"bad number in sum term {chunk!r}") from None
        return Nonlinearity("sum", terms, config=text)
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
        return Nonlinearity("tabulated", table=(s_vals, f_vals), config=text)
    raise ParseError(f"unknown nonlinearity kind {kind!r}")


# -- structural hypotheses ----------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    """Status of (F0)-(F2); a violation of (F0) shows in violations."""

    f1: bool
    f2: bool
    mu: float
    critical_exponent: float
    status: str
    violations: tuple = dc_field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_hypotheses(nl: Nonlinearity, dim: int, alpha: float) -> HypothesisReport:
    """Check growth hypotheses symbolically from the declared exponents.

    Tabulated profiles carry no symbolic data; they are passed through with
    status 'unverified' and a warning.
    """
    crit = (dim + alpha) / (dim - 2) if dim > 2 else float("inf")
    if nl.kind == "tabulated":
        warnings.warn(
            "tabulated nonlinearity: growth hypotheses not verifiable",
            stacklevel=2,
        )
        return HypothesisReport(True, True, 0.0, crit, "unverified")

    violations = []
    coeffs = np.array([t.coeff for t in nl.terms])
    exps = np.array([t.exponent for t in nl.terms])

    if not np.any(coeffs != 0.0):
        violations.append("(F0): F vanishes identically")

    mu = float(2.0 * coeffs[exps == 2.0].sum())
    f1 = bool(exps.size) and bool(exps.min() >= 2.0) and mu >= 0.0
    if exps.size and exps.min() < 2.0:
        violations.append(
            f"(F1): exponent {exps.min():g} < 2 makes f(s)/s blow up at 0"
        )
    elif mu < 0.0:
        violations.append(f"(F1): limit f(s)/s = {mu:g} is negative")

    max_exp = float(exps.max()) if exps.size else 0.0
    f2 = max_exp < crit
    if not f2:
        violations.append(
            f"(F2): exponent {max_exp:g} >= critical {crit:g}"
        )
    return HypothesisReport(f1, f2, mu, crit, "verified", tuple(violations))


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
    and its parts.  The zero field never gets there."""
    for doubling in range(60):
        if doubling:
            a = 2.0 * a
            parts = _state_parts(nl, kernel, a, grid)
        if parts[0].Q > 0.0:
            return a, parts
    raise NonpositiveQ("could not reach Q > 0 by amplitude doubling")


def _l2_norm(grid, a):
    return float(np.sqrt(grid.weight * np.sum(a ** 2)))


def residuals(grid, state, grad, a):
    """Gradient residual ||grad||/||u|| and Pohozaev residual |P|/(A + B)."""
    scale = state.A + state.B
    if not (0.0 < scale < np.inf):
        raise NoDescent(f"iterate drained: A + B = {scale:g}")
    denom = _l2_norm(grid, a)
    grad_res = _l2_norm(grid, grad) / denom if denom else np.inf
    return grad_res, abs(state.pohozaev) / scale


# -- dilation path ------------------------------------------------------------

def dilation_pohozaev(t: float, state: FunctionalState, dim: int,
                      alpha: float) -> float:
    """b(t) = P(u(./t)) = t a'(t)."""
    return (
        0.5 * (dim - 2) * t ** (dim - 2) * state.A
        + 0.5 * dim * t ** dim * state.B
        - 0.5 * (dim + alpha) * t ** (dim + alpha) * state.Q
    )


def pohozaev_root(state: FunctionalState, dim: int, alpha: float) -> float:
    """Unique t with b(t) = 0, requiring Q > 0 and the root finite."""
    if not (state.Q > 0.0):
        raise NonpositiveQ(f"Q = {state.Q:g} is not positive")
    if dim == 2:
        try:
            t = (2.0 * state.B / ((2.0 + alpha) * state.Q)) ** (1.0 / alpha)
        except OverflowError:
            t = np.inf
        if not t < np.inf:
            raise NonpositiveQ(f"no finite Pohozaev root: B = {state.B:g}, "
                               f"Q = {state.Q:g}")
        return t
    lo = 1e-3
    hi = 1.0
    while dilation_pohozaev(hi, state, dim, alpha) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise NonpositiveQ("Pohozaev root bracket did not close")
    if dilation_pohozaev(lo, state, dim, alpha) <= 0.0:
        lo = 1e-12
    return float(
        brentq(
            lambda t: dilation_pohozaev(t, state, dim, alpha),
            lo,
            hi,
            xtol=1e-14,
            rtol=8.9e-16,
        )
    )


def ray_maximum(state: FunctionalState, dim: int, alpha: float) -> float:
    """a(t_u), the energy at the Pohozaev root of u's dilation ray and the
    maximum of a(t) over t > 0, from A, B and Q alone: no dilation."""
    t = pohozaev_root(state, dim, alpha)
    return 0.5 * (t ** (dim - 2) * state.A + t ** dim * state.B
                  - t ** (dim + alpha) * state.Q)
