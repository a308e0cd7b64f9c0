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
the array functions `_state_parts`, `_gradient_from_parts`, `_q_parts`
and `residuals`.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

from .errors import GridMismatch, NonpositiveQ, ParseError
from .field import Field, _dst, _idst, sine_multipliers
from .riesz import RieszKernel


@dataclass(frozen=True)
class PowerTerm:
    coeff: float
    exponent: float


class Nonlinearity:
    """F and f = F' for power sums or a tabulated monotone-cubic profile."""

    def __init__(self, kind, terms=(), table=None, even=True, config=None):
        self.kind = kind
        self.terms = tuple(terms)
        self.even = even
        self._config = config
        if kind == "tabulated":
            s_vals, f_vals = table
            s_vals = np.asarray(s_vals, dtype=float)
            f_vals = np.asarray(f_vals, dtype=float)
            if s_vals.ndim != 1 or s_vals.size < 3:
                raise ParseError("tabulated nonlinearity needs >= 3 samples")
            if np.any(np.diff(s_vals) <= 0):
                raise ParseError("tabulated s values must be increasing")
            if even and s_vals[0] != 0.0:
                raise ParseError("even tabulated profile must start at s = 0")
            self._interp = PchipInterpolator(s_vals, f_vals, extrapolate=True)
            self._dinterp = self._interp.derivative()
        elif kind not in ("power", "sum"):
            raise ParseError(f"unknown nonlinearity kind {kind!r}")

    def F(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "tabulated":
            if self.even:
                return self._interp(np.abs(s))
            return self._interp(s)
        out = np.zeros_like(s)
        for t in self.terms:
            out += t.coeff * np.abs(s) ** t.exponent
        return out

    def f(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.kind == "tabulated":
            if self.even:
                return self._dinterp(np.abs(s)) * np.sign(s)
            return self._dinterp(s)
        out = np.zeros_like(s)
        for t in self.terms:
            out += t.coeff * t.exponent * np.abs(s) ** (t.exponent - 2.0) * s
        return out

    def exponents(self):
        return [t.exponent for t in self.terms]

    def config_string(self) -> str:
        if self._config is not None:
            return self._config
        if self.kind == "power":
            return f"power:p={self.terms[0].exponent:g}"
        if self.kind == "sum":
            parts = [
                f"c{i+1}={t.coeff:g},p{i+1}={t.exponent:g}"
                for i, t in enumerate(self.terms)
            ]
            return "sum:" + ";".join(parts)
        return "tabulated"


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
            key, eq, val = item.partition("=")
            if not eq:
                raise ParseError(f"bad nonlinearity entry {item!r}")
            out[key.strip()] = val.strip()
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
            try:
                terms.append(PowerTerm(float(kv[f"c{i}"]), float(kv[f"p{i}"])))
            except KeyError:
                raise ParseError(
                    f"sum term {i} must provide c{i} and p{i}"
                ) from None
            except ValueError:
                raise ParseError(f"bad number in sum term {chunk!r}") from None
        return Nonlinearity("sum", terms, config=text)
    if kind == "tabulated":
        kv = pairs(body)
        path = kv.get("file")
        if path is None:
            raise ParseError("tabulated nonlinearity needs file=<csv path>")
        even = kv.get("even", "true").lower() != "false"
        s_vals, f_vals = [], []
        with open(path) as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                s_vals.append(float(row[0]))
                f_vals.append(float(row[1]))
        return Nonlinearity("tabulated", table=(s_vals, f_vals), even=even,
                            config=text)
    raise ParseError(f"unknown nonlinearity kind {kind!r}")


# -- structural hypotheses ----------------------------------------------------

@dataclass(frozen=True)
class HypothesisReport:
    """Status of (F0)-(F2) and the stronger monotonicity pair (F'1)/(F'2)."""

    f0: bool
    f1: bool
    f2: bool
    fprime1: bool
    fprime2: bool
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
    if nl.kind == "tabulated":
        warnings.warn(
            "tabulated nonlinearity: growth hypotheses not verifiable",
            stacklevel=2,
        )
        crit = (dim + alpha) / (dim - 2) if dim > 2 else float("inf")
        return HypothesisReport(True, True, True, False, False, 0.0, crit,
                                "unverified")

    crit = (dim + alpha) / (dim - 2) if dim > 2 else float("inf")
    violations = []
    coeffs = np.array([t.coeff for t in nl.terms])
    exps = np.array([t.exponent for t in nl.terms])

    f0 = bool(np.any(coeffs != 0.0))
    if not f0:
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

    fprime1 = bool(exps.size) and bool(exps.min() > 2.0) and bool(
        np.all(coeffs > 0.0)
    )
    fprime2 = max_exp < crit
    return HypothesisReport(f0, f1, f2, fprime1, fprime2, mu, crit,
                            "verified", tuple(violations))


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
    _check_grid(kernel, u)
    return _state_parts(nl, kernel, u.data)[0]


def evaluate_with_gradient(nl, kernel, u):
    """State and gradient sharing one convolution and one sine transform."""
    _check_grid(kernel, u)
    state, coeff, conv = _state_parts(nl, kernel, u.data)
    return state, u.with_data(
        _gradient_from_parts(nl, kernel, u.data, coeff, conv))


def _q_parts(nl, kernel, a):
    """Q = int (I_alpha * F(u)) F(u) and the convolution behind it."""
    f_of_u = nl.F(a)
    conv = kernel.convolve_array(f_of_u)
    return float(kernel.grid.cell_volume * np.sum(conv * f_of_u)), conv


def _state_parts(nl, kernel, a):
    """FunctionalState of the array a plus its sine coefficients and convolution."""
    grid = kernel.grid
    coeff = _dst(a)
    a_val = float(grid.cell_volume * np.sum(sine_multipliers(grid) * coeff ** 2))
    b_val = float(grid.cell_volume * np.sum(a ** 2))
    q_val, conv = _q_parts(nl, kernel, a)
    state = _assemble(grid.dim, kernel.alpha, a_val, b_val, q_val)
    return state, coeff, conv


def _gradient_from_parts(nl, kernel, a, coeff, conv):
    """L^2 gradient -Delta u + u - (I_alpha * F(u)) f(u) from _state_parts."""
    lap = _idst(-sine_multipliers(kernel.grid) * coeff)
    return -lap + a - conv * nl.f(a)


def _ensure_positive_q(nl, kernel, a):
    """Double the amplitude until Q > 0; the zero field never gets there."""
    for _ in range(60):
        if _q_parts(nl, kernel, a)[0] > 0.0:
            return a
        a = 2.0 * a
    raise NonpositiveQ("could not reach Q > 0 by amplitude doubling")


def _l2_norm(grid, a):
    return float(np.sqrt(grid.cell_volume * np.sum(a ** 2)))


def residuals(grid, state, grad, a):
    """Gradient residual ||grad||/||u|| and Pohozaev residual |P|/(A + B)."""
    denom = _l2_norm(grid, a)
    grad_res = _l2_norm(grid, grad) / denom if denom else np.inf
    return grad_res, abs(state.pohozaev) / (state.A + state.B)


# -- dilation path ------------------------------------------------------------

def dilation_energy(t: float, state: FunctionalState, dim: int,
                    alpha: float) -> float:
    """a(t) = E(u(./t)) from the exact scaling of A, B, Q."""
    return (
        0.5 * t ** (dim - 2) * state.A
        + 0.5 * t ** dim * state.B
        - 0.5 * t ** (dim + alpha) * state.Q
    )


def dilation_pohozaev(t: float, state: FunctionalState, dim: int,
                      alpha: float) -> float:
    """b(t) = P(u(./t)) = t a'(t)."""
    return (
        0.5 * (dim - 2) * t ** (dim - 2) * state.A
        + 0.5 * dim * t ** dim * state.B
        - 0.5 * (dim + alpha) * t ** (dim + alpha) * state.Q
    )


def pohozaev_root(state: FunctionalState, dim: int, alpha: float) -> float:
    """Unique t with b(t) = 0, requiring Q > 0."""
    if not (state.Q > 0.0):
        raise NonpositiveQ(f"Q = {state.Q:g} is not positive")
    if dim == 2:
        return (2.0 * state.B / ((2.0 + alpha) * state.Q)) ** (1.0 / alpha)
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


def pohozaev_scale(nl: Nonlinearity, kernel: RieszKernel, u: Field,
                   state: FunctionalState = None):
    """Project u onto the Pohozaev manifold: return (t_u, u(./t_u))."""
    from .field import dilate

    if state is None:
        state = evaluate(nl, kernel, u)
    t = pohozaev_root(state, u.grid.dim, kernel.alpha)
    return t, dilate(u, t)
