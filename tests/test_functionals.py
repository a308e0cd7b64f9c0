"""Energy, gradient and Pohozaev machinery tests."""

import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from choquard import functionals
from choquard.errors import NoDescent, NonpositiveQ, ParseError
from choquard.field import Field, GridSpec, _dst, dilate, x_dot_grad_array
from choquard.functionals import (
    Nonlinearity,
    _assemble,
    evaluate_with_gradient,
    parse_nonlinearity,
    pohozaev_root,
    power,
    ray_maximum,
    residuals,
    validate_hypotheses,
)
from choquard.riesz import RieszKernel
from helpers import dilation_pohozaev, node_mesh

ROOT = Path(__file__).resolve().parents[1]


def smooth_random_field(grid, rng, width=2.0):
    data = rng.standard_normal(grid.shape) * np.exp(
        -grid.radius() ** 2 / width)
    return Field(grid, data)


# -- nonlinearity parsing -----------------------------------------------------

def _signed_decades():
    """10^6 values of either sign over 17 decades, led by +0 and -0."""
    rng = np.random.default_rng(17)
    s = np.sign(rng.standard_normal(10 ** 6)) * 10.0 ** rng.uniform(-8.5, 8.5, 10 ** 6)
    s[:2] = [0.0, -0.0]
    return s


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_power_without_pow_matches_the_pow_form_bit_for_bit(p):
    """F and f skip pow for |s|^2 and |s|^1 and still equal the ** form,
    over 17 decades and at +0 and -0."""
    s = _signed_decades()
    nl = power(p)
    F_pow = np.zeros_like(s) + np.abs(s) ** p
    f_pow = np.zeros_like(s) + p * np.copysign(np.abs(s) ** (p - 1.0), s)
    assert np.array_equal(nl.F(s).view(np.int64), F_pow.view(np.int64))
    assert np.array_equal(nl.f(s).view(np.int64), f_pow.view(np.int64))


def test_cube_without_pow_matches_the_pow_form_to_rounding():
    """|s|^3 is |s| s^2, two roundings where pow makes one: F and f of
    power:p=3, and f of power:p=4, which reads |s|^3, keep the ** form to
    1e-15 relative over 17 decades, and are exactly zero at +0 and -0."""
    s = _signed_decades()
    cube = np.abs(s) ** 3.0
    np.testing.assert_allclose(power(3.0).F(s), cube, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(power(3.0).f(s), 3.0 * np.copysign(np.abs(s) ** 2.0, s),
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(power(4.0).f(s), 4.0 * np.copysign(cube, s),
                               rtol=1e-15, atol=0.0)


def test_parse_power():
    nl = parse_nonlinearity("power:p=2")
    assert nl.table is None
    assert nl.terms == {2.0: 1.0}
    assert nl.config == "power:p=2"
    s = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_allclose(nl.F(s), s ** 2)
    np.testing.assert_allclose(nl.f(s), 2.0 * s)


@pytest.mark.parametrize("nl,text", [(parse_nonlinearity("sum:c1=0.5,p1=2"),
                                      "sum:c1=0.5,p1=2"),
                                     (power(3.0), "power:p=3"),
                                     (power(7.0 / 3.0), f"power:p={7.0 / 3.0!r}")])
def test_config_string_parses_back_to_the_same_f(nl, text):
    assert nl.config == text
    back = parse_nonlinearity(nl.config)
    s = np.array([-2.0, -0.3, 0.0, 0.5, 3.0])
    np.testing.assert_array_equal(back.F(s), nl.F(s))
    np.testing.assert_array_equal(back.f(s), nl.f(s))


def test_a_zero_term_is_not_evaluated():
    """The zero |s|^400 term is dropped from the held form, so F and f
    equal s^2's bit for bit where |s|^400 would overflow."""
    nl = parse_nonlinearity("sum:c1=1,p1=2;c2=0,p2=400")
    s = np.linspace(-1e3, 1e3, 2001)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        F, f = nl.F(s), nl.f(s)
    assert np.array_equal(F.view(np.int64), power(2.0).F(s).view(np.int64))
    assert np.array_equal(f.view(np.int64), power(2.0).f(s).view(np.int64))


def test_equal_exponents_are_held_summed():
    assert parse_nonlinearity("sum:c1=0.5,p1=2;c2=0.5,p2=2").terms == {2.0: 1.0}


def test_parse_sum():
    nl = parse_nonlinearity("sum:c1=1,p1=2;c2=0.5,p2=3")
    s = np.array([-1.5, 0.25, 2.0])
    np.testing.assert_allclose(nl.F(s), s ** 2 + 0.5 * np.abs(s) ** 3)
    np.testing.assert_allclose(
        nl.f(s), 2.0 * s + 1.5 * np.abs(s) * s)


def test_parse_tabulated(tmp_path):
    path = tmp_path / "profile.csv"
    s = np.linspace(0.0, 4.0, 41)
    rows = "\n".join(f"{x},{x * x}" for x in s)
    path.write_text("# s, F\n" + rows + "\n")
    nl = parse_nonlinearity(f"tabulated:file={path}")
    probe = np.array([-1.3, 0.7, 2.4])
    np.testing.assert_allclose(nl.F(probe), probe ** 2, atol=1e-10)
    # f comes from the derivative of the monotone cubic, accurate to O(h^2)
    np.testing.assert_allclose(nl.f(probe), 2 * probe, atol=2e-2)


@pytest.mark.parametrize("text", [
    "power",              # no separator
    "power:q=2",          # wrong key
    "power:p=abc",        # not a number
    "power:p=2,junk=1",   # extra key
    "sum:c1=1",           # missing exponent
    "sum:c2=1,p2=2",      # wrong index
    "tabulated:even=true",  # no file
    # F is always even: any key besides file is refused before the file is read
    "tabulated:file=absent.csv,evn=",
    "tabulated:file=absent.csv,even=false",
    "tabulated:file=absent.csv,even=true",
    "mystery:p=2",        # unknown kind
    "power:p=nan",        # non-finite exponent
    "sum:c1=inf,p1=2",    # non-finite coefficient
    "sum:c1=nan,p1=2",    # NaN coefficient, which no hypothesis branch trips
    "power:p=2,p=3",      # repeated key
    "sum:c1=1,p1=2,c1=3",
    "sum:c1=1,p1=2,x=5",  # extra key in a sum term
    "tabulated:file=a,file=b",
])
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_nonlinearity(text)


@pytest.mark.parametrize("row", ["nan,1.0", "2.0,nan", "inf,4.0"])
def test_tabulated_rejects_non_finite_samples(tmp_path, row):
    path = tmp_path / "profile.csv"
    path.write_text("0.0,0.0\n0.5,0.25\n1.0,1.0\n" + row + "\n")
    with pytest.raises(ParseError, match="finite"):
        parse_nonlinearity(f"tabulated:file={path}")


def test_tabulated_must_start_at_zero(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    with pytest.raises(ParseError, match="start at s = 0"):
        parse_nonlinearity(f"tabulated:file={path}")


def test_tabulated_requires_increasing_samples():
    with pytest.raises(ParseError):
        Nonlinearity(table=([0.0, 1.0, 0.5], [0, 1, 2]), config="tabulated")


def test_f_is_derivative_of_big_f():
    nl = parse_nonlinearity("sum:c1=1,p1=2;c2=0.3,p2=4")
    s = np.linspace(-2.0, 2.0, 17)
    eps = 1e-6
    fd = (nl.F(s + eps) - nl.F(s - eps)) / (2 * eps)
    np.testing.assert_allclose(nl.f(s), fd, atol=1e-8)


@pytest.mark.parametrize("nl", [power(1.5), power(1.8),
                                parse_nonlinearity("sum:c1=1,p1=2;c2=0.5,p2=1.5")])
def test_f_vanishes_at_zero_below_exponent_two(nl):
    s = np.array([0.0, -0.0, 1e-300, -0.3, 2.0])
    out = nl.f(s)
    assert out[0] == 0.0 and out[1] == 0.0
    assert np.all(np.isfinite(out))


# -- hypothesis validation ----------------------------------------------------

def test_hypotheses_pass_for_quadratic():
    assert validate_hypotheses(power(2.0), 3, 2.0) == ()


def test_hypotheses_fail_supercritical():
    assert validate_hypotheses(power(6.0), 3, 2.0) == (
        "(F2): exponent 6 >= critical 5",)


def test_hypotheses_fail_subquadratic():
    assert validate_hypotheses(power(1.5), 3, 2.0) == (
        "(F1): exponent 1.5 < 2 makes f(s)/s blow up at 0",)


def test_hypotheses_fail_negative_quadratic_limit():
    nl = parse_nonlinearity("sum:c1=-1,p1=2;c2=1,p2=3")
    assert validate_hypotheses(nl, 3, 2.0) == (
        "(F1): limit f(s)/s = -2 is negative",)


def test_hypotheses_no_critical_exponent_in_2d():
    assert validate_hypotheses(power(8.0), 2, 1.0) == ()


def test_hypotheses_tabulated_unverified():
    nl = Nonlinearity(table=([0.0, 1.0, 2.0], [0.0, 2.0, 4.0]), config="tabulated")
    with pytest.warns(UserWarning):
        assert validate_hypotheses(nl, 3, 2.0) == ()


@pytest.mark.parametrize("text", ["sum:c1=1,p1=2;c2=0,p2=1.5",
                                  "sum:c1=1,p1=2;c2=1,p2=1.5;c3=-1,p3=1.5"])
def test_hypotheses_judge_f_not_its_terms(text):
    """Terms whose coefficients sum to zero are not part of F = s^2."""
    assert validate_hypotheses(parse_nonlinearity(text), 3, 2.0) == ()


@pytest.mark.parametrize("nl", [parse_nonlinearity(text) for text in (
    "sum:c1=0,p1=2", "sum:c1=0,p1=1.5", "sum:c1=1,p1=2;c2=-1,p2=2",
    "sum:c1=0,p1=2;c2=0,p2=3")])
def test_hypotheses_f0_fires_when_f_vanishes(nl):
    assert validate_hypotheses(nl, 3, 2.0) == ("(F0): F vanishes identically",)


# -- functional evaluation ----------------------------------------------------

@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (3, 2.0)])
def test_euler_identity_links_e_and_p(dim, alpha):
    """(alpha+2) A + alpha B = 2 (N+alpha) E - 2 P, exactly in A, B, Q."""
    grid = GridSpec(dim, 16, 4.0)
    kern = RieszKernel(grid, alpha)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = smooth_random_field(grid, rng)
        st = evaluate_with_gradient(power(2.0), kern, u)[0]
        lhs = (alpha + 2.0) * st.A + alpha * st.B
        rhs = 2.0 * (dim + alpha) * st.energy - 2.0 * st.pohozaev
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_energy_of_zero_field():
    grid = GridSpec(2, 16, 4.0)
    kern = RieszKernel(grid, 1.0)
    st, _ = evaluate_with_gradient(power(2.0), kern, Field(grid, np.zeros(grid.shape)))
    assert st.A == st.B == st.Q == st.energy == 0.0


@pytest.mark.parametrize("dim,alpha,nl_text", [
    (3, 2.0, "power:p=2"),
    (2, 1.0, "power:p=2"),
    (2, 1.0, "sum:c1=1,p1=2;c2=0.25,p2=3"),
])
def test_gradient_matches_finite_differences(dim, alpha, nl_text):
    """Directional derivatives against central differences, 20 pairs."""
    grid = GridSpec(dim, 16 if dim == 3 else 32, 5.0)
    kern = RieszKernel(grid, alpha)
    nl = parse_nonlinearity(nl_text)
    rng = np.random.default_rng(42)
    vol = grid.cell_volume
    for _ in range(20):
        u = smooth_random_field(grid, rng)
        phi = smooth_random_field(grid, rng)
        st, grad = evaluate_with_gradient(nl, kern, u)
        dd = float(np.sum(grad.data * phi.data) * vol)
        eps = 1e-5
        ep = evaluate_with_gradient(
            nl, kern, Field(grid, u.data + eps * phi.data))[0].energy
        em = evaluate_with_gradient(
            nl, kern, Field(grid, u.data - eps * phi.data))[0].energy
        fd = (ep - em) / (2 * eps)
        assert abs(dd - fd) / max(abs(fd), 1e-12) <= 1e-5


@pytest.mark.parametrize("dim,M,L,alpha", [(2, 64, 8.0, 1.0), (3, 32, 6.0, 2.0)])
def test_discrete_ray_derivative_matches_dilated_energies(dim, M, L, alpha):
    """-<grad E_h(u), x . grad u>_h = d/dt E_h(u(./t)) at t = 1."""
    grid = GridSpec(dim, M, L)
    kern = RieszKernel(grid, alpha)
    nl = power(2.0)
    xs = node_mesh(grid)
    u = Field(grid, 1.5 * np.exp(-grid.radius() ** 2 / 2.0) * (1.0 + 0.2 * xs[0]))
    _, grad = evaluate_with_gradient(nl, kern, u)
    xgu = x_dot_grad_array(grid, _dst(u.data, grid.parity))
    p_h = -grid.cell_volume * np.sum(grad.data * xgu)
    eps = 1e-4
    ep, em = (evaluate_with_gradient(nl, kern, Field(grid, dilate(grid, u.data, t)))[0].energy
              for t in (1.0 + eps, 1.0 - eps))
    assert p_h == pytest.approx((ep - em) / (2 * eps), rel=1e-6)


# -- dilation path and Pohozaev root ------------------------------------------

def dilation_energy(t, state, dim, alpha):
    """a(t) = E(u(./t)) from the exact scaling of A, B, Q."""
    return (
        0.5 * t ** (dim - 2) * state.A
        + 0.5 * t ** dim * state.B
        - 0.5 * t ** (dim + alpha) * state.Q
    )


def test_dilation_pohozaev_is_t_times_derivative():
    st = _assemble(3, 2.0, 1.7, 2.3, 1.1)
    for t in (0.5, 1.0, 1.8):
        eps = 1e-7
        da = (dilation_energy(t + eps, st, 3, 2.0)
              - dilation_energy(t - eps, st, 3, 2.0)) / (2 * eps)
        assert dilation_pohozaev(t, st, 3, 2.0) == pytest.approx(
            t * da, rel=1e-6)


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (2, 0.5), (3, 2.0), (3, 1.0)])
def test_pohozaev_root_zeroes_beta(dim, alpha):
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b, q = rng.uniform(0.1, 5.0, size=3)
        st = _assemble(dim, alpha, a, b, q)
        t = pohozaev_root(st, dim, alpha)
        assert t > 0
        beta = dilation_pohozaev(t, st, dim, alpha)
        assert abs(beta) <= 1e-10 * (st.A + st.B)


def test_closed_form_matches_bracketed_root_n2():
    """The planar closed form agrees with an independent bracketed solve."""
    rng = np.random.default_rng(10)
    for alpha in (0.5, 1.0, 1.5):
        for _ in range(5):
            a, b, q = rng.uniform(0.1, 5.0, size=3)
            st = _assemble(2, alpha, a, b, q)
            t_closed = pohozaev_root(st, 2, alpha)
            t_num = brentq(lambda t: dilation_pohozaev(t, st, 2, alpha),
                           1e-6, 1e6, xtol=1e-15, rtol=8.9e-16)
            assert t_closed == pytest.approx(t_num, abs=1e-10)


@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (3, 2.0)])
def test_zero_pohozaev_state_has_unit_root(dim, alpha):
    # assemble A from B and Q so that P vanishes identically
    b, q = 2.0, 1.7
    if dim == 2:
        b = (2.0 + alpha) * q / 2.0
        a = 3.1
    else:
        a = (dim + alpha) * q - dim * b
        assert a > 0
    st = _assemble(dim, alpha, a, b, q)
    assert abs(st.pohozaev) < 1e-12
    assert pohozaev_root(st, dim, alpha) == pytest.approx(1.0, abs=1e-6)


def test_root_requires_positive_q():
    st = _assemble(3, 2.0, 1.0, 1.0, 0.0)
    with pytest.raises(NonpositiveQ):
        pohozaev_root(st, 3, 2.0)
    st = _assemble(3, 2.0, 1.0, 1.0, -0.5)
    with pytest.raises(NonpositiveQ):
        pohozaev_root(st, 3, 2.0)


@pytest.mark.parametrize("dim,alpha", [(3, 2.0), (2, 1.0)])
@pytest.mark.parametrize("abq", [(0.0, 0.0, 1.0), (1.0, 1.0, np.inf),
                                 (np.nan, 1.0, 1.0)])
def test_root_of_a_state_without_a_bracket_is_rejected(abq, dim, alpha):
    """No sign change of b, an infinite Q or a NaN is no Pohozaev root:
    NonpositiveQ, which the line search and the start scan reject.  In 2D
    B = 0 and Q = inf give no t = 0, which the dilation would refuse."""
    st = _assemble(dim, alpha, *abq)
    with pytest.raises(NonpositiveQ, match="bracket did not close"):
        pohozaev_root(st, dim, alpha)


def test_3d_root_matches_brentq():
    """The 3D Newton root agrees with scipy's bracketed solve, run to its
    tightest tolerance, on A, B, Q in e^[-6, 6] and alpha in (0, 3); a state
    whose root lies past the bracket's upper end, t = 2^39, raises
    NonpositiveQ."""
    rng = np.random.default_rng(20)
    closed = rejected = 0
    for _ in range(2000):
        a, b, q = (float(x) for x in np.exp(rng.uniform(-6.0, 6.0, size=3)))
        alpha = float(rng.uniform(0.0, 3.0))
        st = _assemble(3, alpha, a, b, q)
        beta = lambda t: dilation_pohozaev(t, st, 3, alpha)  # noqa: E731
        if beta(2.0 ** 39) > 0.0:
            with pytest.raises(NonpositiveQ):
                pohozaev_root(st, 3, alpha)
            rejected += 1
            continue
        t_ref = brentq(beta, 1e-12, 2.0 ** 39, xtol=1e-300, rtol=8.9e-16,
                       maxiter=500)
        assert pohozaev_root(st, 3, alpha) == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        closed += 1
    assert closed > 1500 and rejected > 0


def test_root_matches_the_planar_closed_form():
    """In 2D the Newton root agrees with (2B / ((2 + alpha) Q))^(1/alpha)
    on A, B, Q in e^[-6, 6] and alpha in [0.05, 2); a root past t = 2^39
    raises NonpositiveQ."""
    rng = np.random.default_rng(22)
    closed = rejected = 0
    for _ in range(2000):
        a, b, q = (float(x) for x in np.exp(rng.uniform(-6.0, 6.0, size=3)))
        alpha = float(rng.uniform(0.05, 2.0))
        st = _assemble(2, alpha, a, b, q)
        t_ref = (2.0 * b / ((2.0 + alpha) * q)) ** (1.0 / alpha)
        if t_ref > 2.0 ** 39:
            with pytest.raises(NonpositiveQ):
                pohozaev_root(st, 2, alpha)
            rejected += 1
            continue
        assert pohozaev_root(st, 2, alpha) == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        closed += 1
    assert closed > 1500 and rejected > 0


def _newton_steps(state, dim, alpha):
    """pohozaev_root's value and its count of Newton steps: the executions
    of the loop line that computes the next iterate, less the final test."""
    lines, first = inspect.getsourcelines(pohozaev_root)
    step = first + next(i for i, text in enumerate(lines) if "nxt :=" in text)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == step:
            hits.append(None)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is pohozaev_root.__code__ else None

    sys.settrace(trace)
    try:
        t = pohozaev_root(state, dim, alpha)
    finally:
        sys.settrace(None)
    return t, len(hits) - 1


def test_a_root_far_below_one_takes_few_newton_steps():
    """A planar root near t = 1e-64 is started within a factor 4 of it and
    reached in at most 15 Newton steps, where a start at s = 1 takes 94."""
    alpha = 0.061
    st = _assemble(2, alpha, 0.0, 0.0169, 122.3)
    t, steps = _newton_steps(st, 2, alpha)
    t_ref = (2.0 * st.B / ((2.0 + alpha) * st.Q)) ** (1.0 / alpha)
    assert t_ref < 1e-63
    assert t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
    assert steps <= 15


@pytest.mark.parametrize("dim,alpha,abq", [
    (2, 1.0, (1.0, 1e-300, 1e300)),
    (2, 0.15001478311613775, (1.0, 4.012326892294105e-21, 537324601304090.94)),
    (3, 2.0, (0.0, 1e-300, 1e300)),
])
def test_root_below_the_bracket_is_refused(dim, alpha, abq):
    """A root t at or below 2^-511, the lower end of the bracket, is
    refused as one past 2^39 is, not returned as 0.0 or a wrong tiny root
    (the 3D root here is about 7.7e-301)."""
    st = _assemble(dim, alpha, *abq)
    with pytest.raises(NonpositiveQ, match="no finite Pohozaev root"):
        pohozaev_root(st, dim, alpha)


@pytest.mark.parametrize("alpha,abq", [
    (0.552045144878999, (1.0, 5.210099069683936e-286, 3.37802132832591e-262)),
    (1.4873544403380365, (1.0, 3.566208961178119e-46, 4.797160083995002e+154)),
])
def test_tiny_planar_root_inside_the_bracket_is_exact(alpha, abq):
    """Where b(t) = t^2 B - ... underflows, g = h / s still has the sign
    of h: a planar root inside the bracket matches the closed form."""
    st = _assemble(2, alpha, *abq)
    t_ref = (2.0 * st.B / ((2.0 + alpha) * st.Q)) ** (1.0 / alpha)
    assert 2.0 ** -511 < t_ref < 1e-40
    assert pohozaev_root(st, 2, alpha) == pytest.approx(t_ref, rel=1e-12, abs=0.0)


def test_import_loads_neither_optimize_nor_interpolate(tmp_path):
    """`import choquard` keeps scipy.optimize and scipy.interpolate, with
    the linalg and sparse stacks they load, out of the process; a tabulated
    F still parses and evaluates, importing its interpolator when built."""
    table = tmp_path / "profile.csv"
    table.write_text("\n".join(f"{x},{x * x}" for x in np.linspace(0, 4, 41)))
    script = "\n".join([
        "import json, sys",
        "import choquard",
        "loaded = [m for m in ('scipy.optimize', 'scipy.interpolate')",
        "          if m in sys.modules]",
        "nl = choquard.functionals.parse_nonlinearity("
        f"{'tabulated:file=' + str(table)!r})",
        "print(json.dumps([loaded, float(nl.F(1.5)), float(nl.f(-1.5))]))",
    ])
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    loaded, big_f, small_f = json.loads(proc.stdout)
    assert loaded == []
    assert big_f == pytest.approx(2.25, abs=1e-10)
    assert small_f == pytest.approx(-3.0, abs=2e-2)


@pytest.mark.parametrize("B,Q", [(1e200, 1.0), (1e300, 1e-300)])
def test_planar_root_that_overflows_is_rejected(B, Q):
    """A root (2B / ((2 + alpha) Q))^(1/alpha) past the float range lies
    beyond the t = 2^39 bracket, or makes b overflow there: no Pohozaev
    root."""
    st = _assemble(2, 0.5, 1.0, B, Q)
    with pytest.raises(NonpositiveQ, match="no finite Pohozaev root"):
        pohozaev_root(st, 2, 0.5)


@pytest.mark.parametrize("dim,alpha,abq,t_root,level", [
    # 2D: t = (2 * 6 / (3 * 1))^1 = 4, a(4) = (2 + 16 * 6 - 64 * 1) / 2 = 17
    (2, 1.0, (2.0, 6.0, 1.0), 4.0, 17.0),
    # 3D: A/2 + (3/2) t^2 B - (5/2) t^4 Q = 4 + 6 - 10 = 0 at t = 2,
    # a(2) = (2 * 8 + 8 * 1 - 32 * 0.25) / 2 = 8
    (3, 2.0, (8.0, 1.0, 0.25), 2.0, 8.0),
])
def test_ray_maximum_is_the_energy_at_the_root(dim, alpha, abq, t_root, level):
    st = _assemble(dim, alpha, *abq)
    assert pohozaev_root(st, dim, alpha) == pytest.approx(t_root, rel=1e-12)
    assert ray_maximum(st, dim, alpha) == pytest.approx(level, rel=1e-12)
    t = pohozaev_root(st, dim, alpha)
    assert ray_maximum(st, dim, alpha) == dilation_energy(t, st, dim, alpha)
    ts = np.linspace(0.05, 3.0, 600) * t_root
    assert max(dilation_energy(x, st, dim, alpha) for x in ts) <= level


def test_amplitude_doubling_reaches_positive_q(monkeypatch):
    """F = 0 on [0, 1] makes Q of a start below 1 exactly 0; one doubling
    lifts it past 1 and is evaluated once."""
    nl = Nonlinearity(table=([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 4.0]),
                      config="tabulated")
    kernel = RieszKernel(GridSpec(2, 32, 8.0), 1.0)
    half = GridSpec(2, 32, 8.0, parity=(1, 1))
    a = 0.8 * np.exp(-half.radius_sq() / 4.0)
    parts = functionals._state_parts(nl, kernel, a, half)
    assert parts[0].Q == 0.0
    calls = []
    state_parts = functionals._state_parts
    monkeypatch.setattr(functionals, "_state_parts",
                        lambda *args: calls.append(None) or state_parts(*args))
    doubled, (state, *_) = functionals._ensure_positive_q(nl, kernel, a, half, parts)
    assert np.array_equal(doubled, 2.0 * a)
    assert len(calls) == 1
    assert state.Q == pytest.approx(0.182, abs=5e-4)


def test_ray_maximum_needs_a_root():
    with pytest.raises(NonpositiveQ):
        ray_maximum(_assemble(3, 2.0, 1.0, 1.0, 0.0), 3, 2.0)


@pytest.mark.parametrize("a_val,b_val", [(0.0, 0.0), (np.inf, 1.0),
                                         (np.nan, 1.0)])
def test_residuals_name_a_drained_iterate(a_val, b_val):
    grid = GridSpec(2, 8, 2.0)
    st = _assemble(2, 1.0, a_val, b_val, 1.0)
    zero = np.zeros(grid.shape)
    with pytest.raises(NoDescent, match="drained"):
        residuals(grid, st, zero)


def test_dilation_ray_energy_has_interior_maximum():
    """a(t) rises to a single maximum at the root and falls after it."""
    st = _assemble(3, 2.0, 2.0, 1.5, 1.2)
    t_star = pohozaev_root(st, 3, 2.0)
    ts = np.linspace(0.2 * t_star, 2.5 * t_star, 200)
    vals = [dilation_energy(t, st, 3, 2.0) for t in ts]
    k = int(np.argmax(vals))
    assert ts[k] == pytest.approx(t_star, rel=2e-2)
    assert vals[k] >= dilation_energy(t_star * 0.2, st, 3, 2.0)
    assert vals[k] >= dilation_energy(t_star * 2.5, st, 3, 2.0)
