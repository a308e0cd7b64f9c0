"""Energy, gradient and Pohozaev machinery tests."""

import numpy as np
import pytest
from scipy.optimize import brentq

from choquard.errors import NonpositiveQ, ParseError
from choquard.field import Field, GridSpec, _dst, dilate, x_dot_grad_array
from choquard.functionals import (
    Nonlinearity,
    _assemble,
    dilation_pohozaev,
    evaluate,
    evaluate_with_gradient,
    parse_nonlinearity,
    pohozaev_root,
    power,
    validate_hypotheses,
)
from choquard.riesz import RieszKernel


def smooth_random_field(grid, rng, width=2.0):
    data = rng.standard_normal(grid.shape) * np.exp(
        -grid.radius() ** 2 / width)
    return Field(grid, data)


# -- nonlinearity parsing -----------------------------------------------------

def test_parse_power():
    nl = parse_nonlinearity("power:p=2")
    assert nl.kind == "power"
    assert nl.exponents() == [2.0]
    assert nl.config_string() == "power:p=2"
    s = np.array([-2.0, 0.5, 3.0])
    np.testing.assert_allclose(nl.F(s), s ** 2)
    np.testing.assert_allclose(nl.f(s), 2.0 * s)


@pytest.mark.parametrize("nl,text", [(power(2.0, coeff=0.5), "sum:c1=0.5,p1=2"),
                                     (power(3.0), "power:p=3"),
                                     (power(7.0 / 3.0), f"power:p={7.0 / 3.0!r}")])
def test_config_string_parses_back_to_the_same_f(nl, text):
    assert nl.config_string() == text
    back = parse_nonlinearity(nl.config_string())
    s = np.array([-2.0, -0.3, 0.0, 0.5, 3.0])
    np.testing.assert_array_equal(back.F(s), nl.F(s))
    np.testing.assert_array_equal(back.f(s), nl.f(s))


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
        Nonlinearity("tabulated", table=([0.0, 1.0, 0.5], [0, 1, 2]))


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
    rep = validate_hypotheses(power(2.0), 3, 2.0)
    assert rep.ok
    assert rep.mu == pytest.approx(2.0)
    assert rep.critical_exponent == pytest.approx(5.0)


def test_hypotheses_fail_supercritical():
    rep = validate_hypotheses(power(6.0), 3, 2.0)
    assert not rep.f2
    assert any("(F2)" in v for v in rep.violations)


def test_hypotheses_fail_subquadratic():
    rep = validate_hypotheses(power(1.5), 3, 2.0)
    assert not rep.f1
    assert any("(F1)" in v for v in rep.violations)


def test_hypotheses_no_critical_exponent_in_2d():
    rep = validate_hypotheses(power(8.0), 2, 1.0)
    assert rep.f2
    assert np.isinf(rep.critical_exponent)


def test_hypotheses_tabulated_unverified():
    nl = Nonlinearity("tabulated", table=([0.0, 1.0, 2.0], [0.0, 2.0, 4.0]))
    with pytest.warns(UserWarning):
        rep = validate_hypotheses(nl, 3, 2.0)
    assert rep.status == "unverified"


# -- functional evaluation ----------------------------------------------------

@pytest.mark.parametrize("dim,alpha", [(2, 1.0), (3, 2.0)])
def test_euler_identity_links_e_and_p(dim, alpha):
    """(alpha+2) A + alpha B = 2 (N+alpha) E - 2 P, exactly in A, B, Q."""
    grid = GridSpec(dim, 16, 4.0)
    kern = RieszKernel(grid, alpha)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = smooth_random_field(grid, rng)
        st = evaluate(power(2.0), kern, u)
        lhs = (alpha + 2.0) * st.A + alpha * st.B
        rhs = 2.0 * (dim + alpha) * st.energy - 2.0 * st.pohozaev
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_energy_of_zero_field():
    grid = GridSpec(2, 16, 4.0)
    kern = RieszKernel(grid, 1.0)
    st = evaluate(power(2.0), kern, Field(grid, np.zeros(grid.shape)))
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
        ep = evaluate(nl, kern, Field(grid, u.data + eps * phi.data)).energy
        em = evaluate(nl, kern, Field(grid, u.data - eps * phi.data)).energy
        fd = (ep - em) / (2 * eps)
        assert abs(dd - fd) / max(abs(fd), 1e-12) <= 1e-5


@pytest.mark.parametrize("dim,M,L,alpha", [(2, 64, 8.0, 1.0), (3, 32, 6.0, 2.0)])
def test_discrete_ray_derivative_matches_dilated_energies(dim, M, L, alpha):
    """-<grad E_h(u), x . grad u>_h = d/dt E_h(u(./t)) at t = 1."""
    grid = GridSpec(dim, M, L)
    kern = RieszKernel(grid, alpha)
    nl = power(2.0)
    xs = grid.mesh()
    u = Field(grid, 1.5 * np.exp(-grid.radius() ** 2 / 2.0) * (1.0 + 0.2 * xs[0]))
    _, grad = evaluate_with_gradient(nl, kern, u)
    xgu = x_dot_grad_array(grid, _dst(u.data, grid.parity))
    p_h = -grid.cell_volume * np.sum(grad.data * xgu)
    eps = 1e-4
    ep = evaluate(nl, kern, dilate(u, 1.0 + eps)).energy
    em = evaluate(nl, kern, dilate(u, 1.0 - eps)).energy
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
