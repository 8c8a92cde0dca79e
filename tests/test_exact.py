"""Exact quadratic-field arithmetic and closed-form moment sequences."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from freejacobi import (
    JacobiParams,
    Poly,
    chebyshev_U,
    moments,
    mu_lambda_theta,
    nu_lambda,
)
from freejacobi.exact import ONE, X, Quad
from helpers import (catalan, chebyshev_seq, mu_half_moments, nu_even_moment,
                     poly_allclose)

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


# ---------------------------------------------------------------------------
# Quad arithmetic


def test_quad_perfect_square_collapses():
    q = Quad(0, 1, 4)  # sqrt(4) = 2
    assert q.b == 0 and q.a == 2
    assert Quad(1, 3, Fraction(9, 16)) == Quad(1 + Fraction(9, 4))


def test_quad_basic_arithmetic():
    s = Quad(0, 1, 2)  # sqrt(2)
    assert (s * s) == Quad(2)
    assert (s + s) == Quad(0, 2, 2)
    assert (1 + s) * (1 - s) == Quad(-1)
    assert (s ** 4) == Quad(4)
    assert float(s) == pytest.approx(math.sqrt(2.0))


def test_quad_division():
    s = Quad(0, 1, 3)
    one = (1 + s) / (1 + s)
    assert one == Quad(1)
    # 1/(1+sqrt(3)) = (sqrt(3)-1)/2
    inv = 1 / (1 + s)
    assert inv == Quad(Fraction(-1, 2), Fraction(1, 2), 3)
    with pytest.raises(ZeroDivisionError):
        s / Quad(0)


def test_quad_incompatible_radicands():
    with pytest.raises(ValueError):
        Quad(0, 1, 2) + Quad(0, 1, 3)
    with pytest.raises(ValueError):
        Quad(0, 1, 2) * Quad(0, 1, 5)
    # rational operands join any field
    assert Quad(2) + Quad(0, 1, 7) == Quad(2, 1, 7)


def test_quad_joins_radicands_with_square_ratio():
    # sqrt(8) = 2 sqrt(2) and sqrt(1/2) = sqrt(2)/2 name the field Q(sqrt 2).
    r2, r8, rh = Quad(0, 1, 2), Quad(0, 1, 8), Quad(0, 1, Fraction(1, 2))
    assert r2 + r8 == Quad(0, 3, 2)
    assert r8 + r2 == Quad(0, Fraction(3, 2), 8)
    assert r2 * r8 == Quad(4)
    assert r8 - 2 * r2 == 0
    assert r2 * rh == Quad(1)
    assert r8 / r2 == Quad(2)
    assert float(r8 + rh) == pytest.approx(2.5 * math.sqrt(2.0), rel=1e-15)
    # Equal elements compare and hash equal whichever radicand they carry.
    assert r8 == Quad(0, 2, 2) and hash(r8) == hash(Quad(0, 2, 2))
    assert r8 != Quad(0, -2, 2)
    # Any other pair still raises, and compares unequal.
    for a, b in ((2, 3), (2, 6), (Fraction(1, 2), 3), (8, 18 * 3)):
        with pytest.raises(ValueError, match="incompatible radicands"):
            Quad(0, 1, a) + Quad(0, 1, b)
        with pytest.raises(ValueError, match="incompatible radicands"):
            Quad(1, 1, a) * Quad(1, 1, b)
        assert Quad(0, 1, a) != Quad(0, 1, b)


def test_quad_misc_guards():
    with pytest.raises(ValueError):
        Quad(0, 1, -2)
    with pytest.raises(ValueError):
        Quad(2) ** (-1)
    assert Quad(0).is_zero()
    assert not Quad(0, 1, 2).is_zero()
    assert hash(Quad(0, 1, 4)) == hash(Quad(2))


@given(rationals, rationals, rationals, rationals)
def test_quad_matches_float_arithmetic(a1, b1, a2, b2):
    x = Quad(a1, b1, 5)
    y = Quad(a2, b2, 5)
    fx = float(a1) + float(b1) * math.sqrt(5.0)
    fy = float(a2) + float(b2) * math.sqrt(5.0)
    assert float(x + y) == pytest.approx(fx + fy, abs=1e-9)
    assert float(x * y) == pytest.approx(fx * fy, abs=1e-7)
    assert float(x - y) == pytest.approx(fx - fy, abs=1e-9)


# ---------------------------------------------------------------------------
# Closed-form moments


def test_catalan_values():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]


def test_nu_even_moments_are_normalized():
    for lam in (Fraction(1, 4), Fraction(1, 2), 1):
        assert nu_even_moment(lam, 0) == 1


def test_nu_even_moment_arcsine_case():
    # lam = 1 gives the arcsine law on [-1, 1]: moments (2m choose m)/4^m.
    for m in range(6):
        assert nu_even_moment(1, m) == Fraction(math.comb(2 * m, m), 4 ** m)


def test_nu_even_moment_rejects_bad_lam():
    with pytest.raises(ValueError):
        nu_even_moment(Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        nu_even_moment(0, 1)


def test_nu_even_moment_matches_quadrature():
    m = nu_lambda(0.6)
    numeric = moments(m, 8)
    for k in range(5):
        exact = float(nu_even_moment(Fraction(3, 5), k))
        assert numeric[2 * k] == pytest.approx(exact, abs=1e-11)


def test_mu_half_moments_match_quadrature():
    ms = mu_half_moments(Fraction(1, 2), 6)
    assert ms[0] == 1
    assert ms[1] == Fraction(1, 2)
    numeric = moments(mu_lambda_theta(JacobiParams(0.5, 0.5)), 6)
    for k, exact in enumerate(ms):
        assert numeric[k] == pytest.approx(float(exact), abs=1e-11)


def test_chebyshev_u_exact_matches_float():
    # The one recurrence, run in the exact ring, gives U_n's integer
    # coefficients exactly.
    for n, u in enumerate(chebyshev_seq(X, 9, ONE)):
        flt = chebyshev_U(n).coeffs
        assert len(u.coef) == len(flt)
        assert all(float(e) == f for e, f in zip(u.coef, flt))


# ---------------------------------------------------------------------------
# Quad-coefficient ("qp") polynomials in the exact ring vs float Poly


def _qp(coeffs):
    return sum((c * X ** i for i, c in enumerate(coeffs)), 0 * ONE)


def _to_poly(qp):
    return Poly([float(c) for c in qp.coef])


def _compose(coeffs, inner):
    # Horner's rule with ring arithmetic: composition at a ring element.
    out = 0 * ONE
    for c in reversed(coeffs):
        out = out * inner + c * ONE
    return out


def test_qp_ops_match_float_poly():
    p = _qp([Quad(1), Quad(0, 1, 2), Quad(3)])
    q = _qp([Quad(-2), Quad(1)])
    assert poly_allclose(_to_poly(p + q), _to_poly(p) + _to_poly(q))
    assert poly_allclose(_to_poly(p * q), _to_poly(p) * _to_poly(q))
    assert poly_allclose(_to_poly(p * Quad(2)), 2.0 * _to_poly(p))
    # Exactly: (1 + sqrt(2) x)(1 - sqrt(2) x) = 1 - 2 x^2.
    s = Quad(0, 1, 2)
    assert list(((ONE + s * X) * (ONE - s * X)).coef) == [1, 0, -2]


def test_qp_compose_linear_matches_float_poly():
    coeffs = [Quad(1), Quad(-2), Quad(0), Quad(4)]
    l0, l1 = Quad(Fraction(1, 3)), Quad(0, 1, 2)
    got = _to_poly(_compose(coeffs, l0 * ONE + l1 * X))
    want = _to_poly(_qp(coeffs))(Poly([float(l0), float(l1)]))
    assert poly_allclose(got, want, tol=1e-12)


def test_qp_compose_linear_constant():
    got = _compose([Quad(5)], Quad(1) * ONE + Quad(2) * X)
    assert list(got.coef) == [Quad(5)]
