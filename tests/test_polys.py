"""Polynomial arithmetic, Chebyshev families, recurrences, contour Taylor."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from freejacobi import ConvergenceError, Poly, chebyshev_T, chebyshev_U
from freejacobi.errors import refine
from freejacobi.exact import ONE, X
from freejacobi.polys import monic_seq
from helpers import (chebyshev_seq, chebyshev_U_ext, eval_three_term,
                     poly_allclose, taylor_coeffs_in_u)

coeff_lists = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


# ---------------------------------------------------------------------------
# Poly basics


def test_poly_trims_trailing_zeros():
    p = Poly([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1
    assert p.coef[-1] == 2.0


def test_poly_zero():
    z = Poly([0.0, 0.0])
    assert z.is_zero()
    assert z.degree == -1
    assert not Poly([0.0, 1.0]).is_zero()


def test_poly_rejects_2d_input():
    with pytest.raises(ValueError):
        Poly([[1.0, 2.0]])


def test_poly_eval_vectorized():
    p = Poly([1.0, 0.0, 3.0])  # 1 + 3x^2
    x = np.array([0.0, 1.0, 2.0])
    np.testing.assert_allclose(p(x), [1.0, 4.0, 13.0])
    assert p(2.0) == 13.0


def test_poly_arithmetic_and_compose():
    p = Poly([1.0, 2.0])        # 1 + 2x
    q = Poly([0.0, 0.0, 1.0])   # x^2
    assert poly_allclose(p + q, Poly([1.0, 2.0, 1.0]))
    assert poly_allclose(p - 1.0, Poly([0.0, 2.0]))
    assert poly_allclose(2.0 * p, Poly([2.0, 4.0]))
    assert poly_allclose(p * q, Poly([0.0, 0.0, 1.0, 2.0]))
    assert poly_allclose(-p, Poly([-1.0, -2.0]))
    # (1 + 2x) o x^2 = 1 + 2x^2
    assert poly_allclose(p(q), Poly([1.0, 0.0, 2.0]))


def test_poly_is_numpy_polynomial():
    p = Poly([1.0, 2.0, 3.0])
    assert isinstance(p, Polynomial)
    for r in (p + 1.0, p * p, p - p, -p, p.deriv(), p(Poly([0.0, 2.0]))):
        assert type(r) is Poly


def test_poly_cancelling_sum_is_trimmed():
    p = Poly([1.0, 2.0, 3.0])
    s = p + Poly([0.5, -1.0, -3.0])
    assert s.coeffs.tolist() == [1.5, 1.0]
    assert s.degree == 1 and s.coef[-1] == 1.0
    z = p - p
    assert z.is_zero() and z.degree == -1
    assert (p * 0.0).degree == -1


def test_poly_deriv():
    p = Poly([5.0, 1.0, 0.0, 2.0])
    assert poly_allclose(p.deriv(), Poly([1.0, 0.0, 6.0]))
    assert Poly([3.0]).deriv().is_zero()


@given(coeff_lists, coeff_lists)
def test_poly_add_commutes(a, b):
    p, q = Poly(a), Poly(b)
    assert poly_allclose(p + q, q + p, tol=1e-12)


@given(coeff_lists, st.floats(-3, 3, allow_nan=False))
def test_poly_eval_matches_horner(a, x):
    p = Poly(a)
    acc = 0.0
    for c in p.coeffs[::-1]:
        acc = acc * x + c
    assert p(x) == pytest.approx(acc, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Chebyshev families


def test_chebyshev_U_low_orders():
    assert poly_allclose(chebyshev_U(0), Poly([1.0]))
    assert poly_allclose(chebyshev_U(1), Poly([0.0, 2.0]))
    assert poly_allclose(chebyshev_U(2), Poly([-1.0, 0.0, 4.0]))
    assert chebyshev_U(3)(0.5) == pytest.approx(-1.0, abs=1e-14)


def test_chebyshev_T_low_orders():
    assert poly_allclose(chebyshev_T(0), Poly([1.0]))
    assert poly_allclose(chebyshev_T(1), Poly([0.0, 1.0]))
    assert poly_allclose(chebyshev_T(4), Poly([1.0, 0.0, -8.0, 0.0, 8.0]))


def test_chebyshev_negative_degree_rejected():
    with pytest.raises(ValueError):
        chebyshev_U(-1)
    with pytest.raises(ValueError):
        chebyshev_T(-2)


def test_chebyshev_U_ext_convention():
    assert chebyshev_U_ext(-1).is_zero()
    assert chebyshev_U_ext(-2).is_zero()
    assert poly_allclose(chebyshev_U_ext(2), chebyshev_U(2))
    with pytest.raises(ValueError):
        chebyshev_U_ext(-3)


@given(st.integers(0, 20))
def test_chebyshev_U_at_one(n):
    assert chebyshev_U(n)(1.0) == pytest.approx(n + 1, rel=1e-10)


@given(st.integers(0, 15), st.floats(-1, 1, allow_nan=False))
def test_chebyshev_trig_identities(n, x):
    # T_n(cos t) = cos(nt) and U_n(cos t) = sin((n+1)t)/sin(t)
    t = np.arccos(x)
    assert chebyshev_T(n)(x) == pytest.approx(np.cos(n * t), abs=1e-8)
    if 1e-3 < t < np.pi - 1e-3:
        expect = np.sin((n + 1) * t) / np.sin(t)
        assert chebyshev_U(n)(x) == pytest.approx(expect, abs=1e-7)


@given(st.integers(1, 18))
def test_chebyshev_recurrence_coefficientwise(n):
    two_x = Poly([0.0, 2.0])
    lhs = two_x * chebyshev_U(n)
    rhs = chebyshev_U(n + 1) + chebyshev_U_ext(n - 1)
    assert poly_allclose(lhs, rhs, tol=1e-12)


@given(st.integers(0, 18))
def test_first_kind_from_second_kind(n):
    lhs = 2.0 * chebyshev_T(n)
    rhs = chebyshev_U(n) - chebyshev_U_ext(n - 2)
    # 2 T_0 = U_0 + 1 rather than U_0 - U_{-2}
    if n == 0:
        rhs = rhs + 1.0
    assert poly_allclose(lhs, rhs, tol=1e-12)


# ---------------------------------------------------------------------------
# Three-term recurrence evaluation


def test_eval_three_term_free_case():
    alpha = np.zeros(4)
    omega = np.full(4, 0.25)
    assert eval_three_term(alpha, omega, 2, 0.0) == pytest.approx(-0.25)
    assert eval_three_term(alpha, omega, 0, 0.7) == 1.0
    assert eval_three_term(alpha, omega, 1, 0.7) == pytest.approx(0.7)


@given(st.integers(0, 12), st.floats(-1, 1, allow_nan=False))
def test_eval_three_term_matches_rescaled_second_kind(n, x):
    # alpha = 0, omega = 1/4 generates the monic Chebyshev-U family.
    alpha = np.zeros(max(n, 1))
    omega = np.full(max(n, 1), 0.25)
    got = eval_three_term(alpha, omega, n, x)
    assert got == pytest.approx(chebyshev_U(n)(x) / 2.0 ** n, abs=1e-10)


def test_eval_three_term_vectorized():
    alpha = np.zeros(3)
    omega = np.full(3, 0.25)
    x = np.linspace(-1, 1, 7)
    got = eval_three_term(alpha, omega, 3, x)
    np.testing.assert_allclose(got, chebyshev_U(3)(x) / 8.0, atol=1e-12)


def test_eval_three_term_input_checks():
    with pytest.raises(ValueError):
        eval_three_term([0.0], [0.25], -1, 0.0)
    with pytest.raises(ValueError):
        eval_three_term([0.0], [0.25], 2, 0.0)  # alpha too short
    with pytest.raises(ValueError):
        eval_three_term([0.0, 0.0, 0.0], [0.25], 3, 0.0)  # omega too short
    with pytest.raises(ValueError):
        eval_three_term([0.0, 0.0], [-0.25], 2, 0.0)  # nonpositive weight


def test_eval_three_term_centered_first_step():
    # p_1 = x - alpha_0 regardless of omega
    assert eval_three_term([0.3], [0.25], 1, 0.3) == pytest.approx(0.0)


def test_monic_seq_exact_ring_gives_scaled_second_kind():
    # alpha = 0, omega = 1/4 in the exact ring: p_n = U_n / 2^n exactly.
    quarter = Fraction(1, 4)
    seq = monic_seq(X, [0] * 9, [quarter] * 8, ONE)
    for u, p in zip(chebyshev_seq(X, 8, ONE), seq):
        assert list(p.coef) == [c / Fraction(2) ** (len(u.coef) - 1)
                                for c in u.coef]


def test_monic_seq_reads_coefficients_as_they_are_appended():
    alpha, omega = [], []
    seq = monic_seq(np.array([0.5, 2.0]), alpha, omega, np.ones(2))
    assert np.array_equal(next(seq), [1.0, 1.0])
    alpha.append(0.5)
    np.testing.assert_array_equal(next(seq), [0.0, 1.5])
    alpha.append(1.0)
    omega.append(0.25)
    np.testing.assert_array_equal(next(seq), [-0.25, 1.25])


# ---------------------------------------------------------------------------
# Contour Taylor coefficients


def test_taylor_geometric_series():
    got = taylor_coeffs_in_u(lambda u: 1.0 / (1.0 - u), 3)
    np.testing.assert_allclose(got, [1.0, 1.0, 1.0, 1.0], atol=1e-13)


def test_taylor_first_kind_generating_function():
    x = 0.3

    def h(u):
        return (1.0 - u * u) / (1.0 - 2.0 * x * u + u * u)

    got = taylor_coeffs_in_u(h, 8)
    assert got[0] == pytest.approx(1.0, abs=1e-12)
    for n in range(1, 9):
        assert got[n] == pytest.approx(2.0 * chebyshev_T(n)(x), abs=1e-11)


def test_taylor_polynomial_exact():
    p = Poly([2.0, -1.0, 0.5, 3.0])
    got = taylor_coeffs_in_u(p, 5)
    np.testing.assert_allclose(got[:4], p.coeffs, atol=1e-13)
    np.testing.assert_allclose(got[4:], 0.0, atol=1e-13)


def test_taylor_pole_on_contour_raises():
    # Pole at u = 0.5 sits on |u| = 0.5: the node at angle zero hits it and
    # the coefficient passes can never settle.
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        taylor_coeffs_in_u(lambda u: 1.0 / (1.0 - 2.0 * u), 4,
                           radius=0.5, max_nodes=4096)


def test_taylor_stays_within_node_budget():
    sizes = []

    def f(u):
        sizes.append(np.size(u))
        return 1.0 / (1.0 - 2.0 * u)

    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        taylor_coeffs_in_u(f, 4, radius=0.5, max_nodes=200)
    assert sizes == [64, 128]


def test_taylor_input_checks():
    with pytest.raises(ValueError):
        taylor_coeffs_in_u(lambda u: u, -1)
    with pytest.raises(ValueError):
        taylor_coeffs_in_u(lambda u: u, 2, radius=0.0)


def test_taylor_scalar_only_callable():
    # Functions that reject ndarray input are evaluated pointwise.
    def f(u):
        if isinstance(u, np.ndarray):
            raise TypeError("scalar only")
        return 1.0 / (1.0 - 0.5 * u)

    got = taylor_coeffs_in_u(f, 3)
    np.testing.assert_allclose(got, 0.5 ** np.arange(4), atol=1e-13)


# ---------------------------------------------------------------------------
# The node-doubling driver


def test_refine_returns_first_settled_pass():
    calls = []

    def compute(n):
        calls.append(n)
        return 1.0 / n

    got = refine(compute, lambda prev, cur: prev - cur < 0.02, 4, 1024, "no")
    # 1/32 - 1/64 is the first increment below 0.02.
    assert got == 1.0 / 64
    assert calls == [4, 8, 16, 32, 64]


def test_refine_raises_when_budget_spent():
    calls = []

    def compute(n):
        calls.append(n)
        return n

    with pytest.raises(ConvergenceError, match="^budget spent at 100$"):
        refine(compute, lambda prev, cur: False, 5, 100, "budget spent at 100")
    assert calls == [5, 10, 20, 40, 80]
    calls.clear()
    with pytest.raises(ConvergenceError):
        refine(compute, lambda prev, cur: False, 4, 32, "spent")
    assert calls == [4, 8, 16, 32]
    calls.clear()
    with pytest.raises(ConvergenceError):
        refine(compute, lambda prev, cur: True, 64, 32, "start above budget")
    assert calls == []
