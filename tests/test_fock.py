"""Tridiagonal vacuum-moment realization over recurrence coefficients."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freejacobi import (
    JacobiParams,
    JacobiSzego,
    build_fock,
    extract_from_measure,
    moments,
    nu_lambda,
    nu_lambda_theta,
    stated_params,
    vacuum_moments,
    xi_lambda,
)
from freejacobi.martingale import stationary_moments
from helpers import EXACT_POINTS, closed_jacobi, nu_even_moment

small_js = st.builds(
    JacobiSzego,
    st.lists(st.floats(-1, 1, allow_nan=False), min_size=5, max_size=5).map(np.array),
    st.lists(st.floats(0.01, 2.0, allow_nan=False), min_size=4, max_size=4).map(np.array),
)


def demo_js():
    return JacobiSzego(np.array([0.1, -0.2, 0.3, 0.0]),
                       np.array([0.5, 0.25, 0.125]))


# ---------------------------------------------------------------------------
# Construction and operator matrices


def test_build_fock_weights_are_cumulative_products():
    f = build_fock(demo_js(), 4)
    np.testing.assert_allclose(f.weights, [1.0, 0.5, 0.125, 0.015625])


def test_build_fock_guards():
    js = demo_js()
    with pytest.raises(ValueError):
        build_fock(js, 0)
    with pytest.raises(ValueError):
        build_fock(js, 5)  # only 4 alphas / 3 omegas available


def test_operator_actions_on_levels():
    f = build_fock(demo_js(), 4)
    up = f.creation()
    down = f.annihilation()
    e = np.eye(4)
    # a+ raises: Phi_1 -> Phi_2
    np.testing.assert_allclose(up @ e[1], e[2])
    # top level is annihilated by truncation
    np.testing.assert_allclose(up @ e[3], 0.0)
    # a lowers with weight omega_{n}: Phi_2 -> omega_2 Phi_1
    np.testing.assert_allclose(down @ e[2], 0.25 * e[1])
    # a kills the vacuum
    np.testing.assert_allclose(down @ e[0], 0.0)
    np.testing.assert_allclose(f.number_op() @ e[2], 2.0 * e[2])
    np.testing.assert_allclose(f.shift_op() @ e[1], -0.2 * e[1])


@given(small_js)
def test_creation_annihilation_adjoint_in_weighted_product(js):
    # <a+ f, g> = <f, a g> for the weighted product <x, y> = sum lambda_n x_n y_n
    # is the defining relation tying the ladder weights to lambda_n.
    f = build_fock(js, js.alpha.size)
    w = np.diag(f.weights)
    lhs = f.creation().T @ w
    rhs = w @ f.annihilation()
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# ---------------------------------------------------------------------------
# Vacuum moments


def test_vacuum_moments_low_orders():
    js = demo_js()
    f = build_fock(js, 4)
    got = vacuum_moments(f, 2)
    assert got[0] == 1.0
    assert got[1] == pytest.approx(js.alpha[0])
    # m_2 = alpha_0^2 + omega_1
    assert got[2] == pytest.approx(js.alpha[0] ** 2 + js.omega[0])


def test_vacuum_moments_guards():
    f = build_fock(demo_js(), 2)
    with pytest.raises(ValueError):
        vacuum_moments(f, -1)
    with pytest.raises(ValueError):
        vacuum_moments(f, 4)  # needs dim >= 3
    # n_max = 2 with dim = 2 is exactly admissible
    assert vacuum_moments(f, 2).shape == (3,)


def test_vacuum_moments_match_exact_symmetric_moments():
    # Stated Q_lambda coefficients realize the symmetric law exactly.
    lam = 0.5
    js = stated_params("Q_lambda", lam=lam, n_max=8)
    f = build_fock(js, 7)
    got = vacuum_moments(f, 12)
    for k in range(13):
        want = (float(nu_even_moment(Fraction(1, 2), k // 2))
                if k % 2 == 0 else 0.0)
        assert got[k] == pytest.approx(want, abs=1e-13)


@pytest.mark.parametrize(
    "lam, theta", EXACT_POINTS + ((Fraction(0.7), Fraction(0.3)),),
    ids=[f"{lam}-{theta}" for lam, theta in EXACT_POINTS] + ["float-0.7-0.3"])
def test_exact_fock_certificate(lam, theta):
    # The walk takes no square root, so over the rational Jacobi data of mu
    # its vacuum moments are exactly the drift's stationary moments.
    k_max = 24
    js = JacobiSzego(*closed_jacobi(lam, theta, k_max // 2))
    got = vacuum_moments(build_fock(js, k_max // 2 + 1), k_max)
    assert got.tolist() == stationary_moments(lam, theta, k_max)


def test_vacuum_moments_match_quadrature_across_measures():
    for m in (nu_lambda_theta(JacobiParams(0.6, 0.4)), xi_lambda(0.5)):
        js = extract_from_measure(m, 7)
        f = build_fock(js, 8)
        got = vacuum_moments(f, 12)
        want = moments(m, 12)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_vacuum_moments_truncation_is_invisible():
    # Enlarging dim beyond n_max/2 + 1 must not change any reported moment.
    js = extract_from_measure(nu_lambda(0.7), 10)
    small = vacuum_moments(build_fock(js, 6), 10)
    large = vacuum_moments(build_fock(js, 11), 10)
    np.testing.assert_allclose(small, large, atol=1e-14)
