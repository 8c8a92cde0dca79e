"""Recurrence parameters: closed forms, Stieltjes extraction, monic scaling."""

import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freejacobi import (
    ConvergenceError,
    JacobiParams,
    JacobiSzego,
    PositivityError,
    SpectralMeasure,
    build_P_lambda,
    build_Q_lambda,
    chebyshev_U,
    extract_from_measure,
    moments,
    mu_lambda_theta,
    nu_lambda,
    nu_lambda_theta,
    stated_params,
    xi_lambda,
    xi_shift,
)
from freejacobi.exact import ONE, X
from freejacobi.martingale import stationary_moments
from freejacobi import recurrence
from freejacobi.recurrence import _stieltjes
from helpers import (EXACT_POINTS, closed_jacobi, eval_three_term, monicize,
                     mu_half_moments)


# ---------------------------------------------------------------------------
# Containers and closed forms


def test_jacobi_szego_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        JacobiSzego(np.zeros(3), np.array([0.25, 0.0]))
    js = JacobiSzego(np.zeros(3), np.array([0.25, 0.25]))
    assert js.alpha.size == 3


def test_stated_params_Q_lambda():
    js = stated_params("Q_lambda", lam=0.5)
    assert np.all(js.alpha == 0.0)
    assert js.omega[0] == pytest.approx(1.0 / 3.0)
    assert np.all(js.omega[1:] == 0.25)
    # At lam = 1 the first weight is 1/2, twice the tail value.
    assert stated_params("Q_lambda", lam=1.0).omega[0] == 0.5


def test_stated_params_P_lambda():
    js = stated_params("P_lambda", lam=0.5)
    assert js.alpha[0] == pytest.approx(xi_shift(0.5))
    assert np.all(js.alpha[1:] == 0.0)
    assert js.omega[0] == 0.5
    assert np.all(js.omega[1:] == 0.25)


def test_stated_params_Q_lambda_theta():
    js = stated_params("Q_lambda_theta", lam=0.6, theta=0.4)
    b = np.sqrt(0.6 / (0.6 * (1.0 - 0.24))) * (-0.2)
    assert js.alpha[0] == pytest.approx(b)
    assert js.omega[0] == pytest.approx(1.0 / (4.0 * 0.76))
    # theta = 1/2 collapses onto the Q_lambda parameters.
    half = stated_params("Q_lambda_theta", lam=0.7, theta=0.5)
    q = stated_params("Q_lambda", lam=0.7)
    np.testing.assert_allclose(half.alpha, q.alpha, atol=1e-15)
    np.testing.assert_allclose(half.omega, q.omega, atol=1e-15)


def test_stated_params_errors():
    with pytest.raises(ValueError):
        stated_params("cubic", lam=0.5)
    with pytest.raises(ValueError):
        stated_params("Q_lambda", lam=1.5)
    with pytest.raises(ValueError):
        stated_params("Q_lambda_theta", lam=0.5, theta=0.7)


# ---------------------------------------------------------------------------
# Extraction round trips


def test_extract_nu_lambda_matches_stated():
    for lam in (0.3, 0.7, 1.0):
        got = extract_from_measure(nu_lambda(lam), 6)
        want = stated_params("Q_lambda", lam=lam, n_max=6)
        np.testing.assert_allclose(got.alpha, want.alpha, atol=1e-9)
        np.testing.assert_allclose(got.omega, want.omega, atol=1e-9)


def test_extract_xi_lambda_matches_stated():
    for lam in (0.4, 0.8):
        got = extract_from_measure(xi_lambda(lam), 6)
        want = stated_params("P_lambda", lam=lam, n_max=6)
        np.testing.assert_allclose(got.alpha, want.alpha, atol=1e-9)
        np.testing.assert_allclose(got.omega, want.omega, atol=1e-9)


def test_extract_nu_lambda_theta_shift_is_half_tabulated():
    # The extracted alpha_0 is the measure's first moment; the tabulated
    # value is twice that whenever theta != 1/2.  Weights agree throughout.
    p = JacobiParams(0.5, 0.4)
    got = extract_from_measure(nu_lambda_theta(p), 5)
    want = stated_params("Q_lambda_theta", lam=p.lam, theta=p.theta, n_max=5)
    np.testing.assert_allclose(got.omega, want.omega, atol=1e-9)
    assert got.alpha[0] == pytest.approx(0.5 * want.alpha[0], abs=1e-9)
    assert got.alpha[0] == pytest.approx(
        moments(nu_lambda_theta(p), 1)[1], abs=1e-9)
    np.testing.assert_allclose(got.alpha[1:], 0.0, atol=1e-9)


def test_extract_mu_matches_affine_image():
    # mu and its symmetric image differ by x -> (2x-s)/d, so alpha maps
    # affinely and omega by d^2/4.
    p = JacobiParams(0.6, 0.35)
    s = p.x_plus + p.x_minus
    d = p.x_plus - p.x_minus
    mu_js = extract_from_measure(mu_lambda_theta(p), 4)
    nu_js = extract_from_measure(nu_lambda_theta(p), 4)
    np.testing.assert_allclose((2.0 * mu_js.alpha - s) / d, nu_js.alpha,
                               atol=1e-8)
    np.testing.assert_allclose(mu_js.omega * 4.0 / d ** 2, nu_js.omega,
                               rtol=1e-7)


def test_extract_zero_levels():
    js = extract_from_measure(nu_lambda(0.5), 0)
    assert js.alpha.shape == (1,)
    assert js.omega.shape == (0,)
    assert js.alpha[0] == pytest.approx(0.0, abs=1e-12)


def test_extract_rejects_negative_levels():
    with pytest.raises(ValueError):
        extract_from_measure(nu_lambda(0.5), -1)


def test_extract_positivity_collapse():
    # A single point mass supports only the degree-0 polynomial: the first
    # Stieltjes step annihilates p_1 and positivity is lost immediately.
    m = SpectralMeasure((0.3, 0.3), lambda x: np.zeros_like(x),
                        atoms=((0.3, 1.0),))
    with pytest.raises(PositivityError) as exc:
        extract_from_measure(m, 2)
    assert exc.value.last_reliable == 0


def test_extract_beyond_double_precision_fails_fast():
    # Degree 60 is beyond what the discretization resolves in double
    # precision; the node budget must run out within seconds.
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        extract_from_measure(xi_lambda(0.3), 60)
    assert time.perf_counter() - start < 10.0


def test_extracted_params_evaluate_like_built_family():
    # eval_three_term on extracted parameters reproduces the monic built
    # family pointwise.
    lam = 0.5
    js = extract_from_measure(nu_lambda(lam), 5)
    monic, _ = monicize([build_Q_lambda(lam, n) for n in range(6)])
    xs = np.linspace(-0.9, 0.9, 7)
    for n in range(6):
        got = eval_three_term(js.alpha, js.omega, n, xs)
        np.testing.assert_allclose(got, monic[n](xs), atol=1e-8)


# ---------------------------------------------------------------------------
# Exact Stieltjes procedure on the drift's moments

def _exact_jacobi(m, n):
    """alpha_0..alpha_n, omega_1..omega_n of the moment sequence m (at
    least 2n + 2 moments), by the Stieltjes procedure in the exact ring."""
    def moment(q):
        return sum(c * m[j] for j, c in enumerate(q.coef))

    return _stieltjes(X, ONE, lambda p: (moment(p * p), moment(X * p * p)), n)


def test_exact_stieltjes_on_drift_moments_equals_closed_form():
    # The float extraction's loop, run over the exact ring with the moment
    # functional of the drift's fixed point, gives the closed-form Jacobi
    # data of mu_{lam,theta} exactly; at theta = 1/2 the Catalan moments,
    # independent of the drift, give the same.
    n = 12
    for lam, theta in EXACT_POINTS:
        m = stationary_moments(lam, theta, 2 * n + 2)
        alpha, omega = _exact_jacobi(m, n)
        assert (list(alpha), list(omega)) == closed_jacobi(lam, theta, n)
    half = Fraction(1, 2)
    for lam in (half, Fraction(1, 3), Fraction(1), Fraction(1, 1000)):
        alpha, omega = _exact_jacobi(mu_half_moments(lam, 2 * n + 2), n)
        assert (list(alpha), list(omega)) == closed_jacobi(lam, half, n)


def test_float_extraction_matches_exact_jacobi_data():
    # The exact data at the rationals that the float parameters are.
    for lam, theta in ((0.5, 0.4), (1.0, 0.001), (0.3, 0.45), (0.7, 0.5)):
        m = mu_lambda_theta(JacobiParams(lam, theta))
        js = extract_from_measure(m, 12)
        alpha, omega = closed_jacobi(Fraction(lam), Fraction(theta), 12)
        np.testing.assert_allclose(js.alpha, np.array(alpha, dtype=float),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(js.omega, np.array(omega, dtype=float),
                                   rtol=1e-14)


@pytest.mark.parametrize("theta", [1e-30, 1e-60, 1e-100])
def test_extraction_of_mu_at_small_theta(theta):
    # The squared norms of mu itself, about (theta sqrt(lam))^(2k), underflow
    # here: extraction on its own support stopped with "lost positivity at
    # index 6 / 3 / 2".  On the [-1, 1] image they stay of order 4^-k.
    js = extract_from_measure(mu_lambda_theta(JacobiParams(0.5, theta)), 12)
    alpha, omega = closed_jacobi(Fraction(0.5), Fraction(theta), 12)
    np.testing.assert_allclose(js.alpha, np.array(alpha, dtype=float),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(js.omega, np.array(omega, dtype=float),
                               rtol=1e-14, atol=0)


def test_extraction_names_underflowing_weights():
    # Where the support of mu is about 3e-200 wide, h^2 omega' is below the
    # float range.
    with pytest.raises(ValueError, match=(
            r"^the recurrence weights of mu\[0\.5,1e-200\] underflow to 0: "
            r"its support is 2\.83e-200 wide$")):
        extract_from_measure(mu_lambda_theta(JacobiParams(0.5, 1e-200)), 4)


def test_exact_stieltjes_reports_lost_positivity():
    # A two-point measure supports p_0 and p_1 only: ||p_2|| = 0 exactly.
    m = [Fraction(1, 2) * (Fraction(1) + Fraction(3) ** k) for k in range(8)]
    with pytest.raises(PositivityError,
                       match=r"index 2 \(norm = 0\.000e\+00\)") as exc:
        _exact_jacobi(m, 3)
    assert exc.value.last_reliable == 1
    alpha, omega = _exact_jacobi(m, 1)
    assert list(alpha) == [2, 2] and list(omega) == [1]


# ---------------------------------------------------------------------------
# Monic scaling


def test_monicize_chebyshev_scales():
    monic, scales = monicize([chebyshev_U(n) for n in range(6)])
    np.testing.assert_allclose(scales, 2.0 ** np.arange(6))
    for p in monic:
        assert p.coef[-1] == pytest.approx(1.0)


def test_monicize_family_scales():
    _, (s,) = monicize([build_Q_lambda(0.5, 5)])
    assert s == pytest.approx(32.0)
    _, (s,) = monicize([build_P_lambda(0.7, 3)])
    assert s == pytest.approx(8.0)


def test_monicize_rejects_zero():
    from freejacobi import Poly

    with pytest.raises(ValueError):
        monicize([Poly([0.0])])


def test_extraction_refuses_nonfinite_sums_on_first_pass(monkeypatch):
    # The atom of xi at lam = 1e-300 lies near 7e149, so p_3^2 there
    # overflows: the extraction used to print RuntimeWarnings, double its
    # nodes to 32768 and blame n_max.
    passes = []
    ac_nodes = recurrence._ac_nodes

    def recording(measure, n):
        passes.append(n)
        return ac_nodes(measure, n)

    monkeypatch.setattr(recurrence, "_ac_nodes", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=(
                r"the degree-3 Stieltjes sums under xi\[1e-300\] exceed the "
                r"float range at the atom x = 7\.07e\+149")):
            extract_from_measure(xi_lambda(1e-300), 8)
    assert passes == [64]
