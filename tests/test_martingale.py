"""Drift operator, exact martingale residuals, and the (Z, K) flow pair."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from freejacobi import (
    FlowConstants,
    JacobiParams,
    build_P_lambda,
    build_Q_lambda,
    cauchy_closed_form_mu,
    flow_K,
    flow_K_ode_residual,
    flow_Z,
    flow_Z_ode_residual,
    martingale_residuals,
    moments,
    mu_lambda_theta,
    xi_shift,
)
from freejacobi import martingale
from freejacobi.exact import X, exact_sqrt
from freejacobi.martingale import _apply, _drift_columns, stationary_moments
from freejacobi.measures import FAMILIES, _family_data, nu_map
from freejacobi.polys import family_values
from freejacobi.renorm import u_combination
from helpers import (cauchy_mu_half, chebyshev_seq, martingale_residual,
                     mu_half_moments)


# ---------------------------------------------------------------------------
# Drift operator


def _drift(lam, th, c):
    # The drift of the polynomial with coefficients c, in exact rationals,
    # from the columns of the drift's own stationary moments.
    return _apply(_drift_columns(Fraction(lam), Fraction(th), [1],
                                 len(c) - 1), c)


def test_drift_annihilates_constants():
    assert _drift(0.5, 0.4, [Fraction(3)]) == [0]
    assert _drift(0.5, 0.4, [Fraction(0)]) == [0]


def test_drift_of_identity_recenters_at_theta():
    # drift(x) = theta - x
    for lam, th in ((0.5, 0.4), (1.0, 0.5), (0.7, 0.25)):
        got = _drift(lam, th, [0, 1])
        assert got == [Fraction(th), -1]


def test_drift_is_linear():
    p = [Fraction(1, 2), -1, 2, 0]
    q = [0, 0, 1, Fraction(1, 4)]
    lhs = _drift(0.6, 0.35, [2 * a + b for a, b in zip(p, q)])
    rhs = [2 * a + b for a, b in zip(_drift(0.6, 0.35, p),
                                     _drift(0.6, 0.35, q))]
    assert lhs == rhs


def test_drift_never_raises_degree():
    # The drift of x^deg has degree deg, with leading coefficient -deg.
    for deg in range(1, 9):
        d = _drift(0.5, 0.4, [0] * deg + [1])
        assert len(d) == deg + 1 and d[deg] == -deg


def test_drift_vanishes_in_stationary_mean():
    # int drift(x^n) dmu = 0: stationarity of the law under the dynamics.
    for lam, th in ((0.5, 0.4), (1.0, 0.5), (0.7, 0.3)):
        p = JacobiParams(lam, th)
        ms = moments(mu_lambda_theta(p), 13)
        cols = _drift_columns(lam, th, ms.tolist(), 12)
        for n in range(1, 13):
            d = _apply(cols, [0.0] * n + [1.0])
            val = float(np.dot(d, ms[: len(d)]))
            assert abs(val) < 1e-8, (lam, th, n)


# ---------------------------------------------------------------------------
# Exact martingale residuals


def test_residual_orthogonal_family_is_exact_zero():
    # The family orthogonal for the stationary law satisfies the identity
    # exactly; the arithmetic is over Q(sqrt(lam(2-lam))), so 0.0 is exact.
    for lam in (0.25, 0.5, 0.75, 1.0):
        assert martingale_residual(lam, 12, family="Q_lambda") == 0.0


def test_residual_shifted_family_vanishes_only_at_lam_one():
    for n in (1, 4, 10):
        assert martingale_residual(1.0, n) == 0.0
    # At lam < 1 the degree-1 member already fails: its residual is the
    # constant 2(1-lam)/sqrt(lam(2-lam)), twice the recurrence shift.
    for lam in (0.25, 0.5, 0.75):
        got = martingale_residual(lam, 1)
        assert got == pytest.approx(2.0 * xi_shift(lam), rel=1e-12)
    assert martingale_residual(0.5, 1) == pytest.approx(1.15470054, abs=1e-7)


def test_residual_grows_rapidly_with_degree():
    r5 = martingale_residual(0.5, 5)
    r10 = martingale_residual(0.5, 10)
    assert r10 > r5 > martingale_residual(0.5, 1)
    # Far beyond where float64 coefficient arithmetic (noise ~1e-2 at this
    # degree) could certify anything.
    assert martingale_residual(0.5, 15) > 1e10


def test_residual_rational_shift_control():
    # The rational shift variant leaves a nonzero residual even where the
    # square-root variant is exact at degree 2.
    got = martingale_residual(0.5, 2, variant="rational")
    assert got == pytest.approx(6.158403, rel=1e-5)


def test_residual_matches_float_drift_of_composed_family():
    # The exact path (family evaluated in the Quad ring, closed-form moments)
    # against the float path (built family, Horner composition, quadrature
    # moments), at degrees where float64 cancellation is still harmless.
    for lam in (0.3, 0.5, 1.0):
        rq = math.sqrt(lam * (2.0 - lam))
        ms = moments(mu_lambda_theta(JacobiParams(lam, 0.5)), 6)
        cols = _drift_columns(lam, 0.5, ms.tolist(), 6)
        for family, build in (("P_lambda", build_P_lambda),
                              ("Q_lambda", build_Q_lambda)):
            for n in range(1, 7):
                q = build(lam, n)(Polynomial([-1.0 / rq, 2.0 / rq]))
                resid = Polynomial(_apply(cols, q.coef)) + n * q
                want = float(np.max(np.abs(resid.coef)))
                got = martingale_residual(lam, n, family=family)
                scale = float(np.max(np.abs(q.coef)))
                assert abs(got - want) <= 1e-9 * scale, (family, lam, n)


def _residual_per_degree(lam, n, family, variant):
    # Reference: the exact residual of one degree, with its own recurrence,
    # moments and drift scalars for this n alone.
    lamF = Fraction(lam)
    data = _family_data(family, lamF, variant=variant)
    inner = (2 * X - X ** 0) * (1 / exact_sqrt(lamF * (2 - lamF)))
    (q_n,) = family_values(inner, [n], *data)
    c = q_n.coef
    m, th = mu_half_moments(lamF, n), Fraction(1, 2)
    d = [0] * len(c)
    for k in range(1, len(c)):
        d[k - 1] += c[k] * (k * th * (1 - lamF))
        d[k] -= c[k] * k
        for l in range(1, k + 1):
            term = m[k - l] + 2 * (l - 1) * (m[k - l] - m[k - l + 1])
            d[l - 1] += c[k] * (lamF * th * term)
    return max(abs(float(r + n * ci)) for r, ci in zip(d, c))


@pytest.mark.parametrize("variant, family", [
    (variant, family) for family in ("P_lambda", "Q_lambda")
    for variant in FAMILIES[family].variants])
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_batched_residuals_match_per_degree(variant, family, lam):
    # One exact pass over n = 1..15 gives, bit for bit, what a separate
    # computation per degree gives.
    degrees = range(1, 16)
    got = martingale_residuals(lam, degrees, family, variant)
    want = [_residual_per_degree(lam, n, family, variant) for n in degrees]
    assert [v.hex() for v in got] == [v.hex() for v in want]
    for n in (1, 2, 15):
        single = martingale_residual(lam, n, family, variant)
        assert single.hex() == want[n - 1].hex()
    # Any order and repetition of degrees gives the same values.
    assert martingale_residuals(lam, [15, 3, 3, 1], family, variant) == \
        [want[14], want[2], want[2], want[0]]


def test_batched_residuals_input_checks():
    for bad in ([0], [1, 0, 2], [-3], []):
        with pytest.raises(ValueError):
            martingale_residuals(0.5, bad)


# ---------------------------------------------------------------------------
# Stationary moments as the drift's fixed point, and general theta


def test_stationary_moments_equal_catalan_route_at_half():
    # Two independent exact routes to the theta = 1/2 moments: the drift's
    # fixed point and the closed Catalan-tail form.
    for lam in (0.25, 0.3, 0.5, 0.7, 1.0):
        lamF = Fraction(lam)
        got = stationary_moments(lamF, Fraction(1, 2), 30)
        assert got == mu_half_moments(lamF, 30), lam
        assert all(isinstance(v, (int, Fraction)) for v in got)


def test_stationary_moments_match_quadrature_off_half():
    for lam, th in ((0.5, 0.4), (0.7, 0.3), (0.25, 0.1), (1.0, 0.4),
                    (0.9, 0.2)):
        quad = moments(mu_lambda_theta(JacobiParams(lam, th)), 24)
        got = stationary_moments(lam, th, 24)
        assert np.max(np.abs(np.asarray(got) - quad)) < 1e-14, (lam, th)


def test_stationary_moments_float_route_matches_exact():
    for lam, th in ((0.5, 0.4), (0.7, 0.3), (0.25, 0.1), (1.0, 0.4),
                    (0.3, 0.45), (0.5, 0.5)):
        exact = stationary_moments(Fraction(lam), Fraction(th), 32)
        got = stationary_moments(lam, th, 32)
        for n, (e, g) in enumerate(zip(exact, got)):
            assert abs(g - float(e)) <= 1e-14 * float(e), (lam, th, n)


def test_nu_map_at_half_is_the_half_map():
    for lam in (1e-300, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        assert nu_map(lam, 0.5) == (1.0, lam * (2.0 - lam))
    assert nu_map(Fraction(1, 3), Fraction(1, 2)) == (1, Fraction(5, 9))


GENERAL_THETA = [(0.5, 0.4), (0.7, 0.3), (0.25, 0.1), (1.0, 0.4),
                 (0.3, 0.45), (1.0, 0.05), (0.9, 0.2)]


@pytest.mark.parametrize("lam, th", GENERAL_THETA)
def test_general_theta_residual_grid(lam, th):
    # Q_lambda_theta at its orthogonality-consistent shift is exactly
    # martingale; the doubled shift is not, and its degree-1 residual is
    # the shift difference 2|b|, b the first moment of nu_{lam,theta}.
    degrees = range(1, 16)
    mean = martingale_residuals(lam, degrees, "Q_lambda_theta", theta=th)
    assert mean == [0.0] * 15
    twice = martingale_residuals(lam, degrees, "Q_lambda_theta", theta=th,
                                 variant="twice")
    assert all(r > 0.0 for r in twice)
    b = math.sqrt(lam / ((1 - th) * (1 - lam * th))) * (1 - 2 * th) / 2
    assert twice[0] == pytest.approx(2.0 * b, rel=1e-12)


def test_half_families_ignore_theta():
    # P_lambda and Q_lambda are theta = 1/2 families and stay there; at
    # theta = 1/2 Q_lambda_theta is Q_lambda.
    degrees = range(1, 10)
    for family in ("P_lambda", "Q_lambda"):
        want = martingale_residuals(0.5, degrees, family)
        for th in (0.05, 0.3, 0.4):
            assert martingale_residuals(0.5, degrees, family,
                                        theta=th) == want
    assert martingale_residuals(0.5, degrees, "Q_lambda_theta") == [0.0] * 9
    with pytest.raises(ValueError, match="unknown family"):
        martingale_residuals(0.5, degrees, "R_lambda", theta=0.4)


def test_nu_map_at_exact_half_is_the_float_half_map():
    # The theta = 1/2 families are pinned at Fraction(1, 2); at a float lam
    # the map is then the same floats as at theta = 0.5.
    rng = np.random.default_rng(14)
    lams = [5e-324, 1e-300, 1e-16, math.nextafter(1.0, 0.0), 1.0]
    lams += rng.uniform(0.0, 1.0, 2000).tolist()
    for lam in lams:
        got = nu_map(lam, Fraction(1, 2))
        assert got == nu_map(lam, 0.5)
        assert all(type(v) is float for v in got)


def test_drift_columns_fill_the_moments_once(monkeypatch):
    # One column per degree: the fixed point fills each moment as its
    # column is built, and the residuals reuse those columns.
    calls = []
    column = martingale._drift_column

    def counting(lam, th, m, n):
        calls.append(n)
        return column(lam, th, m, n)

    monkeypatch.setattr(martingale, "_drift_column", counting)
    lam, th = Fraction(0.6), Fraction(1, 2)
    m = [1]
    cols = _drift_columns(lam, th, m, 15)
    assert calls == list(range(1, 16)) and len(cols) == 16
    assert m == mu_half_moments(lam, 15)
    calls.clear()
    martingale_residuals(0.6, range(1, 16))
    assert calls == list(range(1, 16))


@pytest.mark.parametrize("family, lam, th", [
    ("Q_lambda_theta", 0.5, 5e-324), ("Q_lambda", 5e-324, 0.5),
    ("P_lambda", 5e-324, 0.3)])
def test_residuals_bound_the_operand_size(monkeypatch, family, lam, th):
    # Long binary expansions make every exact operand long: the request is
    # refused, naming the size, before any drift column is built.  The
    # denominators 2 and 2^1074 have 2 and 1075 bits; theta = 0.3 is not
    # read by the theta = 1/2 family P_lambda.
    bits = 30 * (2 + 1075)

    def no_column(*args):
        raise AssertionError("a drift column was built")

    monkeypatch.setattr(martingale, "_drift_column", no_column)
    with pytest.raises(ValueError, match=f"operands of about {bits} bits"):
        martingale_residuals(lam, range(1, 31), family, theta=th)


@pytest.mark.parametrize("family, lam, th, top, work", [
    ("Q_lambda_theta", 0.3, 0.45, 60, 60 ** 3 * 60 * (55 + 55)),
    ("P_lambda", 0.5, 0.5, 100, 100 ** 3 * 100 * (2 + 2))])
def test_residuals_bound_the_work(monkeypatch, family, lam, th, top, work):
    # Operands of ordinary size, but max(degrees)^3 operations on them: the
    # request is refused, naming it and its work, before any drift column
    # is built.  0.3 and 0.45 have 55-bit denominators, 0.5 a 2-bit one.
    def no_column(*args):
        raise AssertionError("a drift column was built")

    monkeypatch.setattr(martingale, "_drift_column", no_column)
    with pytest.raises(ValueError, match=(
            f"degree {top} at lam = {lam}, theta = {th} .* about "
            + re.escape(f"{work:.3g}") + " bit operations")):
        martingale_residuals(lam, range(1, top + 1), family, theta=th)


def _u_expansion(p, n):
    # Coefficients w_0 .. w_n of p = sum_k w_k U_k for an exact polynomial
    # p of degree <= n in y, peeling the leading term (U_k leads with 2^k).
    coef = list(p.coef) + [0] * (n + 1 - len(p.coef))
    u = chebyshev_seq(X, n, X ** 0)
    w = [0] * (n + 1)
    for k in range(n, -1, -1):
        w[k] = coef[k] * Fraction(1, 2 ** k)
        for i, c in enumerate(u[k].coef):
            coef[i] = coef[i] - w[k] * c
    return w


@pytest.mark.parametrize("lam, th", [
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(2, 5)),
    (Fraction(7, 10), Fraction(3, 10)), (Fraction(1), Fraction(2, 5)),
    (Fraction(0.25), Fraction(0.1))])
def test_drift_eigenpolynomials_are_the_general_theta_family(lam, th):
    # The exact drift matrix is upper triangular with diagonal -k, so each
    # degree n has one monic eigenpolynomial p_n with eigenvalue -n, found
    # by back substitution.  Written in y = (2x - s)/d, every p_n is a
    # multiple of U_n + beta U_{n-1} + gamma U_{n-2}, with the same beta,
    # gamma for all n: the table's weights of Q_lambda_theta in its own
    # variant "mean".
    top = 8
    cols = _drift_columns(lam, th, stationary_moments(lam, th, top), top)
    s, d2 = nu_map(lam, th)
    x_of_y = (s * X ** 0 + exact_sqrt(d2) * X) * Fraction(1, 2)
    beta, gamma = u_combination("Q_lambda_theta", lam, th)
    for n in range(1, top + 1):
        p = [0] * n + [Fraction(1)]
        for j in range(n - 1, -1, -1):
            p[j] = -sum(cols[k][j] * p[k] for k in range(j + 1, n + 1)) \
                / (n - j)
        p_y = 0 * X ** 0
        for c in reversed(p):
            p_y = p_y * x_of_y + c * X ** 0
        w = _u_expansion(p_y, n)
        lead = 1 / w[n]
        rel = [v * lead for v in w]
        assert all(v == 0 for v in rel[:max(n - 2, 0)]), n
        assert rel[n - 1] == beta, n
        if n >= 2:
            assert rel[n - 2] == gamma, n


def test_residual_input_checks():
    with pytest.raises(ValueError):
        martingale_residual(0.5, 0)
    with pytest.raises(ValueError):
        martingale_residual(1.5, 2)
    with pytest.raises(ValueError):
        martingale_residual(0.5, 2, family="R_lambda")
    with pytest.raises(ValueError):
        martingale_residual(0.5, 2, variant="cubic")


# ---------------------------------------------------------------------------
# Flow constants


def test_flow_constants_algebraic_identities():
    for lam, th in ((0.5, 0.5), (0.8, 0.3), (1.0, 0.5), (0.6, 0.4)):
        p = JacobiParams(lam, th)
        fc = FlowConstants.from_params(p)
        assert fc.c3 ** 2 == pytest.approx(fc.c2 + 1.0 - fc.c1, abs=1e-14)
        # c1 and c2 are the elementary symmetric functions of the support
        # endpoints of the stationary law.
        assert fc.c1 == pytest.approx(p.x_plus + p.x_minus, abs=1e-14)
        assert fc.c2 == pytest.approx(p.x_plus * p.x_minus, abs=1e-14)


def test_flow_constants_r_validation():
    p = JacobiParams(0.5, 0.4)
    r_max = 4.0 * 0.5 * 0.16
    fc = FlowConstants.from_params(p)
    assert fc.r == pytest.approx(0.5 * r_max)
    assert fc.t0 == pytest.approx(math.log(2.0))
    assert FlowConstants.from_params(p, r=r_max).t0 == pytest.approx(0.0)
    with pytest.raises(ValueError):
        FlowConstants.from_params(p, r=0.0)
    with pytest.raises(ValueError):
        FlowConstants.from_params(p, r=1.1 * r_max)


# ---------------------------------------------------------------------------
# Z flow


def test_flow_Z_endpoint_and_monotonicity():
    for lam, th in ((0.5, 0.5), (0.6, 0.4), (1.0, 0.5)):
        fc = FlowConstants.from_params(JacobiParams(lam, th))
        assert flow_Z(fc, fc.t0) == pytest.approx(1.0, abs=1e-10)
        ts = np.linspace(0.0, fc.t0, 30)
        zs = [flow_Z(fc, t) for t in ts]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        assert zs[0] > 0.0


def test_flow_Z_rejects_out_of_range():
    fc = FlowConstants.from_params(JacobiParams(0.5, 0.4))
    with pytest.raises(ValueError):
        flow_Z(fc, -0.5)
    with pytest.raises(ValueError):
        flow_Z(fc, fc.t0 + 0.5)


def test_flow_Z_satisfies_its_ode():
    for lam, th in ((0.5, 0.5), (0.6, 0.4), (1.0, 0.5)):
        fc = FlowConstants.from_params(JacobiParams(lam, th))
        for frac in (0.1, 0.5, 0.9):
            assert flow_Z_ode_residual(fc, frac * fc.t0) < 1e-7


def test_flow_Z_closed_form_symmetric_case():
    # lam = 1, theta = 1/2: Z_t = 4 r e^t / (r e^t + 1)^2.
    fc = FlowConstants.from_params(JacobiParams(1.0, 0.5))
    for t in (0.0, 0.3, 0.6):
        e = fc.r * math.exp(t)
        assert flow_Z(fc, t) == pytest.approx(4.0 * e / (e + 1.0) ** 2,
                                              abs=1e-14)


# ---------------------------------------------------------------------------
# K flow


def test_flow_K_half_theta_collapse():
    # theta = 1/2: the two variants collapse to (lam - e)/(lam + e) and
    # (2 - lam - e)/(lam + e) times C.
    lam = 0.5
    fc = FlowConstants.from_params(JacobiParams(lam, 0.5))
    for t in (0.0, 0.2, 0.5):
        e = fc.r * math.exp(t)
        disp = flow_K(fc, lam, 0.5, t, variant="displayed")
        assert disp == pytest.approx((lam - e) / (lam + e), abs=1e-10)
        ode = flow_K(fc, lam, 0.5, t, variant="ode")
        assert ode == pytest.approx((2.0 - lam - e) / (lam + e), abs=1e-10)


def test_flow_K_symmetric_case():
    # lam = 1, theta = 1/2: K_t = C (1 - r e^t)/(1 + r e^t), both variants.
    fc = FlowConstants.from_params(JacobiParams(1.0, 0.5))
    for t in (0.0, 0.3):
        e = fc.r * math.exp(t)
        want = (1.0 - e) / (1.0 + e)
        assert flow_K(fc, 1.0, 0.5, t) == pytest.approx(want, abs=1e-12)
        assert flow_K(fc, 1.0, 0.5, t, variant="ode") == pytest.approx(
            want, abs=1e-12)


def test_flow_K_lam_one_branch_matches_general_limit():
    th = 0.4
    fc1 = FlowConstants.from_params(JacobiParams(1.0, th))
    fc9 = FlowConstants.from_params(JacobiParams(1.0 - 1e-9, th), r=fc1.r)
    for t in (0.1, 0.4):
        for variant in ("displayed", "ode"):
            a = flow_K(fc1, 1.0, th, t, variant=variant)
            b = flow_K(fc9, 1.0 - 1e-9, th, t, variant=variant)
            assert a == pytest.approx(b, rel=1e-5)


def test_flow_K_scales_linearly_in_C():
    fc = FlowConstants.from_params(JacobiParams(0.6, 0.4))
    k1 = flow_K(fc, 0.6, 0.4, 0.2)
    k3 = flow_K(fc, 0.6, 0.4, 0.2, C=3.0)
    assert k3 == pytest.approx(3.0 * k1, rel=1e-14)


def test_flow_K_input_checks():
    fc = FlowConstants.from_params(JacobiParams(0.6, 0.4))
    with pytest.raises(ValueError):
        flow_K(fc, 0.6, 0.4, fc.t0)  # K degenerates at the horizon
    with pytest.raises(ValueError):
        flow_K(fc, 0.6, 0.4, -0.1)
    with pytest.raises(ValueError):
        flow_K(fc, 0.6, 0.4, 0.1, variant="inverse")


def test_flow_K_transport_equation_selects_variant():
    # The reciprocal-factor variant satisfies the transport equation at all
    # parameters; the displayed one does so only at lam = 1, theta = 1/2.
    cases = ((0.5, 0.5), (0.6, 0.4), (1.0, 0.5))
    for lam, th in cases:
        fc = FlowConstants.from_params(JacobiParams(lam, th))
        for frac in (0.2, 0.6):
            t = frac * fc.t0
            assert flow_K_ode_residual(fc, lam, th, t, variant="ode") < 1e-6
    fc = FlowConstants.from_params(JacobiParams(1.0, 0.5))
    assert flow_K_ode_residual(fc, 1.0, 0.5, 0.5 * fc.t0) < 1e-6
    fc = FlowConstants.from_params(JacobiParams(0.6, 0.4))
    assert flow_K_ode_residual(fc, 0.6, 0.4, 0.5 * fc.t0) > 1e-2
    fc = FlowConstants.from_params(JacobiParams(0.5, 0.5))
    assert flow_K_ode_residual(fc, 0.5, 0.5, 0.5 * fc.t0) > 1e-2


# ---------------------------------------------------------------------------
# Cauchy transform closed form at theta = 1/2


def test_cauchy_mu_half_arcsine_point():
    assert cauchy_mu_half(1.0, 2.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                     abs=1e-14)


def test_cauchy_mu_half_matches_general_closed_form():
    p = JacobiParams(0.5, 0.5)
    for z in (2.0 + 1.0j, -0.7, 5.0, 0.5 + 0.2j):
        got = cauchy_mu_half(0.5, z)
        want = cauchy_closed_form_mu(p, z)
        assert got == pytest.approx(want, abs=1e-12)


def test_cauchy_mu_half_asymptotics_and_guards():
    assert 1e6 * cauchy_mu_half(0.7, 1e6) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        cauchy_mu_half(0.7, 0.5)
    with pytest.raises(ValueError):
        cauchy_mu_half(1.5, 2.0)
