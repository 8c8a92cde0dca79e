"""Spectral-measure constructors, moments, Cauchy transforms, inversion."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from freejacobi import (
    ConvergenceError,
    JacobiParams,
    SpectralMeasure,
    cauchy_closed_form_mu,
    cauchy_transform,
    cdf_grid,
    moments,
    mu_lambda_theta,
    nu_lambda,
    nu_lambda_theta,
    one_step_law,
    pushforward_affine,
    stieltjes_invert,
    xi_lambda,
    xi_shift,
)
from freejacobi.martingale import stationary_moments
from freejacobi.measures import _integrate_ac, _sin_nodes
from freejacobi.renorm import u_combination

lams = st.floats(0.05, 1.0, allow_nan=False)
thetas = st.floats(0.05, 0.5, allow_nan=False)


def arcsine01(x):
    return 1.0 / (np.pi * np.sqrt(x * (1.0 - x)))


def arcsine_sym(x):
    return 1.0 / (np.pi * np.sqrt(1.0 - x * x))


# ---------------------------------------------------------------------------
# Parameter validation and support endpoints


def test_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(0.0, 0.4)
    with pytest.raises(ValueError):
        JacobiParams(1.7, 0.4)
    with pytest.raises(ValueError):
        JacobiParams(0.5, 0.0)
    with pytest.raises(ValueError):
        JacobiParams(0.5, 0.6)


@given(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.0, 0.5, exclude_min=True))
@example(1.0, 0.5)
@example(5e-324, 0.5)
@example(5e-324, 5e-324)
def test_params_domain_boundary_accepted(lam, th):
    p = JacobiParams(lam, th)
    assert 0.0 <= p.x_minus <= p.x_plus <= 1.0


@given(st.floats(0.0, 1.0, exclude_min=True),
       st.floats(0.5, 1.0, exclude_min=True))
@example(0.5, math.nextafter(0.5, 1.0))
def test_params_rejects_theta_above_half(lam, th):
    # Includes theta in (1/2, 1/(lam+1)], injective but outside the domain.
    with pytest.raises(ValueError):
        JacobiParams(lam, th)


@given(st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
       st.floats(0.0, 0.5, exclude_min=True))
@example(math.nextafter(1.0, 2.0), 0.5)
@example(-0.0, 0.5)
def test_params_rejects_lam_outside(lam, th):
    with pytest.raises(ValueError):
        JacobiParams(lam, th)


def test_support_endpoints_half_theta():
    # At lam = theta = 1/2 the support is [(2-sqrt(3))/4, (2+sqrt(3))/4].
    p = JacobiParams(0.5, 0.5)
    assert p.x_minus == pytest.approx((2.0 - math.sqrt(3.0)) / 4.0, abs=1e-15)
    assert p.x_plus == pytest.approx((2.0 + math.sqrt(3.0)) / 4.0, abs=1e-15)


@given(lams, thetas)
def test_support_inside_unit_interval(lam, th):
    p = JacobiParams(lam, th)
    assert 0.0 <= p.x_minus < p.x_plus <= 1.0


def test_support_degenerates_at_lam_one():
    p = JacobiParams(1.0, 0.5)
    assert p.x_minus == 0.0
    assert p.x_plus == 1.0


# ---------------------------------------------------------------------------
# SpectralMeasure construction guards


def _unit(x):
    return np.full_like(np.asarray(x, dtype=float), 0.5)


def test_measure_rejects_reversed_support():
    with pytest.raises(ValueError):
        SpectralMeasure((1.0, 0.0), _unit)


def test_measure_rejects_atom_inside_support():
    with pytest.raises(ValueError):
        SpectralMeasure((0.0, 1.0), _unit, atoms=((0.5, 0.5),))


def test_measure_rejects_bad_atom_weight():
    with pytest.raises(ValueError):
        SpectralMeasure((0.0, 1.0), _unit, atoms=((2.0, 1.5),))


def test_measure_rejects_negative_density():
    with pytest.raises(ValueError):
        SpectralMeasure((0.0, 1.0), lambda x, dlo, dhi: 2.0 * x - 1.0)


def test_measure_rejects_wrong_mass():
    with pytest.raises(ValueError):
        SpectralMeasure((0.0, 1.0), lambda x, dlo, dhi: np.full_like(x, 0.7))


def test_measure_bounded_density_moments():
    # A bounded density gains nothing from the edge clustering of the nodes;
    # its moments must still come out exact.
    m = SpectralMeasure((0.0, 1.0), lambda x, dlo, dhi: np.ones_like(x))
    np.testing.assert_allclose(moments(m, 12), 1.0 / np.arange(1, 14),
                               rtol=0.0, atol=1e-12)


def test_measure_atom_only():
    m = SpectralMeasure((0.3, 0.3), lambda x: np.zeros_like(x),
                        atoms=((0.3, 1.0),))
    assert m.total_mass() == pytest.approx(1.0)
    assert m.atom_weight() == 1.0


# ---------------------------------------------------------------------------
# Constructors: normalization, symmetry, closed-form special cases


@given(lams, thetas)
def test_mu_mass_and_mean(lam, th):
    m = mu_lambda_theta(JacobiParams(lam, th))
    ms = moments(m, 1)
    assert ms[0] == pytest.approx(1.0, abs=1e-9)
    assert ms[1] == pytest.approx(th, abs=1e-9)


def test_mu_arcsine_case():
    # lam = 1, theta = 1/2: density 1/(pi sqrt(x(1-x))) on [0, 1].
    m = mu_lambda_theta(JacobiParams(1.0, 0.5))
    assert m.support == (0.0, 1.0)
    xs = np.linspace(0.02, 0.98, 25)
    np.testing.assert_allclose(m.density(xs), arcsine01(xs), rtol=1e-12)


def test_nu_lambda_arcsine_case():
    m = nu_lambda(1.0)
    xs = np.linspace(-0.98, 0.98, 25)
    np.testing.assert_allclose(m.density(xs), arcsine_sym(xs), rtol=1e-12)


def test_nu_lambda_rejects_bad_lam():
    with pytest.raises(ValueError):
        nu_lambda(0.0)
    with pytest.raises(ValueError):
        nu_lambda(1.2)


@given(lams)
def test_nu_lambda_symmetric_and_normalized(lam):
    m = nu_lambda(lam)
    ms = moments(m, 3)
    assert ms[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(ms[1]) < 1e-12
    assert abs(ms[3]) < 1e-12


def test_nu_lambda_theta_reduces_at_half():
    # theta = 1/2 collapses the general-theta density onto nu_lambda.
    for lam in (0.3, 0.7, 1.0):
        general = nu_lambda_theta(JacobiParams(lam, 0.5))
        special = nu_lambda(lam)
        xs = np.linspace(-0.97, 0.97, 41)
        np.testing.assert_allclose(general.density(xs), special.density(xs),
                                   rtol=0, atol=1e-12)


def test_nu_lambda_theta_is_affine_image_of_mu():
    # The symmetric law is the image of the stationary one under
    # x -> (2x - s)/d with s = x_+ + x_-, d = x_+ - x_-.
    p = JacobiParams(0.6, 0.35)
    s = p.x_plus + p.x_minus
    d = p.x_plus - p.x_minus
    img = pushforward_affine(mu_lambda_theta(p), 2.0 / d, -s / d)
    direct = nu_lambda_theta(p)
    xs = np.linspace(-0.95, 0.95, 31)
    np.testing.assert_allclose(img.density(xs), direct.density(xs), rtol=1e-10)


def test_xi_atom_location_and_weight():
    a = xi_shift(0.5)
    m = xi_lambda(0.5)
    ((loc, w),) = m.atoms
    assert loc == pytest.approx(math.sqrt(a * a + 1.0), abs=1e-15)
    assert w == pytest.approx(a / math.sqrt(a * a + 1.0), abs=1e-15)


def test_xi_atom_beyond_the_square_range():
    # At lam = 5e-324, a = xi_shift(lam) is about 3.2e161 and a * a
    # overflows; the atom stays at hypot(a, 1) = a with weight 1.
    a = xi_shift(5e-324)
    m = xi_lambda(5e-324)
    assert m.atoms == ((math.hypot(a, 1.0), 1.0),)
    assert 3.1e161 < m.atoms[0][0] < 3.2e161
    assert m.total_mass() == 1.0
    # Wherever a * a is finite, the atom is sqrt(a * a + 1) as before.
    for lam in (1e-300, 1e-16, 1e-4, 0.1, 0.3, 0.5, 0.7, 0.999):
        a = xi_shift(lam)
        x = math.sqrt(a * a + 1.0)
        assert xi_lambda(lam).atoms == ((x, a / x),)


def test_xi_lam_one_has_no_atom():
    m = xi_lambda(1.0)
    assert m.atoms == ()
    xs = np.linspace(-0.98, 0.98, 25)
    np.testing.assert_allclose(m.density(xs), arcsine_sym(xs), rtol=1e-12)


@given(lams)
@example(lam=0.99999)  # density poles ~1e-10 outside both edges
def test_xi_total_mass_splits(lam):
    # a.c. mass + atom weight = 1, i.e. the a.c. part carries 1 - a/sqrt(a^2+1).
    m = xi_lambda(lam)
    ac = float(_integrate_ac(m, lambda x: np.ones_like(x)))
    assert ac + m.atom_weight() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("alpha0, omega1", [
    (0.0, 0.25), (0.4, 0.3), (-0.3, 0.45), (0.9, 0.3), (-1.2, 0.5),
    (0.3, 0.8), (0.0, 1.5), (2.0, 0.26),
    # The zero of D rounds an ulp inside the edge, 0.9999999999999998.
    (0.4800000000000021, 0.26),
])
def test_one_step_law_has_the_moments_of_its_data(alpha0, omega1,
                                                  jacobi_moments):
    # The one law of the Jacobi data alpha_0, omega_1, then 0 and 1/4: no
    # atom, one atom beyond either edge, and for omega_1 > 1/2 one beyond
    # each edge.  Its moments are those of the recurrence.
    m = one_step_law(alpha0, omega1)
    sides = [np.sign(x) for x, _ in m.atoms]
    want_sides = [s for s in (-1.0, 1.0) if s * alpha0 > 1.0 - 2.0 * omega1]
    assert sides == want_sides
    np.testing.assert_allclose(moments(m, 8),
                               jacobi_moments(alpha0, omega1, 8),
                               rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("a", [1e-8, 0.3, 1.0, 7.5, -0.3, -40.0])
def test_one_step_law_atom_at_half_is_a_over_z(a):
    # At omega_1 = 1/2 the zero of D is sign(a) sqrt(a^2 + 1) and the
    # weight rule gives |a|/|z| to the bit.
    z = math.copysign(math.sqrt(a * a + 1.0), a)
    assert one_step_law(a, 0.5).atoms == ((z, abs(a) / abs(z)),)


def test_one_step_law_rejects_nonpositive_omega():
    for omega1 in (0.0, -0.25, float("nan")):
        with pytest.raises(ValueError, match="must be positive"):
            one_step_law(0.0, omega1)


# Log-spaced down to 1e-300 and linear up to 1/2.
_NEAR_ONE_THETAS = np.concatenate([np.geomspace(1e-300, 0.5, 250),
                                   np.linspace(0.0, 0.5, 251)[1:]])


@pytest.mark.parametrize("lam", [1.0, math.nextafter(1.0, 0.0), 1.0 - 1e-12,
                                 0.99999999])
def test_nu_theta_and_mu_have_no_atom(lam):
    # D(-1) = -(1 - 2 omega_1) - b is exactly 0 at lam = 1, and about 1e-16
    # of either sign with the float b = sqrt(lam/((1 - theta)(1 - lam
    # theta))) (2 theta - 1)/2: an atom of weight about 1e-16 at
    # -1.0000000000000002, or a division by zero.  The data of nu_theta
    # keep D(-1) <= 0 in floats at every theta.
    for theta in _NEAR_ONE_THETAS:
        p = JacobiParams(lam, float(theta))
        assert nu_lambda_theta(p).atoms == (), theta
        if theta > 1e-250:
            assert mu_lambda_theta(p).atoms == (), theta


@pytest.mark.parametrize("lam", [0.99999999, 1.0 - 1e-12,
                                 math.nextafter(1.0, 0.0)])
def test_xi_keeps_its_atom_on_the_edge(lam):
    # sqrt(1 + a^2) rounds to 1.0: the atom lies on the edge of the a.c.
    # support, with weight a, and the mass stays 1.
    a = xi_shift(lam)
    m = xi_lambda(lam)
    assert m.atoms == ((1.0, a),)
    assert abs(m.total_mass() - 1.0) <= 1e-12


@pytest.mark.parametrize("lam, th", [
    (0.3, 0.2), (0.7, 0.45), (0.99, 0.5),
    (1.0, 0.4), (1.0, 1e-8), (0.5, 1e-3), (1e-8, 0.3),
])
def test_densities_match_displayed_forms(lam, th):
    # Every density is the one edge form of one_step_law (read through the
    # map of its support for mu); its density at x is that form at x - lo
    # and hi - x, and equals the displayed closed form, the oracle, also at
    # lam = 1 and near the small-theta and small-lam edges of the domain.
    p = JacobiParams(lam, th)
    q, a = lam * (2.0 - lam), xi_shift(lam)
    s = 2.0 * th * (1.0 + lam - 2.0 * lam * th)
    d = 4.0 * th * math.sqrt(lam * (1.0 - th) * (1.0 - lam * th))
    xm, xp = p.x_minus, p.x_plus
    laws = [
        (mu_lambda_theta(p), lambda x: np.sqrt((xp - x) * (x - xm))
         / (2.0 * np.pi * lam * th * x * (1.0 - x))),
        (nu_lambda(lam), lambda x: (2.0 - lam) / np.pi * np.sqrt(1.0 - x * x)
         / (1.0 - q * x * x)),
        (nu_lambda_theta(p), lambda x: d * d * np.sqrt(1.0 - x * x)
         / (2.0 * np.pi * lam * th * (s + d * x) * (2.0 - s - d * x))),
        (xi_lambda(lam), lambda x: np.sqrt(1.0 - x * x)
         / (np.pi * (a * a + 1.0 - x * x))),
    ]
    for m, closed in laws:
        lo, hi = m.support
        xs = lo + (hi - lo) * np.linspace(0.01, 0.99, 33)
        np.testing.assert_allclose(m.density(xs), closed(xs), rtol=1e-12)
        np.testing.assert_array_equal(
            m.density(xs), m.density_edges(xs, xs - lo, hi - xs))


@pytest.mark.parametrize("call", [
    lambda lam: nu_lambda(lam),
    lambda lam: xi_shift(lam),
    lambda lam: u_combination("Q_lambda", lam),
    lambda lam: u_combination("Q_lambda_theta", lam, 0.4),
], ids=["nu_lambda", "xi_shift", "u_combination", "u_combination_theta"])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_lam_outside_domain_keeps_its_message(call, lam):
    # These check lam through JacobiParams, the one statement of the domain.
    with pytest.raises(ValueError, match=rf"^lam = {lam} outside \(0, 1\]$"):
        call(lam)


def test_mu_and_nu_theta_reject_underflowing_normaliser(nu_theta_moments):
    # JacobiParams accepts (1e-300, 5e-324), where 2 pi lam theta is 0.
    # Both laws used to refuse it for that normaliser.  nu_theta, whose
    # density needs none, now has the moments of its Jacobi data; the
    # support of mu, about 4 theta sqrt(lam) = 2e-473 wide, is one float.
    p = JacobiParams(1e-300, 5e-324)
    np.testing.assert_allclose(moments(nu_lambda_theta(p), 6),
                               nu_theta_moments(p.lam, p.theta, 6),
                               rtol=0.0, atol=1e-13)
    with pytest.raises(ValueError, match=(
            "the support of mu at lam = 1e-300, theta = 5e-324 collapses "
            "to the one float 5e-324")):
        mu_lambda_theta(p)


@pytest.mark.parametrize("lam", [1e-300, 5e-324, 1e-32])
def test_mu_rejects_support_of_one_float(lam):
    # The support, sqrt(lam (2 - lam)) wide at theta = 1/2, rounds to one
    # float; the law used to fail its mass check with "total mass 0.0".
    with pytest.raises(ValueError,
                       match="collapses to the one float 0.5000000000000001"):
        mu_lambda_theta(JacobiParams(lam, 0.5))


@pytest.mark.parametrize("lam, theta", [(1.0, 5e-324), (0.5, 1e-310)])
def test_mu_rejects_overflowing_normaliser(lam, theta):
    # 2 pi lam theta is subnormal but not 0: its reciprocal overflows, and
    # the density used to be NaN at every node, so the quadrature doubled to
    # its budget and reported that it did not settle.  The support of mu is
    # subnormal there, and the edge distances of its outer tanh-sinh nodes
    # fall below the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=(
                rf"the support of mu at lam = {lam}, theta = {theta} is "
                r".* wide: the edge distances of its quadrature nodes, "
                r"down to 5.8e-38 of that, underflow")):
            mu_lambda_theta(JacobiParams(lam, theta))


# lam within 1e-8 of 1, where x_- (and near theta = 1/2 also 1 - x_+) lies
# below sqrt(eps) of the pole of the density; lam <= 1e-16, where the
# support's width is the difference of two floats near theta; and supports
# about 1e-140 and 1e-150 wide.
@pytest.mark.parametrize("lam, theta", [
    (math.nextafter(1.0, 0.0), 0.3), (1.0 - 1e-12, 0.1),
    (0.99999999, 0.5), (1.0 - 2.2e-16, math.nextafter(0.5, 0.0)),
    (1e-16, 0.3), (1e-16, 0.5), (1e-20, 0.3), (1e-20, 0.5),
    (1.0, 1e-140), (0.5, 1e-150),
])
def test_mu_near_lambda_one_keeps_its_moments(lam, theta):
    # x itself rounded to 0 (or 1 - x to 0) at the nodes next to the edge,
    # so the density was inf there and the quadrature never settled; and
    # 1 - x_+ in floats carried an error that cost 1.5e-8 of the mass.  At
    # lam <= 1e-16 the width kept only about eps / (4 sqrt(lam)) relative
    # accuracy, and the mass check failed; the two narrow supports were
    # refused for their edge products.
    # The moments are those of the drift's own fixed point.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = moments(mu_lambda_theta(JacobiParams(lam, theta)), 6)
    want = stationary_moments(lam, theta, 6)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_mu_moments_match_the_drift_on_a_grid():
    # mu reads the edge form of nu_theta through the map of its support;
    # over the whole domain its degree-16 moments are the exact ones of the
    # drift's fixed point to roundoff.  Its own formula missed them by up
    # to 4.4e-9 at lam = 1e-15.
    worst, where = 0.0, None
    for lam in (1e-15, 1e-8, 1e-4, 0.01, 0.1, 0.25, 0.3, 0.5, 0.6, 0.7, 0.9,
                0.99, 0.999999, 0.9999999999999999, 1.0):
        for theta in (1e-100, 1e-8, 1e-3, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45,
                      0.49, 0.5):
            got = moments(mu_lambda_theta(JacobiParams(lam, theta)), 16)
            want = np.array([float(m) for m in stationary_moments(
                Fraction(lam), Fraction(theta), 16)])
            nz = want != 0.0
            rel = np.abs(got[nz] - want[nz]) / np.abs(want[nz])
            if np.max(rel) > worst:
                worst, where = float(np.max(rel)), (lam, theta)
    assert worst < 1e-13, where


@pytest.mark.parametrize("lam, theta", [(1.0, 5e-324), (0.5, 1e-170)])
def test_nu_theta_rejects_underflowing_scale(lam, theta, nu_theta_moments):
    # d^2 = nu_map(lam, theta)[1] underflows to 0, and nu_theta used to
    # refuse these points for it.  Its density does not read d: it now has
    # the moments of its Jacobi data.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = moments(nu_lambda_theta(JacobiParams(lam, theta)), 6)
    np.testing.assert_allclose(got, nu_theta_moments(lam, theta, 6),
                               rtol=0.0, atol=1e-13)


def test_xi_shift_variants():
    assert xi_shift(0.5) == pytest.approx(0.5 / math.sqrt(0.75))
    assert xi_shift(0.5, "rational") == pytest.approx(0.5 / 0.75)
    assert xi_shift(1.0) == 0.0
    with pytest.raises(ValueError):
        xi_shift(0.5, "cubic")
    with pytest.raises(ValueError):
        xi_shift(0.0)


# ---------------------------------------------------------------------------
# Edge-distance plumbing


def test_sin_nodes_edge_distances():
    lo, hi = 0.0, 1.0
    x, jac, dlo, dhi = _sin_nodes(lo, hi, 1024)
    # Exact complements: dlo + dhi = hi - lo by the half-angle identity.
    np.testing.assert_allclose(dlo + dhi, hi - lo, rtol=1e-15)
    assert np.all(dlo > 0.0) and np.all(dhi > 0.0)
    # Away from the edges they agree with the naive differences.
    mid = (x > 0.1) & (x < 0.9)
    np.testing.assert_allclose(dlo[mid], x[mid] - lo, rtol=1e-12)
    np.testing.assert_allclose(dhi[mid], hi - x[mid], rtol=1e-12)
    assert jac.shape == x.shape


def test_edge_density_finite_even_if_x_rounds_onto_endpoint():
    # The separate edge distances keep inverse-square-root densities finite
    # where the node value itself has rounded onto the endpoint.
    m = nu_lambda(1.0)
    vals = m.density_edges(np.array([1.0, -1.0]), np.array([2e-17, 2.0]),
                           np.array([2.0, 3e-17]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)


# ---------------------------------------------------------------------------
# Moments


def test_moments_against_exact_rationals():
    from freejacobi.exact import mu_half_moments

    got = moments(mu_lambda_theta(JacobiParams(0.7, 0.5)), 10)
    from fractions import Fraction
    want = [float(v) for v in mu_half_moments(Fraction(7, 10), 10)]
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_moments_include_atoms():
    m = xi_lambda(0.4)
    ((loc, w),) = m.atoms
    ac_part = float(_integrate_ac(m, lambda x: np.ones_like(x)))
    assert moments(m, 0)[0] == pytest.approx(ac_part + w, abs=1e-12)


def test_moments_rejects_negative_order():
    with pytest.raises(ValueError):
        moments(nu_lambda(0.5), -1)


def test_quadrature_budget_exhaustion_raises():
    m = nu_lambda(0.5)
    with pytest.raises(ConvergenceError):
        _integrate_ac(m, lambda x: np.ones_like(x), tol=0.0, n_max=512)


def _node_workout(m):
    """Cauchy transforms near and far from the support plus a moment table:
    together they fill the measure's node store at several levels."""
    zs = (1.5, -1.2 + 0.3j, 0.2 + 0.05j, 0.4 + 0.01j, 3.0j)
    return [cauchy_transform(m, z) for z in zs], moments(m, 12)


@pytest.mark.parametrize("build", [
    lambda: nu_lambda(0.5),
    lambda: xi_lambda(0.3),
    lambda: mu_lambda_theta(JacobiParams(0.7, 0.4)),
])
def test_stored_nodes_give_fresh_values(build):
    # The nodes and density values kept on a measure are those a fresh
    # measure would build: a measure that has served many calls gives
    # bit-identical results.
    used = build()
    for _ in range(3):
        _node_workout(used)
    g_used, m_used = _node_workout(used)
    g_fresh, m_fresh = _node_workout(build())
    assert g_used == g_fresh
    assert m_used.tobytes() == m_fresh.tobytes()


def test_replaced_measure_does_not_reuse_nodes():
    # A dataclasses.replace copy with another density on the same support
    # must integrate its own density, not the stored weights of the original.
    from dataclasses import replace

    m, other = nu_lambda(0.5), nu_lambda(0.9)
    _node_workout(m)
    copy = replace(m, density_edges=other.density_edges)
    assert moments(copy, 6).tobytes() == moments(nu_lambda(0.9), 6).tobytes()
    assert moments(copy, 6)[2] != moments(m, 6)[2]
    assert cauchy_transform(copy, 1.5) == cauchy_transform(other, 1.5)


def test_replaced_measure_derives_its_density():
    # A copy with another edge form evaluates that form at x, not the
    # density of the original.
    from dataclasses import replace

    m, other = nu_lambda(0.5), nu_lambda(0.9)
    copy = replace(m, density_edges=other.density_edges)
    xs = np.linspace(-0.99, 0.99, 25)
    np.testing.assert_array_equal(copy.density(xs), other.density(xs))
    assert copy.density(0.3) != m.density(0.3)


# ---------------------------------------------------------------------------
# Cauchy transforms


def test_cauchy_decays_like_one_over_z():
    z = 1e6
    for m in (mu_lambda_theta(JacobiParams(0.5, 0.4)), nu_lambda(0.8),
              xi_lambda(0.6)):
        assert complex(z) * cauchy_transform(m, z) == pytest.approx(1.0, abs=1e-5)


@given(lams, thetas, st.floats(-2, 2), st.floats(0.05, 2))
@example(lam=0.99999, th=0.5, re=0.0, im=0.05)  # x(1-x) poles ~1e-10 off the edges
def test_cauchy_is_nevanlinna(lam, th, re, im):
    # Herglotz property: the transform of a probability measure maps the
    # upper half-plane into the lower one.
    m = mu_lambda_theta(JacobiParams(lam, th))
    assert cauchy_transform(m, complex(re, im)).imag < 0.0


def test_cauchy_too_close_to_support_fails_fast():
    # A kernel peak of width 1e-9 inside the support is out of reach of the
    # node budget; the quadrature must say so within seconds.
    start = time.perf_counter()
    with pytest.raises(ConvergenceError):
        cauchy_transform(nu_lambda(0.5), 0.3 + 1e-9j)
    assert time.perf_counter() - start < 10.0


def test_cauchy_rejects_points_on_support_or_atoms():
    m = mu_lambda_theta(JacobiParams(0.5, 0.4))
    with pytest.raises(ValueError):
        cauchy_transform(m, 0.5 * (m.support_lo + m.support_hi))
    xi = xi_lambda(0.5)
    with pytest.raises(ValueError):
        cauchy_transform(xi, xi.atoms[0][0])


def test_cauchy_closed_form_matches_quadrature():
    rng = np.random.default_rng(7)
    for lam, th in ((0.5, 0.4), (0.8, 0.25), (1.0, 0.5)):
        p = JacobiParams(lam, th)
        m = mu_lambda_theta(p)
        for _ in range(6):
            z = complex(rng.uniform(-1.5, 2.5), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
            got = cauchy_closed_form_mu(p, z)
            want = cauchy_transform(m, z)
            assert got == pytest.approx(want, abs=1e-10)


def test_cauchy_closed_form_real_axis_branch():
    p = JacobiParams(0.5, 0.4)
    m = mu_lambda_theta(p)
    for z in (-0.7, 1.9, 5.0):
        assert cauchy_closed_form_mu(p, z) == pytest.approx(
            cauchy_transform(m, z), abs=1e-11)
    with pytest.raises(ValueError):
        cauchy_closed_form_mu(p, 0.5)


# ---------------------------------------------------------------------------
# Stieltjes inversion


def test_invert_symmetric_arcsine_center():
    got = stieltjes_invert(nu_lambda(1.0), 0.0)
    assert got == pytest.approx(1.0 / np.pi, rel=1e-5)


def test_invert_recovers_mu_densities():
    for lam, th in ((0.5, 0.5), (1.0, 0.5)):
        m = mu_lambda_theta(JacobiParams(lam, th))
        lo, hi = m.support
        for f in (0.27, 0.62):
            x = lo + f * (hi - lo)
            got = stieltjes_invert(m, x)
            assert got == pytest.approx(float(m.density(x)), rel=1e-5)


def test_invert_handles_atomic_part():
    m = xi_lambda(0.5)
    got = stieltjes_invert(m, 0.4)
    assert got == pytest.approx(float(m.density(0.4)), rel=1e-5)


def test_invert_input_checks():
    m = nu_lambda(0.5)
    with pytest.raises(ValueError):
        stieltjes_invert(m, 1.5)
    with pytest.raises(ValueError):
        stieltjes_invert(m, 0.2, y_steps=(0.01, 0.02))
    with pytest.raises(ValueError):
        stieltjes_invert(m, 0.2, y_steps=(0.01,))


# ---------------------------------------------------------------------------
# Pushforward and distribution function


def test_pushforward_mu_to_symmetric_arcsine():
    # lam = 1, theta = 1/2 under x -> 2x - 1 becomes the arcsine law on [-1, 1].
    img = pushforward_affine(mu_lambda_theta(JacobiParams(1.0, 0.5)), 2.0, -1.0)
    assert img.support == (-1.0, 1.0)
    xs = np.linspace(-0.96, 0.96, 31)
    np.testing.assert_allclose(img.density(xs), arcsine_sym(xs), rtol=1e-12)
    # Edge evaluator is propagated: the edge-singular image still integrates.
    assert moments(img, 2)[2] == pytest.approx(0.5, abs=1e-9)


def test_pushforward_negative_scale():
    m = xi_lambda(0.5)
    img = pushforward_affine(m, -1.0, 0.0)
    ((loc, w),) = img.atoms
    assert loc == pytest.approx(-m.atoms[0][0])
    assert w == pytest.approx(m.atoms[0][1])
    ms_orig = moments(m, 3)
    ms_img = moments(img, 3)
    np.testing.assert_allclose(ms_img, ms_orig * (-1.0) ** np.arange(4),
                               atol=1e-10)


def test_pushforward_rejects_zero_scale():
    with pytest.raises(ValueError):
        pushforward_affine(nu_lambda(0.5), 0.0, 1.0)


def test_cdf_grid_arcsine():
    xs, Fs = cdf_grid(mu_lambda_theta(JacobiParams(1.0, 0.5)))
    assert np.all(np.diff(Fs) >= -1e-15)
    assert Fs[0] == 0.0
    assert Fs[-1] == pytest.approx(1.0, abs=1e-6)
    # F(x) = (2/pi) arcsin(sqrt(x))
    for q in (0.2, 0.5, 0.8):
        got = np.interp(q, xs, Fs)
        assert got == pytest.approx(2.0 / np.pi * np.arcsin(np.sqrt(q)),
                                    abs=1e-5)


def test_cdf_grid_arcsine_near_edges():
    # The tanh-sinh nodes crowd double-exponentially towards the edges, so
    # the grid resolves the inverse-square-root edges up to 1e-9 from them.
    xs, Fs = cdf_grid(mu_lambda_theta(JacobiParams(1.0, 0.5)))
    near = np.geomspace(1e-9, 0.5, 400)
    q = np.concatenate([near, 1.0 - near, np.linspace(0.0, 1.0, 1001)])
    exact = 2.0 / np.pi * np.arcsin(np.sqrt(q))
    assert np.max(np.abs(np.interp(q, xs, Fs) - exact)) < 1e-6


def test_cdf_grid_against_scipy_quad():
    from scipy import integrate

    m = mu_lambda_theta(JacobiParams(0.5, 0.3))
    xs, Fs = cdf_grid(m)
    assert np.all(np.diff(xs) >= 0.0) and np.all(np.diff(Fs) >= 0.0)
    assert (xs[0], Fs[0]) == (m.support_lo, 0.0)
    assert xs[-1] == m.support_hi
    assert Fs[-1] == pytest.approx(m.total_mass(), abs=1e-12)
    lo, hi = m.support
    pts = lo + (hi - lo) * np.linspace(0.0, 1.0, 41)[1:-1]
    want = [integrate.quad(m.density, lo, x, epsabs=1e-13, limit=200)[0]
            for x in pts]
    assert np.max(np.abs(np.interp(pts, xs, Fs) - want)) < 1e-6


def test_cdf_grid_atom_jump():
    m = xi_lambda(0.5)
    xs, Fs = cdf_grid(m)
    assert Fs[-1] == pytest.approx(1.0, abs=1e-6)
    # Jump of size w at the atom, which lies beyond the a.c. support.
    ((loc, w),) = m.atoms
    assert xs[-1] == pytest.approx(loc)
    assert Fs[-1] - Fs[-2] == pytest.approx(w, abs=1e-12)
