"""Theta kernels, product-dependence certification, generating families."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from freejacobi import (
    JacobiParams,
    RenormKernel,
    build_P_lambda,
    build_Q_lambda,
    build_Q_lambda_theta,
    certify_product_dependence,
    chebyshev_T,
    family_gram,
    moments,
    nu_lambda,
    nu_lambda_theta,
    one_step_law,
    rho_trig,
    stated_params,
    theta_one,
    theta_ratio,
    theta_two,
    u_combination,
    xi_lambda,
    xi_shift,
)
from freejacobi import errors, measures
from freejacobi.exact import ONE, X
from freejacobi.polys import family_values
from freejacobi.renorm import (FAMILIES, _admissible_u, _default_grid,
                               _family_data)
from helpers import (EXACT_POINTS, chebyshev_combination, poly_allclose,
                     rho_trig_identity_check, taylor_coeffs_in_u)


# ---------------------------------------------------------------------------
# Kernel construction


def test_kernel_rejects_bad_rho():
    m = nu_lambda(0.5)
    with pytest.raises(ValueError):
        RenormKernel(m, rho=lambda u: u + 1.0)
    with pytest.raises(ValueError):
        RenormKernel(m, rho=lambda u: u * u)


def test_rho_trig_values():
    assert rho_trig(0.0) == 0.0
    assert rho_trig(1.0) == 1.0
    assert rho_trig(0.5) == pytest.approx(0.8)


# ---------------------------------------------------------------------------
# theta kernels against closed forms


def test_theta_one_nu_closed_form():
    lam = 0.5
    k = RenormKernel(nu_lambda(lam))
    for u in (-0.85, -0.3, 0.0, 0.2, 0.3, 0.7, 0.9):
        if u == 0.0:
            assert theta_one(k, u) == 1.0
            continue
        want = (2.0 - lam) / (1.0 - lam + math.sqrt(1.0 - u * u))
        assert theta_one(k, u) == pytest.approx(want, abs=1e-10)


def test_theta_one_nu_frozen_value():
    k = RenormKernel(nu_lambda(0.5))
    assert theta_one(k, 0.3) == pytest.approx(1.0316800032203, abs=1e-9)


def test_theta_one_xi_closed_form():
    # The xi law (atom included) has theta(u) = 1/(sqrt(1-u^2) - a u).
    lam = 0.5
    a = xi_shift(lam)
    k = RenormKernel(xi_lambda(lam))
    for u in (-0.6, -0.2, 0.25, 0.3, 0.55):
        want = 1.0 / (math.sqrt(1.0 - u * u) - a * u)
        assert theta_one(k, u) == pytest.approx(want, abs=1e-10)
    assert theta_one(k, 0.2) == pytest.approx(1.1569710749484, abs=1e-9)


def test_theta_two_basics():
    k = RenormKernel(nu_lambda(0.5))
    assert theta_two(k, 0.0, 0.0) == 1.0
    # Symmetry of the defining integral.
    assert theta_two(k, 0.2, 0.4) == pytest.approx(theta_two(k, 0.4, 0.2),
                                                   abs=1e-12)


def test_theta_two_against_direct_quadrature():
    # Independent check: integrate the product kernel directly (sin
    # substitution makes the integrand smooth through the edges).
    lam, u, v = 0.7, 0.1, 0.3
    m = nu_lambda(lam)
    k = RenormKernel(m)

    def integrand(phi):
        x = math.sin(phi)
        return (float(m.density(x)) * math.cos(phi)
                / ((1.0 - u * x) * (1.0 - v * x)))

    want, err = integrate.quad(integrand, -math.pi / 2, math.pi / 2,
                               epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    assert theta_two(k, u, v) == pytest.approx(want, abs=1e-8)


def test_theta_two_product_assembly():
    # theta(u, v) assembles as the product of the two one-variable kernels
    # times (1/(2-lam)) [1 - lam + (u+v)/(u sqrt(1-v^2) + v sqrt(1-u^2))].
    lam, u, v = 0.5, 0.2, 0.4
    k = RenormKernel(nu_lambda(lam))
    got = theta_two(k, u, v)
    assert got == pytest.approx(1.104220284, abs=1e-7)
    factor = (1.0 / (2.0 - lam)) * (
        1.0 - lam + (u + v) / (u * math.sqrt(1.0 - v * v)
                               + v * math.sqrt(1.0 - u * u)))
    assert factor == pytest.approx(1.028717770, abs=1e-7)
    want = factor * theta_one(k, u) * theta_one(k, v)
    assert got == pytest.approx(want, abs=1e-9)


def test_theta_two_diagonal_matches_closed_form():
    # The direct integral at u = v against the closed product form.
    lam = 0.5
    k = RenormKernel(nu_lambda(lam))
    for u in (0.15, 0.4, 0.62):
        factor = (1.0 / (2.0 - lam)) * (
            1.0 - lam + 1.0 / math.sqrt(1.0 - u * u))
        want = factor * theta_one(k, u) ** 2
        assert theta_two(k, u, u) == pytest.approx(want, abs=1e-7)


def test_theta_two_diagonal_is_continuous_limit():
    k = RenormKernel(nu_lambda(0.5))
    on_diag = theta_two(k, 0.3, 0.3)
    near = theta_two(k, 0.3, 0.3 + 1e-5)
    assert on_diag == pytest.approx(near, abs=1e-4)


@pytest.mark.parametrize("gap", [1e-6, 2e-9])
def test_theta_two_near_diagonal_against_quad(gap):
    # The direct integral has no difference quotient to cancel near the
    # diagonal; the reference integrates the product kernel with scipy.
    u, v = 0.3, 0.3 - gap
    for m in (nu_lambda(0.5), xi_lambda(0.5)):

        def integrand(phi):
            x = math.sin(phi)
            return (float(m.density(x)) * math.cos(phi)
                    / ((1.0 - u * x) * (1.0 - v * x)))

        want, err = integrate.quad(integrand, -math.pi / 2, math.pi / 2,
                                   epsabs=1e-13, epsrel=1e-13, limit=200)
        want += sum(w / ((1.0 - u * x) * (1.0 - v * x)) for x, w in m.atoms)
        assert err < 1e-13
        assert abs(theta_two(RenormKernel(m), u, v) - want) < 1e-12


def test_theta_kernels_reject_rho_on_the_support():
    # 1/rho on the a.c. support (inside or at an edge) or on an atom.
    k = RenormKernel(nu_lambda(0.5))
    for u, v in ((2.0, 0.0), (0.3, 1.0), (-1.5, 0.2), (0.2, -1.0)):
        with pytest.raises(ValueError, match="a.c. support"):
            theta_two(k, u, v)
    with pytest.raises(ValueError, match="a.c. support"):
        theta_one(k, 2.0)
    m = xi_lambda(0.5)
    (x, _), = m.atoms
    k = RenormKernel(m)
    with pytest.raises(ValueError, match="atom"):
        theta_one(k, 1.0 / x)
    with pytest.raises(ValueError, match="atom"):
        theta_two(k, 0.1, 1.0 / x)


# ---------------------------------------------------------------------------
# Product-dependence certification


def test_certify_trig_rho_on_all_families():
    for m in (nu_lambda(0.5), xi_lambda(0.5),
              nu_lambda_theta(JacobiParams(0.6, 0.35))):
        ok, report = certify_product_dependence(RenormKernel(m))
        assert ok, report
        assert report["max_violation"] <= report["tol"]
        assert report["product_groups"] > 10


def test_certify_identity_rho_fails():
    k = RenormKernel(nu_lambda(0.5), rho=lambda u: u)
    # Keep both u and p/u below 1 so 1/rho(u) stays off the support.
    grid = [(u, p / u)
            for p in np.geomspace(1e-3, 0.4, 12)
            for u in np.geomspace(p / 0.9, 0.9, 3)]
    ok, report = certify_product_dependence(k, grid=grid)
    assert not ok
    assert report["max_violation"] > 1e-3
    assert report["worst_product"] is not None


def test_certify_respects_custom_tol():
    k = RenormKernel(nu_lambda(0.5))
    ok, report = certify_product_dependence(k, tol=1e-16)
    # An absurdly tight tolerance flips the verdict on quadrature noise.
    assert report["verdict"] == ok


def test_certify_runs_one_refine(monkeypatch):
    # Every kernel value of the grid comes from one node-doubling pass.
    m = xi_lambda(0.5)
    k = RenormKernel(m)
    calls = []
    refine = errors.refine

    def counting(*args):
        calls.append(args[2])
        return refine(*args)

    monkeypatch.setattr(errors, "refine", counting)
    ok, report = certify_product_dependence(k)
    assert ok and report["product_groups"] == 40
    assert len(calls) == 1


@pytest.mark.parametrize("lam", [1e-4, 1e-8, 1e-16, 1e-300])
def test_default_grid_stays_admissible(lam):
    # A far atom (xi at small lam) pushes the admissible u below 1e-2, and
    # at 1e-300 below any fixed bisection depth; every pair stays in
    # (0, u_max] and the products span four decades below u_max^2.
    k = RenormKernel(xi_lambda(lam))
    u_max = 0.95 * _admissible_u(k)
    assert 0.0 < u_max < 1e-2
    grid = _default_grid(k)
    assert len(grid) == 200
    # Within rounding: at the top product every split is (u_max, u_max),
    # and geomspace's interior points carry a relative error of about 1e-14
    # at u near 1e-151.
    assert all(0.0 < w <= u_max * (1.0 + 1e-13) for uv in grid for w in uv)
    products = sorted(u * v for u, v in grid)
    assert products[-1] <= u_max * u_max * (1.0 + 1e-13)
    assert products[0] == pytest.approx(1e-4 * u_max * u_max, rel=1e-12)
    ok, report = certify_product_dependence(k)
    assert ok and report["product_groups"] == 40, report


def test_default_grid_refuses_products_below_float_range():
    # At lam = 5e-324 the atom of xi sits near 3.2e161: the admissible u
    # squares into the subnormal range.
    with pytest.raises(ValueError, match="normal float range"):
        certify_product_dependence(RenormKernel(xi_lambda(5e-324)))


def test_rho_trig_addition_identity():
    assert rho_trig_identity_check(0.3, 0.5) < 1e-12
    assert rho_trig_identity_check(0.0, 0.7) < 1e-12
    assert rho_trig_identity_check(-0.2, 0.4) < 1e-12


def test_theta_ratio_depends_on_product_only():
    k = RenormKernel(nu_lambda(0.4))
    r1 = theta_ratio(k, 0.2, 0.3)
    r2 = theta_ratio(k, 0.1, 0.6)
    r3 = theta_ratio(k, 0.6, 0.1)
    assert r1 == pytest.approx(r2, abs=1e-10)
    assert r2 == pytest.approx(r3, abs=1e-12)


# ---------------------------------------------------------------------------
# Chebyshev-combination weights


def test_u_combination_Q_lambda():
    beta, gamma = u_combination("Q_lambda", 0.5)
    assert beta == 0.0
    assert gamma == pytest.approx(-0.5 / 1.5)


def test_u_combination_P_lambda_variants():
    beta, gamma = u_combination("P_lambda", 0.5)
    assert beta == pytest.approx(-2.0 * xi_shift(0.5))
    assert gamma == -1.0
    beta_r, _ = u_combination("P_lambda", 0.5, a_variant="rational")
    assert beta_r == pytest.approx(-2.0 * xi_shift(0.5, "rational"))


def test_u_combination_Q_lambda_theta_from_moments():
    # beta is minus twice the first moment of the symmetric law, and gamma
    # encodes its variance: independent derivation from raw moments.
    lam, th = 0.6, 0.4
    ms = moments(nu_lambda_theta(JacobiParams(lam, th)), 2)
    beta, gamma = u_combination("Q_lambda_theta", lam, th)
    assert beta == pytest.approx(-2.0 * ms[1], abs=1e-10)
    var = ms[2] - ms[1] ** 2
    assert gamma == pytest.approx(1.0 - 4.0 * var, abs=1e-10)


def test_u_combination_twice_doubles_shift():
    b1, g1 = u_combination("Q_lambda_theta", 0.6, 0.4)
    b2, g2 = u_combination("Q_lambda_theta", 0.6, 0.4, b_variant="twice")
    assert b2 == pytest.approx(2.0 * b1)
    assert g2 == g1


def test_u_combination_errors():
    with pytest.raises(ValueError):
        u_combination("cubic", 0.5)
    with pytest.raises(ValueError):
        u_combination("Q_lambda_theta", 0.5)  # theta missing
    with pytest.raises(ValueError):
        u_combination("Q_lambda_theta", 0.5, 0.4, b_variant="thrice")
    with pytest.raises(ValueError):
        u_combination("Q_lambda", 1.5)
    with pytest.raises(ValueError):
        u_combination("Q_lambda_theta", 0.5, 0.6)  # theta > 1/2


@pytest.mark.parametrize("lam", [5e-324, 0.3, 0.5, 0.7, 1.0])
def test_Q_lambda_is_Q_lambda_theta_at_half(lam):
    # One family table entry pinned at theta = 1/2: the same weights (exact
    # and float) and the same law as Q_lambda_theta there, whatever theta
    # is given.
    lamF = Fraction(lam)
    assert u_combination("Q_lambda", lamF) == \
        u_combination("Q_lambda_theta", lamF, Fraction(1, 2)) == \
        (0, -lamF / (2 - lamF))
    assert u_combination("Q_lambda", lam, 0.3) == \
        u_combination("Q_lambda_theta", lam, 0.5)
    xs = np.linspace(-0.99, 0.99, 23)
    want = nu_lambda_theta(JacobiParams(lam, 0.5)).density(xs)
    for m in (nu_lambda(lam), FAMILIES["Q_lambda"].measure(lam, 0.3)):
        np.testing.assert_array_equal(m.density(xs), want)
    assert FAMILIES["Q_lambda"].reads(0.3) == Fraction(1, 2)
    assert FAMILIES["Q_lambda_theta"].reads(0.3) == 0.3


# ---------------------------------------------------------------------------
# Gram matrices


def _offdiag_max(g):
    return float(np.max(np.abs(g - np.diag(np.diag(g)))))


def test_gram_Q_lambda_orthogonal():
    beta, gamma = u_combination("Q_lambda", 0.5)
    g = family_gram(nu_lambda(0.5), beta, gamma, 8)
    assert _offdiag_max(g) < 1e-10
    assert np.all(np.diag(g) > 0.0)


def test_gram_P_lambda_orthogonal_with_atom():
    beta, gamma = u_combination("P_lambda", 0.5)
    g = family_gram(xi_lambda(0.5), beta, gamma, 8)
    assert _offdiag_max(g) < 1e-9


def test_gram_Q_lambda_theta_orthogonal():
    p = JacobiParams(0.6, 0.4)
    beta, gamma = u_combination("Q_lambda_theta", p.lam, p.theta)
    g = family_gram(nu_lambda_theta(p), beta, gamma, 8)
    assert _offdiag_max(g) < 1e-10


def test_gram_doubled_shift_breaks_orthogonality():
    # The doubled shift coefficient is a negative control: off-diagonal
    # entries become order one whenever theta != 1/2.
    p = JacobiParams(0.6, 0.4)
    beta, gamma = u_combination("Q_lambda_theta", p.lam, p.theta,
                                b_variant="twice")
    g = family_gram(nu_lambda_theta(p), beta, gamma, 4)
    assert _offdiag_max(g) > 1e-3


@pytest.mark.parametrize("lam, th, atom", [
    (1.0, 0.2, (-1.12847, 0.5801)),
    (0.7, 0.3, (-1.00796, 0.1848)),
    (0.5, 0.4, None),
])
def test_doubled_shift_is_orthogonal_under_its_own_law(lam, th, atom):
    # Finding 1, made sharper: the tabulated family is orthogonal, but
    # under one_step_law of its own Jacobi data (2b, c/2), which at
    # (1, 0.2) and (0.7, 0.3) has an atom left of -1, and not under
    # nu_theta.
    beta, gamma = u_combination("Q_lambda_theta", lam, th, b_variant="twice")
    js = stated_params("Q_lambda_theta", lam=lam, theta=th, n_max=1)
    own = one_step_law(js.alpha[0], js.omega[0])
    if atom is None:
        assert own.atoms == ()
    else:
        ((x, w),) = own.atoms
        assert (x, w) == pytest.approx(atom, abs=5e-5)
    assert _offdiag_max(family_gram(own, beta, gamma, 12)) <= 1e-12
    nu = nu_lambda_theta(JacobiParams(lam, th))
    assert _offdiag_max(family_gram(nu, beta, gamma, 12)) >= 0.1


def test_gram_keeps_the_recurrence_at_a_foreign_atom():
    # The closed form F_n(z) = 4 omega_1 rho^n serves only the family's own
    # atom.  Under a law whose atom belongs to other data, the Gram is the
    # quadrature plus the recurrence's values at the atom, to the bit.
    beta, gamma = u_combination("P_lambda", 0.5)
    m = xi_lambda(0.3)
    alpha0, omega1 = -beta / 2, (1 - gamma) / 4
    ((z, _),) = m.atoms
    assert z != measures._one_step_atom(alpha0, omega1, 1.0)[0]
    iu, ju = np.triu_indices(13)

    def pair_values(x):
        x = np.asarray(x, dtype=float)
        fam = np.array(family_values(x, range(13), alpha0, omega1,
                                     np.ones_like(x)))
        return fam[iu] * fam[ju]

    vals = np.asarray(measures._integrate_ac(m, pair_values), dtype=float)
    vals = vals + m.atoms[0][1] * pair_values([z])[:, 0]
    want = np.zeros((13, 13))
    want[iu, ju] = vals
    want[ju, iu] = vals
    assert np.array_equal(family_gram(m, beta, gamma, 12), want)


def test_gram_constant_entry_is_mass():
    beta, gamma = u_combination("Q_lambda", 0.7)
    g = family_gram(nu_lambda(0.7), beta, gamma, 0)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_gram_rejects_negative_degree():
    beta, gamma = u_combination("Q_lambda", 0.7)
    with pytest.raises(ValueError, match="n_max = -1"):
        family_gram(nu_lambda(0.7), beta, gamma, -1)


def test_gram_refuses_nonfinite_integrand_on_first_pass(monkeypatch):
    # At lam = 5e-324 the shift of P_lambda is about 6e161, so the family
    # values overflow at every node: the Gram matrix used to double its
    # nodes to the budget and report that the quadrature did not settle.
    beta, gamma = u_combination("P_lambda", 5e-324)
    m = xi_lambda(5e-324)
    passes = []
    ac_nodes = measures._ac_nodes

    def recording(measure, n):
        passes.append(n)
        return ac_nodes(measure, n)

    monkeypatch.setattr(measures, "_ac_nodes", recording)
    with pytest.raises(ValueError, match="exceeds the float range"):
        family_gram(m, beta, gamma, 12)
    assert passes == [64]


# ---------------------------------------------------------------------------
# Generating-function families


def _taylor_family_coeff(beta, gamma, n, x):
    def psi(u):
        return (1.0 + beta * u + gamma * u * u) / (1.0 - 2.0 * u * x + u * u)

    return taylor_coeffs_in_u(psi, n)[n]


def test_build_Q_lambda_matches_generating_function():
    lam, n, x = 0.5, 4, 0.3
    beta, gamma = u_combination("Q_lambda", lam)
    want = _taylor_family_coeff(beta, gamma, n, x)
    assert build_Q_lambda(lam, n)(x) == pytest.approx(want, abs=1e-10)


def test_build_P_lambda_matches_generating_function():
    lam, n, x = 0.5, 3, -0.2
    beta, gamma = u_combination("P_lambda", lam)
    want = _taylor_family_coeff(beta, gamma, n, x)
    assert build_P_lambda(lam, n)(x) == pytest.approx(want, abs=1e-10)


def test_build_Q_lambda_theta_matches_generating_function():
    p = JacobiParams(0.6, 0.4)
    n, x = 5, 0.1
    beta, gamma = u_combination("Q_lambda_theta", p.lam, p.theta)
    want = _taylor_family_coeff(beta, gamma, n, x)
    assert build_Q_lambda_theta(p, n)(x) == pytest.approx(want, abs=1e-10)


def test_build_Q_lambda_theta_reduces_at_half():
    for lam in (0.4, 0.9):
        for n in range(7):
            general = build_Q_lambda_theta(JacobiParams(lam, 0.5), n)
            assert poly_allclose(general, build_Q_lambda(lam, n), tol=1e-12)


def test_families_collapse_to_first_kind_at_lam_one():
    for n in range(1, 8):
        twice_T = 2.0 * chebyshev_T(n)
        assert poly_allclose(build_Q_lambda(1.0, n), twice_T, tol=1e-12)
        assert poly_allclose(build_P_lambda(1.0, n), twice_T, tol=1e-12)
        assert poly_allclose(build_Q_lambda_theta(JacobiParams(1.0, 0.5), n),
                             twice_T, tol=1e-12)


def test_builders_low_degrees():
    assert poly_allclose(build_Q_lambda(0.5, 0), [1.0])
    assert poly_allclose(build_Q_lambda(0.5, 1), [0.0, 2.0])
    # Q_2 = U_2 - (lam/(2-lam)) U_0
    assert poly_allclose(build_Q_lambda(0.5, 2), [-1.0 - 1.0 / 3.0, 0.0, 4.0])
    with pytest.raises(ValueError):
        build_Q_lambda(0.5, -1)
    with pytest.raises(ValueError):
        build_P_lambda(0.5, -2)
    with pytest.raises(ValueError):
        build_Q_lambda_theta(JacobiParams(0.5, 0.4), -1)


def test_builders_leading_coefficient():
    for n in range(1, 7):
        assert build_Q_lambda(0.7, n).coef[-1] == pytest.approx(2.0 ** n)
        assert build_P_lambda(0.7, n).coef[-1] == pytest.approx(2.0 ** n)


# ---------------------------------------------------------------------------
# One family, three paths


_CROSS_PATH_CASES = [
    (fam, lam, th, variant)
    for lam in (0.3, 0.6, 1.0)
    for fam, th, variant in (
        ("Q_lambda", None, {}),
        ("P_lambda", None, {"a_variant": "sqrt"}),
        ("P_lambda", None, {"a_variant": "rational"}),
        ("Q_lambda_theta", 0.4, {"b_variant": "mean"}),
        ("Q_lambda_theta", 0.4, {"b_variant": "twice"}),
        ("Q_lambda_theta", 0.5, {"b_variant": "mean"}),
        ("Q_lambda_theta", 0.5, {"b_variant": "twice"}),
    )
]


@pytest.mark.parametrize("fam, lam, th, variant", _CROSS_PATH_CASES)
def test_family_paths_agree(fam, lam, th, variant):
    # The Poly of build_*, the exact coefficients of the martingale path
    # (before the linear map) and the vectorized node values of family_gram
    # and the simulator all come from the one table entry and must agree.
    x = np.cos(np.linspace(0.0, np.pi, 20))
    n_max = 8
    vectorized = family_values(x, range(n_max + 1),
                               *_family_data(fam, lam, th, **variant),
                               np.ones_like(x))
    exact_data = _family_data(
        fam, Fraction(lam), None if th is None else Fraction(th), **variant)
    for n in range(n_max + 1):
        if fam == "Q_lambda_theta":
            poly = build_Q_lambda_theta(JacobiParams(lam, th), n, **variant)
        elif fam == "P_lambda":
            poly = build_P_lambda(lam, n, **variant)
        else:
            poly = build_Q_lambda(lam, n)
        (exact,) = family_values(X, [n], *exact_data, ONE)
        from_exact = np.polynomial.polynomial.polyval(
            x, [float(c) for c in exact.coef])
        np.testing.assert_allclose(poly(x), vectorized[n], rtol=0, atol=1e-12)
        np.testing.assert_allclose(from_exact, vectorized[n], rtol=0,
                                   atol=1e-12)


_FAMILY_VARIANTS = (
    ("Q_lambda", {}),
    ("P_lambda", {"a_variant": "sqrt"}),
    ("P_lambda", {"a_variant": "rational"}),
    ("Q_lambda_theta", {"b_variant": "mean"}),
    ("Q_lambda_theta", {"b_variant": "twice"}),
)


@pytest.mark.parametrize("lam, th", EXACT_POINTS)
def test_family_values_are_the_chebyshev_combination_exactly(lam, th):
    # 2^n times the monic polynomials of the table's Jacobi data is, in the
    # exact ring, the Chebyshev combination of the generating-function
    # weights, computed by the separate Chebyshev recurrence.
    for fam, variant in _FAMILY_VARIANTS:
        got = family_values(X, range(13), *_family_data(fam, lam, th,
                                                         **variant), ONE)
        beta, gamma = u_combination(fam, lam, th, **variant)
        for n in range(13):
            assert got[n] == chebyshev_combination(X, n, beta, gamma, ONE), \
                (fam, variant, n)


@pytest.mark.parametrize("lam, th", [(0.5, 0.4), (0.3, 0.1), (1.0, 0.2),
                                     (0.01, 0.45)])
def test_family_values_match_the_chebyshev_combination_at_nodes(lam, th):
    # Degree 1100 is beyond the float range of 2^n and of 2^-n.
    x = np.linspace(-1.0, 1.0, 4001)
    one = np.ones_like(x)
    degrees = [*range(25), 1100]
    for fam, variant in _FAMILY_VARIANTS:
        got = family_values(x, degrees, *_family_data(fam, lam, th,
                                                      **variant), one)
        beta, gamma = u_combination(fam, lam, th, **variant)
        for n, got_n in zip(degrees, got):
            want = chebyshev_combination(x, n, beta, gamma, one)
            err = np.max(np.abs(got_n - want))
            assert err <= 1e-13 * np.max(np.abs(want)), (fam, variant, n)


@pytest.mark.parametrize("lam, th", [(0.5, 0.3), (1.0, 0.5), (0.25, 0.1)])
def test_family_measure_labels_its_law_as_the_constructors_do(lam, th):
    # The theta = 1/2 families read the pinned Fraction 1/2, labelled as the
    # float 0.5 that nu_lambda labels with.
    want = {"Q_lambda": nu_lambda(lam).label,
            "Q_lambda_theta": nu_lambda_theta(JacobiParams(lam, th)).label,
            "P_lambda": xi_lambda(lam).label}
    for fam, label in want.items():
        assert FAMILIES[fam].measure(lam, th).label == label, fam
