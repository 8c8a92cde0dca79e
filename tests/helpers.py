"""Helpers that only the tests use: the Chebyshev recurrence as an oracle
for the families, Chebyshev U at the negative degrees of a recurrence's
boundary, monic scaling of a family, the closed-form Jacobi data of the
stationary law, and the independent oracles and one-call forms of the
library's routines (contour Taylor coefficients, one-degree recurrence
values, the Catalan moments and the closed Cauchy transform at theta = 1/2,
the rho_trig addition identity, single-degree residuals and trace
series)."""

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from freejacobi import Poly, chebyshev_U, errors
from freejacobi.martingale import martingale_residuals
from freejacobi.measures import JacobiParams, nu_map
from freejacobi.polys import monic_seq
from freejacobi.renorm import rho_trig
from freejacobi.simulator import simulate_trials

# Rational (lam, theta) with theta != 1/2, lam = 1 and a small theta among
# them.
EXACT_POINTS = tuple(
    (Fraction(lam), Fraction(theta)) for lam, theta in (
        ("1/2", "2/5"), ("7/10", "3/10"), ("1/4", "1/10"), ("1", "2/5"),
        ("3/10", "9/20"), ("1", "1/1000")))


def poly_allclose(p, q, tol=1e-9):
    """Coefficientwise comparison of two polynomials (Poly or coefficient
    sequences), absolute tolerance scaled by the largest coefficient
    magnitude of either operand."""
    p, q = (np.atleast_1d(np.asarray(getattr(r, "coef", r), dtype=float))
            for r in (p, q))
    n = max(p.size, q.size)
    a = np.zeros(n)
    b = np.zeros(n)
    a[: p.size] = p
    b[: q.size] = q
    scale = max(1.0, np.abs(a).max(), np.abs(b).max())
    return bool(np.all(np.abs(a - b) <= tol * scale))


def chebyshev_seq(x, n, one=1):
    """[U_0(x), ..., U_n(x)] by the Chebyshev recurrence U_{k+1} = 2x U_k -
    U_{k-1}, U_{-1} = 0: an oracle apart from the library's monic
    recurrence, generic over float arrays, Poly and exact polynomials."""
    out, before = [one], 0
    for _ in range(n):
        before, one = one, 2 * x * one - before
        out.append(one)
    return out


def chebyshev_combination(x, n, beta, gamma, one=1):
    """U_n + beta U_{n-1} + gamma U_{n-2} at x, with U_{-1} = U_{-2} = 0."""
    u = [0, 0] + chebyshev_seq(x, n, one)
    return u[n + 2] + beta * u[n + 1] + gamma * u[n]


def chebyshev_U_ext(n):
    """chebyshev_U extended by the convention U_{-1} = U_{-2} = 0."""
    n = operator.index(n)
    if n in (-1, -2):
        return Poly([0.0])
    return chebyshev_U(n)


def monicize(polys):
    """Divide each polynomial by its leading coefficient.

    Returns (monic list, array of the removed leading scales).
    """
    monic = []
    scales = []
    for p in polys:
        s = p.coef[-1]
        if s == 0.0:
            raise ValueError("cannot monicize the zero polynomial")
        scales.append(s)
        monic.append(p * (1.0 / s))
    return monic, np.asarray(scales)


def closed_jacobi(lam, theta, n):
    """Closed-form recurrence of mu_{lam,theta}: nu_{lam,theta}'s (alpha_0 =
    2 lam theta (2 theta - 1)/d, its first moment, omega_1 = c/2, then
    alpha = 0 and omega = 1/4) mapped by x = (s + d y)/2, with
    (s, d^2) = nu_map and c = 1/(2(1 - lam theta))."""
    s, d2 = nu_map(lam, theta)
    c = 1 / (2 * (1 - lam * theta))
    alpha = [(s + 2 * lam * theta * (2 * theta - 1)) / 2] + [s / 2] * n
    omega = [d2 * c / 8] + [d2 / 16] * (n - 1)
    return alpha, omega


def eval_three_term(alpha, omega, n, x):
    """Value at x of the monic degree-n orthogonal polynomial defined by

        p_{k+1}(x) = (x - alpha[k]) p_k(x) - omega[k-1] p_{k-1}(x)

    with p_{-1} = 0, p_0 = 1.  ``omega`` is indexed from 1 in the usual
    recurrence convention, i.e. omega[j] is the weight omega_{j+1}; the first
    entry is consumed when stepping from p_1 to p_2.  ``x`` may be a scalar
    or an ndarray.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    alpha = np.asarray(alpha, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if n >= 1 and alpha.size < n:
        raise ValueError(f"need alpha[0..{n - 1}]")
    if n >= 2:
        if omega.size < n - 1:
            raise ValueError(f"need omega values up to index {n - 1}")
        if np.any(omega[: n - 1] <= 0.0):
            raise ValueError("recurrence weights must be positive")
    x = np.asarray(x, dtype=float)
    p = next(itertools.islice(monic_seq(x, alpha, omega, np.ones_like(x)),
                              n, None))
    return p if p.ndim else float(p)


def _contour_coeffs(f, order, radius, n):
    u = radius * np.exp(2j * np.pi * np.arange(n) / n)
    try:
        vals = np.asarray(f(u), dtype=complex)
        if vals.shape != u.shape:
            raise TypeError
    except Exception:
        vals = np.array([f(ui) for ui in u], dtype=complex)
    coeffs = np.fft.fft(vals)[: order + 1] / n
    return coeffs.real / radius ** np.arange(order + 1)


def taylor_coeffs_in_u(f, order, radius=0.5, max_nodes=1 << 16):
    """First order+1 Taylor coefficients of f at u = 0.

    Trapezoidal contour averaging on |u| = radius (exact for trigonometric
    polynomials, spectrally accurate for analytic f), with node doubling
    until successive passes agree to 10*eps/radius**k per coefficient.
    Raises ConvergenceError when the budget is exhausted, e.g. when f has a
    singularity on or inside the contour.
    """
    order = operator.index(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    tol = 10.0 * np.finfo(float).eps / radius ** np.arange(order + 1)
    # Start at the smallest 64 * 2^k nodes that is at least 2 (order + 1).
    n = max(64, 1 << (2 * order + 1).bit_length())
    return errors.refine(
        lambda n: _contour_coeffs(f, order, radius, n),
        lambda prev, cur: np.all(np.abs(cur - prev) <= tol), n, max_nodes,
        f"Taylor coefficients did not settle by {max_nodes} contour nodes; "
        "is f analytic on |u| <= radius?")


def catalan(k):
    """k-th Catalan number."""
    return math.comb(2 * k, k) // (k + 1)


def nu_even_moment(lam, m):
    """Exact 2m-th moment of the symmetric density
    (2-lam)/pi * sqrt(1-x^2)/(1 - lam(2-lam) x^2) on [-1, 1].

    Uses the semicircle moments (2/pi) int x^{2k} sqrt(1-x^2) dx = C_k/4^k and
    the rational Catalan tail sum_{k} C_k (q/4)^k = 2/(2-lam), q = lam(2-lam).
    """
    lam = Fraction(lam)
    if not 0 < lam <= 1:
        raise ValueError("lam must lie in (0, 1]")
    q = lam * (2 - lam)
    partial = sum(Fraction(catalan(i)) * (q / 4) ** i for i in range(m))
    tail = Fraction(2) / (2 - lam) - partial
    return (2 - lam) / 2 * tail / q ** m


def mu_half_moments(lam, n_max):
    """Exact moments m_0..m_{n_max} of the stationary law at theta = 1/2.

    The law is the image of the symmetric density of :func:`nu_even_moment`
    under y -> (1 + sqrt(q) y)/2 with q = lam(2-lam); odd powers of sqrt(q)
    integrate to zero, so every moment is rational.  The Catalan generating
    function makes this an oracle, independent of the drift, for
    ``martingale.stationary_moments``.
    """
    lam = Fraction(lam)
    q = lam * (2 - lam)
    even = [nu_even_moment(lam, i) for i in range(n_max // 2 + 1)]
    out = []
    for k in range(n_max + 1):
        acc = sum(Fraction(math.comb(k, 2 * i)) * q ** i * even[i]
                  for i in range(k // 2 + 1))
        out.append(acc / 2 ** k)
    return out


def cauchy_mu_half(lam, z):
    """Cauchy transform of the stationary law at theta = 1/2:

        G(z) = ((1-lam)(2z-1) - sqrt(4z^2 - 4z + (1-lam)^2)) / (2 lam z (1-z))

    for z outside [0, 1].  The radicand factors through z_pm = (1 +-
    sqrt(lam(2-lam)))/2 and the root is taken factor-by-factor, which places
    the branch cut exactly on [z_-, z_+] and yields G(z) ~ 1/z at infinity.
    Written apart from ``cauchy_closed_form_mu``, so that the two are
    independent routes to the same transform.
    """
    JacobiParams(lam, 0.5)
    z = complex(z)
    if z.imag == 0.0 and 0.0 <= z.real <= 1.0:
        raise ValueError(f"z = {z} lies in [0, 1]")
    rq = math.sqrt(lam * (2.0 - lam))
    w = 2.0 * np.sqrt(z - 0.5 * (1.0 + rq)) * np.sqrt(z - 0.5 * (1.0 - rq))
    num = (1.0 - lam) * (2.0 * z - 1.0) - w
    return complex(num / (2.0 * lam * z * (1.0 - z)))


def rho_trig_identity_check(u, v):
    """|lhs - (1+uv)/(1-uv)| for the addition identity satisfied by
    rho(u) = 2u/(1+u^2); returns the absolute discrepancy (contract < 1e-12
    for |u|, |v| < 1)."""
    ru, rv = rho_trig(u), rho_trig(v)
    lhs = (ru + rv) / (ru * math.sqrt(1.0 - rv * rv) + rv * math.sqrt(1.0 - ru * ru))
    return abs(lhs - (1.0 + u * v) / (1.0 - u * v))


def martingale_residual(lam, n, *args, **kwargs):
    """martingale_residuals(lam, [n], *args, **kwargs)[0]."""
    return martingale_residuals(lam, [n], *args, **kwargs)[0]


def trace_martingale_series(lam, n, times, trials, d, seed=0, theta=0.5,
                            **options):
    """The trace series [(t, mean, stderr)] of simulate_trials alone (see
    its docstring), with its other options (dt, family, a_variant,
    b_variant)."""
    return simulate_trials(lam, theta, d, trials, times=times, n=n,
                           seed=seed, **options)[1]
