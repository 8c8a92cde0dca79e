"""Helpers that only the tests use: the Chebyshev recurrence as an oracle
for the families, Chebyshev U at the negative degrees of a recurrence's
boundary, monic scaling of a family, and the closed-form Jacobi data of the
stationary law."""

import operator
from fractions import Fraction

import numpy as np

from freejacobi import Poly, chebyshev_U
from freejacobi.measures import nu_map

# Rational (lam, theta) with theta != 1/2, lam = 1 and a small theta among
# them.
EXACT_POINTS = tuple(
    (Fraction(lam), Fraction(theta)) for lam, theta in (
        ("1/2", "2/5"), ("7/10", "3/10"), ("1/4", "1/10"), ("1", "2/5"),
        ("3/10", "9/20"), ("1", "1/1000")))


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
        s = p.leading
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
