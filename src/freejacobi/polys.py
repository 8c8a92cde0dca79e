"""The one three-term recurrence and the polynomial families it builds.

A polynomial is numpy's ``Polynomial``, in the monomial basis: over float64
coefficients here, where the families used have degree <= ~40 and dense
coefficients are accurate enough for the verification tolerances, and over
exact ones in :mod:`freejacobi.exact`.  Numpy trims cancelling sums,
products by zero and derivatives to ``[0.0]``; the zero polynomial is that.
"""

from __future__ import annotations

import itertools
import operator

from numpy.polynomial import Polynomial

__all__ = [
    "chebyshev_T",
    "chebyshev_U",
]


def monic_seq(x, alpha, omega):
    """p_0(x), p_1(x), ... of the monic three-term recurrence

        p_{k+1}(x) = (x - alpha[k]) p_k(x) - omega[k-1] p_{k-1}(x),

    with p_{-1} = 0 and p_0 = x ** 0, the package's one recurrence.  An
    endless generator that reads alpha[k] and omega[k-1] only when it steps
    past p_k, so a caller may append them after receiving p_k (the Stieltjes
    procedure of ``recurrence`` does).  Generic over the element type of x,
    and each p_k is of that type: a float array of nodes (ones of x's shape
    and dtype at k = 0, also where x is inf or nan; one numpy pass per
    degree), a float ``Polynomial``, or an exact one.
    """
    p_prev, p = 0, x ** 0
    for k in itertools.count():
        yield p
        p_prev, p = p, (x - alpha[k]) * p - (omega[k - 1] if k else 0) * p_prev


def _one_step_data(alpha0, omega1, n):
    """(alpha_0 .. alpha_n, omega_1 .. omega_n) of the Jacobi data alpha_0,
    omega_1, then alpha = 0 and omega = 1/4, as lists.  The 1/4 is
    omega_1 ** 0 / 4, in the scalar type of omega_1: a float omega_1 keeps
    node arrays float, a Fraction keeps exact coefficients exact."""
    quarter = omega1 ** 0 / 4
    return [alpha0] + [0] * n, ([omega1] + [quarter] * n)[:n]


def family_values(x, degrees, alpha0, omega1):
    """[F_k(x) for k in degrees] of the family of Jacobi data (alpha_0,
    omega_1), then alpha = 0 and omega = 1/4: F_k = 2^k p_k with p_k the
    monic polynomials of that data.  By Favard's theorem this is
    F_k = U_k + beta U_{k-1} + gamma U_{k-2} (U_{-1} = U_{-2} = 0), the
    Taylor coefficients in u of (1 + beta u + gamma u^2)/(1 - 2ux + u^2),
    with (beta, gamma) = (-2 alpha_0, 1 - 4 omega_1).  Generic over the
    element type of x as monic_seq is: each F_k is of x's type, and
    F_0 = x ** 0 is its unit.

    F_k(x) is the monic polynomial of the data (2 alpha, 4 omega) at 2x
    (monic_seq), which is 2^k p_k(x) exactly, also in floats: scaling by a
    power of 2 rounds nothing.  Unlike p_k, which falls below the normal
    float range near degree 1000, it is a float wherever F_k is one.
    """
    degrees = list(degrees)
    if min(degrees) < 0:
        raise ValueError(f"degree n = {min(degrees)} must be nonnegative")
    top = max(degrees)
    alpha, omega = _one_step_data(alpha0, omega1, top)
    f = list(itertools.islice(monic_seq(2 * x, [2 * a for a in alpha],
                                        [4 * w for w in omega]),
                              top + 1))
    return [f[k] for k in degrees]


_X = Polynomial([0.0, 1.0])


def chebyshev_U(n):
    """Second-kind Chebyshev polynomial U_n, n >= 0, as a float
    ``Polynomial``: the family of Jacobi data (0, 1/4),
    2x U_n = U_{n+1} + U_{n-1}."""
    return family_values(_X, [operator.index(n)], 0, 0.25)[0]


def chebyshev_T(n):
    """First-kind Chebyshev polynomial T_n, n >= 0, as a float
    ``Polynomial``: T_0 = _X ** 0, and for n >= 1 half the family of Jacobi
    data (0, 1/2), which is P_lambda at lam = 1 (2 T_n = U_n - U_{n-2})."""
    n = operator.index(n)
    return 0.5 * family_values(_X, [n], 0, 0.5)[0] if n else _X ** 0
