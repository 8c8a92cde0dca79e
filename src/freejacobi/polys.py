"""Dense real polynomials, and the one three-term recurrence and the
families it builds.

Monomial-basis coefficient arrays are the common currency of the package: all
polynomial families used here have degree <= ~40, where dense float64
coefficients are accurate enough for the verification tolerances and
interoperate directly with numpy.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np
from numpy.polynomial import Polynomial

__all__ = [
    "Poly",
    "chebyshev_T",
    "chebyshev_U",
]


class Poly(Polynomial):
    """Real polynomial with dense monomial coefficients: numpy's
    ``Polynomial`` over float, with its ring operations, ``deriv`` and
    evaluation.

    ``coef[k]`` multiplies ``x**k``.  Trailing zero coefficients are
    trimmed, also on every arithmetic result, so the stored leading
    coefficient is nonzero unless the polynomial is identically zero (stored
    as the single coefficient 0.0).
    """

    def __init__(self, coef, domain=None, window=None, symbol="x"):
        c = np.atleast_1d(np.asarray(coef, dtype=float))
        if c.ndim != 1:
            raise ValueError("coefficients must form a one-dimensional sequence")
        nz = np.nonzero(c)[0]
        super().__init__(c[: nz[-1] + 1] if nz.size else [0.0],
                         domain, window, symbol)

    def is_zero(self):
        return self.coef.size == 1 and self.coef[0] == 0.0

    @property
    def degree(self):
        """Polynomial degree; -1 for the zero polynomial.  A property here,
        where numpy's ``degree()`` is a method that numpy itself never
        calls."""
        return -1 if self.is_zero() else self.coef.size - 1


def _as_poly(p):
    return p if isinstance(p, Poly) else Poly(p)


def monic_seq(x, alpha, omega, one):
    """p_0(x), p_1(x), ... of the monic three-term recurrence

        p_{k+1}(x) = (x - alpha[k]) p_k(x) - omega[k-1] p_{k-1}(x),

    with p_{-1} = 0 and p_0 = one, the package's one recurrence.  An endless
    generator that reads alpha[k] and omega[k-1] only when it steps past
    p_k, so a caller may append them after receiving p_k (the Stieltjes
    procedure of ``recurrence`` does).  Generic over the element type of x:
    a float array of nodes (one numpy pass per degree), a Poly, or an exact
    polynomial.
    """
    p_prev, p = 0, one
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


def family_values(x, degrees, alpha0, omega1, one=1):
    """[F_k(x) for k in degrees] of the family of Jacobi data (alpha_0,
    omega_1), then alpha = 0 and omega = 1/4: F_k = 2^k p_k with p_k the
    monic polynomials of that data.  By Favard's theorem this is
    F_k = U_k + beta U_{k-1} + gamma U_{k-2} (U_{-1} = U_{-2} = 0), the
    Taylor coefficients in u of (1 + beta u + gamma u^2)/(1 - 2ux + u^2),
    with (beta, gamma) = (-2 alpha_0, 1 - 4 omega_1).  Generic over the
    element type of x as monic_seq is; ``one`` is the unit of that type.

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
                                        [4 * w for w in omega], one),
                              top + 1))
    return [f[k] for k in degrees]


_X = Poly([0.0, 1.0])


def chebyshev_U(n):
    """Second-kind Chebyshev polynomial U_n, n >= 0: the family of Jacobi
    data (0, 1/4), 2x U_n = U_{n+1} + U_{n-1}."""
    return _as_poly(family_values(_X, [operator.index(n)], 0, 0.25)[0])


def chebyshev_T(n):
    """First-kind Chebyshev polynomial T_n, n >= 0: T_0 = 1, and for n >= 1
    half the family of Jacobi data (0, 1/2), which is P_lambda at lam = 1
    (2 T_n = U_n - U_{n-2})."""
    n = operator.index(n)
    return _as_poly(0.5 * family_values(_X, [n], 0, 0.5)[0] if n else 1.0)
