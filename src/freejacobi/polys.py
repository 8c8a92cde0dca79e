"""Dense real polynomials, Chebyshev families, and generating-function tools.

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

from . import errors

__all__ = [
    "Poly",
    "chebyshev_T",
    "chebyshev_U",
    "eval_three_term",
    "taylor_coeffs_in_u",
]


class Poly(Polynomial):
    """Real polynomial with dense monomial coefficients: numpy's
    ``Polynomial`` over float, with its ring operations, ``deriv`` and
    evaluation.

    ``coeffs[k]`` multiplies ``x**k``.  Trailing zero coefficients are
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

    @property
    def coeffs(self):
        return self.coef

    def is_zero(self):
        return self.coef.size == 1 and self.coef[0] == 0.0

    @property
    def degree(self):
        """Polynomial degree; -1 for the zero polynomial.  A property here,
        where numpy's ``degree()`` is a method that numpy itself never
        calls."""
        return -1 if self.is_zero() else self.coef.size - 1

    @property
    def leading(self):
        return float(self.coef[-1])

    def compose(self, inner):
        """Composition self(inner(x)), by numpy's Horner evaluation."""
        return self(_as_poly(inner))

    def allclose(self, other, tol=1e-9):
        """Coefficientwise comparison, absolute tolerance scaled by the
        largest coefficient magnitude of either operand."""
        other = _as_poly(other)
        n = max(self.coeffs.size, other.coeffs.size)
        a = np.zeros(n)
        b = np.zeros(n)
        a[: self.coeffs.size] = self.coeffs
        b[: other.coeffs.size] = other.coeffs
        scale = max(1.0, np.abs(a).max(), np.abs(b).max())
        return bool(np.all(np.abs(a - b) <= tol * scale))


def _as_poly(p):
    if isinstance(p, Poly):
        return p
    if np.isscalar(p):
        return Poly([float(p)])
    return Poly(p)


def chebyshev_seq(x, n, one=1, before=0):
    """[R_0(x), ..., R_n(x)] of the Chebyshev recurrence

        R_{k+1} = 2x R_k - R_{k-1},    R_0 = one,  R_{-1} = before,

    the package's one copy of it.  before = 0 gives U_n and before = x gives
    T_n.  Generic over the element type of x: a float array (values at
    nodes, one numpy pass per degree), a Poly, or an exact polynomial.
    """
    if n < 0:
        raise ValueError(f"degree n = {n} must be nonnegative")
    out = [one]
    for _ in range(n):
        before, one = one, 2 * x * one - before
        out.append(one)
    return out


_X = Poly([0.0, 1.0])


def chebyshev_U(n):
    """Second-kind Chebyshev polynomial U_n via 2x*U_n = U_{n+1} + U_{n-1};
    n >= 0.  The families continue U_n to n = -1, -2 by 0 (see
    renorm.family_values)."""
    return _as_poly(chebyshev_seq(_X, operator.index(n))[-1])


def chebyshev_T(n):
    """First-kind Chebyshev polynomial T_n (satisfies 2T_n = U_n - U_{n-2})."""
    return _as_poly(chebyshev_seq(_X, operator.index(n), before=_X)[-1])


def monic_seq(x, alpha, omega, one):
    """p_0(x), p_1(x), ... of the monic three-term recurrence

        p_{k+1}(x) = (x - alpha[k]) p_k(x) - omega[k-1] p_{k-1}(x),

    with p_{-1} = 0 and p_0 = one, the package's one copy of it.  An endless
    generator that reads alpha[k] and omega[k-1] only when it steps past
    p_k, so a caller may append them after receiving p_k (the Stieltjes
    procedure of ``recurrence`` does).  Generic over the element type of x,
    as ``chebyshev_seq`` is: a float array of nodes or an exact polynomial.
    """
    p_prev, p = 0, one
    for k in itertools.count():
        yield p
        p_prev, p = p, (x - alpha[k]) * p - (omega[k - 1] if k else 0) * p_prev


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
