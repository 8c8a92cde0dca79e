"""Exact rational arithmetic over the quadratic field Q(sqrt(m)).

The drift-cancellation residuals computed in :mod:`freejacobi.martingale`
involve polynomial coefficients of order 4^n once the family is composed
with (2x-1)/sqrt(lam*(2-lam)); at n = 15 a float64 evaluation carries
roughly 1e-2 of roundoff, far above the 1e-9 verification threshold.  Every
float input is a dyadic rational, so the whole computation can be carried
out exactly: the only irrationality is sqrt(lam*(2-lam)), one square root.

Moments of the stationary law at theta = 1/2 are exact rationals because the
Catalan generating function sum_k C_k w^k = (1 - sqrt(1-4w))/(2w) evaluates
rationally at w = lam*(2-lam)/4, where sqrt(1-4w) = 1-lam.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

from .polys import chebyshev_seq

__all__ = [
    "Quad",
    "catalan",
    "nu_even_moment",
    "mu_half_moments",
    "chebyshev_u_exact",
    "qp_add",
    "qp_scale",
    "qp_mul",
    "qp_compose_linear",
    "qp_max_abs",
]


def _isqrt_exact(n):
    r = math.isqrt(n)
    return r if r * r == n else None


def _sqrt_exact(fr):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    fr = Fraction(fr)
    if fr < 0:
        return None
    rn = _isqrt_exact(fr.numerator)
    rd = _isqrt_exact(fr.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


class Quad:
    """Element a + b*sqrt(m) of Q(sqrt(m)), a and b exact rationals.

    If m is a perfect rational square the surd collapses into the rational
    part, so division by nonzero elements is always well defined.  Elements
    of different fields may be combined only when at least one of them is
    rational (b == 0).
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m=0):
        a, b, m = Fraction(a), Fraction(b), Fraction(m)
        if b != 0:
            if m < 0:
                raise ValueError("radicand must be nonnegative")
            r = _sqrt_exact(m)
            if r is not None:
                a, b, m = a + b * r, Fraction(0), Fraction(0)
        else:
            m = Fraction(0)
        self.a, self.b, self.m = a, b, m

    @classmethod
    def _of(cls, a, b, m):
        """a + b*sqrt(m) from Fractions, where m is the radicand of an
        operand with a surd part and so already known not to be a square:
        arithmetic results skip the perfect-square test of __init__."""
        q = object.__new__(cls)
        q.a, q.b, q.m = a, b, (m if b != 0 else Fraction(0))
        return q

    # -- coercion ----------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, Quad):
            return x
        if isinstance(x, (int, Fraction)):
            return Quad(x)
        return NotImplemented

    def _join(self, other):
        """Common radicand for a binary operation, or raise."""
        if self.b != 0 and other.b != 0 and self.m != other.m:
            raise ValueError(f"incompatible radicands {self.m} and {other.m}")
        return self.m if self.b != 0 else other.m

    # -- ring structure ------------------------------------------------------
    def __add__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._join(other)
        return Quad._of(self.a + other.a, self.b + other.b, m)

    __radd__ = __add__

    def __neg__(self):
        return Quad._of(-self.a, -self.b, self.m)

    def __sub__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self._join(other)
        return Quad._of(self.a * other.a + self.b * other.b * m,
                        self.a * other.b + self.b * other.a, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.a * other.a - other.b * other.b * other.m
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        inv = Quad._of(other.a / norm, -other.b / norm, other.m)
        return self.__mul__(inv)

    def __rtruediv__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Quad(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparisons / conversion ---------------------------------------------
    def is_zero(self):
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.b != 0 and other.b != 0 and self.m != other.m:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.m))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.m))

    def __repr__(self):
        if self.b == 0:
            return f"Quad({self.a})"
        return f"Quad({self.a} + {self.b}*sqrt({self.m}))"


def exact_sqrt(v):
    """sqrt(v): the exact element Quad(0, 1, v) for a Fraction v, math.sqrt
    otherwise, so that one formula serves both scalar types."""
    if isinstance(v, Fraction):
        return Quad(0, 1, v)
    return math.sqrt(v)


# The exact polynomial ring: numpy polynomials over object coefficients
# (Python int, Fraction or Quad), whose arithmetic never rounds.
X = Polynomial(np.array([0, 1], dtype=object))
ONE = X ** 0


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
    integrate to zero, so every moment is rational.
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


def chebyshev_u_exact(n):
    """Monomial coefficients of U_n as exact integers (list of Fraction)."""
    if n < 0:
        return [Fraction(0)]
    return [Fraction(c) for c in chebyshev_seq(X, n, ONE)[-1].coef]


# -- polynomials with Quad coefficients (dense, index = degree) -------------

def qp_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else Quad(0)
        b = q[i] if i < len(q) else Quad(0)
        out.append(a + b)
    return out


def qp_scale(p, c):
    return [ci * c for ci in p]


def qp_mul(p, q):
    out = [Quad(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def qp_compose_linear(p, l0, l1):
    """Horner composition p(l0 + l1*x) for Quad coefficients."""
    out = [p[-1]]
    for c in p[-2::-1]:
        shifted = [Quad(0)] + [ci * l1 for ci in out]
        shifted[0] = shifted[0] + out[0] * l0 + c
        for i in range(1, len(out)):
            shifted[i] = shifted[i] + out[i] * l0
        out = shifted
    return out


def qp_max_abs(p):
    """Largest coefficient magnitude, as a float."""
    return max((abs(float(c)) for c in p), default=0.0)
