"""Exact rational arithmetic over the quadratic field Q(sqrt(m)), and the
exact polynomial ring over it.

The drift-cancellation residuals computed in :mod:`freejacobi.martingale`
involve polynomial coefficients of order 4^n once the family is composed
with the affine map (2x-s)/d; at n = 15 a float64 evaluation carries
roughly 1e-2 of roundoff, far above the 1e-9 verification threshold.  Every
float input is a dyadic rational, so the whole computation can be carried
out exactly: the only irrationality is d, one square root (sqrt(lam*(2-lam))
at theta = 1/2), and the family weights lie in the same field.

The ring is numpy's ``Polynomial``, the same type as the package's float
polynomials, here over object coefficients -- Python int, Fraction or
:class:`Quad` -- generated by ``X``; its unit is ``X ** 0``, the object
coefficient 1.  Where float coefficients round, the ring's sums and
products never do, so equal ring elements give equal floats.  Two limits of
numpy's object support, which float coefficients do not share:
``Polynomial / Quad`` raises (multiply by the reciprocal), and calling such
a polynomial on a ring element raises over Quad coefficients and rounds to
floats over integer ones (evaluate by the recurrence ``polys.monic_seq``
instead).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial

__all__ = ["Quad"]

# Fractions are immutable, so one zero serves every rational Quad.
_ZERO = Fraction(0)


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
    part, so division by nonzero elements is always well defined.  Two
    elements combine when at least one of them is rational (b == 0) or
    their radicands differ by a rational square factor (one field, see
    _join); any other pair raises ValueError.
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
        """a + b*sqrt(m) from Fractions, where b is zero or m is the
        radicand of an operand with a surd part and so already known not to
        be a square: arithmetic results and rational operands skip the
        perfect-square test of __init__."""
        q = object.__new__(cls)
        q.a, q.b, q.m = a, b, (m if b else _ZERO)
        return q

    # -- coercion ----------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, Quad):
            return x
        if isinstance(x, (int, Fraction)):
            # A rational operand has no surd part: no radicand to check.
            return Quad._of(Fraction(x), _ZERO, _ZERO)
        return NotImplemented

    def _join(self, other):
        """Common radicand m of a binary operation and `other` written over
        it, or raise.  Radicands whose ratio is a rational square r^2 name
        one field: b sqrt(r^2 m) = (b r) sqrt(m)."""
        if self.b and other.b and self.m != other.m:
            r = _sqrt_exact(other.m / self.m)
            if r is None:
                raise ValueError(f"incompatible radicands {self.m}, {other.m}")
            other = Quad._of(other.a, other.b * r, self.m)
        return (self.m if self.b else other.m), other

    # -- ring structure ------------------------------------------------------
    def __add__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m, other = self._join(other)
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
        m, other = self._join(other)
        # A rational factor needs two Fraction products, not four.
        if not other.b:
            return Quad._of(self.a * other.a, self.b * other.a, m)
        if not self.b:
            return Quad._of(self.a * other.a, self.a * other.b, m)
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

    # -- comparisons / conversion ---------------------------------------------
    def __eq__(self, other):
        other = Quad._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            _, other = self._join(other)
        except ValueError:          # radicands of two different fields
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # b^2 m is the same whichever radicand the surd is written over.
        return hash((self.a, self.b * self.b * self.m))

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


# Generator of the exact polynomial ring (see the module docstring).
X = Polynomial(np.array([0, 1], dtype=object))
