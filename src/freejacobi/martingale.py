"""Drift operator on polynomials and the closed-form flow pair (Z_t, K_t).

The drift sends a polynomial p to the finite-variation part of p applied to
the stationary process; a family q_n is "martingale" precisely when
drift(q_n) + n q_n = 0, since the e^{nt} prefactor contributes +n q_n.  The
residual of that identity is evaluated in exact arithmetic over Q(d), d the
scale of the affine map (2x - s)/d onto nu_{lam,theta}: composed
coefficients reach ~4^n, so at n = 15 float64 cancellation noise sits near
1e-2 -- far above any 1e-9-scale verdict.  One drift formula serves every
path: a matrix of model scalars (floats, or exact rationals for the
residuals), whose columns also give the stationary moments as the fixed
point E_mu[drift(x^n)] = 0, at every theta.

The flow functions implement the closed forms for Z_t (checked against its
autonomous ODE) and for the normalizer K_t in two variants: "displayed",
whose third factor is sqrt(n3/d3) with n3 = 2 - c1 - 2c3 - re^t and
d3 = 2 - c1 + 2c3 - re^t, and "ode", the reciprocal-factor version
sqrt(d3/n3).  Only the latter satisfies the transport equation
K' + K [lam th G(1/Z) + th (1-lam) Z] = 0 for theta != 1/2 or lam != 1;
both are exposed so the discrepancy is checkable, and the ODE residual
accepts a variant argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ONE, X, exact_sqrt
from .measures import JacobiParams, cauchy_closed_form_mu, nu_map
from .polys import family_values
from .renorm import FAMILIES, _family_data

__all__ = [
    "stationary_moments", "martingale_residuals", "FlowConstants", "flow_Z",
    "flow_Z_ode_residual", "flow_K", "flow_K_ode_residual",
]


def _drift_column(lam, th, m, n):
    # Column n >= 1 of the drift's monomial action: the coefficients
    # D[0..n][n] of
    #
    #   drift(x^n) = n th (1-lam) x^{n-1} - n x^n
    #     + lam th sum_{l=1}^{n} [m_{n-l} + 2(l-1)(m_{n-l} - m_{n-l+1})]
    #                            x^{l-1},
    #
    # the finite-variation part of x^n under the stationary dynamics, with
    # m_k the moments of the stationary law.  Generic over the scalar type
    # (floats, or Fractions for the exact path).  The diagonal is -n and the
    # column reads only m_0 .. m_{n-1}.  Each entry is a model scalar, so
    # applying D to a (possibly Quad) coefficient vector costs one product
    # per entry.
    col = [0] * (n - 1) + [n * th * (1 - lam), -n]
    for l in range(1, n + 1):
        term = (m[n - l] + 2 * (l - 1) * (m[n - l] - m[n - l + 1])
                if l > 1 else m[n - 1])
        col[l - 1] += lam * th * term
    return col


def _drift_columns(lam, th, m, deg):
    # Columns 0 .. deg of the upper-triangular drift matrix, column k of
    # length k + 1; constants are annihilated.  Column n reads only
    # m_0 .. m_{n-1}; a moment that the list m lacks is filled in place by
    # the stationary fixed point (see stationary_moments) as soon as its
    # column is built, so each column is built once.
    cols = [[0]]
    for n in range(1, deg + 1):
        col = _drift_column(lam, th, m, n)
        if len(m) == n:
            m.append(sum(c * mj for c, mj in zip(col, m)) / n)
        cols.append(col)
    return cols


def stationary_moments(lam, theta, n_max):
    """Moments m_0 .. m_{n_max} of the stationary law mu_{lam,theta}, from
    the drift alone.

    Stationarity means E_mu[drift(x^n)] = sum_j D[j][n] m_j = 0.  Column n
    has -n on its diagonal and reads only m_0 .. m_{n-1}, so m_0 = 1 and

        m_n = (1/n) sum_{j<n} D[j][n] m_j,

    which _drift_columns fills in as it builds each column.  Generic over
    the scalar type: Fractions give the exact rational moments (at
    theta = 1/2 they equal the Catalan moments), floats agree with them to
    about 1e-14 relative for n <= 32.  (lam, theta) is taken to lie in the
    JacobiParams domain; the callers in this module check it.
    """
    m = [1]
    _drift_columns(lam, theta, m, n_max)
    return m


def _apply(cols, c):
    """Coefficients of the drift of the polynomial with coefficients c: the
    drift acts linearly, annihilates constants and never raises the
    degree."""
    return [sum(c[k] * cols[k][j] for k in range(j, len(c)))
            for j in range(len(c))]


# Bounds on the estimated size of the exact operands of martingale_residuals
# and on its estimated work, max(degrees)^3 operations on operands of that
# size.  Requests near the work bound took 0.9 to 1.5 s on a 2-CPU x86-64
# machine, and the time grows about as the work.
_MAX_OPERAND_BITS = 16384
_MAX_WORK = 10 ** 8


def martingale_residuals(lam, degrees, family="P_lambda", a_variant="sqrt",
                         theta=0.5, b_variant="mean"):
    """Max-magnitude coefficient of drift(q_n) + n q_n for each n in
    `degrees`, where q_n(x) = F_n((2x - s)/d) with F_n the chosen family and
    (s, d^2) = nu_map(lam, theta).

    The family table says which theta applies: Q_lambda_theta reads
    `theta` (U_n - 2b U_{n-1} + (1-2c) U_{n-2}, b per `b_variant`), while
    P_lambda and Q_lambda are theta = 1/2 families and stay there whatever
    theta is given, with the map (2x - 1)/sqrt(lam(2-lam)).  P_lambda is
    U_n - 2 a U_{n-1} - U_{n-2} with a = (1-lam)/sqrt(q) (a_variant="sqrt")
    or the control value a = (1-lam)/q (a_variant="rational"),
    q = lam(2-lam).  Q_lambda, U_n - lam/(2-lam) U_{n-2}, and Q_lambda_theta
    with b_variant="mean" are orthogonal for nu, the image of the
    stationary law, and their residuals vanish identically;
    b_variant="twice" is the doubled-shift control.

    The computation is exact: `lam` and `theta` enter at their binary-float
    rational values, the moments are the drift's own fixed point
    (stationary_moments), and each result is the float of an element of
    Q(d) -- a reported 0.0 is an exact zero.  One pass serves every degree:
    one recurrence of the family's Jacobi data up to max(degrees), one set
    of moments, and one drift matrix of rational scalars applied to the
    coefficients of each q_n.  A residual beyond the float range, as at
    lam = 1e-300, raises ValueError.

    The exact operands grow like the denominators of lam and theta to the
    power max(degrees), and the time with their size: at theta = 5e-324,
    whose denominator 2^1074 has 1075 bits, degree 30 would run for
    minutes.  Their size, estimated as max(degrees) times the denominator
    bits of lam and of the theta read, is bounded by _MAX_OPERAND_BITS.
    The time also grows with the number of operations, about as
    max(degrees)^4 at fixed parameters, so the work, max(degrees)^3 times
    that size, is bounded by _MAX_WORK.  Beyond either bound ValueError
    names the request, its size and its work before any column is built.
    """
    degrees = list(degrees)
    if not degrees or min(degrees) < 1:
        raise ValueError("n must be >= 1")
    lamF, thF = Fraction(lam), Fraction(theta)
    data = _family_data(family, lamF, thF, a_variant, b_variant)
    thF = FAMILIES[family].reads(thF)
    top = max(degrees)
    bits = top * (lamF.denominator.bit_length() + thF.denominator.bit_length())
    if bits > _MAX_OPERAND_BITS or top ** 3 * bits > _MAX_WORK:
        raise ValueError(
            f"exact residuals to degree {top} at lam = {lam}, theta = "
            f"{float(thF)} need operands of about {bits} bits and about "
            f"{top ** 3 * bits:.3g} bit operations, more than "
            f"{_MAX_OPERAND_BITS} bits or {_MAX_WORK:.3g} operations")
    # The family evaluated at the ring element (2x - s)/d is q_n itself.
    # Polynomial / Quad raises, hence the reciprocal.
    s, d2 = nu_map(lamF, thF)
    inner = (2 * X - s) * (1 / exact_sqrt(d2))
    cols = _drift_columns(lamF, thF, [1], top)
    out = []
    for n, q_n in zip(degrees, family_values(inner, degrees, *data, ONE)):
        c = q_n.coef
        try:
            out.append(max(abs(float(r + n * ci))
                           for r, ci in zip(_apply(cols, c), c)))
        except OverflowError:
            raise ValueError(f"the degree-{n} residual at lam = {lam} "
                             "exceeds the float range") from None
    return out


@dataclass(frozen=True)
class FlowConstants:
    """Constants of the (Z, K) flow for one (lam, theta, r) choice:
    c1 = 2 th (1 + lam - 2 lam th), c2 = th^2 (1-lam)^2,
    c3 = 1 - th (lam+1) = sqrt(c2 + 1 - c1), horizon t0 = ln(4 lam th^2 / r),
    v0 = (r + c1)/2."""

    c1: float
    c2: float
    c3: float
    r: float
    v0: float
    t0: float

    @classmethod
    def from_params(cls, p, r=None):
        lam, th = p.lam, p.theta
        c1 = 2.0 * th * (1.0 + lam - 2.0 * lam * th)
        c2 = (th * (1.0 - lam)) ** 2
        c3 = 1.0 - th * (lam + 1.0)
        r_max = 4.0 * lam * th * th
        # Either product can underflow to 0 inside the domain, as at
        # (1, 5e-324) or (5e-324, 1/2); the range check below would then
        # blame r instead.
        if r_max == 0.0:
            raise ValueError(f"the bound 4 lam theta^2 of r underflows to 0 "
                             f"at lam = {lam}, theta = {th}")
        if r is None:
            r = 0.5 * r_max
            if r == 0.0:
                raise ValueError(f"the default r = 2 lam theta^2 underflows "
                                 f"to 0 at lam = {lam}, theta = {th}")
        if not 0.0 < r <= r_max:
            raise ValueError(f"r = {r} outside (0, {r_max}]")
        return cls(c1, c2, c3, float(r), 0.5 * (r + c1),
                   math.log(r_max / r))


def flow_Z(fc, t):
    """Z_t = 4 r e^t / ((r e^t + c1)^2 - 4 c2), increasing on [0, t0] with
    Z_{t0} = 1.  Rejects t outside [0, t0]."""
    if t < -1e-12 or t > fc.t0 + 1e-12:
        raise ValueError(f"t = {t} outside [0, {fc.t0}]")
    e = fc.r * math.exp(t)
    # The denominator is (e + c1 - 2 sqrt(c2))(e + c1 + 2 sqrt(c2)) > 0, but
    # its first factor, e + 4 lam th (1-th), is lost to cancellation once
    # lam is near unit roundoff.
    den = (e + fc.c1) ** 2 - 4.0 * fc.c2
    if den <= 0.0:
        raise ValueError(f"Z_t at t = {t}: (r e^t + c1)^2 - 4 c2 cancels "
                         f"to {den} in floats")
    return 4.0 * e / den


# Step of the central differences in the flow ODE residuals.
_FD_STEP = 1e-6


def flow_Z_ode_residual(fc, t):
    """|Z' - Z sqrt(1 - c1 Z + c2 Z^2)| with a central finite difference for
    Z' (step 1e-6); the closed form keeps this below 1e-7 at interior t."""
    zp = (flow_Z(fc, t + _FD_STEP) - flow_Z(fc, t - _FD_STEP)) / (2.0 * _FD_STEP)
    z = flow_Z(fc, t)
    rad = 1.0 - fc.c1 * z + fc.c2 * z * z
    return abs(zp - z * math.sqrt(max(rad, 0.0)))


def flow_K(fc, lam, theta, t, C=1.0, variant="displayed"):
    """Closed-form normalizer K_t for 0 <= t < t0.

    General branch: C sqrt(1-Z) sqrt((e + c1 + 2 sqrt(c2))/(e + c1 - 2
    sqrt(c2))) times sqrt(n3/d3) ("displayed") or sqrt(d3/n3) ("ode"),
    with e = r e^t, n3 = 2 - c1 - 2 c3 - e, d3 = 2 - c1 + 2 c3 - e.  At
    theta = 1/2 these collapse to C (lam - e)/(lam + e) and
    C (2 - lam - e)/(lam + e).  lam = 1 gets the specialized form
    sqrt((e + 4 th (1-th))^2 - 4 e)/(e + 4 th (1-th)) times
    sqrt((4 th^2 - e)/(4 (1-th)^2 - e)) or its reciprocal; both branches
    agree with the general one in the c2 -> 0 limit.
    """
    if variant not in ("displayed", "ode"):
        raise ValueError(f"unknown variant {variant!r}")
    if t < -1e-12 or t >= fc.t0:
        raise ValueError(f"t = {t} outside [0, {fc.t0})")
    e = fc.r * math.exp(t)
    if lam == 1.0:
        den = e + 4.0 * theta * (1.0 - theta)
        base = math.sqrt(max(den * den - 4.0 * e, 0.0)) / den
        ratio = (4.0 * theta * theta - e) / (4.0 * (1.0 - theta) ** 2 - e)
        if variant == "ode":
            ratio = 1.0 / ratio
        return C * base * math.sqrt(ratio)
    rc2 = math.sqrt(fc.c2)
    f1 = math.sqrt(max(1.0 - flow_Z(fc, t), 0.0))
    f2 = math.sqrt((e + fc.c1 + 2.0 * rc2) / (e + fc.c1 - 2.0 * rc2))
    n3 = 2.0 - fc.c1 - 2.0 * fc.c3 - e
    d3 = 2.0 - fc.c1 + 2.0 * fc.c3 - e
    ratio = n3 / d3 if variant == "displayed" else d3 / n3
    return C * f1 * f2 * math.sqrt(ratio)


def flow_K_ode_residual(fc, lam, theta, t, variant="displayed"):
    """Relative residual |K' + K (lam th G(1/Z) + th (1-lam) Z)| / |K| with a
    central finite difference for K' (step 1e-6).  G is the closed-form
    Cauchy transform of the stationary law, evaluated at 1/Z_t > 1."""
    k_hi = flow_K(fc, lam, theta, t + _FD_STEP, variant=variant)
    k_lo = flow_K(fc, lam, theta, t - _FD_STEP, variant=variant)
    kp = (k_hi - k_lo) / (2.0 * _FD_STEP)
    k = flow_K(fc, lam, theta, t, variant=variant)
    z = flow_Z(fc, t)
    g = cauchy_closed_form_mu(JacobiParams(lam, theta), 1.0 / z).real
    return abs(kp + k * (lam * theta * g + theta * (1.0 - lam) * z)) / abs(k)
