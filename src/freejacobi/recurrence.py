"""Jacobi-Szego recurrence parameters: closed forms, extraction, monic forms.

The monic orthogonal polynomials of a measure satisfy

    p_{n+1}(x) = (x - alpha_n) p_n(x) - omega_n p_{n-1}(x),

with shifts alpha_n (n >= 0) and positive weights omega_n (n >= 1).
Extraction from a raw measure uses the Stieltjes procedure: the recurrence
iterates are built on a quadrature discretization and each coefficient is an
inner-product ratio, which is far better conditioned than any map from raw
moments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import PositivityError
from .measures import FAMILIES, _ac_nodes, _family_data, _sin_nodes
from .polys import _one_step_data, monic_seq

__all__ = ["JacobiSzego", "stated_params", "extract_from_measure"]


@dataclass(frozen=True, eq=False)
class JacobiSzego:
    """Recurrence data; alpha[k] is the shift of index k and omega[k] the
    weight of (1-based) index k+1, so omega[0] = omega_1.  Object arrays
    (Fractions, Quads) are kept exact; any other input is made float."""

    alpha: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        for name in ("alpha", "omega"):
            v = np.asarray(getattr(self, name))
            object.__setattr__(self, name, v if v.dtype == object
                               else v.astype(float, copy=False))
        # At their float values: a Quad has no order.
        if np.any(self.omega.astype(float, copy=False) <= 0.0):
            raise ValueError("all recurrence weights omega must be positive")


def stated_params(family, lam=None, theta=None, n_max=12):
    """Closed-form Jacobi-Szego parameters of the three polynomial families,
    read from the family's Jacobi data in the variant its row of
    ``FAMILIES`` says the paper tabulates: alpha_0 and omega_1 as stated,
    every other alpha 0 and every other omega 1/4.

    Caution: the tabulated Q_lambda_theta shift b (variant "twice") is
    twice the first moment of nu_{lam,theta}, so for theta != 1/2 this
    alpha_0 is NOT the extraction fixed point --
    ``extract_from_measure(nu_lambda_theta(p), ...)`` returns
    alpha_0 = b/2.  The orthogonal family itself is built by
    ``build_Q_lambda_theta`` in its own variant "mean".
    """
    # An unknown name has no row, and _family_data refuses it.
    row = FAMILIES.get(family)
    alpha, omega = _one_step_data(
        *_family_data(family, lam, theta, row and row.tabulated), n_max)
    return JacobiSzego(np.array(alpha, dtype=float),
                       np.array(omega, dtype=float))


def _stieltjes(x, inner, n_max):
    """Stieltjes procedure: arrays alpha_0..alpha_{n_max} and
    omega_1..omega_{n_max} of the inner product whose two sums at each monic
    p_k are inner(p_k) = (<p_k, p_k>, <x p_k, p_k>).

    The iterates come from ``polys.monic_seq`` over x, from p_0 = x ** 0,
    which reads each coefficient as it is appended here.  Generic over the
    element type: float node arrays with node sums, or exact polynomials
    with a moment functional.
    """
    alpha, omega = [], []
    for k, p in zip(range(n_max + 1), monic_seq(x, alpha, omega)):
        norm, x_norm = inner(p)
        if norm <= 0:
            raise PositivityError(
                f"lost positivity at index {k} (norm = {float(norm):.3e}); "
                f"coefficients up to index {k - 1} are reliable", k - 1)
        if k:
            omega.append(norm / norm_prev)
        alpha.append(x_norm / norm)
        norm_prev = norm
    return np.asarray(alpha), np.asarray(omega)


def extract_from_measure(m, n_max):
    """Jacobi-Szego parameters (alpha_0..alpha_{n_max}, omega_1..omega_{n_max})
    of a spectral measure, via the Stieltjes procedure on the tanh-sinh
    discretization of the a.c. part (atoms join as exact point masses).

    The procedure runs on the image of m on [-1, 1], whatever the place and
    width of its support: the a.c. nodes are those of the node rule on
    [-1, 1] (for a law on [-1, 1] the very nodes it keeps), each with m's
    own weight, and an atom a sits at (a - c)/h, where c and h are the centre
    and half-width of the support ((0, 1) for a single point).  Nodes are
    never mapped from the rounded x of m: where h << |c| that loses their
    precision.  The data map back as alpha = c + h alpha' and
    omega = h^2 omega'; ValueError names the law if h^2 omega' underflows
    to 0.

    The discretization doubles from 64 nodes until the coefficients of the
    image settle to 1e-10; ConvergenceError is raised otherwise,
    PositivityError if orthogonality collapses (quadrature exhaustion at
    large n_max).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    tol = 1e-10
    lo, hi = m.support
    c, h = (0.5 * (lo + hi), 0.5 * (hi - lo)) if hi > lo else (0.0, 1.0)

    def compute(n):
        _, w_ac = _ac_nodes(m, n)
        x_ac = _sin_nodes(-1.0, 1.0, n)[0] if w_ac.size else w_ac
        xs = np.concatenate([x_ac, [(a - c) / h for a, _ in m.atoms]])
        ws = np.concatenate([w_ac, [w for _, w in m.atoms]])
        degree = itertools.count()

        # An atom far out (xi_lambda at lam = 1e-300 has one near 7e149)
        # carries p_k^2 beyond the float range within a few degrees; the
        # sums are checked on the first pass, before any node doubling.
        def inner(p):
            k = next(degree)
            sums = float(np.sum(ws * p * p)), float(np.sum(ws * xs * p * p))
            if not np.isfinite(sums).all():
                far = max((a for a, _ in m.atoms), key=abs, default=None)
                raise ValueError(
                    f"the degree-{k} Stieltjes sums under "
                    f"{m.label or 'the measure'} exceed the float range"
                    + (f" at the atom x = {far:.3g}" if far is not None
                       else ""))
            return sums

        with np.errstate(over="ignore", invalid="ignore"):
            return _stieltjes(xs, inner, n_max)

    def settled(prev, cur):
        return max(np.max(np.abs(cur[0] - prev[0])),
                   np.max(np.abs(cur[1] - prev[1])) if n_max else 0.0) < tol

    alpha, omega = errors.refine(
        compute, settled, 64, 32768,
        f"recurrence coefficients did not settle to {tol} by 32768 nodes; "
        f"n_max = {n_max} may exceed double-precision reach for this measure")
    omega = h * h * omega
    if not omega.all():
        raise ValueError(
            f"the recurrence weights of {m.label or 'the measure'} underflow "
            f"to 0: its support is {hi - lo:.3g} wide")
    return JacobiSzego(c + h * alpha, omega)
