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
from .measures import _ac_nodes
from .polys import monic_seq
from .renorm import _family_data

__all__ = ["JacobiSzego", "stated_params", "extract_from_measure", "monicize"]


@dataclass(frozen=True, eq=False)
class JacobiSzego:
    """Recurrence data; alpha[k] is the shift of index k and omega[k] the
    weight of (1-based) index k+1, so omega[0] = omega_1."""

    alpha: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "omega", np.asarray(self.omega, dtype=float))
        if np.any(self.omega <= 0.0):
            raise ValueError("all recurrence weights omega must be positive")

    def n_levels(self):
        return self.alpha.size


def stated_params(family, lam=None, theta=None, n_max=12):
    """Closed-form Jacobi-Szego parameters of the three polynomial families,
    read from the family's Jacobi data at the tabulated shift (see
    ``FAMILIES``): alpha_0 and omega_1 as stated, every other alpha 0 and
    every other omega 1/4.

    Caution: the tabulated Q_lambda_theta shift b is twice the first moment
    of nu_{lam,theta}, so for theta != 1/2 this alpha_0 is NOT the
    extraction fixed point -- ``extract_from_measure(nu_lambda_theta(p),
    ...)`` returns alpha_0 = b/2.  The orthogonal family itself is built by
    ``build_Q_lambda_theta`` with its default b_variant="mean".
    """
    alpha0, omega1 = _family_data(family, lam, theta, b_variant="twice")
    alpha = np.zeros(n_max + 1)
    omega = np.full(n_max, 0.25)
    alpha[0] = alpha0
    if n_max >= 1:
        omega[0] = omega1
    return JacobiSzego(alpha, omega)


def _stieltjes(x, one, inner, n_max):
    """Stieltjes procedure: arrays alpha_0..alpha_{n_max} and
    omega_1..omega_{n_max} of the inner product whose two sums at each monic
    p_k are inner(p_k) = (<p_k, p_k>, <x p_k, p_k>).

    The iterates come from ``polys.monic_seq`` over x and one, which reads
    each coefficient as it is appended here.  Generic over the element
    type: float node arrays with node sums, or exact polynomials with a
    moment functional.
    """
    alpha, omega = [], []
    for k, p in zip(range(n_max + 1), monic_seq(x, alpha, omega, one)):
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


def extract_from_measure(m, n_max, tol=1e-10):
    """Jacobi-Szego parameters (alpha_0..alpha_{n_max}, omega_1..omega_{n_max})
    of a spectral measure, via the Stieltjes procedure on the tanh-sinh
    discretization of the a.c. part (atoms join as exact point masses).

    The discretization doubles from 64 nodes until the coefficients settle
    to tol; ConvergenceError is raised otherwise, PositivityError if
    orthogonality collapses (quadrature exhaustion at large n_max).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    def compute(n):
        x_ac, w_ac = _ac_nodes(m, n)
        xs = np.concatenate([x_ac, [a for a, _ in m.atoms]])
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
            return _stieltjes(xs, np.ones_like(xs), inner, n_max)

    def settled(prev, cur):
        return max(np.max(np.abs(cur[0] - prev[0])),
                   np.max(np.abs(cur[1] - prev[1])) if n_max else 0.0) < tol

    return JacobiSzego(*errors.refine(
        compute, settled, 64, 32768,
        f"recurrence coefficients did not settle to {tol} by 32768 nodes; "
        f"n_max = {n_max} may exceed double-precision reach for this measure"))


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
