"""Multiplicative renormalization: theta kernels, the product-dependence
certification, and the generating-function view of the polynomial families
of measures.FAMILIES (their weights, Gram matrices and members).

For a probability measure mu and an analytic rho with rho(0) = 0,
rho'(0) != 0, the kernel psi(u, x) = (1 - rho(u) x)^{-1} / theta(rho(u))
generates the orthogonal polynomials of mu exactly when

    Theta_rho(u, v) = theta(rho(u), rho(v)) / (theta(rho(u)) theta(rho(v)))

depends on (u, v) only through the product uv.  ``certify_product_dependence``
tests that criterion on a grid of equal-product pairs.

The kernels are one integral, theta(u, v) = int a_u a_v dmu with
a_u(x) = 1/(1 - u x), taken directly over the measure's tanh-sinh nodes and
atoms (theta(u) is the case v = 0), so that no difference quotient cancels
near the diagonal.  A certification takes every kernel value of its grid
from one node-doubling pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .measures import (_ac_nodes, _family_data, _integrate_ac, _off_support,
                       _one_step_atoms, _settled_within)
from .polys import _X, family_values

__all__ = [
    "RenormKernel",
    "rho_trig",
    "theta_one",
    "theta_two",
    "theta_ratio",
    "certify_product_dependence",
    "u_combination",
    "family_gram",
    "build_Q_lambda",
    "build_P_lambda",
    "build_Q_lambda_theta",
]


def rho_trig(u):
    """rho(u) = 2u/(1+u^2); in trigonometric form maps tan to sin."""
    return 2.0 * u / (1.0 + u * u)


@dataclass(frozen=True, eq=False)
class RenormKernel:
    """A measure together with the reparameterization rho."""

    measure: object
    rho: object = rho_trig

    def __post_init__(self):
        if abs(self.rho(0.0)) > 1e-14:
            raise ValueError("rho(0) must vanish")
        d = (self.rho(1e-6) - self.rho(-1e-6)) / 2e-6
        if abs(d) < 1e-8:
            raise ValueError("rho'(0) must be nonzero")


def theta_one(k, u):
    """theta(u) = int (1 - u x)^{-1} dmu(x), the case v = 0 of theta_two."""
    return theta_two(k, u, 0.0)


def theta_two(k, u, v):
    """theta(u, v) = int (1 - u x)^{-1} (1 - v x)^{-1} dmu(x), integrated
    directly on and off the diagonal (_thetas); theta(0, 0) is the total
    mass, 1.  Raises ValueError when 1/u or 1/v lies on the a.c. support or
    on an atom."""
    return 1.0 if u == v == 0 else float(_thetas(k.measure, [(u, v)])[0])


def theta_ratio(k, u, v):
    """Theta_rho(u, v) = theta(rho u, rho v) / (theta(rho u) theta(rho v))."""
    return float(_theta_ratios(k, [(u, v)])[0])


def _theta_ratios(k, pairs):
    """Theta_rho(u, v) for each (u, v) in pairs, from one _thetas pass; rho
    is called per point."""
    rs = [(k.rho(u), k.rho(v)) for u, v in pairs]
    t = _thetas(k.measure, rs + [(r, 0.0) for uv in rs for r in uv])
    n = len(rs)
    return t[:n] / (t[n::2] * t[n + 1::2])


def _thetas(m, pairs):
    """theta(r, s) = int a_r a_s dm, a_r(x) = 1/(1 - r x), for each (r, s)
    in pairs, from one node-doubling pass.

    Each pass evaluates a_r once per distinct r, on the tanh-sinh nodes of
    the a.c. part and on the atoms, and contracts the pairs as (a w) a^T,
    128 nodes at a time, so that the working set stays near 1 KiB per
    distinct r at any node count.  The contraction is an einsum: a BLAS
    product would add buffers of about 1.4 MB to the process.  The pass
    settles at 1e-12 relative, the tolerance of cauchy_transform, and raises
    ValueError where cauchy_transform would at z = 1/r.
    """
    r, idx = np.unique(np.ravel(pairs), return_inverse=True)
    i, j = idx.reshape(-1, 2).T
    for z in 1.0 / r[r != 0.0]:
        _off_support(m, z)
    ax, aw = np.array(m.atoms).reshape(-1, 2).T

    def compute(n):
        x, w = _ac_nodes(m, n)
        x, w = np.concatenate([x, ax]), np.concatenate([w, aw])
        t = 0.0
        for s in range(0, x.size, 128):
            a = 1.0 / (1.0 - np.outer(r, x[s:s + 128]))
            t = t + np.einsum("in,jn->ij", a * w[s:s + 128], a)
        return t[i, j]

    return errors.refine(compute, _settled_within(1e-12), 64, 1 << 17,
                         f"theta kernel did not settle on {m.support}")


def _admissible_u(k):
    """Largest u (with margin) such that 1/rho(u) stays off the measure's
    support and atoms; assumes rho is increasing on [0, 1)."""
    m = k.measure
    pts = [abs(x) for x in m.support]
    pts += [abs(x) for x, _ in m.atoms]
    xmax = max(pts)
    w_max = min(0.95 / xmax if xmax > 0 else 0.95, 0.95)
    lo_u, hi_u = 0.0, 0.999
    if k.rho(hi_u) <= w_max:
        return hi_u
    # Halving first finds the octave of u: a far atom (xi at lam = 1e-300
    # has one near 7e149) puts it below any fixed bisection depth.  Where
    # that depth sufficed, the bisection ends on the same float.
    while hi_u > 0.0 and k.rho(0.5 * hi_u) >= w_max:
        hi_u *= 0.5
    for _ in range(80):
        mid = 0.5 * (lo_u + hi_u)
        if k.rho(mid) < w_max:
            lo_u = mid
        else:
            hi_u = mid
    return lo_u


def _default_grid(k):
    """Equal-product pairs: 40 products log-spaced in [p_lo, p_hi],
    p_hi = min(0.5, u_max^2) with u_max = 0.95 times the admissible u, each
    realized by 5 different (u, v) splits in (0, u_max].  p_lo is 1e-4, or
    1e-4 p_hi where p_hi <= 1e-4; products below the normal float range
    raise ValueError."""
    u_max = 0.95 * _admissible_u(k)
    p_hi = min(0.5, u_max * u_max)
    p_lo = 1e-4 if p_hi > 1e-4 else 1e-4 * p_hi
    if p_lo < np.finfo(float).tiny:
        raise ValueError(f"the admissible u = {u_max:.3g} of "
                         f"{k.measure.label or 'the measure'} leaves its "
                         "products below the normal float range")
    products = np.geomspace(p_lo, p_hi, 40)
    grid = []
    for p in products:
        for u in np.geomspace(p / u_max, u_max, 5):
            grid.append((float(u), float(p / u)))
    return grid


def certify_product_dependence(k, grid=None, tol=1e-10):
    """Check that Theta_rho(u, v) depends only on the product uv.

    Theta_rho is evaluated at every pair of ``grid``, all its kernel values
    in one node-doubling pass.  Sorted by product, pairs whose consecutive
    products agree to 1e-14 relative form a group; within each group the
    spread max - min of Theta_rho must not exceed tol.  Returns (verdict,
    report).
    """
    grid = _default_grid(k) if grid is None else list(grid)
    p = np.array([u * v for u, v in grid])
    order = np.argsort(p, kind="stable")
    p, ratios = p[order], _theta_ratios(k, grid)[order]
    cuts = np.flatnonzero(np.diff(p) > 1e-14 * np.abs(p[1:])) + 1
    groups = [g for g in np.split(np.arange(p.size), cuts) if g.size > 1]
    spreads = [float(np.ptp(ratios[g])) for g in groups]
    worst = max(spreads, default=0.0)
    worst_product = float(p[groups[np.argmax(spreads)][0]]) if worst else None
    verdict = bool(worst <= tol)
    report = {
        "pairs": len(grid),
        "product_groups": len(groups),
        "max_violation": worst,
        "worst_product": worst_product,
        "tol": tol,
        "verdict": verdict,
    }
    return verdict, report


# -- generating-function families --------------------------------------------
#
# The families themselves are the rows of measures.FAMILIES; their members
# are the Chebyshev combinations F_n = U_n + beta U_{n-1} + gamma U_{n-2}
# of the weights u_combination gives.

def u_combination(family, lam, theta=None, variant=None):
    """Weights (beta, gamma) = (-2 alpha_0, 1 - 4 omega_1) of the named
    family's Chebyshev combination, the generating-function view of its
    Jacobi data:

    family = "Q_lambda_theta": (-2 b,       1 - 2c)
    family = "Q_lambda":       the same at theta = 1/2, (0, -lam/(2-lam))
    family = "P_lambda":       (-2 a(lam),  -1)

    with a(lam) per ``xi_shift(lam, variant)``, c = 1/(2(1 - lam theta))
    and b per ``build_Q_lambda_theta`` (b depends on the variant).
    `variant` is one of the variants of the family's row (None: its own);
    the family name, the variant and the domain are checked as in
    _family_data.
    """
    alpha0, omega1 = _family_data(family, lam, theta, variant)
    return -2 * alpha0, 1 - 4 * omega1


def family_gram(measure, beta, gamma, n_max):
    """Gram matrix <F_i, F_j> under ``measure`` of the combination family
    F_n = U_n + beta U_{n-1} + gamma U_{n-2}, for i, j <= n_max.

    The family values come from the three-term recurrence of the family's
    Jacobi data (-beta/2, (1 - gamma)/4) (family_values), stable on the
    a.c. support, and the inner products from quadrature plus exact atom
    terms.  At an atom of the family's own law (one_step_law of those
    data), where the recurrence's solution is recessive and its forward
    rounding grows like rho^-n, the values take their closed form
    4 omega_1 rho^n.  Expanding the products into monomial coefficients and
    pairing with raw moments loses around six digits at degree ~24 through
    cancellation; this route keeps the off-diagonal of the orthogonal
    families of the acceptance gate below 2e-15 at degree 12.  An entry
    beyond the float range raises ValueError.
    """
    if n_max < 0:
        raise ValueError(f"n_max = {n_max} must be nonnegative")
    alpha0, omega1 = -beta / 2, (1 - gamma) / 4
    iu, ju = np.triu_indices(n_max + 1)

    def finite(vals):
        if not np.isfinite(vals).all():
            raise ValueError(f"the degree-{n_max} Gram matrix under "
                             f"{measure.label or 'the measure'} exceeds the "
                             "float range")
        return vals

    # An atom far out (xi_lambda at lam = 1e-100 has one near 7e49) carries
    # the high-degree values beyond the float range, and so does a huge
    # shift (P_lambda at lam = 5e-324) at every node: the integrand is
    # checked on the first pass, before any node doubling.
    def pair_values(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            fam = np.array(family_values(x, range(n_max + 1), alpha0,
                                         omega1))
            return finite(fam[iu] * fam[ju])

    # An atom z of the family's own law is a zero of D, where
    # z - alpha_0 = 2 omega_1 rho, rho = z - sgn(z) sqrt(z^2 - 1), so that
    # F_n(z) = 4 omega_1 rho^n for n >= 1.  rho is taken in a form that
    # neither cancels nor overflows; an atom of other data keeps the
    # recurrence.
    a, w = float(alpha0), float(omega1)
    own = [z for z, _ in _one_step_atoms(a, w)] if w > 0.0 else []

    def atom_values(z):
        if z not in own:
            return pair_values([z])[:, 0]
        rho = math.copysign(
            1.0 / (abs(z) * (1.0 + math.sqrt(1.0 - (1.0 / z) ** 2))), z)
        fam = np.concatenate([[1.0],
                              4.0 * w * rho ** np.arange(1.0, n_max + 1)])
        return fam[iu] * fam[ju]

    vals = np.asarray(_integrate_ac(measure, pair_values), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for x0, w0 in measure.atoms:
            vals = vals + w0 * atom_values(x0)
    finite(vals)
    g = np.zeros((n_max + 1, n_max + 1))
    g[iu, ju] = vals
    g[ju, iu] = vals
    return g


def _build(family, n, lam, theta=None, variant=None):
    """The degree-n member of a family as a float Polynomial, its degree-0
    member _X ** 0 (family_values over _X)."""
    data = _family_data(family, lam, theta, variant)
    return family_values(_X, [n], *data)[0]


def build_Q_lambda(lam, n):
    """Q_n = U_n - (lam/(2-lam)) U_{n-2} as a float Polynomial (_build);
    Taylor coefficients in u of (1 - (lam/(2-lam)) u^2) / (1 - 2ux + u^2)."""
    return _build("Q_lambda", n, lam)


def build_P_lambda(lam, n, variant=None):
    """P_n = U_n - 2 a(lam) U_{n-1} - U_{n-2} as a float Polynomial
    (_build); Taylor coefficients in u of
    (1 - 2 a(lam) u - u^2) / (1 - 2ux + u^2), a(lam) = xi_shift(lam,
    variant) ("sqrt", the family's own, or "rational")."""
    return _build("P_lambda", n, lam, variant=variant)


def build_Q_lambda_theta(p, n, variant=None):
    """Q_n = U_n - 2b U_{n-1} + (1-2c) U_{n-2} with b, c from (lam, theta),
    as a float Polynomial (_build); Taylor coefficients in u of
    (1 - 2bu + (1-2c)u^2) / (1 - 2ux + u^2).

    The variant selects the shift coefficient.  "mean" (the family's own,
    and the default) puts b equal to the first moment of nu_{lam,theta},

        b = sqrt(lam / ((1-theta)(1-lam theta))) (2 theta - 1) / 2,

    which is forced by orthogonality of Q_1 to constants and makes the whole
    family orthogonal.  "twice", as tabulated, uses twice that value; the
    resulting combination fails orthogonality whenever theta != 1/2 and is
    kept as a negative control.  The variants coincide at theta = 1/2
    (b = 0).
    """
    return _build("Q_lambda_theta", n, p.lam, p.theta, variant)
