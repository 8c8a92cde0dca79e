"""Spectral measures: constructors, moments, Cauchy transforms, inversion.

Every absolutely continuous density handled here behaves like
sqrt((hi - x)(x - lo)) or its inverse at the support edges, and some have
poles just outside them.  All adaptive quadrature therefore uses the
double-exponential (tanh-sinh) substitution x = c + h*tanh((pi/2) sinh t):
the Jacobian decays double-exponentially at both ends, which absorbs any
algebraic edge behaviour, and the trapezoid rule in t then converges
exponentially.  Node counts double until two successive passes agree, and
the distribution-function grid accumulates the same nodes and weights.

One rule gives every density and every atom: one_step_law, the law of
monic Jacobi data alpha_0, omega_1, then alpha_n = 0 and omega_n = 1/4.
Its density is written once, in edge form (see
SpectralMeasure.density_edges); the density at x is that form at the
clipped edge distances x - lo and hi - x.  nu_lambda_theta and xi_lambda
are one_step_law of their family's data, nu_lambda is nu_lambda_theta at
theta = 1/2, and mu_lambda_theta reads the edge form of nu_lambda_theta
through the affine map of its support.  The parameter domain is stated
once, by JacobiParams: the theta = 1/2 laws check lam through it as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .errors import ConvergenceError
from .exact import exact_sqrt

__all__ = [
    "JacobiParams",
    "SpectralMeasure",
    "one_step_law",
    "mu_lambda_theta",
    "nu_lambda",
    "nu_lambda_theta",
    "nu_map",
    "xi_lambda",
    "xi_shift",
    "moments",
    "cauchy_transform",
    "cauchy_closed_form_mu",
    "stieltjes_invert",
    "pushforward_affine",
    "cdf_grid",
]

_HALF_PI = 0.5 * np.pi


@dataclass(frozen=True, eq=False)
class JacobiParams:
    """Parameter pair (lam, theta) of the stationary process.

    The domain is 0 < lam <= 1 and 0 < theta <= 1/2.  It lies inside the
    injective regime theta <= 1/(lam + 1), where the stationary spectral
    measure has no atoms.  This is the one statement of the domain: the
    theta = 1/2 laws, u_combination and simulate_trials check their
    parameters by building a JacobiParams.
    """

    lam: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lam = {self.lam} outside (0, 1]")
        if not 0.0 < self.theta <= 0.5:
            raise ValueError(f"theta = {self.theta} outside (0, 1/2]")

    @property
    def x_minus(self):
        lam, th = self.lam, self.theta
        return (math.sqrt(th * (1 - lam * th)) - math.sqrt(lam * th * (1 - th))) ** 2

    @property
    def x_plus(self):
        lam, th = self.lam, self.theta
        return (math.sqrt(th * (1 - lam * th)) + math.sqrt(lam * th * (1 - th))) ** 2


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Probability measure with a density on [support_lo, support_hi] plus
    finitely many atoms (location, weight) on or outside that interval.

    The density is given in edge form only: density_edges(x, dlo, dhi) with
    dlo = x - lo and dhi = hi - x supplied separately.  Near an edge those
    distances are far below one ulp of x itself, so a density with an
    inverse-square-root edge cannot be evaluated accurately (or at all) from
    the rounded x alone; the quadrature and cdf_grid compute the distances
    in closed form (the tanh-sinh nodes reach within ~1e-37 of each edge).
    The vectorized density(x) is derived from the edge form at the clipped
    distances x - lo and hi - x, so a dataclasses.replace copy with another
    density_edges carries the matching density.
    """

    support: tuple
    density_edges: object                # (x, dlo, dhi) -> density, vectorized
    atoms: tuple = ()
    label: str = ""
    density: object = field(init=False, repr=False)
    # Quadrature nodes and weights of the a.c. part by node count, filled by
    # _ac_nodes.  A dataclasses.replace copy starts with an empty store.
    _nodes: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def __post_init__(self):
        lo, hi = self.support
        if hi < lo:
            raise ValueError("support interval is reversed")
        # The edge form captured here, not the attribute: a wrapper later
        # set on density_edges then sees each density(x) point only once.
        edges = self.density_edges

        def density(x):
            x = np.asarray(x, dtype=float)
            return edges(x, np.clip(x - lo, 0.0, None),
                         np.clip(hi - x, 0.0, None))

        object.__setattr__(self, "density", density)
        object.__setattr__(self, "atoms",
                           tuple((float(x), float(w)) for x, w in self.atoms))
        for x, w in self.atoms:
            if w < -1e-12 or w > 1 + 1e-12:
                raise ValueError(f"atom weight {w} outside [0, 1]")
            if lo < x < hi:
                raise ValueError(f"atom at {x} inside the open a.c. support")
        if hi > lo:
            xs = lo + (hi - lo) * (np.arange(1, 130) / 130.0)
            if np.any(np.asarray(self.density(xs)) < -1e-12):
                raise ValueError("density is negative on its support")
        total = self.total_mass()
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"total mass {total} is not 1 within 1e-8")

    @property
    def support_lo(self):
        return self.support[0]

    @property
    def support_hi(self):
        return self.support[1]

    def atom_weight(self):
        return sum(w for _, w in self.atoms)

    def total_mass(self):
        ac = _integrate_ac(self, lambda x: np.ones_like(x))
        return float(np.real(ac)) + self.atom_weight()


# The edge distance of the outermost tanh-sinh node (t = -+4) per unit of
# the support's width: 1/(1 + e^{pi sinh 4}), about 5.6e-38.
_EDGE_REACH = 1.0 / (1.0 + math.exp(math.pi * math.sinh(4.0)))


def _sin_nodes(lo, hi, n):
    """Tanh-sinh nodes and weights on [lo, hi]: a midpoint trapezoid with n
    nodes in t on [-4, 4] after x = c + h tanh(u), u = (pi/2) sinh t.

    Besides the nodes x and the Jacobian-weight product, returns the edge
    distances x - lo = 2h/(1 + e^{-2u}) and hi - x = 2h/(1 + e^{2u}), which
    keep full relative precision where x itself has rounded onto an
    endpoint.  At t = +-4 those distances are about 1e-37 h, so the
    truncated tails are negligible for every integrable algebraic edge.
    """
    c, h = 0.5 * (hi + lo), 0.5 * (hi - lo)
    step = 8.0 / n
    t = -4.0 + step * (np.arange(n) + 0.5)
    u = _HALF_PI * np.sinh(t)
    x = c + h * np.tanh(u)
    jac = step * h * _HALF_PI * np.cosh(t) / np.cosh(u) ** 2
    dlo = 2.0 * h / (1.0 + np.exp(-2.0 * u))
    dhi = 2.0 * h / (1.0 + np.exp(2.0 * u))
    return x, jac, dlo, dhi


def _ac_nodes(m, n):
    """Nodes x and weights (density times Jacobian) of the n-node rule for
    the a.c. part of m; a degenerate support has no nodes.

    The pair is built once per measure and node count and kept on the
    measure, read-only: every Cauchy transform, moment table and
    recurrence extraction of m then shares its nodes and density values.
    The store holds at most one entry per node-doubling level.
    """
    nodes = m._nodes.get(n)
    if nodes is not None:
        return nodes
    lo, hi = m.support
    if hi <= lo:
        x, w = np.zeros(0), np.zeros(0)
    else:
        x, jac, dlo, dhi = _sin_nodes(lo, hi, n)
        w = m.density_edges(x, dlo, dhi) * jac
    x.flags.writeable = w.flags.writeable = False
    m._nodes[n] = x, w
    return x, w


def _integrate_ac(m, f, tol=1e-11, n_max=1 << 17):
    """Integral of f(x) against the a.c. part of m, by tanh-sinh node
    doubling from 64 nodes.

    f may return an array whose last axis matches x (all components are
    integrated in one pass); convergence requires every component to move by
    less than tol * max(1, |value|) under one doubling.
    """
    def compute(n):
        x, w = _ac_nodes(m, n)
        return np.sum(np.asarray(f(x)) * w, axis=-1)

    lo, hi = m.support
    return errors.refine(
        compute, _settled_within(tol), 64, n_max,
        f"quadrature did not settle at {n_max} nodes on [{lo}, {hi}]")


def _settled_within(tol):
    """Settle test of the quadrature's node doubling: no component moved by
    tol * max(1, |value|) or more (an empty pass settles)."""
    def settled(prev, vals):
        scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
        return np.max(np.abs(vals - prev), initial=0.0) < tol * scale

    return settled


# -- constructors ------------------------------------------------------------

def one_step_law(alpha0, omega1, label=""):
    """The law whose monic Jacobi data are alpha_0, omega_1, then
    alpha_n = 0 and omega_n = 1/4: by Favard's theorem the one law with
    Cauchy transform

        G(z) = 1/(z - alpha_0 - omega_1 G_sc(z)),
        G_sc(z) = 2(z - sqrt(z^2 - 1)),

    a member of the free Meixner class.  Each polynomial family here,
    U_n + beta U_{n-1} + gamma U_{n-2}, has such data, (alpha_0, omega_1) =
    (-beta/2, (1 - gamma)/4), and its law is built here.

    The a.c. part on [-1, 1] is -Im G(x + i0)/pi, in edge form
    (_one_step_edges).  There is an atom at each real zero z, |z| >= 1, of
    D(z) = z - alpha_0 - omega_1 G_sc(z) (_one_step_atom).  D increases on
    either side of [-1, 1], so it has a zero beyond the edge s = -1 or 1
    exactly when s D(s) < 0, that is s alpha_0 > 1 - 2 omega_1; at the
    equality D vanishes on the edge itself, where the law has no atom.
    """
    a, w = float(alpha0), float(omega1)
    if not w > 0.0:
        raise ValueError(f"omega_1 = {w} must be positive")
    atoms = tuple(_one_step_atom(a, w, s) for s in (-1.0, 1.0)
                  if s * a > 1.0 - 2.0 * w)
    return SpectralMeasure((-1.0, 1.0), _one_step_edges(a, w), atoms, label)


def _one_step_atom(a, w, s):
    """(z, weight) of the atom of one_step_law(a, w) beyond the edge s.

    With v = 2w, the zero of D beyond s is

        z = (a(1 - v) - s v sqrt(a^2 + 2v - 1)) / (1 - 2v)
          = (a^2 + v^2) / (a(1 - v) + s v sqrt(a^2 + 2v - 1)),

    each form taken where its sum does not cancel; at w = 1/2 the first
    is s sqrt(a^2 + 1) to the bit.  z is solved for as z/c, c = |a| where
    a^2 overflows (xi at lam = 5e-324), c = 1 elsewhere.  The weight, the
    residue 1/D'(z), is |l| / ((1 - 2w)|l| + 4w^2 |z|) with
    l = (1 - 2w) z - a, which uses sqrt(z^2 - 1) = |l|/(2w) at the zero.
    """
    u, v = 1.0 - 2.0 * w, 2.0 * w
    c = 1.0 if a * a < math.inf else abs(a)
    ac = a / c
    root = v * math.sqrt(ac * ac + (2.0 * v - 1.0) / c / c)
    if s * a * u > 0.0:
        z = c * ((ac * ac + (v / c) ** 2) / (ac * u + s * root))
    else:
        z = c * ((ac * u - s * root) / (1.0 - 2.0 * v))
    # The zero lies at |z| >= 1; rounding can put it an ulp inside the
    # edge, as at (a, w) = (0.4800000000000021, 0.26).
    z = math.copysign(max(abs(z), 1.0), s)
    ell = abs(u * z - a)
    return z, ell / (u * ell + v * v * abs(z))


def _one_step_edges(a, w):
    """Edge form of one_step_law(a, w) on [-1, 1]:

        2w sqrt(dlo dhi) / (pi [((1 - 2w) x - a)^2 + 4w^2 dlo dhi]).

    The denominator is |D(x + i0)|^2, a sum of squares: it needs no
    closed-form gaps and no normaliser.
    """
    u, v = 1.0 - 2.0 * w, 2.0 * w

    def dens_edges(x, dlo, dhi):
        prod = dlo * dhi
        lin = u * x - a
        # lin^2 overflows where a does (xi below lam of about 1e-308), and
        # the density is 0 there.
        with np.errstate(over="ignore"):
            den = np.pi * (lin * lin + v * v * prod)
        # den is 0 only at an edge where lin is 0 too: the inverse-square-
        # root pole.  [()] keeps a scalar x a scalar.
        pole = den == 0.0
        return np.where(pole, np.inf,
                        v * np.sqrt(prod) / np.where(pole, 1.0, den))[()]

    return dens_edges


def _nu_theta_data(lam, theta, b_variant="mean"):
    """Jacobi data (alpha_0, omega_1) of Q_lambda_theta, generic over float
    and Fraction: omega_1 = 1/(4(1 - lam theta)) and alpha_0 = b, the first
    moment of nu_{lam,theta} (b_variant="mean"), or twice it ("twice", as
    tabulated), where

        b = -(1 - 2 omega_1) r,
        r = (1 - 2 theta) sqrt(lam (1 - lam theta)/(1 - theta))
            / (1 - 2 lam theta).

    On the domain r <= 1, with r = 1 at lam = 1, so that D(-1) = -(1 -
    2 omega_1) - b <= 0 and nu_{lam,theta} has no atom (one_step_law).  In
    floats r is a ratio of at most 1 times a root of at most 1, the min
    keeping 1 - lam (1 - lam theta)/(1 - theta) = (1 - lam)(1 - theta
    (1 + lam))/(1 - theta) >= 0 through rounding, so the float b keeps
    D(-1) <= 0 as well.  At theta = 1/2, b = 0 and no ratio is taken.
    """
    w = 1 / (4 * (1 - lam * theta))
    r = 0 if 2 * theta == 1 else (
        (1 - 2 * theta)
        * exact_sqrt(min(lam * (1 - lam * theta) / (1 - theta), 1))
        / (1 - 2 * lam * theta))
    b = -(1 - 2 * w) * r
    return (2 * b if b_variant == "twice" else b), w


def _xi_data(lam, a_variant="sqrt"):
    """Jacobi data (a(lam), 1/2) of P_lambda, a(lam) = xi_shift(lam,
    a_variant), the 1/2 in the scalar type of lam (float or Fraction)."""
    return xi_shift(lam, a_variant), lam ** 0 / 2


def mu_lambda_theta(p):
    """Stationary spectral measure on [x_-, x_+] (injective regime), with
    density sqrt((x_+ - x)(x - x_-)) / (2 pi lam theta x (1 - x)).

    It is nu_{lam,theta} read back through the map y = (2x - s)/d of
    nu_map: its edge form is k times that of nu_{lam,theta} at
    y = k (x - x_-) - 1 and the edge distances k (x - x_-) and k (x_+ - x),
    k = 2/(x_+ - x_-).  On [-1, 1] the tanh-sinh nodes keep those distances
    above about 1e-37 wherever the edge distances of the nodes of mu itself
    are normal floats.  Like nu_{lam,theta}, mu has no atom.
    """
    if not isinstance(p, JacobiParams):
        p = JacobiParams(*p)
    xm, xp = p.x_minus, p.x_plus
    # The support is 4 theta sqrt(lam (1 - theta)(1 - lam theta)) wide: at
    # theta = 1/2 and lam below about 1e-32 it rounds to one float.
    if xm >= xp:
        raise ValueError(f"the support of mu at lam = {p.lam}, theta = "
                         f"{p.theta} collapses to the one float {xm}")
    # Below about 4e-271 the outer nodes lie closer to the edges than the
    # normal float range reaches, and k times the density of nu there
    # overflows below about 1e-290.
    if (xp - xm) * _EDGE_REACH < np.finfo(float).tiny:
        raise ValueError(f"the support of mu at lam = {p.lam}, theta = "
                         f"{p.theta} is {xp - xm:.3g} wide: the edge "
                         f"distances of its quadrature nodes, down to "
                         f"{_EDGE_REACH:.2g} of that, underflow")
    # k is taken from the float support, not from d: the two widths differ
    # by up to 5e-7 relative at lam <= 1e-16, and with k from the support
    # the nodes map onto [-1, 1] and keep the mass of nu_{lam,theta}.
    k = 2.0 / (xp - xm)
    nu_edges = _one_step_edges(*_nu_theta_data(p.lam, p.theta))

    def dens_edges(x, dlo, dhi):
        ylo = k * dlo
        return k * nu_edges(ylo - 1.0, ylo, k * dhi)

    return SpectralMeasure((xm, xp), dens_edges, (), f"mu[{p.lam},{p.theta}]")


def nu_lambda(lam):
    """nu_{lam,theta} at theta = 1/2, the symmetric image of the theta = 1/2
    law on [-1, 1]: (2-lam)/pi * sqrt(1-x^2) / (1 - lam(2-lam) x^2)."""
    return nu_lambda_theta(JacobiParams(lam, 0.5))


def nu_lambda_theta(p):
    """General-theta symmetric image measure on [-1, 1]: the image of
    mu_{lam,theta} under x -> (2x - s)/d, (s, d^2) = nu_map(lam, theta),
    with density d^2 sqrt(1-x^2) / (2 pi lam theta (s + dx)(2 - s - dx)),
    one_step_law of the data of Q_lambda_theta."""
    if not isinstance(p, JacobiParams):
        p = JacobiParams(*p)
    return one_step_law(*_nu_theta_data(p.lam, p.theta),
                        f"nu[{p.lam},{p.theta}]")


def nu_map(lam, theta):
    """(s, d^2) of the affine map y = (2x - s)/d that takes mu_{lam,theta}
    to nu_{lam,theta}, generic over float and Fraction:

        s = 2 th + 2 lam th (1 - 2 th),
        d^2 = lam (4 th (1 - th)) (4 th (1 - lam th)).

    In this operation order the floats at theta = 1/2 are exactly 1.0 and
    lam * (2.0 - lam): the theta = 1/2 map (2x - 1)/sqrt(lam(2-lam)).
    """
    return (2 * theta + 2 * lam * theta * (1 - 2 * theta),
            lam * (4 * theta * (1 - theta)) * (4 * theta * (1 - lam * theta)))


def xi_shift(lam, variant="sqrt"):
    """The sole nonzero recurrence shift a(lam) of the xi family.

    variant="sqrt" is (1-lam)/sqrt(lam(2-lam)), the value consistent with
    the displayed xi density (verified by recurrence extraction and by the
    drift negative control); variant="rational" is the alternative
    (1-lam)/(lam(2-lam)) kept as a negative control.  A Fraction lam gives
    the exact value, an element of Q(sqrt(lam(2-lam))).
    """
    JacobiParams(lam, 0.5)
    q = lam * (2 - lam)
    if variant == "sqrt":
        return (1 - lam) / exact_sqrt(q)
    if variant == "rational":
        return (1 - lam) / q
    raise ValueError(f"unknown variant {variant!r}")


def xi_lambda(lam):
    """Shifted arcsine-type measure: density sqrt(1-x^2)/(pi (a^2+1-x^2)) on
    (-1, 1) plus an atom of weight a/sqrt(a^2+1) at sqrt(a^2+1), a = a(lam),
    one_step_law of the data of P_lambda."""
    return one_step_law(*_xi_data(lam), f"xi[{lam}]")


# -- functionals -------------------------------------------------------------

def moments(m, n_max):
    """Moments m_0..m_{n_max} including atom contributions.

    Signals ConvergenceError if one node doubling still moves a moment by
    1e-10 max(1, max_k |m_k|) or more, and ValueError if a moment exceeds
    the float range.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    ks = np.arange(n_max + 1)

    def powers(x):
        return x[None, :] ** ks[:, None]

    ac = _integrate_ac(m, powers, tol=1e-10)
    with np.errstate(over="ignore"):
        for x, w in m.atoms:
            ac = ac + w * np.float64(x) ** ks
    ac = np.asarray(ac, dtype=float)
    # An atom far out (xi_lambda at lam = 1e-300 has one near 7e149)
    # carries its high powers beyond the float range.
    bad = np.flatnonzero(~np.isfinite(ac))
    if bad.size:
        raise ValueError(f"moment m_{bad[0]} of {m.label or 'the measure'} "
                         "exceeds the float range")
    return ac


def _off_support(m, z):
    """complex(z), after a ValueError if z lies on the a.c. interval of m or
    on an atom: the poles of the Cauchy kernel 1/(z - x), and at z = 1/r of
    the theta kernel 1/(1 - r x) of renorm."""
    z = complex(z)
    lo, hi = m.support
    if z.imag == 0.0 and lo <= z.real <= hi and hi > lo:
        raise ValueError(f"z = {z} lies on the a.c. support [{lo}, {hi}]")
    for x, _ in m.atoms:
        if z == complex(x):
            raise ValueError(f"z = {z} coincides with an atom")
    return z


def cauchy_transform(m, z):
    """G(z) = int (z - x)^{-1} dm(x) for z off the support.

    Works close to the support as long as node doubling (settling to 1e-12)
    resolves the kernel peak, and signals ConvergenceError once the node
    budget cannot (inside the support at a distance of about 1e-9, say).
    Rejects z exactly on the a.c. interval or on an atom.
    """
    z = _off_support(m, z)

    def kern(x):
        return 1.0 / (z - x)

    val = complex(_integrate_ac(m, kern, tol=1e-12))
    for x, w in m.atoms:
        val += w / (z - x)
    return val


def cauchy_closed_form_mu(p, z):
    """Closed form of the Cauchy transform of mu_lambda_theta:

        G(z) = [(2 - 1/(lam th)) z + 1/lam - 1 + sqrt(A z^2 - B z + C)]
               / (2 z (z - 1))

    with A = 1/(lam th)^2, B = 2((1/(lam th))(1 + 1/lam) - 2/lam),
    C = (1 - 1/lam)^2.  The radicand factors as A (z - x_+)(z - x_-); taking
    principal square roots per factor puts the branch cut exactly on
    [x_-, x_+] and gives G(z) ~ 1/z at infinity.
    """
    if not isinstance(p, JacobiParams):
        p = JacobiParams(*p)
    z = complex(z)
    if z.imag == 0.0 and 0.0 <= z.real <= 1.0:
        raise ValueError(f"z = {z} lies in [0, 1]")
    lam, th = p.lam, p.theta
    w = np.sqrt(z - p.x_plus) * np.sqrt(z - p.x_minus) / (lam * th)
    num = (2.0 - 1.0 / (lam * th)) * z + 1.0 / lam - 1.0 + w
    return complex(num / (2.0 * z * (z - 1.0)))


def stieltjes_invert(m, x):
    """Density at x recovered as lim_{y->0+} -Im G(x+iy)/pi.

    The limit is taken by Neville extrapolation in y (the boundary value is
    reached linearly in y, so each extrapolation level gains one order).  The
    expansion coefficients grow like inverse powers of the distance from x to
    the nearest support edge or atom, so the steps y scale with that
    distance: dist * (0.12, 0.08, 0.05, 0.03, 0.02).  The ratios balance two
    error sources: smaller y sharpens the Cauchy-kernel peak and forces the
    quadrature into very high node counts, while larger y grows the
    extrapolation remainder ~ prod(y_i/dist), here ~3e-7 relative.  Signals
    ConvergenceError when the last two table corners disagree by more than
    1e-5 * max(1, value).
    """
    tol = 1e-5
    lo, hi = m.support
    if not lo < x < hi:
        raise ValueError(f"x = {x} is not strictly inside ({lo}, {hi})")
    dist = min([x - lo, hi - x] + [abs(x - a) for a, _ in m.atoms])
    ys = [float(dist * r) for r in (0.12, 0.08, 0.05, 0.03, 0.02)]
    # Within a few subnormals of an edge the steps round together or to 0.
    if any(b >= a for a, b in zip(ys, ys[1:])) or ys[-1] <= 0:
        raise ValueError(f"x = {x} lies too close to an edge or atom for "
                         "strictly decreasing positive steps y")
    vals = [-cauchy_transform(m, complex(x, y)).imag / np.pi for y in ys]
    corner_prev = vals[0]
    for j in range(1, len(ys)):
        for i in range(len(ys) - j):
            vals[i] = (ys[i + j] * vals[i] - ys[i] * vals[i + 1]) / (ys[i + j] - ys[i])
        if j == len(ys) - 1:
            resid = abs(vals[0] - corner_prev)
            if resid > tol * max(1.0, abs(vals[0])):
                raise ConvergenceError(
                    f"Stieltjes extrapolation residual {resid:.3e} exceeds {tol}")
        else:
            corner_prev = vals[0]
    return float(vals[0])


def pushforward_affine(m, scale, shift):
    """Image of m under x -> scale*x + shift."""
    if scale == 0.0:
        raise ValueError("scale must be nonzero")
    lo, hi = m.support
    a, b = lo * scale + shift, hi * scale + shift
    new_lo, new_hi = (a, b) if scale > 0 else (b, a)
    inv = 1.0 / scale
    absinv = abs(inv)

    # Edge distances scale by 1/|scale| and swap ends when scale < 0.
    def dens_edges(y, dlo, dhi):
        if scale < 0:
            dlo, dhi = dhi, dlo
        return m.density_edges((y - shift) * inv, dlo * absinv, dhi * absinv) * absinv

    atoms = tuple((x * scale + shift, w) for x, w in m.atoms)
    return SpectralMeasure((new_lo, new_hi), dens_edges, atoms,
                           f"{m.label}->affine({scale},{shift})" if m.label else "")


# Node count of cdf_grid: one level of the quadrature's node doubling, so
# the grid shares the nodes a measure already keeps.
_CDF_NODES = 4096


def cdf_grid(m):
    """Monotone grid (xs, Fs) of the distribution function, for interpolation.

    The a.c. part is accumulated over the tanh-sinh nodes and weights of the
    quadrature: at each node, the cumulative weight minus half the node's
    own weight.  The grid starts at the lower edge with F = 0 and ends at
    the upper edge with the a.c. mass; atoms contribute jumps.  The nodes
    crowd double-exponentially towards the edges, so inverse-square-root
    edges are resolved: for the arcsine law the interpolated grid is within
    2e-7 of the closed form, up to 1e-9 from either edge.
    """
    lo, hi = m.support
    if hi > lo:
        x, w = _ac_nodes(m, _CDF_NODES)
        cum = np.cumsum(w)
        # The outermost nodes round to within an ulp of an edge, either side.
        xs = np.concatenate([[lo], np.clip(x, lo, hi), [hi]])
        Fs = np.concatenate([[0.0], cum - 0.5 * w, cum[-1:]])
    else:
        xs = np.asarray([lo])
        Fs = np.asarray([0.0])
    for x, w in sorted(m.atoms):
        if x <= xs[-1]:
            Fs = Fs + w * (xs >= x - 1e-15)
        else:
            xs = np.concatenate([xs, [x - 1e-12, x]])
            Fs = np.concatenate([Fs, [Fs[-1], Fs[-1] + w]])
    return xs, Fs
