"""Random-matrix Monte Carlo for the compressed unitary process.

A state carries a Haar unitary U and nested coordinate projections P <= Q
(ranks p <= q).  A path runs a unitary Brownian motion Y_t from Y_0 = I, so
the compressed matrix J_t = P U Y_t Q Y_t* U* P restricted to the range of P
is C C* with C = (U Y_t)[:p, :q].  Its spectrum is stationary in t; the
empirical tests compare pooled spectra against quadrature CDFs and probe
whether exponentially-rescaled polynomial trace statistics stay flat in time.

Only the first p rows of U Y_t are ever read, so a path evolves the p x d
row block W = U[:p] Y_t, never the d x d unitary.  Each Brownian increment
replaces exp(i sqrt(dt) H) by its degree-3 Taylor polynomial T_3 and
orthonormalises the rows of W T_3 by one QR, a Stiefel retraction (Absil,
Mahony & Sepulchre 2008): three p x d by d x d products and a d x p QR.
H's law is unitarily invariant and the step multiplies W by a function of
H, so W stays uniform on the orthonormal p-frames and J_t has the law of
J_0 at every fixed t, as with the exponential; only the correlation
between times moves, by O(dt^2) per step.

A path runs on the calling thread: each step draws one increment, bounds
its norm and applies it, so the generator is read in the path's own order
and a path starts no thread.

Every sampler takes either an integer seed or a numpy Generator, so trials
can chain sampling and evolution on one stream; trial i of a sweep uses
default_rng([seed, i]) to decorrelate paths while staying reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import FAMILIES, JacobiParams, _family_data, nu_map
from .polys import family_values

__all__ = [
    "MatrixProcessState", "sample_haar_unitary", "evolve_unitary_bm",
    "make_state", "jacobi_spectrum", "ks_distance", "simulate_trials",
    "drift_sigmas",
]


def sample_haar_unitary(d, seed=None):
    """Haar-distributed d x d unitary: complex Ginibre, QR, then the column
    phase correction that fixes R's diagonal positive -- the normalization
    that makes the QR factor exactly Haar rather than merely unitary."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return _phase_fixed_qr(a / math.sqrt(2.0))


def _phase_fixed_qr(a):
    """The Q of a = QR with R's diagonal phases moved into Q, so that R's
    diagonal is positive: the QR factor made unique."""
    q, r = np.linalg.qr(a)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


# A sub-step keeps ||X||_2 <= tau ||H||_1 <= 4.  On the spectrum of a
# skew-Hermitian X, |T_3(i y)|^2 = 1 - y^4/12 + y^6/36 lies in [8/9, 94], so
# W T_3(X) keeps full rank and its QR is conditioned to about 10.
_MAX_SUBSTEP_NORM = 4.0


def evolve_unitary_bm(y, dt, steps, seed=None):
    """Apply `steps` multiplicative increments W <- W exp(i sqrt(dt) H) with
    independent Hermitian Gaussian H normalized so E[H^2] = I (off-diagonal
    entries of variance 1/d).

    `y` is any k x d block with orthonormal rows: the full d x d unitary Y,
    or the observed rows W = U[:p] Y, whose evolution is the same rows of
    the evolved unitary.  H is drawn from the same Gaussian matrices, in the
    same order, as an eigendecomposition route would use, so the random
    stream of a seed does not depend on k.

    A step is split into s sub-steps X = i tau H / s, tau = sqrt(dt), with
    tau ||H||_1 / s <= 4.  Each sub-step forms M = W T_3(X), T_3(X) = I + X
    + X^2/2 + X^3/6, and returns the Q of M = L Q, L lower triangular with
    a positive diagonal: the rows of M orthonormalised in order, so the
    first p rows of an evolved d x d block are the evolved first p rows.
    At dt = 1e-2 and d = 200 the rows stay within about 2e-5 of the
    exponential's over 40 steps and the law of each J_t is exact (see the
    module docstring).

    The e^{-t/2} decay of the normalized trace is not inserted by hand: it
    emerges from the second-order term X^2/2, the discrete analog of the
    Ito correction.
    """
    # The comparisons are false for NaN as well.
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if steps < 0:
        raise ValueError(f"steps = {steps} must be >= 0")
    w = np.array(y, dtype=complex)
    # A NaN entry would fail deep in the QR; more rows than columns cannot
    # be orthonormal.
    if w.ndim != 2 or w.shape[0] > w.shape[1] or not np.isfinite(w).all():
        raise ValueError("y must be a finite k x d block, k <= d")
    d = w.shape[1]
    rng = np.random.default_rng(seed)
    # One scratch for the normals and one for the increment, for the path.
    g = np.empty((2, d, d))
    x = np.empty((d, d), dtype=complex)
    for _ in range(steps):
        for _ in range(_draw_increments(rng, dt, g, x)):
            w = _retract(w, x)
    return w


def _draw_increments(rng, dt, g, x):
    """Fills the (d, d) `x` with the next increment x = i tau H / s of a
    path drawn from `rng`, through the (2, d, d) normal scratch `g`, and
    returns its sub-step count s."""
    # The same stream as rng.standard_normal((2, d, d)).
    rng.standard_normal(out=g)
    # x = i tau H for H = (A + A*) / sqrt(4 d), A = G_re + i G_im: its real
    # part is the antisymmetric G_im^T - G_im, its imaginary part the
    # symmetric G_re + G_re^T, both times tau / sqrt(4 d).
    g_re, g_im = g
    np.subtract(g_im.T, g_im, out=x.real)
    np.add(g_re, g_re.T, out=x.imag)
    x *= math.sqrt(dt) / math.sqrt(4.0 * x.shape[0])
    rho = float(np.abs(x).sum(axis=0).max())   # tau ||H||_1
    substeps = max(1, math.ceil(rho / _MAX_SUBSTEP_NORM))
    if substeps > 1:
        x /= substeps
    return substeps


def _retract(w, x):
    """The rows of W T_3(X) orthonormalised, as a C-contiguous block (see
    evolve_unitary_bm): T_3 by Horner, then the phase-fixed QR of its
    transpose, as sample_haar_unitary takes."""
    m = w @ x
    m *= 1.0 / 3.0
    m += w
    m = m @ x
    m *= 0.5
    m += w
    m = m @ x
    m += w
    return np.ascontiguousarray(_phase_fixed_qr(m.T).T)


@dataclass(frozen=True, eq=False)
class MatrixProcessState:
    """One realization at time zero: dimension, projection ranks p <= q,
    Haar unitary U, and the seed that produced them.  Paths from it evolve
    the row block U[:p] (see evolve_unitary_bm)."""

    d: int
    p_rank: int
    q_rank: int
    U: np.ndarray
    rng_seed: object = None

    def __post_init__(self):
        _check_ranks(self.p_rank, self.q_rank, self.d)
        u = self.U
        if np.max(np.abs(u.conj().T @ u - np.eye(self.d))) > 1e-10:
            raise ValueError("U is not unitary to 1e-10")

    def realized_params(self):
        """(lam, theta) actually carried by the integer ranks: p/q, q/d."""
        return self.p_rank / self.q_rank, self.q_rank / self.d


def make_state(lam, theta, d, seed=None):
    """Fresh state at time zero: U Haar, ranks p = round(lam theta d)
    and q = round(theta d).  Rounding shifts the parameters by O(1/d), so
    oracle measures should be built from realized_params(), not (lam, theta).
    d and the ranks are checked before U is sampled.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    p = int(round(lam * theta * d))
    q = int(round(theta * d))
    _check_ranks(p, q, d)
    u = sample_haar_unitary(d, seed)
    return MatrixProcessState(d, p, q, u, seed)


def _check_ranks(p, q, d):
    if not 1 <= p <= q <= d:
        raise ValueError(f"need 1 <= p = {p} <= q = {q} <= d = {d}")


def jacobi_spectrum(state, w=None):
    """Ascending eigenvalues of the p x p Hermitian compression C C*,
    C = W[:, :q], where W is the observed row block U[:p] of the state at
    time zero or, when given, a block `w` evolved from it by
    evolve_unitary_bm.  A given block must be p x d with rows orthonormal to
    1e-10, the guarantee the state checks for U; so every eigenvalue lies in
    [0, 1] up to roundoff, C being a submatrix of a unitary."""
    p, q = state.p_rank, state.q_rank
    if w is None:
        c = state.U[:p, :q]
    else:
        if w.shape != (p, state.d):
            raise ValueError(f"row block must be {p} x {state.d}")
        if np.max(np.abs(w @ w.conj().T - np.eye(p))) > 1e-10:
            raise ValueError("row block is not orthonormal to 1e-10 "
                             f"(seed {state.rng_seed!r})")
        c = w[:, :q]
    j = c @ c.conj().T
    try:
        return np.linalg.eigvalsh(j)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed (seed {state.rng_seed!r})") from exc


def ks_distance(sample, xs, cdf):
    """Kolmogorov-Smirnov distance sup |F_emp - F| against a reference CDF
    tabulated on the grid (xs, cdf), linearly interpolated and continued by
    0 / 1 outside the grid."""
    s = np.sort(np.asarray(sample, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.interp(s, xs, cdf, left=0.0, right=1.0)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


def simulate_trials(lam, theta, d, trials, t=None, times=(), n=2, seed=0,
                    dt=1e-2, family="P_lambda", variant=None):
    """Both Monte Carlo outputs of a `simulate` run from one path per trial.

    Returns (spectra, series, state): the spectrum of each trial at time t
    (rounded to whole steps of dt; None when t is None), the trace series,
    and the last trial's state, whose ranks every trial shares (None when
    no trial had to be sampled).  Trial i draws its state and then its
    Brownian steps from default_rng([seed, i]), and the spectra at t and at
    every series time are read off that one path.  (lam, theta) must lie in
    the domain that JacobiParams states; make_state itself takes any
    (lam, theta) whose rounded ranks satisfy 1 <= p <= q <= d.

    The series is [(t, mean, stderr)] over the sorted `times` of the
    rescaled trace statistic

        e^{n t} * (1/p) * sum_i F_n((2 eig_i(J_t) - s) / d)

    over the trials, F_n the family in `variant` (one of the variants of
    its row in FAMILIES; None: its own), where (s, d^2) = nu_map(lam,
    theta') at the theta' that the family reads: theta for Q_lambda_theta,
    1/2 for the theta = 1/2 families P_lambda and Q_lambda, whose map is
    (2x - 1)/sqrt(lam(2-lam)) whatever theta is sampled.  A family whose
    rescaled traces form a martingale produces a mean series that is flat
    in t; the stderr column is the across-trial standard error, so flatness
    is judged against it.  A theta = 1/2 family sampled at theta != 1/2
    tests no martingale property.  Each path runs through the sorted times
    in steps of dt (counts rounded; the realized time is used in the e^{nt}
    prefactor).  n = 0 is the constant 1.
    """
    JacobiParams(lam, theta)
    if n < 0:
        raise ValueError("n must be >= 0")
    data = _family_data(family, lam, theta, variant)
    s, d2 = nu_map(lam, FAMILIES[family].reads(theta))
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # The comparisons are false for NaN as well.
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    if t is not None and not 0.0 <= t < math.inf:
        raise ValueError("t must be nonnegative and finite")
    ts = sorted(float(x) for x in times)
    if not all(0.0 <= x < math.inf for x in ts):
        raise ValueError("times must be nonnegative and finite")
    # Cumulative step count and realized time of each series time.
    counts, realized, k, t_now = [], [], 0, 0.0
    for x in ts:
        steps = int(round((x - t_now) / dt))
        if steps > 0:
            k += steps
            t_now += steps * dt
        counts.append(k)
        realized.append(t_now)
    if n == 0:
        counts = []
    k_t = None if t is None else int(round(t / dt))
    plan = sorted(set(counts) | ({k_t} if k_t is not None else set()))
    spectra = None if k_t is None else []
    per_trial = np.empty((trials, len(counts)))
    state = None
    for i in range(trials if plan else 0):      # no path when nothing is read
        rng = np.random.default_rng([seed, i])
        state = make_state(lam, theta, d, rng)
        w, k_now, seen = state.U[:state.p_rank], 0, {}
        for k in plan:
            if k > k_now:
                w = evolve_unitary_bm(w, dt, k - k_now, rng)
                k_now = k
            seen[k] = jacobi_spectrum(state, w)
        if spectra is not None:
            spectra.append(seen[k_t])
        for j, k in enumerate(counts):
            y = (2.0 * seen[k] - s) / math.sqrt(d2)
            (f_n,) = family_values(y, [n], *data)
            per_trial[i, j] = math.exp(n * realized[j]) * np.mean(f_n)
    if n == 0:
        return spectra, [(x, 1.0, 0.0) for x in ts], state
    means = per_trial.mean(axis=0)
    if trials > 1:
        err = per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        err = np.zeros(len(ts))
    series = [(x, float(mu), float(se)) for x, mu, se in zip(ts, means, err)]
    return spectra, series, state


def drift_sigmas(series):
    """Worst drift of a trace series [(t, mean, stderr), ...] from its first
    row, in combined standard errors: max over later rows of
    |mean(t) - mean(t_0)| / sqrt(stderr(t)^2 + stderr(t_0)^2), inf where
    both errors are 0 (a single trial), and 0.0 for fewer than two rows."""
    if len(series) < 2:
        return 0.0
    _, m0, e0 = series[0]
    worst = 0.0
    for _, mt, et in series[1:]:
        sig = math.sqrt(et * et + e0 * e0)
        worst = max(worst, abs(mt - m0) / sig if sig > 0 else math.inf)
    return worst
