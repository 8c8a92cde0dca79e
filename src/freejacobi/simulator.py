"""Random-matrix Monte Carlo for the compressed unitary process.

A state carries a Haar unitary U, an evolving unitary Y, and nested
coordinate projections P <= Q (ranks p <= q), so the compressed matrix
J = P U Y Q Y* U* P restricted to the range of P is C C* with
C = (U Y)[:p, :q].  Its spectrum is stationary in t; the empirical tests
compare pooled spectra against quadrature CDFs and probe whether
exponentially-rescaled polynomial trace statistics stay flat in time.

Every sampler takes either an integer seed or a numpy Generator, so trials
can chain sampling and evolution on one stream; trial i of a sweep uses
default_rng([seed, i]) to decorrelate paths while staying reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .renorm import family_values, u_combination

__all__ = [
    "MatrixProcessState", "sample_haar_unitary", "evolve_unitary_bm",
    "make_state", "jacobi_spectrum", "ks_distance", "trace_martingale_series",
]


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_haar_unitary(d, seed=None):
    """Haar-distributed d x d unitary: complex Ginibre, QR, then the column
    phase correction that fixes R's diagonal positive -- the normalization
    that makes the QR factor exactly Haar rather than merely unitary."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = _rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a / math.sqrt(2.0))
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def evolve_unitary_bm(y, dt, steps, seed=None):
    """Apply `steps` multiplicative increments Y <- Y exp(i sqrt(dt) H) with
    independent Hermitian Gaussian H normalized so E[H^2] = I (off-diagonal
    entries of variance 1/d).

    The exponential map keeps Y exactly unitary, and the e^{-t/2} decay of
    the normalized trace is not inserted by hand: it emerges from the
    second-order term of the exponential, which is the discrete analog of
    the Ito correction.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = np.array(y, dtype=complex)
    d = y.shape[0]
    rng = _rng(seed)
    root_dt = math.sqrt(dt)
    for _ in range(steps):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / math.sqrt(4.0 * d)
        w, v = np.linalg.eigh(h)
        y = y @ (v * np.exp(1j * root_dt * w)) @ v.conj().T
    return y


@dataclass(frozen=True, eq=False)
class MatrixProcessState:
    """One realization: dimension, projection ranks p <= q, Haar unitary U,
    current unitary Y, and the seed that produced them."""

    d: int
    p_rank: int
    q_rank: int
    U: np.ndarray
    Y: np.ndarray
    rng_seed: object = None

    def __post_init__(self):
        if not 1 <= self.p_rank <= self.q_rank <= self.d:
            raise ValueError(
                f"need 1 <= p = {self.p_rank} <= q = {self.q_rank} "
                f"<= d = {self.d}")
        eye = np.eye(self.d)
        for name, m in (("U", self.U), ("Y", self.Y)):
            if np.max(np.abs(m.conj().T @ m - eye)) > 1e-10:
                raise ValueError(f"{name} is not unitary to 1e-10")

    def realized_params(self):
        """(lam, theta) actually carried by the integer ranks: p/q, q/d."""
        return self.p_rank / self.q_rank, self.q_rank / self.d


def make_state(lam, theta, d, seed=None):
    """Fresh state at time zero: U Haar, Y = I, ranks p = round(lam theta d)
    and q = round(theta d).  Rounding shifts the parameters by O(1/d), so
    oracle measures should be built from realized_params(), not (lam, theta).
    """
    p = int(round(lam * theta * d))
    q = int(round(theta * d))
    u = sample_haar_unitary(d, seed)
    return MatrixProcessState(d, p, q, u, np.eye(d, dtype=complex), seed)


def jacobi_spectrum(state):
    """Ascending eigenvalues of the p x p Hermitian compression C C*,
    C = (U Y)[:p, :q]; all lie in [0, 1] up to roundoff because C is a
    submatrix of a unitary."""
    c = (state.U @ state.Y)[: state.p_rank, : state.q_rank]
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


def trace_martingale_series(lam, n, times, trials, d, seed=0, theta=0.5,
                            dt=1e-2, family="P_lambda", a_variant="sqrt"):
    """Monte Carlo series [(t, mean, stderr)] of the rescaled trace statistic

        e^{n t} * (1/p) * sum_i F_n((2 eig_i(J_t) - 1) / sqrt(lam(2-lam)))

    over independent paths.  A family whose rescaled traces form a
    martingale produces a mean series that is flat in t; the stderr column
    is the across-trial standard error, so flatness is judged against it.

    Trial i runs on default_rng([seed, i]) and evolves one Y path through
    the sorted times with steps of size dt (counts rounded; the realized
    time is used in the e^{nt} prefactor).  n = 0 is the constant 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    beta, gamma = u_combination(family, lam, a_variant=a_variant)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ts = sorted(float(t) for t in times)
    if ts and ts[0] < 0.0:
        raise ValueError("times must be nonnegative")
    if n == 0:
        return [(t, 1.0, 0.0) for t in ts]
    q = lam * (2.0 - lam)
    per_trial = np.empty((trials, len(ts)))
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        state = make_state(lam, theta, d, rng)
        y, t_now = state.Y, 0.0
        for j, t in enumerate(ts):
            steps = int(round((t - t_now) / dt))
            if steps > 0:
                y = evolve_unitary_bm(y, dt, steps, rng)
                t_now += steps * dt
            vals = jacobi_spectrum(replace(state, Y=y))
            s = (2.0 * vals - 1.0) / math.sqrt(q)
            (f_n,) = family_values(s, [n], beta, gamma, np.ones_like(s))
            stat = np.mean(f_n)
            per_trial[i, j] = math.exp(n * t_now) * stat
    means = per_trial.mean(axis=0)
    if trials > 1:
        err = per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        err = np.zeros(len(ts))
    return [(t, float(mu), float(se)) for t, mu, se in zip(ts, means, err)]
