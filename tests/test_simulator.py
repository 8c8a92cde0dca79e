"""Random-matrix Monte Carlo: samplers, spectra, trace statistics."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from freejacobi import (
    MatrixProcessState,
    cdf_grid,
    evolve_unitary_bm,
    jacobi_spectrum,
    ks_distance,
    make_state,
    mu_lambda_theta,
    sample_haar_unitary,
    simulate_trials,
)
from freejacobi.cli import main as cli_main
from freejacobi.exact import ONE, X, exact_sqrt
from freejacobi.martingale import stationary_moments
from freejacobi.measures import nu_map
from freejacobi.polys import family_values
from freejacobi.renorm import _family_data
from freejacobi.simulator import drift_sigmas
from helpers import trace_martingale_series


def _unitarity_defect(m):
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


# ---------------------------------------------------------------------------
# Samplers


def test_haar_unitary_is_unitary():
    u = sample_haar_unitary(50, seed=1)
    assert _unitarity_defect(u) < 1e-12


def test_haar_unitary_deterministic_by_seed():
    a = sample_haar_unitary(20, seed=42)
    b = sample_haar_unitary(20, seed=42)
    c = sample_haar_unitary(20, seed=43)
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3


def test_haar_unitary_rejects_bad_dim():
    with pytest.raises(ValueError):
        sample_haar_unitary(0)


def test_evolution_preserves_unitarity():
    y = np.eye(30, dtype=complex)
    y = evolve_unitary_bm(y, 1e-2, 25, seed=3)
    assert _unitarity_defect(y) < 1e-12
    assert np.max(np.abs(y - np.eye(30))) > 1e-3  # actually moved


def test_evolution_rejects_bad_dt():
    with pytest.raises(ValueError):
        evolve_unitary_bm(np.eye(4, dtype=complex), 0.0, 1)


@pytest.mark.parametrize("dt, steps, message", [
    (float("inf"), 1, "dt must be positive and finite"),
    (float("nan"), 1, "dt must be positive and finite"),
    (-1.0, 1, "dt must be positive and finite"),
    (1e-2, -1, "steps = -1 must be >= 0"),
], ids=["dt_inf", "dt_nan", "dt_negative", "steps_negative"])
def test_evolution_rejects_bad_step_before_drawing(dt, steps, message):
    # dt = inf used to end in an OverflowError and dt = nan in "cannot
    # convert float NaN to integer", and steps < 0 returned the block
    # unchanged.  The generator is left untouched.
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        evolve_unitary_bm(np.eye(4, dtype=complex), dt, steps, rng)
    assert rng.bit_generator.state == before
    y = np.eye(4, dtype=complex)
    assert evolve_unitary_bm(y, 1e-2, 0, rng).tobytes() == y.tobytes()


@pytest.mark.parametrize("p", [1, 10, 40])
@pytest.mark.parametrize("dt", [1e-2, 1.0, 100.0])
def test_evolution_matches_eigh_reference(p, dt, eigh_bm_reference):
    # dt = 100 takes many sub-steps per step; the row block must still be
    # the cubic step taken through the eigendecomposition of each H.
    w0 = sample_haar_unitary(40, seed=4)[:p]
    got = evolve_unitary_bm(w0, dt, 3, seed=8)
    want = eigh_bm_reference(w0, dt, 3, seed=8)
    assert got.shape == (p, 40)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got @ got.conj().T - np.eye(p))) <= 1e-12


@pytest.mark.parametrize("lam, theta", [(0.5, 0.5), (1.0, 0.5), (0.5, 0.3)])
@pytest.mark.parametrize("seed", range(5))
def test_evolution_stays_near_the_exponential(lam, theta, seed,
                                              exp_bm_reference):
    # The cubic step leaves the exact exponential's path by O(dt^2) per
    # step: over 40 steps at dt = 1e-2 and d = 64 the rows moved by at most
    # 3.2e-5 and the compression's eigenvalues by 2.0e-5 over these seeds.
    d, dt, steps = 64, 1e-2, 40
    state = make_state(lam, theta, d, seed)
    w0 = state.U[:state.p_rank]
    got = evolve_unitary_bm(w0, dt, steps, seed=[seed, 1])
    want = exp_bm_reference(w0, dt, steps, np.random.default_rng([seed, 1]))
    assert np.max(np.abs(got - want)) <= 1e-4
    assert np.max(np.abs(jacobi_spectrum(state, got)
                         - jacobi_spectrum(state, want))) <= 5e-5


@pytest.mark.parametrize("p", [3, 8])
def test_evolution_keeps_rows_orthonormal_over_long_paths(p):
    # Each step re-orthonormalises, so roundoff does not build up.
    w = evolve_unitary_bm(sample_haar_unitary(8, seed=6)[:p], 1e-2, 5000,
                          seed=7)
    assert np.max(np.abs(w @ w.conj().T - np.eye(p))) <= 1e-14


def test_evolution_rejects_more_rows_than_columns():
    # Such rows cannot be orthonormal, and their QR would return a d x d
    # block.
    with pytest.raises(ValueError, match="k <= d"):
        evolve_unitary_bm(np.ones((3, 2), dtype=complex), 1e-2, 1)


def test_evolution_rejects_non_finite_block():
    w = np.eye(4, dtype=complex)[:2]
    w[0, 1] = np.nan
    with pytest.raises(ValueError):
        evolve_unitary_bm(w, 1e-2, 1)


def test_evolution_trace_decay():
    # E tr Y_t / d = e^{-t/2}; with 40 paths at d = 60 the error is a few
    # percent.
    d, t = 60, 0.5
    vals = []
    for i in range(40):
        y = evolve_unitary_bm(np.eye(d, dtype=complex), 1e-2, 50, seed=i)
        vals.append(np.trace(y).real / d)
    assert np.mean(vals) == pytest.approx(np.exp(-t / 2.0), abs=0.05)


# The evolution equals the serial loop bit for bit, from d = 1 to d = 200
# and from one step to 41; dt = 100 takes many sub-steps per step.
_SERIAL_CASES = [(d, steps, p, dt)
                 for d in (1, 8, 24, 64, 200)
                 for steps in (1, 3, 41)
                 for p in sorted({1, d})
                 for dt in ((1e-2, 100.0) if d <= 24 else (1e-2,))]


@pytest.mark.parametrize("d, steps, p, dt", _SERIAL_CASES)
def test_evolution_equals_serial_loop(d, steps, p, dt, serial_bm_reference):
    w0 = sample_haar_unitary(d, seed=d)[:p]
    rng, rng_ref = np.random.default_rng([d, steps]), \
        np.random.default_rng([d, steps])
    got = evolve_unitary_bm(w0, dt, steps, rng)
    want = serial_bm_reference(w0, dt, steps, rng_ref)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("d, steps", [(200, 3), (64, 41), (8, 41)])
def test_evolution_joins_its_worker(d, steps):
    # No thread is left behind when the call returns.
    before = threading.active_count()
    w = sample_haar_unitary(d, seed=1)[:2]
    evolve_unitary_bm(w, 1e-2, steps, seed=3)
    assert threading.active_count() == before


def test_evolution_zero_steps_draws_nothing(monkeypatch):
    drawn = []
    monkeypatch.setattr("freejacobi.simulator._draw_increments",
                        lambda *args: drawn.append(args))
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    w = sample_haar_unitary(8, seed=1)[:3]
    assert evolve_unitary_bm(w, 1e-2, 0, rng).tobytes() == w.tobytes()
    assert rng.bit_generator.state == before and drawn == []


def test_evolution_starts_no_thread(monkeypatch):
    # A path and a whole run draw and apply every increment on the calling
    # thread.
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    w = evolve_unitary_bm(sample_haar_unitary(200, seed=1)[:100], 1e-2, 3,
                          seed=3)
    assert w.shape == (100, 200)
    spectra, series, _ = simulate_trials(0.5, 0.5, 24, 2, t=0.05,
                                         times=(0.0, 0.05), seed=4)
    assert len(spectra) == 2 and len(series) == 2


class _FailingDraws(np.random.Generator):
    """A generator whose draw number `fail_at` (from 0) raises."""

    def __init__(self, seed, fail_at):
        super().__init__(np.random.PCG64(seed))
        self.fail_at, self.draws = fail_at, 0

    def standard_normal(self, *args, **kwargs):
        if self.draws == self.fail_at:
            raise FloatingPointError(f"draw {self.draws} failed")
        self.draws += 1
        return super().standard_normal(*args, **kwargs)


@pytest.mark.parametrize("d, fail_at", [(200, 2), (8, 0), (64, 20)])
def test_evolution_reraises_a_drawing_error(d, fail_at):
    # d = 200: the error comes after two steps were applied; d = 8: in the
    # first draw; d = 64: in the 21st.
    before = threading.active_count()
    w = sample_haar_unitary(d, seed=1)[:2]
    with pytest.raises(FloatingPointError, match=f"draw {fail_at} failed"):
        evolve_unitary_bm(w, 1e-2, 41, _FailingDraws(3, fail_at))
    assert threading.active_count() == before


@pytest.mark.parametrize("d, fail_at", [(200, 1), (8, 0), (64, 20)])
def test_evolution_stops_drawing_on_an_applying_error(monkeypatch, d,
                                                      fail_at):
    # The error of an applied step ends the path, and no thread is left
    # behind.
    from freejacobi import simulator
    calls, retract = [], simulator._retract

    def failing(w, x):
        if len(calls) == fail_at:
            raise FloatingPointError(f"step {fail_at} failed")
        calls.append(x)
        return retract(w, x)

    monkeypatch.setattr(simulator, "_retract", failing)
    before = threading.active_count()
    w = sample_haar_unitary(d, seed=1)[:2]
    with pytest.raises(FloatingPointError, match=f"step {fail_at} failed"):
        evolve_unitary_bm(w, 1e-2, 41, seed=3)
    assert threading.active_count() == before


def test_evolution_from_concurrent_callers(serial_bm_reference):
    # More callers than CPUs under a short switch interval: every path
    # still equals its serial loop.
    w0 = sample_haar_unitary(64, seed=2)[:5]
    results = {}

    def call(i):
        results[i] = evolve_unitary_bm(w0, 1e-2, 20, seed=i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for i in range(4):
        np.testing.assert_array_equal(
            results[i], serial_bm_reference(w0, 1e-2, 20, i))


def test_drift_sigmas():
    # The worst |mean(t) - mean(0)| / sqrt(se(t)^2 + se(0)^2) over t > 0.
    series = [(0.0, 1.0, 0.1), (0.1, 1.3, 0.2), (0.2, 0.8, 0.1)]
    assert drift_sigmas(series) == pytest.approx(0.2 / math.sqrt(0.02))
    assert drift_sigmas(series[:1]) == 0.0
    assert drift_sigmas([(0.0, 1.0, 0.0), (0.1, 1.0, 0.0)]) == math.inf


def test_simulate_artifacts_byte_identical_at_d200(tmp_path, capsys,
                                                   monkeypatch):
    # At d = 200 the artifacts of one seed repeat byte for byte.
    # Each run writes under the same relative name, so the file names in
    # the manifests agree too.
    args = ("simulate", "--lambda", "0.5", "--d", "200", "--trials", "2",
            "--t", "0.05", "--times", "0,0.03,0.05", "--seed", "11",
            "--out", "run")
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli_main(list(args)) == 0
    capsys.readouterr()
    for suffix in ("_spectrum.csv", "_series.csv", "_manifest.json"):
        assert (tmp_path / "a" / f"run{suffix}").read_bytes() == \
            (tmp_path / "b" / f"run{suffix}").read_bytes()


# ---------------------------------------------------------------------------
# States and spectra


def test_make_state_ranks_and_realized_params():
    s = make_state(0.5, 0.4, 200, seed=0)
    assert s.p_rank == 40 and s.q_rank == 80
    lam_r, th_r = s.realized_params()
    assert lam_r == pytest.approx(0.5)
    assert th_r == pytest.approx(0.4)


def test_state_validation():
    u = sample_haar_unitary(6, seed=0)
    with pytest.raises(ValueError):
        MatrixProcessState(6, 4, 3, u)  # p > q
    with pytest.raises(ValueError):
        MatrixProcessState(6, 0, 3, u)
    with pytest.raises(ValueError):
        MatrixProcessState(6, 2, 3, 2.0 * u)  # not unitary


def test_spectrum_shape_and_range():
    s = make_state(0.6, 0.4, 120, seed=5)
    vals = jacobi_spectrum(s)
    assert vals.shape == (s.p_rank,)
    assert np.all(vals >= -1e-10) and np.all(vals <= 1.0 + 1e-10)
    assert np.all(np.diff(vals) >= 0.0)


def test_spectrum_of_evolved_block_checks_rows():
    s = make_state(0.5, 0.5, 16, seed=3)
    w = evolve_unitary_bm(s.U[:s.p_rank], 1e-2, 5, seed=3)
    full = evolve_unitary_bm(s.U, 1e-2, 5, seed=3)
    np.testing.assert_allclose(
        jacobi_spectrum(s, w),
        np.linalg.eigvalsh(full[:4, :8] @ full[:4, :8].conj().T), atol=1e-13)
    with pytest.raises(ValueError):
        jacobi_spectrum(s, 1.001 * w)    # rows no longer orthonormal
    with pytest.raises(ValueError):
        jacobi_spectrum(s, full)         # d x d, not the p observed rows


def test_spectrum_degenerate_full_projection():
    # theta = 1, lam = 1: C is all of UY, so CC* = I and the spectrum is
    # identically one.
    s = make_state(1.0, 1.0, 40, seed=2)
    np.testing.assert_allclose(jacobi_spectrum(s), 1.0, atol=1e-12)


def test_spectrum_matches_quadrature_cdf():
    # Pooled stationary spectra against the quadrature CDF at t = 0.
    lam, th, d = 1.0, 0.5, 200
    sample = np.concatenate([
        jacobi_spectrum(make_state(lam, th, d, seed=i)) for i in range(20)])
    s0 = make_state(lam, th, d, seed=0)
    xs, cdf = cdf_grid(mu_lambda_theta(s0.realized_params()))
    assert ks_distance(sample, xs, cdf) < 0.05


# ---------------------------------------------------------------------------
# KS distance


def test_ks_distance_known_values():
    xs = np.linspace(0.0, 1.0, 101)
    cdf = xs.copy()
    # A single observation at 0.5 against the uniform law: sup gap is 1/2.
    assert ks_distance([0.5], xs, cdf) == pytest.approx(0.5)
    # A fine uniform grid sample has vanishing distance.
    sample = np.linspace(0.0005, 0.9995, 1000)
    assert ks_distance(sample, xs, cdf) < 2e-3


def test_ks_distance_rejects_empty():
    with pytest.raises(ValueError):
        ks_distance([], [0.0, 1.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# Trace series


def test_trace_series_constant_family():
    got = trace_martingale_series(0.5, 0, [0.0, 0.1], trials=3, d=20, seed=1)
    assert got == [(0.0, 1.0, 0.0), (0.1, 1.0, 0.0)]


def test_trace_series_deterministic_and_shaped():
    a = trace_martingale_series(0.5, 2, [0.0, 0.1], trials=4, d=24, seed=7)
    b = trace_martingale_series(0.5, 2, [0.0, 0.1], trials=4, d=24, seed=7)
    assert a == b
    assert len(a) == 2
    ts = [row[0] for row in a]
    assert ts == [0.0, 0.1]
    assert all(err >= 0.0 for _, _, err in a)


def test_trace_series_matches_eigh_reference(eigh_bm_reference):
    # The series evolves U[:p] Y; the reference evolves all d rows of U Y
    # by eigendecomposition on the same stream and compresses (U Y)[:p, :q].
    # The rows are orthonormalised in order, so the first p of them are the
    # series' block; the rows of Y alone would not be, as the
    # orthonormalisation does not commute with U.
    lam, n, d, times, dt = 0.5, 2, 24, [0.0, 0.1, 0.25], 1e-2
    got = trace_martingale_series(lam, n, times, trials=3, d=d, seed=5)
    data = _family_data("P_lambda", lam)
    per_trial = []
    for i in range(3):
        rng = np.random.default_rng([5, i])
        s = make_state(lam, 0.5, d, rng)
        y, t_now, row = s.U, 0.0, []
        for t in times:
            steps = int(round((t - t_now) / dt))
            y = eigh_bm_reference(y, dt, steps, rng)
            t_now += steps * dt
            c = y[:s.p_rank, :s.q_rank]
            x = (2.0 * np.linalg.eigvalsh(c @ c.conj().T) - 1.0) \
                / np.sqrt(lam * (2.0 - lam))
            (f_n,) = family_values(x, [n], *data, np.ones_like(x))
            row.append(np.exp(n * t_now) * np.mean(f_n))
        per_trial.append(row)
    per_trial = np.array(per_trial)
    want_mean = per_trial.mean(axis=0)
    want_err = per_trial.std(axis=0, ddof=1) / np.sqrt(3)
    assert [t for t, _, _ in got] == times
    assert np.max(np.abs([m for _, m, _ in got] - want_mean)) <= 1e-12
    assert np.max(np.abs([e for _, _, e in got] - want_err)) <= 1e-12


def test_trace_series_single_trial_has_zero_stderr():
    ((_, _, err),) = trace_martingale_series(0.5, 1, [0.0], trials=1, d=20,
                                             seed=0)
    assert err == 0.0


def test_trace_series_orthogonal_family_centers_at_zero():
    # At t = 0 the degree-2 statistic of the orthogonal family averages the
    # integral of an orthogonal polynomial: zero up to O(1/d) bias and
    # sampling noise.
    rows = trace_martingale_series(0.5, 2, [0.0], trials=60, d=60, seed=11,
                                   family="Q_lambda")
    ((_, mean, err),) = rows
    assert abs(mean) < max(5.0 * err, 0.05)


def test_general_theta_trace_series():
    # At lam = 0.5, theta = 0.4 (d = 40 realizes both exactly: p = 8,
    # q = 16) the series rescales by (2x - s)/d of that theta.  Every J_t has
    # the stationary law, so the mean of the statistic is e^{nt} E_mu[F_n]
    # up to finite-d corrections: 0 for the mean shift, whose traces form a
    # martingale, and -4 b^2 e^{nt} for the doubled shift.
    lam, th, n, times = 0.5, 0.4, 2, (0.0, 0.2, 0.4)
    lamF, thF = Fraction(lam), Fraction(th)
    s, d2 = nu_map(lamF, thF)
    inner = (2 * X - s) * (1 / exact_sqrt(d2))
    m = stationary_moments(lamF, thF, n)
    for b_variant in ("mean", "twice"):
        data = _family_data("Q_lambda_theta", lamF, thF, b_variant=b_variant)
        (q,) = family_values(inner, [n], *data, ONE)
        e_mu = float(sum(c * mk for c, mk in zip(q.coef, m)))
        _, series, state = simulate_trials(lam, th, 40, 48, times=times,
                                           n=n, family="Q_lambda_theta",
                                           b_variant=b_variant)
        assert state.realized_params() == (lam, th)
        (_, m0, e0) = series[0]
        if b_variant == "mean":
            assert e_mu == 0.0
            for _, mt, et in series[1:]:
                assert abs(mt - m0) <= 3.0 * math.hypot(et, e0), series
        else:
            b = math.sqrt(lam / ((1 - th) * (1 - lam * th))) * (th - 0.5)
            assert e_mu == pytest.approx(-4.0 * b * b, rel=1e-12)
            for t, mt, et in series:
                assert abs(mt - math.exp(n * t) * e_mu) <= 4.0 * et, series


def test_trace_series_input_checks():
    with pytest.raises(ValueError):
        trace_martingale_series(0.5, -1, [0.0], trials=2, d=16)
    with pytest.raises(ValueError):
        trace_martingale_series(0.5, 2, [0.0], trials=0, d=16)
    with pytest.raises(ValueError):
        trace_martingale_series(0.5, 2, [-0.5], trials=2, d=16)
    with pytest.raises(ValueError):
        trace_martingale_series(0.5, 2, [0.0], trials=2, d=16,
                                family="R_lambda")
    with pytest.raises(ValueError):
        trace_martingale_series(0.5, 2, [0.0], trials=2, d=16,
                                a_variant="bogus")


def test_simulate_trials_reads_both_outputs_off_one_path():
    # The spectra at t do not depend on the series times read off the same
    # path (steps are taken in other chunks, on the same stream), and the
    # series is the one trace_martingale_series returns.
    args = (0.7, 0.5, 24, 3)
    spectra, series, state = simulate_trials(
        *args, t=0.15, times=(0.3, 0.0, 0.1, 0.1), seed=6)
    alone, no_series, _ = simulate_trials(*args, t=0.15, seed=6)
    assert len(spectra) == 3 and no_series == []
    assert all(a.tobytes() == b.tobytes() for a, b in zip(spectra, alone))
    assert series == trace_martingale_series(
        0.7, 2, (0.3, 0.0, 0.1, 0.1), trials=3, d=24, seed=6)
    assert (state.p_rank, state.q_rank) == (8, 12)


def test_trace_series_rejects_theta_before_sampling(monkeypatch):
    # (lam, theta) is checked against the domain before any state is drawn;
    # make_state itself samples any ranks (theta = 1 above).
    calls = []
    monkeypatch.setattr("freejacobi.simulator.make_state",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=r"theta = 0\.9 outside"):
        trace_martingale_series(0.5, 2, [0.0, 0.1], trials=2, d=16,
                                theta=0.9)
    assert calls == []


@pytest.mark.parametrize("kwargs, message", [
    ({"t": float("inf")}, "t must be nonnegative and finite"),
    ({"t": float("nan")}, "t must be nonnegative and finite"),
    ({"times": (0.0, float("inf"))}, "times must be nonnegative and finite"),
    ({"dt": float("inf")}, "dt must be positive and finite"),
], ids=["t_inf", "t_nan", "times_inf", "dt_inf"])
def test_simulate_trials_rejects_non_finite_before_sampling(monkeypatch,
                                                            kwargs, message):
    # An infinite t or time used to end in an OverflowError from the step
    # count, a NaN t in a ValueError that named no input, and dt = inf
    # sampled every trial without ever evolving a path.
    calls = []
    monkeypatch.setattr("freejacobi.simulator.make_state",
                        lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match=message):
        simulate_trials(0.5, 0.5, 16, 2, **kwargs)
    assert calls == []


def test_simulate_trials_input_checks():
    with pytest.raises(ValueError):
        simulate_trials(0.5, 0.5, 16, 2, t=0.1, dt=0.0)
    with pytest.raises(ValueError):
        simulate_trials(0.5, 0.5, 16, 0, t=0.1)
