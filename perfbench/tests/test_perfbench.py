"""Tests of the benchmark itself; run from the repository root with

    python -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stdout + p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == ["cli_cold", "monte_carlo"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    result = _bench(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("make", [
    workloads.verify_sweep_ops,
    lambda seed: workloads.cli_cold_ops(seed, "out"),
    lambda seed: workloads.monte_carlo_ops(seed, "out"),
])
def test_seed_fixes_the_inputs(make):
    def argvs(seed):
        return [[c["argv"] for c in op] for op in itertools.islice(make(seed), 40)]

    assert argvs(7) == argvs(7)
    assert argvs(7) != argvs(8)


@pytest.mark.parametrize("make", [
    workloads.verify_sweep_ops,
    lambda seed: workloads.cli_cold_ops(seed, "out"),
])
def test_every_seed_gets_the_same_mix(make):
    def mix(seed):
        ops = itertools.islice(make(seed), 10 * 15 * 12)
        return Counter(tuple(a for a in c["argv"] if not a[0].isdigit())
                       for op in ops for c in op)

    assert mix(7) == mix(8)


def test_cold_tail_lands_on_fock():
    ops = list(itertools.islice(workloads.cli_cold_ops(7, "out"), 50))
    assert sum(op[0]["kind"] == "fock" for op in ops) >= 15


def test_inputs_stay_in_the_shared_domain():
    for lam, theta in workloads.POINTS:
        assert 0.0 < lam <= 1.0
        assert 0.0 < theta <= 0.5 and theta <= 1.0 / (lam + 1.0)
    assert (1.0, 0.5) in workloads.POINTS


def test_wrong_expected_verdict_raises_error_rate(tmp_path):
    bench = run.Bench(ROOT, "verify_sweep", 5, smoke=True)
    bench.tmp = tmp_path
    bench.setup_in_process()
    ops = itertools.islice(workloads.verify_sweep_ops(5), 2)
    records = [bench.execute(op, None, k) for k, op in enumerate(ops)]

    def wrong(kind, lam, theta):
        expected = workloads.expected_exit(kind, lam, theta)
        return 1 - expected if kind == "flows_ode" else expected

    for expect, failed in ((workloads.expected_exit, 0), (wrong, 2)):
        for rec in records:
            rec["error"] = None
        bench.check(records, expect)
        n_failed = sum(r["error"] is not None for r in records)
        assert n_failed == failed
        metrics, _ = run.end_to_end(records, 1.0, [1.0], n_failed, False)
        assert metrics["success_rate"] == 1.0 - failed / len(records)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "verify_sweep", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=tmp_path, capture_output=True,
                       text=True, timeout=60)
    assert p.returncode != 0
    assert p.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = run.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_importtime_takes_the_outermost_package_imports():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy.special",
        "import time:        50 |        400 |   freejacobi.measures",
        "import time:        10 |        410 | freejacobi",
        "import time:         5 |        500 | freejacobi.cli",
    ])
    assert run.parse_importtime(stderr) == (0.91, 0.3)


def test_stationary_cdf_matches_the_arcsine_law():
    import numpy as np

    xs = np.linspace(0.0, 1.0, 11)
    exact = 2.0 / np.pi * np.arcsin(np.sqrt(xs))
    assert np.max(np.abs(workloads.mu_cdf(1.0, 0.5, xs) - exact)) < 1e-4
