#!/usr/bin/env python3
"""Benchmark of freejacobi through its command line, run from the repo root:

    python3 perfbench/run.py --workload cli_cold --seed 1 --seconds 50 --trace 0

Workloads (see perfbench/README.md): ``cli_cold`` (one fresh
``python -m freejacobi.cli`` process per op) and ``monte_carlo``
(in-process ``simulate`` at d = 200), which BENCHMARK.json lists, and
``verify_sweep`` (in-process verify, density and moments ops, warm), which
runs by hand only.  Each is a closed loop: one op at a time from one
process, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced for half the time and traced for the other half, and
reports per-layer metrics from the traced half plus the tracing overhead.
The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a detail file with the
environment, the generated inputs and every error goes to
``.perfbench_out/``.  The exit code is 0 when every op returned the
expected exit code and output, 1 otherwise, 2 when there is no
``src/freejacobi`` to benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
# setup_s is the median of fresh set-ups, half of them before the timed
# phase and half after it, so that they sample the machine's speed, which
# drifts over tens of seconds, across the whole run.  Each half has at least
# SETUP_MIN_RUNS set-ups and repeats until they add up to SETUP_MIN_S, so
# that short set-ups get more samples.
SETUP_MIN_RUNS, SETUP_MIN_S = 2, 2.5
SMOKE_D = 40               # Monte Carlo dimension of --smoke runs
CHILD_TIMEOUT_S = 120
# One BLAS thread in this process and every child: within the CPU count on
# any machine, and free of the spin-waiting of several BLAS threads on CPUs
# that other processes share, which made d = 200 steps vary by 10x.
BLAS_THREADS = 1

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "success_rate": "fraction",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "measures.calls": "count/op", "measures.busy_ms": "ms/op",
    "measures.cauchy_calls": "count/op", "measures.density_points": "count/op",
    "measures.points_per_call": "count", "measures.cdf_grid_ms": "ms/op",
    "recurrence.extract_calls": "count/op", "recurrence.extract_ms": "ms/op",
    "renorm.certify_calls": "count/op", "renorm.certify_ms": "ms/op",
    "renorm.gram_calls": "count/op", "renorm.gram_ms": "ms/op",
    "fock.vacuum_ms": "ms/op",
    "martingale.residual_calls": "count/op",
    "martingale.residual_ms": "ms/op", "martingale.flow_ms": "ms/op",
    "simulator.haar_calls": "count/op", "simulator.haar_ms": "ms/op",
    "simulator.bm_steps": "count/op", "simulator.bm_ms_per_step": "ms",
    "simulator.spectrum_calls": "count/op", "simulator.spectrum_ms": "ms/op",
    "simulator.state_ms": "ms/op",
    "cli.import_ms": "ms", "cli.import_scipy_ms": "ms",
    "cli.output_bytes": "B/op",
    "trace.overhead_pct": "%", "trace.unattributed_share": "fraction",
}


def tail(latencies):
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it (the smallest sample when there are fewer
    than eleven)."""
    s = sorted(latencies)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def parse_importtime(stderr):
    """(freejacobi, scipy) import ms from ``-X importtime`` output: the
    cumulative time of the outermost imports of each package."""
    stack = []                  # post-order: children precede their parent
    for cum, ind, name in re.findall(
            r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", stderr):
        level, kids = len(ind), []
        while stack and stack[-1][0] > level:
            kids.append(stack.pop())
        stack.append((level, name.split(".")[0], int(cum), kids))

    def outermost(nodes, pkg):
        return sum(cum if top == pkg else outermost(kids, pkg)
                   for _, top, cum, kids in nodes)

    return outermost(stack, "freejacobi") / 1e3, outermost(stack, "scipy") / 1e3


def git_commit(root):
    """HEAD of the checkout from .git files, or "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(root),
    }


class Bench:
    """One benchmark run of one workload in one checkout."""

    def __init__(self, root, workload, seed, smoke):
        self.root, self.workload, self.seed = root, workload, seed
        self.src = root / "src"
        self.tmp = root / ".perfbench_tmp" / f"{workload}-{os.getpid()}"
        self.d = SMOKE_D if smoke else workloads.MC_D
        self.smoke = smoke
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.cli_main = None

    # -- set-up -----------------------------------------------------------

    def _child(self, args):
        return subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)

    def setup_samples(self, side, min_runs, min_s):
        """Wall times of fresh processes doing this workload's set-up."""
        out = []
        for k in itertools.count():
            if len(out) >= min_runs and sum(out) >= min_s:
                return out
            out_dir = self.tmp / f"setup-{side}{k}"
            out_dir.mkdir()
            t0 = time.perf_counter()
            p = self._child([str(HERE / "child.py"), "setup", self.workload,
                             str(out_dir), str(self.d)])
            out.append(time.perf_counter() - t0)
            if p.returncode != 0:
                raise RuntimeError(f"set-up child failed: {p.stderr[-2000:]}")

    def setup_in_process(self):
        if self.workload == "cli_cold":
            return
        sys.path.insert(0, str(self.src))
        from freejacobi import cli

        self.cli_main = cli.main
        out_dir = self.tmp / "warm"
        out_dir.mkdir()
        for op in workloads.warmup_ops(self.workload, str(out_dir), self.d):
            for call in op:
                with contextlib.redirect_stdout(io.StringIO()):
                    cli.main(call["argv"])

    def import_times(self, repeats):
        """Median (freejacobi, scipy) import ms of fresh processes."""
        rows = [parse_importtime(self._child(
            ["-X", "importtime", "-c", "import freejacobi.cli"]).stderr)
            for _ in range(repeats)]
        return (statistics.median(r[0] for r in rows),
                statistics.median(r[1] for r in rows))

    # -- ops ----------------------------------------------------------------

    def ops(self):
        if self.workload == "verify_sweep":
            return workloads.verify_sweep_ops(self.seed)
        if self.workload == "cli_cold":
            return workloads.cli_cold_ops(self.seed, str(self.tmp))
        return workloads.monte_carlo_ops(self.seed, str(self.tmp), self.d)

    def execute(self, op, tr, k):
        """Run one op; returns its record.  Only the op itself is timed."""
        rec = {"op": op, "codes": [], "outs": [], "error": None}
        t0 = time.perf_counter()
        try:
            if self.cli_main is None:
                self._execute_child(op[0], tr, k, rec)
            else:
                self._execute_in_process(op, tr, k, rec)
        except Exception as exc:        # one broken op must not end the run
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency_s"] = time.perf_counter() - t0
        return rec

    def _execute_in_process(self, op, tr, k, rec):
        if tr is not None:
            tr.op = k
        with tr.span("op", "op") if tr else contextlib.nullcontext():
            for call in op:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = self.cli_main(call["argv"])
                    except SystemExit as exc:     # argparse rejected argv
                        code = exc.code
                rec["codes"].append(code)
                rec["outs"].append(buf.getvalue())

    def _execute_child(self, call, tr, k, rec):
        if tr is None:
            args = ["-m", "freejacobi.cli", *call["argv"]]
        else:
            rec["spans_file"] = str(self.tmp / f"spans{k}.json")
            args = ["-X", "importtime", str(HERE / "child.py"), "trace",
                    rec["spans_file"], "--", *call["argv"]]
        p = self._child(args)
        rec["codes"].append(p.returncode)
        rec["outs"].append(p.stdout)
        rec["stderr"] = p.stderr

    def phase(self, ops, seconds, tr=None):
        """Closed loop until ``seconds`` have passed (at least one op)."""
        records = []
        t0 = time.perf_counter()
        while not records or time.perf_counter() - t0 < seconds:
            records.append(self.execute(next(ops), tr, len(records)))
        return records, time.perf_counter() - t0

    # -- checks ---------------------------------------------------------------

    def check(self, records, expect=workloads.expected_exit):
        """Fill each record's ``error``; returns the pooled Monte Carlo
        statistics and their failures."""
        for rec in records:
            if rec["error"] is not None:
                continue
            for call, code, out in zip(rec["op"], rec["codes"], rec["outs"]):
                try:
                    err = workloads.check_call(call, code, out, expect)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    err = f"unreadable output: {exc!r}"
                if err:
                    rec["error"] = f"{' '.join(call['argv'])}: {err}"
                    break
        if self.workload != "monte_carlo":
            return None, []
        pooled = workloads.pooled_checks([c for r in records for c in r["op"]])
        # A smoke run is too small for the statistical gates; it reports them.
        return pooled, [] if self.smoke else workloads.pooled_errors(pooled)

    def output_bytes(self, rec):
        n = sum(len(out.encode()) for out in rec["outs"])
        for call in rec["op"]:
            if "out" in call:
                base = Path(call["out"])
                n += sum(f.stat().st_size
                         for f in base.parent.glob(base.name + "_*"))
        return n


def end_to_end(records, elapsed, setup, failed, in_children):
    """The end-to-end metrics; peak RSS is that of the op processes."""
    lat = [r["latency_s"] for r in records]
    t, pct, n = tail(lat)
    who = resource.RUSAGE_CHILDREN if in_children else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(records) / elapsed,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * t,
        "success_rate": 1.0 - failed / len(records),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return metrics, {"percentile": pct, "samples": n}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one set-up run, for the tests")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "freejacobi" / "cli.py").is_file():
        print(f"error: no src/freejacobi under {root}; run from the root of "
              "a freejacobi checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    compileall.compile_dir(str(root / "src"), quiet=1)

    bench = Bench(root, args.workload, args.seed, args.smoke)
    bench.tmp.mkdir(parents=True, exist_ok=True)
    try:
        return run(bench, args, root)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)


def layer_metrics(bench, tr, plain, plain_s, traced, traced_s):
    """Per-layer metrics of the traced phase, its import times and the
    tracing overhead against the untraced phase."""
    if bench.cli_main:
        exports = [tr.export()]
        import_ms, scipy_ms = bench.import_times(3)
    else:
        exports = []
        for r in traced:
            if os.path.exists(r["spans_file"]):
                with open(r["spans_file"]) as fh:
                    exports.append(json.load(fh))
        times = [parse_importtime(r["stderr"]) for r in traced if "stderr" in r]
        import_ms = statistics.median(t[0] for t in times)
        scipy_ms = statistics.median(t[1] for t in times)
    metrics = tracer.summarize(exports, len(traced),
                               sum(r["latency_s"] for r in traced))
    plain_rate, traced_rate = len(plain) / plain_s, len(traced) / traced_s
    metrics.update({
        "cli.import_ms": import_ms,
        "cli.import_scipy_ms": scipy_ms,
        "cli.output_bytes":
            sum(bench.output_bytes(r) for r in traced) / len(traced),
        "trace.overhead_pct": 100.0 * (1.0 - traced_rate / plain_rate),
    })
    return metrics, {"untraced": plain_rate, "traced": traced_rate}


def run(bench, args, root):
    setup_runs = (1, 0.0) if args.smoke else (SETUP_MIN_RUNS, SETUP_MIN_S)
    setup = [] if args.trace else bench.setup_samples("before", *setup_runs)
    t0 = time.perf_counter()
    bench.setup_in_process()
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "environment": environment(root),
              "setup_samples_s": setup,
              "in_process_setup_s": time.perf_counter() - t0}

    ops = bench.ops()
    if not args.trace:
        records, elapsed = bench.phase(ops, args.seconds)
        all_records = records
        setup += bench.setup_samples("after", *setup_runs)
    else:
        plain, plain_s = bench.phase(ops, args.seconds / 2)
        tr = tracer.Tracer()
        restore = tracer.install(tr) if bench.cli_main else (lambda: None)
        try:
            traced, traced_s = bench.phase(ops, args.seconds / 2, tr)
        finally:
            restore()
        all_records = plain + traced
    pooled, pooled_errs = bench.check(all_records)
    errors = [r["error"] for r in all_records if r["error"] is not None]

    if not args.trace:
        metrics, detail["tail"] = end_to_end(
            records, elapsed, setup, len(errors), bench.cli_main is None)
        units = END_TO_END_UNITS
    else:
        metrics, detail["ops_per_s"] = layer_metrics(
            bench, tr, plain, plain_s, traced, traced_s)
        units = PER_LAYER_UNITS

    by_kind = {}
    for r in all_records:
        op = r["op"]
        key = op[0]["kind"] if len(op) == 1 else f"sweep lambda={op[0]['lam']}"
        by_kind.setdefault(key, []).append(1e3 * r["latency_s"])
    inputs = [[c["argv"] for c in r["op"]] for r in all_records]
    detail.update({
        "latency_ms": [1e3 * r["latency_s"] for r in all_records],
        "latency_ms_by_kind": {k: {"ops": len(v), "median": statistics.median(v)}
                               for k, v in sorted(by_kind.items())},
        "inputs": inputs,
        "inputs_sha256": hashlib.sha256(json.dumps(inputs).encode()).hexdigest(),
        "pooled": pooled, "pooled_errors": pooled_errs, "errors": errors,
        "metrics": metrics})
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")

    n, failed = len(all_records), len(errors)
    for e in errors[:5] + pooled_errs:
        print(f"FAILED {e}")
    env = detail["environment"]
    print(f"# {args.workload} seed {args.seed}: {n} ops, {failed} failed; "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas']} "
          f"{env['blas_version']} x{env['blas_threads']}; "
          f"detail in {path.relative_to(root)}")
    if not args.trace:
        print(f"  error_rate = {failed / n:.6g} fraction")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    correct = not errors and not pooled_errs
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
