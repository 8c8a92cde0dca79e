#!/usr/bin/env python3
"""Alternating benchmark pairs: a base commit against the working tree.

For each seed, runs ``perfbench/run.py`` once on a ``git archive`` copy of
the base commit and once on the working tree, alternating which side runs
first.  Both sides run the working tree's ``perfbench/run.py`` with the same
settings, so only the benchmarked ``src/`` differs.  Every run's metrics,
each side's median and quartiles, and per metric the number of pairs the
change won (by the ``better`` direction in BENCHMARK.json) go to the
``--out`` JSON file, under the key ``<workload>/trace<N>``; entries for
other workloads already in the file are kept, with an ``environment``
block: the CPU count, the Python and numpy versions and
``OPENBLAS_NUM_THREADS`` (``unset`` when absent).  Run from the repository
root:

    python scripts/bench_pairs.py --workload cli_cold --seeds 1-10 \\
        --seconds 50 --out BENCH_<n>.json

The base defaults to HEAD, so the pairs measure the uncommitted change.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    """"1-3,7" -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def archive(commit, dest):
    """Extract the tree of `commit` into dest; returns its full hash."""
    sha = subprocess.run(["git", "rev-parse", commit], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return sha


def run_once(checkout, workload, seed, seconds, trace):
    """One benchmark run in `checkout`: the JSON result line of run.py,
    its exit code and wall time."""
    t0 = time.time()
    p = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"run.py printed no result in {checkout} "
                           f"(exit {p.returncode}): {p.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["exit_code"] = p.returncode
    result["wall_s"] = round(time.time() - t0, 1)
    return result


def better_directions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def environment():
    """What the runs' speed depends on besides the code."""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset")}


def summarize(runs, better):
    """Median and quartiles per side and metric, and the change's wins."""
    sides = {}
    for r in runs:
        for name, m in r["metrics"].items():
            sides.setdefault(r["side"], {}).setdefault(name, []).append(
                m["value"])
    summary = {}
    for side, metrics in sides.items():
        summary[side] = {}
        for name, values in metrics.items():
            q1, med, q3 = (statistics.quantiles(values, n=4,
                                                method="inclusive")
                           if len(values) > 1 else (values[0],) * 3)
            summary[side][name] = {"median": med, "q1": q1, "q3": q3,
                                   "runs": len(values)}
    by_pair = {}
    for r in runs:
        by_pair.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    wins = {}
    for name, direction in better.items():
        won = lost = 0
        for pair in by_pair.values():
            if len(pair) < 2 or name not in pair["change"]:
                continue
            base, change = pair["base"][name]["value"], \
                pair["change"][name]["value"]
            if change == base:
                continue
            if (change < base) == (direction == "lower"):
                won += 1
            else:
                lost += 1
        if won or lost:
            wins[name] = {"won": won, "lost": lost}
    return summary, wins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds and ranges, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", default="HEAD",
                    help="commit to compare against (default %(default)s)")
    ap.add_argument("--out", required=True,
                    help="JSON file to write, relative to the repo root")
    args = ap.parse_args(argv)

    out = ROOT / args.out
    doc = json.loads(out.read_text()) if out.exists() else {}
    better = better_directions()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        base_dir = Path(tmp) / "base"
        base_dir.mkdir()
        sha = archive(args.base, base_dir)
        checkouts = {"base": base_dir, "change": ROOT}
        runs = []
        for pair, seed in enumerate(parse_seeds(args.seeds)):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                res = run_once(checkouts[side], args.workload, seed,
                               args.seconds, args.trace)
                runs.append({"pair": pair, "seed": seed, "side": side,
                             "first": order[0], **res})
                value = {k: round(v["value"], 4)
                         for k, v in res["metrics"].items()}
                print(f"pair {pair} seed {seed} {side}: {value}", flush=True)
    summary, wins = summarize(runs, better)
    doc[f"{args.workload}/trace{args.trace}"] = {
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "base_commit": sha,
        "change": f"working tree on {sha}",
        "environment": environment(),
        "quartiles": "statistics.quantiles(method='inclusive')",
        "runs": runs, "summary": summary, "change_wins": wins,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in sorted(wins.items()):
        b, c = summary["base"][name], summary["change"][name]
        print(f"{name}: base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]"
              f" -> change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}],"
              f" change won {w['won']} of {w['won'] + w['lost']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
