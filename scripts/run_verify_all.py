#!/usr/bin/env python3
"""Sweep every verification suite over a parameter grid and tabulate verdicts.

Each row is one CLI invocation (`freejacobi verify <suite> ...`); the JSON
report is written to a temp directory and read back for the headline number.
Both martingale families, both flow normalizer variants and the Fock
realization of all four measure families are swept, so the table shows
directly which stated forms hold and which fail.  Exit status is
the worst code seen (0 all pass, 1 violation, 2 usage/numerical error),
which makes the sweep usable as a CI gate for the passing configurations.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from freejacobi import JacobiParams
from freejacobi.cli import main as fj_main


def parse_floats(text):
    return [float(s) for s in text.split(",") if s]


def run_one(argv, report_path):
    code = fj_main(argv + ["--out", str(report_path)])
    headline = ""
    if report_path.exists():
        rep = json.loads(report_path.read_text())
        if "families" in rep:
            worst = max(sub["max_offdiag"] for sub in rep["families"])
            headline = f"max_offdiag = {worst:.3e}"
        else:
            for key in ("max_offdiag", "max_violation", "max_difference",
                        "max_residual", "max_k_residual"):
                if key in rep:
                    headline = f"{key} = {rep[key]:.3e}"
                    break
    return code, headline


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lambdas", default="0.3,0.6,1.0",
                    help="comma-separated lambda grid (default %(default)s)")
    ap.add_argument("--thetas", default="0.3,0.5",
                    help="comma-separated theta grid (default %(default)s)")
    ap.add_argument("--nmax", type=int, default=12,
                    help="orthogonality degree cutoff (default %(default)s)")
    args = ap.parse_args(argv)

    lambdas = parse_floats(args.lambdas)
    thetas = parse_floats(args.thetas)
    worst = 0
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for lam in lambdas:
            for th in thetas:
                try:
                    JacobiParams(lam, th)
                except ValueError:
                    continue
                base = ["--lambda", str(lam), "--theta", str(th)]
                runs = [
                    ("orthogonality", ["verify", "orthogonality",
                                       "--family", "all",
                                       "--nmax", str(args.nmax)] + base),
                    ("renorm nu", ["verify", "renorm",
                                   "--family", "nu"] + base),
                    ("renorm xi", ["verify", "renorm",
                                   "--family", "xi"] + base),
                    ("fock mu", ["verify", "fock"] + base),
                    ("fock nu", ["verify", "fock", "--family", "nu"] + base),
                    ("fock nu_theta", ["verify", "fock",
                                       "--family", "nu_theta"] + base),
                    ("fock xi", ["verify", "fock", "--family", "xi"] + base),
                    ("martingale Q", ["verify", "martingale",
                                      "--family", "Q_lambda"] + base),
                    ("martingale P", ["verify", "martingale",
                                      "--family", "P_lambda"] + base),
                    ("flows displayed", ["verify", "flows",
                                         "--variant", "displayed"] + base),
                    ("flows ode", ["verify", "flows",
                                   "--variant", "ode"] + base),
                ]
                for name, argv_run in runs:
                    code, headline = run_one(argv_run, report)
                    worst = max(worst, code)
                    rows.append((lam, th, name, code, headline))
                    report.unlink(missing_ok=True)

    print()
    print(f"{'lambda':>7} {'theta':>6}  {'suite':<17} {'exit':>4}  headline")
    for lam, th, name, code, headline in rows:
        print(f"{lam:>7.3g} {th:>6.3g}  {name:<17} {code:>4}  {headline}")
    n_fail = sum(1 for r in rows if r[3] != 0)
    print(f"\n{len(rows)} runs, {n_fail} nonzero "
          f"(martingale P and flows displayed fail for lambda < 1 "
          f"or theta != 1/2 by construction)")
    return worst


if __name__ == "__main__":
    sys.exit(main())
