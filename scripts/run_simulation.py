#!/usr/bin/env python3
"""Monte Carlo battery: spectra and trace series for a list of lambda values.

Wraps `freejacobi simulate` once per lambda, writing histogram, series and
manifest files under --outdir with a per-lambda prefix, then prints a summary
table of KS distances and the worst trace-series drift in standard errors.
With the defaults (d = 200, trials = 200, times 0/0.2/0.4) a two-lambda run
takes a few minutes.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

from freejacobi.cli import main as fj_main
from freejacobi.measures import FAMILIES
from freejacobi.simulator import drift_sigmas


def read_series(path):
    """The (t, mean, stderr) rows of a series CSV written by `simulate`."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#") or row[0] == "t":
                continue
            rows.append((float(row[0]), float(row[1]), float(row[2])))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="mc_out",
                    help="directory for run artifacts (default %(default)s)")
    ap.add_argument("--lambdas", default="0.5,1.0",
                    help="comma-separated lambda values (default %(default)s)")
    ap.add_argument("--theta", type=float, default=0.5)
    ap.add_argument("--d", type=int, default=200)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--times", default="0,0.2,0.4",
                    help="trace-series times; empty string skips the series")
    ap.add_argument("--n", type=int, default=2,
                    help="polynomial degree for the trace series")
    ap.add_argument("--family", choices=tuple(FAMILIES), default="P_lambda")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    for lam_text in args.lambdas.split(","):
        lam = float(lam_text)
        prefix = outdir / f"lam{lam_text.strip()}"
        code = fj_main([
            "simulate", "--lambda", str(lam), "--theta", str(args.theta),
            "--d", str(args.d), "--trials", str(args.trials),
            "--times", args.times, "--n", str(args.n),
            "--family", args.family, "--seed", str(args.seed),
            "--out", str(prefix)])
        if code != 0:
            print(f"simulate failed for lambda = {lam} (exit {code})",
                  file=sys.stderr)
            return code
        manifest = json.loads((prefix.parent /
                               f"{prefix.name}_manifest.json").read_text())
        drift = (drift_sigmas(read_series(f"{prefix}_series.csv"))
                 if args.times else None)
        results.append((lam, manifest["ks_distance"], drift))

    print()
    print(f"{'lambda':>7} {'KS distance':>12} {'series drift (sigma)':>22}")
    for lam, ks, drift in results:
        ks_text = f"{ks:.4f}" if ks is not None else "n/a"
        drift_text = f"{drift:.1f}" if drift is not None else "n/a"
        print(f"{lam:>7.3g} {ks_text:>12} {drift_text:>22}")
    print(f"\nartifacts in {outdir}/ "
          f"(family {args.family}, n = {args.n}, d = {args.d}, "
          f"trials = {args.trials})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
