#!/usr/bin/env python3
"""One SHA-256 per group of freejacobi outputs, so that two trees can be
compared with one diff.

The groups:

    residuals          the 90-case martingale residual grid by float.hex:
                       P_lambda and Q_lambda, each in every variant of its
                       row of FAMILIES, lambda in RESIDUAL_LAMS, n in
                       RESIDUAL_DEGREES
    residuals_theta    the same for Q_lambda_theta, both variants, at the
                       theta != 1/2 points of THETA_POINTS
    verify_all         every JSON report of scripts/run_verify_all.py at its
                       default grid, and the table it prints
    density            `density` tables of the four measure families at
                       lambda in TABLE_LAMS, theta in TABLE_THETAS (512 points)
    moments            `moments` tables on the same grid
    simulate_csv       spectrum and series CSVs of the `simulate` invocations
                       in tests/test_cli.py, and of two larger ones (d = 200
                       and d = 64) with paths of 10 and 30 Brownian steps
    simulate_manifest  their manifests, stdout and stderr
    cli_errors         exit code and stderr of the rejected invocations in
                       CLI_ERRORS; an exception that escapes main counts as
                       exit code 1 with its type and message as stderr
    recurrence         extract_from_measure alpha and omega by float.hex
                       for the measures of acceptance criteria 2 and 3: nu
                       and xi at lambda in CRITERION_LAMS, nu_theta and mu
                       at the pairs of CRITERION_LAMS x CRITERION_THETAS;
                       n = 10 as in criterion 2, and n = 8 for mu as in
                       criterion 3
    families           the coefficients of every build_* member to degree
                       FAMILY_DEGREE (both variants of P_lambda and of
                       Q_lambda_theta), and the float family_values to that
                       degree at the 64 first-pass nodes and the atoms of
                       the laws of acceptance criterion 1: nu and xi at
                       lambda in CRITERION_LAMS, nu_theta at their pairs
                       with CRITERION_THETAS; all by float.hex

Each CLI output is hashed together with its argv and exit code.  The
first line printed, outside the groups, is the OPENBLAS_NUM_THREADS
setting (`unset` or its value): the simulate bytes depend on the BLAS
thread count, so compare only fingerprints taken at the same setting.  The
package is imported from the path, so run the script once per tree:

    PYTHONPATH=src python scripts/fingerprint.py > new.txt
    PYTHONPATH=/path/to/base/src python scripts/fingerprint.py > base.txt
    diff base.txt new.txt

With --dump DIR, each hashed output is also written to its own file,
DIR/<group>/<index>.txt (its parts one after another, the argv and exit
code first), so that two trees whose hashes differ can be compared number
by number:

    PYTHONPATH=src python scripts/fingerprint.py --dump new
    PYTHONPATH=/path/to/base/src python scripts/fingerprint.py --dump base
    diff -r base new
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import run_verify_all
from freejacobi import (JacobiParams, build_P_lambda, build_Q_lambda,
                        build_Q_lambda_theta, extract_from_measure,
                        mu_lambda_theta, nu_lambda, nu_lambda_theta, xi_lambda)
from freejacobi.cli import main as fj_main
from freejacobi.martingale import martingale_residuals
from freejacobi.measures import FAMILIES, _ac_nodes, _family_data
from freejacobi.polys import family_values

RESIDUAL_LAMS = (0.25, 0.3, 0.5, 0.7, 0.99, 1.0)
RESIDUAL_DEGREES = (1, 2, 5, 9, 15)
THETA_POINTS = ((0.5, 0.4), (0.7, 0.3), (0.25, 0.1), (1.0, 0.4),
                (0.3, 0.45), (1.0, 0.05))
TABLE_LAMS = ("0.25", "0.5", "0.7", "0.99", "1")
TABLE_THETAS = ("0.3", "0.5")
TABLE_FAMILIES = ("mu", "nu", "nu_theta", "xi")
# The grid of acceptance criteria 2 and 3; every pair lies in the domain.
CRITERION_LAMS = (0.3, 0.6, 1.0)
CRITERION_THETAS = (0.3, 0.4, 0.5)
# The degree of criterion 1's Gram matrices.
FAMILY_DEGREE = 12
# The invocations of tests/test_cli.py that write artifacts, each with the
# seed it runs at, then the two larger runs.
SIMULATE_RUNS = (
    ("--lambda", "1.0", "--d", "24", "--trials", "4", "--times", "0,0.1",
     "--bins", "10", "--seed", "0"),
    ("--lambda", "0.5", "--d", "16", "--trials", "2", "--times", "",
     "--seed", "0"),
    ("--lambda", "0.8", "--d", "20", "--trials", "3", "--times", "0,0.05",
     "--seed", "9"),
    ("--lambda", "0.5", "--d", "24", "--trials", "3", "--t", "0.2",
     "--times", "", "--bins", "12", "--seed", "4"),
    ("--lambda", "0.5", "--d", "20", "--trials", "3", "--t", "0.15",
     "--times", "0,0.1,0.3", "--seed", "0"),
    ("--lambda", "0.5", "--d", "20", "--trials", "2", "--theta", "0.4",
     "--times", "0,0.05", "--seed", "0"),
    ("--lambda", "0.5", "--d", "20", "--trials", "2", "--theta", "0.4",
     "--times", "", "--seed", "0"),
    ("--lambda", "0.5", "--d", "20", "--trials", "2", "--times", "0,0.05",
     "--seed", "0"),
    ("--lambda", "0.5", "--d", "16", "--trials", "2", "--times", "",
     "--seed", "123"),
    ("--lambda", "0.5", "--d", "200", "--trials", "1", "--t", "0.1",
     "--times", "0,0.05,0.1", "--seed", "3"),
    ("--lambda", "0.7", "--d", "64", "--trials", "2", "--theta", "0.4",
     "--family", "Q_lambda_theta", "--t", "0.3", "--times", "0,0.3",
     "--seed", "5"),
)

# Rejected invocations, each with the FJL_SEED value it runs under (None:
# unset): inputs that leave nothing to compute, theta outside the domain for
# the theta = 1/2 families, a malformed FJL_SEED and non-finite simulate
# times.
_SIM = ("simulate", "--lambda", "0.5", "--d", "8", "--trials", "1")
CLI_ERRORS = (
    (None, ("verify", "flows", "--lambda", "0.5", "--theta", "0.4",
            "--ntimes", "0")),
    (None, ("density", "--lambda", "0.5", "--npoints", "0")),
    (None, ("density", "--lambda", "0.5", "--npoints", "-3")),
    (None, ("verify", "orthogonality", "--lambda", "0.5", "--nmax", "-1")),
    (None, ("verify", "orthogonality", "--lambda", "0.5", "--nmax", "0")),
    (None, ("verify", "fock", "--lambda", "0.5", "--kmax", "0")),
    (None, ("density", "--family", "nu", "--lambda", "0.5", "--theta", "-3")),
    (None, ("moments", "--family", "nu", "--lambda", "0.5", "--theta", "0.9")),
    (None, ("verify", "renorm", "--family", "xi", "--lambda", "0.5",
            "--theta", "0.9")),
    (None, ("verify", "martingale", "--family", "Q_lambda", "--lambda", "0.5",
            "--theta", "0.9")),
    (None, ("verify", "orthogonality", "--family", "Q_lambda",
            "--lambda", "0.5", "--theta", "0.9")),
    ("abc", _SIM),
    (None, _SIM + ("--times", "inf")),
    (None, _SIM + ("--t", "inf")),
    (None, _SIM + ("--dt", "inf")),
)


class Group:
    """Running SHA-256 over the items of one group, with their count.  Given
    a dump directory, each item also goes to <dump>/<name>/<index>.txt."""

    def __init__(self, name, dump=None):
        self.sha, self.count = hashlib.sha256(), 0
        self.dump = dump and dump / name
        if self.dump:
            self.dump.mkdir(parents=True, exist_ok=True)

    def add(self, *parts):
        datas = [part if isinstance(part, bytes) else str(part).encode()
                 for part in parts]
        for data in datas:
            self.sha.update(len(data).to_bytes(8, "little") + data)
        if self.dump:
            path = self.dump / f"{self.count:04d}.txt"
            path.write_bytes(b"\n".join(datas) + b"\n")
        self.count += 1


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fj_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def residuals(dump):
    g = Group("residuals", dump)
    for family in ("P_lambda", "Q_lambda"):
        for variant in FAMILIES[family].variants:
            for lam in RESIDUAL_LAMS:
                res = martingale_residuals(lam, RESIDUAL_DEGREES, family,
                                           variant)
                for n, r in zip(RESIDUAL_DEGREES, res):
                    g.add(family, variant, lam.hex(), n, r.hex())
    return g


def residuals_theta(dump):
    g = Group("residuals_theta", dump)
    for variant in ("mean", "twice"):
        for lam, theta in THETA_POINTS:
            res = martingale_residuals(lam, RESIDUAL_DEGREES, "Q_lambda_theta",
                                       theta=theta, variant=variant)
            for n, r in zip(RESIDUAL_DEGREES, res):
                g.add(variant, lam.hex(), theta.hex(), n, r.hex())
    return g


def verify_all(dump):
    g = Group("verify_all", dump)
    run_one = run_verify_all.run_one

    def recording(argv, report_path):
        code, headline = run_one(argv, report_path)
        report = report_path.read_bytes() if report_path.exists() else b""
        g.add(" ".join(argv), code, report)
        return code, headline

    run_verify_all.run_one = recording
    table = io.StringIO()
    try:
        with contextlib.redirect_stdout(table):
            code = run_verify_all.main([])
    finally:
        run_verify_all.run_one = run_one
    g.add("table", code, table.getvalue())
    return g


def tables(command, tmp, dump):
    g = Group(command, dump)
    out = tmp / f"{command}.csv"
    for family in TABLE_FAMILIES:
        for lam in TABLE_LAMS:
            for theta in TABLE_THETAS:
                argv = (command, "--family", family, "--lambda", lam,
                        "--theta", theta)
                out.unlink(missing_ok=True)
                code, _, _ = run_cli(argv + ("--out", str(out)))
                g.add(" ".join(argv), code,
                      out.read_bytes() if out.exists() else b"")
    return g


def simulate(tmp, dump):
    csvs = Group("simulate_csv", dump)
    manifests = Group("simulate_manifest", dump)
    cwd = os.getcwd()
    os.chdir(tmp)        # manifests then list relative file names
    try:
        for i, argv in enumerate(SIMULATE_RUNS):
            base = f"run{i}"
            code, out, err = run_cli(("simulate",) + argv + ("--out", base))
            for suffix in ("_spectrum.csv", "_series.csv"):
                path = Path(base + suffix)
                csvs.add(" ".join(argv), code, suffix,
                         path.read_bytes() if path.exists() else b"")
            path = Path(base + "_manifest.json")
            manifests.add(" ".join(argv), code, out, err,
                          path.read_bytes() if path.exists() else b"")
    finally:
        os.chdir(cwd)
    return csvs, manifests


def cli_errors(tmp, dump):
    g = Group("cli_errors", dump)
    env = os.environ.pop("FJL_SEED", None)
    cwd = os.getcwd()
    os.chdir(tmp)        # a simulate run that is not rejected writes here
    try:
        for seed, argv in CLI_ERRORS:
            if seed is not None:
                os.environ["FJL_SEED"] = seed
            try:
                code, _, err = run_cli(argv)
            except Exception as exc:
                code, err = 1, f"{type(exc).__name__}: {exc}"
            os.environ.pop("FJL_SEED", None)
            g.add(seed, " ".join(argv), code, err)
    finally:
        os.chdir(cwd)
        if env is not None:
            os.environ["FJL_SEED"] = env
    return g


def recurrence(dump):
    g = Group("recurrence", dump)
    measures = [(nu_lambda(lam), 10) for lam in CRITERION_LAMS]
    measures += [(xi_lambda(lam), 10) for lam in CRITERION_LAMS]
    for lam in CRITERION_LAMS:
        for theta in CRITERION_THETAS:
            p = JacobiParams(lam, theta)
            measures += [(nu_lambda_theta(p), 10), (mu_lambda_theta(p), 8)]
    for m, n in measures:
        js = extract_from_measure(m, n)
        g.add(m.label, n, " ".join(float(a).hex() for a in js.alpha),
              " ".join(float(w).hex() for w in js.omega))
    return g


def families(dump):
    g = Group("families", dump)
    degrees = range(FAMILY_DEGREE + 1)

    def add(name, rows):
        for n, row in zip(degrees, rows):
            g.add(name, n, " ".join(float(c).hex() for c in row))

    laws = []
    for lam in CRITERION_LAMS:
        add(f"build Q_lambda {lam.hex()}",
            [build_Q_lambda(lam, n).coef for n in degrees])
        for a in ("sqrt", "rational"):
            add(f"build P_lambda {a} {lam.hex()}",
                [build_P_lambda(lam, n, a).coef for n in degrees])
        laws += [("Q_lambda", lam, None), ("P_lambda", lam, None)]
        for theta in CRITERION_THETAS:
            p = JacobiParams(lam, theta)
            for b in ("mean", "twice"):
                add(f"build Q_lambda_theta {b} {lam.hex()} {theta.hex()}",
                    [build_Q_lambda_theta(p, n, b).coef for n in degrees])
            laws.append(("Q_lambda_theta", lam, theta))
    for family, lam, theta in laws:
        m = FAMILIES[family].measure(lam, theta)
        x = np.concatenate([_ac_nodes(m, 64)[0], [a for a, _ in m.atoms]])
        data = _family_data(family, lam, theta)
        add(f"values {family} {lam.hex()} {theta and theta.hex()}",
            family_values(x, degrees, *data))
    return g


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dump", type=Path, default=None, metavar="DIR",
                        help="also write each hashed output to its own file "
                             "under DIR")
    args = parser.parse_args(argv)
    # Absolute: simulate and cli_errors run in a temporary directory.
    dump = args.dump and args.dump.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        csvs, manifests = simulate(tmp, dump)
        groups = {
            "residuals": residuals(dump),
            "residuals_theta": residuals_theta(dump),
            "verify_all": verify_all(dump),
            "density": tables("density", tmp, dump),
            "moments": tables("moments", tmp, dump),
            "simulate_csv": csvs,
            "simulate_manifest": manifests,
            "cli_errors": cli_errors(tmp, dump),
            "recurrence": recurrence(dump),
            "families": families(dump),
        }
    print(f"{'blas_threads':<18} "
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    for name, g in groups.items():
        print(f"{name:<18} {g.sha.hexdigest()}  {g.count} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
