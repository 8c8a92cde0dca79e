"""Command-line front end: density and moment tables, verification suites
with JSON reports, and the random-matrix simulator.

Exit codes are the contract for scripting: 0 when every check passed (or the
requested data was written), 1 when a tolerance was violated, 2 on numerical
non-convergence, invalid input or an output file that cannot be written.
The default seed of `simulate` is the FJL_SEED environment variable when
set, 0 otherwise (other subcommands ignore it); given identical arguments
and seed, every output file is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConvergenceError, PositivityError
from .fock import build_fock, vacuum_moments
from .martingale import (FlowConstants, flow_K_ode_residual,
                         flow_Z_ode_residual, martingale_residuals)
from .measures import JacobiParams, cdf_grid, moments, mu_lambda_theta
from .recurrence import JacobiSzego, extract_from_measure
from .renorm import (FAMILIES, RenormKernel, certify_product_dependence,
                     family_gram, rho_trig, u_combination)
from .simulator import ks_distance, simulate_trials

REPORT_SCHEMA = "freejacobi/report-v1"

_POLY_FAMILIES = tuple(FAMILIES)
# Measures by name: the stationary law mu and the orthogonality measures of
# the three polynomial families.
_MEASURES = {
    "mu": lambda lam, theta: mu_lambda_theta(JacobiParams(lam, theta)),
    "nu": FAMILIES["Q_lambda"].measure,
    "nu_theta": FAMILIES["Q_lambda_theta"].measure,
    "xi": FAMILIES["P_lambda"].measure,
}
_MEASURE_FAMILIES = tuple(_MEASURES)


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write(text, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _write_csv(out, header, rows, head_comments=(), tail_comments=()):
    lines = [f"# {c}" for c in head_comments]
    lines.append(",".join(header))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(f"# {c}" for c in tail_comments)
    _write("\n".join(lines) + "\n", out)


def _emit_report(report, out):
    _write(json.dumps(report, indent=2, sort_keys=True) + "\n", out)


# -- subcommands --------------------------------------------------------------

def cmd_density(args):
    if args.npoints < 1:
        raise ValueError(f"npoints = {args.npoints} must be >= 1")
    m = _MEASURES[args.family](args.lam, args.theta)
    lo, hi = m.support
    i = np.arange(args.npoints)
    xs = lo + (hi - lo) * (i + 0.5) / args.npoints
    dens = np.asarray(m.density(xs), dtype=float)
    head = [f"family = {args.family}, lambda = {_fmt(args.lam)}, "
            f"theta = {_fmt(args.theta)}",
            f"support = [{_fmt(lo)}, {_fmt(hi)}]"]
    tail = [f"atom, {_fmt(x)}, {_fmt(w)}" for x, w in m.atoms]
    _write_csv(args.out, ("x", "density"), zip(xs, dens), head, tail)
    return 0


def cmd_moments(args):
    m = _MEASURES[args.family](args.lam, args.theta)
    mom = moments(m, args.nmax)
    head = [f"family = {args.family}, lambda = {_fmt(args.lam)}, "
            f"theta = {_fmt(args.theta)}"]
    _write_csv(args.out, ("n", "moment"),
               ((n, float(mom[n])) for n in range(args.nmax + 1)), head)
    return 0


def _suite_orthogonality(args):
    if args.nmax < 1:
        raise ValueError(f"nmax = {args.nmax} must be >= 1")
    families = _POLY_FAMILIES if args.family == "all" else (args.family,)
    entries = []
    ok = True
    for fam in families:
        beta, gamma = u_combination(fam, args.lam, args.theta)
        measure = FAMILIES[fam].measure(args.lam, args.theta)
        gram = family_gram(measure, beta, gamma, args.nmax)
        diag = np.diag(gram)
        max_off = float(np.max(np.abs(gram - np.diag(diag))))
        min_norm = float(np.min(diag))
        entries.append({"family": fam, "max_offdiag": max_off,
                        "min_norm": min_norm})
        ok = ok and max_off < args.tol and min_norm > 0.0
    return {"n_max": args.nmax, "tol": args.tol, "families": entries,
            "verdict": ok}


def _suite_renorm(args):
    measure = _MEASURES[args.family](args.lam, args.theta)
    rho = rho_trig if args.rho == "trig" else (lambda u: u)
    kern = RenormKernel(measure, rho=rho)
    _, rep = certify_product_dependence(kern, tol=args.tol)
    rep.update({"family": args.family, "rho": args.rho})
    return rep


def _suite_fock(args):
    if args.kmax < 1:
        raise ValueError(f"kmax = {args.kmax} must be >= 1")
    measure = _MEASURES[args.family](args.lam, args.theta)
    dim = args.kmax // 2 + 1
    if args.family == "mu":
        # The squared norms of mu, about (theta sqrt(lam))^(2k), underflow
        # at small theta: the data are extracted from nu_theta and mapped
        # by the support of mu, as its density is.
        js = extract_from_measure(_MEASURES["nu_theta"](args.lam, args.theta),
                                  dim - 1)
        lo, hi = measure.support
        c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        omega = h * h * js.omega
        if not omega.all():
            raise ValueError(f"the recurrence weights of mu at lam = "
                             f"{args.lam}, theta = {args.theta} underflow "
                             f"to 0: its support is {hi - lo:.3g} wide")
        js = JacobiSzego(c + h * js.alpha, omega)
    else:
        js = extract_from_measure(measure, dim - 1)
    vac = vacuum_moments(build_fock(js, dim), args.kmax)
    quad = moments(measure, args.kmax)
    diff = float(np.max(np.abs(vac - quad)))
    ok = diff < args.tol
    return {"family": args.family, "k_max": args.kmax, "tol": args.tol,
            "max_difference": diff, "verdict": ok}


def _suite_martingale(args):
    degrees = range(1, args.nmax + 1)
    res = martingale_residuals(args.lam, degrees, family=args.family,
                               a_variant=args.a_variant, theta=args.theta)
    rows = [{"n": n, "residual": r} for n, r in zip(degrees, res)]
    worst = max(res)
    ok = worst < args.tol
    return {"family": args.family, "a_variant": args.a_variant,
            "n_max": args.nmax, "tol": args.tol, "residuals": rows,
            "max_residual": worst, "verdict": ok}


def _suite_flows(args):
    if args.ntimes < 1:
        raise ValueError(f"ntimes = {args.ntimes} must be >= 1")
    p = JacobiParams(args.lam, args.theta)
    fc = FlowConstants.from_params(p, r=args.r)
    rows = []
    worst_z = worst_k = 0.0
    for frac in np.linspace(0.05, 0.95, args.ntimes):
        t = float(frac * fc.t0)
        rz = flow_Z_ode_residual(fc, t)
        rk = flow_K_ode_residual(fc, args.lam, args.theta, t,
                                 variant=args.variant)
        rows.append({"t": t, "z_residual": rz, "k_residual": rk})
        worst_z, worst_k = max(worst_z, rz), max(worst_k, rk)
    ok = worst_z < args.tol_z and worst_k < args.tol
    return {"r": fc.r, "t0": fc.t0, "variant": args.variant,
            "tol_z": args.tol_z, "tol_k": args.tol, "residuals": rows,
            "max_z_residual": worst_z, "max_k_residual": worst_k,
            "verdict": ok}


_SUITES = {
    "orthogonality": _suite_orthogonality,
    "renorm": _suite_renorm,
    "fock": _suite_fock,
    "martingale": _suite_martingale,
    "flows": _suite_flows,
}


def cmd_verify(args):
    # Every tolerance option (tol, tol_z); the comparisons are false for
    # NaN as well.
    for name, tol in vars(args).items():
        if name.startswith("tol") and not 0.0 < tol < np.inf:
            raise ValueError(f"{name} = {tol} must be positive and finite")
    report = _SUITES[args.suite](args)
    report.update({"schema": REPORT_SCHEMA, "suite": args.suite,
                   "lambda": args.lam, "theta": args.theta})
    _emit_report(report, args.out)
    return 0 if report["verdict"] else 1


def cmd_simulate(args):
    times = [float(s) for s in args.times.split(",")] if args.times else []
    if args.bins < 1:
        raise ValueError(f"bins = {args.bins} must be >= 1")
    seed = args.seed
    if seed is None:
        env = os.environ.get("FJL_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"FJL_SEED = {env!r} is not an integer") from None
    spectra, series, state = simulate_trials(
        args.lam, args.theta, args.d, args.trials, t=args.t, times=times,
        n=args.n, seed=seed, dt=args.dt, family=args.family,
        a_variant=args.a_variant)
    if times and FAMILIES[args.family].reads(args.theta) != args.theta:
        print(f"note: the trace series rescales by the theta = 1/2 map; at "
              f"theta = {_fmt(args.theta)} it tests no martingale property",
              file=sys.stderr)
    pooled = np.concatenate(spectra)
    lam_r, th_r = state.realized_params()

    ks = None
    try:
        xs, cdf = cdf_grid(mu_lambda_theta(JacobiParams(lam_r, th_r)))
        ks = ks_distance(pooled, xs, cdf)
    except ValueError:
        pass          # realized parameters outside the measure's domain

    counts, edges = np.histogram(pooled, bins=args.bins,
                                 range=(0.0, 1.0 + 1e-9))
    base = args.out if args.out is not None else "simulate"
    _write_csv(f"{base}_spectrum.csv", ("bin_left", "bin_right", "count"),
               ((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                for i in range(counts.size)),
               [f"d = {args.d}, trials = {args.trials}, t = {_fmt(args.t)}"])

    if times:
        _write_csv(f"{base}_series.csv", ("t", "mean", "stderr"), series,
                   [f"family = {args.family}, n = {args.n}, "
                    f"d = {args.d}, trials = {args.trials}"])

    manifest = {
        "schema": REPORT_SCHEMA,
        "lambda": args.lam, "theta": args.theta,
        "realized_lambda": lam_r, "realized_theta": th_r,
        "d": args.d, "p_rank": state.p_rank, "q_rank": state.q_rank,
        "trials": args.trials, "dt": args.dt, "seed": seed,
        "t": args.t, "times": times, "n": args.n,
        "family": args.family, "a_variant": args.a_variant,
        "ks_distance": ks,
        "files": [f"{base}_spectrum.csv"] +
                 ([f"{base}_series.csv"] if times else []),
    }
    _emit_report(manifest, f"{base}_manifest.json")
    if ks is not None:
        print(f"KS distance to stationary law: {ks:.6f}")
    return 0


# -- parser -------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="spectral parameter lambda in (0, 1]")
    p.add_argument("--theta", type=float, default=0.5,
                   help="projection ratio theta (default %(default)s)")
    p.add_argument("--out", default=None,
                   help="output path (default: stdout)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="freejacobi",
        description="Spectral measures, orthogonal families, flow ODEs and "
                    "Monte Carlo checks for the stationary compressed "
                    "unitary process.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="tabulate a spectral density")
    d.add_argument("--family", choices=_MEASURE_FAMILIES, default="mu")
    d.add_argument("--npoints", type=int, default=512)
    _add_common(d)
    d.set_defaults(func=cmd_density)

    mo = sub.add_parser("moments", help="tabulate moments of a measure")
    mo.add_argument("--family", choices=_MEASURE_FAMILIES, default="mu")
    mo.add_argument("--nmax", type=int, default=16)
    _add_common(mo)
    mo.set_defaults(func=cmd_moments)

    v = sub.add_parser("verify", help="run a verification suite")
    vs = v.add_subparsers(dest="suite", required=True)
    v.set_defaults(func=cmd_verify)

    vo = vs.add_parser("orthogonality",
                       help="pairwise orthogonality of the three families")
    vo.add_argument("--family", choices=_POLY_FAMILIES + ("all",),
                    default="all")
    vo.add_argument("--nmax", type=int, default=12)
    vo.add_argument("--tol", type=float, default=1e-9)
    _add_common(vo)

    vr = vs.add_parser("renorm",
                       help="product-dependence certification of the "
                            "renormalized kernel")
    vr.add_argument("--family", choices=_MEASURE_FAMILIES, default="nu")
    vr.add_argument("--rho", choices=("trig", "id"), default="trig",
                    help="renormalizing map: 2u/(1+u^2) or the identity "
                         "negative control")
    vr.add_argument("--tol", type=float, default=1e-10)
    _add_common(vr)

    vf = vs.add_parser("fock",
                       help="tridiagonal vacuum moments vs quadrature")
    vf.add_argument("--family", choices=_MEASURE_FAMILIES, default="mu")
    vf.add_argument("--kmax", type=int, default=16)
    vf.add_argument("--tol", type=float, default=1e-8)
    _add_common(vf)

    vm = vs.add_parser("martingale",
                       help="drift-cancellation residuals of a family")
    vm.add_argument("--family", choices=_POLY_FAMILIES, default="P_lambda")
    vm.add_argument("--a-variant", choices=("sqrt", "rational"),
                    default="sqrt")
    vm.add_argument("--nmax", type=int, default=15)
    vm.add_argument("--tol", type=float, default=1e-9)
    _add_common(vm)

    vl = vs.add_parser("flows", help="ODE residuals of the closed-form flow")
    vl.add_argument("--variant", choices=("displayed", "ode"),
                    default="displayed")
    vl.add_argument("--r", type=float, default=None,
                    help="flow parameter r in (0, 4 lambda theta^2]")
    vl.add_argument("--ntimes", type=int, default=10)
    vl.add_argument("--tol", type=float, default=1e-6,
                    help="tolerance for the K residual (default 1e-6)")
    vl.add_argument("--tol-z", dest="tol_z", type=float, default=1e-7)
    _add_common(vl)

    s = sub.add_parser("simulate", help="random-matrix Monte Carlo run")
    s.add_argument("--d", type=int, default=200)
    s.add_argument("--trials", type=int, default=200)
    s.add_argument("--t", type=float, default=0.0,
                   help="evolution time for the pooled spectra")
    s.add_argument("--times", default="0,0.2,0.4",
                   help="comma-separated times for the trace series "
                        "(empty string skips it)")
    s.add_argument("--n", type=int, default=2,
                   help="degree of the trace statistic")
    s.add_argument("--dt", type=float, default=1e-2)
    s.add_argument("--bins", type=int, default=40)
    s.add_argument("--family", choices=_POLY_FAMILIES, default="P_lambda")
    s.add_argument("--a-variant", choices=("sqrt", "rational"),
                   default="sqrt")
    s.add_argument("--seed", type=int, default=None,
                   help="random seed (default: FJL_SEED when set, else 0)")
    _add_common(s)
    s.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # The one domain check of every subcommand, also of those whose
        # theta = 1/2 families never read theta.
        JacobiParams(args.lam, args.theta)
        # Before any computation: a simulate run would otherwise sample in
        # full and only then fail to write.
        out_dir = os.path.dirname(args.out or "")
        if out_dir and not os.path.isdir(out_dir):
            raise FileNotFoundError(
                f"output directory {out_dir!r} does not exist")
        return args.func(args)
    except (ConvergenceError, PositivityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
