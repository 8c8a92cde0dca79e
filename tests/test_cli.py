"""Command-line interface: exit codes, report schema, file outputs."""

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freejacobi import jacobi_spectrum, make_state, martingale
from freejacobi.cli import REPORT_SCHEMA, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_exact_moments(argv, out, nu_theta_moments):
    """The table of an accepted `moments` argv against the exact moments:
    those of the drift's fixed point for mu, of the Jacobi data for
    nu_theta.  They agree within 1e-13 absolute beyond the table's 12
    significant digits."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    lam, theta = float(opts["--lambda"]), float(opts["--theta"])
    got = np.array([float(ln.split(",")[1]) for ln in out.splitlines()
                    if ln[:1].isdigit()])
    n = got.size - 1
    if opts["--family"] == "mu":
        want = [float(m) for m in martingale.stationary_moments(
            Fraction(lam), Fraction(theta), n)]
    else:
        want = nu_theta_moments(lam, theta, n)
    np.testing.assert_allclose(got, want, rtol=5e-12, atol=1e-13)


# ---------------------------------------------------------------------------
# Tables


def test_density_table_stdout(capsys):
    code, out, _ = run(capsys, "density", "--family", "mu",
                       "--lambda", "0.5", "--npoints", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# family = mu")
    assert "x,density" in lines
    data = [ln for ln in lines if not ln.startswith("#") and "," in ln
            and not ln.startswith("x,")]
    assert len(data) == 8
    x0, d0 = map(float, data[0].split(","))
    assert 0.0 < x0 < 1.0 and d0 > 0.0


def test_density_table_lists_atoms(capsys):
    code, out, _ = run(capsys, "density", "--family", "xi",
                       "--lambda", "0.5", "--npoints", "4")
    assert code == 0
    assert any(ln.startswith("# atom,") for ln in out.splitlines())


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--family", "nu",
                       "--lambda", "0.8", "--nmax", "4")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("n,")]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-10)


def test_density_writes_file(tmp_path, capsys):
    out = tmp_path / "dens.csv"
    code, _, _ = run(capsys, "density", "--family", "nu", "--lambda", "1.0",
                     "--npoints", "16", "--out", str(out))
    assert code == 0
    assert out.exists()
    assert "x,density" in out.read_text()


# The edges of the parameter domain (0, 1] x (0, 1/2], with points just
# outside it, plus uniform draws.
_EDGES = (5e-324, 1e-300, 1e-16, 0.5, math.nextafter(0.5, 1.0),
          math.nextafter(1.0, 0.0), 1.0)
_PARAMS = st.sampled_from(_EDGES) | st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=200)
@given(st.sampled_from(("density", "moments")),
       st.sampled_from(("mu", "nu", "nu_theta", "xi")), _PARAMS, _PARAMS)
# nu at a subnormal lam: 2 pi lam does not carry lam, so a normaliser
# written with it misses the mass by 4.7 %.
@example("density", "nu", 5e-324, 0.5)
# The atom of xi near 7e149 carries m_3 beyond the float range.
@example("moments", "xi", 1e-300, 0.5)
def test_measure_tables_exit_0_or_2(command, family, lam, theta):
    # Every table either is written with finite values (densities also
    # nonnegative) and exit code 0, or is refused with exit code 2 and a
    # message; nothing escapes main.  nu, whose edge form holds in floats
    # on the whole domain, is never refused inside it.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--family", family, "--lambda", repr(lam),
                     "--theta", repr(theta)])
    assert code in (0, 2)
    if family == "nu" and 0.0 < lam <= 1.0 and 0.0 < theta <= 0.5:
        assert code == 0, err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    lines = out.getvalue().splitlines()
    rows = [ln.split(",") for ln in lines if ln[0].isdigit() or ln[0] == "-"]
    atoms = [ln.split(",")[1:] for ln in lines if ln.startswith("# atom,")]
    values = np.array([[float(v) for v in row] for row in rows + atoms])
    assert len(rows) > 0 and np.isfinite(values).all()
    if command == "density":
        assert (values[:len(rows), 1] >= 0.0).all()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(("mu", "nu", "nu_theta", "xi")),
       st.sampled_from(("trig", "id")), _PARAMS, _PARAMS)
# xi at small lam: its atom far out pushed the default grid beyond the
# admissible u (exit 1) or below the bisection's reach (a numpy message).
@example("xi", "trig", 1e-16, 0.5)
@example("xi", "trig", 1e-300, 0.5)
@example("xi", "trig", 5e-324, 0.5)
def test_verify_renorm_exit_0_1_or_2(family, rho, lam, theta):
    # A certification either compares at least one product group and exits
    # 0 or 1, or is refused with exit code 2 and a message; nothing escapes
    # main.  The trig kernel certifies the three centred image laws
    # wherever it runs; mu is not one of them and may exit 1.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", "renorm", "--family", family, "--rho", rho,
                     "--lambda", repr(lam), "--theta", repr(theta)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    rep = json.loads(out.getvalue())
    assert rep["product_groups"] > 0 and math.isfinite(rep["max_violation"])
    if rho == "trig" and family != "mu":
        assert code == 0, rep


def _run_quietly(argv):
    """main(argv) with stdout and stderr captured, and the numpy
    RuntimeWarnings it emitted."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def _assert_clean_report(code, out, err, runtime):
    """The report of a verification that exits 0 or 1, its verdict matching
    the code, or None after exit 2 with exactly one error line; numpy
    warned about nothing either way."""
    assert code in (0, 1, 2)
    assert not runtime, [str(w.message) for w in runtime]
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        return None
    rep = json.loads(out)
    assert rep["verdict"] is (code == 0)
    return rep


def _assert_clean_exit(*result):
    # A report compared at least one residual.
    rep = _assert_clean_report(*result)
    assert rep is None or rep["residuals"]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(("displayed", "ode")), _PARAMS, _PARAMS)
# The default r = 2 lam theta^2, and its bound 4 lam theta^2, underflow.
@example("displayed", 5e-324, 0.5)
@example("displayed", 1.0, 5e-324)
def test_verify_flows_exit_0_1_or_2(variant, lam, theta):
    _assert_clean_exit(*_run_quietly(
        ["verify", "flows", "--variant", variant, "--ntimes", "3",
         "--lambda", repr(lam), "--theta", repr(theta)]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(("P_lambda", "Q_lambda", "Q_lambda_theta")),
       st.sampled_from(("sqrt", "rational")), _PARAMS, _PARAMS)
def test_verify_martingale_exit_0_1_or_2(family, a_variant, lam, theta):
    _assert_clean_exit(*_run_quietly(
        ["verify", "martingale", "--family", family, "--a-variant",
         a_variant, "--nmax", "3", "--lambda", repr(lam),
         "--theta", repr(theta)]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(("mu", "nu", "nu_theta", "xi")), _PARAMS, _PARAMS)
def test_verify_fock_exit_0_1_or_2(family, lam, theta):
    # The default family is mu, so this also covers mu at the domain edges.
    rep = _assert_clean_report(*_run_quietly(
        ["verify", "fock", "--family", family, "--kmax", "8",
         "--lambda", repr(lam), "--theta", repr(theta)]))
    if rep is not None:
        assert math.isfinite(rep["max_difference"])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(("P_lambda", "Q_lambda", "Q_lambda_theta", "all")),
       _PARAMS, _PARAMS)
def test_verify_orthogonality_exit_0_1_or_2(family, lam, theta):
    rep = _assert_clean_report(*_run_quietly(
        ["verify", "orthogonality", "--family", family, "--nmax", "4",
         "--lambda", repr(lam), "--theta", repr(theta)]))
    if rep is not None:
        assert rep["families"]
        assert all(math.isfinite(f["max_offdiag"]) for f in rep["families"])


# ---------------------------------------------------------------------------
# Verification suites


def test_verify_orthogonality_passes(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality",
                       "--family", "Q_lambda", "--lambda", "0.5",
                       "--nmax", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == REPORT_SCHEMA
    assert rep["verdict"] is True
    assert rep["families"][0]["max_offdiag"] < 1e-9


def test_verify_orthogonality_all_families(capsys):
    code, out, _ = run(capsys, "verify", "orthogonality", "--lambda", "0.6",
                       "--theta", "0.4", "--nmax", "4")
    assert code == 0
    rep = json.loads(out)
    assert [e["family"] for e in rep["families"]] == [
        "Q_lambda", "P_lambda", "Q_lambda_theta"]


def test_verify_renorm_trig_passes(capsys):
    code, out, _ = run(capsys, "verify", "renorm", "--family", "nu",
                       "--lambda", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True and rep["rho"] == "trig"


def test_verify_renorm_identity_control_fails(capsys):
    code, out, _ = run(capsys, "verify", "renorm", "--family", "nu",
                       "--lambda", "0.5", "--rho", "id")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] is False
    assert rep["max_violation"] > rep["tol"]


@pytest.mark.parametrize("lam", ["1e-4", "1e-5", "1e-8", "1e-16"])
def test_verify_renorm_xi_small_lambda_passes(capsys, lam):
    # The atom of xi far out makes the admissible u small; the grid stays
    # below it, and the direct kernel certifies to rounding.
    code, out, _ = run(capsys, "verify", "renorm", "--family", "xi",
                       "--lambda", lam)
    assert code == 0
    rep = json.loads(out)
    assert rep["product_groups"] == 40 and rep["max_violation"] < 1e-13


def test_verify_martingale_refuses_long_work(capsys, monkeypatch):
    def no_column(*args):
        raise AssertionError("a drift column was built")

    monkeypatch.setattr(martingale, "_drift_column", no_column)
    code, out, err = run(capsys, "verify", "martingale", "--family",
                         "P_lambda", "--lambda", "0.5", "--nmax", "100")
    assert code == 2 and out == ""
    assert err.startswith("error: exact residuals to degree 100 at lam = 0.5")


def test_verify_fock_passes(capsys):
    code, out, _ = run(capsys, "verify", "fock", "--family", "mu",
                       "--lambda", "0.5", "--theta", "0.4", "--kmax", "8")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_difference"] < rep["tol"]


@pytest.mark.parametrize("theta", ["1e-30", "1e-60", "1e-100"])
def test_verify_fock_mu_at_small_theta(capsys, theta):
    # The squared norms of mu underflow here: extraction from mu itself
    # stopped with "lost positivity at index 6 / 3 / 2".  The data come
    # from nu_theta, mapped by the support of mu; the quadrature moments of
    # mu stay the other side of the comparison.
    code, out, _ = run(capsys, "verify", "fock", "--family", "mu",
                       "--lambda", "0.5", "--theta", theta)
    assert code == 0
    assert json.loads(out)["max_difference"] <= 2.3e-16


def test_verify_martingale_orthogonal_family_passes(capsys):
    code, out, _ = run(capsys, "verify", "martingale", "--family", "Q_lambda",
                       "--lambda", "0.5", "--nmax", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_residual"] == 0.0


def test_verify_martingale_shifted_family_fails(capsys):
    code, out, _ = run(capsys, "verify", "martingale", "--family", "P_lambda",
                       "--lambda", "0.5", "--nmax", "2")
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] is False
    assert rep["max_residual"] > 1.0


def test_verify_martingale_general_theta(capsys):
    # Q_lambda_theta reads --theta: its mean-shift residual is an exact zero
    # at theta != 1/2.  The theta = 1/2 families ignore --theta (the exit
    # codes of Finding 2 at any theta), and every report records it.
    code, out, _ = run(capsys, "verify", "martingale", "--family",
                       "Q_lambda_theta", "--lambda", "0.5", "--theta", "0.4")
    rep = json.loads(out)
    assert code == 0 and rep["max_residual"] == 0.0
    assert rep["theta"] == 0.4 and rep["n_max"] == 15
    for family, lam, want in (("Q_lambda", "0.5", 0), ("P_lambda", "0.5", 1),
                              ("P_lambda", "1.0", 0)):
        code, out, _ = run(capsys, "verify", "martingale", "--family", family,
                           "--lambda", lam, "--theta", "0.3", "--nmax", "6")
        assert code == want and json.loads(out)["theta"] == 0.3


def test_verify_flows_symmetric_point_passes(capsys):
    code, out, _ = run(capsys, "verify", "flows", "--lambda", "1.0",
                       "--theta", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert rep["max_z_residual"] < rep["tol_z"]
    assert rep["max_k_residual"] < rep["tol_k"]


def test_verify_flows_displayed_variant_fails_off_symmetric(capsys):
    code, out, _ = run(capsys, "verify", "flows", "--lambda", "0.6",
                       "--theta", "0.4")
    assert code == 1
    rep = json.loads(out)
    assert rep["max_k_residual"] > rep["tol_k"]
    assert rep["max_z_residual"] < rep["tol_z"]  # Z itself is fine


def test_verify_flows_ode_variant_passes_everywhere(capsys):
    for lam, th in (("0.6", "0.4"), ("0.5", "0.5")):
        code, out, _ = run(capsys, "verify", "flows", "--lambda", lam,
                           "--theta", th, "--variant", "ode")
        assert code == 0, out


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run(capsys, "moments", "--family", "mu",
                       "--lambda", "1.7")
    assert code == 2
    assert "error:" in err


def test_out_of_range_flow_parameter_exit_2(capsys):
    # r beyond 4 lambda theta^2 is rejected inside the suite.
    code, _, err = run(capsys, "verify", "flows", "--lambda", "0.5",
                       "--theta", "0.4", "--r", "0.9")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "flows", "--lambda", "0.5", "--theta", "0.4", "--ntimes", "0"),
     "ntimes = 0 must be >= 1"),
    (("density", "--lambda", "0.5", "--npoints", "0"),
     "npoints = 0 must be >= 1"),
    (("density", "--lambda", "0.5", "--npoints", "-3"),
     "npoints = -3 must be >= 1"),
    (("verify", "orthogonality", "--lambda", "0.5", "--nmax", "-1"),
     "nmax = -1 must be >= 1"),
    (("verify", "orthogonality", "--lambda", "0.5", "--nmax", "0"),
     "nmax = 0 must be >= 1"),
    (("verify", "fock", "--lambda", "0.5", "--kmax", "0"),
     "kmax = 0 must be >= 1"),
])
def test_empty_input_exit_2(capsys, argv, message):
    # No verdict without a residual or an off-diagonal pair, and no table
    # without a row: each used to exit 0 (a verdict of true, an empty
    # density table) or to fail on an empty max() with a message that named
    # no input.
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("density", "--family", "mu", "--lambda", "1e-300", "--theta", "5e-324"),
     "the support of mu at lam = 1e-300, theta = 5e-324 collapses to the "
     "one float 5e-324"),
    # Accepted (message None): nu_theta has no normaliser 2 pi lam theta.
    (("moments", "--family", "nu_theta", "--lambda", "1e-300",
      "--theta", "5e-324", "--nmax", "6"), None),
    (("verify", "martingale", "--lambda", "1e-300", "--nmax", "3"),
     "the degree-3 residual at lam = 1e-300 exceeds the float range"),
])
def test_extreme_lambda_exit_2(capsys, argv, message, nu_theta_moments):
    # Inputs inside the domain whose results floats cannot carry: each used
    # to end in a traceback (ZeroDivisionError, OverflowError) with exit 1.
    # 2 pi lam theta underflows to 0 at (1e-300, 5e-324): mu and nu_theta
    # were refused for it, until their densities stopped reading it.
    code, out, err = run(capsys, *argv)
    if message is None:
        assert code == 0 and err == ""
        _assert_exact_moments(argv, out, nu_theta_moments)
        return
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("verify", "flows", "--lambda", "1e-16", "--theta", "0.5"),
     "(r e^t + c1)^2 - 4 c2 cancels to 0.0 in floats"),
    (("verify", "flows", "--lambda", "1e-16", "--theta", "0.3"),
     "(r e^t + c1)^2 - 4 c2 cancels to 0.0 in floats"),
    (("verify", "orthogonality", "--family", "P_lambda", "--lambda", "1e-200"),
     "the degree-12 Gram matrix under xi[1e-200] exceeds the float range"),
    (("moments", "--family", "xi", "--lambda", "1e-300", "--nmax", "6"),
     "moment m_3 of xi[1e-300] exceeds the float range"),
])
def test_results_beyond_floats_exit_2(capsys, argv, message):
    # Inputs inside the domain whose results floats cannot carry: the flows
    # ended in a ZeroDivisionError traceback (exit 1), the orthogonality
    # report carried "max_offdiag": NaN, which is not JSON (exit 1), and the
    # moment table printed inf from m_3 on (exit 0).
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (("density", "--family", "mu", "--lambda", "1e-300"),
     "the support of mu at lam = 1e-300, theta = 0.5 collapses to the one "
     "float 0.5000000000000001"),
    (("density", "--family", "mu", "--lambda", "5e-324"),
     "the support of mu at lam = 5e-324, theta = 0.5 collapses"),
    # Accepted (message None): nu_theta was refused where the scale d^2 of
    # nu_map underflows to 0, and missed its mass check where d^2 is
    # subnormal (1e-162); its density no longer reads d.
    (("moments", "--family", "nu_theta", "--lambda", "1", "--theta", "5e-324",
      "--nmax", "6"), None),
    (("moments", "--family", "nu_theta", "--lambda", "0.5",
      "--theta", "1e-170", "--nmax", "6"), None),
    (("verify", "renorm", "--family", "nu_theta", "--lambda", "1",
      "--theta", "5e-324"), None),
    (("verify", "renorm", "--family", "nu_theta", "--lambda", "0.5",
      "--theta", "1e-170"), None),
    (("verify", "orthogonality", "--family", "P_lambda",
      "--lambda", "5e-324"),
     "the degree-12 Gram matrix under xi[5e-324] exceeds the float range"),
    (("moments", "--family", "nu_theta", "--lambda", "1",
      "--theta", "1e-162", "--nmax", "6"), None),
])
def test_float_edge_names_its_cause(capsys, argv, message, nu_theta_moments):
    # Each used to name another cause: "total mass 0.0 is not 1" for the
    # collapsed support of mu, two RuntimeWarnings and "quadrature did not
    # settle" (or a wrong mass) for nu_theta, and a node doubling to the
    # budget, then "quadrature did not settle", for the Gram matrix.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if message is None:
        assert code == 0 and err == ""
        if argv[0] == "moments":
            _assert_exact_moments(argv, out, nu_theta_moments)
        else:
            assert json.loads(out)["verdict"] is True
        return
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, message", [
    (("density", "--family", "mu", "--lambda", "1", "--theta", "5e-324"),
     "the support of mu at lam = 1.0, theta = 5e-324 is 1.98e-323 wide: the "
     "edge distances of its quadrature nodes, down to 5.8e-38 of that, "
     "underflow"),
    (("density", "--family", "mu", "--lambda", "0.5", "--theta", "1e-310"),
     "the support of mu at lam = 0.5, theta = 1e-310 is 2.83e-310 wide: the "
     "edge distances of its quadrature nodes, down to 5.8e-38 of that, "
     "underflow"),
    (("verify", "fock", "--family", "xi", "--lambda", "1e-300"),
     "the degree-3 Stieltjes sums under xi[1e-300] exceed the float range "
     "at the atom x = 7.07e+149"),
])
def test_float_overflow_names_its_cause(capsys, argv, message):
    # Each used to print numpy RuntimeWarnings and double its nodes to the
    # budget, then blame the quadrature (mu) or n_max (the Fock extraction):
    # now stderr is the one error line.  Where 2 pi lam theta is subnormal,
    # the support of mu is too, and mu names the edge distances of its
    # nodes, which underflow.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, message", [
    (("density", "--family", "mu", "--lambda", "0.9999999999999999",
      "--theta", "1e-300"),
     "the support of mu at lam = 0.9999999999999999, theta = 1e-300 is "
     "4e-300 wide: the edge distances of its quadrature nodes, down to "
     "5.8e-38 of that, underflow"),
    # Accepted (message None): the scale d^2 of nu_map is subnormal, and mu
    # was refused for it; its density no longer reads d.
    (("moments", "--family", "mu", "--lambda", "1", "--theta", "3e-155"),
     None),
    (("moments", "--family", "mu", "--lambda", "0.5", "--theta", "1e-157"),
     None),
    (("verify", "flows", "--lambda", "5e-324", "--theta", "0.5"),
     "the default r = 2 lam theta^2 underflows to 0 at lam = 5e-324, "
     "theta = 0.5"),
    (("verify", "flows", "--lambda", "1", "--theta", "5e-324"),
     "the bound 4 lam theta^2 of r underflows to 0 at lam = 1.0, "
     "theta = 5e-324"),
])
def test_float_underflow_names_its_cause(capsys, argv, message,
                                         nu_theta_moments):
    # mu used to print RuntimeWarnings and report that the quadrature did
    # not settle, report a wrong total mass, or print a table, depending on
    # lam; verify flows reported "r = 0.0 outside (0, ...]" for an r that no
    # option had set.  Now stderr is the one error line.  mu names the edge
    # distances of its quadrature nodes where they underflow.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if message is None:
        assert code == 0 and err == ""
        _assert_exact_moments(argv, out, nu_theta_moments)
        return
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("density", "--family", "nu", "--theta", "-3"),
    ("moments", "--family", "nu", "--theta", "0.9"),
    ("verify", "renorm", "--family", "xi", "--theta", "0.9"),
    ("verify", "martingale", "--family", "Q_lambda", "--theta", "0.9"),
    ("verify", "orthogonality", "--family", "Q_lambda", "--theta", "0.9"),
])
def test_theta_checked_for_every_family(capsys, argv):
    # The theta = 1/2 families never read theta; they used to exit 0 and
    # print the invalid theta in their tables and reports.
    code, out, err = run(capsys, *argv, "--lambda", "0.5")
    assert code == 2 and out == ""
    assert f"theta = {float(argv[-1])} outside (0, 1/2]" in err


@pytest.mark.parametrize("suite, flag", [
    (("orthogonality", "--nmax", "2"), "--tol"), (("renorm",), "--tol"),
    (("fock", "--kmax", "4"), "--tol"), (("martingale", "--nmax", "2"), "--tol"),
    (("flows", "--ntimes", "1"), "--tol"), (("flows", "--ntimes", "1"), "--tol-z"),
], ids=["orthogonality", "renorm", "fock", "martingale", "flows", "flows_z"])
@pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
def test_verify_rejects_bad_tolerance(capsys, suite, flag, value):
    # A tolerance that is NaN, <= 0 or infinite makes every verdict vacuous
    # (always false, or always true): `verify fock --tol nan` used to exit 1
    # with a max_difference of 2.2e-16, `verify martingale --tol -1` too.
    code, out, err = run(capsys, "verify", *suite, flag, value,
                         "--lambda", "0.5")
    assert code == 2 and out == ""
    name = flag[2:].replace("-", "_")
    assert err == (f"error: {name} = {float(value)} must be positive and "
                   "finite\n")


def test_verify_tol_defaults_in_reports(capsys):
    for argv, key, tol in [
            (("orthogonality", "--family", "Q_lambda", "--nmax", "3"), "tol", 1e-9),
            (("fock", "--kmax", "4"), "tol", 1e-8),
            (("martingale", "--nmax", "2"), "tol", 1e-9),
            (("flows", "--ntimes", "1"), "tol_k", 1e-6),
            (("flows", "--ntimes", "1"), "tol_z", 1e-7)]:
        _, out, _ = run(capsys, "verify", *argv, "--lambda", "1.0")
        assert json.loads(out)[key] == tol


# ---------------------------------------------------------------------------
# Simulation outputs


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_simulate_writes_artifacts(tmp_path, capsys):
    base = tmp_path / "run"
    code, out, _ = run(capsys, "simulate", "--lambda", "1.0", "--d", "24",
                       "--trials", "4", "--times", "0,0.1", "--bins", "10",
                       "--out", str(base))
    assert code == 0
    spectrum = tmp_path / "run_spectrum.csv"
    series = tmp_path / "run_series.csv"
    manifest = tmp_path / "run_manifest.json"
    assert spectrum.exists() and series.exists() and manifest.exists()

    man = json.loads(manifest.read_text())
    assert man["schema"] == REPORT_SCHEMA
    assert man["d"] == 24 and man["trials"] == 4
    assert isinstance(man["ks_distance"], float)
    assert "KS distance" in out

    rows = [ln for ln in spectrum.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("bin_")]
    assert len(rows) == 10
    counts = [int(r.split(",")[2]) for r in rows]
    assert sum(counts) == 4 * 12    # trials * p_rank

    srows = [ln for ln in series.read_text().splitlines()
             if ln and not ln.startswith("#") and not ln.startswith("t,")]
    assert len(srows) == 2
    t, mean, err = map(float, srows[0].split(","))
    assert t == 0.0 and err >= 0.0


def test_simulate_skips_series_without_times(tmp_path, capsys):
    base = tmp_path / "bare"
    code, _, _ = run(capsys, "simulate", "--lambda", "0.5", "--d", "16",
                     "--trials", "2", "--times", "", "--out", str(base))
    assert code == 0
    assert not (tmp_path / "bare_series.csv").exists()
    man = json.loads((tmp_path / "bare_manifest.json").read_text())
    assert man["files"] == [str(base) + "_spectrum.csv"]


def test_simulate_byte_deterministic(tmp_path, capsys):
    args = ("simulate", "--lambda", "0.8", "--d", "20", "--trials", "3",
            "--times", "0,0.05", "--seed", "9")
    code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == code2 == 0
    for suffix in ("_spectrum.csv", "_series.csv"):
        assert _read_bytes(str(tmp_path / f"a{suffix}")) == \
            _read_bytes(str(tmp_path / f"b{suffix}"))
    ma = json.loads((tmp_path / "a_manifest.json").read_text())
    mb = json.loads((tmp_path / "b_manifest.json").read_text())
    ma.pop("files"), mb.pop("files")
    assert ma == mb


def test_simulate_evolved_spectra(tmp_path, capsys, monkeypatch,
                                  eigh_bm_reference):
    # --t > 0 evolves the p observed rows; the spectra must be those of the
    # full d x d path evolved by eigendecomposition on the same stream.
    seen = []

    def recording(state, w=None):
        vals = jacobi_spectrum(state, w)
        seen.append(vals)
        return vals

    monkeypatch.setattr("freejacobi.simulator.jacobi_spectrum", recording)
    base = tmp_path / "evolved"
    files = [f"{base}_spectrum.csv", f"{base}_manifest.json"]
    args = ("simulate", "--lambda", "0.5", "--d", "24", "--trials", "3",
            "--t", "0.2", "--times", "", "--bins", "12", "--seed", "4",
            "--out", str(base))
    assert run(capsys, *args)[0] == 0
    first = [_read_bytes(f) for f in files]
    assert run(capsys, *args)[0] == 0
    assert [_read_bytes(f) for f in files] == first

    man = json.loads(first[1])
    counts = [int(r[2]) for r in csv.reader(
        ln for ln in first[0].decode().splitlines()
        if ln and not ln.startswith(("#", "bin_")))]
    assert sum(counts) == man["p_rank"] * 3 == 18

    # One spectrum per trial and run: the path is sampled once per trial.
    assert len(seen) == 6
    for i, vals in enumerate(seen[:3]):
        rng = np.random.default_rng([4, i])
        state = make_state(0.5, 0.5, 24, rng)
        y = eigh_bm_reference(np.eye(24, dtype=complex), 1e-2, 20, rng)
        c = (state.U @ y)[:state.p_rank, :state.q_rank]
        want = np.linalg.eigvalsh(c @ c.conj().T)
        assert np.max(np.abs(vals - want)) <= 1e-12


def test_simulate_samples_each_trial_once(tmp_path, capsys, monkeypatch):
    # The spectra at --t and the trace series share one path per trial.
    from freejacobi import simulator

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return make_state(*args, **kwargs)

    monkeypatch.setattr(simulator, "make_state", counting)
    code, _, _ = run(capsys, "simulate", "--lambda", "0.5", "--d", "20",
                     "--trials", "3", "--t", "0.15", "--times", "0,0.1,0.3",
                     "--out", str(tmp_path / "once"))
    assert code == 0
    assert len(calls) == 3


@pytest.mark.parametrize("flag, value, message", [
    ("--dt", "0", "dt must be positive"),
    ("--dt", "-0.01", "dt must be positive"),
    ("--t", "-0.5", "t must be nonnegative"),
])
def test_simulate_rejects_bad_times(tmp_path, capsys, flag, value, message):
    # Rejected before any sampling: otherwise dt = 0 divides by zero, a
    # negative dt never evolves the paths, and a negative --t labels the
    # t = 0 spectra with a negative time.
    code, _, err = run(capsys, "simulate", "--lambda", "0.5", "--d", "8",
                       "--trials", "1", flag, value, "--times", "0,0.1",
                       "--out", str(tmp_path / "bad"))
    assert code == 2
    assert message in err


def test_simulate_missing_out_directory_fails_fast(tmp_path, capsys):
    start = time.monotonic()
    code, _, err = run(capsys, "simulate", "--lambda", "0.5", "--d", "200",
                       "--trials", "50", "--out",
                       str(tmp_path / "missing" / "run"))
    assert code == 2
    assert "error:" in err and "missing" in err
    assert time.monotonic() - start < 2.0


@pytest.mark.parametrize("flags, message", [
    (("--bins", "0"), "bins = 0 must be >= 1"),
    (("--theta", "0.9"), "theta = 0.9 outside (0, 1/2]"),
])
def test_simulate_rejects_input_before_sampling(tmp_path, capsys,
                                                monkeypatch, flags, message):
    # --bins 0 used to fail only after the whole Monte Carlo, and --theta 0.9
    # used to run and exit 0 with a null KS distance.  Neither samples now,
    # and the theta note is not printed.
    calls = []
    monkeypatch.setattr("freejacobi.simulator.make_state",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "simulate", "--lambda", "0.5", "--d", "16",
                         "--trials", "2", *flags, "--out", str(tmp_path / "r"))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_simulate_notes_theta_rescaling(tmp_path, capsys):
    base = str(tmp_path / "th")
    common = ("simulate", "--lambda", "0.5", "--d", "20", "--trials", "2")
    code, _, err = run(capsys, *common, "--theta", "0.4", "--times", "0,0.05",
                       "--out", base)
    assert code == 0
    assert len(err.splitlines()) == 1 and "theta = 1/2" in err
    code, _, err = run(capsys, *common, "--theta", "0.4", "--times", "",
                       "--out", base)
    assert code == 0 and err == ""
    code, _, err = run(capsys, *common, "--times", "0,0.05", "--out", base)
    assert code == 0 and err == ""


def test_simulate_general_theta_family(tmp_path, capsys):
    # Q_lambda_theta rescales by the map of the theta it is sampled at, so
    # the theta = 1/2 note is not printed for it.
    base = str(tmp_path / "gt")
    code, out, err = run(capsys, "simulate", "--lambda", "0.5", "--theta",
                         "0.4", "--d", "20", "--trials", "2", "--times",
                         "0,0.05", "--family", "Q_lambda_theta", "--out", base)
    assert code == 0 and err == "" and out.startswith("KS distance")
    with open(base + "_manifest.json") as fh:
        assert json.load(fh)["family"] == "Q_lambda_theta"
    with open(base + "_series.csv") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert rows[0] == ["t", "mean", "stderr"] and len(rows) == 3


def test_simulate_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FJL_SEED", "123")
    base = tmp_path / "env"
    code, _, _ = run(capsys, "simulate", "--lambda", "0.5", "--d", "16",
                     "--trials", "2", "--times", "", "--out", str(base))
    assert code == 0
    man = json.loads((tmp_path / "env_manifest.json").read_text())
    assert man["seed"] == 123


def test_malformed_seed_environment(tmp_path, capsys, monkeypatch):
    # Only simulate reads FJL_SEED; a value that is not an integer used to
    # end every subcommand in a traceback with exit code 1.
    monkeypatch.setenv("FJL_SEED", "abc")
    code, out, _ = run(capsys, "density", "--lambda", "0.5", "--npoints", "4")
    assert code == 0 and len(out.splitlines()) == 7
    code, out, err = run(capsys, "simulate", "--lambda", "0.5", "--d", "8",
                         "--trials", "1", "--out", str(tmp_path / "r"))
    assert code == 2 and out == ""
    assert err == "error: FJL_SEED = 'abc' is not an integer\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Dependencies


def test_cli_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy serves the test oracles.
    probe = ("import sys, freejacobi.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_cli_import_does_not_load_concurrent_futures():
    # Only a Brownian path needs the drawing worker, so its executor module
    # is imported there and not on the way to any other subcommand.
    probe = ("import sys, freejacobi.cli; "
             "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
