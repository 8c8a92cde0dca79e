"""Layer spans around the calls between freejacobi modules.

The tracer patches, from outside the package, every function one
freejacobi module imports from another (``renorm.cauchy_transform``,
``cli.extract_from_measure``, ...), the simulator entry points it calls on
itself, and the unitarity check every simulator state runs.  Each call
records a span (name, layer, start, end, parent, op id) in memory; the
layer is the module that defines the callee.

Counters ride on the same boundaries: density evaluation points (through
the measure constructors the other modules import, so the count does not
depend on which quadrature rule the measures module uses) and Brownian
steps.  Nothing here imports numpy, so a traced child process imports the
package exactly as an untraced one does.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

MODULES = ("polys", "exact", "measures", "renorm", "recurrence", "fock",
           "martingale", "simulator", "cli")

# Called with a function value that is stored and called per quadrature node;
# a span per call would measure the tracer, not the layer.
_NOT_BOUNDARIES = {("cli", "rho_trig")}

_MEASURE_CONSTRUCTORS = {"mu_lambda_theta", "nu_lambda", "nu_lambda_theta",
                         "xi_lambda"}

# Simulator entry points that simulator itself calls (trace series, state).
_SIMULATOR_SELF = ("sample_haar_unitary", "evolve_unitary_bm",
                   "jacobi_spectrum", "make_state")


class Tracer:
    """Spans and counters of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, op]
        self.counts = {"density_points": 0, "bm_steps": 0}
        self._stack = []
        self.op = None

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer):
        idx = self.open(name, layer)
        try:
            yield
        finally:
            self.close(idx)

    def export(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def _counting_measure(tracer, m):
    """Replace the density callables of a (frozen) measure by counting ones
    (a numpy argument counts its size, a scalar one point)."""
    dens, edges = m.density, m.density_edges

    def density(x):
        tracer.counts["density_points"] += getattr(x, "size", 1)
        return dens(x)

    object.__setattr__(m, "density", density)
    if edges is not None:
        def density_edges(x, dlo, dhi):
            tracer.counts["density_points"] += getattr(x, "size", 1)
            return edges(x, dlo, dhi)

        object.__setattr__(m, "density_edges", density_edges)
    return m


def _wrap(tracer, fn, name, layer):
    short = name.rsplit(".", 1)[1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name, layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if short in _MEASURE_CONSTRUCTORS:
            _counting_measure(tracer, out)
        elif short == "evolve_unitary_bm":
            tracer.counts["bm_steps"] += int(
                kwargs["steps"] if "steps" in kwargs else args[2])
        return out

    return wrapper


def install(tracer):
    """Patch every cross-module boundary of freejacobi to record spans;
    returns a function that puts the original functions back."""
    mods = {m: importlib.import_module(f"freejacobi.{m}") for m in MODULES}
    patches = []

    def patch(owner, attr, name, layer):
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, _wrap(tracer, original, name, layer))

    for short, mod in mods.items():
        for attr, value in list(vars(mod).items()):
            if not inspect.isfunction(value) or (short, attr) in _NOT_BOUNDARIES:
                continue
            home = value.__module__
            if home.startswith("freejacobi.") and home != mod.__name__:
                patch(mod, attr, f"{short}.{attr}", home.split(".", 1)[1])
    sim = mods["simulator"]
    for attr in _SIMULATOR_SELF:
        patch(sim, attr, f"simulator.{attr}", "simulator")
    patch(sim.MatrixProcessState, "__post_init__", "simulator.state_check",
          "simulator")

    def restore():
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore


def summarize(exports, n_ops, op_seconds):
    """Per-op layer metrics from the exports of one or more processes.

    ``op_seconds`` is the summed latency of the traced ops as the benchmark
    measured it; the share of it not covered by a span directly under an op
    span is reported as unattributed.
    """
    layer_calls, layer_self, fn_calls, fn_ms = {}, {}, {}, {}
    counts = {"density_points": 0, "bm_steps": 0}
    attributed = 0.0
    for ex in exports:
        spans = ex["spans"]
        for key in counts:
            counts[key] += ex["counts"][key]
        dur = [s[3] - s[2] for s in spans]
        covered = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[4] >= 0:
                covered[s[4]] += dur[i]
        for i, (name, layer, _, _, parent, _) in enumerate(spans):
            if layer == "op":
                continue
            if parent >= 0 and spans[parent][1] == "op":
                attributed += dur[i]
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0.0) + dur[i] - covered[i]
            fn = name.rsplit(".", 1)[1]
            fn_calls[fn] = fn_calls.get(fn, 0) + 1
            fn_ms[fn] = fn_ms.get(fn, 0.0) + 1e3 * dur[i]

    n = max(n_ops, 1)

    def calls(fn):
        return fn_calls.get(fn, 0) / n

    def ms(*fns):
        return sum(fn_ms.get(fn, 0.0) for fn in fns) / n

    m_calls = layer_calls.get("measures", 0)
    steps = counts["bm_steps"]
    return {
        "measures.calls": m_calls / n,
        "measures.busy_ms": 1e3 * layer_self.get("measures", 0.0) / n,
        "measures.cauchy_calls": calls("cauchy_transform"),
        "measures.density_points": counts["density_points"] / n,
        "measures.points_per_call":
            counts["density_points"] / m_calls if m_calls else 0.0,
        "measures.cdf_grid_ms": ms("cdf_grid"),
        "recurrence.extract_calls": calls("extract_from_measure"),
        "recurrence.extract_ms": ms("extract_from_measure"),
        "renorm.certify_calls": calls("certify_product_dependence"),
        "renorm.certify_ms": ms("certify_product_dependence"),
        "renorm.gram_calls": calls("family_gram"),
        "renorm.gram_ms": ms("family_gram"),
        "fock.vacuum_ms": ms("vacuum_moments"),
        "martingale.residual_calls": calls("martingale_residual"),
        "martingale.residual_ms": ms("martingale_residual"),
        "martingale.flow_ms": ms("flow_Z_ode_residual", "flow_K_ode_residual"),
        "simulator.haar_calls": calls("sample_haar_unitary"),
        "simulator.haar_ms": ms("sample_haar_unitary"),
        "simulator.bm_steps": steps / n,
        "simulator.bm_ms_per_step":
            fn_ms.get("evolve_unitary_bm", 0.0) / steps if steps else 0.0,
        "simulator.spectrum_calls": calls("jacobi_spectrum"),
        "simulator.spectrum_ms": ms("jacobi_spectrum"),
        "simulator.state_ms": ms("state_check"),
        "trace.unattributed_share":
            1.0 - attributed / op_seconds if op_seconds > 0 else 0.0,
    }
