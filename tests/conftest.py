import math

import hypothesis
import numpy as np
import pytest

from freejacobi.simulator import _MAX_SUBSTEP_NORM, _taylor_action

# Reproducible CI: fixed derandomized search, no per-example deadline (the
# quadrature-backed properties have very uneven call times).
hypothesis.settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("ci")


def _eigh_bm_reference(y, dt, steps, seed):
    """The Brownian step by eigendecomposition: Y <- Y V diag(e^{i tau w}) V*
    for H = V diag(w) V*, on the same Gaussian draws as
    freejacobi.evolve_unitary_bm.  The reference its Taylor action is
    compared against."""
    y = np.array(y, dtype=complex)
    d = y.shape[1]
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    root_dt = math.sqrt(dt)
    for _ in range(steps):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (a + a.conj().T) / math.sqrt(4.0 * d)
        w, v = np.linalg.eigh(h)
        y = y @ (v * np.exp(1j * root_dt * w)) @ v.conj().T
    return y


@pytest.fixture
def eigh_bm_reference():
    return _eigh_bm_reference


def _serial_bm_reference(y, dt, steps, seed=None):
    """freejacobi.evolve_unitary_bm as one serial loop on the calling thread:
    draw, assemble and apply each increment in turn.  The reference its
    two-thread form must equal bit for bit, with the generator left in the
    same state."""
    w = np.array(y, dtype=complex)
    d = w.shape[1]
    rng = np.random.default_rng(seed)
    scale = math.sqrt(dt) / math.sqrt(4.0 * d)
    x = np.empty((d, d), dtype=complex)
    for _ in range(steps):
        g_re, g_im = rng.standard_normal((2, d, d))
        np.subtract(g_im.T, g_im, out=x.real)
        np.add(g_re, g_re.T, out=x.imag)
        x *= scale
        rho = float(np.abs(x).sum(axis=0).max())
        substeps = max(1, math.ceil(rho / _MAX_SUBSTEP_NORM))
        if substeps > 1:
            x /= substeps
            rho /= substeps
        for _ in range(substeps):
            w = _taylor_action(w, x, rho)
    return w


@pytest.fixture
def serial_bm_reference():
    return _serial_bm_reference
