import math

import hypothesis
import numpy as np
import pytest

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
