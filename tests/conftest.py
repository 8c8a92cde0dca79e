import math
from fractions import Fraction

import hypothesis
import numpy as np
import pytest

from freejacobi.exact import exact_sqrt
from freejacobi.simulator import _MAX_SUBSTEP_NORM, _retract

# Reproducible CI: fixed derandomized search, no per-example deadline (the
# quadrature-backed properties have very uneven call times).
hypothesis.settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
)
hypothesis.settings.load_profile("ci")


def _gaussian_hermitian(rng, d):
    """H = (A + A*) / sqrt(4 d) for A = G_re + i G_im, on the draws of one
    step of freejacobi.evolve_unitary_bm."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a + a.conj().T) / math.sqrt(4.0 * d)


def _eigh_bm_reference(y, dt, steps, seed):
    """The library's Brownian step by an independent route: for
    H = V diag(w) V*, the cubic T_3(z) = 1 + z + z^2/2 + z^3/6 at the
    eigenvalues z = i tau w / s, applied through V, and after each of the s
    sub-steps the rows orthonormalised by Cholesky (M M* = L L*, rows
    L^-1 M), on the same Gaussian draws and sub-step count as
    freejacobi.evolve_unitary_bm.  The reference its step is compared
    against."""
    y = np.array(y, dtype=complex)
    d = y.shape[1]
    rng = np.random.default_rng(seed)
    root_dt = math.sqrt(dt)
    for _ in range(steps):
        h = _gaussian_hermitian(rng, d)
        rho = root_dt * float(np.abs(h).sum(axis=0).max())
        substeps = max(1, math.ceil(rho / _MAX_SUBSTEP_NORM))
        w, v = np.linalg.eigh(h)
        z = 1j * root_dt * w / substeps
        t3 = (v * (1.0 + z + z * z / 2.0 + z ** 3 / 6.0)) @ v.conj().T
        for _ in range(substeps):
            m = y @ t3
            y = np.linalg.solve(np.linalg.cholesky(m @ m.conj().T), m)
    return y


def _exp_bm_reference(y, dt, steps, seed):
    """The exact unitary Brownian step: Y <- Y V diag(e^{i tau w}) V* for
    H = V diag(w) V*, on the same Gaussian draws as
    freejacobi.evolve_unitary_bm.  The path its cubic step stays near."""
    y = np.array(y, dtype=complex)
    d = y.shape[1]
    rng = np.random.default_rng(seed)
    root_dt = math.sqrt(dt)
    for _ in range(steps):
        w, v = np.linalg.eigh(_gaussian_hermitian(rng, d))
        y = y @ (v * np.exp(1j * root_dt * w)) @ v.conj().T
    return y


@pytest.fixture
def exp_bm_reference():
    return _exp_bm_reference


@pytest.fixture
def eigh_bm_reference():
    return _eigh_bm_reference


def _serial_bm_reference(y, dt, steps, seed=None):
    """freejacobi.evolve_unitary_bm written out as one plain loop: draw,
    assemble and apply each increment in turn.  The reference the library's
    form must equal bit for bit, with the generator left in the same
    state."""
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
        for _ in range(substeps):
            w = _retract(w, x)
    return w


@pytest.fixture
def serial_bm_reference():
    return _serial_bm_reference


def _jacobi_moments(alpha0, omega1, n):
    """Moments m_0..m_n of the law with monic Jacobi data alpha_0, omega_1,
    then alpha = 0 and omega = 1/4, exact over the data's scalar type (a
    float is read at its binary value), as floats.  m_k is (T^k)_00 for the
    tridiagonal T with diagonal alpha, 1 above and omega below it:
    m_1 = alpha_0, m_2 = alpha_0^2 + omega_1, ..."""
    alpha0, omega1 = (Fraction(v) if isinstance(v, float) else v
                      for v in (alpha0, omega1))
    alpha = [alpha0] + [0] * n
    omega = [0, omega1] + [Fraction(1, 4)] * n
    v = [1] + [0] * (n + 1)
    out = []
    for _ in range(n + 1):
        out.append(float(v[0]))
        v = [alpha[i] * v[i] + v[i + 1] + omega[i] * v[i - 1]
             for i in range(n + 1)] + [0]
    return np.array(out)


@pytest.fixture
def jacobi_moments():
    return _jacobi_moments


def _nu_theta_moments(lam, theta, n):
    """Moments m_0..m_n of nu_{lam,theta}, exact, as floats: those of its
    Jacobi data as displayed, alpha_0 = b = sqrt(lam/((1-theta)
    (1-lam theta))) (2 theta - 1)/2 and omega_1 = 1/(4(1 - lam theta)), at
    the binary-float values of lam and theta."""
    lam, theta = Fraction(lam), Fraction(theta)
    b = exact_sqrt(lam / ((1 - theta) * (1 - lam * theta))) * (2 * theta - 1) / 2
    return _jacobi_moments(b, 1 / (4 * (1 - lam * theta)), n)


@pytest.fixture
def nu_theta_moments():
    return _nu_theta_moments
