"""Finite truncation of the one-mode interacting Fock space of a measure.

Levels Phi_0, Phi_1, ..., Phi_{dim-1} carry the weighted inner product
<Phi_n, Phi_n> = lambda_n = omega_1 * ... * omega_n (lambda_0 = 1).  The
creation operator raises a level, the annihilation operator lowers with
weight omega, and the shift operator multiplies level n by alpha_n.  The
vacuum moments of their sum, <Phi_0, (a+ + a + alpha_N)^k Phi_0>, are
exactly the moments of the underlying measure, which is the moment
equivalence checked by the test suite.  They are computed on the level
basis itself, with no square root, so exact (rational) Jacobi data give
exact moments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recurrence import JacobiSzego

__all__ = ["FockSpace", "build_fock", "vacuum_moments"]


@dataclass(frozen=True, eq=False)
class FockSpace:
    js: JacobiSzego
    dim: int
    weights: np.ndarray   # weights[n] = lambda_n, n = 0..dim-1

    def creation(self):
        """Matrix of a+ on the level basis: Phi_n -> Phi_{n+1}."""
        m = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        m[idx + 1, idx] = 1.0
        return m

    def annihilation(self):
        """Matrix of a: Phi_{n+1} -> omega_{n+1} Phi_n, a Phi_0 = 0."""
        m = np.zeros((self.dim, self.dim))
        idx = np.arange(self.dim - 1)
        m[idx, idx + 1] = self.js.omega[: self.dim - 1]
        return m

    def number_op(self):
        return np.diag(np.arange(self.dim, dtype=float))

    def shift_op(self):
        """alpha_N: Phi_n -> alpha_n Phi_n."""
        return np.diag(self.js.alpha[: self.dim])


def build_fock(js, dim):
    """Fock data of depth dim over the given recurrence coefficients."""
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if js.alpha.size < dim or js.omega.size < dim - 1:
        raise ValueError(
            f"dim = {dim} exceeds available coefficients "
            f"(alpha: {js.alpha.size}, omega: {js.omega.size})")
    weights = np.concatenate([[1.0], np.cumprod(js.omega[: dim - 1])])
    return FockSpace(js, int(dim), weights)


def vacuum_moments(f, n_max):
    """Vacuum moments m_k = <Phi_0, (a+ + a + alpha_N)^k Phi_0>, k <= n_max:
    the level-0 coordinate of a walk on the level basis that starts at
    Phi_0 and at each step sends the coordinates v to

        v_i <- v_{i-1} + alpha_i v_i + omega_{i+1} v_{i+1}.

    No square root is taken, so the moments have the scalar type of the
    recurrence data: Fractions give exact moments, as object arrays.

    A k-step nearest-neighbor walk from level 0 that returns to level 0
    reaches at most level k/2, so dim >= n_max/2 + 1 guarantees the
    truncation is invisible; smaller dims are rejected.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if f.dim < n_max // 2 + 1:
        raise ValueError(
            f"dim = {f.dim} too small for n_max = {n_max}; "
            f"need at least {n_max // 2 + 1}")
    alpha, omega = f.js.alpha[: f.dim], f.js.omega[: f.dim - 1]
    v = np.zeros(f.dim, dtype=np.result_type(alpha, omega))
    v[0] = 1
    out = [v[0]]
    for _ in range(n_max):
        w = alpha * v
        w[1:] += v[:-1]
        w[:-1] += omega * v[1:]
        v = w
        out.append(v[0])
    return np.array(out, dtype=v.dtype)
