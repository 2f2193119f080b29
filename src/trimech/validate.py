"""Independent cross-checks for the covariance pipeline.

Two oracles validate the production Lyapunov solver:

* ``lyapunov_direct`` solves the vectorized 36-unknown linear system
  (I (x) A + A (x) I) vec(V) = -vec(D) by dense factorization - a
  different algorithm with different roundoff behaviour.
* ``integrate_moments`` integrates the moment flow dV/dt = A V + V A^T + D
  with classical fixed-step RK4 until the horizon or convergence.  For a
  stable system the RK4 fixed point coincides with the exact stationary
  covariance (Runge-Kutta methods preserve fixed points of affine flows),
  so the time-domain limit is a genuine third route to V.

The moment flow is linear in vec(V), so one RK4 step is the affine map
v -> M v + b with constant M and b.  N steps are applied exactly through
binary composition (repeated squaring of the affine map), which makes
horizons of ~1/gamma reachable even for gamma ~ 1e-8 while remaining
bit-for-bit a fixed-step RK4 trajectory sampled at power-of-two times.
Per-step symmetrization of V is itself linear and is folded into the map.
"""

import math

import numpy as np

from .errors import NumericalError, UnstableSystemError

#: norm beyond which the moment flow is declared divergent
DIVERGENCE_NORM = 1e12

#: bounds `trimech validate` puts on `cross_check`'s algebraic pair and
#: moment-flow discrepancies
PAIR_TOL = 1e-10
ODE_TOL = 1e-8


def lyapunov_direct(A, D) -> np.ndarray:
    """Solve A V + V A^T = -D through the Kronecker-vectorized system."""
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(A, eye) + np.kron(eye, A)
    try:
        v = np.linalg.solve(K, -D.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"vectorized Lyapunov system is singular: {exc}") from exc
    V = v.reshape(n, n)
    return 0.5 * (V + V.T)


def _symmetrizer(n):
    """Matrix P with P vec(V) = vec((V + V^T)/2) for row-major vec."""
    P = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            P[i * n + j, i * n + j] += 0.5
            P[i * n + j, j * n + i] += 0.5
    return P


def _rk4_affine_map(A, D, dt):
    """One RK4 step of dv/dt = K v + d as the affine map v -> M v + b."""
    n = A.shape[0]
    eye = np.eye(n)
    K = np.kron(A, eye) + np.kron(eye, A)
    d = D.reshape(-1)
    hK = dt * K
    eye_big = np.eye(n * n)
    hK2 = hK @ hK
    hK3 = hK2 @ hK
    hK4 = hK3 @ hK
    M = eye_big + hK + hK2 / 2.0 + hK3 / 6.0 + hK4 / 24.0
    b = (eye_big + hK / 2.0 + hK2 / 6.0 + hK3 / 24.0) @ (dt * d)
    P = _symmetrizer(n)
    return P @ M, P @ b


def integrate_moments(A, D, V0=None, dt=None, horizon=None) -> np.ndarray:
    """Covariance V(T) from the moment flow dV/dt = A V + V A^T + D.

    Starts from V0 (zero matrix by default), runs classical RK4 with
    per-step symmetrization, and returns V at the horizon T.  The step
    `dt` defaults to 1e-2 / max(|eig|, 1), which resolves the fastest
    mode, and `horizon` to fifty relaxation times of the slowest one
    (50 / |max Re eig|), which lands on the RK4 fixed point to machine
    accuracy; either, when given, must be positive (ValueError).
    Unbounded growth raises UnstableSystemError, mirroring the algebraic
    stability verdict.
    """
    if dt is not None and not dt > 0:
        raise ValueError("dt must be positive")
    if horizon is not None and not horizon > 0:
        raise ValueError("horizon must be positive")
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    n = A.shape[0]

    lam = np.linalg.eigvals(A)
    if dt is None:
        dt = 1e-2 / max(np.abs(lam).max(), 1.0)
    if horizon is None:
        horizon = 50.0 / max(abs(lam.real.max()), 1e-15)

    steps = max(1, math.ceil(horizon / dt))
    # Exact step count caps at 2^63; beyond that the flow has either
    # converged or diverged long before.
    steps = min(steps, 2 ** 63)

    v = np.zeros(n * n) if V0 is None else np.asarray(V0, dtype=float).reshape(-1)
    M, b = _rk4_affine_map(A, D, dt)

    remaining = steps
    while remaining:
        if remaining & 1:
            v = M @ v + b
            if not np.all(np.isfinite(v)) or np.abs(v).max() > DIVERGENCE_NORM:
                raise UnstableSystemError(
                    "moment flow diverged; system has no stationary state")
        remaining >>= 1
        if remaining:
            b = M @ b + b
            M = M @ M
            if not np.all(np.isfinite(M)):
                raise UnstableSystemError(
                    "moment flow diverged; system has no stationary state")

    V = v.reshape(n, n)
    return 0.5 * (V + V.T)


def cross_check(A, D, dt=None):
    """Three-way solver agreement at one (A, D) instance.

    Returns a dict with the relative max-norm discrepancies of the
    production eigenbasis solver and of the moment-flow limit from the
    direct solve, and raises nothing: callers decide what to assert.  `dt`
    is the moment-flow step of `integrate_moments`; a coarser step
    improves the conditioning of its fixed point on stiff spectra without
    moving the limit.
    """
    from .linear import solve_lyapunov

    V_prod = solve_lyapunov(A, D)
    V_kron = lyapunov_direct(A, D)
    V_ode = integrate_moments(A, D, dt=dt)
    scale = max(np.abs(V_kron).max(), np.finfo(float).tiny)
    return {
        "algebraic_pair": float(np.abs(V_prod - V_kron).max() / scale),
        "ode_vs_direct": float(np.abs(V_ode - V_kron).max() / scale),
    }
