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

Both oracles and ``cross_check`` take stacks of N matrices, (N, n, n);
one (n, n) matrix is the N = 1 case and comes back unstacked.  Rows are
independent: each row's result is bit for bit that of the row passed
alone, and a stack raises the error its first failing row raises alone.
Each row of the moment flow has its own step and horizon, so its own
step count, and leaves the squaring loop once that count's binary digits
are spent.  The (rows, n^2, n^2) Kronecker-size work runs ORACLE_CHUNK
rows at a time, which bounds its working set.
"""

import functools
import math

import numpy as np

from .errors import NumericalError, UnstableSystemError

#: norm beyond which the moment flow is declared divergent
DIVERGENCE_NORM = 1e12

#: bounds `trimech validate` puts on `cross_check`'s algebraic pair and
#: moment-flow discrepancies
PAIR_TOL = 1e-10
ODE_TOL = 1e-8

#: rows per stacked Kronecker-size computation of the oracles, which
#: bounds the oracles' working set
ORACLE_CHUNK = 8

_DIVERGED = "moment flow diverged; system has no stationary state"


def _stacked(X):
    """`X` as a float (N, n, n) stack, and whether it was one matrix."""
    X = np.asarray(X, dtype=float)
    return (X[None], True) if X.ndim == 2 else (X, False)


def _chunks(count):
    """Slices of at most ORACLE_CHUNK rows covering `count` rows in order."""
    return [slice(lo, lo + ORACLE_CHUNK) for lo in range(0, count, ORACLE_CHUNK)]


def _kron_sum(A):
    """The Kronecker sums A (x) I + I (x) A of an (N, n, n) stack as an
    (N, n^2, n^2) stack, entry for entry np.kron(A, I) + np.kron(I, A)."""
    N, n, _ = A.shape
    eye = np.eye(n)
    K = A[:, :, None, :, None] * eye[:, None, :]
    K += eye[:, None, :, None] * A[:, None, :, None, :]
    return K.reshape(N, n * n, n * n)


def _solve(K, rhs):
    """np.linalg.solve of each row; NumericalError for the first row whose
    system is singular alone."""
    try:
        return np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        for Ki, ri in zip(K, rhs):
            try:
                np.linalg.solve(Ki, ri)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"vectorized Lyapunov system is singular: {exc}") from exc
        raise


def lyapunov_direct(A, D) -> np.ndarray:
    """Solve A V + V A^T = -D through the Kronecker-vectorized system.

    One (n, n) pair, or (N, n, n) stacks solved as one stacked
    factorization per ORACLE_CHUNK rows; a singular row raises
    NumericalError.
    """
    A, single = _stacked(A)
    D, _ = _stacked(D)
    N, n, _ = A.shape
    v = np.empty((N, n * n, 1))
    for rows in _chunks(N):
        v[rows] = _solve(_kron_sum(A[rows]), -D[rows].reshape(-1, n * n, 1))
    V = v.reshape(N, n, n)
    V = 0.5 * (V + V.transpose(0, 2, 1))
    return V[0] if single else V


@functools.cache
def _symmetrizer(n):
    """Matrix P with P vec(V) = vec((V + V^T)/2) for row-major vec."""
    k = np.arange(n * n)
    P = 0.5 * np.eye(n * n)
    P[k, k.reshape(n, n).T.reshape(-1)] += 0.5  # the diagonal V_ii gets 1
    P.flags.writeable = False
    return P


def _rk4_affine_map(A, D, dt):
    """One RK4 step of each row's dv/dt = K v + d, with step dt[i], as the
    affine map v -> M v + b: (N, n^2, n^2) and (N, n^2)."""
    N, n, _ = A.shape
    h = dt[:, None, None]
    eye = np.eye(n * n)
    hK = _kron_sum(A) * h
    hK2 = hK @ hK
    hK3 = hK2 @ hK
    M = eye + hK + hK2 / 2.0 + hK3 / 6.0 + hK3 @ hK / 24.0
    b = (eye + hK / 2.0 + hK2 / 6.0 + hK3 / 24.0) @ (h * D.reshape(N, n * n, 1))
    P = _symmetrizer(n)
    return P @ M, (P @ b)[..., 0]


def _per_row(name, value, count):
    """`value` (None, a number, or one of those per row) as `count`
    entries; ValueError unless each given entry is positive and finite."""
    values = [value] * count if value is None or np.ndim(value) == 0 else list(value)
    if len(values) != count:
        raise ValueError(f"{name} needs one entry per row, got {len(values)}")
    if any(x is not None and not 0 < x < math.inf for x in values):
        raise ValueError(f"{name} must be positive and finite")
    return values


def _step_counts(A, dt=None, horizon=None):
    """The RK4 step and step count of each row of the (N, n, n) stack
    `A`, from `dt` and `horizon` as `integrate_moments` takes them:
    (N,) floats and (N,) uint64 counts."""
    dt = _per_row("dt", dt, len(A))
    horizon = _per_row("horizon", horizon, len(A))
    lam = np.linalg.eigvals(A)
    fastest = 1e-2 / np.maximum(np.abs(lam).max(axis=1), 1.0)
    slowest = 50.0 / np.maximum(np.abs(lam.real.max(axis=1)), 1e-15)
    dt = np.array([f if t is None else t for f, t in zip(fastest, dt)])
    horizon = [s if T is None else T for s, T in zip(slowest, horizon)]
    # Exact step count caps at 2^63, also where T / dt overflows; beyond
    # that the flow has either converged or diverged long before.
    return dt, np.array([max(1, math.ceil(min(float(T) / t, 2.0 ** 63)))
                         for T, t in zip(horizon, dt.tolist())], dtype=np.uint64)


def _apply_steps(M, b, steps, v, rows):
    """Apply row i's affine map v -> M[i] v + b[i] steps[i] times to
    v[rows[i]], in place, by binary squaring; returns {row: error} for the
    rows that diverge.

    The rows come in descending order of `steps`.  Each applies its map
    at the set bits of its count and squares it while higher bits remain,
    so the rows still live are a prefix and the stacks shrink by slicing.
    Divergence is checked on live rows only, and a row that diverges
    leaves at once.
    """
    rest = [int(s) for s in steps]  # each row's bits not yet applied
    spare = np.empty_like(M)
    errors = {}

    def leave(dead):
        """Drop the rows at positions `dead` and those with no bits left."""
        nonlocal rest, rows, M, b, spare
        for i in dead:
            errors[int(rows[i])] = UnstableSystemError(_DIVERGED)
        keep = [i for i, r in enumerate(rest) if r and i not in dead]
        if len(keep) < len(rest):
            prefix = not keep or keep[-1] == len(keep) - 1
            at = slice(len(keep)) if prefix else keep
            rest = [rest[i] for i in keep]
            rows, M, b, spare = rows[at], M[at], b[at], spare[:len(keep)]

    while rest:
        odd = [i for i, r in enumerate(rest) if r & 1]
        at = rows[odd]
        w = (M[odd] @ v[at][..., None])[..., 0] + b[odd]
        v[at] = w
        # a NaN or infinite entry makes the max NaN or inf, which fails too
        ok = np.abs(w).max(axis=1) <= DIVERGENCE_NORM
        rest = [r >> 1 for r in rest]
        leave([odd[j] for j in np.flatnonzero(~ok)])
        if rest:
            b = (M @ b[..., None])[..., 0] + b
            M, spare = np.matmul(M, M, out=spare), M
            ok = np.isfinite(M).all(axis=(1, 2))
            if not ok.all():
                leave(np.flatnonzero(~ok).tolist())
    return errors


def integrate_moments(A, D, V0=None, dt=None, horizon=None) -> np.ndarray:
    """Covariance V(T) from the moment flow dV/dt = A V + V A^T + D.

    Starts from V0 (zero matrix by default), runs classical RK4 with
    per-step symmetrization, and returns V at the horizon T.  The step
    `dt` defaults to 1e-2 / max(|eig|, 1), which resolves the fastest
    mode, and `horizon` to fifty relaxation times of the slowest one
    (50 / |max Re eig|), which lands on the RK4 fixed point to machine
    accuracy; either, when given, must be positive and finite (ValueError).
    Unbounded growth raises UnstableSystemError, mirroring the algebraic
    stability verdict.

    For (N, n, n) stacks, V0 is one (n, n) start or one per row, and `dt`
    and `horizon` are each one value or N of them, where None takes the
    row's default; so every row has its own step count.
    """
    A, single = _stacked(A)
    D, _ = _stacked(D)
    N, n, _ = A.shape
    dt, steps = _step_counts(A, dt, horizon)
    v = (np.zeros((N, n * n)) if V0 is None else
         np.broadcast_to(np.asarray(V0, dtype=float), A.shape).reshape(N, n * n).copy())
    # longest counts first, so each chunk's live rows are a prefix of it
    order = np.argsort(steps, kind="stable")[::-1]
    errors = {}
    for part in _chunks(N):
        rows = order[part]
        M, b = _rk4_affine_map(A[rows], D[rows], dt[rows])
        errors.update(_apply_steps(M, b, steps[rows], v, rows))
    if errors:
        raise errors[min(errors)]

    V = v.reshape(N, n, n)
    V = 0.5 * (V + V.transpose(0, 2, 1))
    return V[0] if single else V


def cross_check(A, D, dt=None):
    """Three-way solver agreement at each (A, D) instance of a stack.

    Returns a dict with the relative max-norm discrepancies of the
    production eigenbasis solver and of the moment-flow limit from the
    direct solve: (N,) arrays for (N, n, n) stacks, floats for one (n, n)
    instance.  No tolerance is asserted: callers decide.  `dt` is the
    moment-flow step of `integrate_moments`, one value or one per row
    (None for the default); a coarser step improves the conditioning of
    its fixed point on stiff spectra without moving the limit.

    The production route (`linear.solve_lyapunov`) and each oracle are
    one stacked call.  Rows are independent, and each row's numbers are
    its one-instance call's.  A route that fails raises its first failing
    row's error, the production route first, then the direct solve, then
    the moment flow.
    """
    from .linear import solve_lyapunov

    A, single = _stacked(A)
    D, _ = _stacked(D)
    V_prod = solve_lyapunov(A, D)
    V_kron = lyapunov_direct(A, D)
    V_ode = integrate_moments(A, D, dt=dt)
    scale = np.maximum(np.abs(V_kron).max(axis=(1, 2)), np.finfo(float).tiny)
    out = {
        "algebraic_pair": np.abs(V_prod - V_kron).max(axis=(1, 2)) / scale,
        "ode_vs_direct": np.abs(V_ode - V_kron).max(axis=(1, 2)) / scale,
    }
    return {key: float(x[0]) for key, x in out.items()} if single else out
