"""Linearized fluctuation dynamics: drift/diffusion matrices, stability,
normal modes, stationary covariance, occupations and squeezing.

The fluctuation vector is ordered (dx, dp, dx1, dp1, dx2, dp2) with the
cavity quadratures dx = (da + da^dag)/sqrt(2), dp = i(da^dag - da)/sqrt(2);
a vacuum mode has variance 1/2 per quadrature in this convention.  The
mean field enters through the quadrature amplitudes xb = sqrt(2) Re(a_bar)
and pb = sqrt(2) Im(a_bar); the input-field phase is chosen so that the
mean amplitude is real, hence pb = 0 and xb = sqrt(2 |a_bar|^2).

First moments of the fluctuations obey d<R>/dt = A <R>; the stationary
covariance of a stable system solves the Lyapunov equation

    A V + V A^T = -D,

with the diffusion matrix D assembled from the symmetrized input noise
correlators: vacuum optical input contributes kappa_c per cavity
quadrature, each mechanical bath contributes 2*gamma_j*(2*n_j + 1) on its
momentum row, and all cross-correlations vanish because the three noises
are independent.  D, the drift entries set by the parameters alone and
the parameter products the drift reuses are built once per record in a
`params.ParamRows`, the one record type the kernel reads: a
`params.ModelParams` is read as its cached one-row `rows`, and a
landscape round only gathers its rows from the landscape's record.

Every solve runs on a stack of N drift matrices, and a single matrix is
the N = 1 case.  Each row gets exactly one eigendecomposition A = S L S^-1;
its eigenvalues give the stability verdict, and with S they give the
covariance in the eigenbasis (invert S once, transform D with S^-1,
divide by eigenvalue-pair sums, transform back, then two steps of
iterative refinement).  One rule sends a row elsewhere: a row whose
residual is not within the contract tries the direct vectorized solve of
`validate.lyapunov_direct`, refined while over the contract, and keeps
the better result; a row still over it is a fault, so every covariance
returned meets it.  Every stack carries a per-row (N, 6, 6) diffusion
and its per-row max|D|, taken from the parameter record (a one-row
record's repeated over the N rows) or, for a D given directly, from D;
each row's contract is relative to its own D.  No row depends on the
rest of its stack, so one stack may hold rows of different parameter
sets.

Each row carries a status: OK, UNSTABLE, DEGENERATE (no valid fixed
point) or FAULT (no certified result).  A failing row is isolated in one
place, `_on_rows`: every stage runs on the rows it applies to, fills the
others with NaN, and when a stacked LAPACK call raises it retries those
rows one by one, so only a row that fails alone is left without a
result.  A stage that applies to every row runs on the stack as it is,
with no mask, gather, fill or scatter; as each row's arithmetic is the
same either way, so are its bits.  A status becomes an exception in one
place, `_raise_for`: UnstableSystemError, DegenerateTrapError or
NumericalError, so a fault never reads as an instability.

The one-row entry points have no logic of their own.  `linear_model`
builds its row as `linear_models` does, from `_drift_stack` and the
parameter record, and `stability` decomposes a given drift; both solve
a one-row stack and apply that map.  `solve_lyapunov` takes one matrix
or a stack by the rule of the oracles (`validate._stacked`) and raises
for its first failing row; `sweeps.solve_points` runs the whole chain
on a stack, from fixed points through `linear_models` to the
covariances of `_lyapunov_rows`.
"""

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrapError, NumericalError, UnstableSystemError
from .params import ModelParams, ParamRows
from .steady import ClassicalSteadyState, FixedPoints
# the direct solve doubles as the fallback
from .validate import _stacked, lyapunov_direct

#: stability margin: stable means max Re(eig) < -EPS_STABLE
EPS_STABLE = 1e-12

#: Lyapunov residual contract, relative to max|D|
RESIDUAL_REL = 1e-10

#: eigenvalues with |Im| at most this, relative to max(|eig|, 1), count as real
IMAG_FLOOR = 1e-9

#: iterative-refinement steps of each Lyapunov solve route
REFINE_STEPS = 2

_TINY = np.finfo(float).tiny

#: row status of a stacked solve: stable (with a covariance, once solved),
#: unstable, degenerate trap, or numerical fault; `_decompose` reads a
#: verdict's truth value as the int8 status (False OK, True UNSTABLE)
OK, UNSTABLE, DEGENERATE, FAULT = 0, 1, 2, 3


@dataclass(frozen=True)
class LinearModel:
    """Drift and diffusion matrices with the stability verdict."""

    drift: np.ndarray         # 6x6 real
    diffusion: np.ndarray     # 6x6 real symmetric PSD
    eigenvalues: np.ndarray   # 6 complex
    stable: bool
    eigenvectors: np.ndarray  # 6x6 complex, columns match `eigenvalues`


@dataclass(frozen=True)
class LinearStack:
    """N drift matrices with each row's own diffusion, one
    eigendecomposition per row."""

    drift: np.ndarray         # (N, 6, 6)
    diffusion: np.ndarray     # (N, 6, 6), one D per row
    diffusion_max: np.ndarray  # (N,) max|D| of each row
    eigenvalues: np.ndarray   # (N, 6) complex; NaN on rows not decomposed
    eigenvectors: np.ndarray  # (N, 6, 6) complex; NaN on rows not decomposed
    status: np.ndarray        # (N,) OK (stable), UNSTABLE, DEGENERATE or FAULT
    reasons: dict             # row -> message, for DEGENERATE and FAULT rows

    def model(self, i) -> LinearModel:
        """Row `i` as a LinearModel, stable or not; DegenerateTrapError or
        NumericalError when the row was not decomposed."""
        _raise_for(self.status[i], self.reasons.get(i), self.eigenvalues[i],
                   unstable_ok=True)
        return LinearModel(drift=self.drift[i], diffusion=self.diffusion[i],
                           eigenvalues=self.eigenvalues[i],
                           stable=bool(self.status[i] == OK),
                           eigenvectors=self.eigenvectors[i])


@dataclass(frozen=True)
class SteadyCovariance:
    """Stationary covariance matrix and derived scalars."""

    V: np.ndarray
    n1: float
    n2: float
    var_x1: float
    var_p1: float
    var_x2: float
    var_p2: float
    S1: float
    S2: float


def _drift_stack(m: ParamRows, delta_eff, photon_number, x1_bar, x2_bar):
    """(N, 6, 6) drift matrices from (N,) mean-field arrays, starting from
    the entries that depend on the parameter record `m` alone (one row,
    broadcast over N, or N rows).

    The mean field is real (pb = 0) by the input-phase convention, so the
    entries proportional to pb vanish and xb = sqrt(2 |a_bar|^2).
    """
    dt = delta_eff
    xb = np.sqrt(2.0 * photon_number)
    lever = m.chi * x1_bar - x2_bar
    g_lin = (m.g1 - m.two_g2_chi * lever) * xb  # mirror-field, displacement-corrected
    g_sph = m.two_g2 * lever * xb               # sphere-field, via the shared standing wave
    nq = xb * xb                                # = 2 |a_bar|^2
    A = np.empty((len(dt), 6, 6))
    A[:] = m.base_drift
    A[:, 0, 1] = -dt
    A[:, 1, 0] = dt
    A[:, 1, 2] = A[:, 3, 0] = g_lin
    A[:, 1, 4] = A[:, 5, 0] = g_sph
    A[:, 3, 2] = -m.omega1 - m.g2_chi2 * nq
    A[:, 3, 4] = A[:, 5, 2] = m.g2_chi * nq
    A[:, 5, 4] = -m.omega2 - m.g2 * nq
    return A


def _on_rows(stage, rows, stacks, outputs):
    """Run `stage` on the rows of the (N, ...) arrays `stacks` selected
    by the boolean mask `rows`, or on every row when `rows` is None.

    Returns one (N, ...) array per output of `stage`, of the row shape and
    dtype given in `outputs` and NaN on every row not selected, then
    {row: message} for the rows that failed.  When every row is selected
    the stage runs on `stacks` themselves and its outputs are returned as
    they are, cast only where their dtype differs: no mask, gather, NaN
    fill or scatter.  When the stacked LAPACK call raises, the selected
    rows are retried one by one, so only a row that fails alone is left
    NaN.
    """
    failed = {}
    try:
        if rows is None:
            return (*[r.astype(dtype, copy=False)
                      for r, (_, dtype) in zip(stage(*stacks), outputs)], failed)
        parts = [(rows, stage(*(s[rows] for s in stacks)))]
    except np.linalg.LinAlgError:
        parts = []
        for i in (range(len(stacks[0])) if rows is None else rows.nonzero()[0]):
            try:
                parts.append(([i], stage(*(s[[i]] for s in stacks))))
            except np.linalg.LinAlgError as exc:
                failed[int(i)] = str(exc)
    n = len(stacks[0])
    out = [np.full((n,) + shape, np.nan, dtype=dtype) for shape, dtype in outputs]
    for where, results in parts:
        for o, r in zip(out, results):
            o[where] = r
    return (*out, failed)


def _raise_for(status, reason, eigenvalues, unstable_ok=False):
    """Raise the error a row of `status` stands for; return for OK rows, and
    for UNSTABLE ones when `unstable_ok`.

    The one map from row status to exception: UNSTABLE is
    UnstableSystemError, DEGENERATE DegenerateTrapError and FAULT
    NumericalError, so a fault never reads as an instability.  `reason`
    is the row's message, `eigenvalues` its spectrum.
    """
    if status == OK or (status == UNSTABLE and unstable_ok):
        return
    if status == UNSTABLE:
        raise UnstableSystemError("no stationary covariance: max Re(eig) = "
                                  f"{eigenvalues.real.max():.6g}")
    raise (DegenerateTrapError if status == DEGENERATE else NumericalError)(reason)


def _decompose(A, D, degenerate=None, diffusion_max=None) -> LinearStack:
    """Stack `A` and its (N, 6, 6) diffusion `D` with one
    eigendecomposition per row.

    `diffusion_max` holds max|D| per row, taken from D when not given.
    Rows listed in `degenerate` ({row: message}) are not decomposed; their
    eigenvalues and eigenvectors are NaN.  A row whose solve fails is a
    fault.  LAPACK returns each complex pair of a real matrix as
    wr +- i wi with the same wr and wi, so a decomposed spectrum is paired
    into conjugates exactly.
    """
    reasons = dict(degenerate or {})
    rows = None  # every row is decomposed
    if reasons:
        rows = np.ones(len(A), dtype=bool)
        rows[list(reasons)] = False
    # a real spectrum comes back real; every row is stored as complex, so
    # a row's numbers do not depend on the rest of its stack
    lam, S, failed = _on_rows(np.linalg.eig, rows, (A,),
                              ((A.shape[1:2], complex), (A.shape[1:], complex)))
    # UNSTABLE unless max Re(eig) < -EPS_STABLE, which a NaN spectrum is not
    status = (~(lam.real.max(axis=1) < -EPS_STABLE)).view(np.int8)
    for i in reasons:
        status[i] = DEGENERATE
    for i, message in failed.items():
        status[i] = FAULT
        reasons[i] = f"eigenvalue solver failed: {message}"
    if diffusion_max is None:
        diffusion_max = np.abs(D).max(axis=(1, 2))
    return LinearStack(drift=A, diffusion=D, diffusion_max=diffusion_max,
                       eigenvalues=lam, eigenvectors=S, status=status,
                       reasons=reasons)


def linear_models(m: ModelParams, fp: FixedPoints) -> LinearStack:
    """Drift and per-row diffusion stacks of stacked fixed points of `m`,
    with one eigendecomposition per row; degenerate-trap rows are carried
    over.  Each row's D and max|D| come from `m.rows`
    (`params.ParamRows`), a one-row record's repeated over the N rows."""
    m = m.rows
    A = _drift_stack(m, fp.delta_eff, fp.photon_number, fp.x1_bar, fp.x2_bar)
    degenerate = {int(i): fp.reason(i) for i in fp.degenerate.nonzero()[0]}
    D, diffusion_max = m.diffusion, m.diffusion_max
    if len(D) == 1:  # copied per row, contiguous for faster solves
        D = np.repeat(D, len(A), axis=0)
        diffusion_max = np.repeat(diffusion_max, len(A))
    return _decompose(A, D, degenerate, diffusion_max)


def stability(A):
    """Eigenvalue verdict: stable iff max Re(eig) < -EPS_STABLE.

    Returns (stable, eigenvalues).  Marginal spectra (eigenvalues on the
    imaginary axis) are reported unstable under the strict inequality.
    The same eigendecomposition and verdict as a stacked row, so
    `stability`, `linear_model` and `solve_lyapunov` agree with
    `linear_models` to the last bit.
    """
    A = np.asarray(A, dtype=float)[None]
    model = _decompose(A, np.zeros_like(A)).model(0)  # the verdict reads no D
    return model.stable, model.eigenvalues


def linear_model(m: ModelParams, s: ClassicalSteadyState) -> LinearModel:
    """Drift, diffusion, eigendecomposition and verdict at the fixed point
    `s` of `m`: the one-row stack of `linear_models`, row for row and bit
    for bit.  D is a copy of the one row of `m.rows`, so writing into it
    leaves the cached record as it is."""
    m = m.rows
    A = _drift_stack(m, np.array([s.delta_eff]), np.array([s.photon_number]),
                     np.array([s.x1_bar]), np.array([s.x2_bar]))
    return _decompose(A, m.diffusion.copy(), diffusion_max=m.diffusion_max).model(0)


def _sorted_modes(eigenvalues):
    """Normal modes of each row of an (n, k) stack of drift spectra, sorted
    by frequency, all rows at once.

    Returns (freq, damp, counts): (n, k) frequencies and dampings, of
    which the first counts[i] are row i's modes.  Complex-conjugate
    eigenvalue pairs give frequency |Im| and damping -Re.  Purely real
    eigenvalues (|Im| up to IMAG_FLOOR times the row's max(|eig|, 1);
    overdamped spectra) cannot be paired; each is a zero-frequency entry
    of its own, which is how a caller tells them apart.  A row's real
    entries come first, in ascending eigenvalue order, then its pairs by
    frequency; pairs of equal frequency keep their spectrum order.
    """
    lam = np.asarray(eigenvalues)
    floor = IMAG_FLOOR * np.maximum(np.abs(lam).max(axis=-1, keepdims=True), 1.0)
    real = np.abs(lam.imag) <= floor
    paired = lam.imag > floor
    group = np.where(real, 0, np.where(paired, 1, 2))  # 2: the conjugate, dropped
    order = np.lexsort((np.where(real, lam.real, lam.imag), group), axis=-1)
    freq = np.take_along_axis(np.where(paired, lam.imag, 0.0), order, axis=-1)
    damp = np.take_along_axis(-lam.real, order, axis=-1)
    return freq, damp, (group < 2).sum(axis=-1)


@functools.cache
def _permutations(count):
    """The 3-permutations of range(count), in itertools order."""
    return tuple(itertools.permutations(range(count), 3))


def track_modes(reference_freqs, eigenvalues):
    """Modes of each row of an (n, k) stack of spectra, tracked by continuity
    along the model's three branches.

    `reference_freqs` holds exactly three frequencies, one per branch.
    The stack is sorted into normal modes once (`_sorted_modes`); then
    one chain loop matches the first row to `reference_freqs` and each
    later row to the frequencies matched on the row before it: of all
    3-permutations (i, j, k) of the row's modes, in itertools order, the
    first of least |f_i - r0| + |f_j - r1| + |f_k - r2|, summed left to
    right.  ValueError when a row has fewer than three modes or no
    assignment has a finite total; the latter names the reference that
    row was matched against.  Returns (n, 3, 2): (frequency, damping)
    per branch.
    """
    freq, damp, counts = _sorted_modes(eigenvalues)
    r0, r1, r2 = reference_freqs
    picks = []
    for row, c in zip(freq.tolist(), counts.tolist()):
        if c < 3:
            raise ValueError("fewer candidate modes than reference branches")
        best, best_cost = None, math.inf
        for i, j, k in _permutations(c):
            cost = abs(row[i] - r0) + abs(row[j] - r1) + abs(row[k] - r2)
            if cost < best_cost:
                best, best_cost = (i, j, k), cost
        if best is None:
            raise ValueError("no assignment of finite frequency jump to reference "
                             f"{[r0, r1, r2]}")
        i, j, k = best
        r0, r1, r2 = row[i], row[j], row[k]
        picks.append(best)
    picks = np.array(picks, dtype=np.intp).reshape(len(freq), 3)
    return np.stack([np.take_along_axis(freq, picks, axis=-1),
                     np.take_along_axis(damp, picks, axis=-1)], axis=-1)


def _eigenbasis_solve(A, S, lam, D):
    """Eigenbasis Lyapunov solve of a stack with iterative refinement.

    `S` and `lam` are each row's eigenvectors and eigenvalues.  Returns
    (V, residual max|A V + V A^T + D| per row).  S is inverted once per
    row, and each transform S^-1 rhs S^-T is two products with that
    inverse, the same arithmetic as a one-matrix solve, so a row's
    covariance is bit for bit that of the row solved alone.  Each of the
    REFINE_STEPS refinement steps re-solves the residual the same way,
    which sharpens near-marginal pair divisions.  The transposes of S,
    its inverse and A are taken once, for every solve and residual.
    """
    neg_sums2 = -2.0 * (lam[:, :, None] + lam[:, None, :])
    ST = S.transpose(0, 2, 1)
    Si = np.linalg.inv(S)
    SiT = Si.transpose(0, 2, 1)
    AT = A.transpose(0, 2, 1)

    def residual(V):  # A V + V A^T + D, as `_residual`
        return A @ V + V @ AT + D

    def solve_for(rhs):
        # S (S^-1 rhs S^-T / -(l_i + l_j)) S^T for symmetric rhs; dividing
        # by twice the pair sums halves V exactly, so V + V^T symmetrizes
        Vt = Si @ rhs @ SiT
        Vt /= neg_sums2
        V = (S @ Vt @ ST).real
        return V + V.transpose(0, 2, 1)

    V = solve_for(D)
    for _ in range(REFINE_STEPS):
        V = V + solve_for(residual(V))
    return V, np.abs(residual(V)).max(axis=(1, 2))


def _residual(A, V, D):
    """A V + V A^T + D of one row or a stack."""
    return A @ V + V @ np.swapaxes(A, -1, -2) + D


def _lyapunov_rows(stack: LinearStack):
    """Covariances of the OK rows of a stack from their eigendecompositions.

    Returns (V, status, reasons): V is (N, 6, 6) and NaN except on OK
    rows, and rows that break the residual contract turn from OK into
    FAULT.  Every OK row gets the eigenbasis solve: on the stack itself
    when every row is OK, else on the OK rows gathered.  A row whose
    residual is not within RESIDUAL_REL * max|D| of its own D (a singular
    S leaves it NaN, which counts as a miss) also tries the direct solve,
    refined while over the contract, and keeps the better of the two; a
    row still over it turns FAULT, so every covariance returned meets it.
    Each row is solved with its own D of the stack's per-row diffusion.
    """
    A, D = stack.drift, stack.diffusion
    ok = stack.status == OK
    live = None if np.count_nonzero(ok) == len(ok) else ok
    # an eigenvalue near the float limit overflows its pair sums: the row's
    # residual is then inf or NaN, and it faults on the contract unwarned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        V, residual, _ = _on_rows(_eigenbasis_solve, live,
                                  (A, stack.eigenvectors, stack.eigenvalues, D),
                                  ((A.shape[1:], float), ((), float)))
    bound = RESIDUAL_REL * np.maximum(stack.diffusion_max, _TINY)
    miss = ~(residual <= bound)
    if live is not None:  # the rows left out read NaN, and are no miss
        miss &= ok
    faults = {}
    for i in miss.nonzero()[0]:
        Di, bi, achieved = D[i], bound[i], residual[i]
        try:
            V_alt = lyapunov_direct(A[i], Di)
            for step in range(REFINE_STEPS + 1):
                rhs = _residual(A[i], V_alt, Di)
                alt = np.abs(rhs).max()
                if not alt >= achieved:
                    V[i], achieved = V_alt, alt
                if achieved <= bi or step == REFINE_STEPS:
                    break
                V_alt = V_alt + lyapunov_direct(A[i], rhs)
        except NumericalError:
            pass
        if not achieved <= bi:
            faults[int(i)] = (f"Lyapunov residual {achieved:.3g} exceeds contract "
                              f"{bi:.3g}")
    status = stack.status.copy()
    for i in faults:
        status[i] = FAULT
        V[i] = np.nan
    return V, status, {**stack.reasons, **faults}


def solve_lyapunov(A, D) -> np.ndarray:
    """Stationary covariance solving A V + V A^T = -D.

    One (6, 6) pair, or (N, 6, 6) stacks of them; one matrix is the
    N = 1 case and comes back unstacked.  One eigendecomposition of each
    row of A gives its stability verdict and its eigenbasis solve.  Each
    result is symmetrized and satisfies max|A V + V A^T + D| <=
    1e-10 * max|D| of its own row; when the eigenbasis result misses that
    contract, the refined direct vectorized solve is tried as well and
    the result with the smaller residual is kept.  Rows are independent,
    each bit for bit its one-matrix call, and a stack raises the error of
    its first failing row: UnstableSystemError for a row that is not
    stable, NumericalError for one whose eigensolver fails or whose
    contract stays missed.
    """
    A, single = _stacked(A)
    D, _ = _stacked(D)
    stack = _decompose(A, D)
    V, status, reasons = _lyapunov_rows(stack)
    failed = np.flatnonzero(status != OK)
    if failed.size:
        i = int(failed[0])
        _raise_for(status[i], reasons.get(i), stack.eigenvalues[i])
    return V[0] if single else V


def occupation(V, oscillator, clamp=True):
    """Mean phonon number of mechanical oscillator 1 or 2.

    n_j = (<x_j^2> + <p_j^2> - 1)/2, elementwise over a stack of
    covariance matrices.  Small negative values (roundoff) are clamped to
    zero when `clamp`; a warning is emitted for each raw value below -1e-9.
    """
    if oscillator not in (1, 2):
        raise ValueError("oscillator must be 1 or 2")
    i = 2 * oscillator
    raw = 0.5 * (V[..., i, i] + V[..., i + 1, i + 1] - 1.0)
    if (raw < -1e-9).any():
        for value in np.ravel(raw)[np.ravel(raw) < -1e-9]:
            warnings.warn(f"occupation n_{oscillator} = {value:.3g} below physical floor",
                          stacklevel=2)
    return np.maximum(raw, 0.0)[()] if clamp else raw


def squeezing(V, oscillator):
    """Squeezing figure of merit 1/(2 min(<x_j^2>, <p_j^2>)).

    Exceeds 1 exactly when one quadrature variance dips below the
    vacuum value 1/2.  Elementwise over a stack of covariance matrices.
    """
    if oscillator not in (1, 2):
        raise ValueError("oscillator must be 1 or 2")
    i = 2 * oscillator
    return 1.0 / (2.0 * np.minimum(V[..., i, i], V[..., i + 1, i + 1]))


def symplectic_form(n_modes=3) -> np.ndarray:
    """Block-diagonal symplectic form for (x, p) mode ordering."""
    s = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        s[2 * j, 2 * j + 1] = 1.0
        s[2 * j + 1, 2 * j] = -1.0
    return s


def physicality_floor(V) -> float:
    """Smallest eigenvalue of the Hermitian matrix V + (i/2) sigma.

    Nonnegative (up to roundoff) for every covariance matrix of a
    physical Gaussian state.
    """
    n_modes = V.shape[0] // 2
    H = V + 0.5j * symplectic_form(n_modes)
    return float(np.linalg.eigvalsh(H).min().real)


def covariance_summary(V) -> SteadyCovariance:
    """The derived scalars of one stationary covariance matrix."""
    return SteadyCovariance(
        V=V,
        n1=occupation(V, 1),
        n2=occupation(V, 2),
        var_x1=V[2, 2], var_p1=V[3, 3],
        var_x2=V[4, 4], var_p2=V[5, 5],
        S1=squeezing(V, 1),
        S2=squeezing(V, 2),
    )
