"""Parameter sweeps and optimization: power sweeps with mode tracking,
squeezing sweeps, instability thresholds, and the cooling landscape.

All sweeps parameterize the drive by the effective detuning (closed-form
fixed point per point) and report model-unit drives |a_in|^2 alongside
watts when a physical parameter set provides the conversion.  Points are
solved in stacks through `solve_points` (one eigendecomposition per
point); `solve_point` is its one-row case.  A power or squeezing sweep
reads its scalars off the stacked covariances and spectra of its drive
grid, truncated at the first point without a certified stable covariance,
and records the bracketing drives, from its last row to the first
unstable drive, so downstream consumers see only valid rows; it also
records why and at which drive its rows stopped.  A power sweep tracks
its three branches (cavity, mirror, sphere) in one pass over the
stacked spectra: they are sorted into normal modes once, then one chain
loop matches each row's modes to the three frequencies of the row
before it by least total frequency jump over the 3-permutations of the
row's modes, the first permutation in itertools order winning a tie.
`instability_threshold` bisects a bracket on a stacked spectral
verdict, whose N = 1 case is `is_stable`, with the bisection engine of
`steady`, several halvings per stacked call.

The (detuning, power) optimizer, `optimize_scalar`, whose docstring
states the search, is deterministic: a coarse grid, then nested
bracketed Brent line searches from the best few coarse cells.  The
cooling landscape runs one lockstep over every start of every cell,
answered through each cell's memo: a round's requests go to one stacked
solve, each row with its own cell's parameters, in calls of at most
SOLVE_CHUNK rows, so each distinct row is solved once.  As a stacked
row equals the row solved alone, whatever the other rows and their
parameters, sharing the rounds changes no value, optimum or evaluation
count.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, PhysicsError
from .linear import (DEGENERATE, FAULT, OK, UNSTABLE, LinearStack,
                     _lyapunov_rows, _raise_for, covariance_summary,
                     linear_models, occupation, squeezing, track_modes)
from .params import (ModelParams, ParamRows, PhysicalParams,
                     nondimensionalize, watts_from_drive)
# re-exported for their one reader here, perfbench/test_perfbench.py
from .linear import linear_model  # noqa: F401
from .params import drive_from_watts  # noqa: F401
from .steady import FixedPoints, _bisect_rows, fixed_points

#: relative width of the bracket `instability_threshold` bisects down to,
#: and its halvings per stacked stability call (the threshold does not
#: depend on the latter)
THRESHOLD_REL_TOL = 1e-4
THRESHOLD_BISECT_DEPTH = 3

#: coarse cells the optimizer refines; its detuning line search stops at
#: STEP_FLOOR * max(|detuning|, 1) / 2
REFINE_STARTS = 3
STEP_FLOOR = 1e-3

#: each drive-line minimization scans DRIVE_SCAN points across
#: +-DRIVE_SPAN decades around its seed drive, then its line search stops
#: at DRIVE_TOL decades
DRIVE_SPAN = 0.3
DRIVE_SCAN = 25
DRIVE_TOL = 1e-5

#: Brent steps a line search may take before it raises NumericalError
LINE_SEARCH_ITERATIONS = 100
#: a golden-section step's share of the larger part of the bracket
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))

#: the optimizer's default coarse grid, (detuning, drive) points: the
#: smallest that meets SEARCH_REL_TOL on both boxes below ((7, 7) does
#: not on the wide one)
COARSE_GRID = (9, 9)
#: relative agreement of a fig2 cell's n2_min between the COARSE_GRID
#: and a (37, 37) grid, on the (-45, -2) and (-90, -2) detuning boxes:
#: the tolerance the search is converged to
SEARCH_REL_TOL = 1e-5
#: the most rows the landscape hands `solve_points` in one call; set
#: apart from the coarse grid, so that a smaller grid means no more calls
SOLVE_CHUNK = 625

#: the fig2 search box: effective detuning and model-unit drive
DETUNING_BOUNDS = (-45.0, -2.0)
DRIVE_BOUNDS = (1e6, 1e12)


@dataclass(frozen=True)
class PointBatch:
    """Stacked solve of N (effective detuning, drive) rows."""

    states: FixedPoints
    linear: LinearStack
    V: np.ndarray       # (N, 6, 6), NaN unless the row's status is OK
    status: np.ndarray  # (N,) OK, UNSTABLE, DEGENERATE or FAULT
    reasons: dict       # row -> message, for DEGENERATE and FAULT rows

    def row(self, i):
        """(state, model, covariance) of row `i`, or the error it stands for."""
        _raise_for(self.status[i], self.reasons.get(i), self.linear.eigenvalues[i])
        return (self.states.state(i), self.linear.model(i),
                covariance_summary(self.V[i]))


def solve_points(m: ModelParams, detunings, drives) -> PointBatch:
    """Fixed points, linear models and covariances of stacked rows.

    `detunings` (effective) and `drives` broadcast to one shape (N,); the
    other parameters come from `m` (`params.ParamRows`), whose detuning,
    detuning mode and drive are not read.  Every row carries its own
    diffusion (the stack's is (N, 6, 6)) and gets one eigendecomposition,
    and a row's result does not depend on the other rows or on the
    parameters of theirs.
    """
    fp = fixed_points(m, detunings, drives)
    stack = linear_models(m, fp)
    V, status, reasons = _lyapunov_rows(stack)
    return PointBatch(states=fp, linear=stack, V=V, status=status,
                      reasons=reasons)


def solve_point(m: ModelParams):
    """Fixed point, linear model and covariance for one parameter set.

    The N = 1 case of `solve_points`.  Returns (state, model, covariance);
    raises DegenerateTrapError or UnstableSystemError when no stable
    stationary state exists, NumericalError when none can be certified.
    """
    if m.detuning_mode != "effective":
        raise ValueError("solve_point requires detuning_mode='effective'")
    return solve_points(m, m.detuning, m.drive).row(0)


def _verdicts(m: ModelParams, drives):
    """The spectral verdicts of `m` at stacked drives of its effective
    detuning: +1 stable, -1 unstable or degenerate, NaN where the
    eigen-solver failed; and the stack's {row: message}.  Fixed points
    and the linear stack's spectra only, never a Lyapunov solve."""
    stack = linear_models(m, fixed_points(m, m.detuning, drives))
    return (np.where(stack.status == OK, 1.0,
                     np.where(stack.status == FAULT, np.nan, -1.0)),
            stack.reasons)


def is_stable(m: ModelParams) -> bool:
    """Stability verdict including trap degeneracy.

    The N = 1 case of the stacked verdict `instability_threshold` bisects
    on, so a drive that a sweep finds unstable is unstable here too.  A
    row whose spectrum cannot be certified raises NumericalError, never
    reads as unstable; a stable row is stable here even if its covariance
    would miss the Lyapunov contract, which this verdict does not solve
    for, so a sweep can stop at it with `stop_reason = "fault"`.
    """
    if m.detuning_mode != "effective":
        raise ValueError("is_stable requires detuning_mode='effective'")
    (verdict,), reasons = _verdicts(m, m.drive)
    if math.isnan(verdict):
        raise NumericalError(reasons[0])
    return bool(verdict > 0)


@dataclass(frozen=True)
class PowerSweepResult:
    drive: np.ndarray             # stable rows only
    power_w: np.ndarray           # NaN when no conversion was given
    freqs: np.ndarray             # (n, 3): cavity, mirror, sphere branches
    dampings: np.ndarray          # (n, 3)
    n1: np.ndarray
    n2: np.ndarray
    threshold_bracket: tuple      # (last row, first unstable drive) or None
    hybridization: dict           # min mechanical-branch separation summary
    stop_reason: str              # "end of range", "unstable", "degenerate" or "fault"
    stop_drive: float             # drive of the first dropped row, None at end of range


@dataclass(frozen=True)
class SqueezeSweepResult:
    drive: np.ndarray
    power_w: np.ndarray
    var_x1: np.ndarray
    var_p1: np.ndarray
    var_x2: np.ndarray
    var_p2: np.ndarray
    S1: np.ndarray
    S2: np.ndarray
    threshold_bracket: tuple
    max_S2: dict                  # {"value", "drive", "power_w"}
    stop_reason: str
    stop_drive: float


_STOP_REASONS = {UNSTABLE: "unstable", DEGENERATE: "degenerate", FAULT: "fault"}


def _stable_prefix(m: ModelParams, drives, base: PhysicalParams):
    """(batch, drive, power_w, stop) of a sweep's stacked drive grid.

    `drive` ends before the first row without a certified covariance
    (unstable, inverted trap, or a missed Lyapunov contract); PhysicsError
    if that is the first row.  `stop` holds the result fields that say
    where and why: `stop_reason` and `stop_drive` of that first dropped
    row ("end of range" and None when every row was kept), and the
    `threshold_bracket` (last kept drive, first unstable or degenerate
    swept drive), or None when there is none: a numerical fault ends the
    rows but never stands in for the instability.
    """
    if m.detuning_mode != "effective":
        raise ValueError("power and squeezing sweeps require detuning_mode='effective'")
    drives = np.array(drives, dtype=float)
    batch = solve_points(m, m.detuning, drives)
    failed = np.flatnonzero(batch.status != OK)
    end = failed[0] if failed.size else drives.size
    if end == 0:
        raise PhysicsError("no stable point in the swept drive range")
    kept = drives[:end]
    lost = np.flatnonzero((batch.status == UNSTABLE) | (batch.status == DEGENERATE))
    stop = {
        "threshold_bracket": ((float(kept[-1]), float(drives[lost[0]]))
                              if lost.size else None),
        "stop_reason": (_STOP_REASONS[int(batch.status[end])] if failed.size
                        else "end of range"),
        "stop_drive": float(drives[end]) if failed.size else None,
    }
    power_w = (watts_from_drive(base, kept) if base is not None
               else np.full_like(kept, np.nan))
    return batch, kept, power_w, stop


def power_sweep(m: ModelParams, drives, base: PhysicalParams = None) -> PowerSweepResult:
    """Normal-mode frequencies and occupations along a drive grid.

    Modes are tracked by continuity (`linear.track_modes`): the kept
    rows' stacked spectra are sorted into normal modes once, then the
    first row's modes are matched to (|detuning|, omega1, omega2) to
    label the cavity, mirror and sphere branches, and each subsequent
    row is matched to the previous one by minimal total frequency jump,
    the first permutation in itertools order winning a tie.  The
    hybridization entry flags the row where the mirror and sphere
    branches come closest.
    """
    batch, kept, power_w, stop = _stable_prefix(m, drives, base)
    end = kept.size
    # (n, 3, 2): (frequency, damping) per branch
    tracked = track_modes([abs(m.detuning), m.omega1, m.omega2],
                          batch.linear.eigenvalues[:end])
    freqs = tracked[..., 0]
    sep = np.abs(freqs[:, 1] - freqs[:, 2])
    i_min = int(np.argmin(sep))
    n1s = occupation(batch.V[:end], 1)
    n2s = occupation(batch.V[:end], 2)
    hybrid = {
        "index": i_min,
        "drive": float(kept[i_min]),
        "separation": float(sep[i_min]),
        "n1": float(n1s[i_min]),
        "n2": float(n2s[i_min]),
        "occupation_mismatch": float(abs(n1s[i_min] - n2s[i_min])
                                     / max(n1s[i_min], n2s[i_min], 1e-300)),
    }
    return PowerSweepResult(
        drive=kept, power_w=power_w, freqs=freqs, dampings=tracked[..., 1],
        n1=n1s, n2=n2s, hybridization=hybrid, **stop,
    )


def squeezing_sweep(m: ModelParams, drives, base: PhysicalParams = None) -> SqueezeSweepResult:
    """Quadrature variances and squeezing along a drive grid."""
    batch, kept, power_w, stop = _stable_prefix(m, drives, base)
    V = batch.V[:kept.size]
    S2 = squeezing(V, 2)
    i_max = int(np.argmax(S2))
    return SqueezeSweepResult(
        drive=kept, power_w=power_w,
        var_x1=V[:, 2, 2], var_p1=V[:, 3, 3], var_x2=V[:, 4, 4], var_p2=V[:, 5, 5],
        S1=squeezing(V, 1), S2=S2,
        max_S2={"value": float(S2[i_max]), "drive": float(kept[i_max]),
                "power_w": float(power_w[i_max])},
        **stop,
    )


def instability_threshold(m: ModelParams, drive_lo, drive_hi) -> float:
    """Critical drive where stability is lost, by geometric bisection.

    Requires finite bounds, a stable lower one and an unstable upper one,
    both checked in one stacked call; the returned value is the last stable
    drive of a bracket of relative width THRESHOLD_REL_TOL.  The bracket
    is bisected by `steady._bisect_rows`, THRESHOLD_BISECT_DEPTH
    halvings per stacked call, each drive judged by the stacked verdict
    whose N = 1 case is `is_stable`: fixed points and the linear stack's
    spectra only, never a Lyapunov solve.  So the drive returned can be
    one whose covariance misses the contract and that `solve_points`
    reports as FAULT.  A drive whose spectrum cannot be certified raises
    NumericalError when the bisection reaches it, never reads as
    unstable; a fault at a drive the bisection does not reach is not
    read.
    """
    lo, hi = float(drive_lo), float(drive_hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("threshold bounds must be finite")
    if not (0 < lo < hi):
        raise ValueError("need 0 < drive_lo < drive_hi")
    if m.detuning_mode != "effective":
        raise ValueError("instability_threshold requires detuning_mode='effective'")
    ends, reasons = _verdicts(m, [lo, hi])
    if math.isnan(ends[0]):
        raise NumericalError(reasons[0])
    if ends[0] < 0:
        raise ValueError(f"lower bound {lo:.6g} is not stable")
    if math.isnan(ends[1]):
        raise NumericalError(reasons[1])
    if ends[1] > 0:
        raise ValueError(f"upper bound {hi:.6g} is not unstable")
    lo, hi, frozen = _bisect_rows(lambda drives: _verdicts(m, drives)[0], lo, hi,
                                  1.0, THRESHOLD_REL_TOL, THRESHOLD_BISECT_DEPTH,
                                  geometric=True)
    if frozen[0]:  # a faulted midpoint faults alone too, with the same message
        raise NumericalError(_verdicts(m, math.sqrt(lo[0] * hi[0]))[1][0])
    return float(lo[0])


def _line_search(x, fx, carry, step, lo, hi, tol_of, probe, a=None, b=None,
                 stop=None):
    """A bracketed Brent minimization of one coordinate, as a generator.

    `probe(u, carry)` is a generator that yields the requests of the
    value at `u` and returns (value, carry); it is run with `yield from`
    and handed the carry of the best point so far.  Stage one brackets
    the minimum: in each direction whose bracket end (`a` below `x`, `b`
    above it) is not given, march from `x` by `step`, clamped to [lo,
    hi], while the probe improves on `fx`.  The first point that does
    not improve, or the bound the march stopped on, ends the bracket on
    that side, and the point a march left ends it on the other.  Before
    each march probe at `u`, `stop(u, fx)`, when given, may end the search
    there: it then returns the best point so far, unbracketed.  Stage
    two is Brent's minimization (Brent, *Algorithms for Minimization
    without Derivatives*, 1973) of the bracket down to the absolute
    tolerance `tol_of(x)`, re-read each step: a parabolic step through
    the last three points when their values are finite and the step is
    acceptable, a golden-section step otherwise.  An optimum on a bound
    stays on it.  Returns the best (value, x, carry); NumericalError if
    Brent has not converged after LINE_SEARCH_ITERATIONS steps.
    """
    ends = {-1: a, 1: b}
    for sgn in (1, -1):
        while ends[sgn] is None:
            nxt = min(max(x + sgn * step, lo), hi)
            if nxt == x:
                ends[sgn] = x
                break
            if stop is not None and stop(nxt, fx):
                return fx, x, carry
            value, c = yield from probe(nxt, carry)
            if not value < fx:
                ends[sgn] = nxt
                break
            ends[-sgn] = x
            fx, x, carry = value, nxt, c

    a, b = ends[-1], ends[1]
    w = v = x
    fw = fv = fx
    d = e = 0.0
    for _ in range(LINE_SEARCH_ITERATIONS):
        mid = 0.5 * (a + b)
        tol = tol_of(x)
        if abs(x - mid) <= 2.0 * tol - 0.5 * (b - a):
            return fx, x, carry
        golden = True
        if abs(e) > tol and math.isfinite(fx + fw + fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
                golden = False
        if golden:
            e = (a if x >= mid else b) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu, cu = yield from probe(u, carry)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, carry = u, fu, cu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    raise NumericalError(f"line search did not converge to {tol_of(x):.3g} in "
                         f"{LINE_SEARCH_ITERATIONS} steps near {x:.17g}")


def _searched(lines, start, u, best, radius):
    """Whether a start other than `start` has finished a line within
    `radius` of `u` with a value strictly below `best`; `lines` holds
    (start, detuning, value, probes) records.  A tie does not count, so
    starts with equal lines never stop each other."""
    return any(k != start and abs(d - u) <= radius and value < best
               for k, d, value, _ in lines)


def _drive_line(solved, det, seed, lo, hi):
    """The objective's minimum along the line of detuning `det`, in log10
    drive within [lo, hi], as a generator.

    `solved` is the search's memo of values keyed by (detuning, log10
    drive).  The line is scanned at DRIVE_SCAN points across
    +-DRIVE_SPAN decades around `seed`, clipped to [lo, hi], in one
    request.  The scan's neighbours of its argmin bracket the minimum;
    at a scan end the bracket is widened outward by scan steps, and
    `_line_search` takes it down to DRIVE_TOL decades.  Each request is
    (det, xs), naming only rows the memo lacks; the generator expects
    `solved` to hold their values when it resumes.  Returns (value, x,
    probes), `probes` counting the values read, scan included; the value
    is +inf, at `seed`, when the whole scan is.
    """
    grid = np.linspace(max(lo, seed - DRIVE_SPAN), min(hi, seed + DRIVE_SPAN),
                       DRIVE_SCAN).tolist()
    new = [x for x in grid if (det, x) not in solved]
    if new:
        yield det, new
    values = [solved[det, x] for x in grid]
    i = int(np.argmin(values))
    if not math.isfinite(values[i]):
        return math.inf, seed, DRIVE_SCAN
    probes = DRIVE_SCAN

    def probe(x, _):
        nonlocal probes
        probes += 1
        if (det, x) not in solved:
            yield det, [x]
        return solved[det, x], None

    value, x, _ = yield from _line_search(
        grid[i], values[i], None, grid[1] - grid[0], lo, hi,
        lambda _: DRIVE_TOL, probe,
        a=grid[i - 1] if i > 0 else None,
        b=grid[i + 1] if i < DRIVE_SCAN - 1 else None)
    return value, x, probes


def _lockstep(steppers, solve):
    """Run generators side by side, in rounds, to their return values.

    Each round hands `solve` the requests of every live stepper, as
    (stepper index, request) pairs in stepper order, in one call; then it
    resumes each live stepper, in order, with `next()`.  Nothing is sent
    back: `solve` leaves its answers where the steppers read them.
    Returns the steppers' return values, in order.
    """
    results = [None] * len(steppers)
    asks = {}

    def advance(i):
        try:
            asks[i] = next(steppers[i])
        except StopIteration as stop:
            asks.pop(i, None)
            results[i] = stop.value

    for i in range(len(steppers)):
        advance(i)
    while asks:
        solve(list(asks.items()))
        for i in list(asks):
            advance(i)
    return results


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    detuning: float
    drive: float
    on_boundary: bool
    evaluations: int  # objective values the search consumed
    solved_rows: int  # distinct rows the objective was given


def _search_box(detuning_bounds, drive_bounds):
    """(d_lo, d_hi, p_lo, p_hi) as floats; ValueError unless all four are
    finite, ordered, with positive drives."""
    d_lo, d_hi = map(float, detuning_bounds)
    p_lo, p_hi = map(float, drive_bounds)
    if not all(map(math.isfinite, (d_lo, d_hi, p_lo, p_hi))):
        raise ValueError("search bounds must be finite")
    if not (d_lo < d_hi and 0 < p_lo < p_hi):
        raise ValueError("bounds must be ordered and drives positive")
    return d_lo, d_hi, p_lo, p_hi


def _searches(cells, detuning_bounds, drive_bounds, coarse, objective):
    """The search of `optimize_scalar` in every cell of `cells` at once.

    `cells` tags the cells, and `objective(points)` returns the values at
    a list of (cell, (detuning, log10 drive)) points.  Each cell keeps its
    own memo of values and its own record of finished lines.  The coarse
    grids of all cells go to the objective in one call; then the
    REFINE_STARTS starts of every cell run as the steppers of one
    `_lockstep`, cells in order and starts in order within a cell.  Each
    round's requests go to the objective in one call, each distinct row
    once, and fill the memos the starts read.  Returns one OptimizeResult
    per cell, in order.
    """
    d_lo, d_hi, p_lo, p_hi = _search_box(detuning_bounds, drive_bounds)
    lg_lo, lg_hi = math.log10(p_lo), math.log10(p_hi)
    n_det, n_drv = coarse
    dets = np.linspace(d_lo, d_hi, n_det)
    logs = np.linspace(lg_lo, lg_hi, n_drv)
    grid = list(zip(np.repeat(dets, n_drv), np.tile(logs, n_det)))
    det_step = dets[1] - dets[0] if n_det > 1 else 0.1 * (d_hi - d_lo)
    memos = {cell: {} for cell in cells}
    # every finished detuning line per cell: (start, detuning, value, probes)
    lines = {cell: [] for cell in cells}

    def solve(points):
        """Put the values at (cell, row) points in the cells' memos."""
        values = np.asarray(objective(points), dtype=float).tolist()
        for (cell, row), value in zip(points, values):
            memos[cell][row] = value

    # Stage two is nested coordinate descent.  The objective's valley is a
    # needle in drive (the hybridization window is well under a percent
    # wide) that drifts smoothly with detuning, so the drive coordinate
    # gets an exact line minimization (`_drive_line`) and the detuning
    # coordinate a bracketed Brent search over those per-detuning minima,
    # each line's scan centred on the best needle so far.  Both are
    # generators yielding (detuning, log10 drives) requests.

    def det_tol(det):
        return 0.5 * STEP_FLOOR * max(abs(det), 1.0)

    def line(cell, start, det, seed_lg):
        value, lg, probes = yield from _drive_line(memos[cell], det, seed_lg,
                                                   lg_lo, lg_hi)
        lines[cell].append((start, det, value, probes))
        return value, lg

    def refine(cell, start, det0, lg0):
        fb, lg = yield from line(cell, start, det0, lg0)
        return (yield from _line_search(
            det0, fb, lg, det_step, d_lo, d_hi, det_tol,
            lambda det, seed_lg: line(cell, start, det, seed_lg),
            stop=lambda det, best: _searched(lines[cell], start, det, best,
                                             0.5 * det_step)))

    solve([(cell, row) for cell in cells for row in grid])
    owners, steppers = [], []
    for cell in cells:
        memo = memos[cell]
        best = sorted((memo[row], *row) for row in grid if math.isfinite(memo[row]))
        for start, (_, det0, lg0) in enumerate(best[:REFINE_STARTS]):
            owners.append(cell)
            steppers.append(refine(cell, start, det0, lg0))
    finished = _lockstep(steppers, lambda asks: solve(list(dict.fromkeys(
        (owners[i], (det, x)) for i, (det, xs) in asks for x in xs))))

    def result(cell):
        evaluations = len(grid) + sum(probes for *_, probes in lines[cell])
        ends = [end for owner, end in zip(owners, finished) if owner == cell]
        if not ends:
            return OptimizeResult(math.inf, math.nan, math.nan, False,
                                  evaluations, len(memos[cell]))
        # the first start of least value, in start order
        value, det, lg = min(ends, key=lambda end: end[0])
        on_boundary = (min(det - d_lo, d_hi - det) <= det_tol(det)
                       or min(lg - lg_lo, lg_hi - lg) <= DRIVE_TOL)
        return OptimizeResult(value=value, detuning=det, drive=10.0 ** lg,
                              on_boundary=on_boundary, evaluations=evaluations,
                              solved_rows=len(memos[cell]))

    return [result(cell) for cell in cells]


def _drives(points):
    """(detunings, drives) arrays of (detuning, log10 drive) points."""
    return (np.array([det for det, _ in points]),
            np.array([10.0 ** lg for _, lg in points]))


def optimize_scalar(objective, detuning_bounds, drive_bounds,
                    coarse=COARSE_GRID) -> OptimizeResult:
    """Deterministic minimizer over (detuning, drive).

    `objective(detunings, drives)` takes two equal-length 1-D arrays and
    returns an array of values, +inf where undefined (unstable or
    degenerate).  Stage one evaluates a coarse grid of `coarse` (detuning,
    drive) points, linear in detuning and logarithmic in drive, in one
    call; the default COARSE_GRID gives the optima of a (37, 37) grid to
    SEARCH_REL_TOL on the fig2 cells.  Stage two refines the best
    REFINE_STARTS coarse cells by nested line searches (`_line_search`),
    each bracketed by a march at a fixed step while the value improves,
    then minimized by Brent's method, with parabolic steps where the last
    three values are finite and golden-section steps otherwise.  The
    inner line is the drive at fixed detuning (`_drive_line`): a
    DRIVE_SCAN-point scan brackets its needle, marching on by scan steps
    only from an argmin at a scan end, and Brent takes it to DRIVE_TOL
    decades.  The outer line is the detuning over those line minima,
    bracketed by a march at the coarse detuning step and taken to
    STEP_FLOOR * max(|detuning|, 1) / 2.  A start's march stops before
    a detuning within half a coarse step of a detuning line that another
    start has finished with a strictly lower value, and that start
    returns its best point so far; Brent's stage and the drive lines
    never stop this way.  A stopped start's value lies above a line of
    another start, so the optimum is never a stopped start's point.  A
    line search still open after LINE_SEARCH_ITERATIONS Brent steps
    raises NumericalError; no unconverged point is returned.  The starts
    run in lockstep rounds, each round's requests in one objective call,
    and the best start is taken in start order once all have finished.
    Values are kept in one memo per (detuning, log10 drive) row, every
    probe reads it, and a request names only rows the memo lacks, so the
    objective sees each distinct row once.  `evaluations` counts the
    values the search consumed and `solved_rows` the distinct rows the
    objective was given.  `on_boundary` says whether the optimum lies
    within its coordinate's line-search tolerance of a bound of the
    search box; the optimum is not moved.  This is the one-cell case of
    `_searches`, which `occupation_landscape` runs over all its cells.
    """
    (result,) = _searches([None], detuning_bounds, drive_bounds, coarse,
                          lambda points: objective(*_drives([p for _, p in points])))
    return result


def sphere_occupation_objective(m: ModelParams):
    """Objective over stacked (effective detuning, drive) rows returning
    the sphere occupation, +inf where no stable covariance exists."""

    def objective(detunings, drives):
        batch = solve_points(m, detunings, drives)
        n2 = np.where(batch.status == OK, occupation(batch.V, 2), math.inf)
        return n2.reshape(np.shape(detunings))[()]
    return objective


@dataclass(frozen=True)
class LandscapePoint:
    omega1: float
    omega2: float
    n2_min: float
    n2_thermal: float
    detuning: float
    drive: float
    ok: bool
    message: str = ""
    on_boundary: bool = False  # the optimum sits on a search bound
    evaluations: int = 0       # objective evaluations spent on the cell
    solved_rows: int = 0       # distinct rows solved for them


@dataclass(frozen=True)
class LandscapeResult:
    points: list          # row-major over (omega1, omega2)
    omega1: np.ndarray
    omega2: np.ndarray
    ridge: dict           # omega1 -> omega2 minimizing the cooled occupation


def check_landscape_inputs(omega1_grid, omega2_grid, detuning_bounds, drive_bounds):
    """The frequency axes of a landscape as 1-D float arrays.

    ValueError unless both axes are non-empty, every omega2 lies inside
    (1, max(omega1)), and the search bounds are finite and ordered, with
    positive drives.
    """
    omega1_grid = np.atleast_1d(np.asarray(omega1_grid, dtype=float))
    omega2_grid = np.atleast_1d(np.asarray(omega2_grid, dtype=float))
    if omega1_grid.size == 0 or omega2_grid.size == 0:
        raise ValueError("frequency axes must be non-empty")
    if np.any(omega2_grid <= 1.0) or np.any(omega2_grid >= omega1_grid.max()):
        raise ValueError("omega2 grid must lie inside (1, max(omega1)) in "
                         "units of the cavity decay rate")
    _search_box(detuning_bounds, drive_bounds)
    return omega1_grid, omega2_grid


def occupation_landscape(base: PhysicalParams, omega1_grid, omega2_grid,
                         detuning_bounds=DETUNING_BOUNDS,
                         drive_bounds=DRIVE_BOUNDS,
                         coarse=COARSE_GRID) -> LandscapeResult:
    """Minimized sphere occupation over (detuning, drive) per frequency cell.

    Mechanical frequencies are taken in units of the cavity decay rate;
    each cell re-derives the couplings and bath occupations from `base`
    at the shifted frequencies, so the frequency scaling of g1, g2 and
    chi is applied consistently.  Cells where the optimizer finds no
    stable point are recorded, not fatal.  omega2 must lie strictly
    between the cavity linewidth (1 in model units) and omega1.  Each
    point records the optimizer's evaluation and solved-row counts and
    whether its optimum sits on a search bound.

    Every cell runs the search of `optimize_scalar` (`_searches`), in
    one lockstep over every start of every cell, answered through each
    cell's memo.  Each round's rows go to `solve_points` together, in
    calls of at most SOLVE_CHUNK rows, whatever the size of `coarse`;
    every cell's parameters and the constants derived from them are
    stacked once (`params.ParamRows`), and a round only gathers its rows'
    (`ParamRows.take`).  A stacked row equals the row solved alone, so
    each cell's result is that of its own search.
    """
    omega1_grid, omega2_grid = check_landscape_inputs(
        omega1_grid, omega2_grid, detuning_bounds, drive_bounds)
    kappa = base.cavity_decay
    grid = [(o1, o2) for o1 in omega1_grid for o2 in omega2_grid]
    models = {k: nondimensionalize(replace(base, mirror_freq=o1 * kappa,
                                           sphere_freq=o2 * kappa), detuning=-1.0)
              for k, (o1, o2) in enumerate(grid) if o2 < o1}
    cell_params = ParamRows.stack(models.values())

    def solve(round_points):
        """Sphere occupations at the (cell, (detuning, log10 drive)) points
        of one round, in calls of at most SOLVE_CHUNK rows."""
        values = []
        for at in range(0, len(round_points), SOLVE_CHUNK):
            chunk = round_points[at:at + SOLVE_CHUNK]
            rows = cell_params.take([cell for cell, _ in chunk])
            values.append(sphere_occupation_objective(rows)(
                *_drives([p for _, p in chunk])))
        return np.concatenate(values)

    results = dict(zip(models, _searches(range(len(models)), detuning_bounds,
                                         drive_bounds, coarse, solve)))

    def cell_point(k, o1, o2):
        if k not in models:
            return LandscapePoint(o1, o2, math.inf, math.nan, math.nan,
                                  math.nan, False, "omega2 >= omega1 excluded")
        m, opt = models[k], results[k]
        if not math.isfinite(opt.value):
            return LandscapePoint(o1, o2, math.inf, m.n2, math.nan, math.nan,
                                  False, "no stable point in bounds",
                                  evaluations=opt.evaluations,
                                  solved_rows=opt.solved_rows)
        return LandscapePoint(o1, o2, opt.value, m.n2, opt.detuning,
                              opt.drive, True, on_boundary=opt.on_boundary,
                              evaluations=opt.evaluations,
                              solved_rows=opt.solved_rows)

    points = [cell_point(k, o1, o2) for k, (o1, o2) in enumerate(grid)]

    ridge = {}
    for i, o1 in enumerate(omega1_grid):
        row = [p for p in points[i * omega2_grid.size:(i + 1) * omega2_grid.size]
               if p.ok]
        if row:
            ridge[float(o1)] = float(min(row, key=lambda p: p.n2_min).omega2)
    return LandscapeResult(points=points, omega1=omega1_grid,
                           omega2=omega2_grid, ridge=ridge)
