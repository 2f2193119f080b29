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
records why and at which drive its rows stopped.

The (detuning, power) optimizer is deterministic: a coarse grid (linear
in detuning, logarithmic in drive) followed by coordinate pattern
search with successive halving from the best few coarse cells.  The
cooling ridge is narrow in power, which is why refinement (one loop for
both coordinates) marches each improving direction as far as it pays.
The search keeps one memo of values per (detuning, drive) row.  The
drive-line march is replayed against it and solves, in one stack, every
probe it would make if none of the unknown ones improved; it repeats
until a replay meets no unknown probe, so the search and its optimum are
those of a march that probes one at a time.  Each refinement start is a
generator of requests, each for rows the memo lacks, and the starts run
in lockstep rounds: a round's requests from every live start go to the
objective in one call, so each distinct row is solved once and each
call brings new rows.  The whole search is a generator too, so the
cooling landscape runs the searches of all its cells in lockstep, each
with its own memo: a round's rows from every live cell go to one
stacked solve, each row with its own cell's parameters, in calls of at
most one coarse grid of rows.  As a stacked row equals the row solved
alone, whatever the other rows and their parameters, none of this
changes a value, an optimum or an evaluation count.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import DegenerateTrapError, PhysicsError
from .linear import (DEGENERATE, FAULT, OK, UNSTABLE, LinearStack,
                     _lyapunov_rows, _raise_for, covariance_summary,
                     linear_model, linear_models, match_modes, normal_modes,
                     occupation, squeezing)
from .params import (ModelParams, PhysicalParams, nondimensionalize,
                     watts_from_drive)
from .params import drive_from_watts  # noqa: F401  (callers import it from here too)
from .steady import FixedPoints, fixed_point, fixed_points

#: relative width of the bracket `instability_threshold` bisects down to
THRESHOLD_REL_TOL = 1e-4

#: coarse cells the optimizer refines, and its detuning step floor
#: relative to max(|detuning|, 1)
REFINE_STARTS = 3
STEP_FLOOR = 1e-3

#: each drive-line minimization scans DRIVE_SCAN points across
#: +-DRIVE_SPAN decades around its seed drive
DRIVE_SPAN = 0.3
DRIVE_SCAN = 25

#: the fig2 search box: effective detuning and model-unit drive
DETUNING_BOUNDS = (-45.0, -2.0)
DRIVE_BOUNDS = (1e6, 1e12)


class _RowParams(NamedTuple):
    """The model parameters the stacked kernel reads, one (N,) array per
    field, so that one stack can hold rows of different ModelParams
    (which holds validated scalars only)."""

    omega1: np.ndarray
    omega2: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    chi: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    @classmethod
    def stack(cls, models):
        """One row per ModelParams of `models`."""
        return cls(*np.array([[getattr(m, f) for f in cls._fields]
                              for m in models]).T)

    def take(self, rows):
        """The record of the rows `rows` of this one."""
        rows = np.asarray(rows)
        return _RowParams(*(field[rows] for field in self))


@dataclass(frozen=True)
class PointBatch:
    """Stacked solve of N (effective detuning, drive) rows of one ModelParams
    or of a `_RowParams` record."""

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
    other parameters come from `m`, whose detuning, detuning mode and
    drive are not read: a ModelParams, or a `_RowParams` record of
    per-row parameters, which gives each row its own diffusion.  Each row
    gets one eigendecomposition, and a row's result does not depend on
    the other rows or on the parameters of theirs.
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


def is_stable(m: ModelParams) -> bool:
    """Stability verdict including trap degeneracy.

    The verdict is spectral: the same one-row eigendecomposition as
    `solve_point`, so a drive that a sweep finds unstable is unstable here
    too.  A row whose spectrum cannot be certified raises NumericalError,
    never reads as unstable; a stable row is stable here even if its
    covariance would miss the Lyapunov contract, which this verdict does
    not solve for, so a sweep can stop at it with `stop_reason = "fault"`.
    """
    try:
        s = fixed_point(m)
    except DegenerateTrapError:
        return False
    return linear_model(m, s).stable


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

    Modes are tracked by continuity: the first row's modes are matched
    to (|detuning|, omega1, omega2) to label the cavity, mirror and
    sphere branches, and each subsequent row is matched to the previous
    one by minimal total frequency jump.  The hybridization entry flags
    the row where the mirror and sphere branches come closest.
    """
    batch, kept, power_w, stop = _stable_prefix(m, drives, base)
    end = kept.size
    reference = [abs(m.detuning), m.omega1, m.omega2]
    tracked = []
    for lam in batch.linear.eigenvalues[:end]:
        modes = match_modes(reference, normal_modes(lam))
        reference = [f for f, _ in modes]
        tracked.append(modes)
    tracked = np.array(tracked)  # (n, 3, 2): (frequency, damping) per branch
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

    Requires a stable lower bound and an unstable upper bound; the
    returned value is the last stable drive of a bracket of relative
    width THRESHOLD_REL_TOL.  Stable means the spectral verdict of
    `is_stable`, so the drive returned can be one whose covariance misses
    the Lyapunov contract and that `solve_points` reports as FAULT.
    """
    if not (0 < drive_lo < drive_hi):
        raise ValueError("need 0 < drive_lo < drive_hi")
    lo = float(drive_lo)
    hi = float(drive_hi)
    if not is_stable(replace(m, drive=lo)):
        raise ValueError(f"lower bound {lo:.6g} is not stable")
    if is_stable(replace(m, drive=hi)):
        raise ValueError(f"upper bound {hi:.6g} is not unstable")
    while hi / lo > 1.0 + THRESHOLD_REL_TOL:
        mid = math.sqrt(lo * hi)
        if is_stable(replace(m, drive=mid)):
            lo = mid
        else:
            hi = mid
    return lo


def _march(x, fx, carry, step, lo, hi, probe, floor_of):
    """One coordinate of the pattern search, as a generator: march each
    direction while `probe(x, carry)` improves on `fx` within [lo, hi],
    halve the step when neither does, stop at `floor_of(x)` (re-read at
    each halving).  `probe` returns (value, carry), or a generator that
    returns it, whose requests the march passes through (`yield from`).
    Returns the best (value, x, carry)."""
    floor = floor_of(x)
    while step > floor:
        moved = False
        for sgn in (1.0, -1.0):
            while True:
                nxt = x + sgn * step
                if nxt < lo:
                    nxt = lo
                elif nxt > hi:
                    nxt = hi
                if nxt == x:
                    break
                probed = probe(nxt, carry)
                v, c = probed if type(probed) is tuple else (yield from probed)
                if not v < fx:
                    break
                fx, x, carry, moved = v, nxt, c, True
        if not moved:
            step *= 0.5
            floor = floor_of(x)
    return fx, x, carry


def _replay_march(solved, det, x, fx, step, lo, hi, floor_of):
    """`_march` along the line at detuning `det`, with its probes solved
    in stacks.

    A generator.  Each pass replays the march from the start against
    `solved`, the search's memo of values keyed by (detuning, x).  A
    probe missing from it counts as no improvement and is recorded, so
    one pass records every probe the march would make if none of the
    unknown ones improved; the generator then yields the request
    (det, xs) for them, deduplicated, and expects `solved` to hold their
    values when it resumes.  The pass that meets no unknown probe is the
    march that probes one at a time.  Returns (value, x, probes),
    `probes` being that march's probe count.
    """
    while True:
        unknown = []
        probes = 0

        def probe(p, carry):
            nonlocal probes
            probes += 1
            v = solved.get((det, p))
            if v is None:
                unknown.append(p)
                v = math.inf
            return v, carry

        fx_best, x_best, _ = yield from _march(x, fx, None, step, lo, hi, probe,
                                               floor_of)
        if not unknown:
            return fx_best, x_best, probes
        yield det, list(dict.fromkeys(unknown))


def _lockstep(steppers, solve):
    """Run generators that yield (key, xs) requests side by side.

    A generator itself.  Each round gathers the requests of every live
    stepper into one `solve(points)` over their (key, x) points, a
    generator run with `yield from` that returns the points' values, and
    sends each stepper its slice.  Returns the steppers' return values,
    in order.
    """
    results = [None] * len(steppers)
    asks = {}

    def advance(i, values):
        try:
            asks[i] = steppers[i].send(values)
        except StopIteration as stop:
            asks.pop(i, None)
            results[i] = stop.value

    for i in range(len(steppers)):
        advance(i, None)
    while asks:
        live = list(asks.items())
        values = yield from solve([(key, x) for _, (key, xs) in live for x in xs])
        at = 0
        for i, (_, xs) in live:
            advance(i, values[at:at + len(xs)])
            at += len(xs)
    return results


def _relay(points):
    """A `_lockstep` solve that yields each round's points as one request."""
    return (yield points)


def _serve(stepper, solve):
    """Run the generator `stepper` to its return value, answering each
    request it yields with `solve(request)`."""
    values = None
    while True:
        try:
            request = stepper.send(values)
        except StopIteration as stop:
            return stop.value
        values = solve(request)


@dataclass(frozen=True)
class OptimizeResult:
    value: float
    detuning: float
    drive: float
    on_boundary: bool
    evaluations: int  # objective values the search consumed
    solved_rows: int  # distinct rows solved, speculative drive-line probes included


def _search_box(detuning_bounds, drive_bounds):
    """(d_lo, d_hi, p_lo, p_hi) as floats; ValueError unless ordered with
    positive drives."""
    d_lo, d_hi = map(float, detuning_bounds)
    p_lo, p_hi = map(float, drive_bounds)
    if not (d_lo < d_hi and 0 < p_lo < p_hi):
        raise ValueError("bounds must be ordered and drives positive")
    return d_lo, d_hi, p_lo, p_hi


def _search(detuning_bounds, drive_bounds, coarse, cell=None):
    """The search of `optimize_scalar` as a generator.

    It yields (cell, rows) requests, `rows` being the (detuning, log10
    drive) rows its memo lacks, each once, expects their values sent
    back, and returns the OptimizeResult.  `cell` only tags the requests.
    """
    d_lo, d_hi, p_lo, p_hi = _search_box(detuning_bounds, drive_bounds)
    lg_lo, lg_hi = math.log10(p_lo), math.log10(p_hi)
    n_det, n_drv = coarse
    dets = np.linspace(d_lo, d_hi, n_det)
    logs = np.linspace(lg_lo, lg_hi, n_drv)

    solved = {}

    def ask(points):
        """Values at (detuning, log10 drive) points; only rows not solved
        before are requested, deduplicated, in one request."""
        new = [p for p in dict.fromkeys(points) if p not in solved]
        if new:
            values = yield cell, new
            solved.update(zip(new, np.asarray(values, dtype=float).tolist()))
        return [solved[p] for p in points]

    grid = list(zip(np.repeat(dets, n_drv), np.tile(logs, n_det)))
    cells = [(val, dv, lg) for val, (dv, lg) in zip((yield from ask(grid)), grid)
             if math.isfinite(val)]
    evals = len(grid)
    if not cells:
        return OptimizeResult(math.inf, math.nan, math.nan, False, evals,
                              len(solved))
    cells.sort()

    det_step = dets[1] - dets[0] if n_det > 1 else 0.1 * (d_hi - d_lo)

    # Stage two is nested coordinate descent.  The objective's valley is a
    # needle in drive (the hybridization window is well under a percent
    # wide) that drifts smoothly with detuning, so the drive coordinate
    # gets an exact line minimization (local scan plus marching halving)
    # and the detuning coordinate an outer march over those per-detuning
    # minima, warm-started at the neighbouring needle position.  Both are
    # generators yielding (detuning, log10 drives) requests.

    lg_floor = 1e-4

    def det_floor(det):
        return STEP_FLOOR * max(abs(det), 1.0)

    def drive_minimum(det, seed_lg):
        nonlocal evals
        lo = max(lg_lo, seed_lg - DRIVE_SPAN)
        hi = min(lg_hi, seed_lg + DRIVE_SPAN)
        grid = np.linspace(lo, hi, DRIVE_SCAN)
        new = [lg for lg in grid if (det, lg) not in solved]
        if new:
            yield det, new
        vals = [solved[det, lg] for lg in grid]
        evals += DRIVE_SCAN
        i = int(np.argmin(vals))
        fb, lg = vals[i], grid[i]
        if not math.isfinite(fb):
            return math.inf, seed_lg
        fb, lg, probes = yield from _replay_march(
            solved, det, lg, fb, grid[1] - grid[0], lg_lo, lg_hi,
            lambda _: lg_floor)
        evals += probes
        return fb, lg

    def refine(det0, lg0):
        fb, lg = yield from drive_minimum(det0, lg0)
        return (yield from _march(det0, fb, lg, det_step, d_lo, d_hi,
                                  drive_minimum, det_floor))

    best_val, best_x = math.inf, None
    starts = [refine(det0, lg0) for _, det0, lg0 in cells[:REFINE_STARTS]]
    for fb, det, lg in (yield from _lockstep(starts, ask)):
        if fb < best_val:
            best_val, best_x = fb, (det, lg)

    det, lg = best_x
    on_boundary = (min(det - d_lo, d_hi - det) <= det_floor(det)
                   or min(lg - lg_lo, lg_hi - lg) <= lg_floor)
    return OptimizeResult(value=best_val, detuning=det, drive=10.0 ** lg,
                          on_boundary=on_boundary, evaluations=evals,
                          solved_rows=len(solved))


def _drives(points):
    """(detunings, drives) arrays of (detuning, log10 drive) points."""
    return (np.array([det for det, _ in points]),
            np.array([10.0 ** lg for _, lg in points]))


def optimize_scalar(objective, detuning_bounds, drive_bounds,
                    coarse=(25, 25)) -> OptimizeResult:
    """Deterministic minimizer over (detuning, drive).

    `objective(detunings, drives)` takes two equal-length 1-D arrays and
    returns an array of values, +inf where undefined (unstable or
    degenerate).  Stage one evaluates a coarse grid, linear in detuning
    and logarithmic in drive, in one call; stage two runs coordinate
    pattern search (march while improving, then halve the step) from the
    best REFINE_STARTS coarse cells down to a relative step floor.  Each
    refinement is a generator that yields its drive-line scans and its
    speculative drive-line march probes (`_replay_march`, which takes the
    same path as probing one at a time); the starts run in lockstep, each
    round's requests in one objective call, and the best start is taken
    in start order once all have finished.  Values are kept in one memo
    per (detuning, log10 drive) row, and a request names only rows the
    memo lacks, so the objective sees each distinct row once.
    `evaluations` counts the probes the search consumed and `solved_rows`
    the distinct rows the objective was given, speculative ones included.
    `on_boundary` says whether the optimum lies within its coordinate's
    step floor of a bound of the search box; the optimum is not moved.
    The search itself is a generator (`_search`) that this function feeds
    from `objective`; `occupation_landscape` feeds many at once.
    """
    return _serve(_search(detuning_bounds, drive_bounds, coarse),
                  lambda request: objective(*_drives(request[1])))


def sphere_occupation_objective(m: ModelParams):
    """Objective over stacked (effective detuning, drive) rows returning
    the sphere occupation, +inf where no stable covariance exists.  `m`
    is a ModelParams or, for rows of different cells, a `_RowParams`."""

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
    solved_rows: int = 0       # distinct rows solved for them, speculative included


@dataclass(frozen=True)
class LandscapeResult:
    points: list          # row-major over (omega1, omega2)
    omega1: np.ndarray
    omega2: np.ndarray
    ridge: dict           # omega1 -> omega2 minimizing the cooled occupation


def check_landscape_inputs(omega1_grid, omega2_grid, detuning_bounds, drive_bounds):
    """The frequency axes of a landscape as 1-D float arrays.

    ValueError unless both axes are non-empty, every omega2 lies inside
    (1, max(omega1)), and the search bounds are ordered with positive
    drives.
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
                         coarse=(25, 25)) -> LandscapeResult:
    """Minimized sphere occupation over (detuning, drive) per frequency cell.

    Mechanical frequencies are taken in units of the cavity decay rate;
    each cell re-derives the couplings and bath occupations from `base`
    at the shifted frequencies, so the frequency scaling of g1, g2 and
    chi is applied consistently.  Cells where the optimizer finds no
    stable point are recorded, not fatal.  omega2 must lie strictly
    between the cavity linewidth (1 in model units) and omega1.  Each
    point records the optimizer's evaluation and solved-row counts and
    whether its optimum sits on a search bound.

    The cells run in lockstep.  Each cell runs the search of
    `optimize_scalar` with its own memo, and each round's requests from
    every live cell go to `solve_points` together, with each row's
    parameters gathered from its cell's ModelParams (`_RowParams`), in
    calls of at most one coarse grid of rows.  A stacked row equals the
    row solved alone, so each cell's result is that of its own search.
    """
    omega1_grid, omega2_grid = check_landscape_inputs(
        omega1_grid, omega2_grid, detuning_bounds, drive_bounds)
    kappa = base.cavity_decay
    grid = [(o1, o2) for o1 in omega1_grid for o2 in omega2_grid]
    models = {k: nondimensionalize(replace(base, mirror_freq=o1 * kappa,
                                           sphere_freq=o2 * kappa), detuning=-1.0)
              for k, (o1, o2) in enumerate(grid) if o2 < o1}
    cell_params = _RowParams.stack(models.values())
    cap = coarse[0] * coarse[1]

    def solve(round_points):
        """Sphere occupations at the (cell, (detuning, log10 drive)) points
        of one round, in calls of at most `cap` rows."""
        values = []
        for at in range(0, len(round_points), cap):
            chunk = round_points[at:at + cap]
            rows = cell_params.take([cell for cell, _ in chunk])
            values.append(sphere_occupation_objective(rows)(
                *_drives([p for _, p in chunk])))
        return np.concatenate(values)

    searches = [_search(detuning_bounds, drive_bounds, coarse, cell)
                for cell in range(len(models))]
    results = dict(zip(models, _serve(_lockstep(searches, _relay), solve)))

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
