"""Classical (mean-field) fixed points of the three-mode dynamics.

Everything here is in model units (kappa_c == 1, hbar == 1).  Setting
the time derivatives and noises to zero in the mean-field equations of
motion gives

    a_bar  = sqrt(2) * a_in / (i*dt_eff - 1),
    x1_bar = g1 * |a_bar|^2 / Omega1,
    x2_bar = 2 g2 chi |a_bar|^2 x1_bar / Omega2
           = 2 g1 g2 chi |a_bar|^4 / (Omega1 Omega2),

with the drive-shifted mechanical frequencies

    Omega1 = omega1 + 2 g2 chi^2 |a_bar|^2 - 4 g2^2 chi^2 |a_bar|^4 / Omega2,
    Omega2 = omega2 + 2 g2 |a_bar|^2,

and the effective detuning dt_eff = dt + g1 x1_bar - g2 (chi x1_bar - x2_bar)^2.

x1_bar follows from stationarity of the mirror momentum equation (it is
not fixed independently of it); both displacement relations above are
mutually consistent with that equation.  Omega2 <= 0 means the sphere's
effective potential is flat or inverted and no valid fixed point exists.

With an effective-detuning parameterization the fixed point is in closed
form.  With a bare detuning the scalar self-consistency condition
dt_eff = dt + g1 x1(dt_eff) - g2 (chi x1 - x2)^2(dt_eff) is solved by a
dense scan, in which every exactly-zero residual is a root and every
strict sign change a bracket, plus bisection of every bracket in
lockstep; several roots may coexist (optical bistability) and all are
returned.  The bisection engine, `_bisect_rows`, also serves
`sweeps.instability_threshold`: each stacked evaluation holds the
midpoints of every bracket a few halvings deep, plus, for a root, those
on the path its regula falsi guess predicts, and every midpoint is the
one a loop of one halving per evaluation forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrapError, NumericalError
from .params import ModelParams, root_window

_SQRT2 = math.sqrt(2.0)

#: effective detunings scanned for sign changes of the self-consistency
#: condition, and the width each root is bisected down to
SCAN_POINTS = 2001
BISECT_TOL = 1e-12


@dataclass(frozen=True)
class ClassicalSteadyState:
    """Mean-field solution in model units."""

    a_bar: complex        # intracavity amplitude
    x1_bar: float         # static mirror displacement
    x2_bar: float         # static sphere displacement
    Omega1: float         # drive-shifted mirror frequency
    Omega2: float         # drive-shifted sphere frequency
    delta_eff: float      # effective detuning
    photon_number: float  # |a_bar|^2


def cavity_amplitude(delta_eff, a_in) -> complex:
    """Intracavity amplitude for a given effective detuning and input.

    |a_bar|^2 = 2 |a_in|^2 / (delta_eff^2 + 1): twice the input flux on
    resonance, Lorentzian falloff with detuning.
    """
    return _SQRT2 * a_in / (1j * delta_eff - 1.0)


@dataclass(frozen=True)
class FixedPoints:
    """Closed-form mean fields of N stacked (effective detuning, drive) rows.

    Every field is an array of shape (N,).  Rows whose trap is flat or
    inverted (Omega2 <= 0, or Omega1 == 0) are flagged in `degenerate`
    instead of raising; their other entries are meaningless.
    """

    delta_eff: np.ndarray
    drive: np.ndarray
    photon_number: np.ndarray
    x1_bar: np.ndarray
    x2_bar: np.ndarray
    Omega1: np.ndarray
    Omega2: np.ndarray
    degenerate: np.ndarray  # bool

    def reason(self, i) -> str:
        """Why degenerate row `i` has no valid fixed point."""
        if self.Omega2[i] <= 0:
            return (f"sphere trap degenerate: Omega2 = {self.Omega2[i]:.6g} "
                    f"at |a|^2 = {self.photon_number[i]:.6g}")
        return "mirror effective frequency vanished"

    def state(self, i) -> ClassicalSteadyState:
        """Row `i` as a ClassicalSteadyState; raises DegenerateTrapError."""
        if self.degenerate[i]:
            raise DegenerateTrapError(self.reason(i))
        delta_eff = float(self.delta_eff[i])
        return ClassicalSteadyState(
            a_bar=cavity_amplitude(delta_eff, math.sqrt(self.drive[i])),
            x1_bar=float(self.x1_bar[i]), x2_bar=float(self.x2_bar[i]),
            Omega1=float(self.Omega1[i]), Omega2=float(self.Omega2[i]),
            delta_eff=delta_eff, photon_number=float(self.photon_number[i]),
        )


def fixed_points(m: ModelParams, detunings, drives) -> FixedPoints:
    """Closed-form fixed points of stacked (effective detuning, drive) rows.

    `detunings` and `drives` broadcast to one shape (N,); every other
    parameter, and the products of them, come from `m`
    (`params.ParamRows`).  Degenerate-trap rows are flagged, not raised.
    """
    delta = np.array(detunings, dtype=float, ndmin=1)
    drive = np.array(drives, dtype=float, ndmin=1)
    if delta.shape != drive.shape:
        # copied, not broadcast views: a strided view slows the arithmetic below
        rows = np.empty((2,) + np.broadcast_shapes(delta.shape, drive.shape))
        rows[0], rows[1] = delta, drive
        delta, drive = rows
    # |delta| above about 1.3e154 overflows delta ** 2: the photon number is 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        na = 2.0 * drive / (delta ** 2 + 1.0)
        Omega2 = m.omega2 + m.two_g2 * na
        Omega1 = m.omega1 + m.two_g2_chi2 * na - m.four_g2g2_chi2 * na ** 2 / Omega2
        x1 = m.g1 * na / Omega1
        x2 = m.two_g2_chi * na * x1 / Omega2
    return FixedPoints(delta_eff=delta, drive=drive, photon_number=na,
                       x1_bar=x1, x2_bar=x2, Omega1=Omega1, Omega2=Omega2,
                       degenerate=(Omega2 <= 0) | (Omega1 == 0))


def fixed_point(m: ModelParams) -> ClassicalSteadyState:
    """Closed-form fixed point for an effective-detuning parameterization."""
    if m.detuning_mode != "effective":
        raise ValueError("fixed_point requires detuning_mode='effective'; "
                         "use self_consistent_fixed_points for a bare detuning")
    return fixed_points(m, m.detuning, m.drive).state(0)


def effective_detuning(delta_bare, x1_bar, x2_bar, m: ModelParams):
    """Detuning corrected for the static optomechanical displacements."""
    return delta_bare + m.g1 * x1_bar - m.g2 * (m.chi * x1_bar - x2_bar) ** 2


def _consistency_residuals(m: ModelParams, delta_bare, delta_effs):
    """dt + g1 x1(dt_eff) - g2 (chi x1 - x2)^2 - dt_eff per effective
    detuning; nan where the trap is degenerate."""
    fp = fixed_points(m, delta_effs, m.drive)
    res = effective_detuning(delta_bare, fp.x1_bar, fp.x2_bar, m) - fp.delta_eff
    return np.where(fp.degenerate, np.nan, res)


def _bisect_rows(f, lo, hi, flo, tol, depth, geometric=False, fhi=None):
    """Bisect N brackets [lo, hi] of a stacked function `f` in lockstep.

    `f` maps a 1-D array of points to their values, each point's value
    independent of the others; `flo` holds each bracket's value at `lo`
    and `fhi`, if given, its value at `hi`.  A halving goes left when
    flo * f(mid) <= 0 (`hi`, `fhi` = mid, f(mid)) and right otherwise
    (`lo`, `flo` = mid, f(mid)); a NaN f(mid) freezes the bracket.  The
    midpoint is 0.5 * (lo + hi), or sqrt(lo * hi) when `geometric`, and
    a bracket is bisected while hi - lo > tol (hi / lo > 1 + tol) and
    its midpoint lies strictly inside it, so two adjacent floats end it.

    Each call of `f` evaluates the midpoints of every live bracket's
    depth-`depth` bisection tree (2**depth - 1 points, in order) and,
    when `fhi` is given, the midpoints on the path that the bracket's
    regula falsi guess lo - flo (hi - lo) / (fhi - flo) predicts, down
    to `tol`; a guess that is not finite or not strictly inside the
    bracket predicts no path.  Every bracket then walks by the rules
    above, reading f at each midpoint it reaches, and ends the call at
    the first midpoint that was not evaluated.  So each midpoint is the
    one a loop of one halving per call would form, bit for bit, no
    result depends on `depth` or `fhi`, and the values at evaluated
    points off the walk are not read.

    Returns (lo, hi, frozen): the final brackets, and which of them
    froze; a frozen bracket's NaN midpoint is the midpoint of its
    returned ends.
    """
    # Python floats: their arithmetic and comparisons are numpy's bit for bit
    lo, hi, flo = (np.array(v, dtype=float, ndmin=1).tolist() for v in (lo, hi, flo))
    predict = fhi is not None
    fhi = np.array(fhi, dtype=float, ndmin=1).tolist() if predict else [math.nan] * len(lo)
    # mid(a, b) is a bracket's midpoint; split(a, b) is too while the
    # bracket is still to bisect, and None once it is not
    if geometric:
        def mid(a, b):
            return math.sqrt(a * b)

        def split(a, b):
            m = math.sqrt(a * b)
            return m if b / a > 1.0 + tol and a < m < b else None
    else:
        def mid(a, b):
            return 0.5 * (a + b)

        def split(a, b):
            m = 0.5 * (a + b)
            return m if b - a > tol and a < m < b else None

    def tree(a, b):
        """The bracket's midpoints `depth` halvings deep, in order."""
        # level by level: a self-recursive closure would leave a
        # reference cycle per call for the garbage collector
        ends = [a, b]
        for _ in range(depth):
            ends[1:] = [x for left, right in zip(ends, ends[1:])
                        for x in (mid(left, right), right)]
        return ends[1:-1]

    def path(a, b, fa, fb):
        """The predicted path's midpoints below the tree."""
        guess = a - fa * (b - a) / (fb - fa) if fb != fa else math.nan
        if not a < guess < b:
            return []
        nodes = []
        m = split(a, b)
        while m is not None:
            nodes.append(m)
            if guess <= m:
                b = m
            else:
                a = m
            m = split(a, b)
        return nodes[depth:]

    frozen = [False] * len(lo)
    live = [i for i in range(len(lo)) if split(lo[i], hi[i]) is not None]
    while live:
        points = [tree(lo[i], hi[i])
                  + (path(lo[i], hi[i], flo[i], fhi[i]) if predict else [])
                  for i in live]
        values = iter(f(np.array([x for row in points for x in row])).tolist())
        still = []
        for i, row in zip(live, points):
            known = dict(zip(row, values))  # takes len(row) values
            a, b, fa, fb = lo[i], hi[i], flo[i], fhi[i]
            m = split(a, b)
            fm = known.get(m)
            while fm is not None and not math.isnan(fm):
                if fa * fm <= 0.0:
                    b, fb = m, fm
                else:
                    a, fa = m, fm
                m = split(a, b)
                fm = known.get(m)
            if fm is not None:
                frozen[i] = True
            elif m is not None:
                still.append(i)
            lo[i], hi[i], flo[i], fhi[i] = a, b, fa, fb
        live = still
    return np.array(lo), np.array(hi), np.array(frozen)


def self_consistent_fixed_points(m: ModelParams, window=None):
    """All fixed points for a bare-detuning parameterization.

    The scalar self-consistency condition is scanned on SCAN_POINTS
    evenly spaced effective detunings over `window` (default
    `params.root_window`; ValueError unless its ends and its width are
    finite and it is increasing) in
    one stacked evaluation.  Every scan point whose residual is exactly
    zero is a root, and every scan cell whose end residuals have a
    negative product is a bracket; a NaN (degenerate trap) or a zero end
    makes no bracket.  All brackets are bisected in lockstep to
    BISECT_TOL, or to two adjacent floats, by `_bisect_rows`, each
    stacked evaluation taking every bracket's midpoint and the midpoints
    on the path that its regula falsi guess from the residuals at both
    ends predicts; a bracket whose midpoint is NaN stops there.  Returns
    the expanded states sorted by photon number; more than one entry
    signals optical bistability.
    """
    if m.detuning_mode != "bare":
        raise ValueError("self_consistent_fixed_points requires detuning_mode='bare'")
    delta = m.detuning
    if window is None:
        window = root_window(delta)
    w_lo, w_hi = map(float, window)
    if not (math.isfinite(w_hi - w_lo) and w_lo < w_hi):
        raise ValueError("window must be finite and increasing, with a finite "
                         f"width, got {window}")
    grid = np.linspace(w_lo, w_hi, SCAN_POINTS)
    res = _consistency_residuals(m, delta, grid)

    # a NaN or zero end never makes the product negative; overflow gives
    # inf, and inf * 0 NaN
    with np.errstate(over="ignore", invalid="ignore"):
        cells = np.flatnonzero(res[:-1] * res[1:] < 0.0)
    lo, hi, _ = _bisect_rows(
        lambda x: _consistency_residuals(m, delta, x), grid[cells], grid[cells + 1],
        res[cells], BISECT_TOL, 1, fhi=res[cells + 1])
    roots = np.sort(np.concatenate((grid[res == 0.0], 0.5 * (lo + hi))))

    if not roots.size:
        raise NumericalError(
            f"no self-consistent fixed point found for detuning {delta} "
            f"in window {window}")

    fp = fixed_points(m, roots, m.drive)
    states = [fp.state(i) for i in range(roots.size)]
    states.sort(key=lambda s: s.photon_number)
    return states


def stationarity_residuals(m: ModelParams, s: ClassicalSteadyState):
    """Residuals of the zero-noise equations of motion at the fixed point.

    Returns |residual| for the cavity equation and the two momentum
    equations; the position equations are satisfied identically since
    the static momenta vanish.  Used by tests and the validation report.
    """
    a_in = math.sqrt(m.drive)
    ra = (1j * s.delta_eff - 1.0) * s.a_bar - _SQRT2 * a_in
    na = abs(s.a_bar) ** 2
    lever = m.chi * s.x1_bar - s.x2_bar
    rp1 = -m.omega1 * s.x1_bar + (m.g1 - 2.0 * m.g2 * m.chi * lever) * na
    rp2 = -m.omega2 * s.x2_bar + 2.0 * m.g2 * lever * na
    return abs(ra), abs(rp1), abs(rp2)
