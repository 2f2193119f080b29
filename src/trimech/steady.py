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
dense scan plus bisection of every bracket in lockstep; several roots
may coexist (optical bistability) and all are returned.  The bisection
engine, `_bisect_rows`, also serves `sweeps.instability_threshold`: each
stacked evaluation takes several halvings of every bracket at once, and
every midpoint is the one a loop of one halving per evaluation forms.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTrapError, NumericalError
from .params import ModelParams

_SQRT2 = math.sqrt(2.0)

#: effective detunings scanned for sign changes of the self-consistency
#: condition, and the width each root is bisected down to
SCAN_POINTS = 2001
BISECT_TOL = 1e-12

#: halvings of every root bracket per stacked residual evaluation; the
#: roots do not depend on it
ROOT_BISECT_DEPTH = 6


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


def _trap_frequencies(m: ModelParams, photon_number):
    """Drive-shifted (Omega1, Omega2), elementwise over an array.

    Squares of parameters are products: a scalar's `** 2` is libm's pow,
    which can differ in the last bit from the square an array of
    per-row parameters takes.
    """
    na = photon_number
    chi2 = m.chi * m.chi
    Omega2 = m.omega2 + 2.0 * m.g2 * na
    Omega1 = (m.omega1 + 2.0 * m.g2 * chi2 * na
              - 4.0 * (m.g2 * m.g2) * chi2 * na ** 2 / Omega2)
    return Omega1, Omega2


def fixed_points(m: ModelParams, detunings, drives) -> FixedPoints:
    """Closed-form fixed points of stacked (effective detuning, drive) rows.

    `detunings` and `drives` broadcast to one shape (N,); every other
    parameter comes from `m`, a ModelParams or a record of per-row (N,)
    parameter arrays.  Degenerate-trap rows are flagged, not raised.
    """
    delta = np.array(detunings, dtype=float, ndmin=1)
    drive = np.array(drives, dtype=float, ndmin=1)
    # copied, not broadcast views: a strided view slows the arithmetic below
    rows = np.empty((2,) + np.broadcast_shapes(delta.shape, drive.shape))
    rows[0], rows[1] = delta, drive
    delta, drive = rows
    with np.errstate(divide="ignore", invalid="ignore"):
        na = 2.0 * drive / (delta ** 2 + 1.0)
        Omega1, Omega2 = _trap_frequencies(m, na)
        x1 = m.g1 * na / Omega1
        x2 = 2.0 * m.g2 * m.chi * na * x1 / Omega2
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


def _bisect_rows(f, lo, hi, flo, tol, depth, geometric=False):
    """Bisect N brackets [lo, hi] of a stacked function `f` in lockstep.

    `f` maps a 1-D array of points to their values, each point's value
    independent of the others; `flo` holds each bracket's value at `lo`.
    A halving goes left when flo * f(mid) <= 0 and right otherwise
    (`lo`, `flo` = mid, f(mid)); a NaN f(mid) freezes the bracket.  The
    midpoint is 0.5 * (lo + hi), or sqrt(lo * hi) when `geometric`, and
    a bracket is bisected while hi - lo > tol (hi / lo > 1 + tol).

    Each call of `f` takes `depth` halvings of every live bracket: it
    evaluates the whole depth-`depth` bisection tree of the bracket
    (2**depth - 1 points, bracket-major), each node the midpoint of its
    two neighbours among the bracket's ends and the nodes above it.
    Every bracket then walks down its tree by the rules above, testing
    its width after every halving, and the nodes off its path are not
    read.  So each midpoint is the one a loop of one halving per call
    would form, bit for bit, and no result depends on `depth`.

    Returns (lo, hi, frozen): the final brackets, and which of them
    froze; a frozen bracket's NaN midpoint is the midpoint of its
    returned ends.
    """
    lo, hi, flo = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, flo))
    if geometric:
        def mid(a, b):
            return np.sqrt(a * b)

        def wide(a, b):
            return b / a > 1.0 + tol
    else:
        def mid(a, b):
            return 0.5 * (a + b)

        def wide(a, b):
            return b - a > tol
    frozen = np.zeros(lo.shape, dtype=bool)
    live = np.flatnonzero(wide(lo, hi)).tolist()
    top = 2 ** depth
    while live:
        # columns 0 and `top` hold the ends; level k fills the odd
        # multiples of top / 2**k from their neighbours at that stride
        tree = np.empty((len(live), top + 1))
        tree[:, 0], tree[:, top] = lo[live], hi[live]
        step = top // 2
        while step:
            tree[:, step::2 * step] = mid(tree[:, :-1:2 * step], tree[:, 2 * step::2 * step])
            step //= 2
        values = np.reshape(f(tree[:, 1:top].ravel()), (len(live), top - 1)).tolist()
        still = []
        # the walk is the one-halving loop in Python floats, whose
        # arithmetic and comparisons are numpy's bit for bit
        for i, nodes, fs in zip(live, tree.tolist(), values):
            a, b, fa = 0, top, float(flo[i])
            for _ in range(depth):
                j = (a + b) // 2
                fm = fs[j - 1]
                if math.isnan(fm):
                    frozen[i] = True
                    break
                if fa * fm <= 0.0:
                    b = j
                else:
                    a, fa = j, fm
                if not wide(nodes[a], nodes[b]):
                    break
            else:
                still.append(i)
            lo[i], hi[i], flo[i] = nodes[a], nodes[b], fa
        live = still
    return lo, hi, frozen


def self_consistent_fixed_points(m: ModelParams, window=None):
    """All fixed points for a bare-detuning parameterization.

    The scalar self-consistency condition is scanned on SCAN_POINTS
    evenly spaced effective detunings over `window` (default
    +/- (|detuning| + 50)) in one stacked evaluation.  A scan cell is
    skipped when either end is NaN (degenerate trap); otherwise its left
    end is a root when its residual is exactly zero, and a sign change
    is bracketed.  All brackets are bisected in lockstep to BISECT_TOL
    by `_bisect_rows`, ROOT_BISECT_DEPTH halvings per stacked
    evaluation; a bracket whose midpoint is NaN stops there.  The last
    scan point is a root when its residual is exactly zero.  Returns the
    expanded states sorted by photon number; more than one entry signals
    optical bistability.
    """
    if m.detuning_mode != "bare":
        raise ValueError("self_consistent_fixed_points requires detuning_mode='bare'")
    delta = m.detuning
    if window is None:
        half = abs(delta) + 50.0
        window = (-half, half)
    grid = np.linspace(window[0], window[1], SCAN_POINTS)
    res = _consistency_residuals(m, delta, grid)

    r0, r1 = res[:-1], res[1:]
    valid = ~np.isnan(r0) & ~np.isnan(r1)
    zero = valid & (r0 == 0.0)
    # the products keep float semantics: overflow gives inf, inf * 0 NaN
    with np.errstate(over="ignore", invalid="ignore"):
        cross = valid & ~zero & (r0 * r1 < 0.0)
    cells = np.flatnonzero(zero | cross)
    lo, hi = grid[cells], grid[cells + 1]
    bracket = cross[cells]
    lo[bracket], hi[bracket], _ = _bisect_rows(
        lambda x: _consistency_residuals(m, delta, x), lo[bracket], hi[bracket],
        r0[cells][bracket], BISECT_TOL, ROOT_BISECT_DEPTH)
    roots = np.where(zero[cells], lo, 0.5 * (lo + hi))
    if res[-1] == 0.0:
        roots = np.append(roots, grid[-1])

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
