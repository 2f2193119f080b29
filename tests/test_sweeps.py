"""Power sweeps, mode tracking, thresholds, optimizer and landscape."""

import dataclasses
import functools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trimech.errors import NumericalError, PhysicsError
from trimech.params import drive_from_watts, reference_params, watts_from_drive
from trimech.presets import fig2_protocol, fig3_model, fig4_model, preset_drives
from trimech.sweeps import (COARSE_GRID, DETUNING_BOUNDS, DRIVE_BOUNDS,
                            DRIVE_SCAN, DRIVE_SPAN, DRIVE_TOL,
                            SEARCH_REL_TOL, SOLVE_CHUNK, _argmin, _drive_line,
                            _line_search, _linspace, _searched,
                            instability_threshold, occupation_landscape,
                            optimize_scalar, power_sweep,
                            sphere_occupation_objective, squeezing_sweep)

from conftest import call_budget
from test_golden import NUMPY

REF = reference_params()


class TestPowerSweep:
    def test_zero_power_limits(self):
        m = fig3_model()
        result = power_sweep(m, [0.0, 1e4], base=REF)
        assert result.freqs[0] == pytest.approx([27.2, 10.0, 3.4], rel=1e-6)
        assert result.n1[0] == pytest.approx(m.n1, rel=1e-6)
        assert result.n2[0] == pytest.approx(m.n2, rel=1e-6)

    def test_mirror_branch_softens(self):
        m = fig3_model()
        drives = drive_from_watts(REF, np.logspace(-5, np.log10(2.0e-3), 40))
        result = power_sweep(m, drives, base=REF)
        mirror = result.freqs[:, 1]
        assert np.all(np.diff(mirror) < 1e-9)
        assert mirror[-1] < mirror[0] - 1.0

    def test_truncates_and_brackets_instability(self):
        m = fig3_model()
        drives = drive_from_watts(REF, np.logspace(-3, -2, 60))
        result = power_sweep(m, drives, base=REF)
        assert result.threshold_bracket is not None
        lo, hi = result.threshold_bracket
        assert lo < hi
        assert result.drive[-1] == lo
        assert len(result.drive) < 60

    def test_watts_round_trip(self):
        drives = drive_from_watts(REF, np.array([1e-4, 1e-3]))
        back = watts_from_drive(REF, drives)
        assert back == pytest.approx([1e-4, 1e-3], rel=1e-12)


class TestSqueezingSweep:
    def test_zero_power_vacuum(self):
        m = fig4_model()
        result = squeezing_sweep(m, [0.0, 1e4], base=REF)
        for arr in (result.var_x1, result.var_p1, result.var_x2, result.var_p2):
            assert arr[0] == pytest.approx(0.5, abs=1e-9)
        assert result.S1[0] == pytest.approx(1.0, abs=1e-8)
        assert result.S2[0] == pytest.approx(1.0, abs=1e-8)

    def test_max_tracks_last_stable_point(self):
        m = fig4_model()
        result = squeezing_sweep(m, preset_drives("fig4"), base=REF)
        assert result.threshold_bracket is not None
        assert result.max_S2["drive"] == result.drive[-1]
        assert result.max_S2["value"] > 1.1


# A fig4-like squeezing sweep whose drive of 8.2709556e9, 8e-8 below the
# instability threshold and below the first unstable grid drive
# (8.4202e9), is solved with a Lyapunov residual of 3.24e-9, over the
# 1e-10 contract: a real eigenvalue (-3.4e-6) is about to cross zero,
# so V is large, and so is its roundoff residual measured against max|D|.
# Sweeps once recorded that numerical fault as the unstable end of the
# threshold bracket.
FAULT_SWEEP_CONFIG = """\
[physical]
wavelength = 1064 nm
cavity_length = 0.5 cm
cavity_decay = 50 kHz
mirror_mass = 40 ng
mirror_freq = 1 MHz
mirror_damping = 140 Hz
sphere_radius = 0.5 um
sphere_density = 2650 kg/m^3
refractive_index = 1.5
sphere_freq = 459.724 kHz
sphere_damping = 0.5 mHz
cavity_waist = 4 um
bath_temp_mirror = 0 K
bath_temp_sphere = 0 K
input_power = 1 mW
sphere_site = node

[model]
detuning_mode = effective
detuning = -9.519019
"""


# The same fig4-like set at another sphere frequency and detuning, where
# the drive that instability_threshold returns (9.7051e9) is stable by its
# spectrum while its covariance misses the contract (residual 2.61e-10).
SPECTRAL_THRESHOLD_CONFIG = """\
[physical]
wavelength = 1064 nm
cavity_length = 0.5 cm
cavity_decay = 50 kHz
mirror_mass = 40 ng
mirror_freq = 1 MHz
mirror_damping = 140 Hz
sphere_radius = 0.5 um
sphere_density = 2650 kg/m^3
refractive_index = 1.5
sphere_freq = 493.355 kHz
sphere_damping = 0.5 mHz
cavity_waist = 4 um
bath_temp_mirror = 0 K
bath_temp_sphere = 0 K
input_power = 1 mW
sphere_site = node

[model]
detuning_mode = effective
detuning = -10.047643
"""


def sweep_input(config, watts_min, watts_max, points):
    """(model, physical base, drives) of config text and a log grid in W,
    built as the CLI builds a squeezing sweep."""
    from trimech.config import model_section, parse_sections, physical_params
    from trimech.params import nondimensionalize
    sections = parse_sections(config)
    phys = physical_params(sections)
    m = nondimensionalize(phys, *model_section(sections))
    drives = drive_from_watts(phys, np.logspace(math.log10(watts_min),
                                                math.log10(watts_max), points))
    return m, phys, drives


def fault_sweep_input():
    return sweep_input(FAULT_SWEEP_CONFIG, 2.045487e-05, 6.121144e-04, 191)


class TestSweepBracket:
    def test_bracket_upper_end_is_unstable(self):
        from trimech.sweeps import is_stable
        m, phys, drives = fault_sweep_input()
        result = squeezing_sweep(m, drives, base=phys)
        lo, hi = result.threshold_bracket
        assert lo == result.drive[-1]
        assert hi == pytest.approx(8.4202e9, rel=1e-4)
        assert not is_stable(replace(m, drive=hi))
        crit = instability_threshold(m, lo, hi)
        assert lo <= crit < hi

    @staticmethod
    def fault_row(monkeypatch, row):
        """Make the stacked solve report `row` as a numerical fault."""
        import trimech.sweeps as sweeps
        from trimech.linear import FAULT
        real = sweeps._lyapunov_rows

        def lyapunov_rows(stack):
            V, status, reasons = real(stack)
            status[row] = FAULT
            reasons[row] = "Lyapunov residual exceeds contract"
            return V, status, reasons

        monkeypatch.setattr(sweeps, "_lyapunov_rows", lyapunov_rows)

    def test_numerical_fault_ends_rows_but_not_the_bracket(self, monkeypatch):
        """A row without a certified covariance ends the rows; the bracket
        still runs to the first unstable drive, past the faulted one."""
        from trimech.sweeps import is_stable
        m, phys, drives = fault_sweep_input()
        clean = squeezing_sweep(m, drives, base=phys)
        faulted = len(clean.drive) - 3
        self.fault_row(monkeypatch, faulted)
        result = squeezing_sweep(m, drives, base=phys)
        assert np.array_equal(result.drive, clean.drive[:faulted])
        lo, hi = result.threshold_bracket
        assert lo == result.drive[-1]
        assert hi == clean.threshold_bracket[1]
        assert not is_stable(replace(m, drive=hi))
        assert lo <= instability_threshold(m, lo, hi) < hi

    def test_numerical_fault_with_no_unstable_drive_leaves_no_bracket(self, monkeypatch):
        """When no swept drive is unstable, a faulted row ends the rows and
        the bracket stays None: a fault never stands in for an instability."""
        m, phys, drives = fault_sweep_input()
        clean = squeezing_sweep(m, drives, base=phys)
        stable = drives[:len(clean.drive)]
        assert squeezing_sweep(m, stable, base=phys).threshold_bracket is None
        faulted = len(stable) - 3
        self.fault_row(monkeypatch, faulted)
        result = squeezing_sweep(m, stable, base=phys)
        assert np.array_equal(result.drive, stable[:faulted])
        assert result.threshold_bracket is None
        assert result.stop_reason == "fault"
        assert result.stop_drive == stable[faulted]

    def test_stop_reason_tells_fault_from_instability_and_end_of_range(self):
        m, phys, drives = fault_sweep_input()
        clean = squeezing_sweep(m, drives, base=phys)
        assert clean.stop_reason == "fault"  # the real contract miss
        assert clean.stop_drive == pytest.approx(8.2709e9, rel=1e-4)
        assert clean.stop_drive < clean.threshold_bracket[1]
        whole = squeezing_sweep(m, drives[:len(clean.drive)], base=phys)
        assert whole.stop_reason == "end of range"
        assert whole.stop_drive is None
        fig3 = drive_from_watts(REF, np.logspace(-3, -2, 60))
        power = power_sweep(fig3_model(), fig3, base=REF)
        assert power.stop_reason == "unstable"
        assert power.stop_drive == power.threshold_bracket[1]

    @pytest.mark.skipif(np.__version__ != NUMPY,
                        reason=f"drives recorded with numpy {NUMPY}, not "
                               f"{np.__version__}; LAPACK may round differently")
    def test_threshold_verdict_is_spectral(self):
        """instability_threshold bisects on the spectrum alone, so the drive
        it returns can be one whose covariance misses the contract: stable
        to is_stable and to the linear stack, a fault to solve_points."""
        from trimech.linear import FAULT, OK
        from trimech.sweeps import is_stable, solve_points
        m, phys, drives = sweep_input(SPECTRAL_THRESHOLD_CONFIG,
                                      2.843676e-05, 8.908028e-04, 208)
        result = squeezing_sweep(m, drives, base=phys)
        assert result.threshold_bracket == (9691232545.324425, 9853841943.777025)
        crit = instability_threshold(m, *result.threshold_bracket)
        assert crit == 9705100761.852898
        assert is_stable(replace(m, drive=crit))
        batch = solve_points(m, m.detuning, crit)
        assert batch.linear.status[0] == OK
        assert batch.status[0] == FAULT
        assert batch.reasons[0] == "Lyapunov residual 2.61e-10 exceeds contract 1e-10"


class TestNoStableRow:
    @pytest.mark.parametrize("sweep", [power_sweep, squeezing_sweep])
    @pytest.mark.parametrize("watts", [[], [1.0, 2.0]])
    def test_raises_physics_error(self, sweep, watts):
        """An empty drive grid, or one that is unstable from its first drive."""
        from trimech.sweeps import is_stable
        m = fig3_model()
        drives = drive_from_watts(REF, np.array(watts))
        assert not any(is_stable(replace(m, drive=d)) for d in drives)
        with pytest.raises(PhysicsError, match="no stable point"):
            sweep(m, drives, base=REF)


class TestBareDetuningRefused:
    """Every entry point that reads `m.detuning` as effective refuses a
    bare one instead of solving at the wrong detuning, all in the words
    of one check."""

    MATCH = "detuning_mode='effective'"

    @pytest.mark.parametrize("sweep", [power_sweep, squeezing_sweep])
    def test_sweeps(self, sweep):
        m = replace(fig3_model(), detuning_mode="bare")
        with pytest.raises(ValueError, match=self.MATCH):
            sweep(m, preset_drives("fig3"), base=REF)

    def test_fixed_point(self):
        from trimech.steady import fixed_point
        with pytest.raises(ValueError, match=self.MATCH):
            fixed_point(replace(fig3_model(), detuning_mode="bare"))

    def test_solve_point(self):
        from trimech.sweeps import solve_point
        with pytest.raises(ValueError, match=self.MATCH):
            solve_point(replace(fig3_model(), detuning_mode="bare"))

    def test_is_stable(self):
        from trimech.sweeps import is_stable
        with pytest.raises(ValueError, match=self.MATCH):
            is_stable(replace(fig3_model(), detuning_mode="bare"))

    def test_instability_threshold(self):
        m = replace(fig4_model(), detuning_mode="bare")
        with pytest.raises(ValueError, match=self.MATCH):
            instability_threshold(m, drive_from_watts(REF, 1e-5),
                                  drive_from_watts(REF, 5e-3))


class TestInstabilityThreshold:
    def test_requires_bracket(self):
        m = fig3_model()
        stable_lo = drive_from_watts(REF, 1e-5)
        with pytest.raises(ValueError, match="unstable"):
            instability_threshold(m, stable_lo, 2 * stable_lo)
        with pytest.raises(ValueError, match="stable"):
            instability_threshold(m, drive_from_watts(REF, 1.0),
                                  drive_from_watts(REF, 2.0))

    def test_no_threshold_for_uncoupled_system(self):
        m = replace(fig3_model(), g1=0.0, g2=0.0, chi=0.0)
        with pytest.raises(ValueError, match="unstable"):
            instability_threshold(m, 1e2, 1e14)

    def test_fig4_threshold_and_monotonicity(self):
        m = fig4_model()
        lo = drive_from_watts(REF, 1e-5)
        hi = drive_from_watts(REF, 5e-3)
        crit = instability_threshold(m, lo, hi)
        assert watts_from_drive(REF, crit) == pytest.approx(5.77e-4, rel=0.01)
        # verdict flips exactly once on a dense scan of the same interval
        from trimech.sweeps import is_stable
        drives = np.logspace(math.log10(lo), math.log10(hi), 80)
        verdicts = np.array([is_stable(replace(m, drive=d)) for d in drives])
        assert int(np.sum(verdicts[:-1] != verdicts[1:])) == 1

    @pytest.mark.parametrize("lo, hi", [
        (1e9, math.inf), (math.inf, math.inf), (math.nan, 1e9), (1e9, math.nan)],
        ids=["inf-hi", "inf-both", "nan-lo", "nan-hi"])
    def test_bounds_must_be_finite(self, lo, hi):
        """sqrt(lo * inf) is inf, so an infinite upper bound never shrank;
        a bound that is not finite is a ValueError."""
        m = fig4_model()
        with call_budget(), pytest.raises(ValueError, match="finite"):
            instability_threshold(m, lo, hi)


class TestOptimizeScalar:
    def test_recovers_quadratic_minimum(self):
        def objective(detuning, drive):
            return (detuning + 17.0) ** 2 + (np.log10(drive) - 6.5) ** 2

        res = optimize_scalar(objective, (-30.0, -2.0), (1e4, 1e9))
        assert res.detuning == pytest.approx(-17.0, abs=0.05)
        assert math.log10(res.drive) == pytest.approx(6.5, abs=0.01)

    def test_all_unstable_returns_inf(self):
        res = optimize_scalar(lambda d, p: np.full(np.shape(d), math.inf),
                              (-30.0, -2.0), (1e4, 1e9))
        assert math.isinf(res.value)

    def test_boundary_optimum_is_flagged(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # on_boundary carries it
            res = optimize_scalar(lambda d, p: d, (-30.0, -2.0), (1e4, 1e9))
        assert res.on_boundary
        assert res.detuning == -30.0

    @pytest.mark.parametrize("detuning_bounds, drive_bounds", [
        ((-30.0, -2.0), (1e4, math.inf)),
        ((-math.inf, -2.0), (1e4, 1e9)),
        ((-30.0, math.nan), (1e4, 1e9)),
    ])
    def test_rejects_a_bound_that_is_not_finite(self, detuning_bounds,
                                                drive_bounds):
        def objective(detuning, drive):
            raise AssertionError("the objective is never called")

        with pytest.raises(ValueError, match="finite"):
            optimize_scalar(objective, detuning_bounds, drive_bounds)

    def test_objective_sees_each_row_once(self):
        """On an objective flat in detuning the starts' lines meet, and
        starts ask for the same rows in one round; the objective is given
        each row once, and `solved_rows` counts them."""
        rows = []

        def objective(detuning, drive):
            rows.extend(zip(detuning.tolist(), drive.tolist()))
            return (np.log10(drive) - 6.5) ** 2

        res = optimize_scalar(objective, (-30.0, -2.0), (1e4, 1e9))
        assert len(rows) == len(set(rows)) == res.solved_rows < res.evaluations

    def test_deterministic(self):
        m = fig3_model()
        objective = sphere_occupation_objective(m)
        a = optimize_scalar(objective, (-40.0, -5.0), (1e8, 1e11),
                            coarse=(9, 9))
        b = optimize_scalar(objective, (-40.0, -5.0), (1e8, 1e11),
                            coarse=(9, 9))
        assert a == b

    def test_dominates_quoted_operating_point(self):
        """The optimizer must do at least as well as the published
        operating point (detuning -27.2, hybridization drive)."""
        m = fig3_model()
        objective = sphere_occupation_objective(m)
        quoted = objective(-27.2, drive_from_watts(REF, 2.5813e-3))
        res = optimize_scalar(objective, (-40.0, -5.0), (1e9, 1e11))
        assert res.value <= quoted


def _run(stepper, solve=None):
    """Drive a generator to its return value, answering each request
    with `solve(request)`."""
    try:
        request = next(stepper)
        while True:
            request = stepper.send(solve(request))
    except StopIteration as stop:
        return stop.value


class TestLineSearch:
    """The drive-line search brackets and converges to DRIVE_TOL, stays on
    a bound that holds the optimum, and asks only for rows its memo
    lacks.  It reads its scan grid outward from the seed, and finds the
    minimum of a scan of the whole grid with fewer rows."""

    # case: (objective, seed, lo, hi, minimizer)
    CASES = {
        "quadratic": (lambda x: (x - 0.37) ** 2, 0.2, -2.0, 2.0, 0.37),
        "needle": (lambda x: -1.0 / (1.0 + ((x - 0.1137) / 1e-3) ** 2),
                   0.0, -2.0, 2.0, 0.1137),
        "inf plateau": (lambda x: np.where(x > 0.5, math.inf, (x - 0.61) ** 2),
                        0.3, -2.0, 2.0, 0.5),
        "optimum on lo": (lambda x: x * 1.0, -0.9, -1.0, 1.0, -1.0),
        "optimum on hi": (lambda x: -x, 0.3, -1.0, 1.0, 1.0),
        "optimum outside the scan window": (lambda x: (x - 1.7) ** 2, 0.0,
                                            -2.0, 2.0, 1.7),
        # the first window is +inf throughout; only the top three grid
        # points are finite
        "inf window": (lambda x: np.where(x < 0.24, math.inf, (x - 0.28) ** 2),
                       0.0, -2.0, 2.0, 0.28),
        # the grid is clipped at lo, two steps below the seed's grid point
        "seed near a clipped bound": (lambda x: (x + 0.9) ** 2, -0.97,
                                      -1.0, 1.0, -0.9),
    }
    DET = -7.0  # the detuning of the searched line

    @staticmethod
    def grid(seed, lo, hi):
        return np.linspace(max(lo, seed - DRIVE_SPAN), min(hi, seed + DRIVE_SPAN),
                           DRIVE_SCAN).tolist()

    def line(self, g, seed, lo, hi, memo):
        """Run the drive line of objective `g` against `memo`, a
        {(detuning, x): value} dict it fills: (value, x, probes) and the
        xs of each request."""
        requests = []

        def solve(request):
            det, xs = request
            assert det == self.DET
            assert xs and not any((det, x) in memo for x in xs)  # only rows it lacks
            requests.append(xs)
            memo.update(zip(((det, x) for x in xs), g(np.array(xs, dtype=float))))

        return _run(_drive_line(memo, self.DET, seed, lo, hi), solve), requests

    def search(self, case, memo):
        g, seed, lo, hi, _ = self.CASES[case]
        return self.line(g, seed, lo, hi, memo)

    def full_scan(self, g, seed, lo, hi, memo):
        """The former rule, kept as an oracle: solve all DRIVE_SCAN grid
        points, bracket by the argmin's neighbours and make the same
        `_line_search` call.  Returns (value, x); fills `memo`."""
        grid = self.grid(seed, lo, hi)
        memo.update(zip(grid, g(np.array(grid))))
        i = int(np.argmin([memo[x] for x in grid]))
        if not math.isfinite(memo[grid[i]]):
            return math.inf, seed

        def probe(x, _):
            if x not in memo:
                memo[x] = g(np.array([x]))[0]
            return memo[x], None
            yield  # a probe that requests nothing

        value, x, _ = _run(_line_search(
            grid[i], memo[grid[i]], None, grid[1] - grid[0], lo, hi,
            lambda _: DRIVE_TOL, probe,
            a=grid[i - 1] if i > 0 else None,
            b=grid[i + 1] if i < DRIVE_SCAN - 1 else None))
        return value, x

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_converges(self, case):
        g, seed, lo, hi, x_min = self.CASES[case]
        memo = {}
        (value, x, probes), requests = self.search(case, memo)
        assert value == memo[self.DET, x] == g(np.array([x]))[0]
        assert abs(x - x_min) <= 2 * DRIVE_TOL
        assert sum(map(len, requests)) == len(memo) <= probes
        if case.startswith("optimum on"):
            assert x == x_min  # the bound is kept, not approached

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_full_scan(self, case):
        """The line returns the full scan's (value, x) bit for bit, and
        solves fewer rows, unless its window was +inf throughout and it
        read the whole grid."""
        g, seed, lo, hi, _ = self.CASES[case]
        memo, full = {}, {}
        (value, x, _), requests = self.search(case, memo)
        assert (value, x) == self.full_scan(g, seed, lo, hi, full)
        grid = self.grid(seed, lo, hi)
        if case == "inf window":
            assert requests[:2] == [grid[9:16], grid[:9] + grid[16:]]
            assert len(memo) == len(full)
        else:
            assert len(memo) < len(full)

    def test_scan_grid_and_argmin_are_numpys(self):
        """The line's scan grid is `np.linspace`'s and its window argmin
        `np.argmin`'s, bit for bit, in Python floats: on seeded windows,
        on spans whose step is zero or under one ulp of the start, and on
        lists with ties, signed zeros, infinities and NaN."""
        rng = np.random.default_rng(33)
        spans = [tuple(sorted(rng.uniform(-20.0, 20.0, 2))) for _ in range(2000)]
        spans += [(s - DRIVE_SPAN, s + DRIVE_SPAN) for s in rng.uniform(6.0, 12.0, 2000)]
        spans += [(0.0, 5e-324), (-5e-324, 5e-324), (1.0, 1.0 + 2.0 ** -52)]
        for lo, hi in spans:
            assert ([x.hex() for x in _linspace(lo, hi, DRIVE_SCAN)]
                    == [x.hex() for x in np.linspace(lo, hi, DRIVE_SCAN).tolist()])
        pool = [0.0, -0.0, 1.0, 2.0, -3.0, math.inf, -math.inf, math.nan]
        lists = [rng.choice(pool, size=rng.integers(1, 8)).tolist() for _ in range(2000)]
        assert sum(any(v != v for v in x) for x in lists) > 100
        for values in lists:
            assert _argmin(values) == int(np.argmin(values))

    def test_first_window_is_clipped_at_the_grid(self):
        """A seed two grid steps above a clipped bound reads the grid's
        first six points, then widens once toward the minimum above them
        and probes from there."""
        _, requests = self.search("seed near a clipped bound", {})
        grid = self.grid(*self.CASES["seed near a clipped bound"][1:4])
        assert requests[:2] == [grid[:6], grid[6:9]]
        assert all(len(xs) == 1 for xs in requests[2:])

    def test_flat_line_takes_the_grids_first_point(self):
        """On a flat line every window's argmin is its first point, so the
        window widens down to the grid's first point, which wins as on the
        full scan: the line then marches below it."""
        def g(x):
            return 0.0 * x + 1.0

        grid = self.grid(0.0, -2.0, 2.0)
        (value, x, probes), requests = self.line(g, 0.0, -2.0, 2.0, {})
        assert requests[:5] == [grid[9:16], grid[6:9], grid[3:6], grid[:3],
                                [grid[0] - (grid[1] - grid[0])]]
        assert (value, x) == self.full_scan(g, 0.0, -2.0, 2.0, {})
        assert probes > 16

    def test_two_valleys_keep_the_one_reached_from_the_seed(self):
        """The one behaviour the window changes: a deeper valley beyond a
        rise outside the first window is not seen.  The line keeps the
        valley at its seed, where the full scan takes the deeper one."""
        def g(x):
            return -np.exp(-(x / 0.03) ** 2) - 2.0 * np.exp(-((x - 0.25) / 0.03) ** 2)

        memo, full = {}, {}
        (value, x, _), requests = self.line(g, 0.0, -2.0, 2.0, memo)
        full_value, full_x = self.full_scan(g, 0.0, -2.0, 2.0, full)
        assert abs(x) <= 2 * DRIVE_TOL and abs(full_x - 0.25) <= 2 * DRIVE_TOL
        assert full_value < value
        assert requests[0] == self.grid(0.0, -2.0, 2.0)[9:16]
        assert all(len(xs) == 1 for xs in requests[1:])
        assert len(memo) < len(full)

    def test_memo_rows_are_not_asked_again(self):
        """The needle's line reads its first window and one widening step,
        then probes one row at a time.  A memo that holds the first window
        is asked only for the step and the probes; one that holds both is
        asked only for the probes; the line takes the same path."""
        fresh, requests = self.search("needle", {})
        g, seed, lo, hi, _ = self.CASES["needle"]
        grid = self.grid(seed, lo, hi)
        assert requests[:2] == [grid[9:16], grid[16:19]]
        assert all(len(xs) == 1 for xs in requests[2:])
        for held in (1, 2):
            xs = [x for request in requests[:held] for x in request]
            memo = dict(zip(((self.DET, x) for x in xs), g(np.array(xs))))
            warm, warm_requests = self.search("needle", memo)
            assert warm == fresh
            assert warm_requests == requests[held:]

    def test_unbracketed_line_marches_both_ways(self):
        """With no bracket end given, the line marches from its start in
        whichever direction improves, as the detuning line does; each probe
        is handed the carry of the best point so far."""
        def f(x):
            return (x + 17.0) ** 2

        seen = [(f(-5.0), -5.0)]

        def probe(x, carry):
            assert carry == min(seen)[1]
            seen.append((f(x), x))
            return f(x), x  # the carry names its point
            yield  # a probe that requests nothing

        value, x, carry = _run(_line_search(-5.0, f(-5.0), -5.0, 1.8, -30.0,
                                            -2.0, lambda det: 1e-4, probe))
        assert x == carry == pytest.approx(-17.0, abs=2e-4)
        assert value == f(x)
        assert seen[1][1] == -3.2 and seen[2][1] == -6.8  # up first, then down

    def test_stop_ends_the_march_at_its_first_refusal(self):
        """The march asks `stop` before each of its probes and, at the
        first refusal, returns its best point so far without probing
        there; Brent's stage never asks."""
        def f(x):
            return (x + 17.0) ** 2

        def run(refuse, **bracket):
            probed, asked = [], []

            def probe(x, _):
                probed.append(x)
                return f(x), x
                yield  # a probe that requests nothing

            def stop(u, best):
                asked.append((u, best))
                return refuse(u)

            result = _run(_line_search(-5.0, f(-5.0), -5.0, 1.8, -30.0, -2.0,
                                       lambda det: 1e-4, probe, stop=stop,
                                       **bracket))
            return result, probed, asked

        (value, x, carry), probed, asked = run(lambda u: u < -10.0)
        assert probed == [-3.2, -6.8, -8.6]
        assert [u for u, _ in asked] == probed + [-10.4]
        assert [best for _, best in asked] == [f(-5.0), f(-5.0), f(-6.8), f(-8.6)]
        assert (value, x, carry) == (f(-8.6), -8.6, -8.6)

        # never refused: asked before each march probe only, up to the
        # first point past the minimum, and then Brent probes unasked
        (value, x, _), probed, asked = run(lambda u: False)
        march = [u for u, _ in asked]
        assert march[-1] == pytest.approx(-19.4)
        assert probed[:len(march)] == march and len(probed) > len(march)
        assert x == pytest.approx(-17.0, abs=2e-4)

        # a given bracket has no march, so nothing is asked
        (value, x, _), probed, asked = run(lambda u: True, a=-30.0, b=-2.0)
        assert asked == [] and probed
        assert x == pytest.approx(-17.0, abs=2e-4)

    def test_searched_ground_is_strictly_better_ground_of_another_start(self):
        """A march stops on ground that another start has searched with a
        strictly lower value, within half a coarse step; its own lines and
        tied lines never stop it."""
        lines = [(0, -16.0, 0.5, 30), (1, -20.0, 0.25, 30)]
        assert _searched(lines, 1, -16.5, 0.75, 0.5)  # the edge counts
        assert not _searched(lines, 1, -16.6, 0.75, 0.5)  # too far
        assert not _searched(lines, 1, -16.0, 0.5, 0.5)  # a tie
        assert not _searched(lines, 0, -16.0, 0.75, 0.5)  # its own line
        assert _searched(lines, 0, -20.0, 0.5, 0.5)

    def test_unconverged_line_raises(self, monkeypatch):
        """A line search that runs out of steps raises; it never hands back
        the point it stopped at."""
        import trimech.sweeps as sweeps
        monkeypatch.setattr(sweeps, "LINE_SEARCH_ITERATIONS", 3)
        with pytest.raises(NumericalError, match="did not converge"):
            self.search("quadratic", {})
        with pytest.raises(NumericalError, match="did not converge"):
            optimize_scalar(lambda d, p: (d + 17.0) ** 2 + (np.log10(p) - 6.5) ** 2,
                            (-30.0, -2.0), (1e4, 1e9))


class TestOccupationLandscape:
    def test_interior_minimum_near_resonant_sphere(self):
        """5x5 cell grid around (10, 3.4): the minimizing omega2 is interior."""
        base = fig2_protocol()["base"]
        omega1 = np.array([8.0, 9.0, 10.0, 11.0, 12.0])
        omega2 = np.array([2.6, 3.0, 3.4, 3.8, 4.2])
        result = occupation_landscape(base, omega1, omega2)
        ok = [p for p in result.points if p.ok]
        assert len(ok) == 25
        best = min(ok, key=lambda p: p.n2_min)
        assert best.omega2 in (3.0, 3.4, 3.8)
        # the omega1 = 10 row reproduces the resonant ridge near 3.4
        assert result.ridge[10.0] in (3.0, 3.4, 3.8)

    def test_no_linear_coupling_means_no_cooling(self):
        """g1 = 0 removes the cooling channel; the sphere stays within a
        quadratic-shift whisker of its thermal occupation everywhere."""
        from trimech.params import ModelParams
        from trimech.sweeps import solve_point
        m0 = ModelParams(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-6,
                         g1=0.0, g2=-2.4e-10, chi=3.7e-3, drive=0.0,
                         n1=100.0, n2=5000.0, detuning=-10.0)
        for drive in (0.0, 1e6, 1e8):
            for detuning in (-30.0, -10.0, -2.0):
                mi = replace(m0, drive=drive, detuning=detuning)
                _, _, cov = solve_point(mi)
                assert cov.n2 >= m0.n2 * (1 - 1e-6)

    def test_rejects_bad_omega2_range(self):
        base = fig2_protocol()["base"]
        with pytest.raises(ValueError, match="omega2"):
            occupation_landscape(base, [10.0], [0.5])
        with pytest.raises(ValueError, match="omega2"):
            occupation_landscape(base, [10.0], [10.0])

    def test_points_record_optimizer_diagnostics(self):
        base = fig2_protocol()["base"]
        result = occupation_landscape(base, [10.0], [3.4], coarse=COARSE_GRID)
        (point,) = result.points
        kappa = base.cavity_decay
        from trimech.params import nondimensionalize
        m = nondimensionalize(replace(base, mirror_freq=10.0 * kappa,
                                      sphere_freq=3.4 * kappa), detuning=-1.0)
        opt = optimize_scalar(sphere_occupation_objective(m), DETUNING_BOUNDS,
                              DRIVE_BOUNDS, coarse=COARSE_GRID)
        # the landscape cell is optimize_scalar's search, bit for bit
        assert opt.evaluations > 81
        assert ((float(point.n2_min).hex(), float(point.detuning).hex(),
                 float(point.drive).hex(), point.on_boundary,
                 point.evaluations, point.solved_rows)
                == (float(opt.value).hex(), float(opt.detuning).hex(),
                    float(opt.drive).hex(), opt.on_boundary,
                    opt.evaluations, opt.solved_rows))

    def test_on_boundary_up_to_the_search_tolerance(self):
        """fig2 preset cells whose optimum ends on the detuning bound read
        on_boundary, within the detuning line search's own tolerance; the
        bound point holds the best value, so the optimum is the bound
        itself.  omega2 = 3.4 ends there too, where a wide box finds its
        optimum at -45.43."""
        proto = fig2_protocol()
        result = occupation_landscape(proto["base"], proto["omega1"],
                                      [3.0, 3.4, 4.0, 5.0, 6.5, 8.0],
                                      proto["detuning_bounds"],
                                      proto["drive_bounds"])
        assert [p.on_boundary for p in result.points] == [False] + [True] * 5
        assert [p.detuning for p in result.points][1:] == [-45.0] * 5
        assert result.points[0].detuning == pytest.approx(-43.2812, abs=1e-3)

    def test_stopped_start_keeps_its_best_point(self, monkeypatch):
        """On omega2 = 6.0 the starts march toward -45 over one corridor.
        A start that stops on another's better ground returns the best
        line it finished, and the cell's n2_min is the least over its
        starts."""
        import trimech.sweeps as sweeps
        from trimech.sweeps import REFINE_STARTS
        real = sweeps._line_search
        starts = []  # per detuning line search: its lines, refusal, result

        def line_search(x, fx, carry, step, lo, hi, tol_of, probe, a=None,
                        b=None, stop=None):
            if stop is None:  # a drive line
                return real(x, fx, carry, step, lo, hi, tol_of, probe, a, b)
            log = {"lines": [(fx, x)], "stopped": False}
            starts.append(log)

            def logged_probe(u, c):
                value, c = yield from probe(u, c)
                log["lines"].append((value, u))
                return value, c

            def logged_stop(u, best):
                log["stopped"] = stop(u, best)
                return log["stopped"]

            def run():
                log["result"] = yield from real(x, fx, carry, step, lo, hi,
                                                tol_of, logged_probe, a, b,
                                                stop=logged_stop)
                return log["result"]
            return run()

        monkeypatch.setattr(sweeps, "_line_search", line_search)
        proto = fig2_protocol()
        (point,) = occupation_landscape(
            reference_params(), [10.0], [6.0],
            detuning_bounds=proto["detuning_bounds"],
            drive_bounds=proto["drive_bounds"]).points
        assert len(starts) == REFINE_STARTS
        stopped = [log for log in starts if log["stopped"]]
        assert stopped
        for log in stopped:
            value, x, _ = log["result"]
            assert value == min(v for v, _ in log["lines"])
            assert (value, x) in log["lines"]
            assert value > point.n2_min
        assert point.n2_min == min(log["result"][0] for log in starts)

    def test_agrees_across_coarse_grids(self):
        """The search is converged: on the nine fig2 cells, a (37, 37)
        coarse grid gives the n2_min of the COARSE_GRID one to
        SEARCH_REL_TOL, on the fig2 detuning box and on one twice as wide.
        The gate can fail: on the wide box a (7, 7) grid misses it."""
        proto = fig2_protocol()

        def n2_min(detuning_bounds, coarse):
            return np.array([p.n2_min for p in occupation_landscape(
                proto["base"], proto["omega1"], proto["omega2"],
                detuning_bounds, proto["drive_bounds"], coarse=coarse).points])

        boxes = ((-45.0, -2.0), (-90.0, -2.0))
        fine = {box: n2_min(box, (37, 37)) for box in boxes}
        for box in boxes:
            n2 = n2_min(box, COARSE_GRID)
            assert np.all(np.isfinite(n2))
            np.testing.assert_allclose(fine[box], n2, rtol=SEARCH_REL_TOL)
        wide = fine[-90.0, -2.0]
        coarser = n2_min((-90.0, -2.0), (7, 7))
        assert np.any(np.abs(coarser - wide) > SEARCH_REL_TOL * wide)

    #: the eight benchmark cells, omega2 at omega1 = 10
    BENCHMARK_OMEGA2 = [1.95, 3.15, 3.6, 4.95, 6.0, 6.45, 7.95, 8.55]

    def run_benchmark_cells(self, monkeypatch):
        """The landscape of the eight benchmark cells, with (result,
        kernel, solved): the (round, rows) of each `solve_points` call and
        the (round, omega2, detuning, drive) of every solved row.  Round 0
        holds the coarse grids; each lockstep round adds one."""
        import trimech.sweeps as sweeps
        proto = fig2_protocol()
        real_lockstep = sweeps._lockstep
        real_solve_points = sweeps.solve_points
        rounds = [0]   # lockstep rounds so far
        kernel = []
        solved = []

        def lockstep(steppers, solve):
            def counted(asks):
                rounds[0] += 1
                return solve(asks)
            return real_lockstep(steppers, counted)

        def solve_points(m, detunings, drives):
            n = len(np.ravel(detunings))
            kernel.append((rounds[0], n))
            solved.extend(zip([rounds[0]] * n, m.omega2.tolist(),
                              np.ravel(detunings).tolist(),
                              np.ravel(drives).tolist()))
            return real_solve_points(m, detunings, drives)

        monkeypatch.setattr(sweeps, "_lockstep", lockstep)
        monkeypatch.setattr(sweeps, "solve_points", solve_points)
        result = occupation_landscape(
            reference_params(), [10.0], self.BENCHMARK_OMEGA2,
            detuning_bounds=proto["detuning_bounds"],
            drive_bounds=proto["drive_bounds"])
        return result, kernel, solved

    #: rows of the one kernel call of each lockstep round, rounds 1 to 75,
    #: of the eight benchmark cells
    BENCHMARK_ROUND_ROWS = [
        135, 54, 36, 28, 24, 24, 24, 36, 92, 110, 96, 87, 34, 47, 47, 38, 39,
        62, 41, 54, 48, 30, 32, 22, 39, 44, 29, 32, 28, 14, 19, 11, 23, 17,
        31, 17, 11, 23, 11, 17, 16, 28, 16, 16, 22, 10, 10, 16, 24, 15, 9,
        20, 14, 8, 7, 7, 3, 3, 3, 15, 9, 3, 3, 3, 3, 3, 3, 14, 2, 2, 2, 2, 2,
        2, 1]

    def test_search_pinned_and_stacked(self, monkeypatch):
        """The eight benchmark cells keep their probe counts and bit-exact
        optima.  No (cell, detuning, drive) row is solved twice in the
        whole run, and each cell's rows come in a pinned number of
        requests (its coarse grid and the lockstep rounds it is live in);
        the cells share the rounds, so the kernel sees few calls, none of
        them over SOLVE_CHUNK rows.  The (round, rows) of every kernel
        call is pinned: the coarse grids in two chunks, then one call per
        lockstep round, so a change in the cost of a round cannot come
        from a changed search."""
        result, kernel, solved = self.run_benchmark_cells(monkeypatch)
        # (evaluations, solved_rows, n2_min, detuning, drive, on_boundary)
        expected = [
            (363, 348, "0x1.3260392e4cbb7p+9", "-0x1.2291db2f72fdbp+5",
             "0x1.937575240b6c7p+36", False),
            (342, 338, "0x1.1c4f0958b9be2p+9", "-0x1.613b1d23785b0p+5",
             "0x1.52a11b02a14eep+37", False),
            (343, 340, "0x1.1d5150d2de6bdp+9", "-0x1.6800000000000p+5",
             "0x1.59f02f87aa139p+37", True),
            (329, 326, "0x1.5abefa8f74536p+9", "-0x1.6800000000000p+5",
             "0x1.2a55e6385eef2p+37", True),
            (303, 300, "0x1.ddb6c56f516eap+9", "-0x1.6800000000000p+5",
             "0x1.f6e20c970aa68p+36", True),
            (305, 302, "0x1.1ed96ebc7ed67p+10", "-0x1.6800000000000p+5",
             "0x1.c991589f9fa99p+36", True),
            (333, 330, "0x1.5516a01cf649ap+11", "-0x1.6800000000000p+5",
             "0x1.1d2cfb8783253p+36", True),
            (289, 286, "0x1.1d64ac613c1a9p+12", "-0x1.6800000000000p+5",
             "0x1.9ecc95e02fa89p+35", True),
        ]
        assert [(p.evaluations, p.solved_rows, float(p.n2_min).hex(),
                 float(p.detuning).hex(), float(p.drive).hex(), p.on_boundary)
                for p in result.points] == expected
        rows = [row[1:] for row in solved]
        assert len(rows) == len(set(rows))
        # the rounds of each cell's rows, the cells known by their omega2
        cells = {o2: [] for _, o2, *_ in solved}
        for r, o2, *_ in solved:
            cells[o2].append(r)
        assert len(cells) == len(result.points)
        assert [p.solved_rows for p in result.points] == [
            len(own) for own in cells.values()]
        assert [len(set(own)) for own in cells.values()] == [
            75, 57, 55, 57, 57, 57, 76, 68]
        sizes = [n for _, n in kernel]
        assert sum(sizes) == sum(p.solved_rows for p in result.points) == 2570
        assert kernel == [(0, SOLVE_CHUNK), (0, 23)] + list(
            enumerate(self.BENCHMARK_ROUND_ROWS, start=1))
        assert max(sizes) == SOLVE_CHUNK

    @staticmethod
    @functools.cache
    def fig2_preset_landscape():
        proto = fig2_protocol()
        return occupation_landscape(proto["base"], proto["omega1"],
                                    proto["omega2"], proto["detuning_bounds"],
                                    proto["drive_bounds"])

    def test_fig2_preset_rows_pinned(self):
        """The nine fig2 preset cells solve 3118 distinct rows in all."""
        result = self.fig2_preset_landscape()
        assert len(result.points) == 9
        assert sum(p.solved_rows for p in result.points) == 3118

    def test_points_hold_python_scalars(self):
        """Every field of a fig2 preset point is a Python bool, int, float
        or str, not a numpy scalar, so a point serializes as JSON as it
        is; so is `optimize_scalar`'s result."""
        result = self.fig2_preset_landscape()
        kinds = {"ok": bool, "on_boundary": bool, "evaluations": int,
                 "solved_rows": int, "message": str}
        assert any(p.on_boundary for p in result.points)
        for p in result.points:
            fields = dataclasses.asdict(p)
            assert {name: type(value) for name, value in fields.items()} == {
                name: kinds.get(name, float) for name in fields}
            assert json.loads(json.dumps(fields)).keys() == fields.keys()
        m = replace(fig3_model(), detuning=-1.0)
        opt = optimize_scalar(sphere_occupation_objective(m), DETUNING_BOUNDS,
                              DRIVE_BOUNDS)
        assert [type(v) for v in dataclasses.astuple(opt)] == [
            float, float, float, bool, int, int]

    def test_coarse_grids_go_in_chunks(self, monkeypatch):
        """The eight cells' coarse grids, 8 x 81 = 648 rows, go to the
        kernel in calls of SOLVE_CHUNK rows and the rest, not in one call
        per grid; no call of the run is over SOLVE_CHUNK rows."""
        _, kernel, _ = self.run_benchmark_cells(monkeypatch)
        grid_rows = len(self.BENCHMARK_OMEGA2) * COARSE_GRID[0] * COARSE_GRID[1]
        assert grid_rows == 648
        assert [n for r, n in kernel if r == 0] == [SOLVE_CHUNK,
                                                    grid_rows - SOLVE_CHUNK]
        assert all(n <= SOLVE_CHUNK for _, n in kernel)

    def test_cell_constants_built_once(self, monkeypatch):
        """The kernel's constants are derived in one place,
        `ParamRows.stack`.  A landscape calls it once, for its stacked
        cells, before its first kernel call, and never builds a
        ModelParams's one-row `rows`: each round only gathers its rows'
        (`ParamRows.take`).  `instability_threshold` and a bare-detuning
        `self_consistent_fixed_points` build their model's `rows` once
        across all their stacked kernel calls."""
        import trimech.steady as steady
        import trimech.sweeps as sweeps
        from trimech.params import ParamRows
        from trimech.steady import self_consistent_fixed_points
        events = []
        real_stack = ParamRows.stack.__func__
        real_fixed_points = steady.fixed_points

        def stack(cls, models):
            models = list(models)
            events.append(("stack", len(models)))
            return real_stack(cls, models)

        def fixed_points(m, detunings, drives):
            events.append(("kernel", len(np.ravel(detunings))))
            return real_fixed_points(m, detunings, drives)

        monkeypatch.setattr(ParamRows, "stack", classmethod(stack))
        for module in (steady, sweeps):
            monkeypatch.setattr(module, "fixed_points", fixed_points)
        proto = fig2_protocol()
        result = occupation_landscape(
            reference_params(), [10.0], [2.0, 6.5],
            detuning_bounds=proto["detuning_bounds"],
            drive_bounds=proto["drive_bounds"])
        assert all(p.ok for p in result.points)
        assert events[0] == ("stack", 2)
        assert all(kind == "kernel" for kind, _ in events[1:])
        assert len(events) > 10

        lo, hi = drive_from_watts(REF, 1e-5), drive_from_watts(REF, 5e-3)
        bare = replace(fig4_model(), detuning_mode="bare", detuning=-10.0)
        for run in (lambda: instability_threshold(fig4_model(), lo, hi),
                    lambda: self_consistent_fixed_points(bare)):
            events.clear()
            run()
            kinds = [kind for kind, _ in events]
            assert kinds.count("stack") == 1
            assert kinds.count("kernel") > 2
            assert events[kinds.index("stack")] == ("stack", 1)


def _point_bits(p):
    """A LandscapePoint's fields, floats as hex so that NaN compares."""
    return tuple(float(v).hex() if isinstance(v, (float, np.floating)) else v
                 for v in dataclasses.astuple(p))


class TestLandscapeCellsIndependent:
    """A cell's result does not depend on the cells it runs in lockstep with."""

    def test_two_cells_equal_two_one_cell_landscapes(self):
        base = fig2_protocol()["base"]
        both = occupation_landscape(base, [10.0], [2.0, 3.4], coarse=(9, 9))
        alone = [occupation_landscape(base, [10.0], [o2], coarse=(9, 9)).points[0]
                 for o2 in (2.0, 3.4)]
        assert all(p.ok for p in alone)
        assert [_point_bits(p) for p in both.points] == [_point_bits(p) for p in alone]

    def test_excluded_and_unstable_cells_mixed_in(self):
        """At drives of 3e10-3e11, the omega1 = 3 cells have no stable point
        in the box, and (3, 3.4) is excluded; the omega1 = 10 cells
        optimize as they do alone."""
        base = fig2_protocol()["base"]
        bounds = {"detuning_bounds": (-45.0, -2.0), "drive_bounds": (3e10, 3e11),
                  "coarse": (9, 9)}
        mixed = occupation_landscape(base, [3.0, 10.0], [2.0, 3.4], **bounds)
        assert [p.message for p in mixed.points] == [
            "no stable point in bounds", "omega2 >= omega1 excluded", "", ""]
        assert [p.ok for p in mixed.points] == [False, False, True, True]
        alone = {(o1, o2): occupation_landscape(base, [o1], [o2], **bounds).points[0]
                 for o1, o2 in ((3.0, 2.0), (10.0, 2.0), (10.0, 3.4))}
        for p in mixed.points:
            if p.message == "omega2 >= omega1 excluded":
                assert (p.evaluations, p.solved_rows) == (0, 0)
                continue
            assert _point_bits(p) == _point_bits(alone[p.omega1, p.omega2])
        assert mixed.ridge == {10.0: min((2.0, 3.4), key=lambda o2: alone[10.0, o2].n2_min)}


class TestRecomputability:
    def test_sweep_scalars_bit_identical_from_model(self):
        """Every reported sweep scalar is recomputable from the swept
        ModelParams through the fixed-point and covariance pipeline."""
        from trimech.sweeps import solve_point
        m = fig3_model()
        drives = drive_from_watts(REF, np.logspace(-4, -3.2, 7))
        result = power_sweep(m, drives, base=REF)
        for i, drive in enumerate(result.drive):
            _, _, cov = solve_point(replace(m, drive=drive))
            assert cov.n1 == result.n1[i]
            assert cov.n2 == result.n2[i]
        hybrid = result.hybridization
        assert hybrid["n1"] == result.n1[hybrid["index"]]
        assert hybrid["n2"] == result.n2[hybrid["index"]]
        sq = squeezing_sweep(m, drives, base=REF)
        for i, drive in enumerate(sq.drive):
            _, _, cov = solve_point(replace(m, drive=drive))
            assert cov.var_x1 == sq.var_x1[i]
            assert cov.var_p1 == sq.var_p1[i]
            assert cov.var_x2 == sq.var_x2[i]
            assert cov.var_p2 == sq.var_p2[i]
            assert cov.S1 == sq.S1[i]
            assert cov.S2 == sq.S2[i]


class TestSelfConsistentFault:
    def test_rootless_window_is_numerical_fault(self):
        from trimech.errors import NumericalError
        from trimech.params import ModelParams
        from trimech.steady import self_consistent_fixed_points
        m = ModelParams(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-8,
                        g1=1e-3, g2=0.0, chi=3.7e-3, drive=1.0,
                        n1=0.0, n2=0.0, detuning=-3.0, detuning_mode="bare")
        with pytest.raises(NumericalError, match="no self-consistent"):
            self_consistent_fixed_points(m, window=(40.0, 50.0))


def reference_threshold(m, drive_lo, drive_hi, path=None):
    """`instability_threshold` as one one-row `is_stable` call per drive:
    both ends, then each geometric midpoint until the bracket's relative
    width is at most THRESHOLD_REL_TOL.  The reference the stacked
    bisection must match bit for bit.  Appends each midpoint to `path`,
    if given."""
    from trimech.sweeps import THRESHOLD_REL_TOL, is_stable
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
        if path is not None:
            path.append(mid)
        if is_stable(replace(m, drive=mid)):
            lo = mid
        else:
            hi = mid
    return lo


def threshold_depths(monkeypatch):
    """Set `instability_threshold`'s halvings per stacked call to 1, ...,
    8 in turn, yielding each."""
    import trimech.sweeps as sweeps
    for depth in range(1, 9):
        monkeypatch.setattr(sweeps, "THRESHOLD_BISECT_DEPTH", depth)
        yield depth


def seeded_squeezing_brackets(count, seed=2):
    """(model, threshold bracket) of `count` fig4-like squeezing sweeps:
    the fig4 preset at a drawn sphere frequency (9 to 11 kappa_c) and
    effective detuning (-11 to -9), on 40 log-spaced powers from 10 uW
    to 5 mW."""
    rng = np.random.default_rng(seed)
    drives = drive_from_watts(REF, np.logspace(-5, math.log10(5e-3), 40))
    out = []
    for _ in range(count):
        m = replace(fig4_model(), omega2=rng.uniform(9.0, 11.0),
                    detuning=rng.uniform(-11.0, -9.0))
        out.append((m, squeezing_sweep(m, drives).threshold_bracket))
    return out


def fail_eig_at(monkeypatch, m, drives):
    """Make the eigen-solver raise on the drift matrix of each drive."""
    from trimech.linear import linear_models
    from trimech.steady import fixed_points
    bad = linear_models(m, fixed_points(m, m.detuning, drives)).drift
    eig = np.linalg.eig

    def failing(A):
        if (A[:, None] == bad).all(axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("forced failure")
        return eig(A)
    monkeypatch.setattr(np.linalg, "eig", failing)


def outcome(call, *args):
    """What `call` returns, as float.hex, or the error it raises, as text."""
    from trimech.errors import NumericalError
    try:
        return call(*args).hex()
    except (ValueError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestStackedThreshold:
    """The stacked bisection returns `reference_threshold`'s drive or
    error, bit for bit, whatever number of halvings each stacked call
    takes."""

    @pytest.fixture
    def stacked_drives(self, monkeypatch):
        """The drives of each stacked `fixed_points` call of the threshold."""
        import trimech.sweeps as sweeps
        calls = []
        real = sweeps.fixed_points

        def recorded(m, detunings, drives):
            calls.append(np.atleast_1d(drives).tolist())
            return real(m, detunings, drives)
        monkeypatch.setattr(sweeps, "fixed_points", recorded)
        return calls

    @pytest.mark.skipif(np.__version__ != NUMPY,
                        reason=f"drives recorded with numpy {NUMPY}, not "
                               f"{np.__version__}; LAPACK may round differently")
    def test_pinned_brackets(self, monkeypatch):
        """The drive pinned in `test_threshold_verdict_is_spectral`, and
        the bracket of the sweep with a real Lyapunov fault."""
        m, _, drives = sweep_input(SPECTRAL_THRESHOLD_CONFIG,
                                   2.843676e-05, 8.908028e-04, 208)
        bracket = squeezing_sweep(m, drives).threshold_bracket
        assert reference_threshold(m, *bracket).hex() == (9705100761.852898).hex()
        m_fault, _, drives = fault_sweep_input()
        fault_bracket = squeezing_sweep(m_fault, drives).threshold_bracket
        want = reference_threshold(m_fault, *fault_bracket).hex()
        for _ in threshold_depths(monkeypatch):
            assert instability_threshold(m, *bracket).hex() == (9705100761.852898).hex()
            assert instability_threshold(m_fault, *fault_bracket).hex() == want

    def test_seeded_brackets(self, monkeypatch):
        """All 100 at THRESHOLD_BISECT_DEPTH, the first 10 at every depth."""
        cases = seeded_squeezing_brackets(100)
        assert all(bracket is not None for _, bracket in cases)
        want = [reference_threshold(m, *bracket).hex() for m, bracket in cases]
        assert [instability_threshold(m, *bracket).hex()
                for m, bracket in cases] == want
        for _ in threshold_depths(monkeypatch):
            assert [instability_threshold(m, *bracket).hex()
                    for m, bracket in cases[:10]] == want[:10]

    def test_stacked_calls_only(self, monkeypatch, stacked_drives):
        """No one-row `is_stable` call: both ends in one stacked call, then
        one per THRESHOLD_BISECT_DEPTH halvings."""
        import trimech.sweeps as sweeps
        m, bracket = seeded_squeezing_brackets(1)[0]
        path = []
        want = reference_threshold(m, *bracket, path)
        stacked_drives.clear()
        monkeypatch.setattr(sweeps, "is_stable", None)
        assert instability_threshold(m, *bracket) == want
        assert stacked_drives[0] == list(bracket)
        depth = sweeps.THRESHOLD_BISECT_DEPTH
        assert len(stacked_drives) == 1 + -(-len(path) // depth)
        assert all(len(d) == 2 ** depth - 1 for d in stacked_drives[1:])

    def test_fault_off_the_path_is_not_read(self, monkeypatch, stacked_drives):
        """Every drive a stacked call evaluates but the bisection does not
        reach fails in the eigen-solver, and the threshold is unchanged."""
        m, bracket = seeded_squeezing_brackets(1)[0]
        path = []
        want = reference_threshold(m, *bracket, path)
        for depth in threshold_depths(monkeypatch):
            stacked_drives.clear()
            assert instability_threshold(m, *bracket) == want
            off = sorted({d for call in stacked_drives for d in call}
                         - set(path) - set(bracket))
            assert bool(off) == (depth > 1)
            if off:
                with monkeypatch.context() as patch:
                    fail_eig_at(patch, m, off)
                    assert instability_threshold(m, *bracket).hex() == want.hex()

    @pytest.mark.parametrize("where", ["lower", "upper", "midpoint", "order"])
    def test_fault_on_the_path_raises(self, monkeypatch, where):
        """A fault the bisection reaches raises NumericalError, never reads
        as unstable, with the reference's message.  "order": a lower
        bound that is not stable is named before a faulted upper one."""
        m, (lo, hi) = seeded_squeezing_brackets(1)[0]
        path = []
        reference_threshold(m, lo, hi, path)
        if where == "order":
            lo, hi = hi, 2.0 * hi
        drive = {"lower": lo, "upper": hi, "order": hi,
                 "midpoint": path[len(path) // 2]}[where]
        fail_eig_at(monkeypatch, m, [drive])
        want = outcome(reference_threshold, m, lo, hi)
        assert want.startswith("ValueError: lower bound" if where == "order"
                               else "NumericalError: eigenvalue solver failed")
        for _ in threshold_depths(monkeypatch):
            assert outcome(instability_threshold, m, lo, hi) == want
