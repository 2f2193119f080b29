"""Power sweeps, mode tracking, thresholds, optimizer and landscape."""

import dataclasses
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trimech.errors import PhysicsError
from trimech.params import reference_params
from trimech.presets import fig2_protocol, fig3_model, fig4_model, preset_drives
from trimech.sweeps import (_march, _replay_march, drive_from_watts,
                            instability_threshold, occupation_landscape,
                            optimize_scalar, power_sweep,
                            sphere_occupation_objective, squeezing_sweep,
                            watts_from_drive)

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
    bare one instead of solving at the wrong detuning."""

    @pytest.mark.parametrize("sweep", [power_sweep, squeezing_sweep])
    def test_sweeps(self, sweep):
        m = replace(fig3_model(), detuning_mode="bare")
        with pytest.raises(ValueError, match="detuning_mode='effective'"):
            sweep(m, preset_drives("fig3"), base=REF)

    def test_solve_point(self):
        from trimech.sweeps import solve_point
        with pytest.raises(ValueError, match="detuning_mode='effective'"):
            solve_point(replace(fig3_model(), detuning_mode="bare"))


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


class TestOptimizeScalar:
    def test_recovers_quadratic_minimum(self):
        def objective(detuning, drive):
            return (detuning + 17.0) ** 2 + (np.log10(drive) - 6.5) ** 2

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize_scalar(objective, (-30.0, -2.0), (1e4, 1e9))
        assert res.detuning == pytest.approx(-17.0, abs=0.05)
        assert math.log10(res.drive) == pytest.approx(6.5, abs=0.01)

    def test_all_unstable_returns_inf(self):
        res = optimize_scalar(lambda d, p: np.full(np.shape(d), math.inf),
                              (-30.0, -2.0), (1e4, 1e9))
        assert math.isinf(res.value)

    def test_boundary_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # on_boundary carries it
            res = optimize_scalar(lambda d, p: d, (-30.0, -2.0), (1e4, 1e9))
        assert res.on_boundary
        assert res.detuning == -30.0

    def test_deterministic(self):
        m = fig3_model()
        objective = sphere_occupation_objective(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = optimize_scalar(objective, (-40.0, -5.0), (1e9, 1e11))
        assert res.value <= quoted


def _run(march, solve=None):
    """Drive a march generator to its return value, answering each request
    with `solve(request)`."""
    try:
        request = next(march)
        while True:
            request = march.send(solve(request))
    except StopIteration as stop:
        return stop.value


def _probe_by_probe(g, x, step, lo, hi, floor):
    """`_march` probing `g` one point at a time: (value, x, probes)."""
    probes = []

    def probe(p, carry):
        probes.append(p)
        return g(np.array([p]))[0], carry
        yield  # a probe that requests nothing

    value, x_best, _ = _run(_march(x, g(np.array([x]))[0], None, step, lo, hi,
                                   probe, lambda _: floor))
    return value, x_best, len(probes)


class TestReplayMarch:
    """The stacked replay takes the march that probes one point at a time,
    and asks only for rows its memo lacks."""

    CASES = {
        "quadratic": (lambda x: (x - 0.37) ** 2, 0.0, 0.25, -2.0, 2.0),
        "needle": (lambda x: -1.0 / (1.0 + ((x - 0.3137) / 1e-3) ** 2),
                   0.0, 0.25, -2.0, 2.0),
        "inf plateau": (lambda x: np.where(x > 0.5, math.inf, (x - 0.61) ** 2),
                        0.0, 0.2, -2.0, 2.0),
        "optimum on lo": (lambda x: x * 1.0, 0.3, 0.25, -1.0, 1.0),
        "optimum on hi": (lambda x: -x, 0.3, 0.25, -1.0, 1.0),
        "first probe improves": (lambda x: (x - 1.7) ** 2, 0.0, 0.25, -2.0, 2.0),
    }
    DET = -7.0  # the detuning of the replayed line

    def replay(self, case, memo):
        """Run the replay of `case` against `memo`, a {(detuning, x): value}
        dict it fills: (value, x, probes) and the size of each request."""
        g, x0, step, lo, hi = self.CASES[case]
        sizes = []

        def solve(request):
            det, xs = request
            assert det == self.DET
            assert not any((det, x) in memo for x in xs)  # only rows it lacks
            sizes.append(len(xs))
            memo.update(zip(((det, x) for x in xs), g(np.array(xs, dtype=float))))

        fx0 = g(np.array([x0]))[0]
        result = _run(_replay_march(memo, self.DET, x0, fx0, step, lo, hi,
                                    lambda _: 1e-4), solve)
        return result, sizes

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_probe_by_probe_march(self, case):
        g, x0, step, lo, hi = self.CASES[case]
        (value, x, probes), sizes = self.replay(case, {})
        assert (value, x, probes) == _probe_by_probe(g, x0, step, lo, hi, 1e-4)
        assert len(sizes) < probes
        if case == "first probe improves":
            assert sum(sizes) > probes  # speculative rows were thrown away

    def test_memo_rows_are_not_asked_again(self):
        """Starting from a memo that holds a drive-scan-like grid of the
        line, the replay takes the same march and asks for fewer rows."""
        g, x0, step, lo, hi = self.CASES["needle"]
        grid = np.linspace(x0 - 0.3, x0 + 0.3, 25)
        memo = dict(zip(((self.DET, x) for x in grid), g(grid)))
        fresh, fresh_sizes = self.replay("needle", {})
        warm, sizes = self.replay("needle", memo)
        assert warm == fresh == _probe_by_probe(g, x0, step, lo, hi, 1e-4)
        assert 0 < sum(sizes) < sum(fresh_sizes)


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
        result = occupation_landscape(base, [10.0], [3.4], coarse=(9, 9))
        (point,) = result.points
        kappa = base.cavity_decay
        from trimech.params import nondimensionalize
        m = nondimensionalize(replace(base, mirror_freq=10.0 * kappa,
                                      sphere_freq=3.4 * kappa), detuning=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            opt = optimize_scalar(sphere_occupation_objective(m), (-45.0, -2.0),
                                  (1e6, 1e12), coarse=(9, 9))
        assert point.evaluations == opt.evaluations > 81
        assert point.on_boundary == opt.on_boundary
        assert point.n2_min == opt.value

    def test_on_boundary_up_to_the_march_floor(self):
        """fig2 preset cells whose optimum ends on the detuning bound up to
        roundoff read on_boundary, and the optimum is not snapped to it;
        omega2 = 3.4 ends 0.11 inside the bound and does not."""
        proto = fig2_protocol()
        result = occupation_landscape(proto["base"], proto["omega1"],
                                      [3.4, 4.0, 5.0, 6.5, 8.0],
                                      proto["detuning_bounds"],
                                      proto["drive_bounds"])
        assert [p.on_boundary for p in result.points] == [False] + [True] * 4
        assert [p.detuning for p in result.points][1:] == [
            -44.99999999999997, -44.99999999999998, -45.0, -44.999999999999986]
        assert result.points[0].detuning == pytest.approx(-44.888, abs=1e-3)

    def test_search_pinned_and_stacked(self, monkeypatch):
        """The eight benchmark cells keep their probe counts and bit-exact
        optima.  Each cell's search asks for each distinct row once, and
        every request it makes (the coarse grid and each lockstep round)
        brings new rows; the cells run in lockstep, so the kernel sees
        few calls, none of them over one coarse grid of rows."""
        import trimech.sweeps as sweeps
        proto = fig2_protocol()
        real_search = sweeps._search
        real_solve_points = sweeps.solve_points
        requests = []  # per cell: the (detuning, log10 drive) rows of each request
        kernel = []    # rows of each solve_points call

        def search(*args, **kwargs):
            stepper = real_search(*args, **kwargs)
            log = []
            requests.append(log)
            values = None
            while True:
                try:
                    request = stepper.send(values)
                except StopIteration as stop:
                    return stop.value
                log.append(request[1])
                values = yield request

        def solve_points(m, detunings, drives):
            kernel.append(len(np.ravel(detunings)))
            return real_solve_points(m, detunings, drives)

        monkeypatch.setattr(sweeps, "_search", search)
        monkeypatch.setattr(sweeps, "solve_points", solve_points)
        result = occupation_landscape(
            reference_params(), [10.0],
            [1.95, 3.15, 3.6, 4.95, 6.0, 6.45, 7.95, 8.55],
            detuning_bounds=proto["detuning_bounds"],
            drive_bounds=proto["drive_bounds"])
        # (evaluations, solved_rows, n2_min, detuning, drive)
        expected = [
            (5317, 3892, "0x1.326870eec283dp+9", "-0x1.2220000000001p+5",
             "0x1.9195b8079add2p+36"),
            (5059, 4248, "0x1.1c84dbc1d7718p+9", "-0x1.5c5aaaaaaaaa8p+5",
             "0x1.44bd8d85dffa7p+37"),
            (4043, 3143, "0x1.1d85de78a1465p+9", "-0x1.678d555555556p+5",
             "0x1.589a13f0793ecp+37"),
            (4361, 3072, "0x1.5b00943317201p+9", "-0x1.67fffffffffffp+5",
             "0x1.2a475c1b6ae74p+37"),
            (3737, 3090, "0x1.ddc5917d9df5cp+9", "-0x1.67ffffffffffep+5",
             "0x1.f6d8261f1d6e9p+36"),
            (3984, 3535, "0x1.1ee212f73757fp+10", "-0x1.67ffffffffffdp+5",
             "0x1.c9873cb877c89p+36"),
            (3029, 2847, "0x1.551acbe8f2bfep+11", "-0x1.6800000000000p+5",
             "0x1.1d325af2d770cp+36"),
            (2755, 2961, "0x1.1d6d8631103c5p+12", "-0x1.6800000000000p+5",
             "0x1.9eda200bf7eb0p+35"),
        ]
        assert [(p.evaluations, p.solved_rows, float(p.n2_min).hex(),
                 float(p.detuning).hex(), float(p.drive).hex())
                for p in result.points] == expected
        for p, cell in zip(result.points, requests):
            rows = [row for request in cell for row in request]
            assert p.solved_rows == len(rows) == len(set(rows))
            assert all(cell)
            assert len(cell) < p.evaluations / 20
        assert sum(len(cell) for cell in requests) == 852
        assert sum(kernel) == sum(p.solved_rows for p in result.points) == 26788
        assert len(kernel) <= 140
        assert max(kernel) == 25 * 25


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
