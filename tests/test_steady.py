"""Classical fixed points: closed forms, self-consistency, bistability."""

import gc
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trimech.steady as steady
from trimech.errors import DegenerateTrapError, NumericalError
from trimech.params import ModelParams
from trimech.steady import (BISECT_TOL, SCAN_POINTS, cavity_amplitude,
                            effective_detuning, fixed_point, fixed_points,
                            self_consistent_fixed_points,
                            stationarity_residuals)

from conftest import SEED, call_budget, draw_model


def basic_model(**overrides):
    fields = dict(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-8,
                  g1=1.0e-3, g2=-2.4e-10, chi=3.7e-3, drive=1e8,
                  n1=0.0, n2=0.0, detuning=-27.2, detuning_mode="effective")
    fields.update(overrides)
    return ModelParams(**fields)


class TestCavityAmplitude:
    def test_resonant_drive(self):
        a = cavity_amplitude(0.0, 1.0)
        assert a == pytest.approx(-math.sqrt(2.0))
        assert abs(a) ** 2 == pytest.approx(2.0)

    def test_far_detuned_empties_cavity(self):
        assert abs(cavity_amplitude(1e8, 1.0)) ** 2 < 1e-15

    def test_one_linewidth_red(self):
        # half the resonant photon number at one linewidth
        assert abs(cavity_amplitude(-1.0, 1.0)) ** 2 == pytest.approx(1.0, rel=1e-14)

    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0, max_value=1e5))
    def test_lorentzian_invariant(self, delta, a_in):
        photon = abs(cavity_amplitude(delta, a_in)) ** 2
        assert photon == pytest.approx(2.0 * a_in ** 2 / (delta ** 2 + 1.0),
                                       rel=1e-12, abs=1e-300)


def at_photon_number(m, photon_number):
    """Stacked fixed point of one row with |a|^2 = `photon_number`: at
    effective detuning 1 the photon number equals the drive."""
    fp = fixed_points(m, 1.0, photon_number)
    assert fp.photon_number[0] == photon_number
    return fp


class TestEffectiveFrequencies:
    def test_no_quadratic_coupling(self):
        m = basic_model(g2=0.0)
        fp = at_photon_number(m, 1e8)
        assert (fp.Omega1[0], fp.Omega2[0]) == (m.omega1, m.omega2)

    def test_chi_zero_keeps_mirror_frequency(self):
        m = basic_model(chi=0.0)
        fp = at_photon_number(m, 1e8)
        assert fp.Omega1[0] == m.omega1
        assert fp.Omega2[0] == pytest.approx(m.omega2 + 2 * m.g2 * 1e8, rel=1e-14)

    def test_fig3_scale_arithmetic(self):
        fp = at_photon_number(basic_model(), 1e8)
        assert fp.Omega2[0] == pytest.approx(3.352, rel=1e-12)

    def test_degenerate_trap_signalled(self):
        # photon number beyond omega2 / (2 |g2|) inverts the trap
        fp = at_photon_number(basic_model(), 1.0e10)
        assert fp.degenerate[0]
        with pytest.raises(DegenerateTrapError, match="sphere trap degenerate"):
            fp.state(0)


class TestFixedPoint:
    def test_no_linear_coupling_no_displacement(self):
        s = fixed_point(basic_model(g1=0.0))
        assert s.x1_bar == 0.0
        assert s.x2_bar == 0.0

    def test_chi_zero_gives_plain_mirror_shift(self):
        s = fixed_point(basic_model(chi=0.0))
        m = basic_model(chi=0.0)
        assert s.x2_bar == 0.0
        assert s.x1_bar == pytest.approx(m.g1 * s.photon_number / m.omega1,
                                         rel=1e-12)

    def test_g2_zero_standard_linear_optomechanics(self):
        m = basic_model(g2=0.0)
        s = fixed_point(m)
        assert s.x2_bar == 0.0
        assert s.x1_bar == pytest.approx(m.g1 * s.photon_number / m.omega1,
                                         rel=1e-14)

    def test_both_displacement_forms_agree(self, model_draws_100):
        for m, s, _ in model_draws_100:
            via_x1 = 2 * m.g2 * m.chi * s.photon_number * s.x1_bar / s.Omega2
            via_na2 = (2 * m.g1 * m.g2 * m.chi * s.photon_number ** 2
                       / (s.Omega1 * s.Omega2))
            assert s.x2_bar == pytest.approx(via_x1, rel=1e-13, abs=1e-300)
            assert s.x2_bar == pytest.approx(via_na2, rel=1e-13, abs=1e-300)

    def test_stationarity_residuals(self, model_draws_100):
        for m, s, _ in model_draws_100:
            for res in stationarity_residuals(m, s):
                assert res < 1e-10

    def test_photon_number_matches_amplitude(self, model_draws_100):
        for m, s, _ in model_draws_100:
            assert s.photon_number == pytest.approx(abs(s.a_bar) ** 2,
                                                    rel=1e-12, abs=1e-300)

    def test_huge_detuning_empties_cavity(self):
        """delta_eff ** 2 overflows to inf above about 1.3e154; the photon
        number is 0, with no overflow warning."""
        s = fixed_point(basic_model(detuning=-1e200))
        assert s.delta_eff == -1e200
        assert s.photon_number == 0.0 and s.x1_bar == 0.0

    def test_requires_effective_mode(self):
        with pytest.raises(ValueError, match="effective"):
            fixed_point(basic_model(detuning_mode="bare"))

    @pytest.mark.parametrize("detuning", [-27.2, -0.0, math.inf, -math.inf, math.nan])
    def test_scalar_and_array_inputs_give_the_same_bytes(self, detuning):
        m = basic_model()
        dets = np.array([-27.2, -0.0, 0.0, math.inf, -math.inf, math.nan, detuning])
        drives = np.geomspace(1e6, 1e12, len(dets))

        def same(a, b):
            for name in ("delta_eff", "drive", "photon_number", "x1_bar", "x2_bar",
                         "Omega1", "Omega2", "degenerate"):
                x, y = getattr(a, name), getattr(b, name)
                assert x.dtype == y.dtype and x.shape == y.shape, name
                assert x.tobytes() == y.tobytes(), name

        same(fixed_points(m, dets, m.drive),
             fixed_points(m, dets, np.full(len(dets), m.drive)))
        same(fixed_points(m, detuning, drives),
             fixed_points(m, np.full(len(drives), detuning), drives))


class TestEffectiveDetuning:
    def test_no_displacement(self):
        m = basic_model()
        assert effective_detuning(-5.0, 0.0, 0.0, m) == -5.0

    def test_linear_shift_only(self):
        m = basic_model(g2=0.0)
        assert effective_detuning(-5.0, 2.0, 0.0, m) == pytest.approx(
            -5.0 + m.g1 * 2.0)

    def test_arithmetic_example(self):
        m = basic_model(g1=1e-3, g2=0.0)
        assert effective_detuning(-10.0, 1e3, 0.0, m) == pytest.approx(-9.0)


class TestSelfConsistent:
    def test_uncoupled_returns_bare(self):
        m = basic_model(g1=0.0, g2=0.0, detuning_mode="bare", detuning=-3.0)
        states = self_consistent_fixed_points(m)
        assert len(states) == 1
        assert states[0].delta_eff == pytest.approx(-3.0, abs=1e-10)

    def test_weak_drive_approaches_bare(self):
        m = basic_model(detuning_mode="bare", detuning=-3.0, drive=1e-6)
        states = self_consistent_fixed_points(m)
        assert len(states) == 1
        assert states[0].delta_eff == pytest.approx(-3.0, abs=1e-6)

    def test_kerr_bistability_three_branches(self):
        # strong drive, red detuning, linear coupling only
        m = ModelParams(omega1=1.0, omega2=3.4, gamma1=1e-3, gamma2=1e-6,
                        g1=0.1, g2=0.0, chi=3.7e-3, drive=1000.0,
                        n1=0.0, n2=0.0, detuning=-12.0, detuning_mode="bare")
        states = self_consistent_fixed_points(m)
        assert len(states) == 3
        # sorted by photon number
        photons = [s.photon_number for s in states]
        assert photons == sorted(photons)
        # dense-scan oracle: count sign changes of the residual directly
        def residual(d_eff):
            na = 2 * m.drive / (d_eff ** 2 + 1)
            x1 = m.g1 * na / m.omega1
            return m.detuning + m.g1 * x1 - d_eff
        grid = np.linspace(-62, 62, 20001)
        vals = np.array([residual(d) for d in grid])
        crossings = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
        assert crossings == 3

    def test_branches_satisfy_stationarity(self):
        m = ModelParams(omega1=1.0, omega2=3.4, gamma1=1e-3, gamma2=1e-6,
                        g1=0.1, g2=0.0, chi=3.7e-3, drive=1000.0,
                        n1=0.0, n2=0.0, detuning=-12.0, detuning_mode="bare")
        for s in self_consistent_fixed_points(m):
            for res in stationarity_residuals(m, s):
                assert res < 1e-10
            # the recovered bare detuning must match the configured one
            back = s.delta_eff - (m.g1 * s.x1_bar
                                  - m.g2 * (m.chi * s.x1_bar - s.x2_bar) ** 2)
            assert back == pytest.approx(m.detuning, abs=1e-9)

    def test_huge_bare_detuning_is_its_own_root(self):
        """Every scan point's photon number underflows to 0, with no
        overflow warning, and the root is the bare detuning."""
        (state,) = self_consistent_fixed_points(replace(UNCOUPLED, detuning=-1e300))
        assert state.delta_eff == -1e300 and state.photon_number == 0.0

    def test_requires_bare_mode(self):
        with pytest.raises(ValueError, match="bare"):
            self_consistent_fixed_points(basic_model())


def one_halving(f, lo, hi, flo, tol, midpoints=None):
    """Bisect one bracket [lo, hi] of `f`, one midpoint per call of `f`,
    while its width exceeds `tol` and a float lies strictly inside it;
    stop at a NaN f(mid).  The reference `_bisect_rows` must match.
    Returns (lo, hi, frozen); appends each midpoint to `midpoints`, if
    given."""
    while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if midpoints is not None:
            midpoints.append(mid)
        fm = f(np.array([mid]))[0]
        if math.isnan(fm):
            return lo, hi, True
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return lo, hi, False


def scalar_reference(m, window=None, paths=None):
    """The root search as one scan point and one root at a time: scan the
    residuals, take every exactly-zero scan point as a root, and bisect
    each strict sign change (r0 * r1 < 0, which a NaN or zero end never
    meets) alone by `one_halving` to BISECT_TOL.  The reference the
    lockstep search must match.  Appends the list of each bracket's
    midpoints to `paths`, if given."""
    delta = m.detuning
    if window is None:
        half = abs(delta) + 50.0
        window = (-half, half)
    grid = np.linspace(window[0], window[1], SCAN_POINTS)
    res = steady._consistency_residuals(m, delta, grid).tolist()
    roots = []
    for i in range(len(grid)):
        if res[i] == 0.0:
            roots.append(grid[i])
        if i + 1 < len(grid) and res[i] * res[i + 1] < 0.0:
            midpoints = []
            lo, hi, _ = one_halving(lambda x: steady._consistency_residuals(m, delta, x),
                                    grid[i], grid[i + 1], res[i], BISECT_TOL, midpoints)
            roots.append(0.5 * (lo + hi))
            if paths is not None:
                paths.append(midpoints)
    if not roots:
        raise NumericalError(
            f"no self-consistent fixed point found for detuning {delta} "
            f"in window {window}")
    fp = fixed_points(m, roots, m.drive)
    return sorted((fp.state(i) for i in range(len(roots))),
                  key=lambda s: s.photon_number)


def outcome(search, m, window=None):
    """The states a search returns, or the error it raises, as text: repr
    writes each float's shortest round-trip form, so equal text means
    equal bits."""
    try:
        return repr(search(m, window))
    except (NumericalError, DegenerateTrapError) as exc:
        return f"{type(exc).__name__}: {exc}"


KERR = ModelParams(omega1=1.0, omega2=3.4, gamma1=1e-3, gamma2=1e-6,
                   g1=0.1, g2=0.0, chi=3.7e-3, drive=1000.0,
                   n1=0.0, n2=0.0, detuning=-12.0, detuning_mode="bare")
UNCOUPLED = basic_model(g1=0.0, g2=0.0, detuning_mode="bare", detuning=-3.0)


def count_residual_calls(monkeypatch):
    """Count the calls of `steady._consistency_residuals` in `calls[0]`."""
    calls = [0]
    residuals = steady._consistency_residuals

    def counted(*args):
        calls[0] += 1
        return residuals(*args)
    monkeypatch.setattr(steady, "_consistency_residuals", counted)
    return calls


def at_every_engine(monkeypatch):
    """Run the root search's `_bisect_rows` with trees 1, ..., 8 halvings
    deep, each with and without the brackets' upper-end values (with
    and without a predicted path), yielding each (depth, predicted)."""
    bisect = steady._bisect_rows
    for depth in range(1, 9):
        for predicted in (True, False):
            def engine(f, lo, hi, flo, tol, _, fhi=None, depth=depth,
                       predicted=predicted):
                return bisect(f, lo, hi, flo, tol, depth,
                              fhi=fhi if predicted else None)
            monkeypatch.setattr(steady, "_bisect_rows", engine)
            yield depth, predicted


def seeded_bare_draws(count=40):
    """The first `count` seeded draws at a bare detuning."""
    rng = np.random.default_rng(SEED)
    return [replace(draw_model(rng), detuning_mode="bare") for _ in range(count)]


def bits(values):
    """Each value's float.hex: equal lists mean equal bits."""
    return [float(v).hex() for v in values]


class TestLockstepSearch:
    """The lockstep search returns the scalar reference's states, bit for
    bit, whatever bisection tree and predicted path each stacked
    evaluation takes."""

    #: residual calls per search on the seeded draws, counting the scan,
    #: and how many searches made them; one halving per call made up to 38
    CALLS = {2: 2, 3: 23, 4: 13, 5: 1, 6: 1}

    def test_seeded_bare_draws(self, monkeypatch):
        """Also pins the residual calls per search."""
        calls = count_residual_calls(monkeypatch)
        counts, made = set(), {}
        for m in seeded_bare_draws():
            want = outcome(scalar_reference, m)
            counts.add(want.count("ClassicalSteadyState("))
            calls[0] = 0
            assert outcome(self_consistent_fixed_points, m) == want
            made[calls[0]] = made.get(calls[0], 0) + 1
        assert {1, 3} <= counts
        assert made == self.CALLS

    def test_engine_on_seeded_brackets(self, monkeypatch):
        """`_bisect_rows` on the sign-change brackets of the seeded draws,
        with trees 1 to 8 halvings deep, each with and without `fhi`,
        returns the one-halving loop's brackets bit for bit."""
        bisect, brackets = steady._bisect_rows, []

        def recorded(*args, **kwargs):
            brackets.append((args, kwargs))
            return bisect(*args, **kwargs)
        monkeypatch.setattr(steady, "_bisect_rows", recorded)
        for m in seeded_bare_draws():
            self_consistent_fixed_points(m)
        assert sum(len(args[1]) for args, _ in brackets) > 40
        for (f, lo, hi, flo, tol, _), kwargs in brackets:
            want = [one_halving(f, *row, tol) for row in zip(lo, hi, flo)]
            want = [bits(column) for column in zip(*want)] if want else [[]] * 3
            for depth in range(1, 9):
                for fhi in (kwargs["fhi"], None):
                    got = bisect(f, lo, hi, flo, tol, depth, fhi=fhi)
                    assert [bits(column) for column in got] == want

    @pytest.mark.parametrize("m", [KERR, UNCOUPLED], ids=["kerr", "uncoupled"])
    def test_named_cases(self, monkeypatch, m):
        want = outcome(scalar_reference, m)
        assert want.count("ClassicalSteadyState(") == (3 if m is KERR else 1)
        assert outcome(self_consistent_fixed_points, m) == want
        for _ in at_every_engine(monkeypatch):
            assert outcome(self_consistent_fixed_points, m) == want

    def test_fault_off_the_path_is_not_read(self, monkeypatch):
        """Every point a stacked evaluation after the scan takes but no
        bracket's walk reaches reads NaN, and the states are unchanged:
        on KERR the predicted paths leave the walks, so there are such
        points."""
        paths = []
        want = outcome(lambda m, w: scalar_reference(m, w, paths), KERR)
        residuals, taken = steady._consistency_residuals, []

        def recorded(m, delta_bare, delta_effs):
            taken.append(np.asarray(delta_effs).tolist())
            return residuals(m, delta_bare, delta_effs)
        monkeypatch.setattr(steady, "_consistency_residuals", recorded)
        assert outcome(self_consistent_fixed_points, KERR) == want
        off = sorted({x for call in taken[1:] for x in call}
                     - {x for path in paths for x in path})
        assert len(off) > 10

        def faulted(m, delta_bare, delta_effs):
            res = residuals(m, delta_bare, delta_effs)
            return np.where(np.isin(delta_effs, off), np.nan, res)
        monkeypatch.setattr(steady, "_consistency_residuals", faulted)
        assert outcome(self_consistent_fixed_points, KERR) == want

    @pytest.mark.parametrize("centre, half, window", [
        (-3.0, 1e-6, None), (-2.999, 1e-4, (-4.0, -2.0))],
        ids=["midpoint", "right-of-zero"])
    def test_forced_nan_band(self, monkeypatch, centre, half, window):
        """A NaN band forced into the uncoupled residual.  "midpoint":
        inside the only sign-change cell, around the root at -3, so the
        bisection stops at the first midpoint in the band, short of
        BISECT_TOL.  "right-of-zero": on the scan point right of an
        exactly-zero one, which is still the root, -3 exactly."""
        residuals = steady._consistency_residuals

        def banded(m, delta_bare, delta_effs):
            res = residuals(m, delta_bare, delta_effs)
            return np.where(np.abs(np.asarray(delta_effs) - centre) < half, np.nan, res)
        monkeypatch.setattr(steady, "_consistency_residuals", banded)
        want = outcome(scalar_reference, UNCOUPLED, window)
        assert outcome(self_consistent_fixed_points, UNCOUPLED, window) == want
        for _ in at_every_engine(monkeypatch):
            assert outcome(self_consistent_fixed_points, UNCOUPLED, window) == want
            (state,) = self_consistent_fixed_points(UNCOUPLED, window)
            if window is None:
                assert 1e-7 < abs(state.delta_eff + 3.0) < 1e-6
            else:
                assert state.delta_eff == -3.0

    @pytest.mark.parametrize("window, sides", [
        ((-4.0, -2.0), (1,)), ((-4.0, -2.0), (-1, 1)),
        ((-3.0, -1.0), (1,)), ((-5.0, -3.0), (-1,))],
        ids=["nan-right", "nan-both-sides", "first", "last"])
    def test_zero_next_to_nan_is_a_root(self, monkeypatch, window, sides):
        """The uncoupled residual is exactly zero at the scan point -3,
        and forced to NaN at its neighbours on `sides`: that zero is the
        root, -3 exactly, wherever it lies on the scan."""
        grid = np.linspace(*window, SCAN_POINTS)
        (at,) = np.flatnonzero(grid == -3.0)
        nan_at = grid[[at + side for side in sides]]
        residuals = steady._consistency_residuals

        def masked(m, delta_bare, delta_effs):
            res = residuals(m, delta_bare, delta_effs)
            return np.where(np.isin(delta_effs, nan_at), np.nan, res)
        monkeypatch.setattr(steady, "_consistency_residuals", masked)
        want = outcome(scalar_reference, UNCOUPLED, window)
        assert outcome(self_consistent_fixed_points, UNCOUPLED, window) == want
        (state,) = self_consistent_fixed_points(UNCOUPLED, window)
        assert state.delta_eff == -3.0

    #: scan steps of 2**-10 whose grid is exact, with -3 midway between
    #: two scan points
    DYADIC = (-3.0 - 1000.5 * 2.0 ** -10, -3.0 + 999.5 * 2.0 ** -10)

    @pytest.mark.parametrize("window", [(-4.0, -2.0), (-4.0, -3.0), DYADIC],
                             ids=["inner", "last", "midpoint"])
    def test_exact_zero_residual(self, monkeypatch, window):
        """The uncoupled residual is exactly zero at -3: an inner scan
        point, the last scan point, and the first bisection midpoint."""
        grid = np.linspace(*window, SCAN_POINTS)
        res = steady._consistency_residuals(UNCOUPLED, UNCOUPLED.detuning, grid)
        on_grid = window is not self.DYADIC
        assert np.count_nonzero(res == 0.0) == on_grid
        assert on_grid or -3.0 in 0.5 * (grid[:-1] + grid[1:])
        want = outcome(scalar_reference, UNCOUPLED, window)
        assert outcome(self_consistent_fixed_points, UNCOUPLED, window) == want
        for _ in at_every_engine(monkeypatch):
            assert outcome(self_consistent_fixed_points, UNCOUPLED, window) == want
            (state,) = self_consistent_fixed_points(UNCOUPLED, window)
            assert abs(state.delta_eff + 3.0) <= (0.0 if on_grid else BISECT_TOL)

    def test_adjacent_floats_end_a_bracket(self):
        """At |delta_eff| >= 8192 two adjacent floats are more than
        BISECT_TOL apart; such a bracket ends, with the reference's root,
        instead of bisecting forever."""
        m = replace(UNCOUPLED, detuning=-9000.0)
        assert math.ulp(9000.0) > BISECT_TOL
        want = outcome(scalar_reference, m)
        with call_budget():
            (state,) = self_consistent_fixed_points(m)
        assert repr([state]) == want
        assert state.delta_eff == -9000.0
        assert steady._consistency_residuals(m, m.detuning, [-9000.0])[0] == 0.0

    def test_leaves_no_reference_cycles(self):
        """Everything the search allocates is freed by reference counting.
        A cycle per call (a self-recursive closure made one) leaves
        garbage that brings the collector's full passes, about 10 ms in
        a long-running process, sooner."""
        self_consistent_fixed_points(KERR)
        gc.collect()
        gc.disable()
        try:
            self_consistent_fixed_points(KERR)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("window", [
        (62.0, -62.0), (1.0, 1.0), (math.nan, 62.0), (-62.0, math.nan),
        (-math.inf, 62.0), (-62.0, math.inf), (-1e308, 1e308)],
        ids=["descending", "empty", "nan-lo", "nan-hi", "-inf", "+inf",
             "infinite-width"])
    def test_bad_window_raises(self, window):
        """A window that is not finite and increasing, or whose width
        overflows, is a ValueError, not unbisected brackets, a search that
        finds nothing or an overflow in the scan."""
        with call_budget(), pytest.raises(ValueError, match="finite and increasing"):
            self_consistent_fixed_points(KERR, window)


class TestContinuity:
    def test_photon_number_continuous_in_detuning(self):
        m = basic_model(drive=1e7)
        detunings = np.linspace(-40.0, -0.5, 400)
        photons = [fixed_point(replace(m, detuning=d)).photon_number
                   for d in detunings]
        jumps = np.abs(np.diff(photons)) / np.maximum(photons[:-1], 1e-300)
        # a 0.1-linewidth step never moves the photon number by more than ~25%
        assert jumps.max() < 0.25
