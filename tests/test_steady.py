"""Classical fixed points: closed forms, self-consistency, bistability."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trimech.errors import DegenerateTrapError
from trimech.params import ModelParams
from trimech.steady import (cavity_amplitude, effective_detuning,
                            fixed_point, fixed_points,
                            self_consistent_fixed_points,
                            stationarity_residuals)

from conftest import stable_model_draws


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

    def test_requires_effective_mode(self):
        with pytest.raises(ValueError, match="effective"):
            fixed_point(basic_model(detuning_mode="bare"))


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

    def test_requires_bare_mode(self):
        with pytest.raises(ValueError, match="bare"):
            self_consistent_fixed_points(basic_model())


class TestContinuity:
    def test_photon_number_continuous_in_detuning(self):
        m = basic_model(drive=1e7)
        detunings = np.linspace(-40.0, -0.5, 400)
        photons = [fixed_point(replace(m, detuning=d)).photon_number
                   for d in detunings]
        jumps = np.abs(np.diff(photons)) / np.maximum(photons[:-1], 1e-300)
        # a 0.1-linewidth step never moves the photon number by more than ~25%
        assert jumps.max() < 0.25
