"""Coupling-rate derivations, bath occupations and unit conversion."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trimech.params import (HBAR, C_LIGHT, K_BOLTZMANN, ModelParams, ParamRows,
                            PhysicalParams, bose_occupation, linear_coupling,
                            nondimensionalize, quadratic_coupling,
                            reference_params, root_window, zpf_ratio)
from trimech.presets import fig3_model
from trimech.sweeps import solve_point

from conftest import SEED, draw_model

TWO_PI = 2.0 * math.pi
REF = reference_params()
KAPPA = REF.cavity_decay


def rel_err(value, target):
    return abs(value - target) / abs(target)


class TestLinearCoupling:
    def test_reference_value(self):
        # 1064 nm, 0.5 cm cavity, 40 ng mirror at 2*pi*1 MHz
        assert rel_err(linear_coupling(REF), TWO_PI * 36.0) < 0.03

    def test_scaling_inverse_sqrt_mirror_freq(self):
        from dataclasses import replace
        quadrupled = replace(REF, mirror_freq=4.0 * REF.mirror_freq)
        assert linear_coupling(quadrupled) == pytest.approx(
            0.5 * linear_coupling(REF), rel=1e-12)

    def test_ten_linewidth_mirror(self):
        from dataclasses import replace
        p = replace(REF, mirror_freq=10.0 * KAPPA)  # 2*pi*500 kHz
        assert rel_err(linear_coupling(p) / KAPPA, 1.0e-3) < 0.15


class TestQuadraticCoupling:
    def test_reference_value_node(self):
        g2 = quadratic_coupling(REF)
        assert g2 < 0
        assert rel_err(g2, -TWO_PI * 10e-6) < 0.10

    def test_antinode_flips_sign_only(self):
        from dataclasses import replace
        anti = replace(REF, sphere_site="antinode")
        assert quadratic_coupling(anti) == pytest.approx(
            -quadratic_coupling(REF), rel=1e-15)

    def test_independent_of_sphere_radius(self):
        from dataclasses import replace
        bigger = replace(REF, sphere_radius=3.0 * REF.sphere_radius)
        assert quadratic_coupling(bigger) == pytest.approx(
            quadratic_coupling(REF), rel=1e-15)

    def test_polarizability_form_agrees(self):
        # Independent route: (3V/4Vc) (eps_r-1)/(eps_r+2) xzp^2 k^3 c with
        # V the sphere volume and Vc = (pi/4) w^2 L the mode volume.
        p = REF
        volume = 4.0 / 3.0 * math.pi * p.sphere_radius ** 3
        mode_volume = math.pi / 4.0 * p.cavity_waist ** 2 * p.cavity_length
        eps_r = p.refractive_index ** 2
        xzp2 = HBAR / (p.sphere_mass * p.sphere_freq)
        k = TWO_PI / p.wavelength
        oracle = (3.0 * volume / (4.0 * mode_volume)
                  * (eps_r - 1.0) / (eps_r + 2.0) * xzp2 * k ** 3 * C_LIGHT)
        assert quadratic_coupling(p) == pytest.approx(-oracle, rel=1e-12)

    def test_fig3_frequency(self):
        from dataclasses import replace
        p = replace(REF, sphere_freq=3.4 * KAPPA)  # 2*pi*170 kHz
        g2_kc = quadratic_coupling(p) / KAPPA
        # direct evaluation sits ~7% above the rounded quoted value
        assert rel_err(g2_kc, -2.4e-10) < 0.15
        assert -2.6e-10 < g2_kc < -2.4e-10


class TestZpfRatio:
    def test_identical_oscillators(self):
        from dataclasses import replace
        # sphere radius tuned so that the sphere mass equals the mirror mass
        radius = (REF.mirror_mass / (REF.sphere_density * 4.0 / 3.0 * math.pi)) ** (1 / 3)
        p = replace(REF, sphere_radius=radius, sphere_freq=REF.mirror_freq)
        assert zpf_ratio(p) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        # direct evaluation of sqrt(m2 w2 / (m1 w1)) for the reference set
        assert zpf_ratio(REF) == pytest.approx(2.6339483246e-3, rel=1e-9)

    def test_fig3_frequencies(self):
        from dataclasses import replace
        p = replace(REF, mirror_freq=10.0 * KAPPA, sphere_freq=3.4 * KAPPA)
        assert rel_err(zpf_ratio(p), 3.7e-3) < 0.15
        assert 3.4e-3 < zpf_ratio(p) < 3.7e-3

    def test_depends_on_radius(self):
        from dataclasses import replace
        bigger = replace(REF, sphere_radius=2.0 * REF.sphere_radius)
        assert zpf_ratio(bigger) == pytest.approx(
            (2.0 ** 1.5) * zpf_ratio(REF), rel=1e-12)


class TestBoseOccupation:
    def test_zero_temperature(self):
        assert bose_occupation(TWO_PI * 1e6, 0.0) == 0.0

    def test_high_temperature_limit(self):
        omega = TWO_PI * 100e3
        for ratio in (60.0, 300.0, 5e4):
            temp = ratio * HBAR * omega / K_BOLTZMANN
            classical = K_BOLTZMANN * temp / (HBAR * omega)
            assert rel_err(bose_occupation(omega, temp), classical) < 0.01

    def test_sphere_at_one_kelvin(self):
        # 2*pi*170 kHz at 1 K; frozen from a 30-digit mpmath evaluation
        n = bose_occupation(TWO_PI * 170e3, 1.0)
        assert n == pytest.approx(122567.84786005971, rel=1e-10)

    @given(st.floats(min_value=1e3, max_value=1e10),
           st.floats(min_value=1e-6, max_value=1e3),
           st.floats(min_value=1.0001, max_value=10.0))
    def test_monotone_in_temperature(self, omega, temp, factor):
        # strictly increasing until both occupations underflow to zero
        hot = bose_occupation(omega, factor * temp)
        cold = bose_occupation(omega, temp)
        assert hot >= cold
        if hot > 1e-290:
            assert hot > cold

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bose_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, -1.0)

    @pytest.mark.parametrize("omega, temperature", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_rejects_non_finite_inputs(self, omega, temperature):
        """An infinite temperature used to raise ZeroDivisionError and a
        NaN one to return NaN."""
        with pytest.raises(ValueError, match="finite"):
            bose_occupation(omega, temperature)


class TestNondimensionalize:
    def test_mirror_freq_in_model_units(self):
        from dataclasses import replace
        m = nondimensionalize(replace(REF, mirror_freq=10.0 * KAPPA), -27.2)
        assert m.omega1 == pytest.approx(10.0, rel=1e-14)

    def test_zero_power_zero_drive(self):
        from dataclasses import replace
        m = nondimensionalize(replace(REF, input_power=0.0), -1.0)
        assert m.drive == 0.0

    def test_fig4_linear_coupling(self):
        # mirror at 20 kappa_c is the reference frequency itself
        m = nondimensionalize(REF, -10.0)
        assert m.omega1 == pytest.approx(20.0, rel=1e-14)
        assert rel_err(m.g1, 7.2e-4) < 0.15

    def test_round_trip_12_digits(self):
        """Model rates times the cavity decay give back the lab rates."""
        m = nondimensionalize(REF, -27.2)
        assert m.omega1 * KAPPA == pytest.approx(REF.mirror_freq, rel=1e-12)
        assert m.omega2 * KAPPA == pytest.approx(REF.sphere_freq, rel=1e-12)
        assert m.gamma1 * KAPPA == pytest.approx(REF.mirror_damping, rel=1e-12)
        assert m.gamma2 * KAPPA == pytest.approx(REF.sphere_damping, rel=1e-12)
        assert m.g1 * KAPPA == pytest.approx(linear_coupling(REF), rel=1e-12)
        assert m.g2 * KAPPA == pytest.approx(quadratic_coupling(REF), rel=1e-12)
        assert m.drive * KAPPA == pytest.approx(
            REF.input_power / (HBAR * REF.cavity_freq), rel=1e-12)

    def test_caption_sets_from_scaling(self):
        """Both quoted parameter sets follow from the reference set plus the
        frequency scaling of the coupling formulas, within 15% each."""
        from dataclasses import replace
        fig3 = nondimensionalize(
            replace(REF, mirror_freq=10 * KAPPA, sphere_freq=3.4 * KAPPA), -27.2)
        assert rel_err(fig3.g1, 1.0e-3) < 0.15
        assert rel_err(fig3.g2, -2.4e-10) < 0.15
        assert rel_err(fig3.chi, 3.7e-3) < 0.15
        fig4 = nondimensionalize(
            replace(REF, mirror_freq=20 * KAPPA, sphere_freq=10 * KAPPA), -10.0)
        assert rel_err(fig4.g1, 7.2e-4) < 0.15
        assert rel_err(100.0 * fig4.g2, -8.0e-9) < 0.15
        assert rel_err(fig4.chi, 4.5e-3) < 0.15


class TestInvariants:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError, match="wavelength"):
            reference_params(wavelength=-1e-6)

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValueError, match="bath_temp_mirror"):
            reference_params(bath_temp_mirror=-0.1)

    def test_refractive_index_above_one(self):
        with pytest.raises(ValueError, match="refractive_index"):
            reference_params(refractive_index=0.9)

    def test_bad_site_rejected(self):
        with pytest.raises(ValueError, match="sphere_site"):
            reference_params(sphere_site="midpoint")

    @pytest.mark.parametrize("field, value, message", [
        ("input_power", -1e-3, "input_power must be >= 0, got -0.001"),
        ("sphere_radius", 1e-120, "derived sphere mass is not positive"),
    ], ids=["negative-power", "sphere-mass-underflow"])
    def test_physical_checks(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reference_params(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("omega2", 0.0, "mechanical frequencies must be strictly positive"),
        ("gamma1", -1e-3, "damping rates must be >= 0"),
        ("chi", -1e-3, "chi must be >= 0"),
        ("drive", -1.0, "drive must be >= 0"),
        ("n2", -1.0, "bath occupations must be >= 0"),
        ("detuning_mode", "sideways",
         "detuning_mode must be 'effective' or 'bare', got 'sideways'"),
    ], ids=["frequency", "damping", "chi", "drive", "occupation", "detuning-mode"])
    def test_model_checks(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(fig3_model(), **{field: value})

    @pytest.mark.parametrize("detuning", [-1e308, 1e308])
    def test_bare_detuning_needs_a_finite_root_window(self, detuning):
        """A bare detuning whose default root window has no finite width is
        refused; as an effective detuning, or below about 9e307, it is
        accepted."""
        with pytest.raises(ValueError,
                           match=f"^{re.escape(f'bare detuning {detuning!r} ')}"):
            dataclasses.replace(fig3_model(), detuning_mode="bare",
                                detuning=detuning)
        dataclasses.replace(fig3_model(), detuning=detuning)
        m = dataclasses.replace(fig3_model(), detuning_mode="bare",
                                detuning=math.copysign(8.9e307, detuning))
        lo, hi = root_window(m.detuning)
        assert math.isfinite(hi - lo)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="cavity_decay"):
            reference_params(cavity_decay=0.0)
        with pytest.raises(ValueError, match="cavity_decay"):
            reference_params(cavity_decay=-1.0)


def numeric_fields(record):
    return [f.name for f in dataclasses.fields(record) if f.type is float]


class TestNonFiniteFields:
    """Both parameter records refuse a non-finite number with a
    ValueError that names the field, before any derivation or solve."""

    def test_infinite_mirror_mass(self):
        # inf passed `> 0`, and g1 = chi = 0 came back without an error
        with pytest.raises(ValueError, match="mirror_mass must be finite"):
            nondimensionalize(dataclasses.replace(REF, mirror_mass=math.inf), -27.2)

    def test_nan_detuning_is_an_input_error(self):
        # NaN reached LAPACK and came back as a NumericalError
        with pytest.raises(ValueError, match="detuning must be finite"):
            solve_point(dataclasses.replace(fig3_model(), detuning=math.nan))

    def test_infinite_drive(self):
        with pytest.raises(ValueError, match="drive must be finite"):
            dataclasses.replace(fig3_model(), drive=math.inf)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("record, cls", [(REF, PhysicalParams),
                                             (fig3_model(), ModelParams)])
    def test_every_numeric_field(self, record, cls, value):
        names = numeric_fields(cls)
        assert len(names) == len(dataclasses.fields(cls)) - 1  # all but one str
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                dataclasses.replace(record, **{name: value})


def parent_constants(m):
    """The kernel's constants of one model by the per-model formulas, on
    Python floats, each product formed left to right."""
    A = np.zeros((6, 6))
    A[0, 0] = A[1, 1] = -1.0
    A[2, 3] = m.omega1
    A[3, 3] = -2.0 * m.gamma1
    A[4, 5] = m.omega2
    A[5, 5] = -2.0 * m.gamma2
    D = np.zeros((6, 6))
    D[0, 0] = D[1, 1] = 1.0
    D[3, 3] = 2.0 * m.gamma1 * (2.0 * m.n1 + 1.0)
    D[5, 5] = 2.0 * m.gamma2 * (2.0 * m.n2 + 1.0)
    return {"two_g2": 2.0 * m.g2,
            "g2_chi": m.g2 * m.chi,
            "two_g2_chi": 2.0 * m.g2 * m.chi,
            "g2_chi2": m.g2 * (m.chi * m.chi),
            "two_g2_chi2": 2.0 * m.g2 * (m.chi * m.chi),
            "four_g2g2_chi2": 4.0 * (m.g2 * m.g2) * (m.chi * m.chi),
            "base_drift": A,
            "diffusion": D,
            "diffusion_max": np.abs(D).max()}


def edge_draws(count=20):
    """Seeded draws, each at node and antinode g2, at chi = 0, with
    zero-temperature baths and with no mechanical damping."""
    rng = np.random.default_rng(SEED)
    models = []
    for _ in range(count):
        m = draw_model(rng)
        models += [m, dataclasses.replace(m, g2=-m.g2),
                   dataclasses.replace(m, chi=0.0),
                   dataclasses.replace(m, n1=0.0, n2=0.0),
                   dataclasses.replace(m, gamma1=0.0, gamma2=0.0)]
    return models


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestParamRows:
    """`ParamRows.stack` derives the kernel's constants from stacked
    parameters, bit for bit the per-model formulas."""

    def test_stacked_rows_equal_each_models_rows_and_formulas(self):
        models = edge_draws()
        assert {m.g2 > 0 for m in models} == {True, False}
        stacked = ParamRows.stack(models)
        for i, m in enumerate(models):
            alone = m.rows
            formulas = parent_constants(m)
            for name, field in zip(ParamRows._fields, stacked):
                assert same_bits(field[i], getattr(alone, name)[0]), name
                want = formulas.get(name, getattr(m, name, None))
                assert same_bits(field[i], want), name

    def test_rows_is_cached_and_no_field(self):
        m, fresh = fig3_model(), fig3_model()
        assert m.rows is m.rows
        assert m.rows.rows is m.rows
        assert "rows" not in [f.name for f in dataclasses.fields(ModelParams)]
        assert m == fresh and hash(m) == hash(fresh)
        assert dataclasses.asdict(m) == dataclasses.asdict(fresh)
        assert dataclasses.replace(m) == fresh
        moved = dataclasses.replace(m, detuning=m.detuning + 1.0)
        assert "rows" not in vars(moved)
        assert moved != m
        assert moved.rows.g2[0] == m.rows.g2[0]
