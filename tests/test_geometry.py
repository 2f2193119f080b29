"""Pumping geometries, intracavity field profile and resonance lineshape."""

import math

import numpy as np
import pytest

from trimech.errors import NumericalError
from trimech.geometry import (CavitySpec, PumpGeometry, chi_for_geometry,
                              field_profile_samples,
                              intracavity_field, lineshape, profile)
from trimech.linear import linear_model
from trimech.params import ModelParams
from trimech.steady import fixed_point

WAVELENGTH = 1064e-9
K = 2.0 * math.pi / WAVELENGTH


def intracavity_field_sum(z, spec: CavitySpec, round_trips=10_000):
    """Brute-force partial sum of the round-trip series for E(z).

    Independent check of the closed form; term m carries amplitude r^m
    and phase k((2*floor(m/2)+1) L -+ z) with the sign alternating
    between -z (even m) and +z (odd m).
    """
    z_arr = np.asarray(z, dtype=float)
    r, t = spec.reflectivity, spec.transmissivity
    k = spec.wavenumber
    total = np.zeros_like(z_arr, dtype=complex)
    for m_idx in range(round_trips):
        path = (2 * (m_idx // 2) + 1) * spec.length
        sign = -1.0 if m_idx % 2 == 0 else 1.0
        total = total + r ** m_idx * np.exp(1j * k * (path + sign * z_arr))
    return t * total


def spec_for(r, t=None, length=0.5e-2, k=K):
    if t is None:
        t = math.sqrt(1.0 - r * r)
    return CavitySpec(length=length, wavenumber=k, reflectivity=r,
                      transmissivity=t)


class TestChiForGeometry:
    def test_fixed_mirror_identity(self):
        assert chi_for_geometry(PumpGeometry.FROM_FIXED_MIRROR, 0.0037) == 0.0037

    def test_symmetric_halves(self):
        assert chi_for_geometry(PumpGeometry.SYMMETRIC, 0.0037) == pytest.approx(
            0.00185)

    def test_moving_mirror_zero(self):
        assert chi_for_geometry(PumpGeometry.FROM_MOVING_MIRROR, 0.7) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            chi_for_geometry(PumpGeometry.SYMMETRIC, -0.1)


class TestInteractionForm:
    @pytest.mark.parametrize("geometry,coeffs", [
        (PumpGeometry.SYMMETRIC, (0.5, 1.0)),
        (PumpGeometry.FROM_FIXED_MIRROR, (1.0, 1.0)),
        (PumpGeometry.FROM_MOVING_MIRROR, (0.0, 1.0)),
    ])
    def test_quadratic_form_coefficients(self, geometry, coeffs):
        """The sphere term (alpha*x1 - beta*x2)^2 has alpha = chi_for_geometry
        at chi = 1 and beta = 1."""
        assert (chi_for_geometry(geometry, 1.0), 1.0) == coeffs


class TestIntracavityField:
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("length", [0.5e-2, 0.31e-2])  # distinct kL phases
    def test_closed_form_equals_round_trip_sum(self, r, length):
        spec = spec_for(r, length=length)
        z = np.linspace(0.0, spec.length, 41)
        closed = intracavity_field(z, spec)
        brute = intracavity_field_sum(z, spec, round_trips=10_000)
        assert np.abs(closed - brute).max() / np.abs(closed).max() < 1e-8

    def test_good_cavity_limit_sinusoidal(self):
        spec = spec_for(-0.9999)
        z = np.linspace(0.0, 4 * WAVELENGTH, 3000)
        envelope = np.abs(profile(z, spec))
        target = 2.0 * np.abs(np.sin(K * z))
        assert np.abs(envelope - target).max() < 2e-4

    def test_node_positions_independent_of_length(self):
        # nodes of the z-profile sit at kz = m*pi regardless of L
        r = -0.999
        for length in (0.5e-2, 0.93e-2):
            spec = spec_for(r, length=length)
            z = np.linspace(0.25 * WAVELENGTH, 3.25 * WAVELENGTH, 60_000)
            mag = np.abs(profile(z, spec))
            interior = (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
            nodes = z[1:-1][interior]
            assert len(nodes) == 6  # kz = m*pi for m = 1..6 in this window
            for node in nodes:
                nearest = round(node / (0.5 * WAVELENGTH)) * 0.5 * WAVELENGTH
                assert abs(node - nearest) < 1e-3 * WAVELENGTH

    def test_boundary_value_at_right_mirror(self):
        for length in (1e-3, 7e-3):
            spec = spec_for(0.6, length=length)
            assert profile(0.0, spec) == pytest.approx(1.6)

    def test_rejects_outside_cavity(self):
        spec = spec_for(0.5)
        with pytest.raises(ValueError):
            intracavity_field(-1e-9, spec)
        with pytest.raises(ValueError):
            intracavity_field(spec.length * 1.001, spec)


class TestLineshape:
    def test_resonance_value(self):
        # kL = m*pi: |L|^2 = t^2/(1-r^2)^2
        r, t = 0.9, 0.2
        m_int = round(0.5e-2 / (0.5 * WAVELENGTH))
        length = m_int * 0.5 * WAVELENGTH
        spec = CavitySpec(length=length, wavenumber=K, reflectivity=r,
                          transmissivity=t)
        assert abs(lineshape(spec)) ** 2 == pytest.approx(
            t ** 2 / (1 - r ** 2) ** 2, rel=1e-6)

    def test_antiresonance_value(self):
        r, t = 0.9, 0.2
        m_int = round(0.5e-2 / (0.5 * WAVELENGTH))
        length = (m_int + 0.5) * 0.5 * WAVELENGTH
        spec = CavitySpec(length=length, wavenumber=K, reflectivity=r,
                          transmissivity=t)
        assert abs(lineshape(spec)) ** 2 == pytest.approx(
            t ** 2 / (1 + r ** 2) ** 2, rel=1e-6)

    def test_periodic_in_kL(self):
        r, t = 0.7, 0.3
        base = CavitySpec(length=1.0, wavenumber=1.234, reflectivity=r,
                          transmissivity=t)
        shifted = CavitySpec(length=1.0, wavenumber=1.234 + math.pi,
                             reflectivity=r, transmissivity=t)
        assert abs(lineshape(base)) ** 2 == pytest.approx(
            abs(lineshape(shifted)) ** 2, rel=1e-9)

    def test_half_maximum_offset(self):
        # |1 - r^2 e^{2i delta}|^2 = (1 - r^2)^2 + 4 r^2 sin^2(delta), so the
        # power halves at sin(delta) = (1 - r^2) / (2 r) from resonance in kL
        for r in (0.5, 0.9, 0.99):
            delta = math.asin((1 - r * r) / (2 * r))
            peak = abs(lineshape(spec_for(r, length=1.0, k=math.pi))) ** 2
            for offset in (-delta, delta):
                half = abs(lineshape(spec_for(r, length=1.0, k=math.pi + offset))) ** 2
                assert half / peak == pytest.approx(0.5, rel=1e-9), (r, offset)

    def test_divergence_signalled(self):
        # r -> 1 with kL exactly on resonance: denominator underflows
        spec = CavitySpec(length=math.pi, wavenumber=1.0,
                          reflectivity=1 - 1e-14, transmissivity=1e-7)
        with pytest.raises(NumericalError):
            lineshape(spec)


class TestGeometryDriftCoupling:
    def test_moving_mirror_pump_removes_cross_coupling(self):
        """chi -> 0 for the moving-mirror pump removes every mirror-sphere
        entry of the drift matrix (the nodal structure no longer moves
        with the mirror)."""
        chi_eff = chi_for_geometry(PumpGeometry.FROM_MOVING_MIRROR, 3.7e-3)
        m = ModelParams(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-8,
                        g1=1.0e-3, g2=-2.4e-10, chi=chi_eff, drive=1e8,
                        n1=0.0, n2=0.0, detuning=-27.2)
        A = linear_model(m, fixed_point(m)).drift
        mirror, sphere = [2, 3], [4, 5]
        assert np.all(A[np.ix_(mirror, sphere)][:, :1] == 0.0)
        assert np.all(A[np.ix_(mirror, sphere)][1, 0] == 0.0)
        assert np.all(A[np.ix_(sphere, mirror)][:, 0] == 0.0)
        assert A[3, 4] == 0.0 and A[5, 2] == 0.0
        # the sphere also decouples from the field rows (pure quadratic)
        assert A[5, 0] == 0.0 and A[1, 4] == 0.0

    def test_fixed_mirror_pump_keeps_cross_coupling(self):
        chi_eff = chi_for_geometry(PumpGeometry.FROM_FIXED_MIRROR, 3.7e-3)
        m = ModelParams(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-8,
                        g1=1.0e-3, g2=-2.4e-10, chi=chi_eff, drive=1e8,
                        n1=0.0, n2=0.0, detuning=-27.2)
        A = linear_model(m, fixed_point(m)).drift
        assert A[3, 4] != 0.0 and A[5, 2] != 0.0


class TestFieldProfileExport:
    def test_two_column_sampling(self):
        spec = spec_for(0.9, length=3 * WAVELENGTH)
        table = field_profile_samples(spec, samples=101)
        assert table.shape == (101, 2)
        assert table[0, 0] == 0.0
        assert table[-1, 0] == pytest.approx(spec.length)
        assert np.all(table[:, 1] >= 0.0)

    def test_spec_invariants(self):
        with pytest.raises(ValueError):
            CavitySpec(length=1.0, wavenumber=1.0, reflectivity=1.2,
                       transmissivity=0.1)
        with pytest.raises(ValueError):
            CavitySpec(length=1.0, wavenumber=1.0, reflectivity=0.9,
                       transmissivity=0.9)
