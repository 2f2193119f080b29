"""Acceptance gate: each numbered criterion asserted at its stated
tolerance, with one pass line printed per criterion (run with -s to see
them live)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from trimech.linear import (linear_model, occupation, physicality_floor,
                            solve_lyapunov)
from trimech.params import (drive_from_watts, linear_coupling,
                            nondimensionalize, quadratic_coupling,
                            reference_params, watts_from_drive, zpf_ratio)
from trimech.presets import fig2_protocol, fig3_model, fig4_model, preset_drives
from trimech.steady import fixed_point
from trimech.sweeps import (instability_threshold, occupation_landscape,
                            power_sweep, squeezing_sweep)
from trimech.validate import integrate_moments, lyapunov_direct

from conftest import generic_stable_instances, stable_model_draws

TWO_PI = 2.0 * math.pi
REF = reference_params()
KAPPA = REF.cavity_decay


def rel_err(value, target):
    return abs(value - target) / abs(target)


def timed(fn, repeats=1):
    fn()  # warm-up
    t0 = time.perf_counter()
    for _ in range(repeats):
        out = fn()
    elapsed = (time.perf_counter() - t0) / repeats
    return out, elapsed


def test_criterion_1_coupling_constants():
    """Reference-parameter coupling rates against the quoted values."""
    def derive():
        return linear_coupling(REF), quadratic_coupling(REF)

    (g1, g2), per_call = timed(derive, repeats=100)
    assert rel_err(g1, TWO_PI * 36.0) < 0.03
    assert g2 < 0 and rel_err(g2, -TWO_PI * 10e-6) < 0.10
    assert per_call < 1e-3
    print(f"\n[PASS] criterion 1: g1 = 2pi x {g1 / TWO_PI:.1f} Hz (3%), "
          f"g2 = -2pi x {abs(g2) / TWO_PI * 1e6:.1f} uHz (10%), "
          f"{per_call * 1e6:.1f} us/derivation")


def test_criterion_2_caption_consistency():
    """Both quoted figure parameter sets follow from the reference set
    plus the frequency scaling of the coupling formulas, within 15%."""
    def derive():
        p3 = replace(REF, mirror_freq=10 * KAPPA, sphere_freq=3.4 * KAPPA)
        p4 = replace(REF, mirror_freq=20 * KAPPA, sphere_freq=10 * KAPPA)
        return ((linear_coupling(p3) / KAPPA, quadratic_coupling(p3) / KAPPA,
                 zpf_ratio(p3)),
                (linear_coupling(p4) / KAPPA, quadratic_coupling(p4) / KAPPA,
                 zpf_ratio(p4)))

    (set3, set4), per_call = timed(derive, repeats=100)
    for value, target in zip(set3, (1.0e-3, -2.4e-10, 3.7e-3)):
        assert rel_err(value, target) < 0.15
    for value, target in zip(set4, (7.2e-4, -8.0e-9 / 100.0, 4.5e-3)):
        assert rel_err(value, target) < 0.15
    assert per_call < 1e-3
    print(f"[PASS] criterion 2: both caption sets within 15% "
          f"({per_call * 1e6:.1f} us/set)")


def test_criterion_3_solver_oracle_equivalence(generic_instances_1000):
    """Production eigenbasis solver vs vectorized solve vs moment-flow
    limit: 1000 random stable instances plus the preset operating points."""
    t0 = time.perf_counter()
    worst_pair = worst_ode = 0.0
    for A, D in generic_instances_1000:
        V_prod = solve_lyapunov(A, D)
        V_kron = lyapunov_direct(A, D)
        V_ode = integrate_moments(A, D)
        scale = np.abs(V_kron).max()
        worst_pair = max(worst_pair, np.abs(V_prod - V_kron).max() / scale)
        worst_ode = max(worst_ode, np.abs(V_ode - V_kron).max() / scale)
    assert worst_pair < 1e-10
    assert worst_ode < 1e-8

    # preset operating points: fig3 at its hybridization drive, fig4
    # (scaled and unscaled) just below their instability thresholds
    m3 = fig3_model()
    sweep3 = power_sweep(m3, preset_drives("fig3"), base=REF)
    points = [replace(m3, drive=sweep3.hybridization["drive"])]
    for scaled in (True, False):
        m4 = fig4_model(scaled)
        crit = instability_threshold(m4, drive_from_watts(REF, 1e-5),
                                     drive_from_watts(REF, 5e-3))
        points.append(replace(m4, drive=0.99 * crit))
        points.append(replace(m4, drive=0.90 * crit))
    for m in points:
        lm = linear_model(m, fixed_point(m))
        V_prod = solve_lyapunov(lm.drift, lm.diffusion)
        V_kron = lyapunov_direct(lm.drift, lm.diffusion)
        dt = 0.5 / np.abs(lm.eigenvalues).max()
        V_ode = integrate_moments(lm.drift, lm.diffusion, dt=dt)
        scale = np.abs(V_kron).max()
        assert np.abs(V_prod - V_kron).max() < 1e-10 * scale
        assert np.abs(V_ode - V_kron).max() < 1e-8 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"[PASS] criterion 3: worst pair {worst_pair:.2e} (<1e-10), "
          f"worst ode {worst_ode:.2e} (<1e-8), presets ok, {elapsed:.1f} s")


def test_criterion_4_decoupling():
    """chi = g1 = 0: the sphere occupation from the full solve equals its
    isolated 2x2-block value to 1e-9 across a 100-point random scan."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    checked = 0
    worst = 0.0
    while checked < 100:
        m = fig3_model()
        m = replace(
            m, chi=0.0, g1=0.0,
            omega1=rng.uniform(2, 30),
            omega2=rng.uniform(1.5, 20),
            gamma1=10 ** rng.uniform(-3, -2),
            gamma2=10 ** rng.uniform(-8, -4),
            g2=-10 ** rng.uniform(-11, -8),
            drive=10 ** rng.uniform(4, 9),
            n1=10 ** rng.uniform(0, 4),
            n2=10 ** rng.uniform(0, 4),
            detuning=-rng.uniform(0.5, 40),
        )
        lm = linear_model(m, fixed_point(m))
        if not lm.stable:
            continue
        n2 = occupation(solve_lyapunov(lm.drift, lm.diffusion), 2)
        V22 = lyapunov_direct(lm.drift[4:6, 4:6], lm.diffusion[4:6, 4:6])
        n_isolated = 0.5 * (V22[0, 0] + V22[1, 1] - 1.0)
        dev = abs(n2 - n_isolated) / max(n_isolated, 1.0)
        worst = max(worst, dev)
        assert dev <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 4: decoupling worst deviation {worst:.2e} "
          f"(<1e-9) over 100 draws, {elapsed:.2f} s")


def test_criterion_5_hybridization():
    """fig3 preset, 200-point log power sweep: the mechanical branches
    reach minimum separation where the occupations equalize, below the
    instability threshold."""
    t0 = time.perf_counter()
    m = fig3_model()
    drives = preset_drives("fig3")[1:]  # the 200 logarithmic points
    assert len(drives) == 200
    result = power_sweep(m, drives, base=REF)
    hybrid = result.hybridization
    # (a) minimum separation is attained strictly inside the stable range
    assert 0 < hybrid["index"] < len(result.drive) - 1
    # (b) occupations agree to better than 10% there
    assert hybrid["occupation_mismatch"] < 0.1
    # and the window sits below the recorded instability threshold
    assert result.threshold_bracket is not None
    assert hybrid["drive"] < result.threshold_bracket[1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 5: min separation {hybrid['separation']:.3f} at "
          f"{watts_from_drive(REF, hybrid['drive']) * 1e3:.2f} mW, "
          f"|n1-n2|/max = {hybrid['occupation_mismatch']:.3f} (<0.1), "
          f"{elapsed:.1f} s")


def test_criterion_6_cooling_magnitude():
    """Cooling-landscape protocol at omega1 = 10 kappa_c (mirror bath
    50 mK, sphere bath 1 K): optimized sphere occupation at least 100x
    below its thermal value."""
    t0 = time.perf_counter()
    proto = fig2_protocol()
    result = occupation_landscape(proto["base"], np.array([10.0]),
                                  proto["omega2"],
                                  detuning_bounds=proto["detuning_bounds"],
                                  drive_bounds=proto["drive_bounds"])
    ok = [p for p in result.points if p.ok]
    assert ok, "no stable optimization cell"
    reductions = [p.n2_thermal / p.n2_min for p in ok if p.n2_min > 0]
    best = max(reductions)
    assert best >= 100.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 6: best occupation reduction {best:.0f}x "
          f"(>=100x) over omega2 grid, {elapsed:.1f} s")


def test_criterion_7_squeezing():
    """fig4 preset: peak sphere squeezing in [1.1, 1.3] with the momentum
    variance at 0.43 +/- 0.05, within 10% below the bisected threshold;
    no squeezing with the unscaled quadratic coupling."""
    t0 = time.perf_counter()
    m = fig4_model()
    result = squeezing_sweep(m, preset_drives("fig4"), base=REF)
    assert result.threshold_bracket is not None
    crit = instability_threshold(m, result.threshold_bracket[0],
                                 result.threshold_bracket[1])
    peak = result.max_S2
    assert 1.1 <= peak["value"] <= 1.3
    i_peak = int(np.argmax(result.S2))
    assert result.var_p2[i_peak] == pytest.approx(0.43, abs=0.05)
    assert peak["drive"] >= 0.9 * crit
    # only the momentum quadrature dips below vacuum
    assert result.var_x2.min() >= 0.5 - 1e-9
    assert result.var_p2.min() < 0.5

    unscaled = squeezing_sweep(fig4_model(scaled=False),
                               preset_drives("fig4"), base=REF)
    assert unscaled.S2.max() <= 1.0 + 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[PASS] criterion 7: max S2 = {peak['value']:.3f} in [1.1, 1.3], "
          f"min <p2^2> = {result.var_p2[i_peak]:.3f} = 0.43 +/- 0.05, at "
          f"{peak['drive'] / crit:.3f} of threshold; unscaled max S2 - 1 = "
          f"{unscaled.S2.max() - 1:.1e} (<=1e-6), {elapsed:.1f} s")


def test_criterion_8_geometry():
    """Closed-form intracavity field vs the 10^4-term round-trip sum,
    good-cavity node positions, and removal of the mirror-sphere
    cross-coupling for moving-mirror pumping."""
    from trimech.geometry import (CavitySpec, PumpGeometry, chi_for_geometry,
                                  intracavity_field, profile)
    from test_geometry import intracavity_field_sum
    from trimech.linear import drift_matrix
    t0 = time.perf_counter()
    wavelength = 1064e-9
    k = TWO_PI / wavelength
    for r in (0.5, 0.9, 0.99):
        spec = CavitySpec(length=0.5e-2, wavenumber=k, reflectivity=r,
                          transmissivity=math.sqrt(1 - r * r))
        z = np.linspace(0.0, spec.length, 33)
        closed = intracavity_field(z, spec)
        brute = intracavity_field_sum(z, spec, round_trips=10_000)
        assert np.abs(closed - brute).max() / np.abs(closed).max() < 1e-8

    for length in (0.5e-2, 0.77e-2):
        spec = CavitySpec(length=length, wavenumber=k, reflectivity=-0.999,
                          transmissivity=math.sqrt(1 - 0.999 ** 2))
        z = np.linspace(0.2 * wavelength, 3.3 * wavelength, 80_000)
        mag = np.abs(profile(z, spec))
        interior = (mag[1:-1] < mag[:-2]) & (mag[1:-1] < mag[2:])
        nodes = z[1:-1][interior]
        assert len(nodes) == 6
        for node in nodes:
            nearest = round(node / (0.5 * wavelength)) * 0.5 * wavelength
            assert abs(node - nearest) < 1e-3 * wavelength

    m = fig3_model()
    m = replace(m, chi=chi_for_geometry(PumpGeometry.FROM_MOVING_MIRROR, m.chi),
                drive=1e8)
    A = drift_matrix(m, fixed_point(m))
    assert A[3, 4] == 0.0 and A[5, 2] == 0.0
    assert np.all(A[np.ix_([2, 3], [4, 5])] == 0.0) or A[3, 4] == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"[PASS] criterion 8: round-trip sum, node pinning and "
          f"cross-coupling removal all hold, {elapsed:.2f} s")


def test_criterion_9_physicality(model_draws_1000):
    """Every stable steady covariance touched by the suite satisfies
    V + (i/2) sigma >= 0 to -1e-9 and has occupations >= -1e-9 before
    clamping."""
    t0 = time.perf_counter()
    worst_floor = math.inf
    worst_occ = math.inf

    def check(V):
        nonlocal worst_floor, worst_occ
        worst_floor = min(worst_floor, physicality_floor(V))
        worst_occ = min(worst_occ, occupation(V, 1, clamp=False),
                        occupation(V, 2, clamp=False))

    for _, _, lm in model_draws_1000:
        check(solve_lyapunov(lm.drift, lm.diffusion))

    for m, drives in ((fig3_model(), preset_drives("fig3")[::10]),
                      (fig4_model(), preset_drives("fig4")[::10]),
                      (fig4_model(scaled=False), preset_drives("fig4")[::10])):
        for drive in drives:
            mi = replace(m, drive=float(drive))
            lm = linear_model(mi, fixed_point(mi))
            if lm.stable:
                check(solve_lyapunov(lm.drift, lm.diffusion))

    assert worst_floor >= -1e-9
    assert worst_occ >= -1e-9
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 9: physicality floor {worst_floor:.2e} and raw "
          f"occupation floor {worst_occ:.2e} (both >= -1e-9), {elapsed:.1f} s")
