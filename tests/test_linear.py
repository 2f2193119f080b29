"""Drift/diffusion construction, stability, modes, Lyapunov solver,
occupations, squeezing and Gaussian physicality."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from trimech.errors import NumericalError, UnstableSystemError
from trimech.linear import (EPS_STABLE, diffusion_matrix, drift_matrix,
                            linear_model, match_modes, normal_modes,
                            occupation, physicality_floor, solve_lyapunov,
                            squeezing, stability, steady_covariance,
                            symplectic_form)
from trimech.params import ModelParams
from trimech.steady import fixed_point
from trimech.validate import lyapunov_direct


def basic_model(**overrides):
    fields = dict(omega1=10.0, omega2=3.4, gamma1=2.8e-3, gamma2=1e-8,
                  g1=1.0e-3, g2=-2.4e-10, chi=3.7e-3, drive=1e8,
                  n1=100.0, n2=1000.0, detuning=-27.2, detuning_mode="effective")
    fields.update(overrides)
    return ModelParams(**fields)


def linear_only_drift(m, s):
    """Hand-coded drift of plain linear optomechanics plus a decoupled
    damped sphere; valid when g2 = 0 (so x2_bar = 0, Omega_j = omega_j)."""
    xb = math.sqrt(2.0 * s.photon_number)
    dt = s.delta_eff
    return np.array([
        [-1.0, -dt, 0.0, 0.0, 0.0, 0.0],
        [dt, -1.0, m.g1 * xb, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, m.omega1, 0.0, 0.0],
        [m.g1 * xb, 0.0, -m.omega1, -2 * m.gamma1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, m.omega2],
        [0.0, 0.0, 0.0, 0.0, -m.omega2, -2 * m.gamma2],
    ])


def quadratic_only_drift(m, s):
    """Hand-coded drift for the infinite-mass-mirror limit chi = g1 = 0
    (hence x1_bar = x2_bar = 0): the sphere sees a pure frequency shift."""
    nq = 2.0 * s.photon_number
    dt = s.delta_eff
    return np.array([
        [-1.0, -dt, 0.0, 0.0, 0.0, 0.0],
        [dt, -1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, m.omega1, 0.0, 0.0],
        [0.0, 0.0, -m.omega1, -2 * m.gamma1, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, m.omega2],
        [0.0, 0.0, 0.0, 0.0, -m.omega2 - m.g2 * nq, -2 * m.gamma2],
    ])


class TestDriftMatrix:
    def test_linear_only_limit(self):
        m = basic_model(g2=0.0)
        s = fixed_point(m)
        assert np.array_equal(drift_matrix(m, s), linear_only_drift(m, s))

    def test_quadratic_only_limit(self):
        m = basic_model(chi=0.0, g1=0.0)
        s = fixed_point(m)
        assert s.x1_bar == 0.0 and s.x2_bar == 0.0
        assert np.array_equal(drift_matrix(m, s), quadratic_only_drift(m, s))

    def test_quadratic_only_mirror_decouples(self):
        m = basic_model(chi=0.0, g1=0.0)
        A = drift_matrix(m, fixed_point(m))
        mirror = [2, 3]
        others = [0, 1, 4, 5]
        assert np.all(A[np.ix_(mirror, others)] == 0.0)
        assert np.all(A[np.ix_(others, mirror)] == 0.0)

    def test_all_couplings_zero_block_diagonal(self):
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0)
        s = fixed_point(m)
        A = drift_matrix(m, s)
        expected = np.zeros((6, 6))
        expected[0, :2] = [-1.0, -m.detuning]
        expected[1, :2] = [m.detuning, -1.0]
        expected[2:4, 2:4] = [[0.0, m.omega1], [-m.omega1, -2 * m.gamma1]]
        expected[4:6, 4:6] = [[0.0, m.omega2], [-m.omega2, -2 * m.gamma2]]
        assert np.array_equal(A, expected)

    def test_sphere_rows_carry_only_momentum_couplings(self, model_draws_100):
        # position rows contain nothing but the omega_j couplings to momenta
        for m, s, lm in model_draws_100[:25]:
            A = lm.drift
            assert np.all(A[2, [0, 1, 2, 4, 5]] == 0.0) and A[2, 3] == m.omega1
            assert np.all(A[4, [0, 1, 2, 3, 4]] == 0.0) and A[4, 5] == m.omega2


class TestDiffusionMatrix:
    def test_zero_damping_vacuum_only(self):
        D = diffusion_matrix(basic_model(gamma1=0.0, gamma2=0.0))
        assert np.array_equal(D, np.diag([1.0, 1.0, 0, 0, 0, 0]))

    def test_zero_temperature_entries(self):
        m = basic_model(n1=0.0, n2=0.0)
        D = diffusion_matrix(m)
        assert D[3, 3] == pytest.approx(2 * m.gamma1)
        assert D[5, 5] == pytest.approx(2 * m.gamma2)

    def test_hot_sphere_entry(self):
        m = basic_model(n2=1.2e5, gamma2=1e-8)
        assert diffusion_matrix(m)[5, 5] == pytest.approx(4.80002e-3, rel=1e-10)

    def test_psd_and_diagonal(self, model_draws_100):
        for m, _, lm in model_draws_100[:25]:
            D = lm.diffusion
            assert np.array_equal(D, D.T)
            assert np.all(np.linalg.eigvalsh(D) >= 0.0)
            assert np.all(D[np.triu_indices(6, 1)] == 0.0)


class TestStability:
    def test_uncoupled_damped_is_stable(self):
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0)
        stable, _ = stability(drift_matrix(m, fixed_point(m)))
        assert stable

    def test_marginal_reported_unstable(self):
        # undamped uncoupled mechanics sit exactly on the imaginary axis
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0,
                        gamma1=0.0, gamma2=0.0)
        stable, lam = stability(drift_matrix(m, fixed_point(m)))
        assert not stable
        assert lam.real.max() == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_pairs(self, model_draws_100):
        for _, _, lm in model_draws_100[:50]:
            lam = lm.eigenvalues
            assert np.allclose(np.sort_complex(lam), np.sort_complex(np.conj(lam)),
                               rtol=1e-9, atol=1e-9 * np.abs(lam).max())

    def test_threshold_strictness(self):
        A = np.diag([-0.5 * EPS_STABLE] * 6)
        assert not stability(A)[0]
        A = np.diag([-1e-6] * 6)
        assert stability(A)[0]


class TestNormalModes:
    def test_uncoupled_exact_frequencies(self):
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0,
                        gamma1=0.0, gamma2=0.0)
        modes = normal_modes(drift_matrix(m, fixed_point(m)))
        freqs = [f for f, _ in modes]
        assert freqs == pytest.approx([3.4, 10.0, 27.2], rel=1e-12)

    def test_sorted_by_frequency(self, model_draws_100):
        for _, _, lm in model_draws_100[:25]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                freqs = [f for f, _ in normal_modes(lm.drift)]
            assert freqs == sorted(freqs)

    def test_overdamped_spectrum_warns_zero_frequency(self):
        # gamma >> omega: the 2x2 mechanical block has two real eigenvalues
        A = np.zeros((6, 6))
        A[0, :2] = [-1.0, -2.0]
        A[1, :2] = [2.0, -1.0]
        A[2:4, 2:4] = [[0.0, 0.1], [-0.1, -5.0]]
        A[4:6, 4:6] = [[0.0, 1.0], [-1.0, -0.1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero frequencies are the data
            modes = normal_modes(A)
        assert len(modes) == 4
        assert sum(1 for f, _ in modes if f == 0.0) == 2

    def test_match_modes_minimal_jump(self):
        reference = [3.4, 10.0, 27.2]
        shuffled = [(27.6, 1.0), (3.2, 0.1), (9.5, 0.2)]
        matched = match_modes(reference, shuffled)
        assert [f for f, _ in matched] == [3.2, 9.5, 27.6]


class TestLyapunov:
    def test_thermal_block_closed_form(self):
        # decoupled mechanics at finite bath occupation: V = (n + 1/2) I
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0,
                        n1=17.0, n2=123.0, gamma1=1e-3, gamma2=1e-4)
        lm = linear_model(m, fixed_point(m))
        V = solve_lyapunov(lm.drift, lm.diffusion)
        assert V[2, 2] == pytest.approx(17.5, rel=1e-10)
        assert V[3, 3] == pytest.approx(17.5, rel=1e-10)
        assert V[4, 4] == pytest.approx(123.5, rel=1e-10)
        assert V[5, 5] == pytest.approx(123.5, rel=1e-10)
        assert abs(V[2, 3]) < 1e-10

    def test_cavity_vacuum_closed_form(self):
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0, n1=0.0, n2=0.0)
        lm = linear_model(m, fixed_point(m))
        V = solve_lyapunov(lm.drift, lm.diffusion)
        assert V[0, 0] == pytest.approx(0.5, rel=1e-12)
        assert V[1, 1] == pytest.approx(0.5, rel=1e-12)
        assert abs(V[0, 1]) < 1e-12

    def test_residual_contract_over_draws(self, model_draws_1000):
        for _, _, lm in model_draws_1000:
            V = solve_lyapunov(lm.drift, lm.diffusion)
            res = np.abs(lm.drift @ V + V @ lm.drift.T + lm.diffusion).max()
            assert res < 1e-10 * np.abs(lm.diffusion).max()

    def test_rejects_unstable(self):
        A = np.diag([1e-3] + [-1.0] * 5)
        with pytest.raises(UnstableSystemError):
            solve_lyapunov(A, np.eye(6))

    def test_degenerate_pair_falls_back_with_warning(self):
        # abscissa ~ -1e-11 puts an eigenvalue-pair sum under the floor
        A = np.diag([-1e-11, -1e-11, -1.0, -1.0, -1.0, -1.0])
        D = np.diag([1e-11, 1e-11, 1.0, 1.0, 1.0, 1.0])
        with pytest.warns(UserWarning, match="vectorized"):
            V = solve_lyapunov(A, D)
        assert V[0, 0] == pytest.approx(0.5, rel=1e-6)

    def test_symmetry(self, model_draws_100):
        for _, _, lm in model_draws_100[:25]:
            V = solve_lyapunov(lm.drift, lm.diffusion)
            assert np.array_equal(V, V.T)

    @pytest.mark.parametrize("w, g, n, eps", [
        (1, 1e-11, 1e6, 1e-6), (1, 3e-11, 1e6, 1e-6), (30, 1e-11, 1e5, 1e-4),
        (30, 1e-11, 1e6, 1e-4), (30, 3e-11, 1e5, 1e-4), (30, 3e-11, 1e6, 1e-4),
        (100, 1e-11, 1e6, 1e-4)])
    def test_near_degenerate_rows_meet_the_contract_or_fault(self, w, g, n, eps):
        """A hot, weakly damped oscillator (pair sum ~ 2g, under the floor)
        coupled by eps to the cavity, where the direct solve alone misses
        the contract: the covariance returned meets it, or the solve raises."""
        A, D = self.near_degenerate(w, g, n, eps)
        with pytest.warns(UserWarning, match="vectorized"):
            try:
                V = solve_lyapunov(A, D)
            except NumericalError as exc:
                assert "exceeds contract" in str(exc)
                return
        assert np.abs(A @ V + V @ A.T + D).max() <= 1e-10 * np.abs(D).max()

    def test_refined_fallback_certifies_a_row_the_direct_solve_misses(self):
        """Here the eigenbasis and the direct solve both miss the contract
        (the direct one by about 75x); refining the direct solve with
        direct solves of its residual meets it."""
        A, D = self.near_degenerate(30, 3e-11, 1e6, 1e-4)
        with pytest.warns(UserWarning, match="vectorized"):
            V = solve_lyapunov(A, D)
        bound = 1e-10 * np.abs(D).max()
        assert np.abs(A @ V + V @ A.T + D).max() <= bound
        V0 = lyapunov_direct(A, D)
        assert np.abs(A @ V0 + V0 @ A.T + D).max() > bound

    @staticmethod
    def near_degenerate(w, g, n, eps):
        A = np.zeros((6, 6))
        A[0:2, 0:2] = [[-1.0, -10.0], [10.0, -1.0]]
        A[2:4, 2:4] = [[0.0, 5.0], [-5.0, -0.1]]
        A[4:6, 4:6] = [[0.0, w], [-w, -2.0 * g]]
        A[1, 4] = A[5, 0] = eps
        D = np.diag([1.0, 1.0, 0.0, 0.2, 0.0, 2.0 * g * (2.0 * n + 1.0)])
        return A, D


class TestScipyOracle:
    def test_fig2_rows_match_bartels_stewart(self):
        """200 seeded (detuning, drive) rows of the fig2 cell at omega2 =
        1.95: every stable row's stacked covariance matches SciPy's
        Bartels-Stewart solve of A V + V A^T = -D (a test-only oracle)."""
        pytest.importorskip("scipy")
        from scipy.linalg import solve_continuous_lyapunov

        from trimech.linear import OK
        from trimech.params import nondimensionalize
        from trimech.presets import fig2_protocol
        from trimech.sweeps import solve_points
        base = fig2_protocol()["base"]
        kappa = base.cavity_decay
        m = nondimensionalize(replace(base, mirror_freq=10.0 * kappa,
                                      sphere_freq=1.95 * kappa), detuning=-1.0)
        rng = np.random.default_rng(20121)
        dets = rng.uniform(-45.0, -2.0, 200)
        drives = 10.0 ** rng.uniform(6.0, 12.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            batch = solve_points(replace(m, detuning_mode="effective"),
                                 dets, drives)
        ok = np.flatnonzero(batch.status == OK)
        assert ok.size >= 100
        D = batch.linear.diffusion
        for i in ok:
            V = batch.V[i]
            V_ref = solve_continuous_lyapunov(batch.linear.drift[i], -D)
            assert np.abs(V - V_ref).max() <= 1e-6 * np.abs(V).max()


class TestOccupationAndSqueezing:
    def test_ground_state_block(self):
        V = 0.5 * np.eye(6)
        assert occupation(V, 1) == 0.0
        assert occupation(V, 2) == 0.0
        assert squeezing(V, 1) == pytest.approx(1.0)
        assert squeezing(V, 2) == pytest.approx(1.0)

    def test_thermal_block(self):
        V = np.diag([0.5, 0.5, 7.5, 7.5, 42.5, 42.5])
        assert occupation(V, 1) == pytest.approx(7.0)
        assert occupation(V, 2) == pytest.approx(42.0)
        assert squeezing(V, 2) < 1.0

    def test_clamp_and_warning(self):
        V = 0.5 * np.eye(6)
        V[2, 2] = V[3, 3] = 0.5 - 1e-6  # unphysical by construction
        with pytest.warns(UserWarning, match="floor"):
            assert occupation(V, 1) == 0.0
        with pytest.warns(UserWarning, match="floor"):
            assert occupation(V, 1, clamp=False) < 0.0

    def test_small_negative_clamped_silently(self):
        V = 0.5 * np.eye(6)
        V[2, 2] = 0.5 - 1e-12
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert occupation(V, 1) == 0.0

    def test_squeezing_flags_subvacuum(self):
        V = 0.5 * np.eye(6)
        V[5, 5] = 0.4
        assert squeezing(V, 2) == pytest.approx(1.25)
        assert squeezing(V, 1) == pytest.approx(1.0)


class TestPhysicality:
    def test_symplectic_form_shape(self):
        s = symplectic_form(3)
        assert np.array_equal(s, -s.T)
        assert np.abs(np.linalg.det(s)) == pytest.approx(1.0)

    def test_vacuum_floor_zero(self):
        assert physicality_floor(0.5 * np.eye(6)) == pytest.approx(0.0, abs=1e-12)

    def test_draw_covariances_physical(self, model_draws_1000):
        for _, _, lm in model_draws_1000:
            cov = steady_covariance(lm)
            assert physicality_floor(cov.V) >= -1e-9
            assert occupation(cov.V, 1, clamp=False) >= -1e-9
            assert occupation(cov.V, 2, clamp=False) >= -1e-9


class TestDecouplingTheorem:
    def test_sphere_occupation_matches_isolated_block(self):
        """With chi = g1 = 0 the sphere decouples: its steady occupation
        from the full 6x6 solve equals the value of its isolated 2x2
        block (which includes the quadratic frequency shift but no
        cooling channel)."""
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            m = basic_model(
                chi=0.0, g1=0.0,
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
            cov = steady_covariance(lm)
            V22 = lyapunov_direct(lm.drift[4:6, 4:6], lm.diffusion[4:6, 4:6])
            n_isolated = 0.5 * (V22[0, 0] + V22[1, 1] - 1.0)
            assert abs(cov.n2 - n_isolated) <= 1e-9 * max(n_isolated, 1.0)
            # no cooling: a node coupling only heats the isolated block
            assert n_isolated >= m.n2 - 1e-9 * max(m.n2, 1.0)
            checked += 1
