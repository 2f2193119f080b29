"""Moment-flow integrator and direct Lyapunov solve as oracles."""

import numpy as np
import pytest

from trimech.errors import NumericalError, UnstableSystemError
from trimech.linear import solve_lyapunov, stability
from trimech.validate import integrate_moments, lyapunov_direct

from conftest import generic_stable_instances, stable_model_draws


class TestLyapunovDirect:
    def test_diagonal_closed_form(self):
        rates = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 8.0])
        A = np.diag(-rates)
        D = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        V = lyapunov_direct(A, D)
        assert np.allclose(np.diag(V), np.diag(D) / (2 * rates), rtol=1e-13)
        assert np.abs(V - np.diag(np.diag(V))).max() < 1e-15

    def test_agrees_with_production_solver(self, generic_instances_1000):
        for A, D in generic_instances_1000[:200]:
            V1 = solve_lyapunov(A, D)
            V2 = lyapunov_direct(A, D)
            assert np.abs(V1 - V2).max() <= 1e-10 * np.abs(V2).max()

    def test_marginal_system_raises(self):
        A = np.diag([0.0, -1.0, -1.0, -1.0, -1.0, -1.0])
        with pytest.raises(NumericalError):
            lyapunov_direct(A, np.eye(6))


class TestIntegrateMoments:
    def test_scalar_like_closed_form(self):
        # dV/dt = -2V + 2I from V(0)=0 gives V(t) = (1 - e^{-2t}) I
        A = -np.eye(6)
        D = 2.0 * np.eye(6)
        for t_end in (0.5, 1.0, 3.0):
            V = integrate_moments(A, D, dt=1e-2, horizon=t_end)
            expected = (1.0 - np.exp(-2.0 * t_end)) * np.eye(6)
            assert np.abs(V - expected).max() < 1e-8

    def test_converges_to_lyapunov_solution(self):
        # the affine fixed point carries eps/(2 |absc| dt) roundoff, so the
        # 1e-8 comparison uses draws that are not marginally damped
        draws = stable_model_draws(10, seed=5, gamma2_exponents=(-4.0, -3.0))
        for _, _, lm in draws:
            assert lm.eigenvalues.real.max() < -1e-5
            V_ref = lyapunov_direct(lm.drift, lm.diffusion)
            dt = 0.5 / np.abs(lm.eigenvalues).max()
            V = integrate_moments(lm.drift, lm.diffusion, dt=dt)
            assert np.abs(V - V_ref).max() <= 1e-8 * np.abs(V_ref).max()

    def test_any_start_same_limit(self):
        draws = stable_model_draws(3, seed=11, gamma2_exponents=(-4.0, -3.0))
        for _, _, lm in draws:
            dt = 0.5 / np.abs(lm.eigenvalues).max()
            V_ref = lyapunov_direct(lm.drift, lm.diffusion)
            for V0 in (np.zeros((6, 6)), np.eye(6), 5.0 * np.eye(6)):
                V = integrate_moments(lm.drift, lm.diffusion, V0=V0, dt=dt)
                assert np.abs(V - V_ref).max() <= 1e-8 * np.abs(V_ref).max()

    def test_divergence_matches_stability_verdict(self):
        # flip the damping signs of a stable draw to construct instability
        _, _, lm = stable_model_draws(1, seed=3)[0]
        A_bad = lm.drift.copy()
        A_bad[3, 3] = -A_bad[3, 3]
        A_bad[5, 5] = -A_bad[5, 5]
        A_bad[0, 0] = A_bad[1, 1] = 0.3
        stable, _ = stability(A_bad)
        assert not stable
        with pytest.raises(UnstableSystemError):
            integrate_moments(A_bad, lm.diffusion)

    def test_symmetry_preserved(self, model_draws_100):
        _, _, lm = model_draws_100[0]
        V = integrate_moments(lm.drift, lm.diffusion)
        assert np.array_equal(V, V.T)

    def test_spec_validation(self):
        A, D = -np.eye(6), np.eye(6)
        with pytest.raises(ValueError, match="dt"):
            integrate_moments(A, D, dt=-1.0)
        with pytest.raises(ValueError, match="horizon"):
            integrate_moments(A, D, horizon=0.0)


class TestThreeWayAgreement:
    def test_generic_instances(self, generic_instances_1000):
        for A, D in generic_instances_1000[:50]:
            V_prod = solve_lyapunov(A, D)
            V_kron = lyapunov_direct(A, D)
            V_ode = integrate_moments(A, D)
            scale = np.abs(V_kron).max()
            assert np.abs(V_prod - V_kron).max() <= 1e-10 * scale
            assert np.abs(V_ode - V_kron).max() <= 1e-8 * scale
            assert np.abs(V_ode - V_prod).max() <= 1e-8 * scale

    def test_model_draws(self, model_draws_100):
        # algebraic pair across the stiff physical draws
        for _, _, lm in model_draws_100[:20]:
            V_prod = solve_lyapunov(lm.drift, lm.diffusion)
            V_kron = lyapunov_direct(lm.drift, lm.diffusion)
            scale = np.abs(V_kron).max()
            assert np.abs(V_prod - V_kron).max() <= 1e-10 * scale
        # all three routes on moderately damped draws (ode conditioning)
        for _, _, lm in stable_model_draws(10, seed=23,
                                           gamma2_exponents=(-4.0, -3.0)):
            dt = 0.5 / np.abs(lm.eigenvalues).max()
            V_prod = solve_lyapunov(lm.drift, lm.diffusion)
            V_kron = lyapunov_direct(lm.drift, lm.diffusion)
            V_ode = integrate_moments(lm.drift, lm.diffusion, dt=dt)
            scale = np.abs(V_kron).max()
            assert np.abs(V_prod - V_kron).max() <= 1e-10 * scale
            assert np.abs(V_ode - V_kron).max() <= 1e-8 * scale
