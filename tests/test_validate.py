"""Moment-flow integrator and direct Lyapunov solve as oracles."""

import numpy as np
import pytest

import trimech.linear as linear
from trimech.cli import validation_set
from trimech.errors import NumericalError, UnstableSystemError
from trimech.linear import solve_lyapunov, stability
from trimech.validate import (ORACLE_CHUNK, _apply_steps, _rk4_affine_map,
                              _step_counts, cross_check, integrate_moments,
                              lyapunov_direct)

from conftest import generic_stable_instances, stable_model_draws
import test_linear


def divergent_pair():
    """A stable draw with its damping signs flipped: the moment flow
    diverges, and every route refuses it."""
    _, _, lm = stable_model_draws(1, seed=3)[0]
    A_bad = lm.drift.copy()
    A_bad[3, 3] = -A_bad[3, 3]
    A_bad[5, 5] = -A_bad[5, 5]
    A_bad[0, 0] = A_bad[1, 1] = 0.3
    return A_bad, lm.diffusion


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
        A_bad, D = divergent_pair()
        stable, _ = stability(A_bad)
        assert not stable
        with pytest.raises(UnstableSystemError):
            integrate_moments(A_bad, D)

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

    def test_non_finite_steps(self):
        # a non-finite step or horizon is a bad input, not a divergence;
        # a step count whose T / dt overflows caps at 2^63, with no
        # warning (pytest turns warnings into errors)
        A, D = np.diag([-1.0, -2.0]), np.eye(2)
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            integrate_moments(A, D, horizon=np.inf)
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate_moments(A, D, dt=np.inf)
        _, steps = _step_counts(A[None], 1e-300, 1e10)
        assert steps.tolist() == [2 ** 63]
        V = integrate_moments(A, D, dt=1e-300, horizon=1e10)
        assert np.isfinite(V).all()


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


@pytest.fixture(scope="module")
def validate_set():
    """The default `trimech validate` set: 50 seeded random instances, then
    the fig3 and fig4 preset points with their own moment-flow steps."""
    return validation_set(50)


def with_row(A, D, dt, at, A_row, D_row):
    """The stack with (A_row, D_row) inserted at `at`, default step."""
    return (np.insert(A, at, A_row, axis=0), np.insert(D, at, D_row, axis=0),
            dt[:at] + [None] + dt[at:])


def test_affine_map_is_one_rk4_step(validate_set):
    """On every row of the default validate set, M v + b is one classical
    RK4 step of dV/dt = A V + V A^T + D from a random symmetric V, then
    symmetrized."""
    _, A, D, dt = validate_set
    h, _ = _step_counts(A, dt)
    M, b = _rk4_affine_map(A, D, h)
    rng = np.random.default_rng(3)
    for i in range(len(A)):
        V = rng.normal(size=(6, 6))
        V = V + V.T

        def f(X):
            return A[i] @ X + X @ A[i].T + D[i]
        k1 = f(V)
        k2 = f(V + h[i] / 2 * k1)
        k3 = f(V + h[i] / 2 * k2)
        k4 = f(V + h[i] * k3)
        step = V + h[i] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        step = 0.5 * (step + step.T)
        mapped = (M[i] @ V.reshape(-1) + b[i]).reshape(6, 6)
        assert np.abs(mapped - step).max() <= 1e-13 * np.abs(step).max()


class TestStackedOracles:
    """Each row of a stacked oracle call is its one-instance call, bit for
    bit, on the default validate set."""

    def test_rows_have_their_own_step_counts(self, validate_set):
        # the presets need 10-18 more binary digits of RK4 steps than the
        # random instances, so rows leave a chunk's squaring loop at
        # different levels
        _, A, _, dt = validate_set
        assert len(A) > ORACLE_CHUNK
        _, steps = _step_counts(A, dt)
        bits = [int(s).bit_length() for s in steps]
        assert (min(bits[:50]), max(bits[:50])) == (14, 19)
        assert bits[50:] == [32, 29]

    def test_lyapunov_direct(self, validate_set):
        _, A, D, _ = validate_set
        V = lyapunov_direct(A, D)
        eye = np.eye(6)
        for i in range(len(A)):
            assert np.array_equal(V[i], lyapunov_direct(A[i], D[i]))
        # the one-matrix case is the textbook vectorized solve
        K = np.kron(A[0], eye) + np.kron(eye, A[0])
        v = np.linalg.solve(K, -D[0].reshape(-1)).reshape(6, 6)
        assert np.array_equal(V[0], 0.5 * (v + v.T))

    def test_integrate_moments(self, validate_set):
        _, A, D, dt = validate_set
        V = integrate_moments(A, D, dt=dt)
        for i in range(len(A)):
            assert np.array_equal(V[i], integrate_moments(A[i], D[i], dt=dt[i]))
        # a row's numbers do not depend on its neighbours or its chunk
        assert np.array_equal(integrate_moments(A[::-1], D[::-1], dt=dt[::-1]),
                              V[::-1])

    def test_integrate_moments_transients(self, validate_set):
        # short horizons and per-row starts stop each row mid-relaxation,
        # where one more step, or one fewer, moves its bits
        _, A, D, _ = validate_set
        rng = np.random.default_rng(7)
        V0 = rng.normal(size=A.shape)
        horizon = list(rng.uniform(0.05, 2.0, size=len(A)))
        V = integrate_moments(A, D, V0=V0, horizon=horizon)
        for i in range(len(A)):
            assert np.array_equal(
                V[i], integrate_moments(A[i], D[i], V0=V0[i], horizon=horizon[i]))

    def test_solve_lyapunov(self, validate_set, monkeypatch):
        # the near-degenerate draw needs the refined direct solve, so the
        # stack takes the fallback on that row
        _, A, D, _ = validate_set
        A_17, D_17 = test_linear.TestLyapunov.near_degenerate(
            *test_linear.TestLyapunov.DRAW_17)
        A = np.insert(A, 30, A_17, axis=0)
        D = np.insert(D, 30, D_17, axis=0)
        calls = []

        def counting_direct(A, D):
            calls.append(1)
            return lyapunov_direct(A, D)
        monkeypatch.setattr(linear, "lyapunov_direct", counting_direct)
        V = solve_lyapunov(A, D)
        assert V.shape == A.shape and calls
        for i in range(len(A)):
            assert np.array_equal(V[i], solve_lyapunov(A[i], D[i]))
        assert solve_lyapunov(A[0], D[0]).shape == (6, 6)

    def test_cross_check(self, validate_set):
        _, A, D, dt = validate_set
        chk = cross_check(A, D, dt=dt)
        for i in range(len(A)):
            one = cross_check(A[i], D[i], dt=dt[i])
            assert one == {key: float(x[i]) for key, x in chk.items()}


class TestStackErrors:
    """A stack raises the error its failing row raises alone, wherever the
    row sits among the validate set."""

    @pytest.mark.parametrize("at", [0, 25, 52])
    @pytest.mark.parametrize("horizon", [None, 1e6])
    def test_divergent_moment_flow(self, validate_set, at, horizon):
        # caught at its last binary digit (default horizon) or mid-way
        _, A, D, dt = validate_set
        A_bad, D_bad = divergent_pair()
        with pytest.raises(UnstableSystemError) as alone:
            integrate_moments(A_bad, D_bad, horizon=horizon)
        integrate_moments(A, D, dt=dt)  # the rest alone passes
        A_s, D_s, dt_s = with_row(A, D, dt, at, A_bad, D_bad)
        horizons = [None] * len(A_s)
        horizons[at] = horizon
        with pytest.raises(UnstableSystemError) as stacked:
            integrate_moments(A_s, D_s, dt=dt_s, horizon=horizons)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("at", [0, 25, 52])
    def test_singular_kronecker_system(self, validate_set, at):
        _, A, D, dt = validate_set
        A_sing = np.diag([0.0, -1.0, -1.0, -1.0, -1.0, -1.0])
        with pytest.raises(NumericalError) as alone:
            lyapunov_direct(A_sing, np.eye(6))
        A_s, D_s, _ = with_row(A, D, dt, at, A_sing, np.eye(6))
        with pytest.raises(NumericalError) as stacked:
            lyapunov_direct(A_s, D_s)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("at", [0, 25, 52])
    def test_cross_check_raises_the_rows_own_error(self, validate_set, at):
        _, A, D, dt = validate_set
        A_bad, D_bad = divergent_pair()
        with pytest.raises(UnstableSystemError) as alone:
            cross_check(A_bad, D_bad)
        A_s, D_s, dt_s = with_row(A, D, dt, at, A_bad, D_bad)
        # the production route is the stacked solve_lyapunov, which raises
        # the row's error itself
        with pytest.raises(UnstableSystemError) as stacked:
            solve_lyapunov(A_s, D_s)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(UnstableSystemError) as stacked:
            cross_check(A_s, D_s, dt=dt_s)
        assert str(stacked.value) == str(alone.value)
        assert "max Re(eig)" in str(alone.value)

    def test_diverged_row_leaves_the_others_untouched(self, validate_set):
        # over a long horizon the divergent row is caught at level 16 of
        # its 31, while fig4 (29 binary digits) and two random rows (19)
        # square on behind it; each of those ends on its clean value
        _, A, D, dt = validate_set
        A_bad, D_bad = divergent_pair()
        rows = [50, 51, 10, 22]
        A_s = np.concatenate([A[rows], A_bad[None]])
        D_s = np.concatenate([D[rows], D_bad[None]])
        dt_s, steps = _step_counts(A_s, [dt[i] for i in rows] + [None],
                                   [None] * 4 + [1e6])
        order = np.argsort(steps, kind="stable")[::-1]
        assert order.tolist() == [0, 4, 1, 3, 2]
        assert [int(s).bit_length() for s in steps] == [32, 29, 19, 19, 31]
        M, b = _rk4_affine_map(A_s[order], D_s[order], dt_s[order])
        v = np.zeros((5, 36))
        assert list(_apply_steps(M, b, steps[order], v, order)) == [4]
        V = v[:4].reshape(4, 6, 6)
        clean = integrate_moments(A[rows], D[rows], dt=[dt[i] for i in rows])
        assert np.array_equal(0.5 * (V + V.transpose(0, 2, 1)), clean)
