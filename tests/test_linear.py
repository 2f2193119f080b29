"""Drift/diffusion construction, stability, modes, Lyapunov solver,
occupations, squeezing and Gaussian physicality."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import trimech.linear as linear
from trimech.errors import NumericalError, UnstableSystemError
from trimech.linear import (EPS_STABLE, IMAG_FLOOR, diffusion_matrix,
                            _sorted_modes, drift_matrix, linear_model,
                            occupation, physicality_floor,
                            solve_lyapunov, squeezing, stability,
                            symplectic_form, track_modes)
from trimech.params import ModelParams
from trimech.presets import fig3_model, preset_drives
from trimech.steady import fixed_point
from trimech.sweeps import power_sweep, solve_points
from trimech.validate import lyapunov_direct

from test_golden import NUMPY


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
        """A decomposed spectrum pairs into conjugates exactly: LAPACK
        returns each complex pair as wr +- i wi with the same wr and wi.
        Checked on model draws and on seeded draws of the near-degenerate
        family of TestLyapunov, whose pair sums sit under the floor."""
        spectra = [lm.eigenvalues for _, _, lm in model_draws_100[:50]]
        rng = np.random.default_rng(0)
        for w, g, n, eps in zip(rng.uniform(1.0, 100.0, 200),
                                10.0 ** rng.uniform(-12.0, math.log10(5e-11), 200),
                                10.0 ** rng.uniform(3.0, 7.0, 200),
                                10.0 ** rng.uniform(-7.0, -3.0, 200)):
            spectra.append(stability(TestLyapunov.near_degenerate(w, g, n, eps)[0])[1])
        for lam in spectra:
            assert np.array_equal(np.sort_complex(lam), np.sort_complex(np.conj(lam)))

    def test_threshold_strictness(self):
        A = np.diag([-0.5 * EPS_STABLE] * 6)
        assert not stability(A)[0]
        A = np.diag([-1e-6] * 6)
        assert stability(A)[0]


def one_row_modes(eigenvalues):
    """The (frequency, damping) modes of one spectrum: `_sorted_modes` of
    a one-row stack, cut to the row's count."""
    freq, damp, counts = _sorted_modes(np.asarray(eigenvalues)[None])
    c = counts[0]
    return list(zip(freq[0, :c].tolist(), damp[0, :c].tolist()))


class TestNormalModes:
    def test_uncoupled_exact_frequencies(self):
        m = basic_model(g1=0.0, g2=0.0, chi=0.0, drive=0.0,
                        gamma1=0.0, gamma2=0.0)
        modes = one_row_modes(linear_model(m, fixed_point(m)).eigenvalues)
        freqs = [f for f, _ in modes]
        assert freqs == pytest.approx([3.4, 10.0, 27.2], rel=1e-12)

    def test_sorted_by_frequency(self, model_draws_100):
        for _, _, lm in model_draws_100[:25]:
            freqs = [f for f, _ in one_row_modes(lm.eigenvalues)]
            assert freqs == sorted(freqs)

    @staticmethod
    def overdamped_drift():
        # gamma >> omega: the 2x2 mechanical block has two real eigenvalues
        A = np.zeros((6, 6))
        A[0, :2] = [-1.0, -2.0]
        A[1, :2] = [2.0, -1.0]
        A[2:4, 2:4] = [[0.0, 0.1], [-0.1, -5.0]]
        A[4:6, 4:6] = [[0.0, 1.0], [-1.0, -0.1]]
        return A

    def test_overdamped_spectrum_warns_zero_frequency(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero frequencies are the data
            modes = one_row_modes(stability(self.overdamped_drift())[1])
        assert len(modes) == 4
        assert sum(1 for f, _ in modes if f == 0.0) == 2


def reference_normal_modes(eigenvalues):
    """The per-row mode ordering as a loop over one spectrum."""
    floor = IMAG_FLOOR * max(np.abs(eigenvalues).max(), 1.0)
    complex_part = eigenvalues[eigenvalues.imag > floor]
    real_part = eigenvalues[np.abs(eigenvalues.imag) <= floor]
    modes = [(abs(ev.imag), -ev.real) for ev in complex_part]
    modes.extend((0.0, -ev.real) for ev in np.sort(real_part.real))
    modes.sort(key=lambda fd: fd[0])
    return modes


def reference_assign_modes(reference_freqs, modes):
    """The per-row assignment as a loop over every permutation."""
    best, best_cost = None, math.inf
    for perm in itertools.permutations(range(len(modes)), len(reference_freqs)):
        cost = sum(abs(modes[j][0] - reference_freqs[i]) for i, j in enumerate(perm))
        if cost < best_cost:
            best, best_cost = perm, cost
    return [modes[j] for j in best]


def reference_chain(reference_freqs, spectra):
    """Continuity tracking one row at a time: match each row's modes to
    the frequencies matched on the row before it."""
    tracked = []
    for lam in spectra:
        modes = reference_assign_modes(reference_freqs, reference_normal_modes(lam))
        reference_freqs = [f for f, _ in modes]
        tracked.append(modes)
    return np.array(tracked, dtype=float)


class TestTrackModes:
    """The stacked tracker equals the row-by-row chain byte for byte."""

    @staticmethod
    def assert_tracks_like_chain(reference, spectra):
        tracked = track_modes(reference, spectra)
        assert tracked.tobytes() == reference_chain(reference, spectra).tobytes()
        for lam in spectra:
            assert one_row_modes(lam) == reference_normal_modes(lam)
        return tracked

    def test_fig3_preset(self):
        m = fig3_model()
        result = power_sweep(m, preset_drives("fig3"))
        batch = solve_points(m, m.detuning, result.drive)
        tracked = self.assert_tracks_like_chain(
            [abs(m.detuning), m.omega1, m.omega2], batch.linear.eigenvalues)
        assert tracked[..., 0].tobytes() == result.freqs.tobytes()
        assert tracked[..., 1].tobytes() == result.dampings.tobytes()

    def test_four_and_six_mode_rows(self):
        overdamped = stability(TestNormalModes.overdamped_drift())[1]
        rng = np.random.default_rng(7)
        Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        all_real = stability(Q @ np.diag([-0.5, -1.0, -2.0, -3.0, -5.0, -8.0]) @ Q.T)[1]
        spectra = np.array([overdamped, all_real, overdamped])
        assert [len(one_row_modes(lam)) for lam in spectra] == [4, 6, 4]
        self.assert_tracks_like_chain([0.05, 1.0, 2.0], spectra)

    def test_cost_tie_goes_to_first_permutation(self):
        # branches 0 and 1 sit at 2.0, midway between modes at 1.0 and 3.0:
        # (0, 1, 2) and (1, 0, 2) both cost 2.0, and (0, 1, 2) comes first
        lam = np.array([[-0.1 + 1j, -0.1 - 1j, -0.2 + 3j, -0.2 - 3j,
                         -0.3 + 10j, -0.3 - 10j]])
        tracked = self.assert_tracks_like_chain([2.0, 2.0, 10.0], lam)
        assert tracked[0].tolist() == [[1.0, 0.1], [3.0, 0.2], [10.0, 0.3]]

    def test_one_row_follows_reference_by_minimal_jump(self):
        # the reference is not in frequency order, so sorting alone fails
        spectrum = np.array([-1.0 + 27.6j, -1.0 - 27.6j, -0.1 + 3.2j,
                             -0.1 - 3.2j, -0.2 + 9.5j, -0.2 - 9.5j])
        tracked = self.assert_tracks_like_chain([10.0, 3.4, 27.2], spectrum[None])
        assert tracked.tolist() == [[[9.5, 0.2], [3.2, 0.1], [27.6, 1.0]]]

    def test_without_finite_assignment_names_reference(self):
        with pytest.raises(ValueError, match=r"reference \[nan, 1\.0, 2\.0\]"):
            track_modes([math.nan, 1.0, 2.0], np.array([[-1 + 1j, -1 - 1j,
                                                          -1 + 2j, -1 - 2j,
                                                          -1 + 3j, -1 - 3j]]))

    @staticmethod
    def coarse_spectrum(rng, pairs):
        """Six eigenvalues: `pairs` conjugate pairs and 6 - 2 * pairs real
        ones, so 6 - pairs modes, drawn from coarse grids that repeat
        frequencies and make equal jump totals exactly equal."""
        f = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0], size=pairs)
        d = rng.choice([0.125, 0.25, 0.5], size=pairs)
        reals = -rng.choice([0.25, 0.5, 1.0, 2.0], size=6 - 2 * pairs)
        return np.concatenate([-d + 1j * f, -d - 1j * f, reals + 0j])

    @staticmethod
    def tied_rows(reference, spectra):
        """Rows whose least jump total the chain reaches by more than one
        permutation."""
        ties = 0
        for lam in spectra:
            freqs = [f for f, _ in reference_normal_modes(lam)]
            costs = [sum(abs(freqs[j] - r) for j, r in zip(perm, reference))
                     for perm in itertools.permutations(range(len(freqs)), 3)]
            ties += costs.count(min(costs)) > 1
            reference = [f for f, _ in reference_assign_modes(
                reference, reference_normal_modes(lam))]
        return ties

    @pytest.mark.parametrize("seed", range(12))
    def test_mixed_mode_counts_equal_the_chain(self, seed):
        rng = np.random.default_rng(seed)
        overdamped = stability(TestNormalModes.overdamped_drift())[1]
        Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        all_real = stability(Q @ np.diag(-rng.uniform(0.1, 5.0, 6)) @ Q.T)[1]
        rows = [self.coarse_spectrum(rng, pairs)
                for pairs in rng.integers(0, 4, size=40)]
        rows[rng.integers(40)] = overdamped
        rows[rng.integers(40)] = all_real
        spectra = np.array(rows)
        reference = rng.choice([0.5, 1.0, 2.0, 3.0], size=3).tolist()
        counts = {len(one_row_modes(lam)) for lam in spectra}
        assert counts == {3, 4, 5, 6}
        assert self.tied_rows(reference, spectra) > 0
        self.assert_tracks_like_chain(reference, spectra)

    def test_later_row_without_finite_assignment_names_its_reference(self):
        # row 1 matches its huge frequencies; every assignment of row 2
        # then jumps by more than the largest float
        first = np.array([-1 + 1e300j, -1 - 1e300j, -1 + 1.5e308j, -1 - 1.5e308j,
                          -1 + 1.7e308j, -1 - 1.7e308j])
        second = np.array([-1 + 1j, -1 - 1j, -1 + 2j, -1 - 2j, -1 + 3j, -1 - 3j])
        reference = [1.7e308, 1e300, 1.5e308]
        assert track_modes(reference, first[None])[0, :, 0].tolist() == reference
        with pytest.raises(ValueError, match=r"^no assignment of finite frequency "
                           r"jump to reference \[1\.7e\+308, 1e\+300, 1\.5e\+308\]$"):
            track_modes(reference, np.array([first, second]))

    def test_row_with_fewer_than_three_modes(self):
        # four eigenvalues: one pair and two reals is three modes, two
        # pairs only two
        spectra = np.array([[-1 + 1j, -1 - 1j, -0.5, -2.0],
                            [-1 + 1j, -1 - 1j, -1 + 2j, -1 - 2j]])
        with pytest.raises(ValueError, match="^fewer candidate modes than "
                           "reference branches$"):
            track_modes([0.0, 0.0, 1.0], spectra)

    def test_working_set_stays_small(self):
        """The chain works on one row's Python floats at a time, never
        on a table of every row times every permutation.  Measured with
        tracemalloc on this 250-row stack of 3-, 4- and 6-mode rows
        (Python 3.11, numpy 2.4): a peak of 88 KB, 120 KB on a first
        call that fills the permutation cache.  A cost table padded to
        the widest row (120 permutations of 6 modes) is 240 KB for the
        costs alone."""
        rng = np.random.default_rng(3)
        spectra = np.array([self.coarse_spectrum(rng, (3, 2, 0)[i % 3])
                            for i in range(250)])
        tracemalloc.start()
        try:
            track_modes([1.0, 2.0, 3.0], spectra)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000


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

    def test_degenerate_pair_meets_the_contract(self):
        # abscissa ~ -1e-11 puts an eigenvalue-pair sum near 2e-11
        A = np.diag([-1e-11, -1e-11, -1.0, -1.0, -1.0, -1.0])
        D = np.diag([1e-11, 1e-11, 1.0, 1.0, 1.0, 1.0])
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
        """A hot, weakly damped oscillator (pair sum ~ 2g, under 1e-10)
        coupled by eps to the cavity, where the direct solve alone misses
        the contract: the covariance returned meets it, or the solve raises."""
        A, D = self.near_degenerate(w, g, n, eps)
        try:
            V = solve_lyapunov(A, D)
        except NumericalError as exc:
            assert "exceeds contract" in str(exc)
            return
        assert np.abs(A @ V + V @ A.T + D).max() <= 1e-10 * np.abs(D).max()

    #: draw 17 of test_seeded_near_degenerate_draw, a row whose eigenbasis
    #: residual misses the contract (by about 300x)
    DRAW_17 = (63.18941741832496, 2.2588007534701816e-11, 754964.9001074878,
               0.0006400238457560141)

    def test_refined_fallback_certifies_a_row_the_direct_solve_misses(self):
        """Here the eigenbasis and the direct solve both miss the contract
        (each by about 300x); refining the direct solve with direct solves
        of its residual meets it."""
        A, D = self.near_degenerate(*self.DRAW_17)
        V = solve_lyapunov(A, D)
        bound = 1e-10 * np.abs(D).max()
        assert np.abs(A @ V + V @ A.T + D).max() <= bound
        V0 = lyapunov_direct(A, D)
        assert np.abs(A @ V0 + V0 @ A.T + D).max() > bound

    def test_only_a_residual_miss_reaches_the_direct_solve(self, monkeypatch):
        """A small pair sum alone (8e-11 here) does not call the direct
        solve, nor warn (pytest turns warnings into errors), when the
        eigenbasis meets the contract; a row whose eigenbasis residual
        misses it does."""
        calls = []

        def counting_direct(A, D):
            calls.append(1)
            return lyapunov_direct(A, D)
        monkeypatch.setattr(linear, "lyapunov_direct", counting_direct)
        A = np.diag([-4e-11, -1.0, -1.5, -2.0, -2.5, -3.0])
        D = np.eye(6)
        V = solve_lyapunov(A, D)
        assert not calls
        assert V[0, 0] == pytest.approx(1.25e10, rel=1e-12)
        assert np.abs(A @ V + V @ A.T + D).max() <= 1e-10 * np.abs(D).max()
        solve_lyapunov(*self.near_degenerate(*self.DRAW_17))
        assert calls

    #: FAULT rows of the seeded draw of test_seeded_near_degenerate_draw
    #: (of 1986 stable rows), recorded under numpy NUMPY
    SEEDED_FAULTS = 43

    @pytest.mark.skipif(np.__version__ != NUMPY,
                        reason=f"fault count recorded with numpy {NUMPY}, not "
                               f"{np.__version__}; LAPACK may round differently")
    def test_seeded_near_degenerate_draw(self):
        """3000 seeded draws of the near-degenerate family, log-uniform in
        w, g, n and eps: every stable row that does not fault meets the
        contract, and no more rows fault than were recorded."""
        rng = np.random.default_rng(2012)
        faults = 0
        for _ in range(3000):
            w, g, n, eps = (10.0 ** rng.uniform(0.0, 2.0),
                            10.0 ** rng.uniform(-12.0, math.log10(5e-11)),
                            10.0 ** rng.uniform(3.0, 7.0),
                            10.0 ** rng.uniform(-7.0, -3.0))
            A, D = self.near_degenerate(w, g, n, eps)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    V = solve_lyapunov(A, D)
                except UnstableSystemError:
                    continue
                except NumericalError as exc:
                    assert "exceeds contract" in str(exc)
                    faults += 1
                    continue
            assert not caught
            assert np.abs(A @ V + V @ A.T + D).max() <= 1e-10 * np.abs(D).max()
        assert faults <= self.SEEDED_FAULTS

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
        batch = solve_points(replace(m, detuning_mode="effective"),
                             dets, drives)
        ok = np.flatnonzero(batch.status == OK)
        assert ok.size >= 100
        for i in ok:
            V = batch.V[i]
            V_ref = solve_continuous_lyapunov(batch.linear.drift[i],
                                              -batch.linear.diffusion[i])
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
            V = solve_lyapunov(lm.drift, lm.diffusion)
            assert physicality_floor(V) >= -1e-9
            assert occupation(V, 1, clamp=False) >= -1e-9
            assert occupation(V, 2, clamp=False) >= -1e-9


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
            n2 = occupation(solve_lyapunov(lm.drift, lm.diffusion), 2)
            V22 = lyapunov_direct(lm.drift[4:6, 4:6], lm.diffusion[4:6, 4:6])
            n_isolated = 0.5 * (V22[0, 0] + V22[1, 1] - 1.0)
            assert abs(n2 - n_isolated) <= 1e-9 * max(n_isolated, 1.0)
            # no cooling: a node coupling only heats the isolated block
            assert n_isolated >= m.n2 - 1e-9 * max(m.n2, 1.0)
            checked += 1
