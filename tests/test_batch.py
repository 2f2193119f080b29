"""The stacked solve kernel: row independence, N = 1 equivalence and the
one-eigendecomposition-per-point contract."""

from dataclasses import replace

import numpy as np
import pytest

import trimech.linear as linear
from trimech.errors import DegenerateTrapError, NumericalError, UnstableSystemError
from trimech.linear import DEGENERATE, FAULT, OK, UNSTABLE
from trimech.params import drive_from_watts, nondimensionalize, reference_params
from trimech.presets import fig2_protocol, fig3_model
from trimech.steady import fixed_point
from trimech.sweeps import _RowParams, is_stable, solve_point, solve_points

STATUS_OF = {UnstableSystemError: UNSTABLE, DegenerateTrapError: DEGENERATE,
             NumericalError: FAULT}


def assert_rows_equal(batch, i, expected):
    """Row `i` of `batch` equals a (state, model, covariance) triple, bit for bit."""
    state, lm, cov = batch.row(i)
    s_ref, lm_ref, cov_ref = expected
    assert state == s_ref
    assert np.array_equal(lm.drift, lm_ref.drift)
    assert np.array_equal(lm.eigenvalues, lm_ref.eigenvalues)
    assert np.array_equal(lm.eigenvectors, lm_ref.eigenvectors)
    assert lm.stable == lm_ref.stable
    assert np.array_equal(cov.V, cov_ref.V)
    for name in ("n1", "n2", "var_x1", "var_p1", "var_x2", "var_p2", "S1", "S2"):
        assert getattr(cov, name) == getattr(cov_ref, name), name


def single(m, detuning, drive):
    """solve_point on one row: (status, result or error message)."""
    try:
        return OK, solve_point(replace(m, detuning=float(detuning), drive=float(drive)))
    except (UnstableSystemError, DegenerateTrapError, NumericalError) as exc:
        return STATUS_OF[type(exc)], str(exc)


def check_defective_row(monkeypatch, base, inv_raises):
    """Insert a Jordan-block drift (see `test_defective_row`) into the middle
    of the all-OK batch `base`, with the D of `base`'s first row, and check
    that it meets the contract or faults while every other row keeps its
    values."""
    A, D = base.linear.drift, base.linear.diffusion
    J = A[0].copy()
    J[:, 4:] = J[4:, :] = 0.0
    J[4:6, 4:6] = [[-0.5, 1.0], [0.0, -0.5]]
    k = len(A) // 2
    DJ = D[0]
    stack = linear._decompose(np.insert(A, k, J, axis=0), np.insert(D, k, DJ, axis=0))
    assert np.linalg.cond(stack.eigenvectors[k]) > 1e15
    if inv_raises:
        real_inv = np.linalg.inv

        def inv(a):
            if np.any(np.linalg.cond(a) > 1e15):
                raise np.linalg.LinAlgError("Singular matrix")
            return real_inv(a)
        monkeypatch.setattr(np.linalg, "inv", inv)
    V, status, reasons = linear._lyapunov_rows(stack)
    if status[k] == OK:
        bound = linear.RESIDUAL_REL * np.abs(DJ).max()
        assert np.abs(J @ V[k] + V[k] @ J.T + DJ).max() <= bound
    else:
        assert status[k] == FAULT
        assert "Lyapunov residual" in reasons[k]
    others = np.delete(np.arange(len(A) + 1), k)
    assert np.array_equal(status[others], base.status)
    assert np.array_equal(V[others], base.V)


class TestRowsMatchSolvePoint:
    def test_each_row_bit_identical_to_n1(self, model_draws_100):
        """Each draw's ModelParams, stacked with its own operating point, a
        blue-detuned copy, an overdriven copy and the operating points of
        other draws: every row equals its N = 1 solve_point, status included."""
        seen = set()
        draws = model_draws_100[:40]
        for k, (m, _, _) in enumerate(draws):
            others = [draws[(k + j) % len(draws)][0] for j in (1, 2, 3)]
            dets = [m.detuning, -m.detuning, m.detuning] + [o.detuning for o in others]
            drives = [m.drive, m.drive, 1e16] + [o.drive for o in others]
            batch = solve_points(m, dets, drives)
            for i, (det, drive) in enumerate(zip(dets, drives)):
                status, expected = single(m, det, drive)
                assert batch.status[i] == status
                seen.add(status)
                if status == OK:
                    assert_rows_equal(batch, i, expected)
                else:
                    with pytest.raises(Exception) as info:
                        batch.row(i)
                    assert str(info.value) == expected
        assert {OK, UNSTABLE, DEGENERATE} <= seen

    def test_model_stack_carries_a_diffusion_per_row(self):
        m = fig3_model()
        drives = np.geomspace(1e6, 1e9, 7)
        batch = solve_points(m, m.detuning, drives)
        D = linear.diffusion_matrix(m)
        assert D.shape == (6, 6)
        assert batch.linear.diffusion.shape == (len(drives), 6, 6)
        for i in range(len(drives)):
            assert same_bits(batch.linear.diffusion[i], D)
            assert batch.linear.model(i).diffusion.shape == (6, 6)
        assert linear.linear_model(m, fixed_point(m)).diffusion.shape == (6, 6)

    def test_scalar_entry_points_are_the_one_row_case(self, model_draws_100):
        for m, s, lm in model_draws_100[:20]:
            batch = solve_points(m, m.detuning, m.drive)
            assert np.array_equal(linear.solve_lyapunov(lm.drift, lm.diffusion),
                                  batch.V[0])


class TestRowIndependence:
    """A special row leaves every other row of its batch unchanged."""

    # gamma2 = 4e-11 gives the undriven row a sphere pair sum of 8e-11;
    # the driven rows near hybridization sit well above it
    MODEL = replace(fig3_model(), gamma2=4e-11)
    WATTS = np.array([2e-3, 2.5e-3, 2.55e-3, 2.58e-3, 2.6e-3, 2.7e-3])

    def drives(self):
        return drive_from_watts(reference_params(), self.WATTS)

    def check_others_unchanged(self, dets, drives, special_det, special_drive,
                               special_status):
        m = self.MODEL
        base = solve_points(m, dets, drives)
        assert np.all(base.status == OK)
        k = len(dets) // 2
        mixed = solve_points(m, np.insert(dets, k, special_det),
                             np.insert(drives, k, special_drive))
        assert mixed.status[k] == special_status
        others = np.delete(np.arange(len(dets) + 1), k)
        assert np.array_equal(mixed.status[others], base.status)
        assert np.array_equal(mixed.V[others], base.V)
        assert np.array_equal(mixed.linear.eigenvalues[others],
                              base.linear.eigenvalues)
        return mixed, k

    def test_degenerate_row(self):
        drives = self.drives()
        dets = np.full(drives.shape, self.MODEL.detuning)
        self.check_others_unchanged(dets, drives, self.MODEL.detuning, 1e14,
                                    DEGENERATE)

    def test_unstable_row(self):
        drives = self.drives()
        dets = np.full(drives.shape, self.MODEL.detuning)
        self.check_others_unchanged(dets, drives, -self.MODEL.detuning,
                                    drives[-1], UNSTABLE)

    def test_fault_row(self):
        """A NaN drive makes the stacked eigensolver raise; the row is
        retried alone and faults, and the other rows keep their values."""
        drives = self.drives()
        dets = np.full(drives.shape, self.MODEL.detuning)
        mixed, k = self.check_others_unchanged(dets, drives, self.MODEL.detuning,
                                               np.nan, FAULT)
        assert mixed.reasons[k].startswith("eigenvalue solver failed")
        assert np.isnan(mixed.linear.eigenvalues[k]).all()
        assert np.isnan(mixed.V[k]).all()

    def test_small_pair_sum_row(self):
        drives = self.drives()
        dets = np.full(drives.shape, self.MODEL.detuning)
        mixed, k = self.check_others_unchanged(dets, drives,
                                               self.MODEL.detuning, 0.0, OK)
        # the undriven sphere sits in its bath: V22 = n2 + 1/2
        assert mixed.V[k, 4, 4] == pytest.approx(self.MODEL.n2 + 0.5, rel=1e-6)

    @pytest.mark.parametrize("inv_raises", [False, True])
    def test_defective_row(self, monkeypatch, inv_raises):
        """A drift whose decoupled sphere block is a Jordan block (eigenvalue
        -1/2 twice, one eigenvector) has an eigenvector matrix that is
        singular up to roundoff.  Stacked between ordinary rows, it meets
        the contract or faults on it, both when inverting that matrix
        blows up (as it does here) and when it raises (forced, as LAPACK
        does on an exactly zero pivot); the other rows keep their values."""
        m = self.MODEL
        check_defective_row(monkeypatch, solve_points(m, m.detuning, self.drives()),
                            inv_raises)

    def test_rows_over_the_contract(self, monkeypatch):
        """Tightening the contract below the worst row's residual sends
        that row to the fallback (and here to a fault) without touching
        the rows that still meet it."""
        m = self.MODEL
        drives = self.drives()
        dets = np.full(drives.shape, m.detuning)
        base = solve_points(m, dets, drives)
        A, V, D = base.linear.drift, base.V, base.linear.diffusion
        AV = A @ V
        residual = np.abs(AV + AV.transpose(0, 2, 1) + D).max(axis=(1, 2)) / np.abs(D).max()
        worst = int(np.argmax(residual))
        below = np.sort(residual)[-2]
        # the kernel checks this same residual of the V it returns
        assert residual[worst] > 1.1 * below > 0
        monkeypatch.setattr(linear, "RESIDUAL_REL", np.sqrt(residual[worst] * below))
        monkeypatch.setattr(linear, "lyapunov_direct",
                            lambda A, D: np.full(A.shape, np.nan))
        tight = solve_points(m, dets, drives)
        assert tight.status[worst] == FAULT
        assert "exceeds contract" in tight.reasons[worst]
        assert np.isnan(tight.V[worst]).all()
        others = np.delete(np.arange(len(drives)), worst)
        assert np.all(tight.status[others] == OK)
        assert np.array_equal(tight.V[others], base.V[others])


def eig_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("forced failure")


class TestOneStatusMap:
    """Every one-row entry point gives the verdict `PointBatch.row` gives."""

    @staticmethod
    def outcome(call, *args):
        """(error type, message) that `call` raises, or (None, result)."""
        try:
            return None, call(*args)
        except (UnstableSystemError, DegenerateTrapError, NumericalError) as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("case, detuning, watts, status", [
        ("stable", -27.2, 2e-3, OK),
        ("blue-detuned", 27.2, 2e-3, UNSTABLE),
        ("inverted trap", -27.2, 1e3, DEGENERATE),
        ("solver failure", -27.2, 2e-3, FAULT),
    ])
    def test_entry_points_agree(self, monkeypatch, case, detuning, watts, status):
        m = replace(fig3_model(), detuning=detuning,
                    drive=drive_from_watts(reference_params(), watts))
        if status == FAULT:
            monkeypatch.setattr(np.linalg, "eig", eig_fails)
        batch = solve_points(m, m.detuning, m.drive)
        assert batch.status[0] == status
        error, message = self.outcome(batch.row, 0)
        assert error is {OK: None, UNSTABLE: UnstableSystemError,
                         DEGENERATE: DegenerateTrapError,
                         FAULT: NumericalError}[status]
        if status == FAULT:
            assert message == "eigenvalue solver failed: forced failure"
        point = self.outcome(solve_point, m)
        assert point[0] is error
        if error is not None:
            assert point[1] == message
        if status == FAULT:  # a fault never reads as unstable
            with pytest.raises(NumericalError, match="forced failure"):
                is_stable(m)
        else:
            assert is_stable(m) == (status == OK)
        if status == DEGENERATE:  # no fixed point, so no linear model
            with pytest.raises(DegenerateTrapError):
                fixed_point(m)
            return
        A, D = batch.linear.drift[0], batch.linear.diffusion[0]
        assert self.outcome(linear.solve_lyapunov, A, D)[:1] == (error,)
        if status == FAULT:
            for call, args in ((linear.linear_model, (m, fixed_point(m))),
                               (linear.stability, (A,)),
                               (batch.linear.model, (0,))):
                assert self.outcome(call, *args) == (NumericalError, message)
            return
        lm = linear.linear_model(m, fixed_point(m))
        assert lm.stable == (status == OK)
        assert linear.stability(A)[0] == lm.stable
        got = self.outcome(linear.solve_lyapunov, A, D)
        assert got[0] is error
        if error is not None:
            assert got[1] == message

    def test_contract_fault_is_not_a_stability_verdict(self, monkeypatch):
        """A row whose covariance misses the residual contract faults in
        every covariance entry point; its spectrum is still stable."""
        m = replace(fig3_model(), drive=drive_from_watts(reference_params(), 2e-3))
        monkeypatch.setattr(linear, "RESIDUAL_REL", 0.0)
        monkeypatch.setattr(linear, "lyapunov_direct",
                            lambda A, D: np.full(A.shape, np.nan))
        batch = solve_points(m, m.detuning, m.drive)
        assert batch.status[0] == FAULT
        lm = linear.linear_model(m, fixed_point(m))
        for call, args in ((batch.row, (0,)), (solve_point, (m,)),
                           (linear.solve_lyapunov, (lm.drift, lm.diffusion))):
            with pytest.raises(NumericalError, match="exceeds contract"):
                call(*args)
        assert lm.stable and is_stable(m)


class TestOneEigendecompositionPerPoint:
    def test_solve_point_makes_one_eigen_solve(self, monkeypatch):
        calls = []
        for name in ("eig", "eigvals"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        m = replace(fig3_model(),
                    drive=drive_from_watts(reference_params(), 2e-3))
        _, _, cov = solve_point(m)
        assert np.isfinite(cov.n2)
        assert calls == ["eig"]

    def test_stability_uses_the_same_decomposition(self, model_draws_100):
        """The public verdict and spectrum equal those of `linear_model`."""
        for _, _, lm in model_draws_100[:20]:
            stable, lam = linear.stability(lm.drift)
            assert stable == lm.stable
            assert np.array_equal(lam, lm.eigenvalues)


def fig2_cell(omega2, omega1=10.0):
    """ModelParams of one fig2 landscape cell, as `occupation_landscape`
    derives it."""
    base = fig2_protocol()["base"]
    kappa = base.cavity_decay
    return nondimensionalize(replace(base, mirror_freq=omega1 * kappa,
                                     sphere_freq=omega2 * kappa), detuning=-1.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestMixedCellRows:
    """One stack holds rows of different cells through per-row parameters;
    each row is the row solved alone with its own cell's ModelParams."""

    # a chi whose square by glibc's pow differs from the product in the
    # last bit, so that a scalar `** 2` in the kernel would show
    ODD_CHI = 0.017912785229308496
    CELLS = (fig2_cell(2.0), fig2_cell(3.4), fig2_cell(6.5),
             replace(fig2_cell(8.0), gamma2=3e-7, chi=ODD_CHI))
    # (effective detuning, drive): stable, stable, blue-detuned, inverted trap
    POINTS = ((-27.2, 1e9), (-40.0, 1e11), (27.2, 1e10), (-27.2, 1e16))

    def mixed(self, points):
        """Rows interleaved from every cell: (cells, detunings, drives)."""
        cells, dets, drives = [], [], []
        for det, drive in points:
            for c in range(len(self.CELLS)):
                cells.append(c)
                dets.append(det)
                drives.append(drive)
        return cells, np.array(dets), np.array(drives)

    def test_each_row_bit_identical_to_its_cell_alone(self):
        cells, dets, drives = self.mixed(self.POINTS)
        batch = solve_points(_RowParams.stack([self.CELLS[c] for c in cells]),
                             dets, drives)
        assert batch.linear.diffusion.shape == (len(cells), 6, 6)
        seen = set()
        for i, c in enumerate(cells):
            m = self.CELLS[c]
            alone = solve_points(m, dets[i], drives[i])
            for name in ("delta_eff", "drive", "photon_number", "x1_bar",
                         "x2_bar", "Omega1", "Omega2", "degenerate"):
                assert same_bits(getattr(batch.states, name)[i],
                                 getattr(alone.states, name)[0]), name
            assert same_bits(batch.linear.drift[i], alone.linear.drift[0])
            assert same_bits(batch.linear.diffusion[i], alone.linear.diffusion[0])
            assert same_bits(batch.linear.diffusion[i], linear.diffusion_matrix(m))
            assert same_bits(batch.linear.eigenvalues[i], alone.linear.eigenvalues[0])
            assert same_bits(batch.linear.eigenvectors[i], alone.linear.eigenvectors[0])
            assert same_bits(batch.V[i], alone.V[0])
            assert batch.status[i] == alone.status[0]
            assert batch.reasons.get(i) == alone.reasons.get(0)
            seen.add(int(batch.status[i]))
        assert {OK, UNSTABLE, DEGENERATE} <= seen
        # the rows of one cell are that cell's stack
        for c, m in enumerate(self.CELLS):
            rows = [i for i, ci in enumerate(cells) if ci == c]
            own = solve_points(m, dets[rows], drives[rows])
            assert same_bits(batch.V[rows], own.V)
            assert same_bits(batch.status[rows], own.status)

    def test_cells_differ(self):
        """The cells give the stack different couplings and baths; the fig2
        cells share the sphere damping, so the fourth cell changes it."""
        rows = _RowParams.stack(self.CELLS)
        for name in ("omega2", "g2", "chi", "n2"):
            assert len(set(getattr(rows, name).tolist())) == len(self.CELLS), name
        assert len(set(rows.gamma2.tolist())) == 2

    @pytest.mark.parametrize("inv_raises", [False, True])
    def test_defective_row(self, monkeypatch, inv_raises):
        """The defective-row case of `TestRowIndependence` inside a stack of
        stable rows from every cell, with one D per row."""
        cells, dets, drives = self.mixed(self.POINTS[:2])
        base = solve_points(_RowParams.stack([self.CELLS[c] for c in cells]),
                            dets, drives)
        assert np.all(base.status == OK)
        check_defective_row(monkeypatch, base, inv_raises)
