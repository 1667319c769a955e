import numpy as np
import pytest

import occusid as oc
from occusid import sysid
from occusid.errors import IterationLimitError
from occusid.trajectory import Trajectory


def constant_traj(c, n=11, h=0.1):
    return Trajectory(np.tile(np.asarray(c, dtype=float), (n, 1)), h)


def basis_1d():
    return oc.BasisSet(dim=1, functions=(lambda X: X,), labels=("x1",))


def exp_traj(F, x0=1.0):
    h = 1.0 / F
    t = np.arange(F + 1) * h
    return Trajectory((x0 * np.exp(t))[:, None], h)


class TestConstraintSystem:
    def test_row_index_layout(self):
        s = oc.ConstraintSystem(np.zeros((6, 2)), np.zeros(6), 2, 3)
        assert s.row_index(0, 0) == 0
        assert s.row_index(0, 2) == 2
        assert s.row_index(1, 0) == 3
        assert s.n_parameters == 2
        with pytest.raises(IndexError):
            s.row_index(2, 0)
        with pytest.raises(IndexError):
            s.row_index(0, 3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            oc.ConstraintSystem(np.zeros((5, 2)), np.zeros(6), 2, 3)
        with pytest.raises(ValueError):
            oc.ConstraintSystem(np.zeros((6, 2)), np.zeros(6), 2, 2)
        with pytest.raises(ValueError):
            oc.ConstraintSystem(np.zeros((6,)), np.zeros(6), 2, 3)

    def test_rejects_nonfinite(self):
        A = np.zeros((2, 1))
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            oc.ConstraintSystem(A, np.zeros(2), 1, 2)

    def test_labels_must_align(self):
        with pytest.raises(ValueError):
            oc.ConstraintSystem(np.zeros((2, 2)), np.zeros(2), 1, 2, labels=("a",))

    def test_arrays_read_only(self):
        s = oc.ConstraintSystem(np.ones((2, 1)), np.ones(2), 1, 2)
        with pytest.raises(ValueError):
            s.A[0, 0] = 5.0

    def test_save_csv(self, tmp_path):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = oc.ConstraintSystem(A, np.array([5.0, 6.0]), 1, 2, labels=("u", "v"))
        path = tmp_path / "small.csv"
        s.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,u,v,b"
        assert lines[1].startswith("traj0:center0,1,2,5")
        assert lines[2].startswith("traj0:center1,3,4,6")

        # 2 trajectories x 3 centers; every cell is %.17g text that parses back
        # to the stored bits
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 2)) * 10.0 ** rng.integers(-300, 300, size=(6, 2))
        b = rng.normal(size=6)
        A.flat[:6] = [-0.0, 5e-324, 1e-310, 1e300, -1e300, 0.1]
        b[:3] = [-0.0, -5e-324, 1e-300]
        s = oc.ConstraintSystem(A, b, 2, 3, labels=("u", "v"))
        path = tmp_path / "sys.csv"
        s.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row,u,v,b"
        assert len(lines) == 7
        for j in range(2):
            for c in range(3):
                line = lines[1 + s.row_index(j, c)]
                stored = np.append(s.A[s.row_index(j, c)], s.b[s.row_index(j, c)])
                assert line == f"traj{j}:center{c}," + ",".join(f"{v:.17g}" for v in stored)
                back = np.array([float(v) for v in line.split(",")[1:]])
                assert back.tobytes() == stored.tobytes()


class TestAssembleOracle:
    # On a constant trajectory every integrand is constant, so each row of A
    # must equal T * grad1(c, c_s) . Y_i(c) and b must reduce to the known-part
    # offset alone (the endpoint difference vanishes).
    @pytest.mark.parametrize("rule", ["right_hand", "trapezoid", "simpson"])
    def test_constant_trajectory_rows(self, rule):
        c = np.array([0.4, -0.7])
        tr = constant_traj(c)
        centers = np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.5]])
        kern = oc.gaussian_rbf(3.0)
        basis = oc.BasisSet(
            dim=2,
            functions=(lambda X: X, lambda X: X**2),
            labels=("x", "x^2"),
        )
        s = oc.assemble([tr], centers, basis, kern, rule)
        T = tr.duration
        Y = [c, c**2]
        for idx, cs in enumerate(centers):
            g = kern.grad1(c, cs)
            for i in range(2):
                assert s.A[idx, i] == pytest.approx(T * g @ Y[i], rel=1e-12)
            assert s.b[idx] == pytest.approx(0.0, abs=1e-14)

    def test_constant_trajectory_known_part_offset(self):
        c = np.array([0.4, -0.7])
        h_known = np.array([0.3, -1.1])
        tr = constant_traj(c)
        centers = np.array([[1.0, -1.0]])
        kern = oc.gaussian_rbf(3.0)
        basis = oc.BasisSet(
            dim=2,
            functions=(lambda X: X,),
            labels=("x",),
            known_part=lambda X: np.tile(h_known, (X.shape[0], 1)),
        )
        s = oc.assemble([tr], centers, basis, kern, "trapezoid")
        expect = -tr.duration * kern.grad1(c, centers[0]) @ h_known
        assert s.b[0] == pytest.approx(expect, rel=1e-12)

    def test_multi_matches_single(self, system1, system1_trajs_coarse, system1_centers, gauss10):
        _, _, basis = system1
        trajs = system1_trajs_coarse[:3]
        multi = oc.assemble_multi(trajs, system1_centers, basis, gauss10,
                                  ["right_hand", "simpson"])
        single = oc.assemble(trajs, system1_centers, basis, gauss10, "simpson")
        assert np.array_equal(multi[1].A, single.A)
        assert np.array_equal(multi[1].b, single.b)
        # system1 has no known part, so b is the endpoint difference for every
        # rule; only A carries the quadrature choice.
        assert np.array_equal(multi[0].b, multi[1].b)
        assert not np.allclose(multi[0].A, multi[1].A)

    def test_trajectory_blocks_stack_in_order(self, system1, system1_centers, gauss10,
                                              system1_trajs_coarse):
        _, _, basis = system1
        both = oc.assemble(system1_trajs_coarse[:2], system1_centers, basis, gauss10, "simpson")
        first = oc.assemble(system1_trajs_coarse[:1], system1_centers, basis, gauss10, "simpson")
        S = system1_centers.shape[0]
        assert np.array_equal(both.A[:S], first.A)
        assert np.array_equal(both.b[:S], first.b)

    def test_dim_mismatch(self, gauss10):
        basis = basis_1d()
        tr = constant_traj([0.0, 0.0])
        with pytest.raises(ValueError):
            oc.assemble([tr], np.zeros((1, 2)), basis, gauss10, "simpson")


class TestSolvePinv:
    def test_identity_system(self):
        s = oc.ConstraintSystem(np.eye(3), np.array([1.0, -2.0, 3.0]), 1, 3)
        r = oc.solve_pinv(s)
        assert np.allclose(r.theta_hat, [1.0, -2.0, 3.0])
        assert r.effective_rank == 3
        assert not r.rank_deficient
        assert r.residual_norm == pytest.approx(0.0, abs=1e-14)

    def test_duplicate_columns_take_min_norm(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        s = oc.ConstraintSystem(A, np.array([2.0, 4.0]), 1, 2)
        r = oc.solve_pinv(s)
        assert np.allclose(r.theta_hat, [1.0, 1.0])
        assert r.rank_deficient
        assert r.effective_rank == 1

    def test_zero_system_degenerate(self):
        s = oc.ConstraintSystem(np.zeros((2, 2)), np.ones(2), 1, 2)
        r = oc.solve_pinv(s)
        assert r.degenerate
        assert np.allclose(r.theta_hat, 0.0)
        assert r.effective_rank == 0

    def test_condition_number(self):
        s = oc.ConstraintSystem(np.diag([4.0, 1.0]), np.ones(2), 1, 2)
        r = oc.solve_pinv(s)
        assert r.condition_number == pytest.approx(4.0, rel=1e-12)


class TestSolveRidge:
    def test_identity_shrinkage(self):
        s = oc.ConstraintSystem(np.eye(2), np.array([2.0, 2.0]), 1, 2)
        r = oc.solve_ridge(s, lam=1.0)
        assert np.allclose(r.theta_hat, [1.0, 1.0])

    def test_zero_lambda_matches_pinv(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(8, 3))
        b = rng.normal(size=8)
        s = oc.ConstraintSystem(A, b, 2, 4)
        assert np.allclose(oc.solve_ridge(s, 0.0).theta_hat,
                           oc.solve_pinv(s).theta_hat, atol=1e-12)

    def test_negative_lambda_rejected(self):
        s = oc.ConstraintSystem(np.eye(2), np.ones(2), 1, 2)
        for lam in (-0.5, np.nan):  # NaN fails every comparison, so it is named too
            with pytest.raises(ValueError, match="lambda"):
                oc.solve_ridge(s, lam)

    def test_rank_uses_rcond(self):
        s = oc.ConstraintSystem(np.diag([1.0, 1e-8]), np.ones(2), 1, 2)
        ridge = oc.solve_ridge(s, 0.0, rcond=1e-6)
        assert ridge.effective_rank == oc.solve_pinv(s, rcond=1e-6).effective_rank == 1
        assert ridge.condition_number == 1.0
        assert oc.solve_ridge(s, 0.0, rcond=1e-12).effective_rank == 2


class TestRankRule:
    # One rank rule (cut at rcond * sigma_max) behind the pinv, ridge and
    # Gram solvers and the diagnostics report.
    @staticmethod
    def _reports(A, rcond):
        sys = oc.ConstraintSystem(A, np.ones(3), n_trajectories=1, n_centers=3)
        g = oc.GramSystem(A, np.ones(3), 0.0, n_trajectories=1)
        out = [(r.effective_rank, r.condition_number) for r in (
            oc.solve_pinv(sys, rcond=rcond),
            oc.solve_ridge(sys, 0.0, rcond=rcond),
            oc.gram_solve(g, rcond=rcond),
        )]
        d = oc.diagnostics(sys, rcond=rcond)
        return out + [(d.rank, d.condition_number)]

    @pytest.mark.parametrize("rcond, rank, cond", [(1e-12, 2, 1e6), (1e-5, 1, 1.0)])
    def test_all_agree(self, rcond, rank, cond):
        for got_rank, got_cond in self._reports(np.diag([1.0, 1e-6, 1e-13]), rcond):
            assert got_rank == rank
            assert got_cond == pytest.approx(cond, rel=1e-12)

    def test_zero_matrix(self):
        assert self._reports(np.zeros((3, 3)), 1e-12) == [(0, np.inf)] * 4

    def test_negative_rcond_rejected_everywhere(self):
        sys = oc.ConstraintSystem(np.eye(3), np.ones(3), n_trajectories=1, n_centers=3)
        for rcond in (-1.0, np.nan):
            for call in (lambda: oc.solve_pinv(sys, rcond=rcond),
                         lambda: oc.solve_ridge(sys, 0.1, rcond=rcond),
                         lambda: oc.diagnostics(sys, rcond=rcond),
                         lambda: oc.solve_sparse(sys, 1e-3, 0.0, rcond=rcond)):
                with pytest.raises(ValueError, match="rcond"):
                    call()


class TestSolveSparse:
    @pytest.mark.parametrize("lam, threshold, name", [
        (-1.0, 0.1, "lambda"), (np.nan, 0.1, "lambda"),
        (0.1, -1.0, "threshold"), (0.1, np.nan, "threshold")])
    def test_negative_or_nan_setting_rejected(self, lam, threshold, name):
        with pytest.raises(ValueError, match=name):
            oc.solve_sparse(oc.ConstraintSystem(np.eye(2), np.ones(2), 1, 2), lam, threshold)

    def test_fractional_max_refits_rejected(self):
        with pytest.raises(ValueError, match="^max_refits must be an integer >= 1, got 2.5$"):
            oc.solve_sparse(oc.ConstraintSystem(np.eye(2), np.ones(2), 1, 2), 0.1, 0.0,
                            max_refits=2.5)

    def test_the_refit_cap_reports_the_support_theta_was_fit_on(self):
        # col 2 nearly repeats col 1: the lasso keeps [0, 1, 2], and the one refit
        # puts theta[2] = 0.059 below the threshold, which only a second refit drops
        rng = np.random.default_rng(9)
        A = rng.normal(size=(30, 6))
        A[:, 2] = A[:, 1] + 0.3 * rng.normal(size=30)
        b = A @ np.array([1.0, 0.5, 0.08, 0.04, 0.0, 0.0]) + 0.05 * rng.normal(size=30)
        sys = oc.ConstraintSystem(A, b, 1, 30)
        r = oc.solve_sparse(sys, lam=0.0, threshold=0.07, max_refits=1)
        assert r.support.tolist() == np.flatnonzero(r.theta_hat).tolist() == [0, 1, 2]
        fit = oc.solve_pinv(oc.ConstraintSystem(A[:, :3], b, 1, 30))
        assert np.array_equal(r.theta_hat[:3], fit.theta_hat)
        assert (r.effective_rank, r.condition_number) == (3, fit.condition_number)
        # the second refit drops it, and refits on [0, 1]
        assert oc.solve_sparse(sys, 0.0, 0.07, max_refits=2).support.tolist() == [0, 1]

    def test_orthonormal_soft_threshold(self):
        # With A = I the lasso stage is exact soft-thresholding of b; entries
        # surviving |.| >= threshold are then refit without penalty.
        b = np.array([3.0, 0.05, -2.0, 0.0])
        s = oc.ConstraintSystem(np.eye(4), b, 1, 4)
        r = oc.solve_sparse(s, lam=0.1, threshold=0.5)
        assert np.allclose(r.theta_hat, [3.0, 0.0, -2.0, 0.0])
        assert set(r.support.tolist()) == {0, 2}

    def test_threshold_zero_lambda_zero_matches_pinv(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(10, 4))
        b = rng.normal(size=10)
        s = oc.ConstraintSystem(A, b, 2, 5)
        r = oc.solve_sparse(s, lam=0.0, threshold=0.0)
        assert np.allclose(r.theta_hat, oc.solve_pinv(s).theta_hat, atol=1e-8)

    def test_everything_pruned_is_degenerate(self):
        s = oc.ConstraintSystem(np.eye(2), np.array([0.1, -0.2]), 1, 2)
        r = oc.solve_sparse(s, lam=0.05, threshold=10.0)
        assert r.degenerate
        assert np.allclose(r.theta_hat, 0.0)
        assert r.support.size == 0

    @pytest.mark.parametrize("rcond", [-1.0, np.nan])
    def test_bad_rcond_rejected_when_the_support_empties(self, rcond):
        # the threshold empties the support, so no refit ever reads rcond
        s = oc.ConstraintSystem(np.eye(2), np.array([0.1, -0.2]), 1, 2)
        with pytest.raises(ValueError, match=f"^rcond must be >= 0, got {rcond}$"):
            oc.solve_sparse(s, lam=0.05, threshold=10.0, rcond=rcond)

    def test_zero_column_rejected(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])
        s = oc.ConstraintSystem(A, np.ones(2), 1, 2)
        with pytest.raises(ValueError, match="zero"):
            oc.solve_sparse(s, lam=0.1, threshold=0.1)

    def test_support_recovery_with_decoys(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(40, 6))
        theta = np.array([1.5, 0.0, 0.0, -2.0, 0.0, 0.0])
        s = oc.ConstraintSystem(A, A @ theta, 4, 10)
        r = oc.solve_sparse(s, lam=1e-4, threshold=0.1)
        assert set(r.support.tolist()) == {0, 3}
        assert np.allclose(r.theta_hat, theta, atol=1e-8)

    def test_refit_drops_a_term_below_threshold(self, monkeypatch):
        # b = a0 + a1 and a2 = (a0 + a1 + e2) / sqrt(3): the lasso keeps all
        # three columns above the threshold, the unpenalized refit puts 0 on
        # a2, and the second refit runs on the two columns left
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        A[:, 2] /= np.sqrt(3.0)
        b = np.array([1.0, 1.0, 0.0])
        assert (sysid._lasso_cd(A, b, 0.4, np.ones(3)) >= 0.05).all()
        widths = []
        real = sysid._svd_solve

        def spy(A, b, rcond):
            widths.append(A.shape[1])
            return real(A, b, rcond)

        monkeypatch.setattr(sysid, "_svd_solve", spy)
        r = oc.solve_sparse(oc.ConstraintSystem(A, b, 1, 3), lam=0.4, threshold=0.05)
        assert widths == [3, 2]
        assert r.support.tolist() == [0, 1]
        assert r.theta_hat[2] == 0.0
        assert np.allclose(r.theta_hat, [1.0, 1.0, 0.0], atol=1e-12)

    def test_sweep_cap_reports_last_iterate_in_parameter_units(self, monkeypatch):
        # orthogonal columns: one sweep soft-thresholds A_std^T b = b, and a
        # cap of one sweep stops there; last_iterate divides by the column norms
        monkeypatch.setattr(sysid, "CD_MAX_SWEEPS", 1)
        s = oc.ConstraintSystem(np.diag([2.0, 0.5, 4.0]), np.array([1.0, -3.0, 0.2]), 1, 3)
        with pytest.raises(IterationLimitError, match="in 1 sweeps") as exc:
            oc.solve_sparse(s, lam=0.5, threshold=0.1)
        np.testing.assert_array_equal(exc.value.last_iterate, [0.25, -5.0, 0.0])


class TestIls:
    def test_constant_trajectory_oracle(self):
        c = np.array([0.5, -1.5])
        tr = constant_traj(c)
        basis = oc.BasisSet(
            dim=2,
            functions=(lambda X: X, lambda X: X**2),
            labels=("x", "x^2"),
            known_part=lambda X: np.tile([0.2, 0.0], (X.shape[0], 1)),
        )
        s = oc.ils_assemble([tr], basis, "trapezoid")
        T = tr.duration
        assert s.A.shape == (2, 2)
        assert np.allclose(s.A[:, 0], T * c)
        assert np.allclose(s.A[:, 1], T * c**2)
        # gamma(T) - gamma(0) = 0, so b carries the known part alone
        assert np.allclose(s.b, -T * np.array([0.2, 0.0]))

    def test_rows_per_trajectory(self, system1, system1_trajs_coarse):
        _, _, basis = system1
        s = oc.ils_assemble(system1_trajs_coarse[:4], basis, "simpson")
        assert s.A.shape == (4 * 2, len(basis))
        assert s.n_trajectories == 4
        assert s.n_centers == 2

    def test_exact_exponential_recovery(self):
        basis = oc.BasisSet(
            dim=1, functions=(lambda X: X, lambda X: X**2), labels=("x1", "x1^2")
        )
        trajs = [exp_traj(100, x0=0.5), exp_traj(100, x0=1.0)]
        r = oc.ils_solve(trajs, basis, "simpson")
        assert np.abs(r.theta_hat - [1.0, 0.0]).max() < 1e-9


class TestDiagnostics:
    def test_known_matrix(self):
        A = np.diag([3.0, 1.0])
        s = oc.ConstraintSystem(A, np.ones(2), 1, 2)
        d = oc.diagnostics(s)
        assert d.condition_number == pytest.approx(3.0)
        assert np.allclose(d.column_norms, [3.0, 1.0])
        assert d.rank == 2

    def test_kernel_choice_drives_conditioning(self, system1, system1_trajs_coarse,
                                               system1_centers):
        # The sharper exponential-dot-product kernel yields a noticeably worse
        # conditioned system than the gaussian on the same data.
        _, _, basis = system1
        trajs = system1_trajs_coarse[:5]
        s_g = oc.assemble(trajs, system1_centers, basis, oc.gaussian_rbf(10.0), "simpson")
        s_e = oc.assemble(trajs, system1_centers, basis, oc.exp_dot(1.0 / 25), "simpson")
        assert (oc.diagnostics(s_e).condition_number
                > oc.diagnostics(s_g).condition_number)


class TestResidualScaling:
    # On exact samples of xdot = x the residual A theta_true - b is pure
    # quadrature error and must shrink at the rule's order.
    @pytest.mark.parametrize(
        "rule,order", [("right_hand", 1.0), ("trapezoid", 2.0), ("simpson", 4.0)]
    )
    def test_residual_slope_at_rule_order(self, rule, order):
        basis = basis_1d()
        centers = np.array([[0.5], [1.5], [2.5]])
        kern = oc.gaussian_rbf(2.0)
        theta = np.array([1.0])
        pairs = []
        for F in [10, 20, 40, 80]:
            s = oc.assemble([exp_traj(F)], centers, basis, kern, rule)
            pairs.append((1.0 / F, np.abs(s.A @ theta - s.b).max()))
        assert oc.empirical_order(pairs) >= order - 0.3

    def test_noise_scales_error(self, system1, system1_trajs_coarse, system1_centers, gauss10):
        _, theta_true, basis = system1
        trajs = system1_trajs_coarse[:5]
        errs = {}
        for sigma in (0.01, 0.1):
            noisy = [oc.add_measurement_noise(tr, sigma, seed=100 + j)
                     for j, tr in enumerate(trajs)]
            s = oc.assemble(noisy, system1_centers, basis, gauss10, "simpson")
            errs[sigma] = np.abs(oc.solve_pinv(s).theta_hat - theta_true).max()
        assert errs[0.1] > 3.0 * errs[0.01]
