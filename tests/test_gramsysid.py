import warnings

import numpy as np
import pytest

import occusid as oc
from occusid.errors import DivergenceError, UnsupportedKernelError
from occusid.trajectory import Trajectory


@pytest.fixture(scope="module")
def pair():
    field, theta_true, basis = oc.builtin_system("system1")
    t1 = oc.integrate_rk4(field, np.array([0.25, -2.0]), 1.0, 1e-2)
    t2 = oc.integrate_rk4(field, np.array([-0.25, -1.75]), 1.0, 1e-2)
    return basis, t1, t2


class TestGramSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            oc.GramSystem(np.zeros((2, 3)), np.zeros(2), 0.0, 1)
        with pytest.raises(ValueError):
            oc.GramSystem(np.zeros((2, 2)), np.zeros(3), 0.0, 1)
        G = np.eye(2)
        G[0, 0] = np.inf
        with pytest.raises(ValueError):
            oc.GramSystem(G, np.zeros(2), 0.0, 1)

    def test_arrays_read_only(self):
        g = oc.GramSystem(np.eye(2), np.zeros(2), 0.0, 1)
        with pytest.raises(ValueError):
            g.G[0, 0] = 2.0

    def test_n_parameters(self):
        assert oc.GramSystem(np.eye(3), np.zeros(3), 0.0, 1).n_parameters == 3


class TestGramAssemble:
    def test_kernel_overflow_raises_divergence(self, pair):
        basis, t1, _ = pair
        big = Trajectory(30.0 * t1.samples, t1.step)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"exp_dot with mu=2"):
                oc.gram_assemble([big], basis, oc.exp_dot(2.0), "simpson")

    def test_symmetric_bitwise(self, pair):
        basis, t1, _ = pair
        g = oc.gram_assemble([t1], basis, oc.gaussian_rbf(10.0), "simpson")
        assert np.array_equal(g.G, g.G.T)

    def test_positive_semidefinite(self, pair):
        basis, t1, _ = pair
        g = oc.gram_assemble([t1], basis, oc.gaussian_rbf(10.0), "simpson")
        ev = np.linalg.eigvalsh(g.G)
        assert ev.min() >= -1e-10 * ev.max()

    def test_disjoint_coordinates_are_orthogonal(self):
        # On a constant trajectory the mixed-derivative form of the gaussian
        # is diagonal, so basis functions feeding different coordinates have
        # an exactly zero inner product.
        tr = Trajectory(np.tile([0.3, -0.4], (11, 1)), 0.1)
        basis = oc.BasisSet(
            dim=2,
            functions=(
                lambda X: np.stack([X[:, 0], np.zeros(len(X))], axis=1),
                lambda X: np.stack([np.zeros(len(X)), X[:, 1]], axis=1),
            ),
            labels=("a", "b"),
        )
        g = oc.gram_assemble([tr], basis, oc.gaussian_rbf(2.0), "trapezoid")
        assert g.G[0, 1] == 0.0
        assert g.G[0, 0] > 0.0

    def test_trajectories_sum(self, pair):
        basis, t1, t2 = pair
        kern = oc.gaussian_rbf(10.0)
        ga = oc.gram_assemble([t1], basis, kern, "simpson")
        gc = oc.gram_assemble([t2], basis, kern, "simpson")
        gb = oc.gram_assemble([t1, t2], basis, kern, "simpson")
        assert np.allclose(gb.G, ga.G + gc.G, atol=1e-14)
        assert np.allclose(gb.r, ga.r + gc.r, atol=1e-14)
        assert gb.target_norm_sq == pytest.approx(ga.target_norm_sq + gc.target_norm_sq)
        assert gb.n_trajectories == 2

    def test_dim_mismatch(self, pair):
        basis, t1, _ = pair
        bad = oc.BasisSet(dim=3, functions=(lambda X: X,), labels=("x",))
        with pytest.raises(ValueError):
            oc.gram_assemble([t1], bad, oc.gaussian_rbf(10.0), "simpson")

    def test_linear_kernel_unsupported(self, pair):
        basis, t1, _ = pair
        with pytest.raises(UnsupportedKernelError):
            oc.gram_assemble([t1], basis, oc.linear(), "simpson")


@pytest.fixture(scope="module")
def parts(pair):
    basis, t1, _ = pair
    centers = oc.lattice_centers([(-1, 1), (-3, -1)], 1.0)
    base = oc.gaussian_rbf(10.0)
    fk = oc.FeatureMapKernel(base, centers)
    g = oc.gram_assemble([t1], basis, fk, "simpson")
    s = oc.assemble([t1], centers, basis, base, "simpson")
    return g, s


class TestFeatureFactorization:
    # With a finite-feature kernel the Gram system is exactly the normal
    # equations of the direct constraint system built from the base kernel at
    # the same centers and rule.
    def test_normal_equations(self, parts):
        g, s = parts
        relG = np.abs(g.G - s.A.T @ s.A).max() / np.abs(g.G).max()
        relr = np.abs(g.r - s.A.T @ s.b).max() / np.abs(g.r).max()
        assert relG < 1e-12
        assert relr < 1e-12
        assert g.target_norm_sq == pytest.approx(s.b @ s.b, rel=1e-12)

    def test_solutions_agree(self, parts):
        g, s = parts
        th_g = oc.gram_solve(g).theta_hat
        th_p = oc.solve_pinv(s).theta_hat
        assert np.abs(th_g - th_p).max() < 1e-5

    def test_residual_quadratic_matches_direct(self, parts):
        g, s = parts
        theta = oc.gram_solve(g).theta_hat
        rq = oc.residual_quadratic(g, theta)
        direct = float(np.sum((s.A @ theta - s.b) ** 2))
        assert abs(rq - direct) < 1e-12


class TestGramSolve:
    def test_recovers_synthetic(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(20, 4))
        G = B.T @ B + np.eye(4)
        theta = np.array([1.0, -2.0, 0.5, 3.0])
        g = oc.GramSystem(G, G @ theta, float(theta @ G @ theta), 1)
        r = oc.gram_solve(g)
        assert np.abs(r.theta_hat - theta).max() < 1e-10
        assert not r.rank_deficient

    def test_rcond_validation(self):
        g = oc.GramSystem(np.eye(2), np.zeros(2), 0.0, 1)
        with pytest.raises(ValueError):
            oc.gram_solve(g, rcond=-1.0)


class TestResidualQuadratic:
    def test_value_at_zero_is_constant_term(self, pair):
        basis, t1, _ = pair
        g = oc.gram_assemble([t1], basis, oc.gaussian_rbf(10.0), "simpson")
        assert oc.residual_quadratic(g, np.zeros(g.n_parameters)) == g.target_norm_sq

    def test_decreases_toward_solution(self, pair):
        basis, t1, _ = pair
        g = oc.gram_assemble([t1], basis, oc.gaussian_rbf(10.0), "simpson")
        theta = oc.gram_solve(g).theta_hat
        at_hat = oc.residual_quadratic(g, theta)
        assert g.target_norm_sq > oc.residual_quadratic(g, 0.5 * theta) > at_hat
        assert at_hat < 1e-8

    def test_exact_zero_for_consistent_synthetic(self):
        G = np.diag([2.0, 5.0])
        theta = np.array([1.0, -1.0])
        g = oc.GramSystem(G, G @ theta, float(theta @ G @ theta), 1)
        assert oc.residual_quadratic(g, theta) == pytest.approx(0.0, abs=1e-14)

    def test_shape_check(self):
        g = oc.GramSystem(np.eye(2), np.zeros(2), 0.0, 1)
        with pytest.raises(ValueError):
            oc.residual_quadratic(g, np.zeros(3))


class TestStacked:
    def test_blocks_are_per_trajectory_gram_systems(self, pair):
        basis, t1, t2 = pair
        kern = oc.gaussian_rbf(10.0)
        st = oc.gram_assemble_stacked([t1, t2], basis, kern, "simpson")
        ga = oc.gram_assemble([t1], basis, kern, "simpson")
        M = len(basis)
        assert st.A.shape == (2 * M, M)
        assert st.n_centers == M
        assert np.array_equal(st.A[:M], ga.G)
        assert np.array_equal(st.b[:M], ga.r)

    def test_single_trajectory_solution_matches_gram(self, pair):
        basis, t1, _ = pair
        kern = oc.gaussian_rbf(10.0)
        st = oc.gram_assemble_stacked([t1], basis, kern, "simpson")
        g = oc.gram_assemble([t1], basis, kern, "simpson")
        assert np.abs(oc.solve_pinv(st).theta_hat - oc.gram_solve(g).theta_hat).max() < 1e-6
