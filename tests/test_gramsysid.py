import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

import occusid as oc
from occusid import kernels
from occusid.errors import DivergenceError, UnsupportedKernelError
from occusid.quadrature import weights
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


def _per_pair_gram(traj, basis, kernel, rule):
    """The per-pair double quadrature: one P x P pre_inner_pairwise per (m, m') pair.

    Kept as the reference for the unit-field contraction in _gram_blocks.
    """
    X = traj.samples
    w = weights(rule, traj.n_intervals, traj.step)
    Vs = basis.values(X)
    M = len(basis)

    def dq(A, B):
        return float(w @ (kernel.pre_inner_pairwise(X, X, A, B) @ w))

    G = np.empty((M, M))
    for m in range(M):
        for mp in range(m + 1):
            G[m, mp] = G[mp, m] = dq(Vs[mp], Vs[m])
    ends = np.stack([traj.initial, traj.final])
    blk = kernel.assemble_block(X, ends, Vs, w)
    r = blk[1] - blk[0]
    jump_sq = (
        kernel.eval(traj.final, traj.final)
        - 2.0 * kernel.eval(traj.final, traj.initial)
        + kernel.eval(traj.initial, traj.initial)
    )
    kv = basis.known_values(X)
    if kv is not None:
        kblk = kernel.assemble_block(X, ends, kv[None], w)
        r = r - np.array([dq(Vs[m], kv) for m in range(M)])
        jump_sq += -2.0 * (kblk[1, 0] - kblk[0, 0]) + dq(kv, kv)
    return G, r, jump_sq


def _emps_case(h):
    field, _, basis = oc.builtin_system("emps_form", control=lambda t: np.sin(2 * np.pi * t))
    return basis, oc.integrate_rk4(field, np.array([0.1, 0.0, 0.0]), 1.0, h)


def _system1_case(h):
    field, _, basis = oc.builtin_system("system1")
    return basis, oc.integrate_rk4(field, np.array([0.3, -2.0]), 1.0, h)


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() / np.abs(b).max()


_CENTERS = oc.lattice_centers([(-1, 1), (-3, -1)], 1.0)


class TestContractionMatchesPerPair:
    # The GEMM contraction against the per-pair quadrature it replaced, on
    # every family with an integrand, a separable kernel, a known part, and a
    # trajectory longer than one row block.
    @pytest.mark.parametrize(
        "case, h, kernel, rule",
        [
            (_system1_case, 1e-2, oc.gaussian_rbf(10.0), "simpson"),
            (_system1_case, 1e-2, oc.exp_dot(0.5), "trapezoid"),
            (_system1_case, 1e-2, oc.polynomial(2.0, 3), "simpson"),
            (_system1_case, 1e-2, oc.FeatureMapKernel(oc.gaussian_rbf(10.0), _CENTERS), "simpson"),
            (_emps_case, 1e-2, oc.gaussian_rbf(5.0), "simpson"),
            (_system1_case, 1.0 / 600, oc.gaussian_rbf(10.0), "rh"),
            (_emps_case, 1.0 / 600, oc.exp_dot(0.5), "trapezoid"),
        ],
        ids=["gaussian", "exp_dot", "poly3", "feature_map", "emps_known",
             "gaussian_long", "emps_long"],
    )
    def test_matches_per_pair(self, case, h, kernel, rule):
        basis, traj = case(h)
        g = oc.gram_assemble([traj], basis, kernel, rule)
        G, r, c = _per_pair_gram(traj, basis, kernel, rule)
        assert _rel(g.G, G) <= 1e-12
        assert _rel(g.r, r) <= 1e-12
        assert abs(g.target_norm_sq - c) <= 1e-12 * abs(c)


def _curve(n, P, h=0.01):
    """A smooth (P, n) trajectory with a different frequency per coordinate."""
    t = h * np.arange(P)[:, None]
    k = np.arange(1.0, n + 1.0)
    return Trajectory(0.8 * np.sin(k * t + k), h)


class TestTriangleMatchesPerPair:
    # The upper-triangle contraction against the per-pair quadrature in state
    # dimensions 1-4, inside one row block and one sample past whole blocks of
    # ROWS rows (an entry budget of exactly ROWS rows), with and without a
    # known part.
    ROWS = 64

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("whole_blocks", [0, 2])
    @pytest.mark.parametrize("family", ["gaussian", "exp_dot", "poly3", "feature_map"])
    @pytest.mark.parametrize("known", [False, True], ids=["plain", "known"])
    def test_matches_per_pair(self, n, whole_blocks, family, known, monkeypatch):
        P = whole_blocks * self.ROWS + 1 if whole_blocks else 37
        if whole_blocks:
            monkeypatch.setattr(kernels, "ENTRIES", self.ROWS * n * n * P)
        traj = _curve(n, P)
        lib = oc.monomial_basis(oc.MonomialSpec(n, 2))
        basis = lib.select(range(0, len(lib), max(1, len(lib) // 8)))
        if known:
            basis = dataclasses.replace(basis, known_part=lambda X: 0.5 - X)
        kernel = {
            "gaussian": oc.gaussian_rbf(2.0),
            "exp_dot": oc.exp_dot(0.5),
            "poly3": oc.polynomial(2.0, 3),
            "feature_map": oc.FeatureMapKernel(oc.gaussian_rbf(2.0), traj.samples[::9]),
        }[family]
        g = oc.gram_assemble([traj], basis, kernel, "simpson")
        G, r, c = _per_pair_gram(traj, basis, kernel, "simpson")
        rows = kernels.ENTRIES // (n * n * P)
        assert rows == self.ROWS if whole_blocks else rows >= P
        assert _rel(g.G, G) <= 1e-12
        assert _rel(g.r, r) <= 1e-12
        assert abs(g.target_norm_sq - c) <= 1e-12 * abs(c)


class TestKernelPasses:
    # Each row block [lo, hi) builds every mixed-derivative block H_de of its
    # rows in one stacked pre_inner_pairwise call on the unit fields, over the
    # columns from lo on (the upper triangle by sample), whatever the number
    # of basis fields. The rows come from the kernels.ENTRIES budget.
    @pytest.mark.parametrize("case", [_system1_case, _emps_case], ids=["n2", "n3_known"])
    def test_blocks_per_row_block(self, case, monkeypatch):
        basis, traj = case(1.0 / 600)
        kernel = oc.gaussian_rbf(10.0)
        n, P = traj.dim, traj.n_samples
        calls = []
        inner = oc.Kernel.pre_inner_pairwise

        def spy(self, X, Y, A, B):
            calls.append((len(X), len(Y), np.array(A), np.array(B)))
            return inner(self, X, Y, A, B)

        whole = oc.gram_assemble([traj], basis, kernel, "simpson").G
        monkeypatch.setattr(oc.Kernel, "pre_inner_pairwise", spy)
        for entries in (1, 20_000, kernels.ENTRIES):
            monkeypatch.setattr(kernels, "ENTRIES", entries)
            calls.clear()
            G = oc.gram_assemble([traj], basis, kernel, "simpson").G
            assert _rel(G, whole) <= 1e-12
            rows = max(1, entries // (n * n * P))
            starts = range(0, P, rows)
            assert len(calls) == len(starts)
            assert rows == 1 or P % rows  # a partial last block
            for lo, (R, Q, A, B) in zip(starts, calls):
                assert (R, Q) == (min(rows, P - lo), P - lo)
                assert A.shape == (n, R, n) and B.shape == (n, Q, n)
                assert (A == np.eye(n)[:, None, :]).all() and (B == np.eye(n)[:, None, :]).all()
            assert sum(n * n * R * Q for R, Q, _, _ in calls) == n * n * sum(
                min(rows, P - lo) * (P - lo) for lo in starts)
            # a row longer than the budget is a block of its own
            assert all(n * n * R * P <= max(entries, n * n * P) for R, _, _, _ in calls)

    def test_peak_memory_of_one_assembly(self):
        # The entry budget bounds the stacked kernel blocks: one P = 1001
        # system1 assembly peaks at about 2.5 MiB of traced allocations, where
        # a 128-row stack would take about 14 MiB.
        field, _, basis = oc.builtin_system("system1")
        traj = oc.integrate_rk4(field, np.array([0.3, -2.0]), 1.0, 1e-3)
        assert traj.n_samples == 1001
        tracemalloc.start()
        try:
            oc.gram_assemble([traj], basis, oc.gaussian_rbf(10.0), "simpson")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20
