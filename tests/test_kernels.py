import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import occusid as oc
from occusid.errors import UnsupportedKernelError
from occusid import kernels
from occusid.kernels import FeatureMapKernel

ALL = [
    oc.gaussian_rbf(2.0),
    oc.exp_dot(0.7),
    oc.polynomial(3.0, 3),
    oc.linear(),
]
DIFFERENTIABLE = ALL  # every family has grad1/grad2/grad1grad2
INTEGRAND = ALL[:3]  # closed-form integrands exclude linear


def draws(n, dim, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, size=(n, dim))


def fd_grad1(kern, x, y, eps=1e-6):
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = eps
        out[i] = (kern.eval(x + e, y) - kern.eval(x - e, y)) / (2 * eps)
    return out


def fd_grad1grad2(kern, x, y, eps=1e-4):
    n = len(x)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            ei = np.zeros(n)
            ej = np.zeros(n)
            ei[i] = eps
            ej[j] = eps
            out[i, j] = (
                kern.eval(x + ei, y + ej)
                - kern.eval(x + ei, y - ej)
                - kern.eval(x - ei, y + ej)
                + kern.eval(x - ei, y - ej)
            ) / (4 * eps * eps)
    return out


class TestScalarDerivatives:
    @pytest.mark.parametrize("kern", DIFFERENTIABLE, ids=lambda k: k.family)
    def test_grad1_matches_fd(self, kern):
        pts = draws(25, 3, 1)
        for x, y in zip(pts, pts[::-1]):
            assert np.allclose(kern.grad1(x, y), fd_grad1(kern, x, y), atol=1e-6)

    @pytest.mark.parametrize("kern", DIFFERENTIABLE, ids=lambda k: k.family)
    def test_grad2_matches_fd(self, kern):
        pts = draws(25, 3, 2)
        for x, y in zip(pts, pts[::-1]):
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = 1e-6
                fd[i] = (kern.eval(x, y + e) - kern.eval(x, y - e)) / 2e-6
            assert np.allclose(kern.grad2(x, y), fd, atol=1e-6)

    @pytest.mark.parametrize("kern", DIFFERENTIABLE, ids=lambda k: k.family)
    def test_grad1grad2_matches_fd(self, kern):
        pts = draws(10, 3, 3)
        for x, y in zip(pts, pts[::-1]):
            assert np.allclose(kern.grad1grad2(x, y), fd_grad1grad2(kern, x, y), atol=1e-4)

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_symmetry(self, kern):
        pts = draws(10, 3, 4)
        for x, y in zip(pts, pts[::-1]):
            assert kern.eval(x, y) == pytest.approx(kern.eval(y, x), rel=1e-12)
            assert np.allclose(kern.grad2(x, y), kern.grad1(y, x), rtol=1e-12)

    @pytest.mark.parametrize("kern", INTEGRAND, ids=lambda k: k.family)
    def test_pre_inner_is_bilinear_hessian_form(self, kern):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x, y, a, b = rng.uniform(-1.5, 1.5, size=(4, 3))
            direct = a @ kern.grad1grad2(x, y) @ b
            assert kern.pre_inner_integrand(x, y, a, b) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kern", INTEGRAND, ids=lambda k: k.family)
    def test_rhs_is_grad1_difference(self, kern):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x, start, end, v = rng.uniform(-1.5, 1.5, size=(4, 3))
            direct = (kern.grad1(x, end) - kern.grad1(x, start)) @ v
            assert kern.rhs_integrand(x, (start, end), v) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_linear_integrands_unsupported(self):
        lin = oc.linear()
        x, y, a = np.ones(2), np.zeros(2), np.ones(2)
        with pytest.raises(UnsupportedKernelError):
            lin.pre_inner_integrand(x, y, a, a)
        with pytest.raises(UnsupportedKernelError):
            lin.rhs_integrand(x, (y, x), a)
        with pytest.raises(UnsupportedKernelError):
            lin.pre_inner_pairwise(x[None], y[None], a[None], a[None])


class TestVectorized:
    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_matrix_matches_scalar(self, kern):
        X = draws(6, 2, 7)
        Y = draws(4, 2, 8)
        K = kern.matrix(X, Y)
        assert K.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert K[i, j] == pytest.approx(kern.eval(X[i], Y[j]), rel=1e-12)

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_grad1_contract_matches_loop(self, kern):
        X = draws(5, 2, 9)
        C = draws(3, 2, 10)
        V = draws(5, 2, 11)  # one vector per sample
        out = kern.grad1_contract(X, C, V)
        assert out.shape == (5, 3)
        for p in range(5):
            for s in range(3):
                assert out[p, s] == pytest.approx(kern.grad1(X[p], C[s]) @ V[p], rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_assemble_block_matches_loop(self, kern):
        rng = np.random.default_rng(12)
        X = rng.uniform(-1.0, 1.0, size=(7, 2))
        C = rng.uniform(-1.0, 1.0, size=(4, 2))
        Vs = rng.uniform(-1.0, 1.0, size=(3, 7, 2))
        w = rng.uniform(0.1, 1.0, size=7)
        blk = kern.assemble_block(X, C, Vs, w)
        assert blk.shape == (4, 3)
        for s in range(4):
            for m in range(3):
                direct = sum(w[p] * (kern.grad1(X[p], C[s]) @ Vs[m, p]) for p in range(7))
                assert blk[s, m] == pytest.approx(direct, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_assemble_block_multi_consistent(self, kern):
        rng = np.random.default_rng(13)
        X = rng.uniform(-1.0, 1.0, size=(9, 3))
        C = rng.uniform(-1.0, 1.0, size=(5, 3))
        Vs = rng.uniform(-1.0, 1.0, size=(2, 9, 3))
        ws = [rng.uniform(0.1, 1.0, size=9) for _ in range(3)]
        multi = kern.assemble_block_multi(X, C, Vs, ws)
        assert len(multi) == 3
        for w, blk in zip(ws, multi):
            assert np.allclose(blk, kern.assemble_block(X, C, Vs, w), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kern", INTEGRAND, ids=lambda k: k.family)
    def test_pre_inner_pairwise_matches_scalar(self, kern):
        rng = np.random.default_rng(14)
        X = rng.uniform(-1.0, 1.0, size=(5, 2))
        Y = rng.uniform(-1.0, 1.0, size=(4, 2))
        A = rng.uniform(-1.0, 1.0, size=(5, 2))
        B = rng.uniform(-1.0, 1.0, size=(4, 2))
        P = kern.pre_inner_pairwise(X, Y, A, B)
        assert P.shape == (5, 4)
        for p in range(5):
            for q in range(4):
                assert P[p, q] == pytest.approx(
                    kern.pre_inner_integrand(X[p], Y[q], A[p], B[q]), rel=1e-10, abs=1e-12
                )

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_assemble_block_accumulates_across_chunk(self, kern):
        # P = rows + 5 crosses one block boundary (rows = ENTRIES // S samples
        # against S centers): the whole quadrature is the sum of the one over
        # the first block and the one over the rest.
        rng = np.random.default_rng(20)
        rows = kernels.ENTRIES // 3
        P = rows + 5
        X = rng.uniform(-1.0, 1.0, size=(P, 2))
        C = rng.uniform(-1.0, 1.0, size=(3, 2))
        Vs = rng.uniform(-1.0, 1.0, size=(2, P, 2))
        w = rng.uniform(0.1, 1.0, size=P)
        whole = kern.assemble_block(X, C, Vs, w)
        parts = (kern.assemble_block(X[:rows], C, Vs[:, :rows], w[:rows])
                 + kern.assemble_block(X[rows:], C, Vs[:, rows:], w[rows:]))
        assert np.allclose(whole, parts, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kern", INTEGRAND, ids=lambda k: k.family)
    def test_pre_inner_pairwise_rows_across_chunk(self, kern):
        # rows are independent: any split of X gives the same rows
        rng = np.random.default_rng(21)
        P, split = 8197, 8192
        X, A = rng.uniform(-1.0, 1.0, size=(2, P, 2))
        Y, B = rng.uniform(-1.0, 1.0, size=(2, 3, 2))
        whole = kern.pre_inner_pairwise(X, Y, A, B)
        parts = np.vstack([kern.pre_inner_pairwise(X[:split], Y, A[:split], B),
                           kern.pre_inner_pairwise(X[split:], Y, A[split:], B)])
        assert np.allclose(whole, parts, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kern", [oc.gaussian_rbf(2.0), oc.polynomial(2.0, 3)],
                             ids=lambda k: k.family)
    def test_assembly_memory_is_bounded_by_the_entry_budget(self, kern):
        # 1001 samples against 4000 centers: one whole-axis kernel block is
        # 4M entries (32 MB); blocks of ENTRIES // S samples peak at 3.2
        # (gaussian) and 7.6 (polynomial) MiB of traced allocations.
        rng = np.random.default_rng(22)
        P, S, M = 1001, 4000, 12
        X = rng.uniform(-1.0, 1.0, size=(P, 2))
        C = rng.uniform(-1.0, 1.0, size=(S, 2))
        Vs = rng.uniform(-1.0, 1.0, size=(M, P, 2))
        w = rng.uniform(0.1, 1.0, size=P)
        tracemalloc.start()
        try:
            kern.assemble_block_multi(X, C, Vs, [w])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    @pytest.mark.parametrize("kern", ALL, ids=lambda k: k.family)
    def test_kernel_matrix_psd(self, kern):
        X = draws(12, 2, 15)
        K = kern.matrix(X, X)
        evs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert evs.min() >= -1e-9 * max(1.0, evs.max())


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            oc.Kernel("cubic")

    def test_mu_positive(self):
        with pytest.raises(ValueError):
            oc.gaussian_rbf(0.0)
        with pytest.raises(ValueError):
            oc.exp_dot(-1.0)

    @pytest.mark.parametrize("family", ["gaussian_rbf", "exp_dot", "polynomial"])
    @pytest.mark.parametrize("mu", [1e-200, 1e200])
    def test_mu_square_must_be_nonzero_and_finite(self, family, mu):
        with pytest.raises(ValueError, match="mu"):
            oc.Kernel(family, mu=mu)

    @given(mu=st.floats(0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True),
           family=st.sampled_from(["gaussian_rbf", "exp_dot", "polynomial", "linear"]))
    def test_positive_finite_mu_is_rejected_or_usable(self, mu, family):
        try:
            kern = oc.Kernel(family, mu=mu)
        except ValueError as exc:
            assert "mu" in str(exc)
            return
        X = np.arange(6.0).reshape(3, 2) / 4
        assert kern.matrix(X, X).shape == (3, 3)

    @pytest.mark.parametrize("kern", ALL + [FeatureMapKernel(oc.gaussian_rbf(2.0), np.eye(2))],
                             ids=lambda k: k.family)
    @pytest.mark.parametrize("case", ["one-weight", "seven-weights", "eight-samples-of-fields",
                                      "eight-samples-of-terms"])
    def test_assembly_sample_count_must_match(self, kern, case):
        # 5 points: a (1,) weight vector was broadcast over every sample, and
        # 7 weights or fields over 8 samples were cut down to the first 5
        rng = np.random.default_rng(23)
        X, C = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 2))
        Vs, w = rng.normal(size=(4, 5, 2)), np.ones(5)
        if case == "one-weight":
            w, named = np.ones(1), "(1,)"
        elif case == "seven-weights":
            w, named = np.ones(7), "(7,)"
        elif case == "eight-samples-of-fields":
            Vs, named = rng.normal(size=(4, 8, 2)), "(4, 8, 2)"
        else:
            Vs = (rng.normal(size=(3, 8)), kernels._term_maps(np.arange(3), np.arange(3),
                                                              [0, 1, 0], 3))
            named = "(3, 8)"
        for call in (lambda: kern.assemble_block_multi(X, C, Vs, [np.ones(5), w]),
                     lambda: kern.assemble_block(X, C, Vs, w)):
            with pytest.raises(ValueError, match=re.escape(named)) as exc:
                call()
            assert "5" in str(exc.value)

    def test_point_arguments_are_single_points(self):
        with pytest.raises(ValueError, match=r"^expected a single point, got shape \(1, 2\)$"):
            oc.gaussian_rbf(2.0).eval(np.zeros((1, 2)), np.zeros(2))

    def test_poly_degree_integer_ge_two(self):
        with pytest.raises(ValueError):
            oc.polynomial(1.0, 1)
        # each is this ValueError, not an OverflowError, a TypeError or a numpy message
        for degree in (2.5, np.inf, np.nan, "3", None):
            with pytest.raises(ValueError, match="^polynomial degree must be an integer >= 2"):
                oc.Kernel("polynomial", mu=1.0, degree=degree)

    def test_mu_is_a_real_number_not_a_bool(self):
        # gaussian_rbf(True) was mu = 1, and mu="2" a bare TypeError from a comparison
        for family in kernels.FAMILIES:
            for mu in (True, False, np.True_, "2", None, [2.0], 2j):
                with pytest.raises(ValueError, match="^mu must be a real number"):
                    oc.Kernel(family, mu=mu)
        with pytest.raises(ValueError, match="^mu must be a real number, got True"):
            oc.gaussian_rbf(True)
        assert oc.gaussian_rbf(np.float64(2.0)).matrix([[0.0]], [[1.0]]) == np.exp(-0.5)
        assert oc.Kernel("linear", mu=0.0).eval([2.0], [3.0]) == 6.0  # linear ignores mu's value

    @pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf])
    def test_linear_mu_is_finite(self, mu):
        # a NaN mu made a kernel unequal to itself
        with pytest.raises(ValueError, match=f"^mu must be finite, got {mu}$"):
            oc.Kernel("linear", mu=mu)

    def test_from_name(self):
        assert oc.from_name("gaussian", mu=3.0).family == "gaussian_rbf"
        assert oc.from_name("expdot", mu=0.5).family == "exp_dot"
        assert oc.from_name("poly", mu=2.0, degree=4).degree == 4
        assert oc.from_name("linear").family == "linear"
        with pytest.raises(ValueError):
            oc.from_name("spline")


class TestFeatureMapKernel:
    def setup_method(self):
        self.centers = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 1.0]])
        self.base = oc.gaussian_rbf(2.0)
        self.fm = FeatureMapKernel(self.base, self.centers)

    def test_eval_is_feature_dot(self):
        x, y = np.array([0.3, -0.2]), np.array([-0.1, 0.4])
        phi_x = np.array([self.base.eval(x, c) for c in self.centers])
        phi_y = np.array([self.base.eval(y, c) for c in self.centers])
        assert self.fm.eval(x, y) == pytest.approx(phi_x @ phi_y, rel=1e-12)

    def test_matrix_is_gram_of_features(self):
        X = draws(6, 2, 16)
        Phi = self.fm.features(X)
        assert np.allclose(self.fm.matrix(X, X), Phi @ Phi.T, rtol=1e-12)

    def test_grads_match_fd(self):
        pts = draws(10, 2, 17)
        for x, y in zip(pts, pts[::-1]):
            assert np.allclose(self.fm.grad1(x, y), fd_grad1(self.fm, x, y), atol=1e-6)
            assert np.allclose(self.fm.grad1grad2(x, y), fd_grad1grad2(self.fm, x, y), atol=1e-4)

    def test_integrands_consistent(self):
        rng = np.random.default_rng(18)
        x, y, a, b = rng.uniform(-1.0, 1.0, size=(4, 2))
        direct = a @ self.fm.grad1grad2(x, y) @ b
        assert self.fm.pre_inner_integrand(x, y, a, b) == pytest.approx(direct, rel=1e-10)
        rhs = (self.fm.grad1(x, y) - self.fm.grad1(x, x)) @ a
        assert self.fm.rhs_integrand(x, (x, y), a) == pytest.approx(rhs, rel=1e-10)

    def test_base_must_be_a_kernel(self):
        with pytest.raises(ValueError, match="^base must be a Kernel$"):
            FeatureMapKernel("gaussian_rbf", self.centers)

    def test_family_and_eq(self):
        assert self.fm.family == "feature_map"
        same = FeatureMapKernel(self.base, self.centers.copy())
        other = FeatureMapKernel(self.base, self.centers + 1.0)
        assert self.fm == same
        assert self.fm != other

    def test_assemble_block_matches_generic(self):
        rng = np.random.default_rng(19)
        X = rng.uniform(-1.0, 1.0, size=(8, 2))
        C = rng.uniform(-1.0, 1.0, size=(4, 2))
        Vs = rng.uniform(-1.0, 1.0, size=(3, 8, 2))
        w = rng.uniform(0.1, 1.0, size=8)
        blk = self.fm.assemble_block(X, C, Vs, w)
        for s in range(4):
            for m in range(3):
                direct = sum(w[p] * (self.fm.grad1(X[p], C[s]) @ Vs[m, p]) for p in range(8))
                assert blk[s, m] == pytest.approx(direct, rel=1e-9, abs=1e-12)


class TestHypothesisProperties:
    @given(
        seed=st.integers(0, 10_000),
        fam=st.sampled_from(["gaussian_rbf", "exp_dot", "polynomial", "linear"]),
    )
    def test_cauchy_schwarz(self, seed, fam):
        kern = {
            "gaussian_rbf": oc.gaussian_rbf(1.5),
            "exp_dot": oc.exp_dot(0.6),
            "polynomial": oc.polynomial(2.0, 2),
            "linear": oc.linear(),
        }[fam]
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-1.2, 1.2, size=(2, 3))
        lhs = kern.eval(x, y) ** 2
        rhs = kern.eval(x, x) * kern.eval(y, y)
        assert lhs <= rhs + 1e-9 * abs(rhs)

    @given(seed=st.integers(0, 10_000))
    def test_gaussian_bounded_by_one(self, seed):
        kern = oc.gaussian_rbf(3.0)
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-2.0, 2.0, size=(2, 3))
        v = kern.eval(x, y)
        assert 0.0 < v <= 1.0
        assert kern.eval(x, x) == pytest.approx(1.0)


def _center_route(route, centers):
    """Build the system of one route over `centers` from one system1 trajectory."""
    field, _, basis = oc.builtin_system("system1")
    tr = oc.integrate_rk4(field, np.array([0.25, -2.0]), 0.1, 1e-2)
    if route == "assemble":
        return oc.assemble([tr], centers, basis, oc.gaussian_rbf(10.0), "simpson")
    if route == "stream":
        return oc.stream_push(oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), tr.step),
                              tr.samples[:2])
    return oc.gram_assemble([tr], basis, FeatureMapKernel(oc.gaussian_rbf(10.0), centers),
                            "simpson")


@pytest.mark.parametrize("route", ["assemble", "stream", "gram"])
class TestCenterSet:
    """Every route that takes centers checks them with one rule, before any kernel runs."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_center_is_named(self, route, bad):
        # not the kernel's mu: a DivergenceError would send the user to the wrong setting
        with pytest.raises(ValueError, match="^centers must be finite$"):
            _center_route(route, [[0.0, 0.0], [bad, 1.0]])

    def test_no_center(self, route):
        with pytest.raises(ValueError, match=r"^centers must be a non-empty \(S, n\) array"):
            _center_route(route, np.empty((0, 2)))


def test_center_set_is_a_frozen_float_copy():
    centers = [[0, 0], [1, -1]]
    C = kernels._center_set(centers, 2)
    assert C.dtype == float and not C.flags.writeable and C.tolist() == centers
    with pytest.raises(ValueError, match="^centers have dimension 2, expected 3$"):
        kernels._center_set(centers, 3)
