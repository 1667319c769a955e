import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import occusid as oc
from occusid import kernels
from occusid.quadrature import as_rule
from occusid.trajectory import Trajectory

RULES = ["right_hand", "trapezoid", "simpson"]


class TestWeights:
    def test_aliases(self):
        assert as_rule("rh").scheme == "right_hand"
        assert as_rule("trap").scheme == "trapezoid"
        assert as_rule("simpson").scheme == "simpson"
        assert as_rule(oc.QuadratureRule("trapezoid")).scheme == "trapezoid"
        with pytest.raises(ValueError):
            as_rule("midpoint")
        with pytest.raises(ValueError, match="^unknown quadrature scheme 'trap'$"):
            oc.QuadratureRule("trap")  # an alias is not a scheme

    def test_right_hand_weights(self):
        w = oc.weights("right_hand", 4, 0.5)
        assert np.allclose(w, [0.0, 0.5, 0.5, 0.5, 0.5])

    def test_trapezoid_weights(self):
        w = oc.weights("trapezoid", 4, 0.5)
        assert np.allclose(w, [0.25, 0.5, 0.5, 0.5, 0.25])

    def test_an_integer_step_gives_float_weights(self):
        # an integer h made an integer array that truncated the h / 2 end weights to 0
        assert np.array_equal(oc.weights("trapezoid", 4, 1), [0.5, 1.0, 1.0, 1.0, 0.5])

    def test_simpson_even_weights(self):
        w = oc.weights("simpson", 4, 0.3)
        assert np.allclose(w, np.array([1, 4, 2, 4, 1]) * 0.1)

    def test_simpson_odd_weights_frozen(self):
        h = 0.1
        w = oc.weights("simpson", 5, h)
        expect = [h / 3, 4 * h / 3, h / 3 + 3 * h / 8, 9 * h / 8, 9 * h / 8, 3 * h / 8]
        assert np.allclose(w, expect)

    def test_simpson_three_intervals_is_three_eighths(self):
        h = 0.2
        w = oc.weights("simpson", 3, h)
        assert np.allclose(w, (3 * h / 8) * np.array([1, 3, 3, 1]))

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("F", [2, 3, 4, 5, 10, 11])
    def test_weights_sum_to_interval_length(self, rule, F):
        h = 0.13
        assert oc.weights(rule, F, h).sum() == pytest.approx(F * h, rel=1e-12)

    def test_simpson_needs_two_intervals(self):
        with pytest.raises(ValueError):
            oc.weights("simpson", 1, 0.1)

    def test_h_positive(self):
        with pytest.raises(ValueError):
            oc.weights("trapezoid", 4, 0.0)

    @pytest.mark.parametrize("F, h, name", [
        (4, np.nan, "h"), (4, np.inf, "h"),
        (2.5, 0.1, "n_intervals"), (np.nan, 0.1, "n_intervals"), (np.inf, 0.1, "n_intervals"),
    ])
    def test_non_finite_or_fractional_argument_is_named(self, F, h, name):
        # NaN or inf weights, or a count silently truncated to 2 intervals
        with pytest.raises(ValueError, match=f"^{name} must be"):
            oc.weights("simpson", F, h)

    @pytest.mark.parametrize("F, h, name", [(True, 0.1, "n_intervals"), (4, True, "h")])
    def test_bool_is_not_a_number(self, F, h, name):
        # True would be taken as 1 interval or a step of 1
        with pytest.raises(ValueError, match=f"^{name} must be"):
            oc.weights("trapezoid", F, h)


class TestIntegrate:
    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("F", [2, 3, 4, 7])
    def test_constant_exact(self, rule, F):
        h = 0.1
        vals = np.full(F + 1, 2.5)
        assert oc.integrate(rule, vals, h) == pytest.approx(2.5 * F * h, rel=1e-12)

    @pytest.mark.parametrize("F", [2, 3, 4, 5, 8, 9])
    def test_simpson_exact_on_cubics(self, F):
        h = 1.0 / F
        t = np.arange(F + 1) * h
        vals = t**3 - 2 * t**2 + 0.5
        exact = 1.0 / 4 - 2.0 / 3 + 0.5
        assert oc.integrate("simpson", vals, h) == pytest.approx(exact, rel=1e-12)

    def test_trapezoid_exact_on_linear(self):
        t = np.linspace(0, 1, 8)
        assert oc.integrate("trapezoid", 3 * t + 1, t[1]) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize(
        "rule,order", [("right_hand", 1.0), ("trapezoid", 2.0), ("simpson", 4.0)]
    )
    def test_exp_convergence_orders(self, rule, order):
        errs = []
        hs = []
        for F in [8, 16, 32, 64]:
            h = 1.0 / F
            t = np.arange(F + 1) * h
            errs.append(abs(oc.integrate(rule, np.exp(t), h) - (np.e - 1.0)))
            hs.append(h)
        slope = oc.empirical_order(list(zip(hs, errs)))
        assert slope == pytest.approx(order, abs=0.3)

    def test_odd_interval_simpson_keeps_order(self):
        errs = []
        hs = []
        for F in [9, 17, 33, 65]:
            h = 1.0 / F
            t = np.arange(F + 1) * h
            errs.append(abs(oc.integrate("simpson", np.exp(t), h) - (np.e - 1.0)))
            hs.append(h)
        slope = oc.empirical_order(list(zip(hs, errs)))
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_two_dimensional_values(self):
        t = np.linspace(0, 1, 9)
        vals = np.stack([t, t**2], axis=1)
        out = oc.integrate("simpson", vals, t[1])
        assert out.shape == (2,)
        assert np.allclose(out, [0.5, 1.0 / 3.0], rtol=1e-6)

    @given(
        seed=st.integers(0, 1000),
        a=st.floats(-3, 3, allow_nan=False),
        b=st.floats(-3, 3, allow_nan=False),
        rule=st.sampled_from(RULES),
    )
    def test_linearity(self, seed, a, b, rule):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=9)
        v = rng.normal(size=9)
        h = 0.1
        lhs = oc.integrate(rule, a * u + b * v, h)
        rhs = a * oc.integrate(rule, u, h) + b * oc.integrate(rule, v, h)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def constant_traj(c, n=9, h=0.125):
    return Trajectory(np.tile(np.asarray(c, dtype=float), (n, 1)), h)


class TestOccupation:
    @pytest.mark.parametrize("rule", RULES)
    def test_constant_trajectory_evaluates_exactly(self, rule):
        c = np.array([0.5, -1.0])
        tr = constant_traj(c)
        kern = oc.gaussian_rbf(2.0)
        est = oc.occupation_estimate(tr, kern, rule)
        x = np.array([0.2, 0.3])
        T = tr.duration
        assert oc.occupation_eval(est, x) == pytest.approx(T * kern.eval(x, c), rel=1e-12)

    @pytest.mark.parametrize("x", [[np.nan, 0.0], [[0.0, 0.0], [0.0, np.inf]]])
    def test_eval_point_must_be_finite(self, x):
        est = oc.occupation_estimate(constant_traj([0.5, -1.0]), oc.gaussian_rbf(2.0), "simpson")
        with pytest.raises(ValueError, match="^points x must be finite$"):
            oc.occupation_eval(est, x)

    def test_eval_point_must_match_the_dimension(self):
        est = oc.occupation_estimate(constant_traj([0.5, -1.0]), oc.gaussian_rbf(2.0), "simpson")
        with pytest.raises(ValueError, match="^point dimension 3 does not match trajectory "
                                             "dimension 2$"):
            oc.occupation_eval(est, [0.0, 0.0, 0.0])

    def test_eval_batch(self):
        tr = constant_traj([1.0])
        est = oc.occupation_estimate(tr, oc.gaussian_rbf(1.0), "simpson")
        X = np.array([[0.0], [1.0], [2.0]])
        out = oc.occupation_eval(est, X)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(tr.duration)

    def test_inner_constant_trajectories(self):
        kern = oc.gaussian_rbf(2.0)
        a = oc.occupation_estimate(constant_traj([0.0, 0.0]), kern, "simpson")
        b = oc.occupation_estimate(constant_traj([1.0, 0.0]), kern, "simpson")
        T = 1.0
        assert oc.occupation_inner(a, b) == pytest.approx(T * T * kern.eval(np.zeros(2), np.array([1.0, 0.0])), rel=1e-12)

    def test_inner_symmetric(self, system1_trajs_coarse, gauss10):
        a = oc.occupation_estimate(system1_trajs_coarse[0], gauss10, "simpson")
        b = oc.occupation_estimate(system1_trajs_coarse[1], gauss10, "trapezoid")
        assert oc.occupation_inner(a, b) == pytest.approx(oc.occupation_inner(b, a), rel=1e-12)

    def test_eval_builds_blocks_of_bounded_size(self, monkeypatch, system1_trajs_coarse,
                                                gauss10):
        a = oc.occupation_estimate(system1_trajs_coarse[0], gauss10, "simpson")
        b = oc.occupation_estimate(system1_trajs_coarse[1], gauss10, "trapezoid")
        XA, XB = a.trajectory.samples, b.trajectory.samples
        whole = a.weights @ gauss10.matrix(XA, XB) @ b.weights
        shapes = []
        real = oc.Kernel.matrix

        def spy(self, X, Y):
            shapes.append((X.shape[0], Y.shape[0]))
            return real(self, X, Y)

        monkeypatch.setattr(oc.Kernel, "matrix", spy)
        P = XB.shape[0]
        for entries in (50, 1000, kernels.ENTRIES):
            monkeypatch.setattr(kernels, "ENTRIES", entries)
            shapes.clear()
            assert oc.occupation_inner(a, b) == pytest.approx(whole, rel=1e-13)
            rows = max(1, entries // P)
            # a row longer than the bound is a block of its own
            assert shapes == [(min(rows, XA.shape[0] - lo), P)
                              for lo in range(0, XA.shape[0], rows)]
            assert all(r * c <= max(entries, c) for r, c in shapes)

    def test_inner_requires_same_kernel(self, system1_trajs_coarse):
        a = oc.occupation_estimate(system1_trajs_coarse[0], oc.gaussian_rbf(10.0), "simpson")
        b = oc.occupation_estimate(system1_trajs_coarse[0], oc.gaussian_rbf(5.0), "simpson")
        with pytest.raises(ValueError):
            oc.occupation_inner(a, b)

    def test_cauchy_schwarz(self, system1_trajs_coarse, gauss10):
        a = oc.occupation_estimate(system1_trajs_coarse[0], gauss10, "simpson")
        b = oc.occupation_estimate(system1_trajs_coarse[2], gauss10, "simpson")
        ab = oc.occupation_inner(a, b)
        assert ab * ab <= oc.occupation_inner(a, a) * oc.occupation_inner(b, b) * (1 + 1e-10)

    def test_self_distance_zero(self, system1_trajs_coarse, gauss10):
        a = oc.occupation_estimate(system1_trajs_coarse[0], gauss10, "simpson")
        assert abs(oc.norm_distance_squared(a, a)) < 1e-12

    def test_norm_distance_positive_for_distinct(self, gauss10):
        a = oc.occupation_estimate(constant_traj([0.0, 0.0]), gauss10, "simpson")
        b = oc.occupation_estimate(constant_traj([2.0, 0.0]), gauss10, "simpson")
        assert oc.norm_distance_squared(a, b) > 0.0


class TestEmpiricalOrder:
    def test_exact_power_law(self):
        hs = [0.1, 0.05, 0.025]
        pairs = [(h, 3.0 * h**2.5) for h in hs]
        assert oc.empirical_order(pairs) == pytest.approx(2.5, rel=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            oc.empirical_order([(0.1, 1.0), (0.05, 0.5)])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            oc.empirical_order([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])

    def test_one_distinct_h_has_no_slope(self):
        # polyfit returned 1.25 here, with a RankWarning
        with pytest.raises(ValueError, match="^need at least 2 distinct h values, got 1$"):
            oc.empirical_order([(0.01, 1e-5)] * 3)

    def test_two_distinct_h_fit(self):
        pairs = [(0.1, 0.01), (0.1, 0.01), (0.05, 0.0025)]
        assert oc.empirical_order(pairs) == pytest.approx(2.0, rel=1e-12)


class TestHomotopy:
    def setup_method(self):
        ts = np.linspace(0.0, 1.0, 51)
        self.g0 = Trajectory(np.stack([ts, np.zeros_like(ts)], axis=1), ts[1])
        self.g1 = Trajectory(np.stack([ts, np.ones_like(ts)], axis=1), ts[1])
        self.kern = oc.gaussian_rbf(2.0)

    def test_same_stage_is_zero(self):
        d = oc.homotopy_distance(self.g0, self.g1, 0.3, 0.3, self.kern, "simpson")
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_in_stages(self):
        d1 = oc.homotopy_distance(self.g0, self.g1, 0.2, 0.7, self.kern, "simpson")
        d2 = oc.homotopy_distance(self.g0, self.g1, 0.7, 0.2, self.kern, "simpson")
        assert d1 == pytest.approx(d2, rel=1e-12)
        assert d1 > 0.0

    def test_nonnegative_clamp(self):
        d = oc.homotopy_distance(self.g0, self.g1, 0.5, 0.5 + 1e-9, self.kern, "simpson")
        assert d >= 0.0

    def test_stage_bounds(self):
        with pytest.raises(ValueError):
            oc.homotopy_distance(self.g0, self.g1, -0.1, 0.5, self.kern, "simpson")
        with pytest.raises(ValueError):
            oc.homotopy_distance(self.g0, self.g1, 0.0, 1.2, self.kern, "simpson")

    def test_grid_mismatch(self):
        ts = np.linspace(0.0, 1.0, 41)
        other = Trajectory(np.stack([ts, ts], axis=1), ts[1])
        with pytest.raises(ValueError, match="^homotopy endpoints must share the sample grid"):
            oc.homotopy_distance(self.g0, other, 0.1, 0.2, self.kern, "simpson")
        slower = Trajectory(self.g1.samples, 2 * self.g1.step)
        with pytest.raises(ValueError, match="^homotopy endpoints must share the time step$"):
            oc.homotopy_distance(self.g0, slower, 0.1, 0.2, self.kern, "simpson")

    def test_shrinks_with_stage_gap(self):
        ds = [
            oc.homotopy_distance(self.g0, self.g1, 0.2, 0.2 + delta, self.kern, "simpson")
            for delta in [0.4, 0.2, 0.1, 0.05]
        ]
        assert all(a > b for a, b in zip(ds, ds[1:]))
