from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis.strategies import floats, integers, just, one_of, tuples
from hypothesis.extra.numpy import arrays

import occusid as oc
from occusid.errors import DivergenceError
from occusid.streaming import _default_alpha
from occusid.trajectory import Trajectory


@pytest.fixture(scope="module")
def setup(system1):
    _, _, basis = system1
    field, _, _ = oc.builtin_system("system1")
    tr = oc.integrate_rk4(field, np.array([0.25, -2.0]), 1.0, 1e-2)
    centers = oc.lattice_centers([(-1, 2), (-3, 3)], 1.0)
    return basis, tr, centers


def fresh_stream(setup, **kw):
    basis, tr, centers = setup
    return oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), tr.step, **kw)


class TestValidation:
    def test_center_dimension(self, setup):
        basis, tr, _ = setup
        with pytest.raises(ValueError):
            oc.new_stream(np.zeros((3, 5)), basis, oc.gaussian_rbf(10.0), 0.01)

    def test_step_positive(self, setup):
        basis, _, centers = setup
        for step in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="step"):
                oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), step)

    def test_window_nonnegative(self, setup):
        basis, _, centers = setup
        for kw in ({"window": -1.0}, {"window": np.nan}, {"alpha": np.nan}):
            with pytest.raises(ValueError, match=next(iter(kw))):
                oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), 0.01, **kw)

    def test_theta0_shape(self, setup):
        basis, _, centers = setup
        with pytest.raises(ValueError):
            oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), 0.01, theta0=np.zeros(3))

    def test_sample_dimension(self, setup):
        st = fresh_stream(setup)
        with pytest.raises(ValueError):
            oc.stream_push(st, np.zeros((2, 5)))

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_first_time_must_be_finite(self, setup, t):
        st = fresh_stream(setup)
        with np.errstate(all="raise"), pytest.raises(ValueError, match="times must be finite"):
            oc.stream_push(st, [[0.5, -2.0], [0.5, -2.0]], times=[t, 0.01])
        assert st.n_samples == 0 and st.t0 is None

    @pytest.mark.parametrize("sample, error, match", [
        ([[0.5, -2.0], [0.5, np.nan]], ValueError, "finite"),  # the first sample is valid
        ([400.0, 400.0], DivergenceError, "exp_dot with mu=1"),  # exp(x . c) overflows
    ])
    def test_bad_sample_rejected_before_any_change(self, setup, sample, error, match):
        basis, tr, centers = setup
        st = oc.new_stream(centers, basis, oc.exp_dot(1.0), tr.step)
        oc.stream_push(st, tr.samples[:3])
        A, b = oc.stream_matrices(st)
        with pytest.raises(error, match=match):
            oc.stream_push(st, sample)
        assert st.n_samples == 3
        assert all(np.array_equal(u, v) for u, v in zip((A, b), oc.stream_matrices(st)))

    @pytest.mark.parametrize("pushed", [0, 3])
    @pytest.mark.parametrize("bad, late, error, match", [
        ([400.0, 400.0], 0.0, DivergenceError, "exp_dot with mu=1"),  # kernel row overflows
        (None, 0.5, ValueError, "grid discontinuity"),  # half a step off the grid
    ], ids=["overflow", "off-grid"])
    def test_push_rejected_at_a_later_sample_changes_nothing(self, setup, pushed, bad, late,
                                                             error, match):
        basis, tr, centers = setup
        st = oc.new_stream(centers, basis, oc.exp_dot(1.0), tr.step)
        times = tr.times()
        if pushed:
            oc.stream_push(st, tr.samples[:pushed], times=times[:pushed])
        before = (st.n_samples, st.time, st.t0, st._acc.copy(), *oc.stream_matrices(st))
        second = tr.samples[pushed + 1] if bad is None else bad
        with pytest.raises(error, match=match):
            oc.stream_push(st, [tr.samples[pushed], second],
                           times=[times[pushed], times[pushed + 1] + late * tr.step])
        after = (st.n_samples, st.time, st.t0, st._acc, *oc.stream_matrices(st))
        assert before[:3] == after[:3]
        assert all(np.array_equal(u, v) for u, v in zip(before[3:], after[3:]))
        # the state still continues the grid from where it was
        oc.stream_push(st, tr.samples[pushed:pushed + 2], times=times[pushed:pushed + 2])
        clean = oc.new_stream(centers, basis, oc.exp_dot(1.0), tr.step)
        oc.stream_push(clean, tr.samples[:pushed + 2], times=times[:pushed + 2])
        assert all(np.array_equal(u, v)
                   for u, v in zip(oc.stream_matrices(st), oc.stream_matrices(clean)))

    def test_empty_state_matrices(self, setup):
        st = fresh_stream(setup)
        A, b = oc.stream_matrices(st)
        assert not A.any() and not b.any()


class TestPrefixIdentity:
    # After k+1 samples the growing accumulators must equal the batch
    # trapezoid assembly of the prefix trajectory.
    def test_matches_batch_at_random_stops(self, setup):
        basis, tr, centers = setup
        kern = oc.gaussian_rbf(10.0)
        st = oc.new_stream(centers, basis, kern, tr.step)
        rng = np.random.default_rng(0)
        stops = sorted(set(rng.integers(2, tr.samples.shape[0], size=20).tolist()))
        pushed = 0
        for k in stops:
            oc.stream_push(st, tr.samples[pushed : k + 1])
            pushed = k + 1
            A, b = oc.stream_matrices(st)
            prefix = Trajectory(tr.samples[: k + 1], tr.step)
            s = oc.assemble([prefix], centers, basis, kern, "trapezoid")
            assert np.abs(A - s.A).max() < 1e-10
            assert np.abs(b - s.b).max() < 1e-10

    def test_sample_by_sample_equals_batch_push(self, setup):
        basis, tr, centers = setup
        one = fresh_stream(setup)
        for i in range(60):
            oc.stream_push(one, tr.samples[i])
        batch = fresh_stream(setup)
        oc.stream_push(batch, tr.samples[:60])
        A1, b1 = oc.stream_matrices(one)
        A2, b2 = oc.stream_matrices(batch)
        assert np.array_equal(A1, A2)
        assert np.array_equal(b1, b2)

    def test_wide_window_equals_growing(self, setup):
        basis, tr, centers = setup
        grow = fresh_stream(setup)
        wide = fresh_stream(setup, window=50.0)
        oc.stream_push(grow, tr.samples)
        oc.stream_push(wide, tr.samples)
        Ag, bg = oc.stream_matrices(grow)
        Aw, bw = oc.stream_matrices(wide)
        assert np.allclose(Ag, Aw, atol=1e-13)
        assert np.allclose(bg, bw, atol=1e-13)

    @pytest.mark.parametrize("window", [np.inf, 1e-12])
    def test_infinite_window_grows_and_a_short_one_keeps_a_panel(self, setup, window):
        _, tr, _ = setup
        st = fresh_stream(setup, window=window * tr.step)
        oc.stream_push(st, tr.samples)
        grow = fresh_stream(setup)  # a growing stream over the samples the window keeps
        oc.stream_push(grow, tr.samples if window == np.inf else tr.samples[-2:])
        for u, v in zip(oc.stream_matrices(st), oc.stream_matrices(grow)):
            assert np.array_equal(u, v) if window == np.inf else np.abs(u - v).max() < 1e-10

    def test_sliding_window_far_from_the_origin(self, system1):
        # At t0 = 1000 a running sum of h drifts below the grid, and a
        # float-time cutoff then kept 251 panels of a 250-panel window.
        field, _, basis = system1
        tr = oc.integrate_rk4(field, np.array([0.25, -2.0]), 0.4, 1e-3)  # 401 samples
        centers = oc.lattice_centers([(-3, 3), (-3, 5)], 1.0)  # the CLI's 63 system1 centers
        kern, t0, h = oc.gaussian_rbf(10.0), 1000.0, 1e-3
        st = oc.new_stream(centers, basis, kern, h, window=0.25)
        for k, x in enumerate(tr.samples):
            oc.stream_push(st, x, times=[t0 + k * h])
        assert len(st._panels) == 250
        assert st.time == t0 + (tr.n_samples - 1) * h
        s = oc.assemble([Trajectory(tr.samples[-251:], h)], centers, basis, kern, "trapezoid")
        A, b = oc.stream_matrices(st)
        assert np.abs(A - s.A).max() <= 1e-12 * np.abs(s.A).max()
        assert np.abs(b - s.b).max() <= 1e-12 * np.abs(s.b).max()

    @pytest.mark.parametrize("block", [False, True])
    def test_sliding_window_matches_batch_on_window(self, setup, block):
        # A window of m steps keeps the last m panels, i.e. samples k-m..k;
        # once earlier panels have expired, (A, b) is the batch trapezoid
        # assembly of those samples alone.
        basis, tr, centers = setup
        kern = oc.gaussian_rbf(10.0)
        m = 10
        st = fresh_stream(setup, window=m * tr.step)
        pushed = 0
        for k in (m + 1, m + 2, 37, 38, 64, tr.n_intervals):
            if block:
                oc.stream_push(st, tr.samples[pushed : k + 1])
            else:
                for i in range(pushed, k + 1):
                    oc.stream_push(st, tr.samples[i])
            pushed = k + 1
            A, b = oc.stream_matrices(st)
            inside = Trajectory(tr.samples[k - m : k + 1], tr.step)
            s = oc.assemble([inside], centers, basis, kern, "trapezoid")
            assert np.abs(A - s.A).max() < 1e-10
            assert np.abs(b - s.b).max() < 1e-10


class TestKnownPart:
    # emps_form carries a known part h: the stream subtracts its integral
    # from b exactly as the batch assembly does, in the growing and in the
    # sliding window.
    @pytest.mark.parametrize("window", [0.0, 0.3])
    def test_matches_batch_with_known_part(self, window):
        field, _, basis = oc.builtin_system("emps_form", control=lambda t: np.sin(3 * t))
        tr = oc.integrate_rk4(field, np.array([0.1, 0.0, 0.0]), 1.0, 1e-2)
        centers = oc.lattice_centers([(-1, 1), (-1, 1), (0, 1)], [1.0, 1.0, 0.5])
        kern = oc.gaussian_rbf(10.0)
        st = oc.new_stream(centers, basis, kern, tr.step, window=window)
        m = round(window / tr.step)
        pushed = 0
        for k in (12, 31, 32, 57, tr.n_intervals):
            oc.stream_push(st, tr.samples[pushed : k + 1])
            pushed = k + 1
            A, b = oc.stream_matrices(st)
            inside = Trajectory(tr.samples[max(0, k - m) if m else 0 : k + 1], tr.step)
            s = oc.assemble([inside], centers, basis, kern, "trapezoid")
            assert np.abs(A - s.A).max() < 1e-10
            assert np.abs(b - s.b).max() < 1e-10
        unknown = oc.assemble([inside], centers, replace(basis, known_part=None), kern, "trapezoid")
        assert np.abs(unknown.b - s.b).max() > 1e-3  # the known part is not negligible here


class TestGradientChase:
    def test_single_step_with_explicit_alpha(self, setup):
        st = fresh_stream(setup, alpha=0.05)
        _, tr, _ = setup
        oc.stream_push(st, tr.samples[:30])
        A, b = oc.stream_matrices(st)
        oc.gradient_chase_step(st)
        assert np.allclose(st.theta, 0.05 * (A.T @ b), atol=1e-14)

    def test_log_residual_decays_linearly(self):
        field, _, basis12 = oc.builtin_system("system1")
        basis = basis12.select([1, 4, 8, 9])
        tr = oc.integrate_rk4(field, np.array([0.5, -2.0]), 3.0, 1e-2)
        centers = oc.lattice_centers([(-1, 2), (-3, 3)], 1.0)
        st = oc.new_stream(centers, basis, oc.gaussian_rbf(2.0), tr.step)
        oc.stream_push(st, tr.samples)
        A, b = oc.stream_matrices(st)
        res = []
        for _ in range(220):
            oc.gradient_chase_step(st)
            res.append(np.linalg.norm(A @ st.theta - b))
        y = np.log(np.array(res[20:]))
        x = np.arange(y.size, dtype=float)
        coef = np.polyfit(x, y, 1)
        fit = np.polyval(coef, x)
        r2 = 1.0 - np.sum((y - fit) ** 2) / np.sum((y - y.mean()) ** 2)
        assert coef[0] < 0
        assert r2 > 0.99

    def test_divergence_reports_time(self, setup):
        st = fresh_stream(setup, alpha=1e12)
        _, tr, _ = setup
        oc.stream_push(st, tr.samples[:50])
        with pytest.raises(DivergenceError) as exc:
            for _ in range(50):
                oc.gradient_chase_step(st)
        assert exc.value.time_reached == pytest.approx(st.time)

    def test_nan_iterate_diverges(self, setup):
        basis, tr, _ = setup
        st = fresh_stream(setup, theta0=np.full(len(basis), np.nan))
        oc.stream_push(st, tr.samples[:2])
        with pytest.raises(DivergenceError, match="nan"):
            oc.gradient_chase_step(st)


# Entries of A: zero, or of magnitude 1e-3 to 1e3, so A^T A neither
# overflows nor underflows.
ENTRIES = one_of(just(0.0), floats(1e-3, 1e3), floats(-1e3, -1e-3))


class TestStepSize:
    def test_start_on_a_lower_eigenvector(self):
        # A^T A = [[1, -1/2], [-1/2, 1]], exactly: eigenvalues 1/2 and 3/2,
        # and (1, 1) / sqrt(2), a power iteration's natural start, is the
        # eigenvector of 1/2. A step of 2 = 3 / lambda_max diverges.
        A = np.array([[1.0, -0.5], [0.0, 0.5], [0.0, 0.5], [0.0, 0.5]])
        b = np.array([1.0, 0.0, 1.0, 2.0])
        alpha = _default_alpha(A, oc.gaussian_rbf(1.0))
        assert abs(alpha - 2.0 / 3.0) <= 1e-15
        theta = np.zeros(2)
        for _ in range(100):
            theta = theta - alpha * (A.T @ (A @ theta - b))
        np.testing.assert_allclose(theta, np.linalg.lstsq(A, b, rcond=None)[0], rtol=1e-12)

    @given(A=tuples(integers(1, 8), integers(1, 6)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=ENTRIES)))
    def test_inverse_of_the_largest_eigenvalue(self, A):
        kernel = oc.gaussian_rbf(1.0)
        lam = np.linalg.svd(A, compute_uv=False)[0] ** 2
        if lam == 0.0:
            assert _default_alpha(A, kernel) == 1.0
        else:
            assert abs(_default_alpha(A, kernel) * lam - 1.0) <= 1e-12
        assert _default_alpha(np.zeros_like(A), kernel) == 1.0

    def test_refreshed_after_every_push(self, setup):
        # criterion 11's prefix pushes
        _, tr, _ = setup
        st = fresh_stream(setup)
        rng = np.random.default_rng(1)
        pushed = 0
        for k in sorted(set(rng.integers(2, tr.samples.shape[0], size=20).tolist())):
            oc.stream_push(st, tr.samples[pushed: k + 1])
            pushed = k + 1
            A, _ = oc.stream_matrices(st)
            lam = np.linalg.svd(A, compute_uv=False)[0] ** 2
            assert st._auto_alpha == pytest.approx(1.0 / lam, rel=1e-12, abs=0)


class TestWindowTracking:
    def test_window_follows_parameter_switch(self):
        # xdot = theta x with theta flipping sign at t = 5; the windowed
        # system forgets the old regime, the growing one averages both.
        th1, th2, tsw, T, h = 0.3, -0.3, 5.0, 10.0, 0.01
        ts = np.arange(0.0, T + 1e-9, h)
        x = np.where(ts < tsw, np.exp(th1 * ts),
                     np.exp(th1 * tsw) * np.exp(th2 * (ts - tsw)))
        basis = oc.BasisSet(dim=1, functions=(lambda X: X,), labels=("x1",))
        centers = np.array([[0.5], [1.5], [3.0]])
        kern = oc.gaussian_rbf(2.0)
        win = oc.new_stream(centers, basis, kern, h, window=2.0)
        grow = oc.new_stream(centers, basis, kern, h)
        oc.stream_push(win, x[:, None])
        oc.stream_push(grow, x[:, None])
        Aw, bw = oc.stream_matrices(win)
        Ag, bg = oc.stream_matrices(grow)
        th_w = np.linalg.lstsq(Aw, bw, rcond=None)[0][0]
        th_g = np.linalg.lstsq(Ag, bg, rcond=None)[0][0]
        assert abs(th_w - th2) < 1e-2
        assert abs(th_g - th2) >= 1e-2


class TestGridTimes:
    def test_consistent_times_accepted(self, setup):
        st = fresh_stream(setup)
        _, tr, _ = setup
        ts = 7.0 + np.arange(5) * tr.step
        oc.stream_push(st, tr.samples[:5], times=ts)
        assert st.t0 == pytest.approx(7.0)
        assert st.time == pytest.approx(7.0 + 4 * tr.step)

    def test_discontinuity_rejected(self, setup):
        st = fresh_stream(setup)
        _, tr, _ = setup
        oc.stream_push(st, tr.samples[:3], times=np.arange(3) * tr.step)
        with pytest.raises(ValueError, match="grid discontinuity"):
            oc.stream_push(st, tr.samples[3], times=[10 * tr.step])

    def test_times_shape_checked(self, setup):
        st = fresh_stream(setup)
        _, tr, _ = setup
        with pytest.raises(ValueError):
            oc.stream_push(st, tr.samples[:3], times=np.zeros(2))


class TestContinuity:
    def snaps(self, setup, stride):
        basis, tr, centers = setup
        st = oc.new_stream(centers, basis, oc.gaussian_rbf(10.0), tr.step)
        out = []
        for i in range(tr.samples.shape[0]):
            oc.stream_push(st, tr.samples[i])
            if i % stride == 0:
                out.append(oc.snapshot(st))
        return out

    def test_excludes_rank_deficient_prefix(self, setup):
        snaps = self.snaps(setup, 20)
        rep = oc.track_continuity(snaps)
        assert rep.first_full_rank_index > 0
        assert rep.n_snapshots_used == len(snaps) - rep.first_full_rank_index
        assert rep.max_delta_A > 0
        assert rep.max_delta_theta > 0

    def test_finer_snapshots_move_less(self, setup):
        coarse = oc.track_continuity(self.snaps(setup, 20))
        fine = oc.track_continuity(self.snaps(setup, 10))
        assert fine.max_delta_A < coarse.max_delta_A

    def test_requires_two_usable(self, setup):
        snaps = self.snaps(setup, 20)
        with pytest.raises(ValueError):
            oc.track_continuity(snaps[:1])
        with pytest.raises(ValueError):
            oc.track_continuity([])

    def test_snapshot_immutable(self, setup):
        snap = self.snaps(setup, 50)[0]
        with pytest.raises(ValueError):
            snap.A[0, 0] = 1.0
