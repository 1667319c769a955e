import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import occusid as oc
from occusid import trajectory
from occusid.errors import TrajectoryParseError
from occusid.trajectory import GRID_RTOL, Trajectory


def ramp(n=11, dim=2, h=0.1):
    t = np.arange(n) * h
    return Trajectory(np.stack([t + d for d in range(dim)], axis=1), h)


class TestTrajectory:
    def test_basic_properties(self):
        tr = ramp(11, 2, 0.1)
        assert tr.dim == 2
        assert tr.n_samples == 11
        assert tr.n_intervals == 10
        assert tr.duration == pytest.approx(1.0)
        assert np.allclose(tr.times(), np.arange(11) * 0.1)
        assert np.allclose(tr.initial, [0.0, 1.0])
        assert np.allclose(tr.final, [1.0, 2.0])

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((2, 1)), 0.1)

    def test_requires_positive_step(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((5, 1)), 0.0)

    @pytest.mark.parametrize("samples, message", [
        (np.zeros(5), r"samples must be 2-D, got shape \(5,\)"),
        (np.array([[0.0], [np.inf], [1.0]]), "trajectory samples must be finite"),
    ], ids=["1-D", "infinite"])
    def test_malformed_samples_are_named(self, samples, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Trajectory(samples, 0.1)

    def test_samples_read_only(self):
        tr = ramp()
        with pytest.raises(ValueError):
            tr.samples[0, 0] = 99.0

    def test_1d_column_shape(self):
        tr = Trajectory(np.arange(4.0)[:, None], 0.5)
        assert tr.dim == 1


class TestSegment:
    def test_shared_boundaries(self):
        tr = ramp(11)
        parts = oc.segment(tr, 2)
        assert len(parts) == 2
        assert np.array_equal(parts[0].samples[-1], parts[1].samples[0])

    def test_remainder_goes_to_earlier_segments(self):
        # 10 intervals over 3 parts: 4, 3, 3
        tr = ramp(11)
        parts = oc.segment(tr, 3)
        assert [p.n_intervals for p in parts] == [4, 3, 3]

    @pytest.mark.parametrize("pieces, message", [
        (lambda tr: [], "nothing to concatenate"),
        (lambda tr: [tr, Trajectory(tr.samples, 2 * tr.step)], "segments have mismatched steps"),
        (lambda tr: [tr, tr], "segments do not share boundary samples"),
    ], ids=["empty", "steps", "boundary"])
    def test_concatenate_needs_contiguous_segments(self, pieces, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            oc.concatenate(pieces(ramp(5)))

    def test_each_segment_at_least_two_intervals(self):
        tr = ramp(7)  # 6 intervals
        with pytest.raises(ValueError):
            oc.segment(tr, 4)  # would give a 1-interval segment

    def test_segment_concatenate_roundtrip_bitwise(self):
        tr = ramp(23, 3, 0.05)
        parts = oc.segment(tr, 4)
        back = oc.concatenate(parts)
        assert np.array_equal(back.samples, tr.samples)
        assert back.step == tr.step

    @given(
        n_intervals=st.integers(min_value=6, max_value=60),
        parts=st.integers(min_value=1, max_value=5),
    )
    def test_segment_concatenate_property(self, n_intervals, parts):
        if n_intervals < 2 * parts:
            return
        rng = np.random.default_rng(n_intervals * 7 + parts)
        tr = Trajectory(rng.normal(size=(n_intervals + 1, 2)), 0.01)
        segs = oc.segment(tr, parts) if parts > 1 else [tr]
        assert sum(p.n_intervals for p in segs) == n_intervals
        back = oc.concatenate(segs)
        assert np.array_equal(back.samples, tr.samples)


class TestNoise:
    def test_zero_sigma_identity(self):
        tr = ramp()
        out = oc.add_measurement_noise(tr, 0.0, 3)
        assert np.array_equal(out.samples, tr.samples)

    def test_deterministic(self):
        tr = ramp()
        a = oc.add_measurement_noise(tr, 0.01, 5)
        b = oc.add_measurement_noise(tr, 0.01, 5)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_std_matches_sigma(self):
        tr = Trajectory(np.zeros((100_000, 1)), 0.001)
        out = oc.add_measurement_noise(tr, 0.01, 11)
        assert np.std(out.samples) == pytest.approx(0.01, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            oc.add_measurement_noise(ramp(), -0.1, 0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_is_named(self, sigma):
        # not blamed on the noisy samples it would make
        with pytest.raises(ValueError, match="^sigma must be finite"):
            oc.add_measurement_noise(ramp(), sigma, 0)

    def test_bool_sigma_is_not_a_number(self):
        # True would be taken as sigma = 1
        with pytest.raises(ValueError, match="^sigma must be finite and >= 0, got True$"):
            oc.add_measurement_noise(ramp(), True, 1)


class TestMovingAverage:
    def test_window_one_identity(self):
        tr = ramp()
        assert np.array_equal(oc.moving_average(tr, 1).samples, tr.samples)

    def test_constant_unchanged(self):
        tr = Trajectory(np.full((9, 2), 3.5), 0.1)
        assert np.allclose(oc.moving_average(tr, 4).samples, 3.5)

    def test_trailing_definition(self):
        # row k averages rows max(0, k-w+1)..k
        x = np.arange(6.0)[:, None]
        out = oc.moving_average(Trajectory(x, 0.1), 3).samples[:, 0]
        expect = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
        assert np.allclose(out, expect)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        xa = rng.normal(size=(40, 2))
        xb = rng.normal(size=(40, 2))
        fa = oc.moving_average(Trajectory(xa, 0.1), 7).samples
        fb = oc.moving_average(Trajectory(xb, 0.1), 7).samples
        fab = oc.moving_average(Trajectory(2.0 * xa - 0.5 * xb, 0.1), 7).samples
        assert np.allclose(fab, 2.0 * fa - 0.5 * fb, rtol=1e-12, atol=1e-12)

    @given(w=st.integers(min_value=1, max_value=12), seed=st.integers(0, 100))
    def test_linearity_property(self, w, seed):
        rng = np.random.default_rng(seed)
        xa = rng.normal(size=(25, 1))
        xb = rng.normal(size=(25, 1))
        fa = oc.moving_average(Trajectory(xa, 0.1), w).samples
        fb = oc.moving_average(Trajectory(xb, 0.1), w).samples
        fab = oc.moving_average(Trajectory(xa + xb, 0.1), w).samples
        assert np.allclose(fab, fa + fb, rtol=1e-12, atol=1e-12)

    def test_noise_reduction_factor(self):
        w = 16
        tr = Trajectory(np.zeros((100_000, 1)), 0.001)
        noisy = oc.add_measurement_noise(tr, 1.0, 2)
        filt = oc.moving_average(noisy, w)
        # skip the startup rows where the window is still shrinking
        ratio = np.std(filt.samples[w:]) / np.std(noisy.samples[w:])
        assert ratio == pytest.approx(1.0 / np.sqrt(w), rel=0.2)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            oc.moving_average(ramp(), 0)


class TestSubsample:
    def test_values_and_step(self):
        tr = ramp(11, 1, 0.1)
        out = oc.subsample(tr, 2)
        assert out.step == pytest.approx(0.2)
        assert np.array_equal(out.samples, tr.samples[::2])

    def test_stride_must_divide(self):
        with pytest.raises(ValueError):
            oc.subsample(ramp(11), 3)  # 10 intervals, stride 3


@pytest.mark.parametrize("call, message", [
    (lambda tr: oc.segment(tr, 2.5), "parts must be an integer >= 1, got 2.5"),
    (lambda tr: oc.segment(tr, True), "parts must be an integer >= 1, got True"),
    (lambda tr: oc.moving_average(tr, 2.5), "window must be an integer >= 1, got 2.5"),
    (lambda tr: oc.moving_average(tr, True), "window must be an integer >= 1, got True"),
    (lambda tr: oc.subsample(tr, 2.5), "stride must be an integer >= 1, got 2.5"),
    (lambda tr: oc.subsample(tr, True), "stride must be an integer >= 1, got True"),
], ids=["segment-fraction", "segment-bool", "moving-average-fraction", "moving-average-bool",
        "subsample-fraction", "subsample-bool"])
def test_count_argument_is_an_integer_not_a_bool(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(ramp(11))


class TestCsv:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        tr = Trajectory(rng.normal(size=(17, 3)), 0.01)
        path = tmp_path / "tr.csv"
        oc.save_csv(tr, path)
        back = oc.load_csv(path)
        assert np.array_equal(back.samples, tr.samples)
        assert back.step == tr.step

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bytes_match_per_row_formatting(self, tmp_path, n):
        # the reference is a per-row f-string writer: `t,x1,...` then one
        # `{v:.17g}` cell per value
        rng = np.random.default_rng(n)
        samples = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-300, 300, size=(9, n))
        samples.flat[:6] = [-0.0, 5e-324, 1e-310, 1e300, -1e300, 0.1]
        tr = Trajectory(samples, 0.037)
        path = tmp_path / "tr.csv"
        oc.save_csv(tr, path)
        lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
        lines += [",".join(f"{v:.17g}" for v in (k * tr.step, *tr.samples[k]))
                  for k in range(tr.n_samples)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = oc.load_csv(path)  # and reads back to the same bits, zero signs included
        assert back.samples.tobytes() == tr.samples.tobytes()
        assert back.step == tr.step

    def test_header_format(self, tmp_path):
        path = tmp_path / "tr.csv"
        oc.save_csv(ramp(5, 2), path)
        first = path.read_text().splitlines()[0]
        assert first == "t,x1,x2"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x1\n0,1\n0.1,2\n0.2,3\n")
        with pytest.raises(TrajectoryParseError):
            oc.load_csv(path)

    def test_state_columns_must_be_x1_to_xn(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x2,x1\n0,1,2\n0.1,2,3\n0.2,3,4\n")
        with pytest.raises(TrajectoryParseError,
                           match="state columns must be x1,x2, got x2,x1$") as exc:
            oc.load_csv(path)
        assert exc.value.line == 1

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n0.1,oops\n0.2,3\n")
        with pytest.raises(TrajectoryParseError) as exc:
            oc.load_csv(path)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    @pytest.mark.parametrize("route", ["loadtxt", "rows"])
    @pytest.mark.parametrize("text, line, message", [
        ("t,x1,x2\n0,1,2\n0.1,nan,2\n0.2,1,2\n", 3, "x1 must be finite, got nan"),
        ("t,x1,x2\n0,1,2\n\n0.1,1,2\n\n0.2,1,-inf\n0.3,inf,1\n", 6,
         "x2 must be finite, got -inf"),
        ("t,x1\n0,1\n\n0.1,2\n\nnan,3\n0.3,4\n", 6, "time nan deviates"),
    ], ids=["nan-state", "inf-state-after-blank-lines", "nan-time-after-blank-lines"])
    def test_non_finite_value_names_its_line(self, tmp_path, monkeypatch, route, text, line,
                                             message):
        if route == "rows":
            monkeypatch.setattr(trajectory, "_c_parsed", lambda fh, text: None)
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(TrajectoryParseError, match=message) as exc:
            oc.load_csv(path)
        assert exc.value.line == line

    def test_nonuniform_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n0.1,2\n0.3,3\n")  # jump of 2h
        with pytest.raises(TrajectoryParseError):
            oc.load_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x1\n0,1\n0.1,2\n")
        with pytest.raises(TrajectoryParseError):
            oc.load_csv(path)

    def test_grid_tolerance_accepts_roundoff(self, tmp_path):
        h = 0.1
        ts = np.arange(5) * h
        ts[3] += 0.5 * GRID_RTOL * h
        lines = ["t,x1"] + [f"{t:.17g},{i}" for i, t in enumerate(ts)]
        path = tmp_path / "ok.csv"
        path.write_text("\n".join(lines) + "\n")
        tr = oc.load_csv(path)
        assert tr.n_samples == 5


class TestLargeOrigin:
    # Far from the origin t[1] - t[0] carries the rounding of both times, and
    # a grid built from it drifted off rows that lie on the true grid.
    @staticmethod
    def _write(path, times):
        path.write_text("t,x1\n" + "".join(f"{t:.17g},{i}\n" for i, t in enumerate(times)))

    @pytest.mark.parametrize("t0, h, n", [(1e6, 0.1, 1001), (12345.678, 1e-3, 100_001)])
    def test_on_grid_file_loads_with_fitted_step(self, tmp_path, t0, h, n):
        times = t0 + np.arange(n) * h
        path = tmp_path / "far.csv"
        self._write(path, times)
        tr = oc.load_csv(path)
        assert tr.n_samples == n
        assert abs(tr.step - h) <= GRID_RTOL * h
        assert tr.step == (times[-1] - times[0]) / (n - 1)

    def test_missed_step_still_rejected_with_plain_numbers(self, tmp_path):
        times = 1e6 + np.arange(1001) * 0.1
        times[500:] += 0.1  # one missing row
        path = tmp_path / "gap.csv"
        self._write(path, times)
        with pytest.raises(TrajectoryParseError) as exc:
            oc.load_csv(path)
        assert "np.float64" not in str(exc.value)

    def test_nan_time_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,x1\n0,1\n0.1,2\nnan,3\n0.3,4\n")
        with pytest.raises(TrajectoryParseError) as exc:
            oc.load_csv(path)
        assert exc.value.line == 4

    @pytest.mark.parametrize("h, n", [(7e-4, 201), (1e-3, 100_001)])
    def test_save_load_keeps_step_bitwise(self, tmp_path, h, n):
        tr = Trajectory(np.linspace(0.0, 1.0, n)[:, None], h)
        path = tmp_path / "rt.csv"
        oc.save_csv(tr, path)
        back = oc.load_csv(path)
        assert back.step == h
        assert np.array_equal(back.samples, tr.samples)


class TestGridRule:
    # load_csv and stream_push share one on-grid rule (off_grid); far from
    # the origin a step-relative slack alone rejected rounded times, and a
    # |t|-relative one accepted whole steps of error.
    CASES = [
        # (t0, h, offset of the 4th time in steps, accepted)
        (0.0, 0.1, 0.0, True),
        (0.0, 0.1, 0.5 * GRID_RTOL, True),
        (0.0, 0.1, 10 * GRID_RTOL, False),
        (0.0, 0.1, 0.5, False),
        (1e6, 0.25, 0.0, True),
        (1e6, 0.25, 4e-6, False),
        (1e6, 0.1, 0.0, True),
        (1e6, 0.1, 1e-4, False),
        (1e9, 0.5, 0.0, True),
        (1e9, 0.5, 0.01, False),
    ]

    @staticmethod
    def _csv_accepts(tmp_path, times):
        lines = ["t,x1"] + [f"{t:.17g},{i}" for i, t in enumerate(times)]
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        try:
            oc.load_csv(path)
        except TrajectoryParseError:
            return False
        return True

    @staticmethod
    def _stream_accepts(times, h):
        basis = oc.BasisSet(dim=1, functions=(lambda X: X,), labels=("x1",))
        st = oc.new_stream(np.array([[0.0]]), basis, oc.gaussian_rbf(1.0), h)
        try:
            oc.stream_push(st, np.arange(len(times), dtype=float)[:, None], times=times)
        except ValueError:
            return False
        return True

    @pytest.mark.parametrize("t0, h, offset, accepted", CASES)
    def test_both_paths_agree(self, tmp_path, t0, h, offset, accepted):
        times = t0 + np.arange(5) * h
        times[3] += offset * h
        assert self._csv_accepts(tmp_path, times) == accepted
        assert self._stream_accepts(times, h) == accepted


class TestTrajectorySet:
    def test_as_trajectory_set(self):
        trs = [ramp(5), ramp(7)]
        ts = oc.as_trajectory_set(trs)
        assert isinstance(ts, oc.TrajectorySet)
        assert len(ts.trajectories) == 2
        same = oc.as_trajectory_set(ts)
        assert same is ts
        one = oc.as_trajectory_set(trs[0])
        assert len(one) == 1 and one[0] is trs[0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^TrajectorySet cannot be empty$"):
            oc.as_trajectory_set([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            oc.as_trajectory_set([ramp(5, 1), ramp(5, 2)])
