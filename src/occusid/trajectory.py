"""Uniformly sampled trajectories and the operations that prepare them.

A trajectory is the raw material of every identification routine here:
samples of a single continuous path on a uniform time grid. Instances are
immutable after construction (their samples are a private read-only copy),
so they can be shared freely between threads and across assembled systems.

The module owns the package's CSV format: load_csv reads it, and _write_csv
writes every file the package writes, each number as FMT (17 significant
digits), so a written trajectory reads back to the same doubles.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import TrajectoryParseError

# Relative slack allowed when checking a time column against a uniform grid.
GRID_RTOL = 1e-9


def off_grid(t, t_grid, h):
    """True where a sample time t misses its grid value t_grid (grid step h).

    The allowed deviation is GRID_RTOL of one step plus four units in the last
    place of t_grid: far from the origin the times carry that much rounding
    themselves, while a step-relative slack alone would reject them and a
    |t|-relative one would accept whole missed steps. A NaN time is off the grid.
    """
    return ~(np.abs(t - t_grid) <= GRID_RTOL * h + 4.0 * np.spacing(np.abs(t_grid)))


def _freeze(a, dtype=float) -> np.ndarray:
    """A read-only copy of a (floats; dtype=None keeps a's): how every value type keeps an array."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _by_constructor(self):
    """A value type's __reduce__: pickle and copy rebuild it through its constructor.

    The constructor freezes each kept array again; numpy unpickles arrays writable.
    """
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _is_count(v, least=0, stop=math.inf) -> bool:
    """Whether v is an integer (bool excluded) in [least, stop): the one integer rule."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and least <= v < stop


def _count(v, name: str, least: int = 0) -> None:
    """A ValueError naming the argument unless _is_count(v, least)."""
    if not _is_count(v, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def _is_real(v) -> bool:
    """Whether v is a real number (bool excluded): the one number rule."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


_BIG = float(np.finfo(float).max)
# The ranges _real checks, keyed by the words its errors use: each is a closed
# interval [least, most] of doubles; positive starts at the smallest positive double.
_RANGES = {"finite": (-_BIG, _BIG), "finite and positive": (5e-324, _BIG),
           "finite and >= 0": (0.0, _BIG), ">= 0": (0.0, math.inf), "in [0, 1]": (0.0, 1.0)}


def _real(v, name: str, within: str = "finite") -> float:
    """v as a float, when it is a real number (_is_real, written out so that a
    check is one call) in the range _RANGES[within]; else a ValueError naming it."""
    least, most = _RANGES[within]
    if isinstance(v, bool) or not (isinstance(v, numbers.Real) and least <= float(v) <= most):
        raise ValueError(f"{name} must be {within}, got {v!r}")
    return float(v)


def _finite(what: str, *arrays) -> None:
    """A ValueError, "{what} must be finite", unless every entry of the arrays is."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{what} must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Samples of one path: `samples[k]` is the state at time k*step.

    samples : (F+1, n) array, F >= 2, all entries finite.
    step    : finite, positive sample spacing in time, kept as a float.
    """

    samples: np.ndarray
    step: float

    __reduce__ = _by_constructor

    def __post_init__(self):
        samples = _freeze(self.samples)
        if samples.ndim != 2:
            raise ValueError(f"samples must be 2-D, got shape {samples.shape}")
        if samples.shape[0] < 3:
            raise ValueError(
                f"trajectory needs at least 3 samples (2 intervals), got {samples.shape[0]}"
            )
        _finite("trajectory samples", samples)
        object.__setattr__(self, "step", _real(self.step, "step", "finite and positive"))
        object.__setattr__(self, "samples", samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_intervals(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def duration(self) -> float:
        return self.n_intervals * self.step

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.step

    @property
    def initial(self) -> np.ndarray:
        return self.samples[0]

    @property
    def final(self) -> np.ndarray:
        return self.samples[-1]


@dataclass(frozen=True)
class TrajectorySet:
    """Ordered collection of trajectories with a common state dimension."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("TrajectorySet cannot be empty")
        dims = {t.dim for t in trajs}
        if len(dims) != 1:
            raise ValueError(f"mixed state dimensions in TrajectorySet: {sorted(dims)}")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def dim(self) -> int:
        return self.trajectories[0].dim

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)

    def __getitem__(self, i) -> Trajectory:
        return self.trajectories[i]


def as_trajectory_set(trajs) -> TrajectorySet:
    if isinstance(trajs, TrajectorySet):
        return trajs
    if isinstance(trajs, Trajectory):
        return TrajectorySet((trajs,))
    return TrajectorySet(tuple(trajs))


def segment(traj: Trajectory, parts: int) -> TrajectorySet:
    """Split a trajectory into `parts` contiguous pieces sharing boundary samples.

    Intervals are distributed as evenly as possible (earlier segments take the
    remainder). Every segment must keep at least 2 intervals so that it is a
    valid Trajectory on its own.
    """
    _count(parts, "parts", 1)
    F = traj.n_intervals
    base, rem = divmod(F, parts)
    if base < 2:
        raise ValueError(
            f"cannot split {traj.n_samples} samples into {parts} segments of >= 2 intervals"
        )
    pieces = []
    start = 0
    for k in range(parts):
        length = base + (1 if k < rem else 0)
        stop = start + length
        pieces.append(Trajectory(traj.samples[start : stop + 1], traj.step))
        start = stop
    return TrajectorySet(tuple(pieces))


def add_measurement_noise(traj: Trajectory, sigma: float, seed: int) -> Trajectory:
    """Corrupt every sample with i.i.d. N(0, sigma^2) noise per coordinate."""
    if _real(sigma, "sigma", "finite and >= 0") == 0:
        return traj
    rng = np.random.default_rng(seed)
    noisy = traj.samples + rng.normal(0.0, sigma, size=traj.samples.shape)
    return Trajectory(noisy, traj.step)


def moving_average(traj: Trajectory, window: int) -> Trajectory:
    """Trailing moving average: row k averages rows max(0, k-window+1)..k.

    The window shrinks at the start of the record so the output has the same
    length and grid as the input; the filter is causal.
    """
    _count(window, "window", 1)
    x = traj.samples
    if window == 1:
        return traj
    w = min(window, x.shape[0])
    out = np.empty_like(x)
    # Startup rows: shrinking window via running mean.
    csum = np.cumsum(x[: w - 1], axis=0)
    out[: w - 1] = csum / np.arange(1, w)[:, None]
    # Full windows: per-window sums keep roundoff at the window scale rather
    # than accumulating over the whole record.
    sw = np.lib.stride_tricks.sliding_window_view(x, w, axis=0)
    out[w - 1 :] = sw.mean(axis=2)
    return Trajectory(out, traj.step)


FMT = "%.17g"


def _cell(v) -> str:
    """One output cell: a string as is, None as an empty cell, a number as FMT."""
    return v if isinstance(v, str) else "" if v is None else FMT % v


# rows of a float table per % of the repeated row format. A block's floats and
# text are held at once, never the whole file's; 256 rows write as fast as
# 4096, whose 1 MB per block raised the peak RSS of `simulate` by 0.5 MB.
_BLOCK = 256


def _write_csv(path, header: str, rows, notes=()) -> None:
    """Write the header, a line of comma-joined _cell cells per row, then `# ` notes.

    rows is an iterable of rows, or a 2-D float ndarray, whose lines are the
    same text formatted _BLOCK rows at a time.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        if isinstance(rows, np.ndarray):
            line = ",".join([FMT] * rows.shape[1]) + "\n"
            for start in range(0, rows.shape[0], _BLOCK):
                block = rows[start:start + _BLOCK]
                fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))
        else:
            for row in rows:
                fh.write(",".join(map(_cell, row)) + "\n")
        for note in notes:
            fh.write(f"# {note}\n")


def save_csv(traj: Trajectory, path) -> None:
    """Write `t,x1,...,xn` rows, which load_csv reads back to the same doubles."""
    header = "t," + ",".join(f"x{i + 1}" for i in range(traj.dim))
    _write_csv(path, header, np.column_stack([traj.times(), traj.samples]))


def _parse_header(line: str) -> int:
    """State dimension n of a `t,x1,...,xn` header line; line 1 on error."""
    header = [c.strip() for c in line.split(",")]
    if len(header) < 2 or header[0] != "t":
        raise TrajectoryParseError(f"expected header 't,x1,...', got {line!r}", line=1)
    n = len(header) - 1
    expected = [f"x{i + 1}" for i in range(n)]
    if header[1:] != expected:
        raise TrajectoryParseError(
            f"state columns must be {','.join(expected)}, got {','.join(header[1:])}", line=1
        )
    return n


def _parse_rows(lines, n: int, first_lineno: int):
    """(times, states) of the `t,x1,...,xn` rows in lines; blank lines are skipped.

    first_lineno is the 1-based file line of lines[0], for error reports.
    """
    times = []
    rows = []
    for lineno, raw in enumerate(lines, start=first_lineno):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != n + 1:
            raise TrajectoryParseError(
                f"expected {n + 1} columns, got {len(cells)}", line=lineno
            )
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise TrajectoryParseError(str(exc), line=lineno) from None
        times.append(vals[0])
        rows.append(vals[1:])
    return times, rows


# Characters the two parsers treat differently: line breaks of str.splitlines
# that np.loadtxt does not split at (text mode has already turned "\r" and
# "\r\n" into "\n"), and \x1c-\x1f, which loadtxt strips from a cell as
# whitespace and float() does not.
_PARSERS_DIFFER = "\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"

_NOT_A_BREAK = re.compile("[^\n]")


def _lines(text: str):
    """text.splitlines(), lazily: whole lines are split about 64k characters at
    a time, so no list of every line is held."""
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + (1 << 16)) + 1 or len(text)
        yield from text[lo:hi].splitlines()
        lo = hi


def _c_parsed(lines, text: str):
    """The (N, n + 1) rows of a trajectory CSV read by numpy's C parser, or None.

    text is the file's contents and lines its lines, header first, in a form
    np.loadtxt reads: load_csv passes _lines(text), so the file is read and
    decoded once and its body is not copied. None, for _parse_rows to decide
    with its own messages, unless the text has none of _PARSERS_DIFFER, a
    valid header and a body of at least 3 rows of n + 1 numbers. Both
    parsers read a cell with PyOS_string_to_double, so every cell the C
    parser takes, float() takes to the same double; it rejects some that
    float() takes (`1_0`, non-ASCII digits, whitespace-only lines), and
    those files go to _parse_rows.
    """
    end = text.find("\n")
    # a body of line breaks alone would make loadtxt warn "input contained no
    # data"; the search stops at the body's first other character
    if end < 0 or not _NOT_A_BREAK.search(text, end) or any(c in text for c in _PARSERS_DIFFER):
        return None
    try:
        n = _parse_header(text[:end])
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, skiprows=1)
    except ValueError:  # TrajectoryParseError included
        return None
    return table if table.shape[0] >= 3 and table.shape[1] == n + 1 else None


def _data_line(text: str, j: int) -> int:
    """1-based file line of data row j; both parsers skip blank lines."""
    return [i for i, raw in enumerate(text.splitlines()[1:], start=2) if raw.strip()][j]


def load_csv(path) -> Trajectory:
    """Read a trajectory CSV written by save_csv (or produced externally).

    The header must be exactly `t,x1,...,xn`; no time may be `off_grid` on
    the uniform grid of the step t[1] - t[0], or, failing that, of the step
    fitted over all rows, (t[-1] - t[0]) / (N - 1), which is then the step
    returned; every state value must be finite. Errors report the offending
    1-based line number.

    The body is read by numpy's C parser (np.loadtxt); a file it does not
    read as at least 3 rows of n + 1 numbers is parsed row by row with
    float() instead, which accepts the same files and names the line at fault.
    """
    with open(path, "r") as fh:
        text = fh.read()
    table = _c_parsed(_lines(text), text)
    if table is not None:
        t, states = table[:, 0], table[:, 1:]
    else:
        lines = text.splitlines()
        if not lines:
            raise TrajectoryParseError("empty file", line=1)
        times, states = _parse_rows(lines[1:], _parse_header(lines[0]), 2)
        if len(states) < 3:
            raise TrajectoryParseError(
                f"need at least 3 data rows, got {len(states)}", line=len(lines)
            )
        t, states = np.array(times), np.array(states)
    h = t[1] - t[0]
    if h <= 0:
        raise TrajectoryParseError(f"time step must be positive, got {h}", line=_data_line(text, 1))
    k = np.arange(len(t))
    bad = np.nonzero(off_grid(t, t[0] + h * k, h))[0]
    # Far from the origin t[1] - t[0] carries the rounding of both times, so its
    # grid drifts; the step fitted over all rows does not.
    h_fit = (t[-1] - t[0]) / (len(t) - 1)
    if bad.size and off_grid(t, t[0] + h_fit * k, h_fit).any():
        j = int(bad[0])
        raise TrajectoryParseError(f"time {float(t[j])!r} deviates from the uniform grid "
                                   f"value {float(t[0] + h * j)!r}", line=_data_line(text, j))
    rows, cols = np.nonzero(~np.isfinite(states))
    if rows.size:
        j, c = int(rows[0]), int(cols[0])
        raise TrajectoryParseError(f"x{c + 1} must be finite, got {float(states[j, c])!r}",
                                   line=_data_line(text, j))
    return Trajectory(states, float(h_fit if bad.size else h))


def subsample(traj: Trajectory, stride: int) -> Trajectory:
    """Keep every stride-th sample. Requires stride to divide the interval count."""
    _count(stride, "stride", 1)
    if traj.n_intervals % stride != 0:
        raise ValueError(
            f"stride {stride} does not divide {traj.n_intervals} intervals"
        )
    return Trajectory(traj.samples[::stride], traj.step * stride)


def concatenate(pieces) -> Trajectory:
    """Rejoin contiguous segments that share boundary samples (inverse of segment)."""
    pieces = list(pieces)
    if not pieces:
        raise ValueError("nothing to concatenate")
    step = pieces[0].step
    parts = [pieces[0].samples]
    for prev, cur in zip(pieces, pieces[1:]):
        if cur.step != step:
            raise ValueError("segments have mismatched steps")
        if not np.array_equal(prev.samples[-1], cur.samples[0]):
            raise ValueError("segments do not share boundary samples")
        parts.append(cur.samples[1:])
    return Trajectory(np.vstack(parts), step)
