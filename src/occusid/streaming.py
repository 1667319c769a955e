"""Incremental constraint maintenance and online parameter tracking.

Samples arrive one or more at a time on the same uniform grid the batch
pipeline uses. Each new sample closes a panel [t_k, t_k+1] whose trapezoid
contribution is added to the running constraint matrix, so at any moment the
growing-window state equals the batch assembly (trapezoid rule) on the data
seen so far. One accumulator sums the rows of the basis fields and of the
known part (sysid._fields); matrices() splits off the known column and
rebuilds the right side from the current endpoints as Psi(gamma(t)) -
Psi(gamma(0)) minus it, with no other integral.

The sample index is the stream's one clock: sample k is at t0 + k h. A window
s keeps the last keep = ceil(s / h - GRID_RTOL) panels in a ring and subtracts
the oldest when a newer one arrives, yielding the sliding-window system
B(t) = A(t) - A(t - s) that lets the tracker follow parameters that change;
a window of 0 or infinity grows.

The tracker itself is plain gradient descent on 1/2 ||A theta - b||^2, one
step per push by convention; its default step size is 1/lambda_max(A^T A),
recomputed after each push by one symmetric eigensolve of the M x M matrix.

The kernel's side of the centers is prepared once, when the stream is made
(kernels module docstring). Each sample then makes two kernel calls against
it: its constraint rows (assemble_block_multi) and psi (Kernel.matrix).

Streaming uses trapezoid panels only. A panel needs just the two bounding
samples, arrives complete, and never has to be revised; the cost is dropping
from O(h^4) to O(h^2) accuracy relative to a batch Simpson assembly, which
the batch path remains available for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import BasisSet
from .errors import DivergenceError
from .kernels import _center_set
from .sysid import _fields, _known_split, _require_finite, _svd_solve
from .trajectory import GRID_RTOL, _by_constructor, _finite, _freeze, _real, off_grid


# The one quadrature weight of a sample's rows: each panel applies h / 2 itself.
_UNIT_WEIGHT = (_freeze(np.ones(1)),)


class StreamState:
    """Single-writer state for one streamed trajectory.

    Mutated in place by stream_push and gradient_chase_step (both also
    return the state for chaining); snapshot() takes immutable copies for
    later continuity analysis. The step is finite and > 0. A window keeps
    the last max(1, ceil(window / step - GRID_RTOL)) panels, and time is
    t0 + (n_samples - 1) step: both come from the sample index.
    """

    def __init__(self, centers, basis: BasisSet, kernel, step: float, window: float = 0.0,
                 alpha: float | None = None, theta0=None):
        self.centers = _center_set(centers, basis.dim)
        self.step = _real(step, "step", "finite and positive")
        self.window = _real(window, "window", ">= 0")
        self.alpha = None if alpha is None else _real(alpha, "alpha", "finite and >= 0")
        self.basis = basis
        self.kernel = kernel
        self._centers = kernel._prepare(self.centers)  # the centers' side of every kernel pass
        ratio = self.window / self.step  # keep 0 grows: window 0 or inf
        self._keep = max(1, int(np.ceil(ratio - GRID_RTOL))) if 0 < ratio < np.inf else 0
        M, S = len(basis), self.centers.shape[0]
        self.theta = np.zeros(M) if theta0 is None else np.asarray(theta0, dtype=float).copy()
        if self.theta.shape != (M,):
            raise ValueError(f"theta0 must have shape ({M},)")
        _finite("theta0", self.theta)
        self.time = 0.0
        self.t0 = None
        self.n_samples = 0
        self._prev_rows = None  # (S, M') rows of the last sample, known column included
        # psi(x) = [K(x, c_s)]_s at the window's right end and at its left end
        # (the first sample, or the right end of the last expired panel).
        self._psi_last = None
        self._psi_left = None
        # Panel sums over the active window, (S, M') with the known part as
        # column M when there is one; with window 0 nothing expires.
        self._acc = np.zeros((S, M + (basis.known_part is not None)))
        # Ring of (panel, psi of the right end).
        self._panels = deque()
        self._auto_alpha = 1.0

    # -- derived views ------------------------------------------------------

    def matrices(self):
        """Current (A, b) of the active window as fresh arrays."""
        A, known = _known_split(self._acc, len(self.basis))
        b = np.zeros(len(A)) if self.n_samples == 0 else self._psi_last - self._psi_left - known
        return A.copy(), b


def new_stream(centers, basis: BasisSet, kernel, step: float, window: float = 0.0,
               alpha: float | None = None, theta0=None) -> StreamState:
    return StreamState(centers, basis, kernel, step, window=window, alpha=alpha, theta0=theta0)


def stream_push(state: StreamState, samples, times=None) -> StreamState:
    """Append samples that continue the uniform grid; update accumulators.

    times, when given, are the absolute sample times, checked against the
    grid value t0 + k h of sample k (the first sample ever seen sets t0); a
    time that is `off_grid` is a grid discontinuity error. The state's time
    is that grid value of its last sample, and a window keeps the last
    ceil(window / h - GRID_RTOL) panels. Non-finite samples or times are a
    ValueError and a kernel row that overflows a DivergenceError. Every
    sample's time and kernel rows are checked before the first sample
    changes the state, so a rejected push leaves it as it was. One check
    runs after the samples are in: a system whose A^T A overflows is a
    DivergenceError, with the samples pushed.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != state.basis.dim:
        raise ValueError(f"samples have dimension {samples.shape[1]}, expected {state.basis.dim}")
    _finite("samples", samples)
    if times is not None:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.shape != (samples.shape[0],):
            raise ValueError("one time per sample required")
        _finite("times", times)
    h = state.step
    checked = []  # (rows, psi) per sample
    for q, x in enumerate(samples):
        if times is not None:
            t_expect = (times[0] if state.t0 is None else state.t0) + (state.n_samples + q) * h
            if off_grid(times[q], t_expect, h):
                raise ValueError(
                    f"grid discontinuity: got time {float(times[q])!r}, "
                    f"expected {float(t_expect)!r}"
                )
        # grad1(x, c_s) against every basis field, and against the known part
        X = x[None]
        [rows] = state.kernel.assemble_block_multi(X, state._centers, _fields(state.basis, X),
                                                   _UNIT_WEIGHT)
        psi = state.kernel.matrix(X, state._centers)[0]
        _require_finite(state.kernel, rows, psi)
        checked.append((rows, psi))
    for q, (rows, psi) in enumerate(checked):
        if state.n_samples == 0:
            state.t0 = 0.0 if times is None else float(times[q])
            state._psi_left = psi
        else:
            panel = (h / 2.0) * (state._prev_rows + rows)
            state._acc += panel
            if state._keep:
                state._panels.append((panel, psi))
                if len(state._panels) > state._keep:
                    old, state._psi_left = state._panels.popleft()
                    state._acc -= old
        state._psi_last = psi
        state._prev_rows = rows
        state.time = state.t0 + state.n_samples * h
        state.n_samples += 1
    # reads the accumulator's parameter block in place; matrices() would copy it
    A = _known_split(state._acc, len(state.basis))[0]
    state._auto_alpha = _default_alpha(A, state.kernel)
    return state


def stream_matrices(state: StreamState):
    """The active (A, b): windowed when a window is set, else the full prefix."""
    return state.matrices()


def _default_alpha(A: np.ndarray, kernel) -> float:
    """1 / lambda_max(A^T A) from one symmetric eigensolve; 1 when A = 0.

    Finite entries of A can still square past the float range (kernel values
    near 1e154 and above); that is the kernel's overflow, reported as such.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        B = A.T @ A
    _require_finite(kernel, B)
    lam = float(np.linalg.eigvalsh(B)[-1])
    return 1.0 / lam if lam > 0 else 1.0


def gradient_chase_step(state: StreamState) -> StreamState:
    """One gradient step theta <- theta - alpha A^T (A theta - b)."""
    A, b = state.matrices()
    alpha = state.alpha if state.alpha is not None else state._auto_alpha
    state.theta = state.theta - alpha * (A.T @ (A @ state.theta - b))
    norm = np.linalg.norm(state.theta)
    if not norm <= 1e6:
        raise DivergenceError(
            f"parameter iterate reached norm {norm:.3g} (limit 1e6); "
            "the step size is too large for this system",
            time_reached=state.time,
        )
    return state


@dataclass(frozen=True)
class StreamSnapshot:
    """Immutable copy of the stream's system and iterate at one time."""

    time: float
    A: np.ndarray
    b: np.ndarray
    theta: np.ndarray

    __reduce__ = _by_constructor

    def __post_init__(self):
        for name in ("A", "b", "theta"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def snapshot(state: StreamState) -> StreamSnapshot:
    return StreamSnapshot(state.time, *state.matrices(), state.theta)


class ContinuityReport(NamedTuple):
    max_delta_A: float
    max_delta_theta: float
    first_full_rank_index: int
    n_snapshots_used: int


def track_continuity(snapshots, rcond: float = 1e-12) -> ContinuityReport:
    """Largest consecutive jumps of A(t) and of the exact LS estimate.

    Each snapshot's rank and estimate come from one truncated SVD. Snapshots
    taken before A reaches full column rank are excluded (the least-squares
    minimizer is not unique there); at least two snapshots past that onset
    are required.
    """
    snaps = list(snapshots)
    if not snaps:
        raise ValueError("no snapshots given")
    M = snaps[0].A.shape[1]
    solved = [_svd_solve(s.A, s.b, rcond) for s in snaps]
    ranks = [rank for _, _, rank, _ in solved]
    onset = ranks.index(M) if M in ranks else len(snaps)
    if len(snaps) - onset < 2:
        raise ValueError("need at least 2 snapshots after full-rank onset")
    A = [s.A for s in snaps[onset:]]
    theta = [th for th, _, _, _ in solved[onset:]]
    return ContinuityReport(
        max(float(np.linalg.norm(a1 - a0)) for a0, a1 in zip(A, A[1:])),
        max(float(np.linalg.norm(t1 - t0)) for t0, t1 in zip(theta, theta[1:])),
        onset,
        len(A),
    )
