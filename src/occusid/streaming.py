"""Incremental constraint maintenance and online parameter tracking.

Samples arrive one or more at a time on the same uniform grid the batch
pipeline uses. Each new sample closes a panel [t_k, t_k+1] whose trapezoid
contribution is added to the running constraint matrix, so at any moment the
growing-window state equals the batch assembly (trapezoid rule) on the data
seen so far. The right side needs no integral at all: it is rebuilt from the
current endpoints as Psi(gamma(t)) - Psi(gamma(0)) minus the known-part
accumulator.

A positive window length keeps a ring of recent panel contributions and
subtracts those that expire, yielding the sliding-window system
B(t) = A(t) - A(t - s); this is what lets the tracker follow parameters that
change over time.

The tracker itself is plain gradient descent on 1/2 ||A theta - b||^2, one
step per push by convention; its default step size is re-estimated after
each push from a short power iteration on A^T A.

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
from .sysid import _svd_solve
from .trajectory import GRID_RTOL


class StreamState:
    """Single-writer state for one streamed trajectory.

    Mutated in place by stream_push and gradient_chase_step (both also
    return the state for chaining); snapshot() takes immutable copies for
    later continuity analysis.
    """

    def __init__(self, centers, basis: BasisSet, kernel, step: float, window: float = 0.0,
                 alpha: float | None = None, theta0=None):
        centers = np.atleast_2d(np.asarray(centers, dtype=float))
        if centers.shape[1] != basis.dim:
            raise ValueError(f"centers have dimension {centers.shape[1]}, expected {basis.dim}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        if window < 0:
            raise ValueError(f"window must be >= 0 (0 means growing), got {window}")
        if alpha is not None and alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.centers = centers
        self.basis = basis
        self.kernel = kernel
        self.step = float(step)
        self.window = float(window)
        self.alpha = None if alpha is None else float(alpha)
        M, S = len(basis), centers.shape[0]
        self.theta = np.zeros(M) if theta0 is None else np.asarray(theta0, dtype=float).copy()
        if self.theta.shape != (M,):
            raise ValueError(f"theta0 must have shape ({M},)")
        self.time = 0.0
        self.t0 = None
        self.n_samples = 0
        self.first_sample = None
        self.prev_sample = None
        self._prev_rows = None  # (S, M) and (S,) pieces of the last sample
        self.A_acc = np.zeros((S, M))
        self.known_acc = np.zeros(S)
        # Ring of (panel_A, panel_known, left_sample, end_time) for windowing.
        self._panels = deque() if window > 0 else None
        self.win_A = np.zeros((S, M)) if window > 0 else None
        self.win_known = np.zeros(S) if window > 0 else None
        self._auto_alpha = 1.0

    # -- derived views ------------------------------------------------------

    def _features(self, x) -> np.ndarray:
        return self.kernel.matrix(np.asarray(x, dtype=float)[None, :], self.centers)[0]

    def _sample_rows(self, x):
        """grad1(x, c_s) contracted with every basis function (and known part)."""
        pt = np.asarray(x, dtype=float)[None, :]
        Vs = self.basis.values(pt)  # (M, 1, n)
        kv = self.basis.known_values(pt)
        if kv is not None:
            Vs = np.concatenate([Vs, kv[None]], axis=0)
        blk = self.kernel.assemble_block(pt, self.centers, Vs, np.ones(1))
        if kv is not None:
            return blk[:, :-1], blk[:, -1]
        return blk, np.zeros(self.centers.shape[0])

    def matrices(self):
        """Current (A, b) of the active window as fresh arrays."""
        S = self.centers.shape[0]
        if self.n_samples == 0:
            return self.A_acc.copy(), np.zeros(S)
        cur = self._features(self.prev_sample)
        if self.window > 0:
            left = self._panels[0][2] if self._panels else self.prev_sample
            b = cur - self._features(left) - self.win_known
            return self.win_A.copy(), b
        b = cur - self._features(self.first_sample) - self.known_acc
        return self.A_acc.copy(), b


def new_stream(centers, basis: BasisSet, kernel, step: float, window: float = 0.0,
               alpha: float | None = None, theta0=None) -> StreamState:
    return StreamState(centers, basis, kernel, step, window=window, alpha=alpha, theta0=theta0)


def stream_push(state: StreamState, samples, times=None) -> StreamState:
    """Append samples that continue the uniform grid; update accumulators.

    times, when given, are the absolute sample times and are checked against
    the grid (the first sample ever seen sets the origin); a deviation beyond
    GRID_RTOL of one step is a grid discontinuity error.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != state.basis.dim:
        raise ValueError(f"samples have dimension {samples.shape[1]}, expected {state.basis.dim}")
    if times is not None:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.shape != (samples.shape[0],):
            raise ValueError("one time per sample required")
    h = state.step
    for q in range(samples.shape[0]):
        x = samples[q]
        if times is not None:
            t_expect = times[q] if state.t0 is None else state.t0 + (state.n_samples) * h
            if abs(times[q] - t_expect) > GRID_RTOL * max(h, abs(t_expect)):
                raise ValueError(
                    f"grid discontinuity: got time {times[q]!r}, expected {t_expect!r}"
                )
        rows, known_rows = state._sample_rows(x)
        if state.n_samples == 0:
            state.t0 = 0.0 if times is None else float(times[q])
            state.time = state.t0
            state.first_sample = x.copy()
        else:
            state.time += h
            prev_rows, prev_known = state._prev_rows
            panel_A = (h / 2.0) * (prev_rows + rows)
            panel_known = (h / 2.0) * (prev_known + known_rows)
            state.A_acc += panel_A
            state.known_acc += panel_known
            if state.window > 0:
                state._panels.append((panel_A, panel_known, state.prev_sample.copy(), state.time))
                state.win_A += panel_A
                state.win_known += panel_known
                cutoff = state.time - state.window + GRID_RTOL * h
                while state._panels and state._panels[0][3] <= cutoff:
                    old_A, old_known, _, _ = state._panels.popleft()
                    state.win_A -= old_A
                    state.win_known -= old_known
        state.prev_sample = x.copy()
        state._prev_rows = (rows, known_rows)
        state.n_samples += 1
    A, _ = state.matrices()
    state._auto_alpha = _default_alpha(A)
    return state


def stream_matrices(state: StreamState):
    """The active (A, b): windowed when a window is set, else the full prefix."""
    return state.matrices()


def _default_alpha(A: np.ndarray) -> float:
    """1 / lambda_max(A^T A) by 10 power iterations from a fixed start."""
    M = A.shape[1]
    B = A.T @ A
    v = np.full(M, 1.0 / np.sqrt(M))
    lam = 0.0
    for _ in range(10):
        w = B @ v
        lam = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 1.0
        v = w / norm
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


def snapshot(state: StreamState) -> StreamSnapshot:
    A, b = state.matrices()
    A.setflags(write=False)
    b.setflags(write=False)
    th = state.theta.copy()
    th.setflags(write=False)
    return StreamSnapshot(time=state.time, A=A, b=b, theta=th)


class ContinuityReport(NamedTuple):
    max_delta_A: float
    max_delta_theta: float
    first_full_rank_index: int
    n_snapshots_used: int


def track_continuity(snapshots, rcond: float = 1e-12) -> ContinuityReport:
    """Largest consecutive jumps of A(t) and of the exact LS estimate.

    Snapshots taken before A reaches full column rank are excluded (the
    least-squares minimizer is not unique there); at least two snapshots
    past that onset are required.
    """
    snaps = list(snapshots)
    if not snaps:
        raise ValueError("no snapshots given")
    M = snaps[0].A.shape[1]
    onset = None
    usable = []
    for i, snap in enumerate(snaps):
        s = np.linalg.svd(snap.A, compute_uv=False)
        full = s.size > 0 and s[0] > 0 and int(np.count_nonzero(s > rcond * s[0])) == M
        if full and onset is None:
            onset = i
        if onset is not None:
            usable.append(snap)
    if onset is None or len(usable) < 2:
        raise ValueError("need at least 2 snapshots after full-rank onset")
    max_dA = 0.0
    max_dth = 0.0
    prev_theta = None
    prev_A = None
    for snap in usable:
        theta, _, _, _ = _svd_solve(snap.A, snap.b, rcond)
        if prev_A is not None:
            max_dA = max(max_dA, float(np.linalg.norm(snap.A - prev_A)))
            max_dth = max(max_dth, float(np.linalg.norm(theta - prev_theta)))
        prev_A, prev_theta = snap.A, theta
    return ContinuityReport(max_dA, max_dth, onset, len(usable))
