"""Incremental constraint maintenance and online parameter tracking.

Samples arrive one or more at a time on the same uniform grid the batch
pipeline uses. Each new sample closes a panel [t_k, t_k+1] whose trapezoid
contribution is added to the running constraint matrix, so at any moment the
growing-window state equals the batch assembly (trapezoid rule) on the data
seen so far. One accumulator sums the rows of the basis fields and of the
known part (sysid._fields); matrices() splits off the known column and
rebuilds the right side from the current endpoints as Psi(gamma(t)) -
Psi(gamma(0)) minus it, with no other integral.

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
from .sysid import _fields, _known_split, _rank_cond, _require_finite, _svd_solve
from .trajectory import GRID_RTOL, off_grid


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
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        if not window >= 0:
            raise ValueError(f"window must be >= 0 (0 means growing), got {window}")
        if alpha is not None and not alpha >= 0:
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
        self._prev_rows = None  # (S, M') rows of the last sample, known column included
        # psi(x) = [K(x, c_s)]_s at the window's right end and at its left end
        # (the first sample, or the right end of the last expired panel).
        self._psi_last = None
        self._psi_left = None
        # Panel sums over the active window, (S, M') with the known part as
        # column M when there is one; with window 0 nothing expires.
        self._acc = np.zeros((S, M + (basis.known_part is not None)))
        # Ring of (panel, psi of the right end, end_time).
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

    times, when given, are the absolute sample times and are checked against
    the grid (the first sample ever seen sets the origin); a time that is
    `off_grid` is a grid discontinuity error. Non-finite samples are a
    ValueError and a kernel row that overflows a DivergenceError. Every
    sample's time and kernel rows are checked before the first sample
    changes the state, so a rejected push leaves it as it was. One check
    runs after the samples are in: a system whose A^T A overflows is a
    DivergenceError, with the samples pushed.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != state.basis.dim:
        raise ValueError(f"samples have dimension {samples.shape[1]}, expected {state.basis.dim}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    if times is not None:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.shape != (samples.shape[0],):
            raise ValueError("one time per sample required")
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
        [rows] = state.kernel.assemble_block_multi(x[None], state.centers,
                                                   _fields(state.basis, x[None]), [np.ones(1)])
        psi = state.kernel.matrix(x[None], state.centers)[0]
        _require_finite(state.kernel, rows, psi)
        checked.append((rows, psi))
    for q, (rows, psi) in enumerate(checked):
        if state.n_samples == 0:
            state.t0 = 0.0 if times is None else float(times[q])
            state.time = state.t0
            state._psi_left = psi
        else:
            state.time += h
            panel = (h / 2.0) * (state._prev_rows + rows)
            state._acc += panel
            if state.window > 0:
                state._panels.append((panel, psi, state.time))
                cutoff = state.time - state.window + GRID_RTOL * h
                while state._panels and state._panels[0][2] <= cutoff:
                    old, state._psi_left, _ = state._panels.popleft()
                    state._acc -= old
        state._psi_last = psi
        state._prev_rows = rows
        state.n_samples += 1
    A, _ = state.matrices()
    state._auto_alpha = _default_alpha(A, state.kernel)
    return state


def stream_matrices(state: StreamState):
    """The active (A, b): windowed when a window is set, else the full prefix."""
    return state.matrices()


def _default_alpha(A: np.ndarray, kernel) -> float:
    """1 / lambda_max(A^T A) by 10 power iterations from a fixed start.

    Finite entries of A can still square past the float range (kernel values
    near 1e154 and above); that is the kernel's overflow, reported as such.
    """
    M = A.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        B = A.T @ A
    _require_finite(kernel, B)
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
    ranks = [_rank_cond(np.linalg.svd(s.A, compute_uv=False), rcond)[0] for s in snaps]
    onset = ranks.index(M) if M in ranks else len(snaps)
    usable = snaps[onset:]
    if len(usable) < 2:
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
