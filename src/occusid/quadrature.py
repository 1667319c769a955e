"""Composite quadrature on uniform grids and occupation-kernel geometry.

The identification pipeline never differentiates data; everything it needs
from a trajectory is a weighted sum of sampled integrand values. This module
fixes the three supported rules (right-endpoint, trapezoid, Simpson) as
explicit weight vectors, and builds on them the discrete occupation kernel

    Gamma_hat(x) = sum_k w_k K(x, gamma(t_k))

together with Hilbert-space inner products between such estimates, the
empirical convergence order of an error sequence, and the squared RKHS
distance along a linear homotopy between two trajectories.

All sums accumulate in fixed (row-major) order so repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .trajectory import GRID_RTOL, Trajectory, _by_constructor, _finite, _freeze, _is_real, _real

SCHEMES = ("right_hand", "trapezoid", "simpson")

_ALIASES = {
    "rh": "right_hand",
    "right_hand": "right_hand",
    "trap": "trapezoid",
    "trapezoid": "trapezoid",
    "simpson": "simpson",
}


@dataclass(frozen=True)
class QuadratureRule:
    """One of the three composite rules; orders are O(h), O(h^2), O(h^4)."""

    scheme: str

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")


def as_rule(rule) -> QuadratureRule:
    """Normalize a QuadratureRule or a scheme name (long or short form)."""
    if isinstance(rule, QuadratureRule):
        return rule
    key = str(rule)
    if key not in _ALIASES:
        raise ValueError(f"unknown quadrature rule {rule!r}")
    return QuadratureRule(_ALIASES[key])


def _simpson_even(F: int, h: float) -> np.ndarray:
    w = np.full(F + 1, 2.0 * h / 3.0)
    w[1::2] = 4.0 * h / 3.0
    w[0] = w[F] = h / 3.0
    return w


def weights(rule, n_intervals: int, h: float) -> np.ndarray:
    """Weight vector w of length n_intervals+1 with integral = w . values.

    right_hand excludes the left endpoint (weight 0 at t_0). Simpson needs
    at least 2 intervals; an odd interval count is handled by composite
    Simpson on the first F-3 intervals plus a 3/8 rule on the last three,
    which keeps the O(h^4) order.
    """
    rule = as_rule(rule)
    h = _real(h, "h", "finite and positive")
    if not (_is_real(n_intervals) and float(n_intervals).is_integer() and n_intervals >= 1):
        raise ValueError(f"n_intervals must be a whole number >= 1, got {n_intervals!r}")
    F = int(n_intervals)
    if rule.scheme == "right_hand":
        w = np.full(F + 1, h)
        w[0] = 0.0
        return w
    if rule.scheme == "trapezoid":
        w = np.full(F + 1, h)
        w[0] = w[F] = h / 2.0
        return w
    if F < 2:
        raise ValueError("simpson needs at least 2 intervals")
    if F % 2 == 0:
        return _simpson_even(F, h)
    w = np.zeros(F + 1)
    if F > 3:
        w[: F - 2] = _simpson_even(F - 3, h)
    w[F - 3 :] += (3.0 * h / 8.0) * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def integrate(rule, values, h: float):
    """Composite quadrature of sampled values f(t_0), ..., f(t_F).

    values may be (F+1,) for a scalar integrand or (F+1, k) for k integrands
    sharing the grid; returns a float or a (k,) vector accordingly.
    """
    values = np.asarray(values, dtype=float)
    w = weights(rule, values.shape[0] - 1, h)
    if values.ndim == 1:
        return float(w @ values)
    return w @ values


@dataclass(frozen=True)
class OccupationKernelEstimate:
    """Quadrature approximation of x -> integral of K(x, gamma(t)) dt.

    Holds the source trajectory, the kernel, and the rule; the weight vector
    is precomputed. Estimates are immutable and cheap to pass around; the
    kernel matrix work happens on evaluation.
    """

    trajectory: Trajectory
    kernel: object
    rule: QuadratureRule

    __reduce__ = _by_constructor

    def __post_init__(self):
        object.__setattr__(self, "rule", as_rule(self.rule))
        w = weights(self.rule, self.trajectory.n_intervals, self.trajectory.step)
        object.__setattr__(self, "weights", _freeze(w))


def occupation_estimate(traj: Trajectory, kernel, rule) -> OccupationKernelEstimate:
    return OccupationKernelEstimate(traj, kernel, rule)


def occupation_eval(est: OccupationKernelEstimate, x):
    """Evaluate the estimate at one point (n,) -> float or many (Q, n) -> (Q,).

    The points go in blocks sized by kernels.ENTRIES.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != est.trajectory.dim:
        raise ValueError(
            f"point dimension {pts.shape[1]} does not match trajectory dimension {est.trajectory.dim}"
        )
    _finite("points x", pts)
    X = est.trajectory.samples
    samples = est.kernel._prepare(X)  # the samples' side of the kernel, shared by every block
    rows = max(1, kernels.ENTRIES // X.shape[0])
    vals = np.empty(pts.shape[0])
    for lo in range(0, pts.shape[0], rows):
        vals[lo : lo + rows] = est.kernel.matrix(pts[lo : lo + rows], samples) @ est.weights
    return float(vals[0]) if single else vals


def occupation_inner(a: OccupationKernelEstimate, b: OccupationKernelEstimate) -> float:
    """RKHS inner product of two occupation-kernel estimates.

    Double quadrature with tensor-product weights; the two estimates may use
    different rules and grids but must share the kernel.
    """
    if a.kernel != b.kernel:
        raise ValueError("occupation_inner requires both estimates to share one kernel")
    return float(a.weights @ occupation_eval(b, a.trajectory.samples))


def norm_distance_squared(a: OccupationKernelEstimate, b: OccupationKernelEstimate) -> float:
    """||a - b||^2 in the RKHS, expanded through occupation_inner.

    Roundoff can push tiny true distances a hair below zero; callers that
    need a guaranteed-nonnegative value clamp (homotopy_distance does).
    """
    return occupation_inner(a, a) + occupation_inner(b, b) - 2.0 * occupation_inner(a, b)


def empirical_order(errors) -> float:
    """Least-squares slope of log(err) against log(h).

    errors is a sequence of (h, err) pairs; at least 3 are required, with 2
    distinct h, and all values must be finite, positive real numbers.
    """
    pts = [(_real(h, "h"), _real(e, "err")) for h, e in errors]
    if len(pts) < 3:
        raise ValueError(f"need at least 3 (h, err) points, got {len(pts)}")
    hs = np.array([p[0] for p in pts])
    es = np.array([p[1] for p in pts])
    if not ((hs > 0).all() and (es > 0).all()):
        raise ValueError("all h and err values must be positive")
    if np.unique(hs).size < 2:  # one h gives no slope to fit
        raise ValueError(f"need at least 2 distinct h values, got {np.unique(hs).size}")
    return float(np.polyfit(np.log(hs), np.log(es), 1)[0])


def homotopy_distance(traj0: Trajectory, traj1: Trajectory, s1: float, s2: float, kernel, rule) -> float:
    """Squared RKHS distance between occupation kernels along a linear homotopy.

    The family is gamma_s = (1-s) gamma_0 + s gamma_1, interpolated samplewise,
    so both endpoint trajectories must share the grid. Returns the squared
    distance between the s1 and s2 members, clamped below at 0 against
    roundoff.
    """
    if traj0.n_samples != traj1.n_samples or traj0.dim != traj1.dim:
        raise ValueError("homotopy endpoints must share the sample grid and dimension")
    if abs(traj0.step - traj1.step) > GRID_RTOL * traj0.step:
        raise ValueError("homotopy endpoints must share the time step")
    mid = []
    for s in (_real(s1, "s1", "in [0, 1]"), _real(s2, "s2", "in [0, 1]")):
        samples = (1.0 - s) * traj0.samples + s * traj1.samples
        mid.append(OccupationKernelEstimate(Trajectory(samples, traj0.step), kernel, rule))
    return max(norm_distance_squared(mid[0], mid[1]), 0.0)
