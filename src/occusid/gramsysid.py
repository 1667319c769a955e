"""Gram-matrix formulation of the identification problem.

Instead of one constraint row per (trajectory, center) pair, this path works
entirely inside the RKHS: with

    <Y_m, Y_m'>  = double integral of the mixed-derivative bilinear form
                   along the trajectory (pre_inner_integrand closed forms)
    r[m]         = single integral pairing the trajectory-endpoint jump
                   K(., gamma(T)) - K(., gamma(0)) against Y_m
                   (rhs_integrand closed forms)

the parameters satisfy G theta = r. Both integrals are evaluated by
tensor-product quadrature with the same rule on both time axes. Multiple
trajectories augment the system by summing their (G, r) contributions; a
stacked variant keeps the per-trajectory blocks separate for least-squares
treatment.

For a separable kernel built from a finite center set (FeatureMapKernel),
this system is exactly the normal-equations factorization of the direct
constraint system: G = V^T V and r = V^T b at the same quadrature rule. The
test suite leans on that identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import BasisSet
from .kernels import CHUNK
from .quadrature import as_rule, weights
from .sysid import ConstraintSystem, EstimationResult, _require_finite, _result, _svd_solve
from .trajectory import as_trajectory_set


@dataclass(frozen=True)
class GramSystem:
    """G theta = r plus the constant term of the underlying quadratic form.

    target_norm_sq is the squared RKHS norm of the part of the dynamics the
    parameters must explain (endpoint jump minus any known part), summed over
    trajectories; with it, residual_quadratic evaluates the full objective
    ||jump - sum theta_m A_{Y_m}* Gamma||^2 at any theta.
    """

    G: np.ndarray
    r: np.ndarray
    target_norm_sq: float
    n_trajectories: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or r.shape != (G.shape[0],):
            raise ValueError(f"inconsistent Gram shapes {G.shape} and {r.shape}")
        if not (np.isfinite(G).all() and np.isfinite(r).all()):
            raise ValueError("Gram system entries must be finite")
        G.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "r", r)

    @property
    def n_parameters(self) -> int:
        return self.G.shape[0]


def _double_quad(kernel, X, w, A_vals, B_vals) -> float:
    """w^T [pre_inner_pairwise(X, X, A_vals, B_vals)] w, row-chunked."""
    total = 0.0
    for lo in range(0, X.shape[0], CHUNK):
        hi = min(lo + CHUNK, X.shape[0])
        block = kernel.pre_inner_pairwise(X[lo:hi], X, A_vals[lo:hi], B_vals)
        total += float(w[lo:hi] @ (block @ w))
    return total


def _gram_blocks(traj, basis: BasisSet, kernel, rule):
    """One trajectory's (G, r, target_norm_sq) contribution."""
    with np.errstate(over="ignore", invalid="ignore"):
        X = traj.samples
        w = weights(rule, traj.n_intervals, traj.step)
        Vs = basis.values(X)  # (M, P, n)
        M = len(basis)

        # The x-argument of the pairwise form carries the t axis and the
        # y-argument the tau axis, so the row-side field is the m' one.
        G = np.empty((M, M))
        for m in range(M):
            for mp in range(m + 1):
                val = _double_quad(kernel, X, w, Vs[mp], Vs[m])
                G[m, mp] = val
                G[mp, m] = val

        # r[m]: quadrature of the endpoint-jump gradient against Y_m. One
        # assemble_block call with the two endpoints as "centers" gives every m.
        ends = np.stack([traj.initial, traj.final])
        blk = kernel.assemble_block(X, ends, Vs, w)  # (2, M)
        r = blk[1] - blk[0]

        jump_sq = (
            kernel.eval(traj.final, traj.final)
            - 2.0 * kernel.eval(traj.final, traj.initial)
            + kernel.eval(traj.initial, traj.initial)
        )

        kv = basis.known_values(X)
        if kv is not None:
            kblk = kernel.assemble_block(X, ends, kv[None], w)  # (2, 1)
            jump_dot_known = float(kblk[1, 0] - kblk[0, 0])
            known_sq = _double_quad(kernel, X, w, kv, kv)
            for m in range(M):
                r[m] -= _double_quad(kernel, X, w, Vs[m], kv)
            jump_sq = jump_sq - 2.0 * jump_dot_known + known_sq
    _require_finite(kernel, G, r, jump_sq)
    return G, r, jump_sq


def gram_assemble(trajs, basis: BasisSet, kernel, rule) -> GramSystem:
    """Sum the per-trajectory Gram systems (system augmentation)."""
    trajs = as_trajectory_set(trajs)
    if trajs.dim != basis.dim:
        raise ValueError(f"trajectory dimension {trajs.dim} != basis dimension {basis.dim}")
    rule = as_rule(rule)
    M = len(basis)
    G = np.zeros((M, M))
    r = np.zeros(M)
    const = 0.0
    for traj in trajs:
        Gj, rj, cj = _gram_blocks(traj, basis, kernel, rule)
        G += Gj
        r += rj
        const += cj
    return GramSystem(G, r, const, n_trajectories=len(trajs), labels=tuple(basis.labels))


def gram_assemble_stacked(trajs, basis: BasisSet, kernel, rule) -> ConstraintSystem:
    """Per-trajectory Gram blocks stacked vertically for least-squares solves."""
    trajs = as_trajectory_set(trajs)
    if trajs.dim != basis.dim:
        raise ValueError(f"trajectory dimension {trajs.dim} != basis dimension {basis.dim}")
    rule = as_rule(rule)
    M = len(basis)
    A = np.empty((len(trajs) * M, M))
    b = np.empty(len(trajs) * M)
    for j, traj in enumerate(trajs):
        Gj, rj, _ = _gram_blocks(traj, basis, kernel, rule)
        A[j * M : (j + 1) * M] = Gj
        b[j * M : (j + 1) * M] = rj
    return ConstraintSystem(
        A, b, n_trajectories=len(trajs), n_centers=M, labels=tuple(basis.labels)
    )


def gram_solve(g: GramSystem, rcond: float = 1e-12) -> EstimationResult:
    """Truncated-SVD solve of G theta = r."""
    if rcond < 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    theta, cond, rank, degenerate = _svd_solve(g.G, g.r, rcond)
    return _result(g.G, g.r, theta, cond, rank, degenerate=degenerate)


def residual_quadratic(g: GramSystem, theta) -> float:
    """The RKHS objective ||jump - sum theta_m A_{Y_m}* Gamma||^2 at theta.

    Expands to target_norm_sq - 2 theta.r + theta^T G theta; all three pieces
    carry quadrature error, so small negative values are possible near the
    floor.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (g.n_parameters,):
        raise ValueError(f"theta must have shape ({g.n_parameters},)")
    return float(g.target_norm_sq - 2.0 * (theta @ g.r) + theta @ g.G @ theta)
