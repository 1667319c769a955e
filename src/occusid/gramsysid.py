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

The double integral is bilinear in the two fields, so it is never formed per
pair of basis functions. With quadrature weights w and the fields stacked as
F (M', P, n), the kernel blocks H_de[p, q] = d^2 K / dx_d dy_e (x_p, x_q) come
from pre_inner_pairwise with the constant unit fields e_d and e_e, and

    G_full = sum_{d, e} U_d H_de U_e^T,   U_d = w * F[:, :, d]  (M', P)

gives every entry by matrix products. The cost depends on the state
dimension n, not on the M(M + 1)/2 basis pairs.

Because K is symmetric, so is the whole integrand matrix
H[(d, p), (e, q)] = H_de[p, q] of size nP x nP. Only its upper triangle by
sample is built, a row block of samples [lo, hi) at a time. One stacked
pre_inner_pairwise call on the unit fields gives all n^2 blocks H_de of the
rows against the columns q >= lo, (n, R, n, Q) with R = hi - lo and
Q = P - lo, from one kernel profile pass. Read as an (nR, nQ) matrix, it is
contracted by one GEMM chain:

    L = U_rows @ H,   G_full += 2 L U_cols^T - L[:, square] U_rows^T

where U_rows (M', nR) and U_cols (M', nQ) hold U_d over the rows and the
columns, d-major. The strip q >= hi stands for its mirror too, hence the
2; the square lo <= q < hi holds both halves of its own symmetric part, so
it is counted once. The final symmetrization turns 2 T into T + T^T. In
all this is n^2 (P^2 + P R) / 2 kernel entries, about the upper triangle.

A row block has R = max(1, kernels.ENTRIES // (n^2 P)) rows, so no stack
exceeds the kernels module's entry budget unless a single row does.

A known part h of the dynamics rides along as field M' - 1 = M (stacked by
sysid._fields, as on every route): G is G_full[:M, :M], r loses
G_full[:M, M], and the constant term gains G_full[M, M] - 2 <jump, h>, where
<jump, h> comes from the same assemble_block call that gives r.

For a separable kernel built from a finite center set (FeatureMapKernel),
this system is exactly the normal-equations factorization of the direct
constraint system: G = V^T V and r = V^T b at the same quadrature rule. The
test suite leans on that identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import kernels
from .dynamics import BasisSet
from .quadrature import as_rule, weights
from .sysid import (ConstraintSystem, EstimationResult, _checked_trajectories, _fields,
                    _require_finite, _result, _svd_solve)
from .trajectory import _freeze


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
        G, r = _freeze(self.G), _freeze(self.r)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or r.shape != (G.shape[0],):
            raise ValueError(f"inconsistent Gram shapes {G.shape} and {r.shape}")
        if not (np.isfinite(G).all() and np.isfinite(r).all()):
            raise ValueError("Gram system entries must be finite")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "r", r)

    @property
    def n_parameters(self) -> int:
        return self.G.shape[0]


def _gram_blocks(traj, basis: BasisSet, kernel, rule):
    """One trajectory's (G, r, target_norm_sq) contribution.

    G_full is contracted from the unit-field kernel blocks H_de over the
    upper triangle by sample of the symmetric integrand (see the module
    docstring), one stacked pre_inner_pairwise call and one GEMM chain per
    row block. The first row block whose sum is not finite (kernel overflow)
    stops the loop.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X = traj.samples
        P, n = X.shape
        w = weights(rule, traj.n_intervals, traj.step)
        M = len(basis)
        F = _fields(basis, X)  # (M', P, n)
        Mp = F.shape[0]
        U = np.ascontiguousarray((F * w[:, None]).transpose(0, 2, 1))  # (M', n, P)
        units = np.broadcast_to(np.eye(n)[:, None, :], (n, P, n))  # field d is e_d
        rows = max(1, kernels.ENTRIES // (n * n * P))

        G_full = np.zeros((Mp, Mp))
        for lo in range(0, P, rows):
            hi = min(lo + rows, P)
            R, Q = hi - lo, P - lo
            H = kernel.pre_inner_pairwise(X[lo:hi], X[lo:], units[:, :R], units[:, :Q])
            U_rows = U[:, :, lo:hi].reshape(Mp, n * R)
            L = U_rows @ H.reshape(n * R, n * Q)  # (M', n Q)
            del H  # freed before the next row block's stack is built
            G_full += 2.0 * (L @ U[:, :, lo:].reshape(Mp, n * Q).T)
            G_full -= L.reshape(Mp, n, Q)[:, :, :R].reshape(Mp, n * R) @ U_rows.T
            if not np.isfinite(G_full).all():
                break  # kernel overflow; _require_finite reports it below
        G_full = 0.5 * (G_full + G_full.T)

        # r[m]: quadrature of the endpoint-jump gradient against Y_m. One
        # assemble_block call with the two endpoints as "centers" gives every
        # field, the known part included; one kernel matrix on the endpoints
        # gives the constant term, the jump's squared RKHS norm.
        ends = np.stack([traj.initial, traj.final])
        blk = kernel.assemble_block(X, ends, F, w)  # (2, M')
        jump = blk[1] - blk[0]
        K = kernel.matrix(ends, ends)
        jump_sq = K[1, 1] - 2.0 * K[1, 0] + K[0, 0]
        if len(F) == M:
            r = jump
        else:
            r = jump[:M] - G_full[:M, M]
            jump_sq = jump_sq - 2.0 * jump[M] + G_full[M, M]
    G = G_full[:M, :M]
    _require_finite(kernel, G, r, jump_sq)
    return G, r, float(jump_sq)


def _gram_parts(trajs, basis: BasisSet, kernel, rule) -> list:
    """_gram_blocks of each trajectory, in order."""
    trajs = _checked_trajectories(trajs, basis)
    rule = as_rule(rule)
    return [_gram_blocks(traj, basis, kernel, rule) for traj in trajs]


def gram_assemble(trajs, basis: BasisSet, kernel, rule) -> GramSystem:
    """Sum the per-trajectory Gram systems (system augmentation)."""
    parts = _gram_parts(trajs, basis, kernel, rule)
    # summed from the first trajectory's terms in order; G stays bitwise symmetric
    G, r, const = (reduce(np.add, terms) for terms in zip(*parts))
    return GramSystem(G, r, float(const), n_trajectories=len(parts), labels=tuple(basis.labels))


def gram_assemble_stacked(trajs, basis: BasisSet, kernel, rule) -> ConstraintSystem:
    """Per-trajectory Gram blocks stacked vertically for least-squares solves."""
    Gs, rs, _ = zip(*_gram_parts(trajs, basis, kernel, rule))
    return ConstraintSystem(np.vstack(Gs), np.concatenate(rs), n_trajectories=len(Gs),
                            n_centers=len(basis), labels=tuple(basis.labels))


def gram_solve(g: GramSystem, rcond: float = 1e-12) -> EstimationResult:
    """Truncated-SVD solve of G theta = r."""
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
