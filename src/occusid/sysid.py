"""Constraint assembly and parameter estimation.

For dynamics x' = h(x) + sum_i theta_i Y_i(x) sampled along trajectories
gamma_j, each (trajectory j, center c_s) pair contributes one linear
constraint on theta:

    sum_i theta_i * integral of grad1 K(gamma_j(t), c_s) . Y_i(gamma_j(t)) dt
        = K(gamma_j(T), c_s) - K(gamma_j(0), c_s)
        - integral of grad1 K(gamma_j(t), c_s) . h(gamma_j(t)) dt

The time integrals are evaluated with the quadrature rules from the
quadrature module, so no derivative of the data is ever formed; this is what
makes the estimates robust to measurement noise.

A known part h is integrated like a basis function and moved to the right
side. This module owns that convention for every route (direct, ILS, Gram,
streaming): _fields gives every route the basis in the term form of the
kernels module, table rows g_j on coordinate k_j of field f_j, with h's n
coordinates as the table's last rows and field M's n terms (the basis's
maps place them there), and _known_split splits the direct rows, the ILS rows
and the stream's accumulator into the M parameter columns and h's column.
_rank_cond is the one rank rule of every solver and report. Solvers operate
on the stacked system: truncated-SVD least squares, ridge, and a two-stage
sparse path (coordinate-descent lasso, then thresholded refits). A baseline that
integrates the dynamics componentwise (n rows per trajectory instead of one
per center) is included for comparison; it coincides exactly with the main
assembly under the linear kernel and standard-basis centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import BasisSet
from .errors import DivergenceError, IterationLimitError
from .kernels import _center_set
from .quadrature import as_rule, weights
from .trajectory import (_by_constructor, _count, _finite, _freeze, _real, _write_csv,
                         as_trajectory_set)

CD_TOL = 1e-10
CD_MAX_SWEEPS = 100_000


@dataclass(frozen=True)
class ConstraintSystem:
    """Stacked linear system A theta = b.

    Rows are blocked by trajectory: row_index(j, s) = j * n_centers + s.
    labels name the columns (basis function labels) for reporting/export.
    """

    A: np.ndarray
    b: np.ndarray
    n_trajectories: int
    n_centers: int
    labels: tuple[str, ...] | None = None

    __reduce__ = _by_constructor

    def __post_init__(self):
        A, b = _freeze(self.A), _freeze(self.b)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent system shapes {A.shape} and {b.shape}")
        if A.shape[0] != self.n_trajectories * self.n_centers:
            raise ValueError(
                f"{A.shape[0]} rows do not match {self.n_trajectories} trajectories "
                f"x {self.n_centers} centers"
            )
        _finite("constraint system entries", A, b)
        if self.labels is not None and len(self.labels) != A.shape[1]:
            raise ValueError("one label per column required")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n_parameters(self) -> int:
        return self.A.shape[1]

    def row_index(self, j: int, s: int) -> int:
        if not (0 <= j < self.n_trajectories and 0 <= s < self.n_centers):
            raise IndexError(f"row ({j}, {s}) outside {self.n_trajectories} x {self.n_centers}")
        return j * self.n_centers + s

    def save_csv(self, path) -> None:
        """Write A and b with row labels traj{j}:center{s} and column labels."""
        labels = self.labels or tuple(f"p{i}" for i in range(self.n_parameters))
        rows = map(np.ndarray.tolist, np.column_stack([self.A, self.b]))
        names = (f"traj{j}:center{s}" for j in range(self.n_trajectories)
                 for s in range(self.n_centers))
        _write_csv(path, "row," + ",".join(labels) + ",b", ([n, *r] for n, r in zip(names, rows)))


@dataclass(frozen=True)
class EstimationResult:
    """Solver output: parameters plus the numbers needed to judge them.

    support is the active index set for sparse solves (None otherwise);
    degenerate marks rank-zero systems solved as theta = 0.
    """

    theta_hat: np.ndarray
    residual_norm: float
    condition_number: float
    effective_rank: int
    support: np.ndarray | None = None
    degenerate: bool = False

    __reduce__ = _by_constructor

    def __post_init__(self):
        object.__setattr__(self, "theta_hat", _freeze(self.theta_hat))
        if self.support is not None:  # integer indices stay integers
            object.__setattr__(self, "support", _freeze(self.support, dtype=None))

    @property
    def n_parameters(self) -> int:
        return self.theta_hat.shape[0]

    @property
    def rank_deficient(self) -> bool:
        """Whether the solve kept fewer singular values than the parameters it fit,
        the support's when one is set; a degenerate solve is."""
        fitted = self.n_parameters if self.support is None else self.support.size
        return self.degenerate or self.effective_rank < fitted


class Diagnostics(NamedTuple):
    condition_number: float
    column_norms: np.ndarray
    rank: int


def _require_finite(kernel, *arrays) -> None:
    """DivergenceError, naming the kernel, when kernel overflow left non-finite entries."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    k = getattr(kernel, "base", kernel)  # a FeatureMapKernel reports its base family
    raise DivergenceError(
        f"kernel {k.family} with mu={k.mu:g} gives non-finite constraint entries on this "
        "data; choose another mu or rescale the data"
    )


def _fields(basis: BasisSet, X):
    """The term form (G, basis._maps) of the basis at X (kernels module docstring):
    the basis's table with the known part h's n coordinates as its last rows,
    whose terms are field M, coords 0..n-1."""
    G = basis.values(X, terms=True)
    kv = basis.known_values(X)
    return (G if kv is None else np.concatenate([G, kv.T])), basis._maps


def _known_split(a: np.ndarray, M: int):
    """(a[..., :M], a[..., M]) of entries over _fields; the known column is 0.0 without h."""
    return a[..., :M], (a[..., M] if a.shape[-1] > M else 0.0)


def _checked_trajectories(trajs, basis: BasisSet):
    """as_trajectory_set(trajs), which must match the basis dimension."""
    trajs = as_trajectory_set(trajs)
    if trajs.dim != basis.dim:
        raise ValueError(f"trajectory dimension {trajs.dim} != basis dimension {basis.dim}")
    return trajs


def _block_for_trajectory(traj, centers, basis, kernel, rules):
    """Per-rule (A_block, b_block) for one trajectory, sharing kernel passes."""
    ws = [weights(rule, traj.n_intervals, traj.step) for rule in rules]
    blocks = kernel.assemble_block_multi(traj.samples, centers, _fields(basis, traj.samples), ws)
    phi_end = kernel.matrix(traj.final[None], centers)[0]
    phi_start = kernel.matrix(traj.initial[None], centers)[0]
    _require_finite(kernel, phi_end, phi_start, *blocks)
    rows = [_known_split(blk, len(basis)) for blk in blocks]
    return [(A_blk, phi_end - phi_start - known_col) for A_blk, known_col in rows]


def assemble(trajs, centers, basis: BasisSet, kernel, rule) -> ConstraintSystem:
    """Build the constraint system over all (trajectory, center) pairs."""
    return assemble_multi(trajs, centers, basis, kernel, [rule])[0]


def assemble_multi(trajs, centers, basis: BasisSet, kernel, rules) -> list[ConstraintSystem]:
    """assemble for several quadrature rules in one pass over the data.

    The kernel matrices dominate the assembly cost and depend only on the
    samples, so rule ladders reuse them.
    """
    trajs = _checked_trajectories(trajs, basis)
    centers = _center_set(centers, trajs.dim)
    prepared = kernel._prepare(centers)  # the centers' side of the kernel, for every trajectory
    rules = [as_rule(r) for r in rules]
    N, S, M = len(trajs), centers.shape[0], len(basis)
    As = [np.empty((N * S, M)) for _ in rules]
    bs = [np.empty(N * S) for _ in rules]
    for j, traj in enumerate(trajs):
        per_rule = _block_for_trajectory(traj, prepared, basis, kernel, rules)
        for k, (A_blk, b_blk) in enumerate(per_rule):
            As[k][j * S : (j + 1) * S] = A_blk
            bs[k][j * S : (j + 1) * S] = b_blk
    return [
        ConstraintSystem(A, b, n_trajectories=N, n_centers=S, labels=tuple(basis.labels))
        for A, b in zip(As, bs)
    ]


def _rank_cond(s: np.ndarray, rcond: float):
    """(rank, condition) of descending singular values s, cut at rcond times s[0].

    An empty or all-zero spectrum, or a cut above s[0], gives (0, inf).
    """
    rcond = _real(rcond, "rcond", ">= 0")
    if s.size == 0 or s[0] <= 0.0:
        return 0, np.inf
    rank = int(np.count_nonzero(s > rcond * s[0]))
    return rank, (float(s[0] / s[rank - 1]) if rank else np.inf)


def _svd_solve(A: np.ndarray, b: np.ndarray, rcond: float):
    """Truncated-SVD least squares: (theta, condition, rank, degenerate)."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank, cond = _rank_cond(s, rcond)
    if rank == 0:
        return np.zeros(A.shape[1]), np.inf, 0, True
    coef = (U[:, :rank].T @ b) / s[:rank]
    theta = Vt[:rank].T @ coef
    return theta, cond, rank, False


def _result(A, b, theta, condition, rank, support=None, degenerate=False) -> EstimationResult:
    residual = float(np.linalg.norm(A @ theta - b))
    return EstimationResult(
        theta_hat=theta,
        residual_norm=residual,
        condition_number=condition,
        effective_rank=rank,
        support=support,
        degenerate=degenerate,
    )


def solve_pinv(sys: ConstraintSystem, rcond: float = 1e-12) -> EstimationResult:
    """Minimum-norm least squares via SVD truncation at rcond * sigma_max."""
    theta, cond, rank, degenerate = _svd_solve(sys.A, sys.b, rcond)
    return _result(sys.A, sys.b, theta, cond, rank, degenerate=degenerate)


def solve_ridge(sys: ConstraintSystem, lam: float, rcond: float = 1e-12) -> EstimationResult:
    """Minimizer of ||A theta - b||^2 + lam ||theta||^2 through the SVD."""
    lam = _real(lam, "lambda", ">= 0")
    U, s, Vt = np.linalg.svd(sys.A, full_matrices=False)
    rank, cond = _rank_cond(s, rcond)
    if not s.any():
        return _result(sys.A, sys.b, np.zeros(sys.n_parameters), np.inf, 0, degenerate=True)
    filt = np.divide(s, s * s + lam, out=np.zeros_like(s), where=(s * s + lam) > 0)
    theta = Vt.T @ (filt * (U.T @ sys.b))
    return _result(sys.A, sys.b, theta, cond, rank)


def _lasso_cd(A_std: np.ndarray, b: np.ndarray, lam: float, col_norms: np.ndarray):
    """Cyclic coordinate descent for 1/2 ||A w - b||^2 + lam ||w||_1.

    Columns of A_std have unit l2 norm, so each coordinate update is a plain
    soft-threshold; the residual is updated in place rather than recomputed.
    """
    M = A_std.shape[1]
    w = np.zeros(M)
    r = b.copy()
    for _ in range(CD_MAX_SWEEPS):
        delta = 0.0
        for i in range(M):
            old = w[i]
            rho = A_std[:, i] @ r + old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0)
            if new != old:
                r += A_std[:, i] * (old - new)
                w[i] = new
                delta = max(delta, abs(new - old))
        if delta < CD_TOL:
            return w
    raise IterationLimitError(
        f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps",
        last_iterate=w / col_norms,
    )


def solve_sparse(
    sys: ConstraintSystem,
    lam: float,
    threshold: float,
    max_refits: int = 10,
    rcond: float = 1e-12,
) -> EstimationResult:
    """Two-stage sparse estimation.

    Stage 1 runs lasso coordinate descent on the column-standardized system;
    coefficients are mapped back to parameter units before any thresholding
    so `threshold` is comparable to theta itself. Stage 2 drops entries below
    threshold, refits unpenalized least squares on the surviving support, and
    repeats until the support is stable or max_refits refits have run; the
    result reports the support, rank and condition of the last refit.
    """
    lam, threshold = _real(lam, "lambda", ">= 0"), _real(threshold, "threshold", ">= 0")
    _count(max_refits, "max_refits", 1)
    _real(rcond, "rcond", ">= 0")  # here too: an emptied support returns before any refit
    col_norms = np.linalg.norm(sys.A, axis=0)
    if (col_norms == 0).any():
        dead = np.nonzero(col_norms == 0)[0]
        raise ValueError(f"columns {dead.tolist()} of A are identically zero")
    A_std = sys.A / col_norms
    w = _lasso_cd(A_std, sys.b, lam, col_norms)
    theta = w / col_norms

    support = np.nonzero(np.abs(theta) >= threshold)[0]
    theta_full = np.zeros(sys.n_parameters)
    for refit in range(max_refits):
        if support.size == 0:
            return _result(sys.A, sys.b, theta_full, np.inf, 0, support=support, degenerate=True)
        sub, cond, rank, _ = _svd_solve(sys.A[:, support], sys.b, rcond)
        kept = np.abs(sub) >= threshold
        if kept.all() or refit == max_refits - 1:  # at the cap, the support sub was fit on
            break
        support = support[kept]
    theta_full[support] = sub
    return _result(sys.A, sys.b, theta_full, cond, rank, support=support)


def ils_assemble(trajs, basis: BasisSet, rule) -> ConstraintSystem:
    """Componentwise integral constraints: n rows per trajectory.

    Row block j states [integral Y_1 dt ... integral Y_M dt] theta =
    gamma_j(T) - gamma_j(0) (minus the known part's integral when present).
    """
    trajs = _checked_trajectories(trajs, basis)
    rule = as_rule(rule)
    N, n, M = len(trajs), trajs.dim, len(basis)
    A = np.empty((N * n, M))
    b = np.empty(N * n)
    for j, traj in enumerate(trajs):
        w = weights(rule, traj.n_intervals, traj.step)
        G, t = _fields(basis, traj.samples)
        ints = np.zeros((n, t.M))
        ints[t.coords, t.fields] = (G @ w)[t.rows]  # each (coord, field) holds one term
        A[j * n : (j + 1) * n], known = _known_split(ints, M)
        b[j * n : (j + 1) * n] = traj.final - traj.initial - known
    return ConstraintSystem(A, b, n_trajectories=N, n_centers=n, labels=tuple(basis.labels))


def ils_solve(trajs, basis: BasisSet, rule, rcond: float = 1e-12) -> EstimationResult:
    """Least-squares solve of the componentwise integral system."""
    sys = ils_assemble(trajs, basis, rule)
    return solve_pinv(sys, rcond=rcond)


def diagnostics(sys: ConstraintSystem, rcond: float = 1e-12) -> Diagnostics:
    """Condition number, column norms, and numerical rank of A."""
    rank, cond = _rank_cond(np.linalg.svd(sys.A, compute_uv=False), rcond)
    return Diagnostics(cond, np.linalg.norm(sys.A, axis=0), rank)
