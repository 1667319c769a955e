"""Vector fields, basis libraries, built-in benchmark systems, and simulation.

The identification problem is posed for dynamics of the form

    x' = h(x) + sum_i theta_i * Y_i(x)

where h is an optional known part and the Y_i form a basis library. Basis
functions evaluate vectorized: given points X of shape (P, n) they return
(P, n) vector-field values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .trajectory import GRID_RTOL, Trajectory


@dataclass(frozen=True)
class VectorField:
    """A dynamics right-hand side f: R^n -> R^n evaluated one state at a time.

    time_augmented marks systems whose last coordinate is time itself
    (x_n' = 1), the device used to handle explicit control inputs.
    """

    dim: int
    func: Callable[[np.ndarray], np.ndarray]
    time_augmented: bool = False

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.func(x)


@dataclass(frozen=True)
class BasisSet:
    """Library of vector-valued basis functions Y_i: R^n -> R^n.

    functions   : callables mapping (P, n) points to (P, n) values.
    labels      : printable name per function (monomial string for monomials).
    target_dims : 0-based output coordinate when the function acts on a single
                  coordinate, else None. Used only for reporting.
    known_part  : optional known dynamics h, same call convention, not weighted
                  by any parameter.
    """

    dim: int
    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    labels: tuple[str, ...]
    target_dims: tuple[int | None, ...] = None
    known_part: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if len(self.functions) == 0:
            raise ValueError("BasisSet needs at least one function")
        if len(self.labels) != len(self.functions):
            raise ValueError("labels and functions must align")
        if self.target_dims is None:
            object.__setattr__(self, "target_dims", (None,) * len(self.functions))
        elif len(self.target_dims) != len(self.functions):
            raise ValueError("target_dims and functions must align")

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Evaluate every basis function: returns (M, P, n)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((len(self), X.shape[0], self.dim))
        for i, f in enumerate(self.functions):
            out[i] = f(X)
        return out

    def known_values(self, X: np.ndarray) -> np.ndarray | None:
        if self.known_part is None:
            return None
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray(self.known_part(X), dtype=float)

    def combination(self, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
        """sum_i theta_i Y_i(X) plus the known part, shape (P, n)."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self),):
            raise ValueError(f"theta must have length {len(self)}")
        vals = self.values(X)
        out = np.tensordot(theta, vals, axes=(0, 0))
        kv = self.known_values(X)
        if kv is not None:
            out = out + kv
        return out

    def select(self, indices) -> "BasisSet":
        """Sub-library keeping the listed function indices (known part kept)."""
        idx = list(indices)
        return BasisSet(
            dim=self.dim,
            functions=tuple(self.functions[i] for i in idx),
            labels=tuple(self.labels[i] for i in idx),
            target_dims=tuple(self.target_dims[i] for i in idx),
            known_part=self.known_part,
        )


@dataclass(frozen=True)
class MonomialSpec:
    """Monomial library description: all x^alpha * e_k with |alpha| <= degree."""

    dim: int
    degree: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")


def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent rows in graded-lexicographic order (degree major, lex minor).

    For dim=2, degree=2: 1, x1, x2, x1^2, x1*x2, x2^2.
    """
    rows = []
    for g in range(degree + 1):
        for combo in combinations_with_replacement(range(dim), g):
            e = np.zeros(dim, dtype=int)
            for v in combo:
                e[v] += 1
            rows.append(e)
    return np.array(rows, dtype=int)


def monomial_label(exponents: np.ndarray) -> str:
    parts = []
    for i, e in enumerate(exponents):
        if e == 0:
            continue
        parts.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def _monomial_function(exponents: np.ndarray, k: int, dim: int):
    e = exponents.copy()

    def f(X, _e=e, _k=k, _dim=dim):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.zeros((X.shape[0], _dim))
        out[:, _k] = np.prod(X ** _e[None, :], axis=1)
        return out

    return f


def monomial_basis(spec: MonomialSpec) -> BasisSet:
    """All monomials x^alpha e_k, |alpha| <= degree, ordered by (k, graded-lex alpha).

    Size is dim * C(dim + degree, degree).
    """
    exps = monomial_exponents(spec.dim, spec.degree)
    funcs, labels, dims = [], [], []
    for k in range(spec.dim):
        for e in exps:
            funcs.append(_monomial_function(e, k, spec.dim))
            labels.append(monomial_label(e))
            dims.append(k)
    return BasisSet(
        dim=spec.dim,
        functions=tuple(funcs),
        labels=tuple(labels),
        target_dims=tuple(dims),
    )


def monomial_index(spec: MonomialSpec, exponents, k: int) -> int:
    """Position of x^exponents * e_k in the monomial_basis ordering."""
    exps = monomial_exponents(spec.dim, spec.degree)
    target = np.asarray(exponents, dtype=int)
    hits = np.nonzero((exps == target).all(axis=1))[0]
    if hits.size == 0:
        raise ValueError(f"exponents {list(exponents)} not in the degree-{spec.degree} library")
    return k * exps.shape[0] + int(hits[0])


def lattice_centers(bounds, width) -> np.ndarray:
    """Regular lattice over a box, inclusive of endpoints within fp tolerance.

    bounds : sequence of (lo, hi) per dimension.
    width  : lattice spacing; a scalar applies to every dimension, a sequence
             gives one spacing per dimension.
    Points are ordered lexicographically by dimension index (first dimension
    varies slowest).
    """
    bounds = [(float(lo), float(hi)) for lo, hi in bounds]
    n = len(bounds)
    if np.isscalar(width):
        widths = [float(width)] * n
    else:
        widths = [float(w) for w in width]
        if len(widths) != n:
            raise ValueError("one width per dimension required")
    axes = []
    for (lo, hi), w in zip(bounds, widths):
        if w <= 0:
            raise ValueError(f"width must be positive, got {w}")
        if hi < lo:
            raise ValueError(f"empty bound ({lo}, {hi})")
        count = int(math.floor((hi - lo) / w + 1e-9)) + 1
        axes.append(lo + w * np.arange(count))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def integrate_rk4(
    field: VectorField,
    x0,
    T: float,
    h: float,
    process_noise=None,
) -> Trajectory:
    """Classical fixed-step RK4 integration of x' = f(x) (+ disturbance).

    T/h must be a whole number of steps, at least 2, to a relative tolerance
    of GRID_RTOL; otherwise the simulated span would not be T.
    process_noise is either a callable eta(x) added to the field, or a pair
    (eps, seed) producing a random disturbance drawn uniformly from
    [-eps, eps]^n once per step and held constant across the step's stages.
    Raises DivergenceError with the time reached if the state leaves the
    finite floats.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},), got {x0.shape}")
    if h <= 0 or T <= 0:
        raise ValueError("T and h must be positive")
    ratio = T / h
    steps = int(round(ratio))
    if abs(ratio - steps) > GRID_RTOL * max(steps, 1) or steps < 2:
        raise ValueError(f"T/h = {ratio} does not give a usable whole number of steps")

    rng = None
    eta_func = None
    if process_noise is not None:
        if callable(process_noise):
            eta_func = process_noise
        else:
            eps, seed = process_noise
            if eps < 0:
                raise ValueError(f"noise amplitude must be >= 0, got {eps}")
            rng = np.random.default_rng(seed)
            amp = float(eps)

    f = field.func
    samples = np.empty((steps + 1, field.dim))
    samples[0] = x0
    x = x0.copy()
    half = 0.5 * h
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            if eta_func is not None:
                eta = np.asarray(eta_func(x), dtype=float)
            elif rng is not None:
                eta = rng.uniform(-amp, amp, size=field.dim)
            else:
                eta = None
            if eta is None:
                k1 = f(x)
                k2 = f(x + half * k1)
                k3 = f(x + half * k2)
                k4 = f(x + h * k3)
            else:
                k1 = f(x) + eta
                k2 = f(x + half * k1) + eta
                k3 = f(x + half * k2) + eta
                k4 = f(x + h * k3) + eta
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.isfinite(x).all():
                raise DivergenceError(
                    f"state became non-finite at t = {(k + 1) * h:.6g}",
                    time_reached=(k + 1) * h,
                )
            samples[k + 1] = x
    return Trajectory(samples, h)


def control_from_csv(path) -> Callable[[np.ndarray], np.ndarray]:
    """Load a `t,tau` CSV and return a linearly interpolating control signal."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != ["t", "tau"]:
        raise ValueError(f"control CSV must start with header 't,tau', got {lines[:1]}")
    t_vals, u_vals = [], []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 2:
            raise ValueError(f"control CSV line {lineno}: expected 2 columns")
        t_vals.append(float(cells[0]))
        u_vals.append(float(cells[1]))
    if len(t_vals) < 2:
        raise ValueError("control CSV needs at least 2 rows")
    tt = np.asarray(t_vals)
    uu = np.asarray(u_vals)
    if not (np.diff(tt) > 0).all():
        raise ValueError("control CSV times must be strictly increasing")

    def tau(t, _tt=tt, _uu=uu):
        return np.interp(t, _tt, _uu)

    return tau


def _system1_field() -> VectorField:
    def f(x):
        return np.array([2.0 * x[0] - x[0] * x[1], 2.0 * x[0] ** 2 - x[1]])

    return VectorField(dim=2, func=f)


def _lorenz_field(sigma=10.0, rho=28.0, beta=8.0 / 3.0) -> VectorField:
    def f(x):
        return np.array(
            [
                sigma * (x[1] - x[0]),
                x[0] * (rho - x[2]) - x[1],
                x[0] * x[1] - beta * x[2],
            ]
        )

    return VectorField(dim=3, func=f)


# Plant parameters used when no explicit values are supplied for the
# controlled benchmark form; chosen so test trajectories stay well scaled.
EMPS_DEFAULT_THETA = np.array([1.2, 0.8, 0.4, 0.15])


def _emps_basis(control) -> BasisSet:
    def y_tau(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 1] = control(X[:, 2])
        return out

    def y_visc(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 1] = -X[:, 1]
        return out

    def y_coul(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 1] = -np.sign(X[:, 1])
        return out

    def y_const(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 1] = -1.0
        return out

    def known(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 0] = X[:, 1]
        out[:, 2] = 1.0
        return out

    return BasisSet(
        dim=3,
        functions=(y_tau, y_visc, y_coul, y_const),
        labels=("tau", "-x2", "-sign(x2)", "-1"),
        target_dims=(1, 1, 1, 1),
        known_part=known,
    )


def builtin_system(name: str, control=None, theta=None):
    """Return (VectorField, true theta, BasisSet) for a named benchmark system.

    system1   : planar polynomial system x1' = 2x1 - x1*x2, x2' = 2x1^2 - x2,
                degree-2 monomial library.
    lorenz    : chaotic Lorenz system (sigma=10, rho=28, beta=8/3), degree-2
                monomial library.
    emps_form : controlled drive-train form, time-augmented to 3 states with
                x3 = t. Requires a control signal tau(t) (callable, e.g. from
                control_from_csv); theta defaults to EMPS_DEFAULT_THETA. The
                known part h(x) = (x2, 0, 1) is carried on the basis.
    """
    if name == "system1":
        spec = MonomialSpec(dim=2, degree=2)
        basis = monomial_basis(spec)
        theta_true = np.zeros(len(basis))
        theta_true[monomial_index(spec, (1, 0), 0)] = 2.0
        theta_true[monomial_index(spec, (1, 1), 0)] = -1.0
        theta_true[monomial_index(spec, (2, 0), 1)] = 2.0
        theta_true[monomial_index(spec, (0, 1), 1)] = -1.0
        return _system1_field(), theta_true, basis
    if name == "lorenz":
        spec = MonomialSpec(dim=3, degree=2)
        basis = monomial_basis(spec)
        theta_true = np.zeros(len(basis))
        theta_true[monomial_index(spec, (1, 0, 0), 0)] = -10.0
        theta_true[monomial_index(spec, (0, 1, 0), 0)] = 10.0
        theta_true[monomial_index(spec, (1, 0, 0), 1)] = 28.0
        theta_true[monomial_index(spec, (0, 1, 0), 1)] = -1.0
        theta_true[monomial_index(spec, (1, 0, 1), 1)] = -1.0
        theta_true[monomial_index(spec, (1, 1, 0), 2)] = 1.0
        theta_true[monomial_index(spec, (0, 0, 1), 2)] = -8.0 / 3.0
        return _lorenz_field(), theta_true, basis
    if name == "emps_form":
        if control is None:
            raise ValueError(
                "emps_form takes its control signal as data; pass control= "
                "(see control_from_csv)"
            )
        theta_true = EMPS_DEFAULT_THETA.copy() if theta is None else np.asarray(theta, dtype=float)
        if theta_true.shape != (4,):
            raise ValueError("emps_form theta must have 4 entries")
        basis = _emps_basis(control)

        def f(x, _b=basis, _th=theta_true):
            return _b.combination(_th, x[None, :])[0]

        return VectorField(dim=3, func=f, time_augmented=True), theta_true, basis
    raise ValueError(f"unknown system {name!r}")
