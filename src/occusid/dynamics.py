"""Vector fields, basis libraries, built-in benchmark systems, and simulation.

The identification problem is posed for dynamics of the form

    x' = h(x) + sum_i theta_i * Y_i(x)

where h is an optional known part and the Y_i form a basis library. Basis
functions evaluate vectorized: given points X of shape (P, n) they return
(P, n) vector-field values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, pairwise
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .kernels import _term_maps
from .trajectory import GRID_RTOL, Trajectory, _is_count, _parse_rows


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
                  coordinate, else None. With the label it names a term: the
                  report's dim column and the key that places true terms.
    known_part  : optional known dynamics h, same call convention, not weighted
                  by any parameter.

    Every BasisSet is a term table, set when it is built: a function from
    (P, n) points to the (T, P) values of scalar functions, and (rows,
    fields, coords): coordinate coords[j] of function fields[j] is
    table(X)[rows[j]], and every other entry is 0. `values` is one scatter of
    one table call; with terms=True it returns the (T, P) table itself, which
    every route assembles from (sysid._fields) through the index maps of the
    kernels module's term form, built here once per basis with the known
    part as field M (its n coordinates are the last n rows, -n..-1, that
    sysid._fields appends to the table).
    When every function is a view of one library table (monomial_basis,
    emps_form, a select or a copy of either), the basis shares that table;
    otherwise the table holds its functions' n coordinates. A table may
    carry a product map (monomial_basis): which row, or which monomial past
    the table, is x_k times row r. The map also builds the table, the maps
    stack each product once, and selects and copies share it with the table.
    """

    dim: int
    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]
    labels: tuple[str, ...]
    target_dims: tuple[int | None, ...] = None
    known_part: Callable[[np.ndarray], np.ndarray] | None = None
    _terms: tuple = field(default=None, init=False, repr=False, compare=False)
    _maps: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        M = len(self.functions)
        if M == 0:
            raise ValueError("BasisSet needs at least one function")
        if len(self.labels) != M:
            raise ValueError("labels and functions must align")
        if self.target_dims is None:
            object.__setattr__(self, "target_dims", (None,) * M)
        elif len(self.target_dims) != M:
            raise ValueError("target_dims and functions must align")
        views = [getattr(f, "_view", (None, 0, 0)) for f in self.functions]
        tables, rows, coords = zip(*views)
        if tables[0] is not None and all(t is tables[0] for t in tables):
            terms = (tables[0], np.array(rows), np.arange(M), np.array(coords))
        else:  # the functions' coordinates: row i * dim + d is coordinate d of function i
            funcs, rows = self.functions, np.arange(M * self.dim)
            terms = (lambda X: np.concatenate([np.transpose(f(X)) for f in funcs]),
                     rows, *np.divmod(rows, self.dim))
        table, rows, fields, coords = terms
        if self.known_part is not None:  # h's n coordinates: field M, the last n table rows
            n = self.dim
            rows, fields, coords = (np.append(rows, np.arange(-n, 0)), np.append(fields, [M] * n),
                                    np.append(coords, np.arange(n)))
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_maps", _term_maps(rows, fields, coords,
                                                     M + (self.known_part is not None),
                                                     getattr(table, "_prod", None)))

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, X: np.ndarray, terms: bool = False) -> np.ndarray:
        """Evaluate every basis function: returns (M, P, n), or with terms=True
        the (R, P) term values table(X)[rows] alone. Points are (P, dim)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"points of shape {X.shape} do not match basis dimension {self.dim}")
        table, rows, fields, coords = self._terms
        if terms:
            return np.asarray(table(X), dtype=float)
        out = np.zeros((len(self), X.shape[0], self.dim))
        out[fields, :, coords] = table(X)[rows]
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
        out = np.tensordot(theta, self.values(X), axes=(0, 0))
        kv = self.known_values(X)
        return out if kv is None else out + kv

    def select(self, indices) -> "BasisSet":
        """Sub-library keeping the listed function indices (known part kept)."""
        idx = list(indices)
        return BasisSet(dim=self.dim, functions=tuple(self.functions[i] for i in idx),
                        labels=tuple(self.labels[i] for i in idx),
                        target_dims=tuple(self.target_dims[i] for i in idx),
                        known_part=self.known_part)


@dataclass(frozen=True)
class MonomialSpec:
    """Monomial library description: all x^alpha * e_k with |alpha| <= degree."""

    dim: int
    degree: int

    def __post_init__(self):
        if not _is_count(self.dim, 1):
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        if not _is_count(self.degree):
            raise ValueError(f"degree must be an integer >= 0, got {self.degree!r}")


def monomial_exponents(dim: int, degree: int) -> np.ndarray:
    """Exponent rows in graded-lexicographic order (degree major, lex minor).

    For dim=2, degree=2: 1, x1, x2, x1^2, x1*x2, x2^2.
    """
    return np.array([np.bincount(np.array(combo, dtype=int), minlength=dim)
                     for g in range(degree + 1)
                     for combo in combinations_with_replacement(range(dim), g)], dtype=int)


def monomial_label(exponents: np.ndarray) -> str:
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exponents) if e]
    return "*".join(parts) or "1"


def _library(dim: int, labels, dims, table, rows, known_part=None) -> BasisSet:
    """BasisSet whose function i is table(X)[rows[i]] e_dims[i], a view of table.

    table maps (P, dim) float points to the (T, P) values of T scalar terms.
    """

    def view(row, k):
        def f(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            out = np.zeros((X.shape[0], dim))
            out[:, k] = table(X)[row]
            return out

        f._view = (table, row, k)
        return f

    return BasisSet(dim=dim, functions=tuple(view(r, k) for r, k in zip(rows, dims)),
                    labels=tuple(labels), target_dims=tuple(dims), known_part=known_part)


def _on_library(basis: BasisSet, terms: dict):
    """theta on basis: terms[(label, k)] at each matching term, else 0; None if one is missing."""
    keys = list(zip(basis.labels, basis.target_dims))
    if not terms.keys() <= set(keys):
        return None
    return np.array([terms.get(key, 0.0) for key in keys])


def monomial_basis(spec: MonomialSpec) -> BasisSet:
    """All monomials x^alpha e_k, |alpha| <= degree, ordered by (k, graded-lex alpha).

    Size is dim * C(dim + degree, degree). The table is its product map read
    backwards: row r > 0 is one multiply, its parent row times x_k with k the
    last nonzero coordinate of alpha_r, so a degree-g monomial is g - 1
    roundings, its factors taken in coordinate order (1 * x_k is exact).
    """
    exps = monomial_exponents(spec.dim, spec.degree)
    # x_k times row r is the monomial alpha_r + e_k: a table row, or one numbered past the table
    index = {tuple(e): r for r, e in enumerate(exps.tolist())}
    prod = np.array([[index.setdefault(tuple((e + step).tolist()), len(index))
                      for step in np.eye(spec.dim, dtype=int)] for e in exps])
    # row r = prod[p, k] from the (p, k) with the largest k, written last; a layer per degree
    T = exps.shape[0]
    parent = {r: (p, k) for (k, p), r in np.ndenumerate(prod.T) if r < T}
    layers = [(slice(a, b), *np.transpose([parent[r] for r in range(a, b)]))
              for a, b in pairwise(math.comb(spec.dim + g, g) for g in range(spec.degree + 1))]

    def table(X):
        mono = np.empty((T, X.shape[0]))
        mono[0] = 1.0
        for rows, p, k in layers:
            np.multiply(mono[p], X.T[k], out=mono[rows])
        return mono

    table._prod = prod
    return _library(spec.dim, [monomial_label(e) for e in exps] * spec.dim,
                    [k for k in range(spec.dim) for _ in range(T)], table,
                    np.tile(np.arange(T), spec.dim))


def monomial_index(spec: MonomialSpec, exponents, k: int) -> int:
    """Position of x^exponents * e_k in the monomial_basis ordering.

    The key is spec.dim non-negative integer exponents and an integer target
    dim k in [0, spec.dim); any other key is a ValueError that names it.
    """
    if not (_is_count(k, stop=spec.dim) and isinstance(exponents, (list, tuple, np.ndarray))
            and len(exponents) == spec.dim and all(_is_count(e) for e in exponents)):
        raise ValueError(f"basis term ({exponents!r}, {k!r}) is not {spec.dim} non-negative "
                         f"integer exponents and a target dim in 0..{spec.dim - 1}")
    exps = monomial_exponents(spec.dim, spec.degree)
    hits = np.nonzero((exps == np.asarray(exponents)).all(axis=1))[0]
    if hits.size == 0:
        raise ValueError(f"exponents {list(exponents)} not in the degree-{spec.degree} library")
    return k * exps.shape[0] + int(hits[0])


def lattice_centers(bounds, width) -> np.ndarray:
    """Regular lattice over a box, inclusive of endpoints within fp tolerance.

    bounds : sequence of (lo, hi) per dimension.
    width  : lattice spacing; a scalar applies to every dimension, a sequence
             gives one spacing per dimension.
    Points are ordered lexicographically by dimension index (first dimension
    varies slowest). Raises ValueError unless every lo <= hi and every width
    > 0, all finite, with a finite point count.
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
        if not (math.isfinite(hi - lo) and 0 < w < math.inf and lo <= hi):
            raise ValueError(f"bound ({lo}, {hi}) with width {w}: need finite lo <= hi "
                             "and a finite width > 0")
        if not math.isfinite((hi - lo) / w):
            raise ValueError(f"bound ({lo}, {hi}) with width {w}: (hi - lo) / width "
                             "overflows, so the point count is not finite")
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
    """Classical fixed-step RK4 integration of x' = f(x) + eta.

    T/h must be a whole number of steps, at least 2, to a relative tolerance
    of GRID_RTOL; otherwise the simulated span would not be T.
    The disturbance eta is held constant across each step's four stages:
    process_noise is None (no disturbance), a callable eta(x) evaluated at
    the state that starts the step, or a pair (eps, seed) whose etas are
    drawn uniformly from [-eps, eps]^n up front as one (steps, n) array, the
    same bits as one draw per step from default_rng(seed).
    Raises DivergenceError with the time reached if the state leaves the
    finite floats, and ValueError if a field value does not have n entries.

    Cost: one numpy call per field evaluation (the field takes and returns
    an ndarray); between them the state is a list of Python floats, and the
    stage points and the update are float arithmetic in the order
    x + (h/6)(((k1 + 2k2) + 2k3) + k4), which gives numpy's bits. On a
    3-coordinate state a numpy call costs about ten times the arithmetic it
    does, so this wins for small n and loses as n grows. Median us per step
    for the field -x, a numpy state -> this float state, on a 2-vCPU AMD EPYC
    (Python 3.11, numpy 2.4): n = 3: 5.4 -> 4.1; n = 10: 5.6 -> 5.8;
    n = 30: 5.6 -> 10.3; n = 100: 5.7 -> 25.5. Every system the CLI
    simulates has n <= 3.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (field.dim,):
        raise ValueError(f"x0 must have shape ({field.dim},), got {x0.shape}")
    for name, value in (("T", T), ("h", h)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    ratio = T / h
    steps = int(round(ratio)) if ratio < np.inf else 0
    if abs(ratio - steps) > GRID_RTOL * max(steps, 1) or steps < 2:
        raise ValueError(f"T/h = {ratio} does not give a usable whole number of steps")

    f = field.func

    def plus(eta):  # f with one step's disturbance added
        return lambda y: f(y) + eta

    if process_noise is None:
        def step_field(k, x):
            return f
    elif callable(process_noise):
        def step_field(k, x):
            return plus(np.asarray(process_noise(x), dtype=float))
    else:
        eps, seed = process_noise
        if not 0 <= eps < np.inf:
            raise ValueError(f"process_noise amplitude must be finite and >= 0, got {eps}")
        noise = np.random.default_rng(seed).uniform(-float(eps), float(eps),
                                                    size=(steps, field.dim))

        def step_field(k, x):
            return plus(noise[k])

    samples = np.empty((steps + 1, field.dim))
    samples[0] = x0
    x = x0.tolist()
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            y = np.array(x)
            g = step_field(k, y)  # the right-hand side over step k's four stages
            k1 = g(y).tolist()
            k2 = g(np.array([a + half * b for a, b in zip(x, k1)])).tolist()
            k3 = g(np.array([a + half * b for a, b in zip(x, k2)])).tolist()
            k4 = g(np.array([a + h * b for a, b in zip(x, k3)])).tolist()
            x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4, strict=True)]
            if not all(map(math.isfinite, x)):
                raise DivergenceError(
                    f"state became non-finite at t = {(k + 1) * h:.6g}",
                    time_reached=(k + 1) * h,
                )
            samples[k + 1] = x
    return Trajectory(samples, h)


def control_from_csv(path) -> Callable[[np.ndarray], np.ndarray]:
    """Linearly interpolating control signal from a `t,tau` CSV, rows parsed as in load_csv."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != ["t", "tau"]:
        raise ValueError(f"control CSV must start with header 't,tau', got {lines[:1]}")
    t_vals, u_vals = _parse_rows(lines[1:], 1, 2)
    if len(t_vals) < 2:
        raise ValueError("control CSV needs at least 2 rows")
    tt = np.asarray(t_vals)
    uu = np.ravel(u_vals)
    if not (np.diff(tt) > 0).all():
        raise ValueError("control CSV times must be strictly increasing")

    def tau(t, _tt=tt, _uu=uu):
        return np.interp(t, _tt, _uu)

    return tau


# Plant parameters used when no explicit values are supplied for the
# controlled benchmark form; chosen so test trajectories stay well scaled.
EMPS_DEFAULT_THETA = np.array([1.2, 0.8, 0.4, 0.15])


def _emps_basis(control) -> BasisSet:
    def known(X):
        X = np.atleast_2d(X)
        out = np.zeros_like(X)
        out[:, 0] = X[:, 1]
        out[:, 2] = 1.0
        return out

    def table(X):
        out = np.empty((4, X.shape[0]))
        out[0] = control(X[:, 2])  # a scalar broadcasts
        out[1] = -X[:, 1]
        out[2] = -np.sign(X[:, 1])
        out[3] = -1.0
        return out

    return _library(3, ("tau", "-x2", "-sign(x2)", "-1"), (1, 1, 1, 1), table, np.arange(4),
                    known_part=known)


def _lorenz(x: np.ndarray) -> np.ndarray:
    # Float arithmetic with numpy's bits: only +, - and *, which overflow to inf
    # and never raise. system1's x1 ** 2 stays numpy, since float ** raises
    # OverflowError where numpy gives inf, and x1 * x1 is not pow's bits.
    x1, x2, x3 = x.tolist()
    return np.array([10.0 * (x2 - x1), x1 * (28.0 - x3) - x2, x1 * x2 - 8.0 / 3.0 * x3])


# Dimension, right-hand side and true terms, keyed by (monomial label, output
# coordinate), of the systems identified over a degree-2 monomial library.
_POLYNOMIAL_SYSTEMS = {
    "system1": (2, lambda x: np.array([2.0 * x[0] - x[0] * x[1], 2.0 * x[0] ** 2 - x[1]]),
                {("x1", 0): 2.0, ("x1*x2", 0): -1.0, ("x1^2", 1): 2.0, ("x2", 1): -1.0}),
    "lorenz": (3, _lorenz,
               {("x1", 0): -10.0, ("x2", 0): 10.0, ("x1", 1): 28.0, ("x2", 1): -1.0,
                ("x1*x3", 1): -1.0, ("x1*x2", 2): 1.0, ("x3", 2): -8.0 / 3.0}),
}


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
    if name in _POLYNOMIAL_SYSTEMS:
        dim, f, terms = _POLYNOMIAL_SYSTEMS[name]
        basis = monomial_basis(MonomialSpec(dim=dim, degree=2))
        return VectorField(dim=dim, func=f), _on_library(basis, terms), basis
    if name == "emps_form":
        if control is None:
            raise ValueError("emps_form takes its control signal as data; "
                             "pass control= (see control_from_csv)")
        theta_true = EMPS_DEFAULT_THETA.copy() if theta is None else np.asarray(theta, dtype=float)
        if theta_true.shape != (4,):
            raise ValueError("emps_form theta must have 4 entries")
        basis = _emps_basis(control)

        def f(x, _b=basis, _th=theta_true):
            return _b.combination(_th, x[None, :])[0]

        return VectorField(dim=3, func=f, time_augmented=True), theta_true, basis
    raise ValueError(f"unknown system {name!r}")
