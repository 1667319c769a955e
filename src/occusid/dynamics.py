"""Vector fields, basis libraries, built-in benchmark systems, and simulation.

The identification problem is posed for dynamics of the form

    x' = h(x) + sum_i theta_i * Y_i(x)

where h is an optional known part and the Y_i form a basis library. Basis
functions evaluate vectorized: given points X of shape (P, n) they return
(P, n) vector-field values.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, pairwise
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .kernels import _term_maps
from .trajectory import GRID_RTOL, Trajectory, _count, _is_count, _parse_rows, _real


@dataclass(frozen=True)
class VectorField:
    """A dynamics right-hand side f: R^n -> R^n evaluated one state at a time.

    time_augmented marks systems whose last coordinate is time itself
    (x_n' = 1), the device used to handle explicit control inputs.

    func takes an (n,) ndarray and returns n values. A func may carry a
    float form as its `_float` attribute: g(sequence of n floats) -> list of
    n floats, with func(x) = np.array(g(x as floats)). integrate_rk4 calls g
    on a tuple of its float state directly and wraps any other func as
    func(np.array(xs)).tolist(). The built-in polynomial systems are
    written once as float forms (_POLYNOMIAL_SYSTEMS).
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
        _count(self.dim, "dim", 1)
        _count(self.degree, "degree")


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
    varies slowest). Raises ValueError unless every bound and width is a
    finite real number, every lo <= hi and width > 0, and the lattice can be allocated.
    """
    bounds = [(_real(lo, "bounds"), _real(hi, "bounds")) for lo, hi in bounds]
    widths = [_real(w, "width", "finite and positive")
              for w in ([width] * len(bounds) if np.ndim(width) == 0 else width)]
    if len(widths) != len(bounds):
        raise ValueError("one width per dimension required")
    counts = []
    for (lo, hi), w in zip(bounds, widths):
        if not (lo <= hi and math.isfinite(hi - lo)):
            raise ValueError(f"bound ({lo}, {hi}): need lo <= hi with a finite hi - lo")
        if not math.isfinite((hi - lo) / w):
            raise ValueError(f"bound ({lo}, {hi}) with width {w}: (hi - lo) / width "
                             "overflows, so the point count is not finite")
        counts.append(int(math.floor((hi - lo) / w + 1e-9)) + 1)
    total = math.prod(counts)  # exact, in Python integers
    try:  # the whole lattice first, so that one too large to hold fails before any work
        points = np.empty((total, len(counts)))
    except (MemoryError, ValueError):  # numpy's ValueError: too many entries to index
        raise ValueError(f"the lattice has {total} points, too many to allocate") from None
    grid = points.reshape(*counts, len(counts))  # a view: grid[i, j, ..., k] is a point's x_k
    for k, ((lo, _), w) in enumerate(zip(bounds, widths)):
        np.moveaxis(grid[..., k], k, -1)[...] = lo + w * np.arange(counts[k])
    return points


@functools.cache
def _stepper(n: int, disturbed: bool):
    """The RK4 loop of state dimension n, generated once per (n, disturbed).

    loop(f, x, h, steps, samples, eta) steps the n floats x from f's values
    (sequences of n floats), appends each state to samples (an array of
    doubles), and returns the index of the first non-finite state, or None.
    Its source is built from n alone and compiled here, as dataclasses
    builds __init__: the state is n locals, and each stage point, the update
    x + (h/6)(((k1 + 2k2) + 2k3) + k4) and the isfinite check are written out
    per coordinate. When disturbed, eta(k, x) gives step k's n disturbances,
    added to each stage's values.
    """
    def row(form):  # form for each coordinate i, as the items of a tuple
        return " ".join(form.format(i=i) + "," for i in range(n))

    lines = ["def loop(f, x, h, steps, samples, eta, isfinite=isfinite):",
             f"    {row('x{i}')} = x",
             "    half, sixth = 0.5 * h, h / 6.0",
             "    store = samples.fromlist",
             "    for k in range(steps):"]
    if disturbed:
        lines.append(f"        {row('e{i}')} = eta(k, ({row('x{i}')}))")
    for stage, point in zip("abcd", ("x{i}", "x{i} + half * a{i}", "x{i} + half * b{i}",
                                     "x{i} + h * c{i}")):
        lines.append(f"        {row(stage + '{i}')} = f(({row(point)}))")
        if disturbed:
            lines += [f"        {stage}{i} += e{i}" for i in range(n)]
    lines += [f"        x{i} += sixth * (((a{i} + 2.0 * b{i}) + 2.0 * c{i}) + d{i})"
              for i in range(n)]
    lines += ["        if not (" + " and ".join(f"isfinite(x{i})" for i in range(n)) + "):",
              "            return k + 1",
              f"        store([{row('x{i}')}])"]
    namespace = {"isfinite": math.isfinite}
    exec("\n".join(lines), namespace)
    return namespace["loop"]


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
    finite floats, and ValueError if a field value or a callable's eta does
    not have n entries.

    Cost: the state is n Python floats in the loop _stepper generates for
    n. The stage points and the update are float arithmetic in the order
    x + (h/6)(((k1 + 2k2) + 2k3) + k4), which gives numpy's bits, and each
    state is appended to one array of doubles. A field whose func carries a
    float form (VectorField) is called on the floats with no numpy call; any
    other func costs one numpy round trip, np.array then tolist, per
    evaluation. Median us per step over 20,000 steps, ranges over three runs
    on a 2-vCPU Xeon (Python 3.11, numpy 2.4): float forms, system1 1.2-1.3
    and lorenz 1.3-1.5 (1.8-1.9 with the (eps, seed) disturbance); the
    wrapped field -x, n = 3: 4.1-6.0, n = 10: 6.8-7.6, n = 30: 15-18,
    n = 100: 48-52 (7-13 at n = 3 with a callable disturbance). Generating
    and compiling a loop takes 0.2-0.3 ms at n = 3 and 4-6 ms at n = 100,
    once per process. The float arithmetic grows with n; every system the
    CLI simulates has n <= 3.
    """
    x0 = np.asarray(x0, dtype=float)
    n = field.dim
    if x0.shape != (n,):
        raise ValueError(f"x0 must have shape ({n},), got {x0.shape}")
    T, h = _real(T, "T", "finite and positive"), _real(h, "h", "finite and positive")
    ratio = T / h
    steps = int(round(ratio)) if ratio < np.inf else 0
    if abs(ratio - steps) > GRID_RTOL * max(steps, 1) or steps < 2:
        raise ValueError(f"T/h = {ratio} does not give a usable whole number of steps")

    f = getattr(field.func, "_float", None)
    if f is None:  # an ndarray func: one numpy round trip per stage
        def f(xs, _func=field.func):
            return _func(np.array(xs)).tolist()

    if process_noise is None:
        eta = None
    elif callable(process_noise):
        def eta(k, x):
            value = np.asarray(process_noise(np.array(x)), dtype=float)
            if value.shape != (n,):
                raise ValueError(f"process_noise must give {n} values, got shape {value.shape}")
            return value.tolist()
    else:
        eps, seed = process_noise
        eps = _real(eps, "process_noise amplitude", "finite and >= 0")
        noise = np.random.default_rng(seed).uniform(-eps, eps, size=(steps, n))

        def eta(k, x):
            return noise[k].tolist()

    x = x0.tolist()
    samples = array("d", x)  # row after row: fromlist of a short list is a fraction of a row store
    with np.errstate(over="ignore", invalid="ignore"):
        value = f(tuple(x))
        if len(value) != n:  # the loop would unpack it with another message
            raise ValueError(f"the field gave {len(value)} values, not {n}")
        bad = _stepper(n, eta is not None)(f, x, h, steps, samples, eta)
    if bad is not None:
        raise DivergenceError(f"state became non-finite at t = {bad * h:.6g}",
                              time_reached=bad * h)
    return Trajectory(np.frombuffer(samples).reshape(steps + 1, n), h)


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


def _system1(x):
    x1, x2 = x
    try:  # libm pow, the bits of numpy's scalar **; x1 * x1 rounds differently at some x1
        square = x1 ** 2
    except OverflowError:  # where numpy's ** gives inf
        square = math.inf
    return [2.0 * x1 - x1 * x2, 2.0 * square - x2]


def _lorenz(x):
    x1, x2, x3 = x
    return [10.0 * (x2 - x1), x1 * (28.0 - x3) - x2, x1 * x2 - 8.0 / 3.0 * x3]


def _on_ndarray(g):
    """The ndarray func of the float form g, which it carries as `_float`."""
    def func(x):
        return np.array(g(np.asarray(x, dtype=float).tolist()))

    func._float = g
    return func


# Dimension, float form and true terms, keyed by (monomial label, output
# coordinate), of the systems identified over a degree-2 monomial library.
# Each float form is numpy's arithmetic on float64 scalars done in Python
# floats, + - * and ** only, so it gives numpy's bits and overflows to inf.
_POLYNOMIAL_SYSTEMS = {
    "system1": (2, _system1,
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
        dim, g, terms = _POLYNOMIAL_SYSTEMS[name]
        basis = monomial_basis(MonomialSpec(dim=dim, degree=2))
        return VectorField(dim=dim, func=_on_ndarray(g)), _on_library(basis, terms), basis
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
