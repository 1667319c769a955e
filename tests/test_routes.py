"""Fast paths against the generic paths they stand in for.

Each fast route must give the generic route's bits on every input it takes,
and hand every input it does not take to the generic route unchanged. The
monomial table, whose recipe rounds differently from a ** reference, is held
with that reference to a stated rounding bound of the exact product.
"""

import dataclasses
import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import occusid as oc
from occusid import dynamics, kernels, sysid, trajectory
from occusid.errors import DivergenceError, TrajectoryParseError, UnsupportedKernelError

# -- term tables vs the term formulas ---------------------------------------

# Degree <= 4 keeps |x|^4 below the float range.
COORDS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0),
                   st.floats(-1e75, 1e75), st.sampled_from([-1e75, 1e-80, -5e-324, 1e40]))

U, ETA = Fraction(1, 2 ** 53), Fraction(1, 2 ** 1075)  # unit roundoff, half the least subnormal


def monomial_reference(dim, degree, idx, X):
    """Functions idx of the monomial library at X, each x^e e_k by its own np.prod of pows."""
    exps = oc.monomial_exponents(dim, degree)
    out = np.zeros((len(idx), X.shape[0], dim))
    for j, i in enumerate(idx):
        k, row = divmod(i, len(exps))
        out[j, :, k] = np.prod(X ** exps[row][None, :], axis=1)
    return out


def assert_same_bits(got, expect):
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()  # zero signs included


def exact_monomial(x, e):
    """x^e exactly, the product of its factors above 1 in size, and whether
    a zero product is -0 (an odd count of factors with the sign bit)."""
    value = math.prod((Fraction(v) ** int(p) for v, p in zip(x, e)), start=Fraction(1))
    big = math.prod((abs(Fraction(v)) ** int(p) for v, p in zip(x, e) if abs(v) > 1),
                    start=Fraction(1))
    negative = sum(int(p) for v, p in zip(x, e) if math.copysign(1.0, v) < 0) % 2 == 1
    return value, big, negative


def rounding_ratios(dim, degree, idx, X, got, u=U, eta=ETA):
    """|got - x^e| / bound for each entry of functions idx at X, after checking
    that every entry is finite, inside the bound of its degree g = |e|,
    zeros signed by their factors' sign bits, and +0 off the target coordinate.

    Each rounding obeys the standard model with underflow, fl(a b) =
    a b (1 + d) + h with |d| <= u and |h| <= eta (2^-1075), and a product of
    g factors takes at most g - 1 roundings (the table's parent chain; a
    pow counts as one). Multiplying out, the relative errors give
    ((1 + u)^(g-1) - 1) |x^e|, and each h is carried through at most g - 2
    later roundings and the later factors, whose product is at most that of
    the factors above 1 in size.
    """
    exps = oc.monomial_exponents(dim, degree)
    assert got.shape == (len(idx), X.shape[0], dim)
    ratios, exact = [], {}
    for j, i in enumerate(idx):
        k, row = divmod(i, len(exps))
        off = np.delete(got[j], k, axis=1)
        assert not off.any() and not np.signbit(off).any()
        g = int(exps[row].sum())
        for p in range(X.shape[0]):
            if (row, p) not in exact:
                exact[row, p] = exact_monomial(X[p], exps[row])
            value, big, negative = exact[row, p]
            bound = 0 if g < 2 else (((1 + u) ** (g - 1) - 1) * abs(value)
                                     + (g - 1) * eta * (1 + u) ** (g - 2) * big)
            entry = got[j, p, k]
            assert np.isfinite(entry)
            err = abs(Fraction(entry) - value)
            assert err <= bound, (X[p], exps[row], entry)
            if entry == 0:
                assert bool(np.signbit(entry)) == negative, (X[p], exps[row])
            ratios.append(err / bound if bound else Fraction(0))
    return ratios


@settings(max_examples=200)
@given(dim=st.integers(1, 4), degree=st.integers(0, 4), data=st.data())
def test_monomial_table_matches_term_formulas(dim, degree, data):
    """The table and a ** reference both sit within the per-degree rounding
    bound of the exact product (rounding_ratios); the functions give the
    values' bits."""
    basis = oc.monomial_basis(oc.MonomialSpec(dim, degree))
    idx = list(range(len(basis)))
    if data.draw(st.booleans(), label="select"):
        idx = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=12),
                        label="indices")
        basis = basis.select(idx)
    P = data.draw(st.sampled_from([1, 2, 7, 40]), label="P")
    X = data.draw(arrays(np.float64, (P, dim), elements=COORDS), label="X")
    got = basis.values(X)
    rounding_ratios(dim, degree, idx, X, got)
    # numpy's vectorized pow need not round correctly (one was measured
    # 1.09 u off), so each of the reference's roundings gets one ulp: 2u
    rounding_ratios(dim, degree, idx, X, monomial_reference(dim, degree, idx, X), 2 * U, 2 * ETA)
    assert_same_bits(np.stack([f(X) for f in basis.functions]), got)


@pytest.mark.parametrize("control", [lambda t: np.cos(3.0 * t), lambda t: 0.5],
                         ids=["array-control", "scalar-control"])
def test_emps_table_matches_term_formulas(control):
    basis = oc.builtin_system("emps_form", control=control)[2]
    X = np.random.default_rng(3).normal(size=(9, 3))
    X[[2, 5], 1] = [0.0, -0.0]  # sign(0) is 0
    expect = np.zeros((4, 9, 3))
    for i, g in enumerate([control(X[:, 2]), -X[:, 1], -np.sign(X[:, 1]), -1.0]):
        expect[i, :, 1] = g
    assert basis._terms is not None
    assert_same_bits(basis.values(X), expect)
    assert_same_bits(np.stack([f(X) for f in basis.functions]), expect)
    assert_same_bits(dataclasses.replace(basis).values(X), expect)


def test_monomial_libraries_take_the_table():
    basis = oc.monomial_basis(oc.MonomialSpec(3, 2))
    copies = [basis.select([4, 0]), dataclasses.replace(basis),
              oc.BasisSet(dim=3, functions=basis.functions, labels=basis.labels,
                          target_dims=basis.target_dims)]
    X = np.random.default_rng(5).normal(size=(9, 3)) * 20
    for copy in copies:
        assert copy._terms[0] is basis._terms[0]  # the library's table, shared
    for copy in copies[1:]:
        assert_same_bits(copy.values(X), basis.values(X))


@pytest.mark.parametrize("degree", range(6))
@pytest.mark.parametrize("dim", range(1, 5))
def test_monomial_table_is_its_product_map(dim, degree):
    """Row r > 0 is row p < r times x_k, k the last nonzero coordinate of
    alpha_r, alpha_p + e_k = alpha_r and prod[p, k] == r: one multiply, the
    same bits. Selects and copies share the table and its map."""
    basis = oc.monomial_basis(oc.MonomialSpec(dim, degree))
    table, exps = basis._terms[0], oc.monomial_exponents(dim, degree)
    X = np.random.default_rng(dim * 10 + degree).normal(size=(50, dim)) * 3
    X[::7] = -0.0
    values = table(X)
    assert_same_bits(values[0], np.ones(50))
    for r in range(1, len(exps)):
        k = np.flatnonzero(exps[r])[-1]
        (p,) = np.flatnonzero((exps + np.eye(dim, dtype=int)[k] == exps[r]).all(axis=1))
        assert p < r and table._prod[p, k] == r
        assert_same_bits(values[r], values[p] * X[:, k])
    for copy in (basis.select([len(basis) - 1, 0]), dataclasses.replace(basis)):
        assert copy._terms[0] is table and copy._terms[0]._prod is table._prod


def _hand_fields():
    """Hand-built vector fields (not views of a library table) with a known part."""
    return oc.BasisSet(dim=2, functions=(lambda X: np.stack([X[:, 1], -X[:, 0]], axis=1),
                                         lambda X: X ** 3 - X,
                                         lambda X: np.sin(X[:, ::-1])),
                       labels=("rot", "cubic", "sin"), known_part=lambda X: 0.5 * X)


def _built_bases():
    """(name, basis) for every way of building a BasisSet."""
    lib = oc.monomial_basis(oc.MonomialSpec(2, 3))
    emps = oc.builtin_system("emps_form", control=lambda t: np.cos(3.0 * t))[2]
    other = oc.monomial_basis(oc.MonomialSpec(2, 1))
    return [("library", lib), ("select", lib.select([7, 0, 7, 12])),
            ("replace", dataclasses.replace(lib)),
            ("hand-copy", oc.BasisSet(dim=2, functions=lib.functions, labels=lib.labels)),
            ("emps-replace", dataclasses.replace(emps)),
            ("hand-fields", _hand_fields()), ("hand-fields-select", _hand_fields().select([2, 0])),
            ("two-tables", oc.BasisSet(dim=2, functions=lib.functions[:2] + other.functions[:1],
                                       labels=("a", "b", "c"))),
            ("view-and-field", oc.BasisSet(dim=2, functions=(lib.functions[3],
                                                             _hand_fields().functions[1]),
                                           labels=("a", "b")))]


@pytest.mark.parametrize("basis", [pytest.param(b, id=name) for name, b in _built_bases()])
def test_every_basis_gives_its_functions_bits(basis):
    X = np.random.default_rng(11).normal(size=(13, basis.dim)) * 4
    X[3] = [0.0, -0.0] + [0.0] * (basis.dim - 2)
    expect = np.stack([np.asarray(f(X), dtype=float) for f in basis.functions])
    assert_same_bits(basis.values(X), expect)
    theta = np.linspace(-1.0, 2.0, len(basis))
    known = 0.0 if basis.known_part is None else basis.known_part(X)
    assert_same_bits(basis.combination(theta, X), np.tensordot(theta, expect, axes=(0, 0)) + known)


def test_library_copies_evaluate_the_shared_table_once():
    calls = []

    def table(X):
        calls.append(X.shape)
        return np.stack([X[:, 0], X[:, 0] * X[:, 1]])

    lib = dynamics._library(2, ("x1", "x1*x2") * 2, (0, 0, 1, 1), table, np.array([0, 1, 0, 1]))
    X = np.random.default_rng(2).normal(size=(6, 2))
    for copy in (lib, lib.select([3, 0]), dataclasses.replace(lib),
                 oc.BasisSet(dim=2, functions=lib.functions, labels=lib.labels)):
        calls.clear()
        copy.values(X)
        assert calls == [(6, 2)]


# -- one RK4 loop vs a disturbance drawn step by step -----------------------

_FIELDS = {1: lambda x: np.array([-0.5 * x[0] + np.sin(x[0])]),
           2: oc.builtin_system("system1")[0].func,
           3: oc.builtin_system("lorenz")[0].func}
_STARTS = {1: [0.7], 2: [0.3, -2.0], 3: [-8.0, 7.0, 27.0]}


def rk4_reference(f, x0, steps, h, eta_at):
    """RK4 with the step's disturbance eta_at(x) held over its four stages, or none."""
    x = np.array(x0, dtype=float)
    out = [x]
    for _ in range(steps):
        if eta_at is None:
            k1 = f(x)
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
        else:
            eta = eta_at(x)
            k1 = f(x) + eta
            k2 = f(x + 0.5 * h * k1) + eta
            k3 = f(x + 0.5 * h * k2) + eta
            k4 = f(x + h * k3) + eta
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("seed", [0, 7, 901])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rk4_bulk_noise_matches_step_draws(dim, seed):
    field = oc.VectorField(dim=dim, func=_FIELDS[dim])
    rng = np.random.default_rng(seed)
    eps = 1e-2
    tr = oc.integrate_rk4(field, np.array(_STARTS[dim]), 0.5, 1e-3, process_noise=(eps, seed))
    expect = rk4_reference(field.func, _STARTS[dim], 500, 1e-3,
                           lambda x: rng.uniform(-eps, eps, size=dim))
    assert_same_bits(tr.samples, expect)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rk4_without_and_with_callable_noise_matches_reference(dim):
    field = oc.VectorField(dim=dim, func=_FIELDS[dim])
    x0 = np.array(_STARTS[dim])
    clean = oc.integrate_rk4(field, x0, 0.5, 1e-3)
    assert_same_bits(clean.samples, rk4_reference(field.func, x0, 500, 1e-3, None))
    def eta(x):
        return 0.1 * np.cos(x)

    pushed = oc.integrate_rk4(field, x0, 0.5, 1e-3, process_noise=eta)
    assert_same_bits(pushed.samples, rk4_reference(field.func, x0, 500, 1e-3, eta))


def test_rk4_keeps_negative_zero_states():
    field = oc.VectorField(dim=2, func=lambda x: np.array([0.0 * x[0], -x[1]]))
    tr = oc.integrate_rk4(field, np.array([-0.0, -0.0]), 0.1, 0.05)
    assert_same_bits(tr.samples, rk4_reference(field.func, [-0.0, -0.0], 2, 0.05, None))


# -- the float Lorenz field vs its numpy-scalar expression ------------------

LORENZ_STATES = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e200, -1e200, math.nan]))


def lorenz_reference(x):
    """The Lorenz right-hand side on numpy float64 scalars."""
    return np.array([10.0 * (x[1] - x[0]), x[0] * (28.0 - x[2]) - x[1],
                     x[0] * x[1] - 8.0 / 3.0 * x[2]])


@settings(max_examples=300)
@given(x=arrays(float, 3, elements=LORENZ_STATES))
def test_lorenz_field_matches_numpy_scalars(x):
    with np.errstate(over="ignore", invalid="ignore"):
        expect = lorenz_reference(x)
    got = _FIELDS[3](x)
    # Where two NaNs of different sign or payload meet, IEEE 754 leaves open
    # which one an operation returns, and numpy's scalar code and Python's
    # float code pick differently; every other entry, -0.0 and inf included,
    # has the reference's bits.
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan)
    assert_same_bits(got[~nan], expect[~nan])


@pytest.mark.parametrize("x0", [[1e200, 1e200, 1e200], [1e154, -1e154, 0.0], [0.0, 0.0, 1e308]])
def test_lorenz_divergence_is_a_divergence_error(x0):
    field = oc.builtin_system("lorenz")[0]
    with pytest.raises(DivergenceError) as info:
        oc.integrate_rk4(field, np.array(x0), 1.0, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        expect = rk4_reference(lorenz_reference, x0, 10, 0.1, None)
    first_bad = int(np.argmin(np.isfinite(expect).all(axis=1)))
    assert first_bad > 0
    assert info.value.time_reached == first_bad * 0.1


# -- each built-in float form vs its numpy-scalar expression ---------------

# system1 squares x1: from |x1| = 1.4e154 on, float ** raises OverflowError
# where numpy's ** gives inf.
SYSTEM1_STATES = st.one_of(LORENZ_STATES, st.floats(1.3e154, 1.5e154), st.floats(-1e160, -1.4e154),
                           st.sampled_from([1.3407807929942596e154, 1.4e154, -1.4e154]))


def system1_reference(x):
    """system1's right-hand side on numpy float64 scalars."""
    return np.array([2.0 * x[0] - x[0] * x[1], 2.0 * x[0] ** 2 - x[1]])


_REFERENCES = {"system1": (system1_reference, SYSTEM1_STATES),
               "lorenz": (lorenz_reference, LORENZ_STATES)}


def assert_form_matches_reference(name, x):
    field = oc.builtin_system(name)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        expect = _REFERENCES[name][0](x)
    form = field.func._float(x.tolist())
    assert type(form) is list and all(type(v) is float for v in form)
    # The NaN-placement rule of test_lorenz_field_matches_numpy_scalars.
    nan = np.isnan(expect)
    for got in (np.array(form), field(x)):
        assert np.array_equal(np.isnan(got), nan)
        assert_same_bits(got[~nan], expect[~nan])


@pytest.mark.parametrize("name", sorted(_REFERENCES))
@settings(max_examples=300)
@given(data=st.data())
def test_float_form_and_its_ndarray_func_match_numpy_scalars(name, data):
    x = data.draw(arrays(float, 2 if name == "system1" else 3, elements=_REFERENCES[name][1]))
    assert_form_matches_reference(name, x)


# At the first two, glibc 2.36's pow(x1, 2) is one ulp from x1 * x1, so a
# form that squares by a product fails here; the rest overflow the square or
# carry NaN.
@pytest.mark.parametrize("x", [[2.3480084736201086, 1.0], [-6.410639413088091, -0.0],
                               [1.4e154, 1.0], [-1e300, -1e300], [math.nan, 2.0]])
def test_system1_square_is_numpy_scalar_pow(x):
    assert_form_matches_reference("system1", np.array(x))


@pytest.mark.parametrize("noise", [None, "bulk", "callable"])
@pytest.mark.parametrize("name", sorted(_REFERENCES))
def test_builtin_field_integrates_as_the_reference(name, noise):
    field = oc.builtin_system(name)[0]
    x0 = _STARTS[field.dim]
    rng = np.random.default_rng(5)
    process_noise, eta_at = {
        None: (None, None),
        "bulk": ((1e-2, 5), lambda x: rng.uniform(-1e-2, 1e-2, size=field.dim)),
        "callable": ((lambda x: 0.1 * np.cos(x)),) * 2}[noise]
    tr = oc.integrate_rk4(field, np.array(x0), 0.5, 1e-3, process_noise=process_noise)
    assert_same_bits(tr.samples, rk4_reference(field.func, x0, 500, 1e-3, eta_at))


@pytest.mark.parametrize("x0", [[1.4e154, 0.0], [-1e160, 1.0], [1e100, 0.0], [1e10, 0.0],
                                [50.0, -50.0]])
def test_system1_square_overflow_is_a_divergence_error(x0):
    field = oc.builtin_system("system1")[0]
    with pytest.raises(DivergenceError) as info:
        oc.integrate_rk4(field, np.array(x0), 1.0, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        expect = rk4_reference(system1_reference, x0, 10, 0.1, None)
    first_bad = int(np.argmin(np.isfinite(expect).all(axis=1)))
    assert first_bad > 0
    assert info.value.time_reached == first_bad * 0.1


# -- np.loadtxt route vs _parse_rows route ----------------------------------

NOISE = ["", " ", "\t", "\xa0", "#", "# note", "_", "1_0", "nan", "-inf", "+inf", "\uff11",
         "\x0c", "\u2028", "\x1c", "\x1f", "\x00", "0x1", "1e", "+.5", "e3"]
BREAKS = ["\n", "\r\n", "\r"]


@st.composite
def csv_texts(draw):
    """Trajectory CSV text on a uniform grid with up to two mutations.

    A mutation changes a cell (replaced by or padded with NOISE), a row (a
    trailing comment, a cell dropped or repeated, a trailing comma) or the
    lines (a blank, whitespace-only or comment line inserted, the header
    changed).
    """
    n = draw(st.integers(1, 3))
    h = draw(st.sampled_from([0.1, 1e-3, 0.25, 7e-4]))
    t0 = draw(st.sampled_from([0.0, -2.0, 12345.678]))
    rows = [[repr(t0 + k * h)] + [repr(draw(st.floats(-1e6, 1e6))) for _ in range(n)]
            for k in range(draw(st.sampled_from([0, 1, 2] + [3, 4, 6] * 3)))]
    lines = ["t," + ",".join(f"x{i + 1}" for i in range(n))]
    extra = []  # (position, line) insertions
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        kind = draw(st.sampled_from(["cell", "pad", "pad", "comment", "drop", "repeat", "comma",
                                     "line", "header"]))
        if kind == "line":
            extra.append((draw(st.integers(1, len(rows) + 1)),
                          draw(st.sampled_from(["", " ", "\t", "\xa0", "\x0c", "# note"]))))
        elif kind == "header":
            lines[0] = draw(st.sampled_from([lines[0].replace(",", " , "), "t,x2", "t", ""]))
        elif rows:
            row = draw(st.sampled_from(rows))
            j = draw(st.integers(0, max(len(row) - 1, 0)))
            if kind == "comma" or not row:
                row.append("")
            elif kind == "cell":
                row[j] = draw(st.sampled_from(NOISE))
            elif kind == "pad":
                pad = draw(st.sampled_from(NOISE))
                row[j] = draw(st.sampled_from([pad + row[j], row[j] + pad]))
            elif kind == "comment":
                row[-1] += draw(st.sampled_from(["#", "# note", " #1"]))
            elif kind == "drop":
                del row[j]
            else:
                row.insert(j, row[j])
    lines += [",".join(row) for row in rows]
    for at, line in sorted(extra, reverse=True):
        lines.insert(at, line)
    end = draw(st.sampled_from(BREAKS))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(path):
    """What load_csv makes of path: the exact bits, or the error with its line."""
    try:
        traj = trajectory.load_csv(path)
    except ValueError as exc:  # TrajectoryParseError included
        return type(exc), str(exc), getattr(exc, "line", None)
    return traj.samples.shape, traj.samples.tobytes(), float(traj.step).hex()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("routes")


@settings(max_examples=300)
@given(text=csv_texts())
def test_loadtxt_route_matches_row_parser(csv_dir, text):
    path = csv_dir / "traj.csv"
    path.unlink(missing_ok=True)  # a new file each example: rewriting one in place waits on writeback
    path.write_bytes(text.encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trajectory, "_c_parsed", lambda fh, text: None)
        by_rows = outcome(path)
    assert outcome(path) == by_rows


def test_loadtxt_route_reads_written_files(tmp_path):
    field, _, _ = oc.builtin_system("lorenz")
    traj = oc.integrate_rk4(field, np.array([-8.0, 7.0, 27.0]), 1.0, 1e-3)
    path = tmp_path / "traj.csv"
    oc.save_csv(traj, path)
    text = path.read_text()
    with open(path) as fh:
        table = trajectory._c_parsed(fh, text)
    assert table.shape == (1001, 4)
    assert np.array_equal(oc.load_csv(path).samples, traj.samples)


@pytest.mark.parametrize("text, line", [
    ("t,x1\n", 1), ("t,x1\n\n\n", 3), ("t,x1\n \n", 2), ("t,x1\n0,1\n0.1,2\n", 3),
], ids=["header-only", "blank-body", "whitespace-body", "two-rows"])
def test_short_body_falls_back_without_a_warning(tmp_path, text, line):
    # pytest turns warnings into errors, so a leaked loadtxt "no data" warning fails here
    path = tmp_path / "traj.csv"
    path.write_text(text)
    with pytest.raises(TrajectoryParseError, match="need at least 3 data rows") as info:
        oc.load_csv(path)
    assert info.value.line == line


# -- the one CSV writer vs numpy's --------------------------------------------

FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]))


@settings(max_examples=100)
@given(n=st.integers(1, 4), data=st.data())
def test_save_csv_writes_savetxt_bytes(csv_dir, n, data):
    samples = data.draw(arrays(float, (data.draw(st.integers(3, 12)), n), elements=FINITE))
    traj = oc.Trajectory(samples, data.draw(st.floats(1e-3, 10.0)))
    path = csv_dir / "written.csv"
    path.unlink(missing_ok=True)
    oc.save_csv(traj, path)
    ref = io.StringIO()
    np.savetxt(ref, np.column_stack([traj.times(), samples]), fmt="%.17g", delimiter=",",
               header="t," + ",".join(f"x{i + 1}" for i in range(n)), comments="")
    assert path.read_bytes() == ref.getvalue().encode()
    back = oc.load_csv(path)
    assert back.samples.tobytes() == samples.tobytes()
    assert back.step == traj.step


@settings(max_examples=50)
@given(n_traj=st.integers(1, 3), n_centers=st.integers(1, 4), n_params=st.integers(1, 3),
       data=st.data())
def test_constraint_system_csv_reads_back_in_row_index_order(csv_dir, n_traj, n_centers,
                                                              n_params, data):
    A = data.draw(arrays(float, (n_traj * n_centers, n_params), elements=FINITE))
    b = data.draw(arrays(float, n_traj * n_centers, elements=FINITE))
    system = sysid.ConstraintSystem(A, b, n_traj, n_centers)
    path = csv_dir / "system.csv"
    path.unlink(missing_ok=True)
    system.save_csv(path)
    header, *lines = path.read_text().splitlines()
    assert header == "row," + ",".join(f"p{i}" for i in range(n_params)) + ",b"
    assert len(lines) == A.shape[0]
    names = [line.split(",", 1)[0] for line in lines]
    for j in range(n_traj):
        for s in range(n_centers):
            assert names[system.row_index(j, s)] == f"traj{j}:center{s}"
    table = np.array([[float(v) for v in line.split(",")[1:]] for line in lines])
    assert table[:, :-1].tobytes() == A.tobytes()
    assert table[:, -1].tobytes() == b.tobytes()


# One short block, a short last block, whole blocks and one row past them.
@pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 10_001])
def test_block_writer_matches_row_by_row_cells(csv_dir, rows):
    assert 4096 % trajectory._BLOCK == 0
    specials = np.array([-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.1, math.inf, math.nan])
    rng = np.random.default_rng(rows)
    table = rng.normal(size=(rows, 4)) * 10.0 ** rng.integers(-300, 300, size=(rows, 4))
    table.flat[rng.permutation(table.size)[:len(specials)]] = specials[:table.size]
    paths = csv_dir / "blocks.csv", csv_dir / "cells.csv"
    for path, body in zip(paths, (table, map(np.ndarray.tolist, table))):
        path.unlink(missing_ok=True)
        trajectory._write_csv(path, "t,x1,x2,x3", body, notes=["a note"])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_save_csv_holds_a_block_not_the_file(tmp_path, lorenz_traj):
    path = tmp_path / "lorenz.csv"
    tracemalloc.start()
    try:
        oc.save_csv(lorenz_traj, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert lorenz_traj.samples.shape == (100_001, 3) and size > 7e6
    # the (t, x) table (3.2 MB) and one block's floats and text, not 7.5 MB of text
    assert peak < 0.75 * size


# -- direct vs stream under the trapezoid rule ------------------------------


def _stream_case(system):
    """(basis, trajectory, centers) for system1, or emps_form with its known part."""
    if system == "system1":
        field, _, basis = oc.builtin_system("system1")
        tr = oc.integrate_rk4(field, np.array([0.3, -2.0]), 1.0, 1e-2)
        return basis, tr, oc.lattice_centers([(-1, 1), (-3, -1)], 1.0)
    field, _, basis = oc.builtin_system("emps_form", control=lambda t: np.sin(3 * t))
    tr = oc.integrate_rk4(field, np.array([0.1, 0.0, 0.0]), 1.0, 1e-2)
    return basis, tr, oc.lattice_centers([(-1, 1), (-1, 1), (0, 1)], [1.0, 1.0, 0.5])


@pytest.mark.parametrize("window", [0.0, 0.3], ids=["growing", "sliding"])
@pytest.mark.parametrize("system", ["system1", "emps_form"])
@pytest.mark.parametrize("kernel", [oc.gaussian_rbf(10.0), oc.exp_dot(0.5), oc.polynomial(2.0, 3)],
                         ids=["gaussian", "exp_dot", "poly3"])
def test_stream_matches_batch_trapezoid(kernel, system, window):
    """After each push, the stream's (A, b) is the batch assembly of its window."""
    basis, tr, centers = _stream_case(system)
    st = oc.new_stream(centers, basis, kernel, tr.step, window=window)
    m = round(window / tr.step)
    pushed = 0
    for k in (12, 31, 32, 57, tr.n_intervals):
        oc.stream_push(st, tr.samples[pushed: k + 1])
        pushed = k + 1
        A, b = oc.stream_matrices(st)
        inside = trajectory.Trajectory(tr.samples[max(0, k - m) if m else 0: k + 1], tr.step)
        s = oc.assemble([inside], centers, basis, kernel, "trapezoid")
        assert np.abs(A - s.A).max() <= 1e-10
        assert np.abs(b - s.b).max() <= 1e-10


# -- stacked kernel blocks vs the per-pair pre_inner_pairwise calls ----------


def _pairwise_kernel(family, n):
    return {
        "gaussian": oc.gaussian_rbf(2.0),
        "exp_dot": oc.exp_dot(0.5),
        "poly3": oc.polynomial(2.0, 3),
        "feature_map": oc.FeatureMapKernel(
            oc.gaussian_rbf(2.0), np.random.default_rng(n).uniform(-1, 1, (5, n))),
    }[family]


def _unit_stack(dims, P, n):
    """Fields e_d for d in dims, each constant over P samples: (len(dims), P, n)."""
    return np.broadcast_to(np.eye(n)[list(dims), None, :], (len(dims), P, n))


def assert_blocks_match_pairs(kernel, X, Y, A, B):
    """Block [i, :, j, :] of the stacked call against the 2-D call on A[i], B[j]."""
    got = kernel.pre_inner_pairwise(X, Y, A, B)
    assert got.shape == (len(A), len(X), len(B), len(Y))
    scale = np.abs(got).max()
    for i in range(len(A)):
        for j in range(len(B)):
            expect = kernel.pre_inner_pairwise(X, Y, A[i], B[j])
            np.testing.assert_allclose(got[i, :, j, :], expect, rtol=1e-13, atol=1e-13 * scale)
    return got


FAMILIES = ["gaussian", "exp_dot", "poly3", "feature_map"]


@pytest.mark.parametrize("fields", ["unit", "random"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_pre_inner_pairwise_matches_pairs(family, n, fields):
    kernel = _pairwise_kernel(family, n)
    rng = np.random.default_rng(10 * n + len(fields))
    P, Q = 9, 13
    X, Y = rng.uniform(-1, 1, (P, n)), rng.uniform(-1, 1, (Q, n))
    if fields == "unit":  # k = n, and l = n - 1 (l = 1 at n = 1) in reverse order
        A, B = _unit_stack(range(n), P, n), _unit_stack(range(n - 1, 0, -1) or [0], Q, n)
    else:
        A, B = rng.normal(size=(3, P, n)), rng.normal(size=(2, Q, n))
    assert_blocks_match_pairs(kernel, X, Y, A, B)


@pytest.mark.parametrize("family", FAMILIES)
def test_stacked_rows_across_the_budget_boundary(family):
    """Row counts on both sides of the Gram budget's rows, and the split it makes."""
    n, Q = 2, 1001
    kernel = _pairwise_kernel(family, n)
    t = 1e-3 * np.arange(Q)[:, None]
    Y = 0.8 * np.sin(np.arange(1.0, n + 1.0) * t + 1.0)
    rows = kernels.ENTRIES // (n * n * Q)
    units = _unit_stack(range(n), Q, n)
    for R in (rows - 1, rows, rows + 1):
        got = assert_blocks_match_pairs(kernel, Y[:R], Y, units[:, :R], units)
        if R > rows:  # the same rows as two row blocks of at most `rows`
            parts = [kernel.pre_inner_pairwise(Y[lo:hi], Y, units[:, lo:hi], units)
                     for lo, hi in ((0, rows), (rows, R))]
            np.testing.assert_allclose(np.concatenate(parts, axis=1), got,
                                       rtol=1e-13, atol=1e-13 * np.abs(got).max())


def test_linear_has_no_stacked_blocks():
    X = np.random.default_rng(0).uniform(-1, 1, (4, 2))
    with pytest.raises(UnsupportedKernelError):
        oc.linear().pre_inner_pairwise(X, X, _unit_stack(range(2), 4, 2), _unit_stack([1], 4, 2))


# -- FeatureMapKernel vs sums of its base kernel over the centers -----------

def assert_close_to(got, expect):
    """got within 1e-12 of expect, relative to expect's largest entry."""
    assert got.shape == expect.shape
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("base", [oc.gaussian_rbf(2.0), oc.exp_dot(0.5), oc.polynomial(2.0, 3)],
                         ids=["gaussian", "exp_dot", "poly3"])
def test_feature_map_methods_are_sums_over_the_centers(base, n):
    """Each FeatureMapKernel method against the base's pointwise eval and grad1:

        K(x, y) = sum_s k(x, c_s) k(y, c_s)
        grad1 K(x, y) = sum_s k(y, c_s) grad1 k(x, c_s)
        a^T grad1grad2 K(x, y) b = sum_s (grad1 k(x, c_s) . a) (grad1 k(y, c_s) . b)
    """
    rng = np.random.default_rng(20 + n)
    centers = rng.uniform(-1, 1, (4, n))
    fm = oc.FeatureMapKernel(base, centers)
    P, Q = 7, 5
    X, Y, C = rng.uniform(-1, 1, (P, n)), rng.uniform(-1, 1, (Q, n)), rng.uniform(-1, 1, (3, n))
    V, Vs, ws = rng.normal(size=(P, n)), rng.normal(size=(2, P, n)), rng.uniform(0.1, 1, (2, P))
    A, B = rng.normal(size=(3, P, n)), rng.normal(size=(2, Q, n))

    def k(x, c):
        return np.array([base.eval(x, s) for s in c])

    def g(x):  # (S, n) rows grad1 k(x, c_s)
        return np.array([base.grad1(x, s) for s in centers])

    def grad1(x, y):
        return k(y, centers) @ g(x)

    assert_close_to(fm.matrix(X, Y),
                    np.array([[k(x, centers) @ k(y, centers) for y in Y] for x in X]))
    assert_close_to(fm.grad1_contract(X, C, V),
                    np.array([[grad1(x, c) @ v for c in C] for x, v in zip(X, V)]))
    got = fm.assemble_block_multi(X, C, Vs, ws)
    assert len(got) == 2
    for blk, w in zip(got, ws):
        assert_close_to(blk, np.array([[sum(w[p] * grad1(X[p], c) @ Vs[i, p] for p in range(P))
                                        for i in range(2)] for c in C]))
    gx, gy = [g(x) for x in X], [g(y) for y in Y]
    pairs = np.array([[[[(gx[p] @ A[i, p]) @ (gy[q] @ B[j, q]) for q in range(Q)]
                        for j in range(2)] for p in range(P)] for i in range(3)])
    assert_close_to(fm.pre_inner_pairwise(X, Y, A, B), pairs)
    assert_close_to(fm.pre_inner_pairwise(X, Y, A[1], B[0]), pairs[1, :, 0, :])


# -- direct vs Gram through a feature-map kernel -----------------------------


def _gram_case(system):
    """(basis, two trajectories, centers) for system1, or emps_form with its known part."""
    if system == "system1":
        field, _, basis = oc.builtin_system("system1")
        x0s = ([0.3, -2.0], [-0.25, -1.75])
        centers = oc.lattice_centers([(-1, 1), (-3, -1)], 1.0)
    else:
        field, _, basis = oc.builtin_system("emps_form", control=lambda t: np.sin(3 * t))
        x0s = ([0.1, 0.0, 0.0], [-0.2, 0.3, 0.0])
        centers = oc.lattice_centers([(-1, 1), (-1, 1), (0, 1)], [1.0, 1.0, 0.5])
    return basis, [oc.integrate_rk4(field, np.array(x0), 1.0, 1e-2) for x0 in x0s], centers


@pytest.mark.parametrize("rule", ["rh", "trapezoid", "simpson"])
@pytest.mark.parametrize("system", ["system1", "emps_form"])
@pytest.mark.parametrize("base", [oc.gaussian_rbf(10.0), oc.exp_dot(0.5), oc.polynomial(2.0, 3)],
                         ids=["gaussian", "exp_dot", "poly3"])
def test_feature_map_gram_is_the_direct_normal_equations(base, system, rule):
    """The Gram system of FeatureMapKernel(base, C) is (A^T A, A^T b, b^T b) of the
    direct system at centers C.

    b^T b gets a looser bound: with a known part h, target_norm_sq adds
    G_full[M, M] - 2 <jump, h> to the jump's norm, terms that nearly cancel.
    """
    basis, trajs, centers = _gram_case(system)
    g = oc.gram_assemble(trajs, basis, oc.FeatureMapKernel(base, centers), rule)
    s = oc.assemble(trajs, centers, basis, base, rule)
    G, r = s.A.T @ s.A, s.A.T @ s.b
    assert np.abs(g.G - G).max() <= 1e-12 * np.abs(G).max()
    assert np.abs(g.r - r).max() <= 1e-12 * np.abs(r).max()
    assert g.target_norm_sq == pytest.approx(s.b @ s.b, rel=1e-11, abs=0)


# -- blocked vs one-block assembly --------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", kernels.FAMILIES)
def test_blocked_assembly_matches_one_block(family, n, monkeypatch):
    """assemble_block_multi over blocks of max(M n, ENTRIES // S) samples against
    the same call in one block: with the budget's 13 rows (more than M n) and
    with the M n floor (ENTRIES = 1), a short last block in both."""
    kernel = oc.Kernel(family, mu=2.0, degree=3)
    rng = np.random.default_rng(30 + n)
    P, S, M = 49, 5, 2
    X, C = rng.uniform(-1, 1, (P, n)), rng.uniform(-1, 1, (S, n))
    Vs, ws = rng.normal(size=(M, P, n)), rng.uniform(0.1, 1, (2, P))
    blocks = []
    z = oc.Kernel._z

    def spy(self, X, Y):  # one kernel pass per block of samples
        blocks.append(len(X))
        return z(self, X, Y)

    monkeypatch.setattr(oc.Kernel, "_z", spy)
    monkeypatch.setattr(kernels, "ENTRIES", P * S)
    whole = kernel.assemble_block_multi(X, C, Vs, ws)
    assert blocks == [P]
    for entries, rows in ((13 * S, 13), (1, M * n)):
        monkeypatch.setattr(kernels, "ENTRIES", entries)
        blocks.clear()
        got = kernel.assemble_block_multi(X, C, Vs, ws)
        assert blocks == [min(rows, P - lo) for lo in range(0, P, rows)]
        assert P % rows
        for blk, expect in zip(got, whole):
            assert_close_to(blk, expect)


# -- the term form vs the dense (M, P, n) call ---------------------------------


def _term_bases():
    """(name, basis) for the term-form entries: monomial libraries at n = 1-3, a
    reordered select, emps_form (known part) and hand-built fields (generic table,
    known part)."""
    lib = oc.monomial_basis(oc.MonomialSpec(2, 2))
    return [("monomial-n1", oc.monomial_basis(oc.MonomialSpec(1, 3))), ("monomial-n2", lib),
            ("monomial-n3", oc.monomial_basis(oc.MonomialSpec(3, 1))),
            ("select", lib.select([7, 0, 7, 11, 3])),
            ("emps_form", oc.builtin_system("emps_form", control=lambda t: np.cos(3 * t))[2]),
            ("hand-built", _hand_fields())]


def _dense(basis, X):
    """The dense (M', P, n) fields: basis.values(X), the known part stacked as field M."""
    kv = basis.known_values(X)
    return basis.values(X) if kv is None else np.concatenate([basis.values(X), kv[None]])


def _term_kernel(family, n):
    if family == "feature_map":
        return oc.FeatureMapKernel(oc.gaussian_rbf(2.0),
                                   np.random.default_rng(n).uniform(-1, 1, (5, n)))
    return oc.Kernel(family, mu=2.0, degree=3)


@pytest.mark.parametrize("rule", ["rh", "trapezoid", "simpson"])
@pytest.mark.parametrize("family", list(kernels.FAMILIES) + ["feature_map"])
@pytest.mark.parametrize("basis", [pytest.param(b, id=name) for name, b in _term_bases()])
def test_term_form_matches_the_dense_call(basis, family, rule):
    """assemble_block_multi on sysid._fields' term form, and the direct, ILS, Gram
    and stream systems built from it, against the dense public calls."""
    n, M = basis.dim, len(basis)
    kernel = _term_kernel(family, n)
    rng = np.random.default_rng(40 + n)
    t = 0.01 * np.arange(41)[:, None]
    trajs = [trajectory.Trajectory(0.8 * np.sin(rng.uniform(1, 3, n) * t + rng.uniform(0, 3, n)),
                                   0.01) for _ in range(2)]
    C = rng.uniform(-1, 1, (4, n))
    A, b, ils_A, ils_b = [], [], [], []
    for tr in trajs:
        X, w = tr.samples, oc.weights(rule, tr.n_intervals, tr.step)
        F, ws = _dense(basis, X), [w, rng.uniform(0.1, 1, len(X))]
        for got, expect in zip(kernel.assemble_block_multi(X, C, sysid._fields(basis, X), ws),
                               kernel.assemble_block_multi(X, C, F, ws)):
            assert_close_to(got, expect)
        blk = kernel.assemble_block(X, C, F, w)
        jump = kernel.matrix(tr.final[None], C)[0] - kernel.matrix(tr.initial[None], C)[0]
        A.append(blk[:, :M])
        b.append(jump - (blk[:, M] if len(F) > M else 0.0))
        ints = np.tensordot(F, w, axes=(1, 0))  # (M', n)
        ils_A.append(ints[:M].T)
        ils_b.append(tr.final - tr.initial - (ints[M] if len(F) > M else 0.0))
    s = oc.assemble(trajs, C, basis, kernel, rule)
    assert_close_to(s.A, np.vstack(A))
    assert_close_to(s.b, np.concatenate(b))
    s = oc.ils_assemble(trajs, basis, rule)
    assert_close_to(s.A, np.vstack(ils_A))
    assert_close_to(s.b, np.concatenate(ils_b))
    if family != "linear":  # linear has no Gram integrands
        G, r, jump_sq = 0.0, 0.0, 0.0
        for tr in trajs:
            X, w = tr.samples, oc.weights(rule, tr.n_intervals, tr.step)
            F = _dense(basis, X)
            G_full = np.einsum("ipjq,p,q->ij", kernel.pre_inner_pairwise(X, X, F, F), w, w)
            ends = np.stack([tr.initial, tr.final])
            jump = np.diff(kernel.assemble_block(X, ends, F, w), axis=0)[0]
            K = kernel.matrix(ends, ends)
            G, r = G + G_full[:M, :M], r + jump[:M] - G_full[:M, M:].sum(axis=1)
            jump_sq += K[1, 1] - 2 * K[1, 0] + K[0, 0]
            if len(F) > M:
                jump_sq += G_full[M, M] - 2 * jump[M]
        g = oc.gram_assemble(trajs, basis, kernel, rule)
        assert_close_to(g.G, G)
        assert_close_to(g.r, r)
        assert g.target_norm_sq == pytest.approx(jump_sq, rel=1e-12, abs=0)
    if rule == "trapezoid":  # the stream's panels are trapezoids
        st = oc.new_stream(C, basis, kernel, trajs[0].step)
        oc.stream_push(st, trajs[0].samples)
        got = oc.stream_matrices(st)
        assert_close_to(got[0], A[0])
        assert_close_to(got[1], b[0])


# -- distinct table rows vs the dense (M, P, n) call ---------------------------


def _distinct_row_bases():
    """(name, basis) for the distinct-row entries: every monomial library with
    n = 1-4 and degree 0-4, a reordered select with a repeat, emps_form (known
    part) and hand-built fields (no product map, known part)."""
    libs = [(f"monomial-n{n}-d{d}", oc.monomial_basis(oc.MonomialSpec(n, d)))
            for n in range(1, 5) for d in range(5)]
    lorenz = oc.monomial_basis(oc.MonomialSpec(3, 3))
    emps = oc.builtin_system("emps_form", control=lambda t: np.cos(3 * t))[2]
    return libs + [("select", lorenz.select([45, 3, 19, 3, 0, 59, 21])), ("emps_form", emps),
                   ("hand-built", _hand_fields())]


@pytest.mark.parametrize("family", list(kernels.FAMILIES) + ["feature_map"])
@pytest.mark.parametrize("basis", [pytest.param(b, id=name) for name, b in _distinct_row_bases()])
def test_distinct_rows_match_the_dense_call(basis, family, monkeypatch):
    """assemble_block_multi on the distinct table rows of sysid._fields against the
    dense (M', P, n) call, for the weights of the three rules at once: in one block,
    and in blocks of R samples (the R-term floor, ENTRIES = 1), a short last block
    included."""
    n = basis.dim
    kernel = _term_kernel(family, n)
    rng = np.random.default_rng(60 + n)
    P = 301  # more samples than the 280 terms of the largest library
    X = 0.8 * np.sin(rng.uniform(1, 3, n) * (0.01 * np.arange(P)[:, None]) + rng.uniform(0, 3, n))
    C = rng.uniform(-1, 1, (4, n))
    ws = [oc.weights(rule, P - 1, 0.01) for rule in ("rh", "trapezoid", "simpson")]
    expect = kernel.assemble_block_multi(X, C, _dense(basis, X), ws)
    for entries in (kernels.ENTRIES, 1):
        monkeypatch.setattr(kernels, "ENTRIES", entries)
        got = kernel.assemble_block_multi(X, C, sysid._fields(basis, X), ws)
        for blk, e in zip(got, expect):
            assert_close_to(blk, e)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_map_is_exponent_arithmetic(n):
    """Every (row, k) of a monomial library's product map names alpha_row + e_k: the
    table row with those exponents, or, past the table, one number per monomial
    of degree + 1. Selects and copies share the library's map."""
    eye = np.eye(n, dtype=int)
    for degree in range(6):
        lib = oc.monomial_basis(oc.MonomialSpec(n, degree))
        exps = oc.monomial_exponents(n, degree)
        prod, T = lib._terms[0]._prod, len(exps)
        assert prod.shape == (T, n)
        past = {}  # number past the table -> its exponents
        for r in range(T):
            for k in range(n):
                alpha, p = tuple(exps[r] + eye[k]), int(prod[r, k])
                if p < T:
                    assert tuple(exps[p]) == alpha
                else:
                    assert past.setdefault(p, alpha) == alpha
        top = [tuple(e) for e in oc.monomial_exponents(n, degree + 1) if sum(e) == degree + 1]
        assert sorted(past) == list(range(T, T + len(top)))
        assert sorted(past.values()) == sorted(top)
        for copy in (lib.select([len(lib) - 1, 0, 0]), dataclasses.replace(lib)):
            assert copy._terms[0]._prod is prod


@pytest.mark.parametrize("n, degree, gaussian, other", [(3, 3, 35, 20), (2, 2, 10, 6),
                                                        (1, 0, 2, 1), (4, 2, 35, 15)])
def test_each_block_stacks_one_row_per_distinct_function(n, degree, gaussian, other):
    """A monomial library stacks its T table rows and, for gaussian_rbf, the
    monomials of degree + 1: lorenz's degree-3 library 35 rows where its 60 terms
    stacked 120, system1's 10 where its 12 stacked 24. Dense input stacks 2R."""
    lib = oc.monomial_basis(oc.MonomialSpec(n, degree))
    t = lib._maps
    assert (len(t.stack), t.n_g) == (gaussian, other)
    table_rows = t.stack[:len(t.stack) - len(t.made)].tolist()
    assert len(set(table_rows)) == len(table_rows)  # no table row twice
    X = np.random.default_rng(1).normal(size=(9, n))
    dense = kernels._term_form(lib.values(X), X)[1]
    R = len(lib) * n
    assert (len(dense.stack), dense.n_g, len(dense.made)) == (2 * R, R, R)


# -- Kernel.matrix's folded argument vs a per-pair reference --------------------


def _matrix_reference(kernel, x, y):
    """K(x, y) from the exact rational z, then one float math.exp or power."""
    if kernel.family == "gaussian_rbf":
        z = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x, y))
        return math.exp(-float(z / Fraction(kernel.mu)))
    z = sum(Fraction(a) * Fraction(b) for a, b in zip(x, y))
    if kernel.family == "exp_dot":
        s = float(z * Fraction(kernel.mu))
        return math.exp(s) if s < 700 else math.inf
    if kernel.family == "polynomial":
        return float(1 + z / Fraction(kernel.mu)) ** kernel.degree
    return float(z)


@pytest.mark.parametrize("offset", [0.0, 30.0, 1e3, 1e5])
@pytest.mark.parametrize("kernel", [oc.gaussian_rbf(10.0), oc.gaussian_rbf(400 / 3),
                                    oc.gaussian_rbf(0.3), oc.exp_dot(0.04), oc.exp_dot(2.0),
                                    oc.polynomial(3.0, 3), oc.polynomial(0.7, 4), oc.linear()],
                         ids=lambda k: f"{k.family}-{k.mu:g}")
def test_matrix_matches_the_per_pair_reference(kernel, offset):
    """Kernel.matrix, whose argument a z + b comes from one GEMM, within a few
    ulps of the per-pair reference, scaled by the magnitudes its rounding sees.

    For gaussian_rbf those are the points' squared distances from their mean, not
    from the origin: 1 + (|x - m|^2 + |y - m|^2) / mu. Points far from the origin
    (offset) met a bound growing with offset^2 / mu before: 4e10 ulps at offset
    1e5 and mu = 0.3, where the bound below is 4. The dot-product families have
    no such shift; their points are scaled with the offset instead.
    """
    eps = np.finfo(float).eps
    rng = np.random.default_rng(int(offset) % 97)
    X = rng.normal(size=(25, 3))
    Y = np.vstack([X[:5] + 1e-3 * rng.normal(size=(5, 3)), rng.normal(size=(15, 3))])
    if kernel.family == "gaussian_rbf":
        X, Y = X + offset, Y + offset
    else:
        X, Y = X * (1 + offset ** 0.25), Y * (1 + offset ** 0.25)
    K = kernel.matrix(X, Y)
    m = Y.mean(axis=0)
    for p, x in enumerate(X):
        for q, y in enumerate(Y):
            ref = _matrix_reference(kernel, x, y)
            if not 1e-250 < abs(ref) < 1e250:
                continue
            xy = np.abs(x) @ np.abs(y)
            if kernel.family == "gaussian_rbf":
                scale = 1 + (np.sum((x - m) ** 2) + np.sum((y - m) ** 2)) / kernel.mu
            elif kernel.family == "exp_dot":
                scale = 1 + kernel.mu * xy
            elif kernel.family == "polynomial":
                scale = kernel.degree * (1 + xy / kernel.mu) / abs(1 + (x @ y) / kernel.mu)
            else:
                scale = max(xy, 1e-300) / abs(ref)
            assert abs(K[p, q] - ref) <= 4 * eps * scale * abs(ref)


# -- a prepared point set vs its raw points -------------------------------------


def _spread(kernel, Y, offset):
    """Y moved offset from the origin for gaussian_rbf and feature maps over it,
    else scaled with the offset, as the matrix reference above does."""
    if getattr(kernel, "base", kernel).family == "gaussian_rbf":
        return Y + offset
    return Y * (1 + offset ** 0.25)


@pytest.mark.parametrize("offset", [0.0, 30.0, 1e3, 1e5])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", list(kernels.FAMILIES) + ["feature_map"])
def test_prepared_points_match_raw_points(family, n, offset, monkeypatch):
    """matrix, grad1_contract and assemble_block_multi give the same bits with the
    second point set prepared once as with its raw points, for the prepared set
    used again and again: in one block, in blocks of the R-term floor (ENTRIES =
    1), and at 13 samples a block, a short last block in each."""
    kernel = _term_kernel(family, n)
    basis = oc.monomial_basis(oc.MonomialSpec(n, 2))
    rng = np.random.default_rng(70 + n)
    X = _spread(kernel, rng.uniform(-1, 1, (49, n)), offset)
    C = _spread(kernel, rng.uniform(-1, 1, (7, n)), offset)
    V, ws = rng.normal(size=(49, n)), list(rng.uniform(0.1, 1, (2, 49)))
    prepared = kernel._prepare(C)
    assert_same_bits(np.asarray(prepared), C)
    assert prepared.shape == C.shape and np.asarray(prepared, dtype=np.float32).dtype == np.float32
    for entries in (kernels.ENTRIES, 1, 13 * len(C)):
        monkeypatch.setattr(kernels, "ENTRIES", entries)
        for lo, hi in ((0, 49), (0, 1), (17, 49)):
            Xs, Vs, wss = X[lo:hi], V[lo:hi], [w[lo:hi] for w in ws]
            fields = sysid._fields(basis, Xs)
            for got, expect in zip(kernel.assemble_block_multi(Xs, prepared, fields, wss),
                                   kernel.assemble_block_multi(Xs, C, fields, wss)):
                assert_same_bits(got, expect)
            assert_same_bits(kernel.matrix(Xs, prepared), kernel.matrix(Xs, C))
            assert_same_bits(kernel.grad1_contract(Xs, prepared, Vs),
                             kernel.grad1_contract(Xs, C, Vs))


def test_prepared_points_are_rejected_by_another_kernel():
    """A set prepared by one kernel is a ValueError in another family's or another
    feature map's calls, where its side would give wrong entries; a kernel of the
    same family with another mu takes it, since the side does not depend on mu."""
    rng = np.random.default_rng(5)
    X, C, V = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (4, 2)), rng.normal(size=(6, 2))
    fields, w = sysid._fields(oc.monomial_basis(oc.MonomialSpec(2, 1)), X), np.ones(6)
    gauss, expdot, poly = oc.gaussian_rbf(2.0), oc.exp_dot(0.5), oc.polynomial(2.0, 3)
    fm = oc.FeatureMapKernel(gauss, C)
    pairs = [(gauss, expdot), (expdot, gauss), (poly, expdot), (expdot, poly), (oc.linear(), poly),
             (gauss, fm), (fm, gauss), (fm, oc.FeatureMapKernel(gauss, C))]
    for maker, user in pairs:
        prepared = maker._prepare(C)
        for call in (lambda: user.matrix(X, prepared),
                     lambda: user.grad1_contract(X, prepared, V),
                     lambda: user.assemble_block_multi(X, prepared, fields, [w])):
            with pytest.raises(ValueError, match="prepared for another kernel"):
                call()
    other_mu = oc.gaussian_rbf(7.0)
    assert_same_bits(other_mu.matrix(X, gauss._prepare(C)), other_mu.matrix(X, C))


@pytest.mark.parametrize("system", ["system1", "emps_form"])
@pytest.mark.parametrize("family", ["gaussian_rbf", "exp_dot", "polynomial", "feature_map"])
def test_stream_is_the_per_sample_formula_on_raw_centers(family, system):
    """After every push and gradient step, the stream's (A, b, theta), built on its
    centers prepared once, has the bits of the per-sample formula on the raw
    centers: trapezoid panels (h / 2)(rows_k + rows_k+1) summed in order, b =
    psi_last - psi_first - known column, and theta <- theta - alpha A^T (A theta - b)
    with alpha = 1 / lambda_max(A^T A)."""
    basis, tr, centers = _stream_case(system)
    kernel = _term_kernel(family, basis.dim)
    st = oc.new_stream(centers, basis, kernel, tr.step)
    M, h = len(basis), tr.step
    theta = np.zeros(M)
    for k, x in enumerate(tr.samples):
        oc.gradient_chase_step(oc.stream_push(st, x))
        [rows] = kernel.assemble_block_multi(x[None], centers, sysid._fields(basis, x[None]),
                                             [np.ones(1)])
        psi = kernel.matrix(x[None], centers)[0]
        if k == 0:
            acc, psi0 = np.zeros_like(rows), psi
        else:
            acc += (h / 2.0) * (prev + rows)
        prev = rows
        A, known = sysid._known_split(acc, M)
        lam = float(np.linalg.eigvalsh(A.T @ A)[-1])
        A, b = A.copy(), psi - psi0 - known
        theta = theta - (1.0 / lam if lam > 0 else 1.0) * (A.T @ (A @ theta - b))
        for got, expect in zip((*oc.stream_matrices(st), st.theta), (A, b, theta)):
            assert_same_bits(got, expect)
    assert k == 100
