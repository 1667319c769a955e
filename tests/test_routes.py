"""Fast paths against the generic paths they stand in for.

Each fast route must give the generic route's bits on every input it takes,
and hand every input it does not take to the generic route unchanged.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import occusid as oc
from occusid import dynamics, kernels, trajectory
from occusid.errors import TrajectoryParseError, UnsupportedKernelError

# -- term tables vs the term formulas ---------------------------------------

# Degree <= 4 keeps |x|^4 below the float range.
COORDS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0),
                   st.floats(-1e75, 1e75), st.sampled_from([-1e75, 1e-80, -5e-324, 1e40]))


def monomial_reference(dim, degree, idx, X):
    """Functions idx of the monomial library at X, each x^e e_k by its own np.prod."""
    exps = oc.monomial_exponents(dim, degree)
    out = np.zeros((len(idx), X.shape[0], dim))
    for j, i in enumerate(idx):
        k, row = divmod(i, len(exps))
        out[j, :, k] = np.prod(X ** exps[row][None, :], axis=1)
    return out


def assert_same_bits(got, expect):
    assert got.shape == expect.shape
    assert got.tobytes() == expect.tobytes()  # zero signs included


@settings(max_examples=200)
@given(dim=st.integers(1, 4), degree=st.integers(0, 4), data=st.data())
def test_monomial_table_matches_term_formulas(dim, degree, data):
    basis = oc.monomial_basis(oc.MonomialSpec(dim, degree))
    idx = list(range(len(basis)))
    if data.draw(st.booleans(), label="select"):
        idx = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=12),
                        label="indices")
        basis = basis.select(idx)
    P = data.draw(st.sampled_from([1, 2, 7, 40]), label="P")
    X = data.draw(arrays(np.float64, (P, dim), elements=COORDS), label="X")
    expect = monomial_reference(dim, degree, idx, X)
    assert_same_bits(basis.values(X), expect)
    assert_same_bits(np.stack([f(X) for f in basis.functions]), expect)


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
