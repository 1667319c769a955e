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
from occusid import trajectory
from occusid.errors import TrajectoryParseError

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
    assert basis._terms is not None and basis.select([4, 0])._terms is not None
    copies = [dataclasses.replace(basis),
              oc.BasisSet(dim=3, functions=basis.functions, labels=basis.labels,
                          target_dims=basis.target_dims)]
    X = np.random.default_rng(5).normal(size=(9, 3)) * 20
    for copy in copies:
        assert copy._terms is None  # the functions, with the same values
        assert_same_bits(copy.values(X), basis.values(X))


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
