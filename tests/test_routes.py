"""Fast paths against the generic paths they stand in for.

Each fast route must give the generic route's bits on every input it takes,
and hand every input it does not take to the generic route unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import occusid as oc
from occusid import trajectory
from occusid.errors import TrajectoryParseError

# -- monomial table vs closures ---------------------------------------------

# Degree <= 4 keeps |x|^4 below the float range.
COORDS = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0),
                   st.floats(-1e75, 1e75), st.sampled_from([-1e75, 1e-80, -5e-324, 1e40]))


@settings(max_examples=200)
@given(dim=st.integers(1, 4), degree=st.integers(0, 4), data=st.data())
def test_monomial_table_matches_closures(dim, degree, data):
    basis = oc.monomial_basis(oc.MonomialSpec(dim, degree))
    if data.draw(st.booleans(), label="select"):
        idx = data.draw(st.lists(st.integers(0, len(basis) - 1), min_size=1, max_size=12),
                        label="indices")
        basis = basis.select(idx)
    P = data.draw(st.sampled_from([1, 2, 7, 40]), label="P")
    X = data.draw(arrays(np.float64, (P, dim), elements=COORDS), label="X")
    expect = np.stack([f(X) for f in basis.functions])
    got = basis.values(X)
    assert np.array_equal(got, expect)
    assert got.tobytes() == expect.tobytes()  # zero signs included


def test_monomial_libraries_take_the_table():
    basis = oc.monomial_basis(oc.MonomialSpec(3, 2))
    assert basis._monomials is not None and basis.select([4, 0])._monomials is not None
    by_hand = oc.BasisSet(dim=3, functions=basis.functions, labels=basis.labels,
                          target_dims=basis.target_dims)
    assert by_hand._monomials is None  # the closures, with the same values
    X = np.random.default_rng(5).normal(size=(9, 3)) * 20
    assert np.array_equal(by_hand.values(X), basis.values(X))


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
