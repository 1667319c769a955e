"""Every value type keeps a private read-only copy of each array it is given.

Each case builds one object from views of a writable base array and names
the arrays it keeps. The arrays handed in must stay writable, the kept ones
must be read-only, and a later write to the base must not reach them. A
pickled or deep-copied value keeps its arrays read-only too (StreamState,
mutable by design, is not a value and is not copied through its constructor).
A sweep of every array attribute, built from integer arrays, finds any array
kept without _freeze that the named lists miss.
"""

import copy
import dataclasses
import pickle
from operator import attrgetter

import numpy as np
import pytest

import occusid as oc


class Views:
    """A writable base array that records every view taken of it."""

    def __init__(self, dtype=float):
        self.base = np.arange(1, 61, dtype=dtype).reshape(6, 10)
        self.given = []

    def __getitem__(self, index):
        view = self.base[index]
        self.given.append(view)
        return view


def _stream_state(v):
    _, _, basis = oc.builtin_system("system1")
    return oc.StreamState(v[:3, :2], basis, oc.gaussian_rbf(1.0), 0.1)


# type -> (build from Views, the attributes holding the kept arrays)
CASES = {
    "Trajectory": (lambda v: oc.Trajectory(v[:4, :2], 0.1), ("samples",)),
    "ConstraintSystem": (lambda v: oc.ConstraintSystem(v[:3, :2], v[:3, 2], 1, 3), ("A", "b")),
    "GramSystem": (lambda v: oc.GramSystem(v[:2, :2], v[:2, 2], 1.0, 1), ("G", "r")),
    "EstimationResult": (lambda v: oc.EstimationResult(v[0, :3], 0.0, 1.0, 3), ("theta_hat",)),
    "EstimationResult-support": (
        lambda v: oc.EstimationResult(v[0, :3], 0.0, 1.0, 3, support=v[1, :2]),
        ("theta_hat", "support")),
    "StreamSnapshot": (lambda v: oc.StreamSnapshot(0.0, v[:3, :2], v[:3, 2], v[0, 3:5]),
                       ("A", "b", "theta")),
    "OccupationKernelEstimate": (
        lambda v: oc.OccupationKernelEstimate(oc.Trajectory(v[:5, :2], 0.1),
                                              oc.gaussian_rbf(1.0), "trapezoid"),
        ("trajectory.samples", "weights")),
    "FeatureMapKernel": (lambda v: oc.FeatureMapKernel(oc.gaussian_rbf(1.0), v[:3, :2]),
                         ("centers",)),
    "StreamState": (_stream_state, ("centers",)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_keeps_a_private_read_only_copy(name):
    build, attrs = CASES[name]
    views = Views()
    obj = build(views)
    kept = [attrgetter(a)(obj) for a in attrs]
    before = [k.copy() for k in kept]
    assert views.base.flags.writeable and all(v.flags.writeable for v in views.given)
    assert not any(k.flags.writeable for k in kept)
    views.base[...] = -7.0
    for k, old in zip(kept, before):
        np.testing.assert_array_equal(k, old)


@pytest.mark.parametrize("name", [name for name in CASES if name != "StreamState"])
@pytest.mark.parametrize("clone", [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copies_keep_read_only_arrays(name, clone):
    build, attrs = CASES[name]
    obj = build(Views())
    copied = clone(obj)
    assert type(copied) is type(obj)
    for attr in attrs:
        kept = attrgetter(attr)(copied)
        assert not kept.flags.writeable
        np.testing.assert_array_equal(kept, attrgetter(attr)(obj))


def _kept_arrays(obj, prefix=""):
    """(path, array) for every ndarray attribute of obj, dataclass fields and
    the attributes set after them, nested value types included."""
    for name, value in vars(obj).items():
        if isinstance(value, np.ndarray):
            yield prefix + name, value
        elif dataclasses.is_dataclass(value):
            yield from _kept_arrays(value, f"{prefix}{name}.")


@pytest.mark.parametrize("name", [name for name in CASES if name != "StreamState"])
def test_every_kept_array_is_read_only(name):
    """Every array attribute, found by walking the object rather than CASES's
    list, is read-only, also when built from integer arrays."""
    build, attrs = CASES[name]
    kept = dict(_kept_arrays(build(Views(dtype=int))))
    assert set(attrs) <= kept.keys()
    assert [path for path, a in kept.items() if a.flags.writeable] == []
