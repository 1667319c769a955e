"""Every scalar argument of the library goes through one checking owner.

Each case calls a public function with one scalar argument set to v. A bool,
a string and None are not real numbers: each raises a ValueError whose
message starts with the argument's name (`lambda` for lam), unless it is one
of the argument's valid values (alpha's None, its default). Each valid value
passes, infinities included where the argument accepts them.
"""

import re

import numpy as np
import pytest

import occusid as oc

TRAJ = oc.Trajectory(np.linspace(0.0, 1.0, 9)[:, None], 0.1)
FIELD = oc.VectorField(1, lambda x: -x)
KERNEL = oc.gaussian_rbf(1.0)
SYS = oc.ConstraintSystem(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([2.0, 1.0, 2.0]), 1, 3)


def _stream(step=0.1, **kw):
    _, _, basis = oc.builtin_system("system1")
    return oc.new_stream(np.zeros((1, 2)), basis, KERNEL, step, **kw)


# (case id, the name its error starts with, call with the argument set to v, valid values)
CASES = [
    ("Trajectory:step", "step", lambda v: oc.Trajectory(np.zeros((3, 1)), v), (0.1,)),
    ("segment:parts", "parts", lambda v: oc.segment(TRAJ, v), (2,)),
    ("add_measurement_noise:sigma", "sigma",
     lambda v: oc.add_measurement_noise(TRAJ, v, 0), (0.1,)),
    ("moving_average:window", "window", lambda v: oc.moving_average(TRAJ, v), (2,)),
    ("subsample:stride", "stride", lambda v: oc.subsample(TRAJ, v), (2,)),
    ("MonomialSpec:dim", "dim", lambda v: oc.MonomialSpec(v, 2), (2,)),
    ("MonomialSpec:degree", "degree", lambda v: oc.MonomialSpec(2, v), (2,)),
    ("integrate_rk4:T", "T", lambda v: oc.integrate_rk4(FIELD, [1.0], v, 0.1), (1.0,)),
    ("integrate_rk4:h", "h", lambda v: oc.integrate_rk4(FIELD, [1.0], 1.0, v), (0.1,)),
    ("integrate_rk4:process_noise", "process_noise amplitude",
     lambda v: oc.integrate_rk4(FIELD, [1.0], 1.0, 0.1, process_noise=(v, 0)), (0.1,)),
    ("lattice_centers:bounds", "bounds", lambda v: oc.lattice_centers([(0.0, v)], 0.5), (1.0,)),
    ("lattice_centers:width", "width", lambda v: oc.lattice_centers([(0.0, 1.0)], v), (0.5,)),
    ("weights:h", "h", lambda v: oc.weights("trapezoid", 4, v), (0.1,)),
    ("homotopy_distance:s1", "s1",
     lambda v: oc.homotopy_distance(TRAJ, TRAJ, v, 1.0, KERNEL, "trapezoid"), (0.5,)),
    ("homotopy_distance:s2", "s2",
     lambda v: oc.homotopy_distance(TRAJ, TRAJ, 0.0, v, KERNEL, "trapezoid"), (0.5,)),
    ("new_stream:step", "step", lambda v: _stream(step=v), (0.1,)),
    ("new_stream:window", "window", lambda v: _stream(window=v), (0.5, np.inf)),
    ("new_stream:alpha", "alpha", lambda v: _stream(alpha=v), (0.1, None)),
    ("solve_pinv:rcond", "rcond", lambda v: oc.solve_pinv(SYS, rcond=v), (1e-12, np.inf)),
    ("solve_ridge:lam", "lambda", lambda v: oc.solve_ridge(SYS, v), (0.1, np.inf)),
    ("solve_sparse:lam", "lambda", lambda v: oc.solve_sparse(SYS, v, 0.0), (0.1, np.inf)),
    ("solve_sparse:threshold", "threshold",
     lambda v: oc.solve_sparse(SYS, 0.0, v), (0.1, np.inf)),
    ("solve_sparse:max_refits", "max_refits",
     lambda v: oc.solve_sparse(SYS, 0.1, 0.0, max_refits=v), (2,)),
]


@pytest.mark.parametrize("name, call, bad", [
    pytest.param(name, call, bad, id=f"{case}-{bad!r}")
    for case, name, call, valid in CASES for bad in (True, "1", None)
    if all(bad is not v for v in valid)])  # `in` would take True for a valid 1.0
def test_a_value_that_is_not_a_real_number_is_named(name, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(bad)


@pytest.mark.parametrize("call, valid", [case[2:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_valid_values_pass(call, valid):
    for v in valid:
        call(v)
