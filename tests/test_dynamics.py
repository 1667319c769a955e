import re

import numpy as np
import pytest

import occusid as oc
from occusid.dynamics import MonomialSpec, monomial_exponents, monomial_index, monomial_label
from occusid.errors import DivergenceError


class TestMonomials:
    def test_exponents_graded_order_n2_d2(self):
        exps = monomial_exponents(2, 2)
        expect = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert [tuple(e) for e in exps] == expect

    def test_count_formula(self):
        # C(n + d, d) monomials up to degree d
        for n, d in [(1, 3), (2, 5), (3, 3)]:
            from math import comb

            assert monomial_exponents(n, d).shape[0] == comb(n + d, d)

    def test_labels(self):
        assert monomial_label(np.array([0, 0])) == "1"
        assert monomial_label(np.array([1, 0])) == "x1"
        assert monomial_label(np.array([2, 1])) == "x1^2*x2"

    def test_basis_values_match_direct(self):
        basis = oc.monomial_basis(MonomialSpec(2, 2))
        X = np.array([[1.5, -2.0], [0.0, 3.0]])
        V = basis.values(X)  # (M, P, n)
        exps = monomial_exponents(2, 2)
        M = len(basis.functions)
        assert V.shape == (M, 2, 2)
        per = exps.shape[0]
        for i in range(M):
            k, idx = divmod(i, per)
            mono = np.prod(X ** exps[idx], axis=1)
            direct = np.zeros((2, 2))
            direct[:, k] = mono
            assert np.allclose(V[i], direct)

    def test_target_dims_k_major(self):
        basis = oc.monomial_basis(MonomialSpec(2, 1))
        # per-dim block of 3 monomials (1, x1, x2)
        assert list(basis.target_dims) == [0, 0, 0, 1, 1, 1]

    def test_monomial_index_roundtrip(self):
        spec = MonomialSpec(3, 3)
        exps = monomial_exponents(3, 3)
        per = exps.shape[0]
        for k in range(3):
            for j in [0, 5, per - 1]:
                assert monomial_index(spec, exps[j], k) == k * per + j

    def test_monomial_index_unknown_exponent(self):
        with pytest.raises(ValueError):
            monomial_index(MonomialSpec(2, 2), [3, 0], 0)

    @pytest.mark.parametrize("exponents, k", [
        ([1, 0], -1), ([1, 0], 1.5), ([1, 0], 2), ([1, 0], True), ([1, 0, 0], 0),
        ([1], 0), ([-1, 1], 0), ([1.0, 0], 0), ("10", 0), (3, 0)])
    def test_monomial_index_rejects_keys_outside_the_library(self, exponents, k):
        key = re.escape(f"basis term ({exponents!r}, {k!r}) is not 2")
        with pytest.raises(ValueError, match=key):
            monomial_index(MonomialSpec(2, 2), exponents, k)

    @pytest.mark.parametrize("dim, degree, message", [
        (2, 2.5, "degree must be an integer >= 0, got 2.5"),
        (True, 1, "dim must be an integer >= 1, got True")], ids=["degree", "dim"])
    def test_spec_takes_integer_counts(self, dim, degree, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MonomialSpec(dim, degree)

    def test_combination_reconstructs_field(self, system1):
        field, theta_true, basis = system1
        x = np.array([[0.4, -1.7]])
        built = basis.combination(theta_true, x)
        assert np.allclose(built[0], field.func(x[0]))


class TestLattice:
    def test_system1_center_count(self):
        c = oc.lattice_centers([(-3, 3), (-3, 5)], 1.0)
        assert c.shape == (63, 2)  # 7 * 9

    def test_lorenz_center_count(self):
        c = oc.lattice_centers([(-20, 20), (-50, 50), (-20, 50)], 10.0)
        assert c.shape == (440, 3)  # 5 * 11 * 8

    def test_per_dim_widths(self):
        c = oc.lattice_centers([(-20, 20), (-50, 50), (-20, 50)], [10.0, 20.0, 14.0])
        assert c.shape == (180, 3)  # 5 * 6 * 6

    def test_spacing_and_bounds(self):
        c = oc.lattice_centers([(0, 1)], 0.25)
        assert np.allclose(c[:, 0], [0, 0.25, 0.5, 0.75, 1.0])

    def test_inexact_width_keeps_last_point(self):
        # 1/0.3 = 3.33: points at 0, .3, .6, .9
        c = oc.lattice_centers([(0, 1)], 0.3)
        assert len(c) == 4

    def test_bad_width(self):
        with pytest.raises(ValueError):
            oc.lattice_centers([(0, 1)], 0.0)
        with pytest.raises(ValueError, match="^one width per dimension required$"):
            oc.lattice_centers([(0, 1), (0, 1)], [0.5])

    @pytest.mark.parametrize("bounds, width, match", [
        ([(0, np.inf)], 1.0, "^bounds must be finite, got inf$"),
        ([(0, 1)], np.inf, "^width must be finite and positive, got inf$"),
        ([(np.nan, 1)], 1.0, "^bounds must be finite, got nan$"),
        ([(0, 1)], np.nan, "^width must be finite and positive, got nan$"),
        ([(-1e308, 1e308)], 1.0, "need lo <= hi with a finite hi - lo$"),
    ], ids=["bounds0-1.0", "bounds1-inf", "bounds2-1.0", "bounds3-nan", "bounds4-1.0"])
    def test_non_finite_bounds_or_width(self, bounds, width, match):
        with np.errstate(all="raise"), pytest.raises(ValueError, match=match):
            oc.lattice_centers(bounds, width)

    @pytest.mark.parametrize("bounds, width", [([(0, 1e300)], 1e-300), ([(0, 1)], 5e-324)])
    def test_point_count_past_the_float_range(self, bounds, width):
        with pytest.raises(ValueError, match="point count is not finite"):
            oc.lattice_centers(bounds, width)

    def test_points_in_order_first_dimension_slowest(self):
        bounds, widths = [(-1, 1), (0, 0.5), (2, 3)], [1.0, 0.25, 0.5]
        axes = [lo + w * np.arange(n) for (lo, _), w, n in zip(bounds, widths, (3, 3, 3))]
        expect = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert np.array_equal(oc.lattice_centers(bounds, widths), expect)

    @pytest.mark.parametrize("bounds, count", [
        # 16 bytes a point: past the 2**47-byte address space, so the request fails at
        # once under any overcommit setting, touching no memory
        ([(0, 1e15), (0, 1)], 2 * (10**15 + 1)),
        ([(0, 1e300), (0, 1e300)], (int(1e300) + 1) ** 2),  # past what numpy can index
    ], ids=["past-the-address-space", "past-the-index-range"])
    def test_lattice_too_large_to_allocate_names_its_exact_count(self, bounds, count):
        assert count * 2 * 8 > 2**47
        with pytest.raises(ValueError, match=f"^the lattice has {count} points, too many to "
                                             "allocate$"):
            oc.lattice_centers(bounds, 1.0)


class TestIntegrateRk4:
    def test_constant_field_exact(self):
        field = oc.VectorField(1, lambda x: np.array([2.0]))
        tr = oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.1)
        assert np.allclose(tr.samples[:, 0], 1.0 + 2.0 * tr.times())

    def test_exponential_order_four(self):
        field = oc.VectorField(1, lambda x: x.copy())
        errs = []
        hs = [1e-1, 1e-2, 1e-3]
        for h in hs:
            tr = oc.integrate_rk4(field, np.array([1.0]), 1.0, h)
            errs.append(abs(tr.samples[-1, 0] - np.e))
        slope = oc.empirical_order(list(zip(hs, errs)))
        assert slope == pytest.approx(4.0, abs=0.5)

    def test_step_count_validation(self):
        field = oc.VectorField(1, lambda x: x.copy())
        with pytest.raises(ValueError):
            oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.9)  # one step is too few
        # a T/h that is not whole would silently simulate another span (0.9 s here)
        with pytest.raises(ValueError, match="whole number"):
            oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.3)  # T/h = 3.33
        # a ratio that is whole up to rounding is accepted
        tr = oc.integrate_rk4(field, np.array([1.0]), 0.3, 0.1)  # 0.3 / 0.1 = 2.9999999999999996
        assert tr.samples.shape == (4, 1)

    @pytest.mark.parametrize("kw, name", [
        ({"T": np.inf}, "T"), ({"T": np.nan}, "T"), ({"h": np.nan}, "h"), ({"h": np.inf}, "h"),
        ({"T": 1e300, "h": 1e-300}, "T/h"),
        ({"process_noise": (np.nan, 7)}, "process_noise"),
        ({"process_noise": (np.inf, 7)}, "process_noise"),
        ({"x0": np.ones((1, 1))}, "x0"),
    ])
    def test_non_finite_argument_is_named(self, kw, name):
        field = oc.VectorField(1, lambda x: -x)
        args = {"x0": np.array([1.0]), "T": 1.0, "h": 0.1, **kw}
        with pytest.raises(ValueError, match=f"^{name} "):
            oc.integrate_rk4(field, **args)

    @pytest.mark.parametrize("value", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
    def test_field_value_of_another_length_is_rejected(self, value):
        # numpy arithmetic would broadcast a (1,) value over both coordinates
        field = oc.VectorField(2, lambda x: np.array(value))
        with pytest.raises(ValueError):
            oc.integrate_rk4(field, np.array([0.0, 0.0]), 1.0, 0.1)

    @pytest.mark.parametrize("noise", [(0.1, 3), lambda x: np.full(2, 0.1)],
                             ids=["bulk", "callable"])
    @pytest.mark.parametrize("value", [[1.0], [1.0, 2.0, 3.0]], ids=["short", "long"])
    def test_field_value_of_another_length_is_rejected_under_noise(self, value, noise):
        field = oc.VectorField(2, lambda x: np.array(value))
        with pytest.raises(ValueError):
            oc.integrate_rk4(field, np.array([0.0, 0.0]), 1.0, 0.1, process_noise=noise)

    def test_divergence_raises_with_time(self):
        field = oc.VectorField(1, lambda x: x * x)
        with pytest.raises(DivergenceError) as exc:
            oc.integrate_rk4(field, np.array([2.0]), 1.0, 1e-3)
        assert 0.0 < exc.value.time_reached < 1.0

    def test_process_noise_deterministic(self):
        field = oc.VectorField(1, lambda x: -x)
        a = oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.01, process_noise=(1e-3, 7))
        b = oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.01, process_noise=(1e-3, 7))
        assert np.array_equal(a.samples, b.samples)

    def test_process_noise_bounded_effect(self):
        field = oc.VectorField(1, lambda x: -x)
        clean = oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.01)
        eps = 1e-3
        noisy = oc.integrate_rk4(field, np.array([1.0]), 1.0, 0.01, process_noise=(eps, 7))
        # disturbance is bounded by eps, so paths deviate by at most ~eps * T * e^(LT)
        assert np.max(np.abs(noisy.samples - clean.samples)) < 10 * eps

    @pytest.mark.parametrize("kw, name", [
        ({"process_noise": (True, 3)}, "process_noise"), ({"T": True}, "T"), ({"h": True}, "h")])
    def test_bool_is_not_a_number(self, kw, name):
        # True would be taken as 1
        field = oc.VectorField(1, lambda x: -x)
        args = {"x0": np.array([1.0]), "T": 2.0, "h": 0.1, **kw}
        with pytest.raises(ValueError, match=f"^{name} .*got True$"):
            oc.integrate_rk4(field, **args)

    @pytest.mark.parametrize("eta", [lambda x: np.array([0.1]), lambda x: 0.1,
                                     lambda x: np.full((3, 1), 0.1), lambda x: np.zeros(4)],
                             ids=["one", "scalar", "column", "long"])
    def test_callable_disturbance_gives_n_values(self, eta):
        # numpy would broadcast one value over every coordinate
        field = oc.builtin_system("lorenz")[0]
        with pytest.raises(ValueError, match=r"^process_noise must give 3 values, got shape"):
            oc.integrate_rk4(field, np.array([1.0, 1.0, 1.0]), 0.01, 1e-3, process_noise=eta)

    def test_callable_disturbance(self):
        field = oc.VectorField(1, lambda x: np.zeros(1))
        tr = oc.integrate_rk4(field, np.array([0.0]), 1.0, 0.1, process_noise=lambda x: np.array([1.0]))
        assert np.allclose(tr.samples[:, 0], tr.times())


class TestBuiltinSystems:
    def test_system1_field_values(self, system1):
        field, theta_true, basis = system1
        x = np.array([1.0, 3.0])
        # x1' = 2 x1 - x1 x2, x2' = 2 x1^2 - x2
        assert np.allclose(field.func(x), [2.0 - 3.0, 2.0 - 3.0])
        assert np.array_equal(field(x), field.func(x))
        assert len(basis.functions) == 12

    def test_lorenz_field_values(self):
        field, theta_true, basis = oc.builtin_system("lorenz")
        x = np.array([1.0, 2.0, 3.0])
        sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
        expect = [sigma * (2.0 - 1.0), 1.0 * (rho - 3.0) - 2.0, 1.0 * 2.0 - beta * 3.0]
        assert np.allclose(field.func(x), expect)

    def test_lorenz_theta_reconstructs_field(self):
        field, theta_true, basis = oc.builtin_system("lorenz")
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 3))
        built = basis.combination(theta_true, X)
        direct = np.stack([field.func(x) for x in X])
        assert np.allclose(built, direct)

    def test_emps_requires_control(self):
        with pytest.raises(ValueError):
            oc.builtin_system("emps_form")
        with pytest.raises(ValueError, match="^emps_form theta must have 4 entries$"):
            oc.builtin_system("emps_form", control=np.cos, theta=np.ones(3))

    def test_emps_known_part_and_basis(self):
        tau = lambda t: np.full_like(np.asarray(t, dtype=float), 2.0)
        field, theta_true, basis = oc.builtin_system("emps_form", control=tau)
        assert field.time_augmented
        assert np.allclose(theta_true, oc.EMPS_DEFAULT_THETA)
        x = np.array([[0.5, -1.5, 0.25]])
        V = basis.values(x)  # (4, 1, 3), all on dim 1
        assert np.allclose(V[0, 0], [0.0, 2.0, 0.0])  # tau
        assert np.allclose(V[1, 0], [0.0, 1.5, 0.0])  # -x2
        assert np.allclose(V[2, 0], [0.0, 1.0, 0.0])  # -sign(x2)
        assert np.allclose(V[3, 0], [0.0, -1.0, 0.0])  # -1
        kv = basis.known_values(x)
        assert np.allclose(kv[0], [-1.5, 0.0, 1.0])  # h(x) = (x2, 0, 1)

    def test_emps_dynamics_consistent(self):
        tau = lambda t: 2.0 + 0.0 * np.asarray(t, dtype=float)
        field, theta_true, basis = oc.builtin_system("emps_form", control=tau)
        x = np.array([0.1, 0.8, 0.3])
        expect_dx2 = 1.2 * 2.0 - 0.8 * 0.8 - 0.4 * 1.0 - 0.15
        assert np.allclose(field.func(x), [0.8, expect_dx2, 1.0])

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            oc.builtin_system("mystery")

    @pytest.mark.parametrize("name, dim, terms", [
        ("system1", 2, {((1, 0), 0): 2.0, ((1, 1), 0): -1.0, ((2, 0), 1): 2.0,
                        ((0, 1), 1): -1.0}),
        ("lorenz", 3, {((1, 0, 0), 0): -10.0, ((0, 1, 0), 0): 10.0, ((1, 0, 0), 1): 28.0,
                       ((0, 1, 0), 1): -1.0, ((1, 0, 1), 1): -1.0, ((1, 1, 0), 2): 1.0,
                       ((0, 0, 1), 2): -8.0 / 3.0}),
    ])
    def test_true_theta_matches_monomial_index_placement(self, name, dim, terms):
        spec = MonomialSpec(dim, 2)
        expect = np.zeros(len(oc.monomial_basis(spec)))
        for (exps, k), value in terms.items():
            expect[monomial_index(spec, exps, k)] = value
        _, theta_true, _ = oc.builtin_system(name)
        assert np.array_equal(theta_true, expect)


def _library_of(name):
    if name == "emps_form":
        return oc.builtin_system(name, control=lambda t: np.sin(3.0 * t) + 2.0)[2]
    if name == "monomial_3d_deg3":
        return oc.monomial_basis(MonomialSpec(3, 3))
    return oc.builtin_system(name)[2]


@pytest.mark.parametrize("name", ["system1", "lorenz", "emps_form", "monomial_3d_deg3"])
def test_terms_are_zero_off_their_target_coordinate(name):
    basis = _library_of(name)
    X = np.random.default_rng(7).normal(size=(6, basis.dim))
    V = basis.values(X)
    for i, k in enumerate(basis.target_dims):
        off = np.delete(V[i], k, axis=1)
        assert np.array_equal(off, np.zeros_like(off)), basis.labels[i]


class TestControlCsv:
    def test_interpolation(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,tau\n0,1\n1,3\n")
        tau = oc.control_from_csv(path)
        assert tau(0.5) == pytest.approx(2.0)

    def test_header_required(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,u\n0,1\n1,3\n")
        with pytest.raises(ValueError):
            oc.control_from_csv(path)

    def test_two_rows_required(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,tau\n0,1\n")
        with pytest.raises(ValueError, match="^control CSV needs at least 2 rows$"):
            oc.control_from_csv(path)

    def test_strictly_increasing(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,tau\n0,1\n0,3\n")
        with pytest.raises(ValueError):
            oc.control_from_csv(path)

    def test_non_numeric_cell_names_its_line(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,tau\n0,1\n1,abc\n2,3\n")
        with pytest.raises(oc.TrajectoryParseError) as exc:
            oc.control_from_csv(path)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("t,tau\n0,1\n\n1,3,4\n")
        with pytest.raises(oc.TrajectoryParseError) as exc:
            oc.control_from_csv(path)
        assert exc.value.line == 4


class TestBasisSet:
    def test_select_subsets(self, system1):
        _, theta_true, basis = system1
        sub = basis.select([1, 4, 8, 9])
        assert len(sub.functions) == 4
        assert list(sub.labels) == [basis.labels[i] for i in [1, 4, 8, 9]]
        X = np.array([[0.3, -1.2]])
        assert np.allclose(sub.values(X), basis.values(X)[[1, 4, 8, 9]])

    @pytest.mark.parametrize("shape", [(4, 3), (4, 1), (3,), (2, 4, 2)])
    @pytest.mark.parametrize("build", ["monomial", "emps_form", "hand-built"])
    def test_points_of_another_dimension_are_rejected(self, build, shape):
        # (4, 3) against a 2-D monomial basis gave (M, 4, 2) values without x3
        basis = {"monomial": lambda: oc.monomial_basis(MonomialSpec(2, 1)),
                 "emps_form": lambda: oc.builtin_system("emps_form", control=np.cos)[2],
                 "hand-built": lambda: oc.BasisSet(dim=2, functions=(lambda X: X ** 2,),
                                                   labels=("sq",))}[build]()
        if shape[-1] == basis.dim:
            shape = shape[:-1] + (basis.dim + 1,)
        X = np.ones(shape)
        for call in (basis.values, lambda X: basis.values(X, terms=True),
                     lambda X: basis.combination(np.ones(len(basis)), X)):
            with pytest.raises(ValueError, match=rf"{re.escape(str(np.atleast_2d(X).shape))}.*"
                                                 rf"dimension {basis.dim}"):
                call(X)

    @pytest.mark.parametrize("build, message", [
        (lambda: oc.BasisSet(2, (), ()), "BasisSet needs at least one function"),
        (lambda: oc.BasisSet(2, (np.square,), ("a", "b")), "labels and functions must align"),
        (lambda: oc.BasisSet(2, (np.square,), ("a",), (0, 1)),
         "target_dims and functions must align"),
        (lambda: oc.monomial_basis(MonomialSpec(2, 1)).combination(np.ones(5), np.ones((1, 2))),
         "theta must have length 6"),
    ], ids=["empty", "labels", "target-dims", "theta"])
    def test_malformed_library_or_theta_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_known_part_defaults_to_none(self, system1):
        # combination must then be the pure weighted sum
        _, _, basis = system1
        X = np.array([[0.5, 0.5], [1.0, -1.0]])
        assert basis.known_values(X) is None
        theta = np.arange(len(basis), dtype=float)
        expect = np.tensordot(theta, basis.values(X), axes=(0, 0))
        assert np.allclose(basis.combination(theta, X), expect)
