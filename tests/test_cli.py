import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import occusid as oc
from occusid import cli
from occusid.cli import ExperimentConfig, main

RUNTIME = re.compile(r"runtime_seconds=[^,\n]*")


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors
        return exc.code


def run_stream(monkeypatch, argv, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(argv)


def summary_floats(result_csv):
    last = result_csv.read_text().strip().splitlines()[-1]
    assert last.startswith("# summary: ")
    out = {}
    for cell in last[len("# summary: "):].split(","):
        key, val = cell.split("=")
        out[key] = float(val) if val else None
    return out


def setting_flags():
    """{field name: flag} of every option the commands share, --config included."""
    return {a.dest: a.option_strings[0] for a in cli.build_parser()._actions
            if a.option_strings and a.dest != "help"}


def stream_rows(n, h=0.01, decay=0.5):
    rows = "\n".join(
        f"{float(i * h)!r},{float(np.exp(-decay * i * h))!r}" for i in range(n)
    )
    return "t,x1\n" + rows + "\n"


class TestSimulate:
    def test_writes_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = run(["simulate", "--system", "system1", "--n-trajectories", "2",
                      "--h", "1e-2", "--out", str(out)])
            assert rc == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == ["traj_000.csv", "traj_001.csv"]
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()
        tr = oc.load_csv(a / "traj_000.csv")
        assert tr.dim == 2
        assert tr.step == pytest.approx(1e-2)

    def test_requires_system(self, tmp_path, capsys):
        rc = run(["simulate", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: config:" in capsys.readouterr().err

    def test_unknown_system(self, tmp_path, capsys):
        rc = run(["simulate", "--system", "vanderpol", "--out", str(tmp_path)])
        assert rc == 2
        assert "vanderpol" in capsys.readouterr().err


class TestIdentify:
    ARGS = ["identify", "--system", "system1", "--n-trajectories", "5", "--h", "1e-2"]

    def test_result_csv(self, tmp_path):
        rc = run(self.ARGS + ["--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "result.csv").read_text().strip().splitlines()
        assert lines[0] == "param_index,monomial,dim,target,estimate,abs_error"
        data = [ln for ln in lines[1:] if not ln.startswith("#")]
        assert len(data) == 12  # degree-2 monomials in 2-D, one copy per coordinate
        first = data[0].split(",")
        assert first[0] == "0" and first[1] == "1" and first[2] == "1"
        summary = summary_floats(tmp_path / "result.csv")
        assert summary["l2_error"] < 1e-3
        assert summary["condition_number"] > 1.0

    def test_near_singular_fit_prints_a_note(self, tmp_path, capsys):
        lorenz = ["identify", "--system", "lorenz", "--T", "2", "--basis-degree", "3"]
        assert run(lorenz + ["--out", str(tmp_path / "lorenz")]) == 0
        out = capsys.readouterr().out.splitlines()
        assert summary_floats(tmp_path / "lorenz" / "result.csv")["condition_number"] > 1e10
        assert len(out) == 3 and out[1].startswith("note: condition_number ")
        assert "exceeds 1e+10; the fit is nearly singular" in out[1]
        assert out[2].startswith("note: effective rank 56 is below the 60 parameters")
        assert "note" not in (tmp_path / "lorenz" / "result.csv").read_text()
        assert run(["identify", "--system", "system1", "--out", str(tmp_path / "s1")]) == 0
        assert summary_floats(tmp_path / "s1" / "result.csv")["condition_number"] < 1e10
        assert "note" not in capsys.readouterr().out

    def test_deterministic_modulo_runtime(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(self.ARGS + ["--out", str(out)]) == 0
        ta = RUNTIME.sub("runtime_seconds=X", (a / "result.csv").read_text())
        tb = RUNTIME.sub("runtime_seconds=X", (b / "result.csv").read_text())
        assert ta == tb

    def test_from_trajectory_files(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--system", "system1", "--n-trajectories", "2",
                    "--h", "1e-2", "--out", str(sim)]) == 0
        paths = ",".join(str(sim / f"traj_{j:03d}.csv") for j in range(2))
        rc = run(["identify", "--trajectories", paths, "--centers=-3:3:1,-3:5:1",
                  "--mu", "10", "--out", str(tmp_path)])
        assert rc == 0
        # no reference parameters: target and error cells stay empty
        row = (tmp_path / "result.csv").read_text().splitlines()[1].split(",")
        assert row[3] == "" and row[5] == ""
        assert summary_floats(tmp_path / "result.csv")["l2_error"] is None

    def test_noise_and_filter_pipeline(self, tmp_path):
        rc = run(self.ARGS + ["--noise-sigma", "0.01", "--filter-window", "5",
                              "--segments", "2", "--out", str(tmp_path)])
        assert rc == 0

    def test_filter_lowers_noisy_error(self):
        # the fill-in rows of the trailing average lag less than its full
        # windows; kept, they made the filtered estimate worse than the raw one
        noisy = ExperimentConfig(system="system1", noise_sigma=0.01, seed=3000)
        raw = cli.run_identify(noisy).l2_error
        filtered = cli.run_identify(replace(noisy, filter_window=20)).l2_error
        assert filtered < raw / 2

    def test_solvers_agree_on_clean_data(self, tmp_path):
        errs = {}
        for solver in ("pinv", "ridge", "ils"):
            out = tmp_path / solver
            # ils yields 2 rows per trajectory, so it needs the full lattice
            # of 25 starts to pin down the 12 parameters
            args = ["identify", "--system", "system1", "--h", "1e-2",
                    "--solver", solver, "--out", str(out)]
            if solver == "ridge":
                args += ["--lambda", "1e-10"]
            assert run(args) == 0
            errs[solver] = summary_floats(out / "result.csv")["l2_error"]
        assert errs["pinv"] < 1e-3
        assert errs["ridge"] < 1e-3
        assert errs["ils"] < 1e-3

    def test_sparse_requires_lambda_and_threshold(self, tmp_path, capsys):
        rc = run(self.ARGS + ["--solver", "sparse", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: config:" in capsys.readouterr().err
        rc = run(self.ARGS + ["--solver", "sparse", "--lambda", "1e-3", "--out", str(tmp_path)])
        assert rc == 2
        assert "error: config: solver sparse requires --threshold" in capsys.readouterr().err

    SPARSE = ["--solver", "sparse", "--lambda", "1e-3", "--threshold", "0.02"]

    def test_sparse_end_to_end(self, tmp_path):
        assert run(self.ARGS + self.SPARSE + ["--out", str(tmp_path)]) == 0
        lines = (tmp_path / "result.csv").read_text().strip().splitlines()
        rows = [r.split(",") for r in lines[1:-1]]
        assert len(rows) == 12
        # the refit support is exactly the true terms; the rest are exact zeros
        for row in rows:
            assert (float(row[4]) == 0.0) == (float(row[3]) == 0.0)
        assert summary_floats(tmp_path / "result.csv")["l2_error"] < 1e-6

    def test_sparse_sweep_cap_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("occusid.sysid.CD_MAX_SWEEPS", 1)
        assert run(self.ARGS + self.SPARSE + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "error: numerical: coordinate descent did not converge in 1 sweeps" in err
        assert not (tmp_path / "result.csv").exists()

    def test_missing_trajectory_file(self, tmp_path, capsys):
        rc = run(["identify", "--trajectories", str(tmp_path / "nope.csv"),
                  "--centers=-1:1:1,-1:1:1", "--out", str(tmp_path)])
        assert rc == 2

    def test_bad_control_csv_names_its_line(self, tmp_path, capsys):
        ctl = tmp_path / "u.csv"
        ctl.write_text("t,tau\n0,1\n1,abc\n")
        rc = run(["identify", "--system", "emps_form", "--control-csv", str(ctl),
                  "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_targets_placed_by_label_and_dim(self, tmp_path):
        # the four true system1 terms, out of library order, plus a zero term
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_terms": [[[0, 1], 1], [[1, 1], 0], [[0, 0], 0],
                                                   [[2, 0], 1], [[1, 0], 0]]}))
        assert run(self.ARGS + ["--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "result.csv").read_text().splitlines()[1:-1]
        assert [(r.split(",")[1], r.split(",")[3]) for r in rows] == [
            ("x2", "-1"), ("x1*x2", "-1"), ("1", "0"), ("x1^2", "2"), ("x1", "2")]

    def test_library_missing_a_true_term_has_no_targets(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_terms": [[[1, 0], 0], [[2, 0], 1], [[0, 1], 1]]}))
        assert run(self.ARGS + ["--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert summary_floats(tmp_path / "result.csv")["l2_error"] is None

    @pytest.mark.parametrize("term", [[[1, 0], -1], [[1, 0], 1.5], [[1, 0], 7], [[1, 0, 0], 0]],
                             ids=["negative-dim", "fractional-dim", "dim-past-n", "n-plus-1-exps"])
    def test_basis_term_outside_the_library_is_config_error(self, tmp_path, capsys, term):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_terms": [term]}))
        out = tmp_path / "out"
        assert run(["identify", "--system", "system1", "--n-trajectories", "2",
                    "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: config: basis term ({term[0]!r}, {term[1]!r}) is not 2 non-negative "
            "integer exponents and a target dim in 0..1")
        assert not out.exists()

    @pytest.mark.parametrize("terms", [[[[1, 0], 0], [[1, 0], 0]],
                                       [[[0, 1], 1], [[1, 0], 0], [[0, 1], 1]]],
                             ids=["twice-in-a-row", "apart"])
    def test_repeated_basis_term_is_config_error(self, tmp_path, capsys, terms):
        # two equal columns were fitted at half the estimate each, with condition_number=1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_terms": terms}))
        out = tmp_path / "out"
        assert run(_ID1 + ["--n-trajectories", "2", "--config", str(cfg),
                           "--out", str(out)]) == 2
        exps, k = terms[-1]
        assert capsys.readouterr().err == (f"error: config: basis term ({exps!r}, {k!r}) "
                                           "is listed twice in basis_terms\n")
        assert not out.exists()

    def test_rank_deficient_fit_prints_a_note(self, tmp_path, capsys):
        # --rcond 0.5 keeps the singular values above half the largest only
        argv = _ID1 + ["--n-trajectories", "2", "--out", str(tmp_path / "cut")]
        assert run(argv + ["--rcond", "0.5"]) == 0
        out = capsys.readouterr().out.splitlines()
        rank = cli.run_identify(cli.ExperimentConfig(
            system="system1", h=1e-2, n_trajectories=2, rcond=0.5)).result.effective_rank
        assert 0 < rank < 12
        assert out[1:] == [f"note: effective rank {rank} is below the 12 parameters; the data "
                           "do not determine every estimate, and condition_number covers the "
                           "kept singular values only"]
        assert "note" not in (tmp_path / "cut" / "result.csv").read_text()
        assert run(argv[:-1] + [str(tmp_path / "full")]) == 0
        assert "note" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["identify", "stream"])
    def test_centers_of_another_dimension_are_config_error(self, tmp_path, monkeypatch, capsys,
                                                           command):
        argv = [command, "--system", "system1", "--centers=0:1:1,0:1:1,0:1:1",
                "--out", str(tmp_path / "out")]
        rows = "t,x1,x2\n" + "".join(f"{0.01 * i!r},0.5,-2.0\n" for i in range(5))
        assert (run_stream(monkeypatch, argv, rows) if command == "stream" else run(argv)) == 2
        assert capsys.readouterr().err == "error: config: centers have dimension 3, expected 2\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["identify", "stream"])
    def test_data_dimension_must_match_the_system(self, tmp_path, monkeypatch, capsys, command):
        field, _, _ = oc.builtin_system("lorenz")
        csv = tmp_path / "lorenz.csv"
        oc.save_csv(oc.integrate_rk4(field, np.array([-8.0, 7.0, 27.0]), 1.0, 1e-2), csv)
        argv = ["--system", "system1", "--centers=-20:20:10,-50:50:10,-20:50:10",
                "--out", str(tmp_path / "out")]
        if command == "identify":
            rc = run(["identify", "--trajectories", str(csv)] + argv)
        else:
            rc = run_stream(monkeypatch, ["stream"] + argv, csv.read_text())
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config:")
        assert "dimension 3" in err and "system1 has dimension 2" in err
        assert not (tmp_path / "out").exists()

    def test_kernel_overflow_is_numerical_error(self, tmp_path, capsys):
        # exp(mu x.c) overflows on Lorenz-sized states
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["identify", "--system", "lorenz", "--kernel", "expdot", "--mu", "1",
                      "--T", "2", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "exp_dot" in err and "mu=1" in err
        assert [str(w.message) for w in caught] == []

    def test_kernel_overflow_gram_is_numerical_error(self, tmp_path, capsys):
        # the Gram route meets the same overflow; it fails after a few
        # kernel block passes rather than one per basis pair
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run(["identify", "--system", "lorenz", "--kernel", "expdot", "--mu", "1",
                      "--T", "2", "--solver", "gram", "--out", str(tmp_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "exp_dot" in err and "mu=1" in err
        assert [str(w.message) for w in caught] == []


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "system1", "n_trajectories": 4, "h": 0.01}))
        rc = run(["simulate", "--config", str(cfg), "--n-trajectories", "2",
                  "--out", str(tmp_path / "o")])
        assert rc == 0
        assert len(list((tmp_path / "o").iterdir())) == 2

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "system1", "kernel_width": 5}))
        rc = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
        assert "kernel_width" in capsys.readouterr().err

    def test_lambda_alias(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "system": "system1", "n_trajectories": 5, "h": 0.01,
            "solver": "ridge", "lambda": 1e-10,
        }))
        rc = run(["identify", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0

    def test_malformed_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc = run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2

    def test_missing_config_file(self, tmp_path):
        rc = run(["simulate", "--config", str(tmp_path / "none.json"),
                  "--out", str(tmp_path)])
        assert rc == 2


# Flag text for one value of each setting; numbers read the same in JSON.
_FLAG_TEXT = {
    "system": "lorenz", "trajectories": "a.csv,b.csv", "control_csv": "u.csv",
    "kernel": "gaussian_rbf", "mu": "10", "degree": "3", "rule": "trapezoid",
    "basis_degree": "3", "centers": "-1:1:0.5", "solver": "gram", "lam": "1e-8",
    "threshold": "0.01", "max_refits": "4", "rcond": "1e-10", "noise_sigma": "0.01",
    "filter_window": "5", "segments": "4", "seed": "4294967297", "trials": "7",
    "n_trajectories": "2", "T": "2", "h": "0.005", "window": "0.5", "alpha": "0.1",
    "print_every": "10", "settle_steps": "20", "h_values": "0.04,0.02,0.01",
    "target": "occupation", "param": "mu", "values": "1,10", "jobs": "2", "out": "run",
}


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)
                                  if f.name != "basis_terms"])  # config files only
def test_flag_and_config_key_give_equal_configs(tmp_path, name):
    text = _FLAG_TEXT[name]
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text.split(",") if name == "trajectories" else text
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: value}))
    parser = cli.build_parser()
    flag = f"{setting_flags()[name]}={text}"
    from_flag = cli._merge_config(parser.parse_args(["identify", flag]))
    from_file = cli._merge_config(parser.parse_args(["identify", "--config", str(path)]))
    assert from_flag == from_file != ExperimentConfig()


def test_readme_experiment_commands_build_configs():
    # each command of the Experiments table gives the config of its own flags, without running
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n## Experiments\n")[1].split("\n## ")[0]
    commands = re.findall(r"`occusid ([^`]*)`", table)
    assert len(commands) >= 8
    parser = cli.build_parser()
    field_of = {flag: name for name, flag in setting_flags().items()}
    for command in commands:
        name, *tokens = command.split()
        expect = ExperimentConfig(**{field_of[f]: cli._parse_text(field_of[f], v)
                                     for f, v in zip(tokens[::2], tokens[1::2])})
        ns = parser.parse_args(command.split())
        assert ns.command == name
        assert cli._merge_config(ns) == expect
        # a flag may come before the command as well
        assert parser.parse_args(tokens + [name]) == ns


@pytest.mark.parametrize("argv", [["--help"], ["identify", "--help"], ["--help", "stream"]])
def test_help_lists_every_command_and_flag(capsys, argv):
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(cli._COMMANDS) + "}" in out
    flags = setting_flags()
    settings = {f.name for f in fields(ExperimentConfig)} - {"basis_terms"}  # config files only
    assert flags.keys() == settings | {"config"}
    missing = [flag for flag in flags.values()
               if not re.search(rf"{re.escape(flag)}(?![\w-])", out)]
    assert missing == []


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--system", "system1"], "the following arguments are required: command"),
    (["fit"], "invalid choice: 'fit'"),
    (["identify", "--kernel-width", "5"], "unrecognized arguments: --kernel-width 5"),
    (["identify", "stream"], "unrecognized arguments: stream"),
], ids=["none", "flags-only", "unknown-command", "unknown-flag", "two-commands"])
def test_bad_command_line_exits_2(capsys, argv, message):
    assert run(argv) == 2
    assert message in capsys.readouterr().err


def test_every_flag_is_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [flag for flag in setting_flags().values()
               if not re.search(rf"`{re.escape(flag)}(?![\w-])", readme)]
    assert missing == []


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ({"mu": "ten"}, ["identify"], "mu must be a number, got 'ten'"),
        ({"jobs": "2"}, ["sweep", "--param", "mu", "--values", "1,10"],
         "jobs must be an integer, got '2'"),
        ({"segments": 2.5}, ["identify"], "segments must be an integer, got 2.5"),
        ({"trajectories": 5}, ["identify"], "trajectories must be a list of str, got 5"),
        ({}, ["sweep", "--param", "segments", "--values", "2.5,2"],
         "segments must be an integer, got '2.5'"),
        ({}, ["identify", "--seed", "1.5"], "seed must be an integer, got '1.5'"),
        ({"noise_sigma": float("nan")}, ["identify"], "noise_sigma must be finite, got nan"),
        ({}, ["identify", "--solver", "lstsq"], "unknown solver 'lstsq'"),
        ({"kernel": "rbf"}, ["identify"], "unknown kernel name 'rbf'"),
        ({}, ["identify", "--rule", "midpoint"], "unknown quadrature rule 'midpoint'"),
        ({}, ["convergence", "--target", "order"], "unknown convergence target 'order'"),
        ({"centers": "0:1:inf,0:1:1"}, ["identify"],
         "centers: bound (0.0, 1.0) with width inf: need finite lo <= hi and a finite width > 0"),
        ({"h_values": "0.1,nan,0.01"}, ["convergence"],
         "all h values must be finite and positive, got '0.1,nan,0.01'"),
    ],
    ids=["config-mu", "config-jobs", "config-segments", "config-trajectories",
         "sweep-segments", "flag-seed", "config-nan", "solver", "kernel", "rule", "target",
         "config-centers", "config-h-values"],
)
def test_bad_value_names_its_key(tmp_path, capsys, config, argv, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = argv + ["--system", "system1", "--n-trajectories", "2", "--h", "1e-2"]
    assert run(argv + ["--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--trajectories", "{dir}", "--centers=-1:1:1,-1:1:1", "--out", "{dir}/out"],
        ["--config", "{dir}", "--out", "{dir}/out"],
        ["--system", "system1", "--n-trajectories", "1", "--h", "1e-2", "--out", "{file}/sub"],
    ],
    ids=["trajectories-dir", "config-dir", "out-under-file"],
)
def test_unusable_path_is_config_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("x")
    argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
    assert run(["identify"] + argv) == 2
    assert capsys.readouterr().err.startswith("error: config:")
    assert not (tmp_path / "out").exists()


class TestSweep:
    def test_single_value_matches_identify(self, tmp_path):
        base = ["--system", "system1", "--n-trajectories", "5", "--h", "1e-2"]
        assert run(["identify"] + base + ["--out", str(tmp_path / "i")]) == 0
        assert run(["sweep"] + base + ["--param", "n_trajectories", "--values", "5",
                                       "--out", str(tmp_path / "s")]) == 0
        l2 = summary_floats(tmp_path / "i" / "result.csv")["l2_error"]
        lines = (tmp_path / "s" / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,error"
        value, error = (float(c) for c in lines[1].split(","))
        assert value == 5.0
        assert error == pytest.approx(l2, rel=1e-12)

    def test_error_shrinks_with_more_trajectories(self, tmp_path):
        rc = run(["sweep", "--system", "system1", "--h", "1e-2",
                  "--param", "n_trajectories", "--values", "1,25",
                  "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert errs[1] < errs[0]

    def test_unknown_param(self, tmp_path, capsys):
        rc = run(["sweep", "--system", "system1", "--param", "kernel_width",
                  "--values", "1,2", "--out", str(tmp_path)])
        assert rc == 2
        assert "kernel_width" in capsys.readouterr().err

    def test_requires_param_and_values(self, tmp_path):
        assert run(["sweep", "--system", "system1", "--out", str(tmp_path)]) == 2

    def test_seed_sweep_simulates_once_and_matches_identify(self, tmp_path, monkeypatch):
        base = ["--system", "system1", "--n-trajectories", "3", "--h", "1e-2",
                "--noise-sigma", "1e-3", "--filter-window", "3", "--segments", "2"]
        calls = []
        simulate = cli._simulate_system
        monkeypatch.setattr(cli, "_simulate_system", lambda cfg: calls.append(cfg) or simulate(cfg))
        assert run(["sweep"] + base + ["--param", "seed", "--values", "4,5,6",
                                       "--out", str(tmp_path / "s")]) == 0
        assert len(calls) == 1
        rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        for seed, row in zip(("4", "5", "6"), rows):
            out = tmp_path / seed
            assert run(["identify"] + base + ["--seed", seed, "--out", str(out)]) == 0
            l2 = re.search(r"l2_error=([^,]*)", (out / "result.csv").read_text()).group(1)
            assert row == f"{seed},{l2}"

    def test_n_trajectories_sweep_simulates_the_largest_count_once(self, tmp_path, monkeypatch):
        calls = []
        rk4 = cli.integrate_rk4
        monkeypatch.setattr(cli, "integrate_rk4", lambda *a: calls.append(a) or rk4(*a))
        assert run(["sweep", "--system", "system1", "--h", "1e-2", "--param", "n_trajectories",
                    "--values", "5,10,15,20,25", "--out", str(tmp_path / "s")]) == 0
        assert len(calls) == 25
        rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        for count, row in zip(("5", "15", "25"), rows[::2]):
            out = tmp_path / count
            assert run(["identify", "--system", "system1", "--h", "1e-2",
                        "--n-trajectories", count, "--out", str(out)]) == 0
            l2 = re.search(r"l2_error=([^,]*)", (out / "result.csv").read_text()).group(1)
            assert row == f"{count},{l2}"

    def test_jobs_do_not_change_output(self, tmp_path):
        args = ["sweep", "--system", "system1", "--n-trajectories", "5", "--h", "1e-2",
                "--param", "noise_sigma", "--values", "0,0.01,0.02"]
        for jobs in ("1", "2"):
            assert run(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        one = (tmp_path / "1" / "sweep.csv").read_bytes()
        assert one == (tmp_path / "2" / "sweep.csv").read_bytes()


_MC = ["montecarlo", "--system", "system1", "--trials", "1", "--mu", "10",
       "--basis-degree", "2", "--n-trajectories", "5", "--h", "1e-2"]


@pytest.mark.parametrize(
    "argv",
    [
        _MC + ["--noise-sigma", "-0.01"],
        _MC + ["--segments", "0"],
        _MC + ["--segments", "-3"],
        _MC + ["--filter-window", "0"],
        _MC + ["--jobs", "0"],
        ["simulate", "--system", "system1", "--n-trajectories", "2", "--h", "1e-2",
         "--noise-sigma", "-1"],
        ["sweep", "--system", "system1", "--n-trajectories", "5", "--h", "1e-2",
         "--param", "noise_sigma", "--values", "0,0.01", "--jobs", "0"],
        ["identify", "--system", "system1", "--n-trajectories", "2", "--h", "1e-2",
         "--mu", "-1"],
        ["sweep", "--system", "system1", "--n-trajectories", "2", "--h", "1e-2",
         "--param", "mu", "--values", "-1"],
        ["convergence", "--system", "system1", "--n-trajectories", "2",
         "--h-values", "0.04,0.02,0.01", "--mu", "-1"],
    ],
    ids=["mc-sigma", "mc-segments-0", "mc-segments-neg", "mc-filter", "mc-jobs",
         "simulate-sigma", "sweep-jobs", "identify-mu", "sweep-mu", "convergence-mu"],
)
def test_bad_pipeline_setting_rejected_without_output(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert "error: config:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--trials", "1", "--jobs", "0"],
        ["sweep", "--system", "system1", "--param", "mu", "--values", "1,10", "--jobs", "0"],
        ["convergence", "--system", "system1", "--h-values", "0.04,0.02,0.01", "--jobs", "0"],
    ],
    ids=["montecarlo", "sweep", "convergence"],
)
def test_bad_jobs_rejected_before_simulation(tmp_path, capsys, monkeypatch, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before --jobs was checked")

    monkeypatch.setattr("occusid.cli.integrate_rk4", no_simulation)
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    assert "jobs must be >= 1" in capsys.readouterr().err


_ID1 = ["identify", "--system", "system1", "--h", "1e-2"]
_OCC = ["convergence", "--system", "system1", "--target", "occupation", "--h-values"]
_NEED = ": need finite lo <= hi and a finite width > 0"
_H_BAD = "all h values must be finite and positive, got "


@pytest.mark.parametrize(
    "argv, message",
    [
        (_ID1 + ["--centers=0:inf:1,0:1:1"], "centers: bound (0.0, inf) with width 1.0" + _NEED),
        (_ID1 + ["--centers=0:1:inf,0:1:1"], "centers: bound (0.0, 1.0) with width inf" + _NEED),
        (_ID1 + ["--centers=0:1:nan,0:1:1"], "centers: bound (0.0, 1.0) with width nan" + _NEED),
        (_ID1 + ["--centers=-1e308:1e308:1,0:1:1"],
         "centers: bound (-1e+308, 1e+308) with width 1.0" + _NEED),
        (_ID1 + ["--centers=0:1:0,0:1:1"], "centers: bound (0.0, 1.0) with width 0.0" + _NEED),
        (_ID1 + ["--centers=1:0:1,0:1:1"], "centers: bound (1.0, 0.0) with width 1.0" + _NEED),
        (["identify", "--system", "lorenz", "--centers=abc"],
         "center spec 'abc' is not lo:hi:width"),
        (["sweep", "--system", "system1", "--param", "mu", "--values", "1,10",
          "--centers=0:1:x,0:1:1"], "center spec '0:1:x' has non-numeric fields"),
        (_OCC + ["0.02,inf,0.01"], _H_BAD + "'0.02,inf,0.01'"),
        (_OCC + ["0.02,nan,0.01"], _H_BAD + "'0.02,nan,0.01'"),
        (_OCC + ["0.02,-0.01,0.01"], _H_BAD + "'0.02,-0.01,0.01'"),
        (_OCC + ["0.02,0.01"], "insufficient points: need at least 3 h values, got 2"),
    ],
    ids=["centers-inf-hi", "centers-inf-width", "centers-nan-width", "centers-inf-span",
         "centers-zero-width", "centers-empty", "centers-syntax", "sweep-centers",
         "h-values-inf", "h-values-nan", "h-values-negative", "h-values-two"],
)
def test_bad_centers_and_h_values_rejected_before_simulation(tmp_path, capsys, monkeypatch,
                                                            argv, message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before --centers / --h-values was checked")

    monkeypatch.setattr("occusid.cli.integrate_rk4", no_simulation)
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--centers", "0:1e300:1e-300,0:1:1"],  # (hi - lo) / width overflows
    ["--centers", "0:1:5e-324,0:1:1"],
    ["--mu", "1e-200"],  # mu * mu underflows to 0
    ["--mu", "1e-200", "--kernel", "poly"],
], ids=["centers-huge-span", "centers-subnormal-width", "mu-gaussian", "mu-poly"])
def test_extreme_finite_setting_is_config_error(tmp_path, capsys, monkeypatch, argv):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the setting was checked")

    monkeypatch.setattr("occusid.cli.integrate_rk4", no_simulation)
    assert run(["identify", "--system", "system1", *argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["stream", "--h", "-0.01"], "h must be positive, got -0.01"),
        (["simulate", "--system", "system1", "--T", "-1"], "T must be positive, got -1.0"),
        (["stream", "--settle-steps", "-5"], "settle steps must be >= 0, got -5"),
        (["stream", "--print-every", "-1"], "print every must be >= 0, got -1"),
        (["identify", "--system", "system1", "--n-trajectories", "0"],
         "n_trajectories must be >= 1, got 0"),
        (["identify", "--system", "system1", "--h", "1e-2", "--filter-window", "100"],
         "filter window 100 keeps fewer than 3 of a trajectory's 101 samples"),
        (["identify", "--system", "system1", "--solver", "sparse", "--lambda", "0.1",
          "--threshold", "0.1", "--max-refits", "0"], "max_refits must be >= 1, got 0"),
    ],
    ids=["stream-h", "simulate-T", "settle-steps", "print-every", "n-trajectories",
         "filter-window", "max-refits"],
)
def test_out_of_range_setting_names_itself(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stream_rows(20)))
    out = tmp_path / "out"
    assert run(argv + ["--centers=-1:3:1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config: {message}")
    assert not out.exists()


@pytest.mark.parametrize("name, text, message", [
    *[(name, "nan", f"{name} must be finite, got nan")
      for name, kind in cli._FIELD_TYPES.items() if kind[0] is float],
    ("mu", "inf", "mu must be finite, got inf"),
    *[(name, "-1", f"{label} must be >= 0, got -1.0") for name, label in
      [("rcond", "rcond"), ("lam", "lambda"), ("threshold", "threshold"), ("window", "window"),
       ("alpha", "alpha")]],
])
def test_number_setting_must_be_finite_and_in_range(name, text, message):
    ns = cli.build_parser().parse_args(["identify", f"{setting_flags()[name]}={text}"])
    with pytest.raises(cli.ConfigError, match=f"^{message}$"):
        cli._merge_config(ns)


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("count, message", [(1, "it does not apply to --trajectories files"),
                                            (0, "n_trajectories must be >= 1, got 0")])
def test_n_trajectories_with_trajectory_files_is_config_error(tmp_path, capsys, via, count,
                                                              message):
    assert run(["simulate", "--system", "system1", "--n-trajectories", "1", "--h", "1e-2",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    path = str(tmp_path / "traj_000.csv")
    if via == "flag":
        argv = ["--trajectories", path, "--n-trajectories", str(count)]
    else:
        (tmp_path / "cfg.json").write_text(
            json.dumps({"trajectories": [path], "n_trajectories": count}))
        argv = ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    assert run(["identify", "--system", "system1", "--out", str(out)] + argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# error lines that no other test reaches; each command exits 2 before writing --out
@pytest.mark.parametrize("argv, message", [
    (["convergence", "--system", "system1", "--h-values", "a,b,c"],
     "could not parse --h-values 'a,b,c'"),
    (["identify", "--system", "emps_form"],
     "emps_form needs --control-csv with the control signal"),
    (["identify", "--system", "lorenz", "--n-trajectories", "2"],
     "n_trajectories must be in 1..1 for lorenz, got 2"),
    (["identify"], "either --system or --trajectories is required"),
    (["identify", "--system", "system1", "--h", "1e-2", "--config", "terms.json"],
     "basis_terms entries must be [exponent list, target dim] pairs"),
    (["identify", "--trajectories", "f.csv"],
     "no default centers for this input; pass --centers lo:hi:width,..."),
    (["sweep", "--trajectories", "f.csv", "--centers=-1:3:1", "--param", "seed",
      "--values", "1,2"], "errors need a built-in system whose true terms are all in the basis"),
    (["montecarlo", "--trajectories", "f.csv"],
     "montecarlo requires --system (or the default lorenz setup)"),
    (["convergence", "--system", "system1"], "convergence requires --h-values h1,h2,..."),
    (["convergence", "--target", "occupation", "--h-values", "0.02,0.01,0.005"],
     "occupation convergence requires --system"),
    (["convergence", "--target", "occupation", "--system", "system1",
      "--h-values", "0.064,0.032,0.02"],
     "h=0.064 is not an exact multiple of the fine grid 0.0003125"),
    (["identify", "--config", "list.json"], "config file must hold a JSON object"),
    (["identify", "--trajectories", "empty.csv", "--centers=-1:3:1"], "line 1: empty file"),
    (["identify", "--trajectories", "zero_step.csv", "--centers=-1:3:1"],
     "line 3: time step must be positive, got 0.0"),
    # the files replace the simulation, so its settings would be ignored
    (["identify", "--trajectories", "f.csv", "--centers=-1:3:1", "--h", "0.5"],
     "h is the simulation step; it does not apply to --trajectories files"),
    (["identify", "--trajectories", "f.csv", "--centers=-1:3:1", "--T", "0.5"],
     "T is the simulated span; it does not apply to --trajectories files"),
    (["convergence", "--trajectories", "f.csv,f.csv", "--centers=-1:3:1",
      "--h-values", "0.01,0.005,0.0025"],
     "h_values lists simulation steps; it does not apply to --trajectories files"),
    # neither command reads the files, so they would be ignored
    (["simulate", "--system", "system1", "--trajectories", "f.csv"],
     "simulate writes trajectories; it does not read --trajectories"),
    (["stream", "--system", "system1", "--trajectories", "f.csv"],
     "stream reads its trajectory from stdin, not from --trajectories"),
], ids=["h-values-text", "emps-form-control", "lorenz-count", "no-data", "basis-term-not-pair",
        "no-default-centers", "sweep-without-system", "montecarlo-without-system",
        "convergence-h-values", "occupation-without-system", "occupation-grid",
        "config-not-object", "empty-file", "zero-step", "files-with-h", "files-with-T",
        "files-with-h-values", "simulate-with-files", "stream-with-files"])
def test_error_line_and_exit_code(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stream_rows(20)))
    files = {"f.csv": stream_rows(20), "terms.json": '{"basis_terms": [5]}',
             "list.json": "[1, 2]", "empty.csv": "", "zero_step.csv": "t,x1\n0,1\n0,2\n0,3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert run(argv + ["--out", "out"]) == 2
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not (tmp_path / "out").exists()


class TestMonteCarlo:
    ARGS = ["montecarlo", "--system", "system1", "--trials", "2", "--segments", "2",
            "--mu", "10", "--basis-degree", "2", "--n-trajectories", "5", "--h", "1e-2"]

    def test_small_run_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(self.ARGS + ["--out", str(out)]) == 0
        assert (a / "montecarlo.csv").read_bytes() == (b / "montecarlo.csv").read_bytes()
        lines = (a / "montecarlo.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,ok_error,ils_error,ok_cond,ils_cond"
        assert len([ln for ln in lines[1:] if not ln.startswith("#")]) == 2

    def test_zero_sigma_notes_floor(self, tmp_path):
        rc = run(self.ARGS + ["--noise-sigma", "0", "--out", str(tmp_path)])
        assert rc == 0
        assert "# note: sigma=0" in (tmp_path / "montecarlo.csv").read_text()

    def test_trials_validated(self, tmp_path):
        assert run(self.ARGS[:-2] + ["--trials", "0", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("n_traj", ["5", "1"])
    def test_jobs_do_not_change_output(self, tmp_path, n_traj):
        # one trajectory and several take different per-trial seed rules
        args = self.ARGS + ["--trials", "3", "--filter-window", "3", "--n-trajectories", n_traj]
        for jobs in ("1", "2"):
            assert run(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        one = (tmp_path / "1" / "montecarlo.csv").read_bytes()
        assert one == (tmp_path / "2" / "montecarlo.csv").read_bytes()


class TestConvergence:
    def test_identify_ladder(self, tmp_path):
        rc = run(["convergence", "--system", "system1", "--n-trajectories", "3",
                  "--h-values", "0.05,0.02,0.01", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "h,error"
        assert len(lines) == 5  # header + 3 points + order comment
        assert lines[-1].startswith("# order: ")
        order = float(lines[-1].split(": ")[1])
        assert order > 3.0  # default rule is simpson

    def test_occupation_ladder_matches_direct_computation(self, tmp_path):
        hs = [0.04, 0.02, 0.01]
        rc = run(["convergence", "--system", "system1", "--target", "occupation",
                  "--h-values", ",".join(map(str, hs)), "--out", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "convergence.csv").read_text().strip().splitlines()[1:-1]
        errors = [float(r.split(",")[1]) for r in rows]
        # one system1 trajectory from the first lattice start, on a grid 64x
        # finer than the smallest h, against a Simpson reference on that grid
        field, _, _ = oc.builtin_system("system1")
        x0 = oc.lattice_centers([(-0.5, 0.5), (-2.5, -1.5)], 0.25)[0]
        h_fine = min(hs) / 64
        fine = oc.integrate_rk4(field, x0, 1.0, h_fine)
        kernel = oc.gaussian_rbf(10.0)
        ref = oc.occupation_estimate(fine, kernel, "simpson")
        for h, err in zip(hs, errors):
            coarse = oc.subsample(fine, round(h / h_fine))
            est = oc.occupation_estimate(coarse, kernel, "simpson")
            assert err == pytest.approx(max(oc.norm_distance_squared(est, ref), 0.0),
                                        rel=1e-12, abs=1e-300)

    def test_jobs_do_not_change_output(self, tmp_path, monkeypatch):
        pooled = []
        real = cli._run_tasks

        def spy(fn, tasks, cfg):
            pooled.append(cfg.jobs)
            return real(fn, tasks, cfg)

        monkeypatch.setattr("occusid.cli._run_tasks", spy)
        args = ["convergence", "--system", "system1", "--n-trajectories", "3",
                "--h-values", "0.05,0.02,0.01"]
        for jobs in ("1", "2"):
            assert run(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        assert pooled == [1, 2]  # the ladder runs through the worker pool
        one = (tmp_path / "1" / "convergence.csv").read_bytes()
        assert one == (tmp_path / "2" / "convergence.csv").read_bytes()

    def test_errors_not_decreasing_add_floor_note(self, tmp_path, monkeypatch):
        # an emps_form occupation ladder at the roundoff floor read these
        monkeypatch.setattr("occusid.cli._occupation_ladder",
                            lambda cfg, hs: [7.2e-12, 9.4e-12, 1.1e-12])
        rc = run(["convergence", "--system", "system1", "--target", "occupation",
                  "--h-values", "0.04,0.02,0.01", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert lines[-2].startswith("# order: ")
        assert lines[-1].startswith("# note: ")
        assert "not meaningful" in lines[-1] and "roundoff floor" in lines[-1]

    def test_errors_at_the_floor_write_every_row_and_a_note(self, tmp_path, monkeypatch,
                                                            capsys):
        # the default Simpson ladder of system1 at these h reads these; the 0
        # is a distance clamped at the roundoff floor and has no logarithm
        errors = [6.9e-12, 4.8e-15, 2.2e-16, 0.0]
        monkeypatch.setattr("occusid.cli._occupation_ladder", lambda cfg, hs: errors)
        rc = run(["convergence", "--system", "system1", "--target", "occupation",
                  "--h-values", "0.04,0.02,0.01,0.005", "--out", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert [float(r.split(",")[1]) for r in lines[1:5]] == errors
        assert lines[5:] == ["# note: some errors are 0: they reached the roundoff floor, "
                             "so no order is fitted"]
        assert capsys.readouterr().out.endswith("(no order)\n")

    def test_insufficient_points(self, tmp_path, capsys):
        rc = run(["convergence", "--system", "system1", "--h-values", "0.05,0.02",
                  "--out", str(tmp_path)])
        assert rc == 2
        assert "insufficient points" in capsys.readouterr().err


class TestStream:
    def test_empty_input(self, monkeypatch, capsys):
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], "")
        assert rc == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("text", ["", "t,x1\n0,1\n0.01,1\n"],
                             ids=["empty", "rows"])
    def test_unknown_system_rejected_before_input_is_read(self, monkeypatch, capsys, text):
        stdin = io.StringIO(text)
        monkeypatch.setattr("sys.stdin", stdin)
        assert run(["stream", "--system", "vanderpol"]) == 2
        assert capsys.readouterr().err == ("error: config: unknown system 'vanderpol'; "
                                           "one of ['emps_form', 'lorenz', 'system1']\n")
        assert stdin.tell() == 0

    def test_header_and_one_row_print_nothing(self, monkeypatch, capsys):
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], "t,x1\n0,1\n")
        assert rc == 0
        assert capsys.readouterr() == ("", "")

    def test_prints_progress_and_final(self, monkeypatch, capsys):
        rc = run_stream(
            monkeypatch,
            ["stream", "--centers=-1:3:1", "--print-every", "40", "--settle-steps", "10"],
            stream_rows(80),
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # rows 40 and 80, then the settled line
        for ln in lines:
            cells = ln.split(",")
            assert len(cells) == 5  # time, three degree-2 coefficients, residual
            assert all(np.isfinite(float(c)) for c in cells)
        assert float(lines[-1].split(",")[0]) == pytest.approx(79 * 0.01)

    def test_zero_print_every_and_settle_steps_mean_none(self, monkeypatch, capsys):
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1", "--print-every", "0",
                                      "--settle-steps", "0"], stream_rows(30))
        assert rc == 0
        (line,) = capsys.readouterr().out.strip().splitlines()  # the final line only
        assert float(line.split(",")[0]) == pytest.approx(29 * 0.01)

    def test_bad_header(self, monkeypatch, capsys):
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], "time,x\n0,1\n")
        assert rc == 2
        assert "header" in capsys.readouterr().err

    def test_grid_discontinuity(self, monkeypatch, capsys):
        text = "t,x1\n0.0,1.0\n0.01,0.99\n0.5,0.5\n"
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], text)
        assert rc == 2
        assert "grid discontinuity" in capsys.readouterr().err

    @pytest.mark.parametrize("row, cell, argv, code, message", [
        (2, "nan", [], 2, "config: line 4: samples must be finite\n"),  # no --h hint
        # held until the second row fixes the step, and still named by its own line
        (0, "nan", [], 2, "config: line 2: samples must be finite\n"),
        # the kernel rows stay finite (about 1e237) but A^T A overflows
        (2, "-2.48", ["--kernel", "expdot", "--mu", "60"], 3,
         "numerical: kernel exp_dot with mu=60"),
    ], ids=["nan-sample", "nan-first-sample", "kernel-overflow"])
    def test_bad_sample_or_kernel_fails_as_in_batch(self, monkeypatch, capsys, recwarn,
                                                    row, cell, argv, code, message):
        rows = ["0.0,-0.5,-2.5", "0.01,-0.5,-2.49", "0.02,-0.5,-2.48"]
        rows[row] = rows[row].rsplit(",", 1)[0] + f",{cell}"
        text = "t,x1,x2\n" + "".join(r + "\n" for r in rows)
        assert run_stream(monkeypatch, ["stream", "--system", "system1"] + argv, text) == code
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("t0, t1, step", [
        ("nan", "0.01", "nan"), ("0.0", "inf", "inf"), ("0.01", "0.01", "0.0"),
        ("0.01", "0.0", "-0.01"),
    ], ids=["nan", "inf", "repeated", "decreasing"])
    def test_bad_step_from_the_first_two_rows_names_its_line(self, monkeypatch, capsys,
                                                             t0, t1, step):
        text = f"t,x1\n{t0},1.0\n{t1},0.99\n0.02,0.98\n"
        assert run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], text) == 2
        assert capsys.readouterr().err == (
            f"error: config: line 3: step must be finite and positive, got {step}\n")

    @pytest.mark.parametrize("t0", ["nan", "inf", "-inf"])
    def test_non_finite_first_time_with_h_names_its_line(self, monkeypatch, capsys, recwarn,
                                                         t0):
        text = f"t,x1\n{t0},1.0\n0.01,0.99\n"
        assert run_stream(monkeypatch, ["stream", "--centers=-1:3:1", "--h", "0.01"], text) == 2
        assert capsys.readouterr().err == "error: config: line 2: times must be finite\n"
        assert [str(w.message) for w in recwarn] == []

    def test_divergent_alpha_is_numerical_error(self, monkeypatch, capsys):
        rc = run_stream(
            monkeypatch,
            ["stream", "--centers=-1:3:1", "--alpha", "1e12"],
            stream_rows(80),
        )
        assert rc == 3
        assert "error: numerical:" in capsys.readouterr().err

    def test_ragged_row(self, monkeypatch, capsys):
        text = "t,x1\n0.0,1.0\n0.01\n"
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], text)
        assert rc == 2
        assert "line 3" in capsys.readouterr().err

    def test_far_origin_step_error_names_h(self, monkeypatch, capsys):
        # t[1] - t[0] carries the rounding of both times, so its grid drifts
        text = "t,x1\n" + "".join(
            f"{1e6 + k * 0.1!r},{float(np.exp(-0.05 * k))!r}\n" for k in range(60)
        )
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], text)
        assert rc == 2
        err = capsys.readouterr().err
        assert "first two rows" in err and "--h" in err
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1", "--h", "0.1"], text)
        assert rc == 0

    def test_basis_terms_select_the_library(self, tmp_path, monkeypatch, capsys):
        assert run(["simulate", "--system", "system1", "--n-trajectories", "1",
                    "--h", "1e-2", "--out", str(tmp_path)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"basis_terms": [[[1, 0], 0], [[1, 1], 0],
                                                   [[2, 0], 1], [[0, 1], 1]]}))
        text = (tmp_path / "traj_000.csv").read_text()
        capsys.readouterr()  # drop simulate's report
        rc = run_stream(monkeypatch, ["stream", "--system", "system1", "--config", str(cfg),
                                      "--print-every", "0", "--settle-steps", "5"], text)
        assert rc == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert len(line.split(",")) == 6  # time, four coefficients, residual

    def test_emps_form_streams_its_own_library(self, tmp_path, monkeypatch, capsys):
        ctl = tmp_path / "u.csv"
        ctl.write_text("t,tau\n" + "".join(
            f"{float(t)!r},{float(np.sin(3 * t))!r}\n" for t in np.linspace(0, 2, 201)))
        assert run(["simulate", "--system", "emps_form", "--control-csv", str(ctl),
                    "--h", "1e-2", "--out", str(tmp_path)]) == 0
        text = (tmp_path / "traj_000.csv").read_text()
        capsys.readouterr()  # drop simulate's report
        rc = run_stream(monkeypatch, ["stream", "--system", "emps_form", "--control-csv",
                                      str(ctl), "--centers=-1:1:1,-1:1:1,0:1:0.5",
                                      "--print-every", "0", "--settle-steps", "5"], text)
        assert rc == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert len(line.split(",")) == 6  # time, tau/viscous/Coulomb/offset, residual


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the subprocess finds the package under test without an installed copy
        src = str(Path(oc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "occusid", "identify", "--system", "system1",
             "--n-trajectories", "2", "--h", "1e-2", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "result.csv").exists()


# Runs each command (argv lists, JSON in argv[1]) twice in one process and
# prints the result.csv texts as a JSON list.
_TWICE_EACH = """
import contextlib, io, json, pathlib, sys, tempfile
from occusid import cli
texts = []
for argv in json.loads(sys.argv[1]):
    for _ in range(2):
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv + ["--out", out]) == 0
            texts.append(pathlib.Path(out, "result.csv").read_text())
print(json.dumps(texts))
"""


def _run_at_blas_threads(threads, script, *args):
    """stdout of `python -c script args` with BLAS limited to `threads` threads."""
    src = str(Path(oc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_blas_threads_move_theta_within_the_rounding_bound():
    """Equal BLAS thread counts give equal bytes; other counts move theta by rounding only.

    A thread count splits a matrix product's sums in another order. Each
    order of a sum of N terms is within gamma_N = N u of the exact sum (u the
    unit roundoff), so the system moves by a relative 2 N u at most, and the
    solution of a small-residual (noise-free) least-squares problem by
    cond * 2 N u * |theta| to first order, cond being the reported one. The
    direct route's sums run over a trajectory's P samples (N = P); the Gram
    route contracts its kernel blocks over samples and state coordinates, so
    its sums run over N = n P terms.
    """
    commands = [(["identify", "--system", "system1"], 1001),  # T = 1, h = 1e-3
                (["identify", "--system", "lorenz", "--T", "2", "--basis-degree", "3"], 2001),
                (["identify", "--system", "system1", "--solver", "gram"], 2 * 1001)]
    texts = {}
    for threads in ("1", "2"):
        out = _run_at_blas_threads(threads, _TWICE_EACH, json.dumps([argv for argv, _ in commands]))
        texts[threads] = [RUNTIME.sub("", text) for text in json.loads(out)]
    u = np.finfo(float).eps / 2
    for j, (argv, terms) in enumerate(commands):
        (a, a_again), (b, b_again) = texts["1"][2 * j: 2 * j + 2], texts["2"][2 * j: 2 * j + 2]
        assert a == a_again and b == b_again, argv
        theta_a, theta_b = (np.array([float(line.split(",")[4]) for line in text.splitlines()[1:]
                                      if not line.startswith("#")]) for text in (a, b))
        cond = max(float(re.search(r"condition_number=([^,]*)", t).group(1)) for t in (a, b))
        bound = cond * 2 * terms * u * np.linalg.norm(theta_a)
        assert np.linalg.norm(theta_a - theta_b) <= bound, argv


# Runs `stream --system system1` twice in one process on the CSV file at
# argv[1] and prints the two stdout texts as a JSON list.
_STREAM_TWICE = """
import contextlib, io, json, sys
from occusid import cli
texts = []
for _ in range(2):
    with open(sys.argv[1]) as stdin, contextlib.redirect_stdout(io.StringIO()) as out:
        sys.stdin = stdin
        assert cli.main(["stream", "--system", "system1"]) == 0
    texts.append(out.getvalue())
print(json.dumps(texts))
"""


def test_blas_threads_move_the_stream_within_the_rounding_bound(tmp_path):
    """Equal BLAS thread counts give equal stream bytes; other counts move theta by rounding only.

    Every push runs A^T A and its eigensolve for the step size, and every
    gradient step A^T (A theta - b), through BLAS and LAPACK. With alpha =
    1/lambda_max(A^T A) a gradient step does not expand the difference of two
    iterates (I - alpha A^T A has its eigenvalues in [0, 1]), so what rounding
    changes in one step is carried by the later ones but not grown. A step's
    sums run over N = S + M terms (S centers, M parameters) of about the size
    of |theta| on noise-free data, so K steps (one per sample, then the settle
    steps) move theta by K * 2 N u * |theta| at most, to first order. A is
    taken as equal across thread counts: its entries are sums over one sample
    at a time.
    """
    assert run(["simulate", "--system", "system1", "--n-trajectories", "1",
                "--out", str(tmp_path)]) == 0
    csv = tmp_path / "traj_000.csv"
    texts = {threads: json.loads(_run_at_blas_threads(threads, _STREAM_TWICE, str(csv)))
             for threads in ("1", "2")}
    for a, a_again in texts.values():
        assert a == a_again
    theta_a, theta_b = (np.array([float(v) for v in texts[t][0].splitlines()[-1].split(",")[1:-1]])
                        for t in ("1", "2"))
    cfg = ExperimentConfig(system="system1")
    N = len(cli._centers_for(cfg, 2)) + theta_a.size
    K = len(csv.read_text().splitlines()) - 1 + cfg.settle_steps
    bound = K * 2 * N * (np.finfo(float).eps / 2) * np.linalg.norm(theta_a)
    assert np.linalg.norm(theta_a - theta_b) <= bound
