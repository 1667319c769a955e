import io
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import occusid as oc
from occusid.cli import main

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

    def test_missing_trajectory_file(self, tmp_path, capsys):
        rc = run(["identify", "--trajectories", str(tmp_path / "nope.csv"),
                  "--centers=-1:1:1,-1:1:1", "--out", str(tmp_path)])
        assert rc == 2

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

    def test_bad_header(self, monkeypatch, capsys):
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], "time,x\n0,1\n")
        assert rc == 2
        assert "header" in capsys.readouterr().err

    def test_grid_discontinuity(self, monkeypatch, capsys):
        text = "t,x1\n0.0,1.0\n0.01,0.99\n0.5,0.5\n"
        rc = run_stream(monkeypatch, ["stream", "--centers=-1:3:1"], text)
        assert rc == 2
        assert "grid discontinuity" in capsys.readouterr().err

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


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "occusid", "identify", "--system", "system1",
             "--n-trajectories", "2", "--h", "1e-2", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "result.csv").exists()
