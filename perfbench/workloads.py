"""The four benchmark workloads.

Each workload is built from the workload seed alone, does its input
generation in the constructor, and runs "units" of work. A unit of a batch
workload is one CLI command run in-process through ``occusid.cli.main``; a
unit of the stream workload is one whole trajectory fed sample by sample, of
which every sample is one op. A unit returns the latency of each op it ran
and the outcome of its correctness gate.

Every library call goes through a module attribute (``cli.main``,
``streaming.stream_push``) looked up at call time, so the run-time wrappers
of the traced run see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from occusid import cli, dynamics, kernels, streaming, sysid, trajectory

SYSTEM1_X0_BOX = ((-0.5, 0.5), (-2.5, -1.5))  # criterion 1's lattice of starts
SYSTEM1_T, SYSTEM1_H = 1.0, 1e-3
POOL_SIZE = 8


@dataclass
class Unit:
    """One unit of work: per-op latencies (s) plus its gate outcome."""

    latencies: list
    ok: bool
    theta_err: float | None = None
    output: bytes = b""
    error: str | None = None


def op_seed(seed: int, index: int) -> int:
    """Per-op seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _system1_pool(seed, tag, min_abs_x1=0.0):
    """POOL_SIZE clean system1 trajectories with seed-drawn starts in the box.

    The box is symmetric in x1, so |x1(0)| is drawn from [min_abs_x1, 0.5]
    and given a random sign.
    """
    (_, hi1), (lo2, hi2) = SYSTEM1_X0_BOX
    rng = np.random.default_rng([seed, tag])
    x1 = rng.uniform(min_abs_x1, hi1, POOL_SIZE) * rng.choice([-1.0, 1.0], POOL_SIZE)
    x2 = rng.uniform(lo2, hi2, POOL_SIZE)
    field, _, _ = dynamics.builtin_system("system1")
    return [dynamics.integrate_rk4(field, x0, SYSTEM1_T, SYSTEM1_H)
            for x0 in np.stack([x1, x2], axis=1)]


def _summary(text: str) -> dict:
    """The `# summary: k=v,...` line of result.csv as a dict of floats."""
    line = text.rstrip("\n").splitlines()[-1]
    if not line.startswith("# summary: "):
        raise ValueError(f"result.csv has no summary line: {line!r}")
    pairs = (item.split("=", 1) for item in line[len("# summary: "):].split(","))
    return {k: float(v) if v else math.nan for k, v in pairs}


def _without_runtime(text: str) -> bytes:
    """result.csv with the runtime_seconds token removed (the only timing output)."""
    head, sep, _ = text.rpartition(",runtime_seconds=")
    if not sep:
        raise ValueError("result.csv summary has no runtime_seconds token")
    return head.encode()


class Workload:
    """Inputs are made in the constructor; unit(i) runs the i-th unit.

    While `tracer` is set, its `active` flag is raised around each op only,
    so gates and per-unit bookkeeping stay out of the layer numbers.
    """

    name = ""
    tracer = None

    def _op_begin(self):
        if self.tracer is not None:
            self.tracer.active = True

    def _op_end(self):
        if self.tracer is not None:
            self.tracer.active = False

    def unit(self, index: int) -> Unit:
        raise NotImplementedError


class CliWorkload(Workload):
    """A workload whose op is one `occusid` command run in-process."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out = os.path.join(workdir, "out")

    def argv(self, index: int) -> list:
        raise NotImplementedError

    def gate(self) -> tuple:
        """(ok, theta_err, output bytes) read from the files the op wrote."""
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        argv = self.argv(index) + ["--out", self.out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            self._op_begin()
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception:
                return Unit([time.perf_counter() - start], False, error=traceback.format_exc())
            finally:
                latency = time.perf_counter() - start
                self._op_end()
        if rc != 0:
            return Unit([latency], False, error=f"exit code {rc}: {err.getvalue().strip()}")
        try:
            ok, theta_err, output = self.gate()
        except (OSError, ValueError) as exc:
            return Unit([latency], False, error=f"unreadable output: {exc}")
        return Unit([latency], ok, theta_err, output,
                    None if ok else f"gate failed (theta_err={theta_err!r})")


class LorenzMonteCarlo(CliWorkload):
    """One noisy Lorenz trial: occupation-kernel solve against the ILS baseline."""

    name = "lorenz_mc"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["simulate", "--system", "lorenz", "--out", workdir])
        if rc != 0:
            raise RuntimeError(f"simulate --system lorenz exited {rc}")
        self.csv = os.path.join(workdir, "traj_000.csv")

    def argv(self, index):
        return ["montecarlo", "--system", "lorenz", "--trajectories", self.csv,
                "--trials", "1", "--seed", str(op_seed(self.seed, index))]

    def gate(self):
        with open(os.path.join(self.out, "montecarlo.csv"), "rb") as fh:
            data = fh.read()
        rows = [r for r in data.decode().splitlines()[1:] if r and not r.startswith("#")]
        if len(rows) != 1:
            return False, None, data
        _, ok_err, ils_err, ok_cond, ils_cond = (float(v) for v in rows[0].split(","))
        finite = all(math.isfinite(v) for v in (ok_err, ils_err, ok_cond, ils_cond))
        return finite and ok_err < ils_err, ok_err, data


class System1Sparse(CliWorkload):
    """25 simulated system1 trajectories, degree-5 library, lasso plus refits."""

    name = "system1_sparse"

    def argv(self, index):
        return ["identify", "--system", "system1", "--solver", "sparse",
                "--basis-degree", "5", "--lambda", "1e-3", "--threshold", "0.02",
                "--noise-sigma", "1e-3", "--seed", str(op_seed(self.seed, index))]

    def gate(self):
        with open(os.path.join(self.out, "result.csv")) as fh:
            text = fh.read()
        rows = [r.split(",") for r in text.splitlines()[1:-1]]
        true_terms = [r for r in rows if float(r[3]) != 0.0]
        summary = _summary(text)
        ok = (len(true_terms) == 4
              and all(float(r[4]) != 0.0 for r in true_terms)
              and summary["max_error"] <= 1e-3)
        return ok, summary["l2_error"], _without_runtime(text)


class System1Gram(CliWorkload):
    """Gram-route identification from one clean system1 trajectory."""

    name = "system1_gram"

    # x1 = 0 is invariant, so a start with x1 near 0 barely excites the x1
    # terms: the single-trajectory Gram system's condition number reaches
    # 2e11 and its max error (measured up to 0.56) misses criterion 1's
    # 1e-6. With |x1(0)| >= 0.25 the condition number stayed below 2.6e9
    # and the max error below 1.3e-7 in 24 draws.
    MIN_ABS_X1 = 0.25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.csvs = []
        for j, traj in enumerate(_system1_pool(seed, 1, self.MIN_ABS_X1)):
            path = os.path.join(workdir, f"gram_{j:03d}.csv")
            trajectory.save_csv(traj, path)
            self.csvs.append(path)

    def argv(self, index):
        return ["identify", "--system", "system1", "--solver", "gram",
                "--trajectories", self.csvs[index % len(self.csvs)]]

    def gate(self):
        with open(os.path.join(self.out, "result.csv")) as fh:
            text = fh.read()
        summary = _summary(text)
        return summary["max_error"] <= 1e-6, summary["l2_error"], _without_runtime(text)


class System1Stream(Workload):
    """Online tracking: stream_push plus gradient_chase_step per sample.

    Settings are `occusid stream --system system1` defaults: degree-2
    library, the 63 default centers, Gaussian mu = 10, growing window and
    automatic step size.
    """

    name = "system1_stream"

    def __init__(self, seed, workdir):
        _, self.theta_true, _ = dynamics.builtin_system("system1")
        self.basis = dynamics.monomial_basis(dynamics.MonomialSpec(2, 2))
        self.centers = cli.parse_centers("-3:3:1,-3:5:1")  # the CLI's system1 default
        self.kernel = kernels.gaussian_rbf(10.0)
        self.pool = _system1_pool(seed, 2)
        # The batch (A, b) each stream must reproduce, built here rather than
        # after each trajectory: a multithreaded BLAS call between
        # trajectories leaves OpenBLAS workers spinning, which slowed the
        # next ~100 samples up to tenfold on a 2-vCPU box.
        self.refs = [sysid.assemble([t], self.centers, self.basis, self.kernel, "trapezoid")
                     for t in self.pool]

    def unit(self, index):
        traj = self.pool[index % len(self.pool)]
        ref = self.refs[index % len(self.pool)]
        state = streaming.new_stream(self.centers, self.basis, self.kernel, traj.step)
        latencies = []
        try:
            for k, x in enumerate(traj.samples):
                self._op_begin()
                start = time.perf_counter()
                try:
                    streaming.stream_push(state, x, times=[k * traj.step])
                    streaming.gradient_chase_step(state)
                finally:
                    latencies.append(time.perf_counter() - start)
                    self._op_end()
        except Exception:
            return Unit(latencies, False, error=traceback.format_exc())
        A, b = streaming.stream_matrices(state)
        gap = max(float(np.abs(A - ref.A).max()), float(np.abs(b - ref.b).max()))
        theta_err = float(np.linalg.norm(state.theta - self.theta_true))
        output = state.theta.tobytes() + A.tobytes() + b.tobytes()
        ok = gap <= 1e-10
        return Unit(latencies, ok, theta_err, output,
                    None if ok else f"stream (A, b) differs from batch by {gap:.3g}")


WORKLOADS = {w.name: w for w in (LorenzMonteCarlo, System1Sparse, System1Gram, System1Stream)}
