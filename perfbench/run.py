#!/usr/bin/env python3
"""occusid benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload lorenz_mc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is a JSON
detail record (machine block, output digest, every end-to-end number with
its unit, tail percentile and sample count). `--workload all` runs every
workload in its own process and prints a table instead. See README.md.
"""

import time

START = time.perf_counter()  # set-up is timed from here, before numpy is imported

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

SETUP_REPEATS = 3  # this process plus two --setup-only children
CHILD_TIMEOUT_S = 150
# Tail rungs. The ladder stops at p99: beyond it, on a shared 2-vCPU VM,
# the stream's latency is set by host preemption, and its p99.9 moved 3x
# between runs of one commit.
TAIL_LADDER = (50.0, 90.0, 99.0)
WORKLOAD_NAMES = ("lorenz_mc", "system1_sparse", "system1_gram", "system1_stream")


def import_occusid():
    """Import occusid from this checkout's src/ only; exit non-zero when it is absent."""
    package = os.path.join(SRC, "occusid")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: no occusid sources under {SRC}")
    sys.path.insert(0, SRC)
    import occusid

    if os.path.dirname(os.path.abspath(occusid.__file__)) != package:
        sys.exit(f"error: imported occusid from {occusid.__file__}, not {package}")


# -- machine block ------------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API; None if not OpenBLAS."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        done = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                              timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_block():
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        blas_name = blas_version = None
    commit = dirty = None
    if _git("rev-parse", "--show-toplevel") == ROOT:
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "git_commit": commit,
        "git_dirty": dirty,
    }


# -- measurement ---------------------------------------------------------------


def measure(wl, seconds, first_index):
    """Run whole units until `seconds` of wall time have passed (at least one)."""
    units, latencies = [], []
    index = first_index
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        unit = wl.unit(index)
        index += 1
        units.append(unit)
        latencies.extend(unit.latencies)
    wall = time.perf_counter() - start
    return units, latencies, wall, index


def tail(latencies):
    """Highest ladder percentile with at least 10 ops beyond it.

    Below 20 ops not even the median has 10 ops beyond it: the tail is not
    resolved, and the lowest rung, p50, is reported.
    """
    n = len(latencies)
    q = TAIL_LADDER[0]
    for rung in TAIL_LADDER:
        if n * (100.0 - rung) / 100.0 >= 10:
            q = rung
    return f"p{q:g}", float(np.percentile(latencies, q))


def summarize(units, latencies, wall):
    ops = len(latencies)
    failed = sum(len(u.latencies) for u in units if not u.ok)
    errs = [u.theta_err for u in units if u.theta_err is not None]
    tail_label, tail_s = tail(latencies)
    return {
        "attempted": ops,
        "failed": failed,
        "ops_per_s": (ops - failed) / wall,
        "op_ms_p50": 1e3 * float(np.median(latencies)),
        "op_ms_tail": 1e3 * tail_s,
        "tail_percentile": tail_label,
        "fail_frac": failed / ops,
        "theta_err": float(np.median(errs)) if errs else None,
        "errors": [u.error for u in units if u.error][:3],
    }


def child_setup_s(args):
    """Set-up time of a fresh process doing this run's set-up (--setup-only)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    import tracer as tracing
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = wl.unit(0)  # untimed: pays the cold BLAS thread-pool start
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if warm.ok else 1
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "machine": machine_block(),
            "digest_sha256": hashlib.sha256(warm.output).hexdigest(),
            "warmup_ok": warm.ok,
        }
        if warm.error:
            detail["warmup_error"] = warm.error
        if args.trace:
            result = traced_run(args, wl, tracing, detail)
        else:
            result = untraced_run(args, wl, setup_s, detail)
        result["correct"] = result["correct"] and warm.ok
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def untraced_run(args, wl, setup_s, detail):
    units, latencies, wall, _ = measure(wl, args.seconds, 1)
    s = summarize(units, latencies, wall)
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The bounded metrics of BENCHMARK.json; see README.md for why ops_per_s,
    # op_ms_p50, fail_frac and theta_err are reported in the detail record only.
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "op_ms_tail": {"value": s["op_ms_tail"], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail.update(
        end_to_end={
            **metrics,
            "ops_per_s": {"value": s["ops_per_s"], "unit": "ops/s"},
            "op_ms_p50": {"value": s["op_ms_p50"], "unit": "ms"},
            "fail_frac": {"value": s["fail_frac"], "unit": "ratio"},
            "theta_err": {"value": s["theta_err"], "unit": "l2"},
        },
        tail_percentile=s["tail_percentile"],
        n_ops=s["attempted"],
        n_units=len(units),
        measured_wall_s=wall,
        setup_s_each=setups,
        errors=s["errors"],
    )
    return {"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
            "metrics": metrics}


def traced_run(args, wl, tracing, detail):
    """Half the time untraced, then half traced; layer metrics come from the second."""
    half = args.seconds / 2.0
    units_a, lat_a, _, next_index = measure(wl, half, 1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl.tracer = tracer
    units_b, lat_b, _, _ = measure(wl, half, next_index)
    wl.tracer = None
    n_ops = len(lat_b)
    missing = tracing.self_check(tracer, args.workload)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in tracing.layer_metrics(tracer, n_ops).items()}
    overhead = float(np.median(lat_b)) / float(np.median(lat_a))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    units = units_a + units_b
    failed = sum(len(u.latencies) for u in units if not u.ok)
    detail.update(
        traced_ops=n_ops,
        untraced_ops=len(lat_a),
        missing_spans=missing,
        self_time_top=tracing.self_time_ranking(tracer, n_ops),
        errors=[u.error for u in units if u.error][:3],
    )
    return {"correct": failed == 0 and not missing, "attempted": len(lat_a) + n_ops,
            "failed": failed, "metrics": metrics}


# -- all workloads -----------------------------------------------------------


def run_all(args):
    """Each workload in its own process; prints every end-to-end metric by name."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
            ok = False
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        block = detail.get("end_to_end", result["metrics"])
        print(f"{name}  (seed {args.seed}, n={result['attempted']} ops, "
              f"tail={detail.get('tail_percentile', '-')}, digest {detail['digest_sha256'][:16]})")
        for metric, mv in block.items():
            print(f"  {metric:<48} {mv['value']!s:>24} {mv['unit']}")
        if args.trace:
            print(f"  self-time top: {detail['self_time_top'][:3]}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def _terminate(signum, frame):
    # SIGTERM unwinds like an exception, so the scratch directory is removed
    # and subprocess.run kills and reaps a running set-up child.
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up and the warm-up op, print setup_s, exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)
    import_occusid()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
