"""Run-time span tracing of the occusid modules, and the per-layer metrics.

install() wraps every public function of each module in LAYERS, and every
public method of the classes those modules define, without changing any file
under src/. Each module-level name that refers to a wrapped function is
rebound, in every occusid module and in the package namespace, together with
module-level dicts of functions (cli._COMMANDS), so a caller that imported a
function by name (``from .sysid import assemble`` in cli) is traced as well.

A span records wall time (perf_counter) and process CPU time (process_time,
which includes BLAS threads); its self time is its duration minus the time
of the spans it directly contains. Spans are recorded only while the
tracer's `active` flag is up, which the workload raises around each op, and
are folded into per-name totals as they close. Counts are computed from
argument and return shapes, never measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter, process_time

import numpy as np

LAYERS = ("cli", "trajectory", "dynamics", "kernels", "quadrature", "sysid", "gramsysid",
          "streaming")

CLI_WORKLOADS = frozenset({"lorenz_mc", "system1_sparse", "system1_gram"})
ALL_WORKLOADS = CLI_WORKLOADS | {"system1_stream"}

# Span -> workloads whose ops must record at least one such span. A traced
# run fails its self-check when one of them records none, which is how a
# wrapper that missed a by-name import shows.
REQUIRED_SPANS = {
    "cli.main": CLI_WORKLOADS,
    "cli.run_identify": {"system1_sparse", "system1_gram"},
    "trajectory.load_csv": {"lorenz_mc", "system1_gram"},
    "trajectory.add_measurement_noise": {"lorenz_mc", "system1_sparse"},
    "trajectory.segment": {"lorenz_mc"},
    "dynamics.integrate_rk4": {"system1_sparse"},
    "dynamics.BasisSet.values": ALL_WORKLOADS,
    "kernels.Kernel.assemble_block_multi": ALL_WORKLOADS,
    "kernels.Kernel.pre_inner_pairwise": {"system1_gram"},
    "kernels.Kernel.matrix": ALL_WORKLOADS,
    "quadrature.weights": CLI_WORKLOADS,
    "sysid.assemble": {"lorenz_mc", "system1_sparse"},
    "sysid.solve_pinv": {"lorenz_mc"},
    "sysid.ils_solve": {"lorenz_mc"},
    "sysid.solve_sparse": {"system1_sparse"},
    "gramsysid.gram_assemble": {"system1_gram"},
    "gramsysid.gram_solve": {"system1_gram"},
    "streaming.stream_push": {"system1_stream"},
    "streaming.gradient_chase_step": {"system1_stream"},
    "streaming.StreamState.matrices": {"system1_stream"},
}


class SpanStats:
    """Per-name totals plus every duration, for percentiles."""

    __slots__ = ("calls", "wall", "cpu", "self_wall", "durations", "counts")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.self_wall = 0.0
        self.durations = array("d")
        self.counts = {}

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


def _rows(a) -> int:
    return np.atleast_2d(np.asarray(a)).shape[0]


# Counters computed from (tracer, args, result) of a successful call.
def _count_rk4(tr, args, out):
    tr.stats["dynamics.integrate_rk4"].count("steps", out.n_intervals)


def _count_values(tr, args, out):
    st = tr.stats["dynamics.BasisSet.values"]
    st.count("entries", out.size)
    st.count("zeros", out.size - int(np.count_nonzero(out)))


def _count_block(tr, args, out):
    _, X, C = args[:3]
    tr.stats["kernels.Kernel.assemble_block_multi"].count("kernel_evals", _rows(X) * _rows(C))


def _count_pairwise(tr, args, out):
    tr.stats["kernels.Kernel.pre_inner_pairwise"].count("entries", out.size)


def _count_matrix(tr, args, out):
    st = tr.stats["kernels.Kernel.matrix"]
    st.count("entries", out.size)
    if "gramsysid.gram_assemble" in tr.open_names():
        st.count("entries_in_gram_assemble", out.size)


def _count_assemble(tr, args, out):
    tr.stats["sysid.assemble"].count("rows", out.A.shape[0])
    tr.last_system = out


def _count_solve(tr, args, out):
    # Health of the solve of the system sysid.assemble built in this op;
    # solves of other systems (the ILS baseline) are not counted here.
    if args and args[0] is tr.last_system:
        st = tr.stats["sysid.solve"]
        st.count("rank", out.effective_rank)
        st.count("cond", out.condition_number)
        st.count("solves", 1)
        tr.last_system = None


def _count_gram(tr, args, out):
    trajs = args[0]
    if hasattr(trajs, "samples"):  # a single Trajectory
        trajs = [trajs]
    p2 = sum(t.n_samples ** 2 for t in trajs)
    tr.stats["gramsysid.gram_assemble"].count("p_squared", p2)


def _count_push(tr, args, out):
    tr.stats["streaming.stream_push"].count("samples", _rows(args[1]))


COUNTERS = {
    "dynamics.integrate_rk4": _count_rk4,
    "dynamics.BasisSet.values": _count_values,
    "kernels.Kernel.assemble_block_multi": _count_block,
    "kernels.Kernel.pre_inner_pairwise": _count_pairwise,
    "kernels.Kernel.matrix": _count_matrix,
    "sysid.assemble": _count_assemble,
    "sysid.solve_pinv": _count_solve,
    "sysid.solve_sparse": _count_solve,
    "gramsysid.gram_assemble": _count_gram,
    "streaming.stream_push": _count_push,
}


class Tracer:
    """Span totals per name, for the spans closed while `active` is up."""

    def __init__(self):
        self.active = False
        self.stats = {}
        self.last_system = None
        self._stack = []  # open spans: [name, wall of closed children]

    def open_names(self):
        return [frame[0] for frame in self._stack]

    def wrap(self, name, fn):
        self.stats[name] = SpanStats()
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            c0 = process_time()
            w0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                wall = perf_counter() - w0
                cpu = process_time() - c0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += wall
                st = self.stats[name]
                st.calls += 1
                st.wall += wall
                st.cpu += cpu
                st.self_wall += wall - frame[1]
                st.durations.append(wall)
            if counter is not None:
                counter(self, args, out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Wrap the occusid layers in place, for the rest of the process."""
    package = importlib.import_module("occusid")
    modules = [importlib.import_module(f"occusid.{name}") for name in LAYERS]
    wrapped = {}  # original function -> wrapper
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, fn in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, attr, tracer.wrap(f"{short}.{obj.__name__}.{attr}", fn))
    for ns in [package] + modules:
        for name, val in list(vars(ns).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(ns, name, wrapped[val])
            elif isinstance(val, dict):
                for key, item in list(val.items()):
                    if inspect.isfunction(item) and item in wrapped:
                        val[key] = wrapped[item]
    tracer.stats["sysid.solve"] = SpanStats()  # counter-only entry


def self_check(tracer: Tracer, workload: str) -> list:
    """Required spans that recorded nothing on this workload."""
    return sorted(name for name, on in REQUIRED_SPANS.items()
                  if workload in on and tracer.stats.get(name, SpanStats()).calls == 0)


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Every per-layer metric, {name: (value, unit)}, averaged per op.

    A layer that recorded no spans reads 0.
    """
    S = defaultdict(SpanStats, tracer.stats)

    def ms(name):
        return 1e3 * S[name].wall / n_ops

    def cpu_ms(name):
        return 1e3 * S[name].cpu / n_ops

    def calls(name):
        return S[name].calls / n_ops

    def per_op(name, key):
        return S[name].counts.get(key, 0) / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    def pct(name, q):
        d = S[name].durations
        return 1e3 * float(np.percentile(d, q)) if len(d) else 0.0

    samples = S["streaming.stream_push"].counts.get("samples", 0)
    values = S["dynamics.BasisSet.values"].counts
    solve = S["sysid.solve"].counts
    n_solves = solve.get("solves", 0)
    MS, CALLS = "ms/op", "calls/op"
    return {
        "cli.main.self_ms": (1e3 * S["cli.main"].self_wall / n_ops, MS),
        "cli.run_identify.ms": (ms("cli.run_identify"), MS),
        "trajectory.load_csv.ms": (ms("trajectory.load_csv"), MS),
        "trajectory.add_measurement_noise.ms": (ms("trajectory.add_measurement_noise"), MS),
        "trajectory.segment.ms": (ms("trajectory.segment"), MS),
        "dynamics.integrate_rk4.ms": (ms("dynamics.integrate_rk4"), MS),
        "dynamics.integrate_rk4.steps": (per_op("dynamics.integrate_rk4", "steps"), "steps/op"),
        "dynamics.BasisSet.values.ms": (ms("dynamics.BasisSet.values"), MS),
        "dynamics.BasisSet.values.cpu_ms": (cpu_ms("dynamics.BasisSet.values"), MS),
        "dynamics.BasisSet.values.calls": (calls("dynamics.BasisSet.values"), CALLS),
        "dynamics.BasisSet.values.entries": (per_op("dynamics.BasisSet.values", "entries"),
                                             "entries/op"),
        "dynamics.BasisSet.values.zero_frac": (
            ratio(values.get("zeros", 0), values.get("entries", 0)), "ratio"),
        "kernels.Kernel.assemble_block_multi.ms": (ms("kernels.Kernel.assemble_block_multi"), MS),
        "kernels.Kernel.assemble_block_multi.cpu_ms": (
            cpu_ms("kernels.Kernel.assemble_block_multi"), MS),
        "kernels.Kernel.assemble_block_multi.calls": (
            calls("kernels.Kernel.assemble_block_multi"), CALLS),
        "kernels.Kernel.assemble_block_multi.kernel_evals": (
            per_op("kernels.Kernel.assemble_block_multi", "kernel_evals"), "evals/op"),
        "kernels.Kernel.pre_inner_pairwise.ms": (ms("kernels.Kernel.pre_inner_pairwise"), MS),
        "kernels.Kernel.pre_inner_pairwise.cpu_ms": (
            cpu_ms("kernels.Kernel.pre_inner_pairwise"), MS),
        "kernels.Kernel.pre_inner_pairwise.calls": (
            calls("kernels.Kernel.pre_inner_pairwise"), CALLS),
        "kernels.Kernel.pre_inner_pairwise.entries": (
            per_op("kernels.Kernel.pre_inner_pairwise", "entries"), "entries/op"),
        "kernels.Kernel.matrix.ms": (ms("kernels.Kernel.matrix"), MS),
        "kernels.Kernel.matrix.calls": (calls("kernels.Kernel.matrix"), CALLS),
        "kernels.Kernel.matrix.entries": (per_op("kernels.Kernel.matrix", "entries"),
                                          "entries/op"),
        "kernels.Kernel.matrix.calls_per_sample": (
            ratio(S["kernels.Kernel.matrix"].calls, samples), "calls/sample"),
        "quadrature.weights.ms": (ms("quadrature.weights"), MS),
        "quadrature.weights.calls": (calls("quadrature.weights"), CALLS),
        "sysid.assemble.ms": (ms("sysid.assemble"), MS),
        "sysid.assemble.rows": (per_op("sysid.assemble", "rows"), "rows/op"),
        "sysid.solve_pinv.ms": (ms("sysid.solve_pinv"), MS),
        "sysid.ils_solve.ms": (ms("sysid.ils_solve"), MS),
        "sysid.solve_sparse.ms": (ms("sysid.solve_sparse"), MS),
        "sysid.rank": (ratio(solve.get("rank", 0), n_solves), "count"),
        "sysid.cond": (ratio(solve.get("cond", 0.0), n_solves), "ratio"),
        "gramsysid.gram_assemble.ms": (ms("gramsysid.gram_assemble"), MS),
        "gramsysid.gram_solve.ms": (ms("gramsysid.gram_solve"), MS),
        "gramsysid.kernel_reuse": (
            ratio(S["gramsysid.gram_assemble"].counts.get("p_squared", 0),
                  S["kernels.Kernel.matrix"].counts.get("entries_in_gram_assemble", 0)),
            "ratio"),
        "streaming.stream_push.ms_p50": (pct("streaming.stream_push", 50), "ms/call"),
        "streaming.stream_push.ms_p99": (pct("streaming.stream_push", 99), "ms/call"),
        "streaming.gradient_chase_step.ms": (ms("streaming.gradient_chase_step"), MS),
        "streaming.StreamState.matrices.calls_per_sample": (
            ratio(S["streaming.StreamState.matrices"].calls, samples), "calls/sample"),
    }


def self_time_ranking(tracer: Tracer, n_ops: int, top: int = 8) -> list:
    """The spans with the most self time, as [name, self ms per op, share of traced time]."""
    total = sum(st.self_wall for st in tracer.stats.values())
    ranked = sorted(((st.self_wall, name) for name, st in tracer.stats.items() if st.calls),
                    reverse=True)[:top]
    return [[name, 1e3 * w / n_ops, w / total if total else 0.0] for w, name in ranked]
