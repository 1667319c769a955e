"""Command-line front end.

Commands cover the full experiment surface: simulate (write trajectory
CSVs), identify (one estimation run with a per-parameter report), sweep
(repeat identification across one varying setting), montecarlo (noise-trial
comparison of the occupation-kernel and componentwise-integral solvers),
convergence (error ladder across step sizes plus a fitted order), and stream
(consume trajectory rows from standard input and track parameters online).

Every setting is one field of ExperimentConfig, set by the flag of the same
name (`--noise-sigma` for noise_sigma, `--lambda` for lam) or by the same key
in an optional JSON file given with --config; flags win, and basis_terms is
set in the file only. Flags and config keys accept the same values: building
the config converts each one to its field's type and checks its range or
name, then that the command reads it and is given each setting it requires
(as its `_setting` declares), before any data is read. Every command is
deterministic for a fixed config and seed, apart from the runtime_seconds
token in the identify summary. Each command computes its results before it
creates --out, so a failed command writes nothing. Every file goes through
trajectory._write_csv, and stdout's numbers through its FMT and _cell. Exit
codes: 0 success, 2 configuration or input errors (unreadable paths
included), 3 numerical failures; error lines go to standard error as
`error: <category>: <message>`.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import math
import multiprocessing
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dynamics import (
    BasisSet,
    MonomialSpec,
    _on_library,
    builtin_system,
    control_from_csv,
    integrate_rk4,
    lattice_centers,
    monomial_basis,
    monomial_index,
)
from .errors import ConfigError, DivergenceError, IterationLimitError
from .gramsysid import gram_assemble, gram_solve
from .kernels import _center_set, from_name
from .quadrature import as_rule, empirical_order, norm_distance_squared, occupation_estimate
from .streaming import gradient_chase_step, new_stream, stream_matrices, stream_push
from .sysid import EstimationResult, assemble, ils_solve, solve_pinv, solve_ridge, solve_sparse
from .trajectory import (
    FMT,
    Trajectory,
    _cell,
    _parse_header,
    _parse_rows,
    _write_csv,
    add_measurement_noise,
    load_csv,
    moving_average,
    save_csv,
    segment,
    subsample,
)


# The readers of a setting (`_setting`'s `by`): command names, space separated.
_FIT = "identify sweep montecarlo convergence"  # the commands that fit through run_identify
_MODEL = _FIT + " stream"  # the commands that build a kernel and a library
_BATCH = "simulate " + _FIT  # every command but stream
_SOLVE = "identify sweep convergence"  # the commands that read --solver
_POSITIVE = math.ulp(0.0)  # the least positive double: the least value of a "> 0" setting


def _setting(default=None, by=_BATCH + " stream", least=None, label=None, need="", **when):
    """A field that the commands `by` read, with its least value (its range error names it
    `label`, or the field name with spaces), the values of other fields (`when`) they need
    to read it ("ridge sparse": one of those, "not ils": any other, "": none, "not ": any
    but none, 0 counting as none), and those of them that require a value (`need`)."""
    rule = dict(by=by.split(), least=least, label=label, need=need.split(), when=when)
    return field(default=default, metadata=rule)


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged settings for one command; None means "use the command's default".

    Construction converts each field to its annotated type and checks its range or
    name, so a flag, a config key and a sweep value are accepted or rejected alike;
    `_config` checks which commands read and require it, as its `_setting` declares.
    """

    system: str | None = _setting(need="simulate sweep montecarlo convergence")
    trajectories: tuple[str, ...] = _setting((), "identify sweep montecarlo")
    control_csv: str | None = _setting(need=_BATCH + " stream", system="emps_form")
    kernel: str = _setting("gaussian", _MODEL, solver="not ils")
    mu: float | None = _setting(None, _MODEL, _POSITIVE, solver="not ils", kernel="not linear")
    degree: int = _setting(2, _MODEL, solver="not ils", kernel="poly polynomial")
    rule: str = _setting("simpson", _FIT)
    basis_degree: int | None = _setting(None, _MODEL, 0, system="not emps_form", target="identify")
    basis_terms: tuple | None = _setting(None, _MODEL, system="not emps_form", target="identify")
    centers: str | None = _setting(None, _MODEL, solver="pinv ridge sparse", target="identify")
    solver: str = _setting("pinv", _SOLVE, target="identify")
    lam: float | None = _setting(None, _SOLVE, 0, "lambda", solver="ridge sparse")
    threshold: float | None = _setting(None, _SOLVE, 0, need=_SOLVE, solver="sparse")
    max_refits: int = _setting(10, _SOLVE, 1, "max_refits", solver="sparse")
    rcond: float = _setting(1e-12, _FIT, 0, target="identify")
    noise_sigma: float | None = _setting(None, _BATCH, 0, target="identify")
    filter_window: int | None = _setting(None, _FIT, 1, target="identify")
    segments: int | None = _setting(None, _FIT, 1, target="identify")
    seed: int = _setting(0, _BATCH, target="identify", noise_sigma="not ")
    trials: int | None = _setting(None, "montecarlo", 1)
    n_trajectories: int | None = _setting(None, _BATCH, 1, "n_trajectories", trajectories="",
                                          target="identify")
    T: float | None = _setting(None, _BATCH, _POSITIVE, trajectories="")
    h: float | None = _setting(None, "simulate identify sweep montecarlo stream", _POSITIVE,
                               trajectories="")
    window: float = _setting(0.0, "stream", 0)
    alpha: float | None = _setting(None, "stream", 0)
    print_every: int = _setting(100, "stream", 0)
    settle_steps: int = _setting(500, "stream", 0)
    h_values: str | None = _setting(None, "convergence", need="convergence")
    target: str = _setting("identify", "convergence")
    param: str | None = _setting(None, "sweep", need="sweep")
    values: str | None = _setting(None, "sweep", need="sweep")
    jobs: int = _setting(1, "sweep montecarlo convergence", 1, target="identify")
    out: str = _setting(".", _BATCH)

    def __post_init__(self):
        for f in fields(self):
            value = _convert(f.name, getattr(self, f.name), *_FIELD_TYPES[f.name])
            object.__setattr__(self, f.name, value)
            least = f.metadata["least"]
            if value is not None and least is not None and not value >= least:
                label = f.metadata["label"] or f.name.replace("_", " ")
                rule = "positive" if least == _POSITIVE else f">= {least}"
                raise ConfigError(f"{label} must be {rule}, got {value}")
        if self.centers is not None:
            parse_centers(self.centers)
        if self.h_values is not None:
            _h_ladder(self.h_values)
        from_name(self.kernel, mu=self.mu or 1.0, degree=self.degree)
        as_rule(self.rule)
        if self.system is not None and self.system not in _SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; one of {sorted(_SYSTEMS)}")
        if self.solver not in _SOLVERS:
            raise ConfigError(f"unknown solver {self.solver!r}; one of {sorted(_SOLVERS)}")
        if self.target not in _TARGETS:
            raise ConfigError(
                f"unknown convergence target {self.target!r}; one of {sorted(_TARGETS)}")


def _field_type(hint) -> tuple:
    """(base type, item type or None, whether None is allowed) of a resolved annotation."""
    optional = type(None) in typing.get_args(hint)
    if optional:  # X | None
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
    args = typing.get_args(hint)
    return typing.get_origin(hint) or hint, args[0] if args else None, optional


_FIELD_TYPES = {name: _field_type(hint)
                for name, hint in typing.get_type_hints(ExperimentConfig).items()}
_WORDS = {str: "a string", int: "an integer", float: "a number", tuple: "a list"}
# field -> its flag; basis_terms, set in config files only, by its key
_FLAGS = {name: "--" + name.replace("_", "-") for name in _FIELD_TYPES} | {
    "lam": "--lambda", "basis_terms": "basis_terms"}


def _convert(name: str, value, base: type, item, optional: bool):
    """value as the field's type: ints widen to floats, lists and comma text to tuples."""
    if value is None and optional:
        return value
    if base is tuple and isinstance(value, (str, list)):
        value = tuple(p for p in value.split(",") if p) if isinstance(value, str) else tuple(value)
    elif base is float and type(value) is int:
        value = float(value)
    if (not isinstance(value, base) or isinstance(value, bool)
            or item is not None and not all(isinstance(v, item) for v in value)):
        what = _WORDS[base] if item is None else f"{_WORDS[base]} of {item.__name__}"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if base is float and not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _parse_text(name: str, text: str):
    """Field `name` from flag or sweep text, numbers parsed exactly.

    Text that is not a number of the field's type is kept as is, for
    ExperimentConfig to reject with the field's name.
    """
    base = _FIELD_TYPES[name][0]
    try:
        return base(text) if base in (int, float) else text
    except ValueError:
        return text


# The CLI defaults of each built-in system: simulated span T and step h, the
# (count, n) start states in simulation order, the default --centers spec, and
# mu per kernel family (1.0 for a family not listed).
_SYSTEMS = {
    "system1": dict(T=1.0, h=1e-3, starts=lattice_centers([(-0.5, 0.5), (-2.5, -1.5)], 0.25),
                    centers="-3:3:1,-3:5:1", mu={"gaussian_rbf": 10.0, "exp_dot": 1.0 / 25.0}),
    "lorenz": dict(T=100.0, h=1e-3, starts=np.array([[-8.0, 7.0, 27.0]]),
                   centers="-20:20:10,-50:50:10,-20:50:10", mu={"gaussian_rbf": 10.0}),
    "emps_form": dict(T=1.0, h=1e-3, starts=np.zeros((1, 3)), centers=None, mu={}),
}
_NO_SYSTEM = dict(centers=None, mu={})  # data read from files or stdin, no --system


def parse_centers(spec: str) -> np.ndarray:
    """Parse "lo:hi:width,lo:hi:width,..." into a lattice of centers."""
    bounds, widths = [], []
    for part in spec.split(","):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise ConfigError(f"center spec {part!r} is not lo:hi:width")
        try:
            lo, hi, w = (float(p) for p in pieces)
        except ValueError:
            raise ConfigError(f"center spec {part!r} has non-numeric fields") from None
        bounds.append((lo, hi))
        widths.append(w)
    try:
        return lattice_centers(bounds, widths)
    except ValueError as exc:
        raise ConfigError(f"centers: {exc}") from None


def _h_ladder(text: str) -> list[float]:
    """The --h-values steps: at least 3 numbers, each finite and > 0, and 2 distinct."""
    try:
        hs = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse --h-values {text!r}") from None
    if len(hs) < 3:
        raise ConfigError(f"insufficient points: need at least 3 h values, got {len(hs)}")
    if not all(0 < h < math.inf for h in hs):
        raise ConfigError(f"all h values must be finite and positive, got {text!r}")
    if len(set(hs)) < 2:  # one step gives no slope to fit
        raise ConfigError(f"need at least 2 distinct h values, got {text!r}")
    return hs


def _kernel_for(cfg: ExperimentConfig):
    mu = cfg.mu
    if mu is None:
        mu = _SYSTEMS.get(cfg.system, _NO_SYSTEM)["mu"].get(from_name(cfg.kernel).family, 1.0)
    return from_name(cfg.kernel, mu=mu, degree=cfg.degree)


def _builtin(cfg: ExperimentConfig):
    """builtin_system(cfg.system), with the control signal read from --control-csv."""
    control = control_from_csv(cfg.control_csv) if cfg.control_csv else None
    return builtin_system(cfg.system, control=control)


def _simulate_system(cfg: ExperimentConfig) -> list:
    """The built-in system's trajectories from its first cfg.n_trajectories starts."""
    field = _builtin(cfg)[0]
    row = _SYSTEMS[cfg.system]
    T = cfg.T if cfg.T is not None else row["T"]
    h = cfg.h if cfg.h is not None else row["h"]
    x0s = row["starts"]
    if (cfg.n_trajectories or 0) > x0s.shape[0]:
        raise ConfigError(f"n_trajectories must be in 1..{x0s.shape[0]} for {cfg.system}, "
                          f"got {cfg.n_trajectories}")
    return [integrate_rk4(field, x0, T, h) for x0 in x0s[: cfg.n_trajectories]]


def _clean_base(cfg: ExperimentConfig) -> list:
    """The loaded or simulated trajectories, before noise, filter and segments."""
    if cfg.trajectories:
        return [load_csv(path) for path in cfg.trajectories]
    if cfg.system is not None:
        return _simulate_system(cfg)
    raise ConfigError("either --system or --trajectories is required")


def _staged(cfg: ExperimentConfig, base, seeds=None) -> list:
    """The clean base through noise -> moving average -> segments.

    Only the first cfg.n_trajectories of base are kept (all when it is None), so
    one base simulated for the largest count serves every smaller one.
    Trajectory j's noise is drawn with seeds[j], by default cfg.seed + j.
    An unset stage (None) is skipped, as are sigma 0, window 1 and 1 segment.
    The filter keeps full windows only: the trailing average lags less while
    its window fills, so its first window - 1 rows would bias the estimate.
    """
    trajs = base[: cfg.n_trajectories]
    seeds = [cfg.seed + j for j in range(len(trajs))] if seeds is None else seeds
    if (cfg.noise_sigma or 0.0) > 0:
        trajs = [add_measurement_noise(t, cfg.noise_sigma, sd) for t, sd in zip(trajs, seeds)]
    w = cfg.filter_window or 1
    if w > 1:
        shortest = min(t.n_samples for t in trajs)
        if shortest - w + 1 < 3:
            raise ConfigError(f"filter window {w} keeps fewer than 3 of a trajectory's "
                              f"{shortest} samples")
        trajs = [Trajectory(moving_average(t, w).samples[w - 1:], t.step) for t in trajs]
    if (cfg.segments or 1) > 1:
        trajs = [piece for t in trajs for piece in segment(t, cfg.segments)]
    return trajs


def _build_basis(cfg: ExperimentConfig, dim: int):
    """The basis to identify over, plus the system's true terms on it.

    The system's nonzero true terms are placed by (label, target dim); the
    targets are None without a system, or when one of them is not in the basis.
    """
    theta_true = None
    if cfg.system is not None:
        _, theta_true, sys_basis = _builtin(cfg)
        if sys_basis.dim != dim:
            raise ConfigError(f"the data have dimension {dim}, "
                              f"system {cfg.system} has dimension {sys_basis.dim}")
    if cfg.system == "emps_form":
        return sys_basis, theta_true
    spec = MonomialSpec(dim, cfg.basis_degree if cfg.basis_degree is not None else 2)
    basis = monomial_basis(spec)
    if cfg.basis_terms is not None:
        idx = []
        for term in cfg.basis_terms:
            try:
                exps, k = term
            except (TypeError, ValueError):
                raise ConfigError(
                    "basis_terms entries must be [exponent list, target dim] pairs"
                ) from None
            i = monomial_index(spec, exps, k)
            if i in idx:  # two equal columns: the fit could not tell them apart
                raise ConfigError(f"basis term ({exps!r}, {k!r}) is listed twice in basis_terms")
            idx.append(i)
        basis = basis.select(idx)
    if theta_true is None:
        return basis, None
    true = {term: value for term, value in zip(zip(sys_basis.labels, sys_basis.target_dims),
                                               theta_true) if value != 0.0}
    return basis, _on_library(basis, true)


def _centers_for(cfg: ExperimentConfig, dim: int | None = None) -> np.ndarray:
    spec = cfg.centers
    if spec is None:
        spec = _SYSTEMS.get(cfg.system, _NO_SYSTEM)["centers"]
    if spec is None:
        raise ConfigError("no default centers for this input; pass --centers lo:hi:width,...")
    return _center_set(parse_centers(spec), dim)


@dataclass(frozen=True)
class IdentifyOutcome:
    """One identify run: the solver's result over the basis, and its errors against targets."""

    result: EstimationResult
    basis: BasisSet
    targets: np.ndarray | None
    runtime_seconds: float
    l2_error: float | None
    max_error: float | None


def run_identify(cfg: ExperimentConfig, trajs=None) -> IdentifyOutcome:
    """The full estimation pipeline for one configuration.

    trajs, when given, are trajectories of `_staged`, already noised,
    filtered and segmented.
    """
    start = time.perf_counter()
    if trajs is None:
        trajs = _staged(cfg, _clean_base(cfg))
    basis, targets = _build_basis(cfg, trajs[0].dim)
    result = _SOLVERS[cfg.solver](trajs, basis, _kernel_for(cfg), cfg)
    l2 = max_err = None
    if targets is not None:
        diff = result.theta_hat - targets
        l2 = float(np.linalg.norm(diff))
        max_err = float(np.max(np.abs(diff)))
    return IdentifyOutcome(result, basis, targets, time.perf_counter() - start, l2, max_err)


def _assembled(trajs, basis, kernel, cfg: ExperimentConfig):
    """The center-assembled linear system that pinv, ridge and sparse solve."""
    return assemble(trajs, _centers_for(cfg, trajs[0].dim), basis, kernel, cfg.rule)


# --solver name -> solve(trajectories, basis, kernel, cfg)
_SOLVERS = {
    "pinv": lambda t, b, k, cfg: solve_pinv(_assembled(t, b, k, cfg), rcond=cfg.rcond),
    "ridge": lambda t, b, k, cfg: solve_ridge(_assembled(t, b, k, cfg), cfg.lam or 0.0,
                                              rcond=cfg.rcond),
    "sparse": lambda t, b, k, cfg: solve_sparse(_assembled(t, b, k, cfg), cfg.lam, cfg.threshold,
                                                max_refits=cfg.max_refits, rcond=cfg.rcond),
    "ils": lambda t, b, k, cfg: ils_solve(t, b, cfg.rule, rcond=cfg.rcond),
    "gram": lambda t, b, k, cfg: gram_solve(gram_assemble(t, b, k, cfg.rule), rcond=cfg.rcond),
}


def _known_error(outcome: IdentifyOutcome) -> float:
    """The outcome's l2 error, which sweep, montecarlo and convergence report."""
    if outcome.l2_error is None:
        raise ConfigError("errors need a built-in system whose true terms are all in the basis")
    return outcome.l2_error


def write_result_csv(path, outcome: IdentifyOutcome) -> None:
    result, basis, targets = outcome.result, outcome.basis, outcome.targets
    rows = []
    for i, (label, d, est) in enumerate(zip(basis.labels, basis.target_dims, result.theta_hat)):
        target, err = (None, None) if targets is None else (targets[i], abs(est - targets[i]))
        rows.append((i, label, None if d is None else d + 1, target, est, err))
    summary = dict(l2_error=outcome.l2_error, max_error=outcome.max_error,
                   condition_number=result.condition_number,
                   runtime_seconds=outcome.runtime_seconds)
    _write_csv(path, "param_index,monomial,dim,target,estimate,abs_error", rows,
               ["summary: " + ",".join(f"{key}={_cell(v)}" for key, v in summary.items())])


def _out_path(cfg: ExperimentConfig, name: str) -> str:
    """Path of file `name` in --out, creating the directory; call once results exist."""
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# -- commands -----------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig) -> int:
    # Only the noise stage applies (simulate reads no filter or segments): whole paths.
    trajs = _staged(cfg, _simulate_system(cfg))
    for j, traj in enumerate(trajs):
        save_csv(traj, _out_path(cfg, f"traj_{j:03d}.csv"))
    print(f"wrote {len(trajs)} trajectory files to {cfg.out}")
    return 0


# identify notes on stdout a solve whose condition number exceeds this.
NEAR_SINGULAR_COND = 1e10


def cmd_identify(cfg: ExperimentConfig) -> int:
    outcome = run_identify(cfg)
    cond = outcome.result.condition_number
    path = _out_path(cfg, "result.csv")
    write_result_csv(path, outcome)
    print(
        f"wrote {path} "
        f"(l2_error={_cell(outcome.l2_error)}, max_error={_cell(outcome.max_error)}, "
        f"condition_number={_cell(cond)})"
    )
    if cond > NEAR_SINGULAR_COND:
        print(f"note: condition_number {cond:.2g} exceeds "
              f"{NEAR_SINGULAR_COND:g}; the fit is nearly singular, so the estimates "
              "may be far from the true parameters")
    result = outcome.result
    if result.degenerate:  # a zero system, or an empty sparse support
        print("note: effective rank 0; no parameter is fitted, and every estimate is 0")
    elif result.rank_deficient:
        fitted = (f"{result.n_parameters} parameters" if result.support is None
                  else f"{result.support.size} parameters of the sparse support")
        print(f"note: effective rank {result.effective_rank} is below the {fitted}; the data "
              "do not determine every estimate, and condition_number covers the kept "
              "singular values only")
    return 0


_SWEEP_PARAMS = ("mu", "noise_sigma", "segments", "n_trajectories", "filter_window",
                 "basis_degree", "seed")


def _identify_error(task) -> float:
    """The l2 error of identify at one (cfg, base) sweep point or convergence rung.

    base, when not None, is the clean data of `_clean_base`, shared by the points.
    """
    cfg, base = task
    return _known_error(run_identify(cfg, None if base is None else _staged(cfg, base)))


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {cfg.param!r}; one of {sorted(_SWEEP_PARAMS)}"
        )
    values = [_parse_text(cfg.param, v) for v in cfg.values.split(",")]
    points = [replace(cfg, **{cfg.param: v}) for v in values]  # checks all before any run
    # One load or simulation for every point: each keeps its own n_trajectories prefix.
    base = _clean_base(max(points, key=lambda p: p.n_trajectories or math.inf))
    errors = _run_tasks(_identify_error, [(point, base) for point in points], cfg)
    path = _out_path(cfg, "sweep.csv")
    _write_csv(path, "value,error", zip(values, errors))
    print(f"wrote {path}")
    return 0


def _run_tasks(fn, tasks, cfg: ExperimentConfig) -> list:
    """[fn(t) for t in tasks], spread over at most --jobs worker processes."""
    workers = min(cfg.jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # spawn, not fork: the parent already runs BLAS threads.
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
        return list(pool.map(fn, tasks))


_MC_DEFAULTS = dict(segments=20, noise_sigma=0.01, basis_degree=3, mu=400.0 / 3.0, trials=50)


def _mc_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill unset fields with the standard noise-trial comparison setup."""
    updates = {k: v for k, v in _MC_DEFAULTS.items() if getattr(cfg, k) is None}
    if cfg.system is None and not cfg.trajectories:
        updates["system"] = "lorenz"
    if cfg.centers is None and cfg.system in (None, "lorenz"):
        updates["centers"] = "-20:20:10,-50:50:20,-20:50:14"
    return replace(cfg, **updates)


def _mc_trial(args):
    """(ok_error, ils_error, ok_cond, ils_cond) of one noise trial on the clean base data."""
    cfg, trial, base = args
    if len(base) == 1:
        seeds = [cfg.seed + trial]
    else:
        seeds = [(cfg.seed + trial) * 100_003 + j for j in range(len(base))]
    trajs = _staged(cfg, base, seeds)
    ok = run_identify(replace(cfg, solver="pinv"), trajs)
    ok_error = _known_error(ok)
    ils = run_identify(replace(cfg, solver="ils"), trajs)
    return ok_error, _known_error(ils), ok.result.condition_number, ils.result.condition_number


def cmd_montecarlo(cfg: ExperimentConfig) -> int:
    # Base data is simulated once, clean; noise/filter/segments are per trial.
    base = _clean_base(cfg)
    tasks = [(cfg, trial, base) for trial in range(cfg.trials)]
    rows = _run_tasks(_mc_trial, tasks, cfg)
    floor = cfg.noise_sigma == 0
    notes = ["note: sigma=0; both errors sit at the numerical floor"] if floor else []
    path = _out_path(cfg, "montecarlo.csv")
    _write_csv(path, "trial,ok_error,ils_error,ok_cond,ils_cond",
               [(trial, *row) for trial, row in enumerate(rows)], notes)
    ok_med = float(np.median([r[0] for r in rows]))
    ils_med = float(np.median([r[1] for r in rows]))
    print(f"wrote {path} (median ok_error={FMT % ok_med}, median ils_error={FMT % ils_med})")
    return 0


def cmd_convergence(cfg: ExperimentConfig) -> int:
    hs = _h_ladder(cfg.h_values)
    errors = _TARGETS[cfg.target](cfg, hs)
    if 0.0 in errors:  # an error at the roundoff floor has no logarithm to fit
        summary = "no order"
        notes = ["note: some errors are 0: they reached the roundoff floor, so no order is fitted"]
    else:
        order = FMT % empirical_order(list(zip(hs, errors)))
        summary, notes = f"order={order}", [f"order: {order}"]
        ladder = [e for _, e in sorted(zip(hs, errors), reverse=True)]
        if not all(finer < coarser for coarser, finer in zip(ladder, ladder[1:])):
            notes.append("note: errors do not decrease as h decreases, so the order is not "
                         "meaningful: they sit at the roundoff floor or outside the "
                         "asymptotic range")
    path = _out_path(cfg, "convergence.csv")
    _write_csv(path, "h,error", zip(hs, errors), notes)
    print(f"wrote {path} ({summary})")
    return 0


def _occupation_ladder(cfg: ExperimentConfig, hs) -> list[float]:
    """Squared occupation-kernel distances against a refined reference grid.

    One trajectory is simulated once at min(h)/64 and the ladder grids are
    exact subsamples of it, so the differences isolate the quadrature rule.
    """
    h_fine = min(hs) / 64.0
    (fine,) = _simulate_system(replace(cfg, h=h_fine, n_trajectories=1))
    kernel = _kernel_for(cfg)
    ref = occupation_estimate(fine, kernel, "simpson")
    errors = []
    for h in hs:
        stride = h / h_fine
        if abs(stride - round(stride)) > 1e-9 or fine.n_intervals % round(stride) != 0:
            raise ConfigError(f"h={h} is not an exact multiple of the fine grid {h_fine}")
        coarse = subsample(fine, int(round(stride)))
        est = occupation_estimate(coarse, kernel, cfg.rule)
        errors.append(max(norm_distance_squared(est, ref), 0.0))
    return errors


# --target name -> the error ladder over the h values
_TARGETS = {
    "identify": lambda cfg, hs: _run_tasks(_identify_error,
                                           [(replace(cfg, h=h), None) for h in hs], cfg),
    "occupation": lambda cfg, hs: _occupation_ladder(cfg, hs),
}


def cmd_stream(cfg: ExperimentConfig) -> int:
    lines = sys.stdin
    header = lines.readline()
    if header == "":
        return 0  # empty input: nothing to do
    dim = _parse_header(header.rstrip("\r\n"))

    basis, _ = _build_basis(cfg, dim)
    kernel = _kernel_for(cfg)
    centers = _centers_for(cfg, dim)

    rows = _stream_rows(lines, dim)
    first = list(itertools.islice(rows, 2))  # the first two rows fix the step
    if len(first) < 2:
        return 0
    h = cfg.h if cfg.h is not None else first[1][1] - first[0][1]
    try:
        state = new_stream(centers, basis, kernel, h, window=cfg.window, alpha=cfg.alpha)
    except ValueError as exc:
        raise ConfigError(f"line {first[1][0]}: {exc}") from None
    for count, (at, t, x) in enumerate(itertools.chain(first, rows), start=1):
        try:
            stream_push(state, x, times=[t])
        except ValueError as exc:
            # far from the origin t1 - t0 drifts, so a grid error names --h
            hint = "" if cfg.h is not None or not str(exc).startswith("grid") else (
                f"; the step {FMT % h} came from the first two rows, pass --h to set it")
            raise ConfigError(f"line {at}: {exc}{hint}") from None
        gradient_chase_step(state)
        if cfg.print_every > 0 and count % cfg.print_every == 0:
            _print_stream_line(state)

    for _ in range(cfg.settle_steps):
        gradient_chase_step(state)
    _print_stream_line(state)
    return 0


def _stream_rows(lines, dim: int):
    """(line number, time, sample) of each data row after the header; blank lines skipped."""
    for lineno, raw in enumerate(lines, start=2):
        times, rows = _parse_rows([raw.rstrip("\r\n")], dim, lineno)
        if rows:
            yield lineno, times[0], np.array(rows[0])


def _print_stream_line(state) -> None:
    A, b = stream_matrices(state)
    residual = float(np.linalg.norm(A @ state.theta - b))
    print(",".join(map(_cell, (state.time, *state.theta, residual))))


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occusid",
        description="Parameter identification for nonlinear dynamics from sampled trajectories.",
    )
    parser.add_argument("command", choices=_COMMANDS)
    g = parser.add_argument_group("experiment settings")
    g.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS)
    for f in fields(ExperimentConfig):
        if f.name != "basis_terms":  # [exponents, target dim] pairs: config files only
            g.add_argument(_FLAGS[f.name], dest=f.name, default=argparse.SUPPRESS)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "sweep": cmd_sweep,
    "montecarlo": cmd_montecarlo,
    "convergence": cmd_convergence,
    "stream": cmd_stream,
}


def _settings(ns: argparse.Namespace) -> dict:
    """The settings given by --config keys and by flags, flags winning, as {field: value}."""
    data: dict = {}
    if "config" in ns:
        with open(ns.config) as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = "lam" if key == "lambda" else key
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = value
    data.update((k, _parse_text(k, v)) for k, v in vars(ns).items()
                if k not in ("command", "config"))
    return data


def _unread(command: str, cfg: ExperimentConfig, f, swept=None) -> str | None:
    """Why `command` would not read the setting of field f under cfg: None when it would,
    "" when it never does, else the field whose condition cfg fails (not the swept one)."""
    if command not in f.metadata["by"]:
        return ""
    for other, spec in f.metadata["when"].items():
        words = spec.split(" ")
        if other != swept and (str(getattr(cfg, other) or "") in words) == (words[0] == "not"):
            return other
    return None


def _config(command: str, settings: dict) -> ExperimentConfig:
    """The config command runs with (montecarlo's setup applied), checked before any data is
    read or --out exists: it must read each given setting and be given each it requires
    (centers too, where there is no default). sweep reads its --param field at each point,
    not from its flag; a setting that another unread one rules out is left to that one."""
    cfg = ExperimentConfig(**settings)
    if command == "montecarlo":
        cfg = _mc_defaults(cfg)
    given = {name for name, value in settings.items() if value is not None}  # null: unset
    swept = cfg.param if command == "sweep" and cfg.param in _SWEEP_PARAMS else None
    read = {f.name: _unread(command, cfg, f, swept) for f in fields(cfg)}
    causes = {name: "param" if name == swept and name in given else read[name]
              for name in read if name in given or name == swept}
    for name, cause in causes.items():
        if cause is not None and causes.get(cause) is None:
            value = getattr(cfg, cause, None)
            why = (f" with {_FLAGS[cause]} {value}" if isinstance(value, str) else
                   f" with{'' if value else 'out'} {_FLAGS[cause]}" if cause else "")
            what = _FLAGS[name] if name in given else f"--param {name}"
            raise ConfigError(f"{command} does not read {what}{why}")
    if cfg.solver == "sparse" and cfg.lam is None:  # ridge reads an unset lambda as 0
        raise ConfigError(f"{command} requires --lambda")
    for f in fields(cfg):
        if command in f.metadata["need"] and read[f.name] is None and getattr(cfg, f.name) is None:
            raise ConfigError(f"{command} requires {_FLAGS[f.name]}")
    # no --centers and no default lattice; identify without any data is left to _clean_base
    if read["centers"] is None and (cfg.system or cfg.trajectories or command == "stream"):
        _centers_for(cfg)
    return cfg


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    command = _COMMANDS[ns.command]
    try:
        return command(_config(ns.command, _settings(ns)))
    except (DivergenceError, IterationLimitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError and TrajectoryParseError included
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
