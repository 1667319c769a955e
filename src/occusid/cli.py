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
name, before any data is read. Every command is deterministic for a fixed
config and seed, apart from the runtime_seconds token in the identify
summary. Each command computes its results before it creates --out, so a
failed command writes nothing. Every file goes through trajectory._write_csv,
and stdout's numbers through its FMT and _cell. Exit codes: 0 success, 2
configuration or input errors (unreadable paths included), 3 numerical
failures; error lines go to standard error as `error: <category>: <message>`.
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
from dataclasses import dataclass, fields, replace

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged settings for one command; None means "use the command's default".

    Construction converts each field to its annotated type and checks its
    range or name, so a flag, a config key and a sweep value are accepted or
    rejected alike.
    """

    system: str | None = None
    trajectories: tuple[str, ...] = ()
    control_csv: str | None = None
    kernel: str = "gaussian"
    mu: float | None = None
    degree: int = 2
    rule: str = "simpson"
    basis_degree: int | None = None
    basis_terms: tuple | None = None
    centers: str | None = None
    solver: str = "pinv"
    lam: float | None = None
    threshold: float | None = None
    max_refits: int = 10
    rcond: float = 1e-12
    noise_sigma: float | None = None
    filter_window: int | None = None
    segments: int | None = None
    seed: int = 0
    trials: int | None = None
    n_trajectories: int | None = None
    T: float | None = None
    h: float | None = None
    window: float = 0.0
    alpha: float | None = None
    print_every: int = 100
    settle_steps: int = 500
    h_values: str | None = None
    target: str = "identify"
    param: str | None = None
    values: str | None = None
    jobs: int = 1
    out: str = "."

    def __post_init__(self):
        for name, kind in _FIELD_TYPES.items():
            object.__setattr__(self, name, _convert(name, getattr(self, name), *kind))
        for name in ("mu", "T", "h"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        for name, (least, label) in _AT_LEAST.items():
            value = getattr(self, name)
            if value is not None and not value >= least:
                raise ConfigError(f"{label} must be >= {least}, got {value}")
        if self.centers is not None:
            parse_centers(self.centers)
        if self.h_values is not None:
            _h_ladder(self.h_values)
        for name, what in _SIMULATION.items():
            if self.trajectories and getattr(self, name) is not None:
                raise ConfigError(f"{name} {what}; it does not apply to --trajectories files")
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
# the fields that set up a simulation, which --trajectories files replace
_SIMULATION = {"n_trajectories": "counts simulated start states", "T": "is the simulated span",
               "h": "is the simulation step", "h_values": "lists simulation steps"}
# field -> (least allowed value, its name in the error message); None passes
_AT_LEAST = {"noise_sigma": (0, "noise sigma"), "filter_window": (1, "filter window"),
             "segments": (1, "segments"), "jobs": (1, "jobs"),
             "basis_degree": (0, "basis degree"), "trials": (1, "trials"),
             "n_trajectories": (1, "n_trajectories"), "max_refits": (1, "max_refits"),
             "print_every": (0, "print every"),
             "settle_steps": (0, "settle steps"), "rcond": (0, "rcond"), "lam": (0, "lambda"),
             "threshold": (0, "threshold"), "window": (0, "window"), "alpha": (0, "alpha")}


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
    """The --h-values steps: at least 3 numbers, each finite and > 0."""
    try:
        hs = [float(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse --h-values {text!r}") from None
    if len(hs) < 3:
        raise ConfigError(f"insufficient points: need at least 3 h values, got {len(hs)}")
    if not all(0 < h < math.inf for h in hs):
        raise ConfigError(f"all h values must be finite and positive, got {text!r}")
    return hs


def _kernel_for(cfg: ExperimentConfig):
    mu = cfg.mu
    if mu is None:
        mu = _SYSTEMS.get(cfg.system, _NO_SYSTEM)["mu"].get(from_name(cfg.kernel).family, 1.0)
    return from_name(cfg.kernel, mu=mu, degree=cfg.degree)


def _builtin(cfg: ExperimentConfig):
    """builtin_system(cfg.system), with the control signal read from --control-csv."""
    if cfg.system == "emps_form" and cfg.control_csv is None:
        raise ConfigError("emps_form needs --control-csv with the control signal")
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


def _centers_for(cfg: ExperimentConfig, dim: int) -> np.ndarray:
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


def _solve_sparse(trajs, basis, kernel, cfg: ExperimentConfig):
    if cfg.lam is None:
        raise ConfigError("solver sparse requires --lambda")
    if cfg.threshold is None:
        raise ConfigError("solver sparse requires --threshold")
    return solve_sparse(_assembled(trajs, basis, kernel, cfg), cfg.lam, cfg.threshold,
                        max_refits=cfg.max_refits, rcond=cfg.rcond)


# --solver name -> solve(trajectories, basis, kernel, cfg)
_SOLVERS = {
    "pinv": lambda t, b, k, cfg: solve_pinv(_assembled(t, b, k, cfg), rcond=cfg.rcond),
    "ridge": lambda t, b, k, cfg: solve_ridge(_assembled(t, b, k, cfg), cfg.lam or 0.0,
                                              rcond=cfg.rcond),
    "sparse": _solve_sparse,
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
    if cfg.trajectories:
        raise ConfigError("simulate writes trajectories; it does not read --trajectories")
    if cfg.system is None:
        raise ConfigError("simulate requires --system")
    # Only the noise stage applies: the files hold whole, unfiltered paths.
    trajs = _staged(replace(cfg, filter_window=None, segments=None), _simulate_system(cfg))
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
    if cfg.param is None or cfg.values is None:
        raise ConfigError("sweep requires --param and --values")
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
    cfg = _mc_defaults(cfg)
    if cfg.system is None:
        raise ConfigError("montecarlo requires --system (or the default lorenz setup)")
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
    if cfg.h_values is None:
        raise ConfigError("convergence requires --h-values h1,h2,...")
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
    if cfg.system is None:
        raise ConfigError("occupation convergence requires --system")
    h_fine = min(hs) / 64.0
    (fine,) = _simulate_system(replace(cfg, h=h_fine, n_trajectories=1, trajectories=()))
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
    if cfg.trajectories:
        raise ConfigError("stream reads its trajectory from stdin, not from --trajectories")
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
            flag = "--lambda" if f.name == "lam" else "--" + f.name.replace("_", "-")
            g.add_argument(flag, dest=f.name, default=argparse.SUPPRESS)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "sweep": cmd_sweep,
    "montecarlo": cmd_montecarlo,
    "convergence": cmd_convergence,
    "stream": cmd_stream,
}


def _merge_config(ns: argparse.Namespace) -> ExperimentConfig:
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
    return ExperimentConfig(**data)


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    command = _COMMANDS[ns.command]
    try:
        return command(_merge_config(ns))
    except (DivergenceError, IterationLimitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # ConfigError and TrajectoryParseError included
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
