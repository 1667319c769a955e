"""Command-line front end.

Subcommands cover the full experiment surface: simulate (write trajectory
CSVs), identify (one estimation run with a per-parameter report), sweep
(repeat identification across one varying setting), montecarlo (noise-trial
comparison of the occupation-kernel and componentwise-integral solvers),
convergence (error ladder across step sizes plus a fitted order), and stream
(consume trajectory rows from standard input and track parameters online).

Configuration comes from an optional JSON file plus flags; flags win. Every
command is deterministic for a fixed config and seed, apart from the
runtime_seconds token in the identify summary. Exit codes: 0 success, 2
configuration or input errors, 3 numerical failures; error lines go to
standard error as `error: <category>: <message>`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dynamics import (
    MonomialSpec,
    builtin_system,
    control_from_csv,
    integrate_rk4,
    lattice_centers,
    monomial_basis,
    monomial_exponents,
    monomial_index,
)
from .errors import ConfigError, DivergenceError, IterationLimitError, TrajectoryParseError
from .gramsysid import gram_assemble, gram_solve
from .kernels import from_name
from .quadrature import empirical_order, norm_distance_squared, occupation_estimate
from .streaming import gradient_chase_step, new_stream, stream_matrices, stream_push
from .sysid import assemble, ils_solve, solve_pinv, solve_ridge, solve_sparse
from .trajectory import (
    GRID_RTOL,
    Trajectory,
    add_measurement_noise,
    load_csv,
    moving_average,
    save_csv,
    segment,
    subsample,
)

FMT = "%.17g"


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged settings for one command; None means "use the command's default"."""

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


_SYSTEM_SIM = {
    "system1": dict(T=1.0, h=1e-3),
    "lorenz": dict(T=100.0, h=1e-3),
    "emps_form": dict(T=1.0, h=1e-3),
}

_SYSTEM_CENTERS = {
    "system1": ("-3:3:1,-3:5:1"),
    "lorenz": ("-20:20:10,-50:50:10,-20:50:10"),
}

_SYSTEM_X0 = {
    "lorenz": np.array([-8.0, 7.0, 27.0]),
    "emps_form": np.zeros(3),
}


def _default_mu(kernel: str, system: str | None) -> float:
    if kernel in ("gaussian", "gaussian_rbf"):
        if system in ("system1", "lorenz"):
            return 10.0
        return 1.0
    if kernel in ("expdot", "exp_dot"):
        if system == "system1":
            return 1.0 / 25.0
        return 1.0
    return 1.0


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
        if w <= 0:
            raise ConfigError(f"center lattice width must be positive, got {w}")
        if hi < lo:
            raise ConfigError(f"center bounds ({lo}, {hi}) are empty")
        bounds.append((lo, hi))
        widths.append(w)
    return lattice_centers(bounds, widths)


def _mu_for(cfg: ExperimentConfig) -> float:
    mu = cfg.mu if cfg.mu is not None else _default_mu(cfg.kernel, cfg.system)
    if mu <= 0:
        raise ConfigError(f"mu must be positive, got {mu}")
    return mu


def _simulate_system(cfg: ExperimentConfig):
    """Built-in system trajectories plus (theta_true, basis) for reporting."""
    name = cfg.system
    if name not in _SYSTEM_SIM:
        raise ConfigError(f"unknown system {name!r}")
    sim = _SYSTEM_SIM[name]
    T = cfg.T if cfg.T is not None else sim["T"]
    h = cfg.h if cfg.h is not None else sim["h"]
    control = None
    if name == "emps_form":
        if cfg.control_csv is None:
            raise ConfigError("emps_form needs --control-csv with the control signal")
        control = control_from_csv(cfg.control_csv)
    field, theta_true, sys_basis = builtin_system(name, control=control)
    if name == "system1":
        x0s = lattice_centers([(-0.5, 0.5), (-2.5, -1.5)], 0.25)
    else:
        x0s = _SYSTEM_X0[name][None, :]
    if cfg.n_trajectories is not None:
        if not 1 <= cfg.n_trajectories <= x0s.shape[0]:
            raise ConfigError(
                f"n_trajectories must be in 1..{x0s.shape[0]} for {name}, got {cfg.n_trajectories}"
            )
        x0s = x0s[: cfg.n_trajectories]
    trajs = [integrate_rk4(field, x0, T, h) for x0 in x0s]
    return trajs, theta_true, sys_basis


def _load_trajectories(cfg: ExperimentConfig):
    trajs = []
    for path in cfg.trajectories:
        if not os.path.exists(path):
            raise ConfigError(f"trajectory file {path!r} does not exist")
        trajs.append(load_csv(path))
    return trajs


def _prepare_data(cfg: ExperimentConfig):
    """Trajectories after the load/simulate -> noise -> filter -> segment pipeline."""
    if cfg.trajectories:
        trajs = _load_trajectories(cfg)
        theta_true, sys_basis = None, None
        if cfg.system is not None:
            control = control_from_csv(cfg.control_csv) if cfg.control_csv else None
            try:
                _, theta_true, sys_basis = builtin_system(cfg.system, control=control)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    elif cfg.system is not None:
        trajs, theta_true, sys_basis = _simulate_system(cfg)
    else:
        raise ConfigError("either --system or --trajectories is required")

    sigma = cfg.noise_sigma if cfg.noise_sigma is not None else 0.0
    if sigma < 0:
        raise ConfigError(f"noise sigma must be >= 0, got {sigma}")
    if sigma > 0:
        trajs = [add_measurement_noise(t, sigma, cfg.seed + j) for j, t in enumerate(trajs)]
    window = cfg.filter_window if cfg.filter_window is not None else 1
    if window < 1:
        raise ConfigError(f"filter window must be >= 1, got {window}")
    if window > 1:
        trajs = [moving_average(t, window) for t in trajs]
    parts = cfg.segments if cfg.segments is not None else 1
    if parts < 1:
        raise ConfigError(f"segments must be >= 1, got {parts}")
    if parts > 1:
        trajs = [piece for t in trajs for piece in segment(t, parts)]
    return trajs, theta_true, sys_basis


def _embed_targets(theta_small: np.ndarray, dim: int, big_degree: int) -> np.ndarray | None:
    """Re-express a degree-2 monomial theta in a degree >= 2 monomial basis."""
    if big_degree < 2:
        return None
    small = monomial_exponents(dim, 2)
    big_spec = MonomialSpec(dim, big_degree)
    count = dim * math.comb(dim + big_degree, big_degree)
    theta = np.zeros(count)
    per = small.shape[0]
    for i, value in enumerate(theta_small):
        if value == 0.0:
            continue
        k, idx = divmod(i, per)
        theta[monomial_index(big_spec, small[idx], k)] = value
    return theta


def _build_basis(cfg: ExperimentConfig, dim: int, theta_true, sys_basis):
    """The basis to identify over, plus matching targets (or None)."""
    if cfg.system == "emps_form":
        return sys_basis, theta_true
    degree = cfg.basis_degree if cfg.basis_degree is not None else 2
    if degree < 0:
        raise ConfigError(f"basis degree must be >= 0, got {degree}")
    basis = monomial_basis(MonomialSpec(dim, degree))
    targets = None
    if theta_true is not None:
        targets = _embed_targets(theta_true, dim, degree)
    if cfg.basis_terms is not None:
        idx = []
        spec = MonomialSpec(dim, degree)
        for term in cfg.basis_terms:
            try:
                exps, k = term
            except (TypeError, ValueError):
                raise ConfigError(
                    "basis_terms entries must be [exponent list, target dim] pairs"
                ) from None
            try:
                idx.append(monomial_index(spec, exps, int(k)))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        basis = basis.select(idx)
        if targets is not None:
            targets = targets[idx]
    return basis, targets


def _centers_for(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    spec = cfg.centers
    if spec is None:
        spec = _SYSTEM_CENTERS.get(cfg.system)
    if spec is None:
        raise ConfigError("no default centers for this input; pass --centers lo:hi:width,...")
    centers = parse_centers(spec)
    if centers.shape[1] != dim:
        raise ConfigError(f"centers have dimension {centers.shape[1]}, data has {dim}")
    return centers


@dataclass(frozen=True)
class IdentifyOutcome:
    theta_hat: np.ndarray
    targets: np.ndarray | None
    labels: tuple[str, ...]
    dims: tuple
    condition_number: float
    residual_norm: float
    runtime_seconds: float
    support: np.ndarray | None
    l2_error: float | None
    max_error: float | None


def run_identify(cfg: ExperimentConfig) -> IdentifyOutcome:
    """The full estimation pipeline for one configuration."""
    start = time.perf_counter()
    trajs, theta_true, sys_basis = _prepare_data(cfg)
    dim = trajs[0].dim
    basis, targets = _build_basis(cfg, dim, theta_true, sys_basis)
    kernel = from_name(cfg.kernel, mu=_mu_for(cfg), degree=cfg.degree)

    solver = cfg.solver
    if solver == "ils":
        result = ils_solve(trajs, basis, cfg.rule, rcond=cfg.rcond)
    elif solver == "gram":
        result = gram_solve(gram_assemble(trajs, basis, kernel, cfg.rule), rcond=cfg.rcond)
    else:
        centers = _centers_for(cfg, dim)
        system = assemble(trajs, centers, basis, kernel, cfg.rule)
        if solver == "pinv":
            result = solve_pinv(system, rcond=cfg.rcond)
        elif solver == "ridge":
            result = solve_ridge(system, cfg.lam if cfg.lam is not None else 0.0, rcond=cfg.rcond)
        elif solver == "sparse":
            if cfg.lam is None:
                raise ConfigError("solver sparse requires --lambda")
            if cfg.threshold is None:
                raise ConfigError("solver sparse requires --threshold")
            result = solve_sparse(
                system, cfg.lam, cfg.threshold, max_refits=cfg.max_refits, rcond=cfg.rcond
            )
        else:
            raise ConfigError(f"unknown solver {solver!r}")

    l2 = max_err = None
    if targets is not None:
        diff = result.theta_hat - targets
        l2 = float(np.linalg.norm(diff))
        max_err = float(np.max(np.abs(diff)))
    runtime = time.perf_counter() - start
    return IdentifyOutcome(
        theta_hat=result.theta_hat,
        targets=targets,
        labels=tuple(basis.labels),
        dims=tuple(basis.target_dims),
        condition_number=result.condition_number,
        residual_norm=result.residual_norm,
        runtime_seconds=runtime,
        support=result.support,
        l2_error=l2,
        max_error=max_err,
    )


def _fmt(v) -> str:
    return "" if v is None else FMT % v


def write_result_csv(path, outcome: IdentifyOutcome) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("param_index,monomial,dim,target,estimate,abs_error\n")
        for i, est in enumerate(outcome.theta_hat):
            label = outcome.labels[i]
            d = outcome.dims[i]
            dim_cell = "" if d is None else str(d + 1)
            if outcome.targets is None:
                target_cell = err_cell = ""
            else:
                target_cell = _fmt(outcome.targets[i])
                err_cell = _fmt(abs(est - outcome.targets[i]))
            fh.write(f"{i},{label},{dim_cell},{target_cell},{_fmt(est)},{err_cell}\n")
        fh.write(
            "# summary: "
            f"l2_error={_fmt(outcome.l2_error)},"
            f"max_error={_fmt(outcome.max_error)},"
            f"condition_number={_fmt(outcome.condition_number)},"
            f"runtime_seconds={_fmt(outcome.runtime_seconds)}\n"
        )


def _ensure_out(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    return cfg.out


# -- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: ExperimentConfig) -> int:
    if cfg.system is None:
        raise ConfigError("simulate requires --system")
    out = _ensure_out(cfg)
    trajs, _, _ = _simulate_system(cfg)
    sigma = cfg.noise_sigma if cfg.noise_sigma is not None else 0.0
    if sigma > 0:
        trajs = [add_measurement_noise(t, sigma, cfg.seed + j) for j, t in enumerate(trajs)]
    paths = []
    for j, traj in enumerate(trajs):
        path = os.path.join(out, f"traj_{j:03d}.csv")
        save_csv(traj, path)
        paths.append(path)
    print(f"wrote {len(paths)} trajectory files to {out}")
    return 0


def cmd_identify(cfg: ExperimentConfig) -> int:
    out = _ensure_out(cfg)
    outcome = run_identify(cfg)
    path = os.path.join(out, "result.csv")
    write_result_csv(path, outcome)
    print(
        f"wrote {path} "
        f"(l2_error={_fmt(outcome.l2_error)}, max_error={_fmt(outcome.max_error)}, "
        f"condition_number={_fmt(outcome.condition_number)})"
    )
    return 0


_SWEEP_PARAMS = {
    "mu": float,
    "noise_sigma": float,
    "segments": int,
    "n_trajectories": int,
    "filter_window": int,
    "basis_degree": int,
    "seed": int,
}


def _sweep_point(args):
    cfg_dict, param, value = args
    cfg = ExperimentConfig(**cfg_dict)
    cfg = replace(cfg, **{param: value})
    outcome = run_identify(cfg)
    if outcome.l2_error is None:
        raise ConfigError("sweep needs a system with known parameters to report errors")
    return outcome.l2_error


def cmd_sweep(cfg: ExperimentConfig) -> int:
    if cfg.param is None or cfg.values is None:
        raise ConfigError("sweep requires --param and --values")
    if cfg.param not in _SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {cfg.param!r}; one of {sorted(_SWEEP_PARAMS)}"
        )
    cast = _SWEEP_PARAMS[cfg.param]
    try:
        values = [cast(float(v)) if cast is int else cast(v) for v in cfg.values.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse --values {cfg.values!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    out = _ensure_out(cfg)
    tasks = [(asdict(cfg), cfg.param, v) for v in values]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            errors = list(pool.map(_sweep_point, tasks))
    else:
        errors = [_sweep_point(t) for t in tasks]
    path = os.path.join(out, "sweep.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("value,error\n")
        for v, e in zip(values, errors):
            fh.write(f"{FMT % v},{FMT % e}\n")
    print(f"wrote {path}")
    return 0


def _mc_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill unset fields with the standard noise-trial comparison setup."""
    updates = {}
    if cfg.system is None and not cfg.trajectories:
        updates["system"] = "lorenz"
    if cfg.segments is None:
        updates["segments"] = 20
    if cfg.noise_sigma is None:
        updates["noise_sigma"] = 0.01
    if cfg.basis_degree is None:
        updates["basis_degree"] = 3
    if cfg.mu is None:
        updates["mu"] = 400.0 / 3.0
    if cfg.centers is None and (cfg.system is None or cfg.system == "lorenz"):
        updates["centers"] = "-20:20:10,-50:50:20,-20:50:14"
    if cfg.trials is None:
        updates["trials"] = 50
    return replace(cfg, **updates)


def _mc_trial(args):
    cfg_dict, trial, base = args
    cfg = ExperimentConfig(**cfg_dict)
    trajs = [Trajectory(s, h) for s, h in base]
    sigma = cfg.noise_sigma
    if sigma > 0:
        if len(trajs) == 1:
            seeds = [cfg.seed + trial]
        else:
            seeds = [(cfg.seed + trial) * 100_003 + j for j in range(len(trajs))]
        trajs = [add_measurement_noise(t, sigma, sd) for t, sd in zip(trajs, seeds)]
    window = cfg.filter_window if cfg.filter_window is not None else 1
    if window > 1:
        trajs = [moving_average(t, window) for t in trajs]
    if cfg.segments > 1:
        trajs = [p for t in trajs for p in segment(t, cfg.segments)]

    dim = trajs[0].dim
    control = control_from_csv(cfg.control_csv) if cfg.control_csv else None
    _, theta_true, sys_basis = builtin_system(cfg.system, control=control)
    basis, targets = _build_basis(cfg, dim, theta_true, sys_basis)
    if targets is None:
        raise ConfigError("montecarlo needs a system with known parameters")
    kernel = from_name(cfg.kernel, mu=_mu_for(cfg), degree=cfg.degree)
    centers = _centers_for(cfg, dim)

    ok = solve_pinv(assemble(trajs, centers, basis, kernel, cfg.rule), rcond=cfg.rcond)
    ils = ils_solve(trajs, basis, cfg.rule, rcond=cfg.rcond)
    return (
        float(np.linalg.norm(ok.theta_hat - targets)),
        float(np.linalg.norm(ils.theta_hat - targets)),
        ok.condition_number,
        ils.condition_number,
    )


def cmd_montecarlo(cfg: ExperimentConfig) -> int:
    cfg = _mc_defaults(cfg)
    if cfg.system is None:
        raise ConfigError("montecarlo requires --system (or the default lorenz setup)")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    out = _ensure_out(cfg)
    # Base data is simulated once, clean; noise/filter/segments are per trial.
    base_cfg = replace(cfg, noise_sigma=0.0, filter_window=1, segments=1)
    trajs, _, _ = _prepare_data(base_cfg)
    base = [(t.samples, t.step) for t in trajs]
    tasks = [(asdict(cfg), trial, base) for trial in range(cfg.trials)]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_mc_trial, tasks))
    else:
        rows = [_mc_trial(t) for t in tasks]
    path = os.path.join(out, "montecarlo.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("trial,ok_error,ils_error,ok_cond,ils_cond\n")
        for trial, row in enumerate(rows):
            fh.write(f"{trial}," + ",".join(FMT % v for v in row) + "\n")
        if cfg.noise_sigma == 0:
            fh.write("# note: sigma=0; both errors sit at the numerical floor\n")
    ok_med = float(np.median([r[0] for r in rows]))
    ils_med = float(np.median([r[1] for r in rows]))
    print(f"wrote {path} (median ok_error={FMT % ok_med}, median ils_error={FMT % ils_med})")
    return 0


def cmd_convergence(cfg: ExperimentConfig) -> int:
    if cfg.h_values is None:
        raise ConfigError("convergence requires --h-values h1,h2,...")
    try:
        hs = [float(v) for v in cfg.h_values.split(",")]
    except ValueError:
        raise ConfigError(f"could not parse --h-values {cfg.h_values!r}") from None
    if len(hs) < 3:
        raise ConfigError(f"insufficient points: need at least 3 h values, got {len(hs)}")
    if any(h <= 0 for h in hs):
        raise ConfigError("all h values must be positive")
    out = _ensure_out(cfg)

    if cfg.target == "identify":
        errors = []
        for h in hs:
            outcome = run_identify(replace(cfg, h=h))
            if outcome.l2_error is None:
                raise ConfigError("convergence needs a system with known parameters")
            errors.append(outcome.l2_error)
    elif cfg.target == "occupation":
        errors = _occupation_ladder(cfg, hs)
    else:
        raise ConfigError(f"unknown convergence target {cfg.target!r}")

    order = empirical_order(list(zip(hs, errors)))
    path = os.path.join(out, "convergence.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("h,error\n")
        for h, e in zip(hs, errors):
            fh.write(f"{FMT % h},{FMT % e}\n")
        fh.write(f"# order: {FMT % order}\n")
    print(f"wrote {path} (order={FMT % order})")
    return 0


def _occupation_ladder(cfg: ExperimentConfig, hs) -> list[float]:
    """Squared occupation-kernel distances against a refined reference grid.

    One trajectory is simulated once at min(h)/64 and the ladder grids are
    exact subsamples of it, so the differences isolate the quadrature rule.
    """
    if cfg.system is None:
        raise ConfigError("occupation convergence requires --system")
    sim = _SYSTEM_SIM.get(cfg.system)
    if sim is None:
        raise ConfigError(f"unknown system {cfg.system!r}")
    T = cfg.T if cfg.T is not None else sim["T"]
    h_fine = min(hs) / 64.0
    control = control_from_csv(cfg.control_csv) if cfg.control_csv else None
    field, _, _ = builtin_system(cfg.system, control=control)
    if cfg.system == "system1":
        x0 = lattice_centers([(-0.5, 0.5), (-2.5, -1.5)], 0.25)[0]
    else:
        x0 = _SYSTEM_X0[cfg.system]
    fine = integrate_rk4(field, x0, T, h_fine)
    kernel = from_name(cfg.kernel, mu=_mu_for(cfg), degree=cfg.degree)
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


def cmd_stream(cfg: ExperimentConfig) -> int:
    lines = sys.stdin
    header = lines.readline()
    if header == "":
        return 0  # empty input: nothing to do
    cols = [c.strip() for c in header.rstrip("\n").split(",")]
    if len(cols) < 2 or cols[0] != "t" or cols[1:] != [f"x{i + 1}" for i in range(len(cols) - 1)]:
        raise ConfigError(f"stream header must be t,x1,...,xn, got {header.rstrip()!r}")
    dim = len(cols) - 1

    degree = cfg.basis_degree if cfg.basis_degree is not None else 2
    basis = monomial_basis(MonomialSpec(dim, degree))
    kernel = from_name(cfg.kernel, mu=_mu_for(cfg), degree=cfg.degree)
    centers = _centers_for(cfg, dim)

    state = None
    pending: list[tuple[float, np.ndarray]] = []
    count = 0

    def _push(t, x):
        nonlocal state, count
        stream_push(state, x, times=[t])
        gradient_chase_step(state)
        count += 1
        if cfg.print_every > 0 and count % cfg.print_every == 0:
            _print_stream_line(state)

    for lineno, raw in enumerate(lines, start=2):
        raw = raw.strip()
        if not raw:
            continue
        cells = raw.split(",")
        if len(cells) != dim + 1:
            raise ConfigError(f"line {lineno}: expected {dim + 1} columns, got {len(cells)}")
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        t, x = vals[0], np.array(vals[1:])
        if state is None:
            pending.append((t, x))
            if len(pending) == 2:
                h = cfg.h if cfg.h is not None else pending[1][0] - pending[0][0]
                if h <= 0:
                    raise ConfigError(f"line {lineno}: non-increasing time column")
                state = new_stream(
                    centers, basis, kernel, h, window=cfg.window, alpha=cfg.alpha
                )
                for pt, px in pending:
                    try:
                        _push(pt, px)
                    except ValueError as exc:
                        raise ConfigError(f"line {lineno}: {exc}") from None
            continue
        try:
            _push(t, x)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    if state is None:
        return 0
    for _ in range(cfg.settle_steps):
        gradient_chase_step(state)
    _print_stream_line(state)
    return 0


def _print_stream_line(state) -> None:
    A, b = stream_matrices(state)
    residual = float(np.linalg.norm(A @ state.theta - b))
    theta_cells = ",".join(FMT % v for v in state.theta)
    print(f"{FMT % state.time},{theta_cells},{FMT % residual}")


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    g = shared.add_argument_group("experiment settings")
    S = dict(default=argparse.SUPPRESS)
    g.add_argument("--config", metavar="PATH", **S)
    g.add_argument("--system", metavar="NAME", **S)
    g.add_argument("--trajectories", metavar="CSV[,CSV...]", **S)
    g.add_argument("--control-csv", dest="control_csv", metavar="PATH", **S)
    g.add_argument("--kernel", choices=["gaussian", "expdot", "poly", "linear"], **S)
    g.add_argument("--mu", type=float, **S)
    g.add_argument("--degree", type=int, **S)
    g.add_argument("--rule", choices=["rh", "trap", "simpson"], **S)
    g.add_argument("--basis-degree", dest="basis_degree", type=int, **S)
    g.add_argument("--centers", metavar="lo:hi:width,...", **S)
    g.add_argument("--solver", choices=["pinv", "ridge", "sparse", "ils", "gram"], **S)
    g.add_argument("--lambda", dest="lam", type=float, **S)
    g.add_argument("--threshold", type=float, **S)
    g.add_argument("--max-refits", dest="max_refits", type=int, **S)
    g.add_argument("--rcond", type=float, **S)
    g.add_argument("--noise-sigma", dest="noise_sigma", type=float, **S)
    g.add_argument("--filter-window", dest="filter_window", type=int, **S)
    g.add_argument("--segments", type=int, **S)
    g.add_argument("--seed", type=int, **S)
    g.add_argument("--trials", type=int, **S)
    g.add_argument("--n-trajectories", dest="n_trajectories", type=int, **S)
    g.add_argument("--T", dest="T", type=float, **S)
    g.add_argument("--h", dest="h", type=float, **S)
    g.add_argument("--window", type=float, **S)
    g.add_argument("--alpha", type=float, **S)
    g.add_argument("--print-every", dest="print_every", type=int, **S)
    g.add_argument("--settle-steps", dest="settle_steps", type=int, **S)
    g.add_argument("--h-values", dest="h_values", metavar="H1,H2,...", **S)
    g.add_argument("--target", choices=["identify", "occupation"], **S)
    g.add_argument("--param", **S)
    g.add_argument("--values", metavar="V1,V2,...", **S)
    g.add_argument("--jobs", type=int, **S)
    g.add_argument("--out", metavar="DIR", **S)

    parser = argparse.ArgumentParser(
        prog="occusid",
        description="Parameter identification for nonlinear dynamics from sampled trajectories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        sub.add_parser(name, parents=[shared], help=fn.__doc__)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "identify": cmd_identify,
    "sweep": cmd_sweep,
    "montecarlo": cmd_montecarlo,
    "convergence": cmd_convergence,
    "stream": cmd_stream,
}

_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}


def _merge_config(ns: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    cli = {k: v for k, v in vars(ns).items() if k != "command"}
    config_path = cli.pop("config", None)
    if config_path is not None:
        if not os.path.exists(config_path):
            raise ConfigError(f"config file {config_path!r} does not exist")
        with open(config_path, "r") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = "lam" if key == "lambda" else key
            if key not in _FIELD_NAMES:
                raise ConfigError(f"unknown config key {key!r}")
            data[key] = value
    data.update(cli)
    if "trajectories" in data and isinstance(data["trajectories"], str):
        data["trajectories"] = tuple(p for p in data["trajectories"].split(",") if p)
    if "trajectories" in data:
        data["trajectories"] = tuple(data["trajectories"])
    if "basis_terms" in data and data["basis_terms"] is not None:
        data["basis_terms"] = tuple(tuple(t) for t in data["basis_terms"])
    return ExperimentConfig(**data)


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    command = _COMMANDS[ns.command]
    try:
        cfg = _merge_config(ns)
        return command(cfg)
    except (ConfigError, TrajectoryParseError, FileNotFoundError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, IterationLimitError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
