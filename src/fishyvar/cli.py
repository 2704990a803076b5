"""Command-line front end for reproducible coupled-chain experiments.

Every subcommand reads an optional YAML config (flags override file values),
runs with one reproducible stream per replicate, and writes a CSV of
per-replicate results plus a JSON summary into the output directory.  Summary
field names follow the reported table columns: estimate, total cost, fishy
cost, variance of estimator, inefficiency.  Replicate r draws from stream
child r of the seed, so rerunning with the same config and seed reproduces
output files byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .avar import XI_KINDS, epave, inefficiency, sample_suave
from .config import (
    MAX_REPS,
    MODEL_NAMES,
    MODELS,
    TEST_FUNCTIONS,
    ConfigError,
    ExperimentConfig,
    build_bundle,
    build_model,
    bundle_for,
    load_config,
)
from .couplings import MaximalCouplingCapError
from .diagnostics import bootstrap_ci, tail_fit, tv_curve
from .fishy import fishy_profile
from .oracle import Ar1TheoryBound, ar1_survival_bound, solve_finite
from .rng import RngStream
from .simulate import TransitionBudgetError, replicates, run_coupled, sample_meetings
from .umcmc import pilot_tuning, sample_unbiased

__all__ = ["main", "run_experiment"]


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    config = args.pop("config")
    # a flag whose dest names no config field sets a model parameter
    settings = {f.name for f in fields(ExperimentConfig)}
    overrides = {key: value for key, value in args.items() if value is not None}
    model_params = {key: overrides.pop(key) for key in list(overrides) if key not in settings}
    if model_params:
        overrides["model_params"] = model_params
    try:
        run_experiment(load_config(config, overrides))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TransitionBudgetError, MaximalCouplingCapError) as exc:
        print(f"error: aborted: {exc}; no partial file was left in the output directory",
              file=sys.stderr)
        return 1
    return 0


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Validate the config, run its subcommand, write artifacts and return the summary."""
    if cfg.command not in _RUNNERS:
        raise ConfigError(f"unknown command {cfg.command!r}; valid: {tuple(_RUNNERS)}")
    cfg.validate()
    runner, summary_file = _RUNNERS[cfg.command]
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {"command": cfg.command, **runner(cfg, out_dir)}
    if summary_file is not None:
        _write_json(out_dir / summary_file, summary)
    print(json.dumps(summary, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _meetings(cfg: ExperimentConfig, lag: int) -> list:
    bundle, _ = build_bundle(cfg)
    stream = RngStream(cfg.seed)
    return sample_meetings(bundle.kernel, bundle.init_sampler, lag, cfg.reps, stream)


def _run_meetings(cfg: ExperimentConfig, out_dir: Path) -> dict:
    samples = _meetings(cfg, cfg.lag)
    rows = [(i, s.tau, s.lag, s.cost_units) for i, s in enumerate(samples)]
    _emit(cfg, out_dir, "meetings", ("rep", "tau", "lag", "cost"), rows)
    taus = np.array([s.tau for s in samples])
    return {
        "reps": cfg.reps,
        "lag": cfg.lag,
        "mean_tau": float(taus.mean()),
        "max_tau": int(taus.max()),
    }


def _run_tvbound(cfg: ExperimentConfig, out_dir: Path) -> dict:
    lag = max(cfg.lag, 1)
    samples = _meetings(cfg, lag)
    taus = [s.tau for s in samples]
    t, bound = tv_curve(taus, lag, cfg.t_max)
    _emit(cfg, out_dir, "tvbound", ("t", "bound"), list(zip(t.tolist(), bound.tolist())))
    below = t[bound < 0.01]
    return {
        "lag": lag,
        "reps": cfg.reps,
        "t_below_.01": int(below[0]) if below.size else None,
    }


def _run_tailfit(cfg: ExperimentConfig, out_dir: Path) -> dict:
    lag = max(cfg.lag, 1)
    samples = _meetings(cfg, lag)
    try:
        fit = tail_fit([s.tau for s in samples], lag, cfg.t_min)
    except ValueError as exc:
        raise ConfigError(f"config keys 'reps' and 't_min' leave too few points: {exc}") from exc
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "tmin": fit.fit_range[0],
        "tmax": fit.fit_range[1],
    }


def _run_pilot(cfg: ExperimentConfig, out_dir: Path) -> dict:
    lag = max(cfg.lag, 1)
    samples = _meetings(cfg, lag)
    tuned = pilot_tuning([s.tau for s in samples], lag, cfg.quantile)
    return {
        "k": tuned.k,
        "L": tuned.lag,
        "ell": tuned.ell,
        "quantile": tuned.quantile,
        "n_pilot": tuned.n_pilot,
    }


def _run_fishy(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = build_model(cfg)
    bundle, h = bundle_for(cfg, model)
    _require_scalar(h)
    stream = RngStream(cfg.seed)
    grid, anchor = _state_grid(cfg, model), _state_value(cfg, model)
    profile = fishy_profile(bundle.kernel, h, grid, anchor, cfg.reps, stream)
    rows = list(
        zip(
            profile.x.tolist(),
            profile.mean.tolist(),
            profile.se.tolist(),
            profile.second_moment.tolist(),
            profile.mean_cost.tolist(),
        )
    )
    _emit(cfg, out_dir, "fishy", ("x", "mean", "se", "second_moment", "mean_cost"), rows)
    return {"points": len(rows), "reps": cfg.reps, "y": cfg.y}


def _run_umcmc(cfg: ExperimentConfig, out_dir: Path) -> dict:
    bundle, h = build_bundle(cfg)
    _require_lag(cfg)
    stream = RngStream(cfg.seed)
    estimates = sample_unbiased(
        bundle.kernel, bundle.init_sampler, h, cfg.k, cfg.ell, cfg.lag, cfg.reps, stream
    )
    rows = [(i, e.scalar, e.cost_units) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "umcmc", ("rep", "value", "cost"), rows)
    summary = {"k": cfg.k, "L": cfg.lag, "ell": cfg.ell, "reps": cfg.reps}
    summary.update(_replicate_summary(estimates, cfg))
    if cfg.reference_avar is not None:
        summary["loss_factor_vs_avar"] = summary["inefficiency"] / cfg.reference_avar
    return summary


def _run_epave(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = build_model(cfg)
    bundle, h = bundle_for(cfg, model)
    _require_scalar(h)
    anchor = _state_value(cfg, model)
    stream = RngStream(cfg.seed)
    burn_in = cfg.burn_in
    if burn_in is None:
        pilot_samples = sample_meetings(
            bundle.kernel, bundle.init_sampler, 1, min(cfg.reps, 100), stream.child(MAX_REPS)
        )
        burn_in = pilot_tuning([s.tau for s in pilot_samples], 1, cfg.quantile).k

    estimates = replicates(
        lambda rng: epave(bundle, h, cfg.t_steps, anchor, cfg.thin, rng, burn_in), stream, cfg.reps
    )
    rows = [(i, e.value, e.cost_units) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "epave", ("rep", "estimate", "cost"), rows)
    summary = {
        "t_steps": cfg.t_steps,
        "thin": cfg.thin,
        "burn_in": burn_in,
        "reps": cfg.reps,
    }
    summary.update(_replicate_summary(estimates, cfg))
    return summary


def _run_suave(cfg: ExperimentConfig, out_dir: Path) -> dict:
    model = build_model(cfg)
    bundle, h = bundle_for(cfg, model)
    _require_lag(cfg)
    stream = RngStream(cfg.seed)
    anchor = _state_value(cfg, model)
    table = None
    if cfg.xi == "optimal":
        _require_scalar(h)
        table = fishy_profile(
            bundle.kernel, h, _state_grid(cfg, model), anchor, max(cfg.reps // 10, 100),
            stream.child(MAX_REPS),
        )
    estimates = sample_suave(
        bundle, h, cfg.k, cfg.ell, cfg.lag, cfg.R, anchor, cfg.reps, stream, cfg.xi, table
    )
    rows = [(i, e.scalar, e.cost_total, e.cost_fishy) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "suave", ("rep", "estimate", "cost_total", "cost_fishy"), rows)
    summary = {
        "k": cfg.k,
        "L": cfg.lag,
        "ell": cfg.ell,
        "R": cfg.R,
        "y": cfg.y,
        "xi": cfg.xi,
        "reps": cfg.reps,
        "fishy_cost": float(np.mean([e.cost_fishy for e in estimates])),
    }
    summary.update(_replicate_summary(estimates, cfg))
    return summary


def _run_theory_check(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.model != "ar1":
        raise ConfigError("theory-check applies to the ar1 model")
    if cfg.coupling_kind not in (None, "reflection-maximal"):
        raise ConfigError("config section 'coupling': theory-check's bound holds for kind "
                          f"reflection-maximal only, got {cfg.coupling_kind!r}")
    model = build_model(cfg)
    bundle, _ = bundle_for(cfg, model)
    phi, sigma = model.phi, model.sigma
    try:
        bound = Ar1TheoryBound(phi, sigma)
    except ValueError as exc:
        raise ConfigError(f"config key 'model.phi' = {phi}: no geometric bound ({exc})") from exc
    x0, y0 = 2.0, -2.0

    def meeting(rng):
        return run_coupled(bundle.kernel, x0, y0, 0, 0, rng, keep_paths=False).meeting_time

    taus = np.array(replicates(meeting, RngStream(cfg.seed), cfg.reps))
    n = np.arange(cfg.n_max + 1)
    bounds = ar1_survival_bound(bound, x0, y0, n)
    empirical = (taus[None, :] > n[:, None]).mean(axis=1)
    rows = list(zip(n.tolist(), np.asarray(bounds).tolist(), empirical.tolist()))
    _emit(cfg, out_dir, "theory_check", ("n", "bound", "empirical"), rows)
    return {**asdict(bound), "dominates": bool(np.all(empirical <= np.asarray(bounds) + 1e-12))}


def _run_oracle(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.model != "finite":
        raise ConfigError("the oracle solve applies to finite-chain models")
    model = build_model(cfg)
    solution = solve_finite(model)
    return {
        "n_states": model.n_states,
        "pi": solution.pi.tolist(),
        "pi_h": solution.pi_h.tolist(),
        "g_star": solution.g_star.tolist(),
        "v": solution.v.tolist(),
    }


_RUNNERS = {  # command -> (runner, file its summary is written to, if any)
    "meetings": (_run_meetings, None),
    "tvbound": (_run_tvbound, None),
    "tailfit": (_run_tailfit, "tailfit.json"),
    "pilot": (_run_pilot, "pilot.json"),
    "fishy": (_run_fishy, None),
    "umcmc": (_run_umcmc, "umcmc_summary.json"),
    "epave": (_run_epave, "epave_summary.json"),
    "suave": (_run_suave, "suave_summary.json"),
    "theory-check": (_run_theory_check, "theory_check_summary.json"),
    "oracle": (_run_oracle, "oracle.json"),
}


# ---------------------------------------------------------------------------
# Shared emission helpers
# ---------------------------------------------------------------------------


def _replicate_summary(estimates, cfg: ExperimentConfig) -> dict:
    values = np.array([float(np.ravel(e.value)[0]) for e in estimates])
    stream = RngStream(cfg.seed)
    ineff = inefficiency(estimates, rng=stream.child(MAX_REPS + 1))
    lo, hi = bootstrap_ci(values, rng=stream.child(MAX_REPS + 2))
    return {
        "estimate": float(values.mean()),
        "ci_estimate": [lo, hi],
        "total_cost": ineff.mean_cost,
        "ci_total_cost": list(ineff.ci_mean_cost),
        "variance_of_estimator": ineff.variance,
        "ci_variance_of_estimator": list(ineff.ci_variance),
        "inefficiency": ineff.inefficiency,
        "ci_inefficiency": list(ineff.ci_inefficiency),
    }


def _emit(cfg: ExperimentConfig, out_dir: Path, name: str, header: tuple, rows: list) -> None:
    if cfg.output_format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        _write_json(out_dir / f"{name}.json", payload)
    else:
        _write_table(out_dir / f"{name}.csv", header, rows)


def _write_table(path: Path, header: tuple, rows) -> None:
    with _replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with _replacing(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _replacing(path: Path, newline: str | None = None):
    """Write ``path`` whole or not at all: a temp file beside it, then a rename.

    If the body raises, the temp file is removed and an existing ``path``
    keeps its old contents.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _require_lag(cfg: ExperimentConfig) -> None:
    if cfg.lag < 1:
        raise ConfigError("config key 'estimator.L' must be at least 1 for this command")


def _require_scalar(h) -> None:
    if h.arity != 1:
        raise ConfigError("config key 'test_function' must name a scalar test function")


def _state_value(cfg: ExperimentConfig, model):
    # finite chains index states by integers; continuous models use floats
    y = cfg.y
    if MODELS[cfg.model].state is int and not (0 <= y < model.n_states and y == int(y)):
        raise ConfigError(
            f"config key 'estimator.y' must be a state index in [0, {model.n_states}), got {y!r}"
        )
    return MODELS[cfg.model].state(y)


def _state_grid(cfg: ExperimentConfig, model) -> list:
    return list(range(model.n_states)) if MODELS[cfg.model].state is int else list(cfg.grid)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fishyvar",
        description="Coupled-chain estimators of fishy functions and asymptotic variances",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="YAML config file")
    common.add_argument("--model", choices=MODEL_NAMES, default=None)
    common.add_argument("--phi", type=float, default=None, help="AR(1) coefficient")
    common.add_argument("--sigma", type=float, default=None, help="AR(1) innovation sd")
    common.add_argument("--prior-variance", dest="prior_variance", type=float, default=None)
    common.add_argument("--proposal-sd", dest="mrth_proposal_sd", type=float, default=None)
    common.add_argument("--transition-csv", dest="transition_csv", default=None)
    common.add_argument("--coupling", dest="coupling_kind", default=None)
    common.add_argument(
        "--test-function", dest="test_function", default=None, choices=sorted(TEST_FUNCTIONS)
    )
    common.add_argument("--seed", type=int, default=None, help="master seed (env FISHYVAR_SEED)")
    common.add_argument("--reps", type=int, default=None, help="number of replicates")
    common.add_argument("--format", dest="output_format", choices=("csv", "json"), default=None)
    common.add_argument("--out", dest="output_dir", default=None, help="output directory")

    def add(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add("meetings", help="replicated meeting times as CSV rep,tau,lag,cost")
    p.add_argument("--lag", dest="lag", type=int, default=None)

    p = add("tvbound", help="TV upper-bound curve as CSV t,bound")
    p.add_argument("--lag", dest="lag", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=int, default=None)

    p = add("tailfit", help="log-log survival regression as JSON")
    p.add_argument("--lag", dest="lag", type=int, default=None)
    p.add_argument("--tmin", dest="t_min", type=float, default=None)

    p = add("pilot", help="recommended (k, L, ell) as JSON")
    p.add_argument("--lag", dest="lag", type=int, default=None)
    p.add_argument("--quantile", type=float, default=None)

    p = add("fishy", help="fishy-function profile as CSV x,mean,se,second_moment,mean_cost")
    p.add_argument("--grid", type=float, nargs="+", default=None)
    p.add_argument("--y", type=float, default=None, help="anchor state")

    p = add("umcmc", help="unbiased estimates of the stationary mean")
    for flag, attr in (("--k", "k"), ("--L", "lag"), ("--ell", "ell")):
        p.add_argument(flag, dest=attr, type=int, default=None)
    p.add_argument("--reference-avar", dest="reference_avar", type=float, default=None)

    p = add("epave", help="long-chain consistent asymptotic-variance estimates")
    p.add_argument("--t-steps", dest="t_steps", type=int, default=None)
    p.add_argument("--thin", type=int, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--burn-in", dest="burn_in", type=int, default=None)

    p = add("suave", help="subsampled unbiased asymptotic-variance estimates")
    for flag, attr in (("--k", "k"), ("--L", "lag"), ("--ell", "ell"), ("--R", "R")):
        p.add_argument(flag, dest=attr, type=int, default=None)
    p.add_argument("--y", type=float, default=None)
    p.add_argument("--xi", choices=XI_KINDS, default=None)
    p.add_argument("--grid", type=float, nargs="+", default=None)

    p = add("theory-check", help="AR(1) survival bound constants and curve")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    add("oracle", help="exact finite-chain solution as JSON")

    return parser


if __name__ == "__main__":
    sys.exit(main())
