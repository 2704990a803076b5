"""Command-line front end for reproducible coupled-chain experiments.

Every subcommand reads an optional YAML config (flags override file values),
runs with one reproducible stream per replicate, and writes a CSV of
per-replicate results plus a JSON summary into the output directory.  Summary
field names follow the reported table columns: estimate, total cost, fishy
cost, variance of estimator, inefficiency.  Rerunning with the same config and
seed reproduces output files byte for byte, regardless of worker count.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .avar import epave, inefficiency, sample_suave
from .chains import FiniteChainModel
from .config import (
    MAX_REPS,
    MODEL_NAMES,
    TEST_FUNCTIONS,
    ConfigError,
    ExperimentConfig,
    build_bundle,
    build_model,
    load_config,
)
from .diagnostics import bootstrap_ci, tail_fit, tv_curve
from .fishy import fishy_profile
from .oracle import Ar1TheoryBound, ar1_survival_bound, solve_finite
from .rng import RngStream
from .simulate import (
    TransitionBudgetError,
    map_replicates,
    run_coupled,
    sample_meetings,
)
from .umcmc import pilot_tuning, sample_unbiased

__all__ = ["main", "run_experiment"]

COMMANDS = (
    "meetings",
    "tvbound",
    "tailfit",
    "pilot",
    "fishy",
    "umcmc",
    "epave",
    "suave",
    "theory-check",
    "oracle",
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("config", "command") and value is not None
    }
    model_params = {}
    for key in ("phi", "sigma", "prior_variance", "mrth_proposal_sd", "transition_csv"):
        if key in overrides:
            model_params[key] = overrides.pop(key)
    if model_params:
        overrides["model_params"] = model_params
    try:
        cfg = load_config(args.config, overrides)
        cfg.command = args.command
        run_experiment(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TransitionBudgetError as exc:
        print(f"error: aborted, partial outputs may be incomplete: {exc}", file=sys.stderr)
        return 1
    return 0


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run the configured subcommand; write artifacts; return the summary."""
    runner = _RUNNERS.get(cfg.command)
    if runner is None:
        raise ConfigError(f"unknown command {cfg.command!r}; valid: {COMMANDS}")
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = runner(cfg, out_dir)
    print(json.dumps(summary, sort_keys=True))
    return summary


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------


def _meetings(cfg: ExperimentConfig, lag: int) -> list:
    bundle, _ = build_bundle(cfg)
    stream = RngStream(cfg.seed)
    return sample_meetings(bundle.kernel, bundle.init_sampler, lag, cfg.reps, stream, cfg.workers)


def _run_meetings(cfg: ExperimentConfig, out_dir: Path) -> dict:
    samples = _meetings(cfg, cfg.lag)
    rows = [(i, s.tau, s.lag, s.cost_units) for i, s in enumerate(samples)]
    _emit(cfg, out_dir, "meetings", ("rep", "tau", "lag", "cost"), rows)
    taus = np.array([s.tau for s in samples])
    return {
        "command": "meetings",
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
        "command": "tvbound",
        "lag": lag,
        "reps": cfg.reps,
        "t_below_.01": int(below[0]) if below.size else None,
    }


def _run_tailfit(cfg: ExperimentConfig, out_dir: Path) -> dict:
    lag = max(cfg.lag, 1)
    samples = _meetings(cfg, lag)
    fit = tail_fit([s.tau for s in samples], lag, cfg.t_min)
    summary = {
        "command": "tailfit",
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "tmin": fit.fit_range[0],
        "tmax": fit.fit_range[1],
    }
    _write_json(out_dir / "tailfit.json", summary)
    return summary


def _run_pilot(cfg: ExperimentConfig, out_dir: Path) -> dict:
    lag = max(cfg.lag, 1)
    samples = _meetings(cfg, lag)
    tuned = pilot_tuning([s.tau for s in samples], lag, cfg.quantile)
    summary = {
        "command": "pilot",
        "k": tuned.k,
        "L": tuned.lag,
        "ell": tuned.ell,
        "quantile": tuned.quantile,
        "n_pilot": tuned.n_pilot,
    }
    _write_json(out_dir / "pilot.json", summary)
    return summary


def _run_fishy(cfg: ExperimentConfig, out_dir: Path) -> dict:
    bundle, h = build_bundle(cfg)
    if h.arity != 1:
        raise ConfigError("the fishy profile expects a scalar test function")
    stream = RngStream(cfg.seed)
    grid, anchor = _state_grid(cfg), _state_value(cfg, cfg.y)
    profile = fishy_profile(bundle.kernel, h, grid, anchor, cfg.reps, stream, cfg.workers)
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
    return {"command": "fishy", "points": len(rows), "reps": cfg.reps, "y": cfg.y}


def _run_umcmc(cfg: ExperimentConfig, out_dir: Path) -> dict:
    bundle, h = build_bundle(cfg)
    _require_lag(cfg)
    stream = RngStream(cfg.seed)
    estimates = sample_unbiased(
        bundle.kernel,
        bundle.init_sampler,
        h,
        cfg.k,
        cfg.ell,
        cfg.lag,
        cfg.reps,
        stream,
        cfg.workers,
    )
    rows = [(i, e.scalar, e.cost_units) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "umcmc", ("rep", "value", "cost"), rows)
    summary = {"command": "umcmc", "k": cfg.k, "L": cfg.lag, "ell": cfg.ell, "reps": cfg.reps}
    summary.update(_replicate_summary(estimates, cfg))
    reference = getattr(cfg, "reference_avar", None)
    if reference:
        summary["loss_factor_vs_avar"] = summary["inefficiency"] / float(reference)
    _write_json(out_dir / "umcmc_summary.json", summary)
    return summary


def _run_epave(cfg: ExperimentConfig, out_dir: Path) -> dict:
    bundle, h = build_bundle(cfg)
    stream = RngStream(cfg.seed)
    burn_in = cfg.burn_in
    if burn_in is None:
        pilot_samples = sample_meetings(
            bundle.kernel, bundle.init_sampler, 1, min(cfg.reps, 100), stream.child(MAX_REPS)
        )
        burn_in = pilot_tuning([s.tau for s in pilot_samples], 1, cfg.quantile).k

    anchor = _state_value(cfg, cfg.y)

    def one(child):
        return epave(bundle, h, cfg.t_steps, anchor, cfg.thin, child.generator(), burn_in)

    estimates = map_replicates(one, stream.children(cfg.reps), cfg.workers)
    rows = [(i, e.value, e.cost_units) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "epave", ("rep", "estimate", "cost"), rows)
    summary = {
        "command": "epave",
        "t_steps": cfg.t_steps,
        "thin": cfg.thin,
        "burn_in": burn_in,
        "reps": cfg.reps,
    }
    summary.update(_replicate_summary(estimates, cfg))
    _write_json(out_dir / "epave_summary.json", summary)
    return summary


def _run_suave(cfg: ExperimentConfig, out_dir: Path) -> dict:
    bundle, h = build_bundle(cfg)
    _require_lag(cfg)
    stream = RngStream(cfg.seed)
    anchor = _state_value(cfg, cfg.y)
    table = None
    if cfg.xi == "optimal":
        table = fishy_profile(
            bundle.kernel, h, _state_grid(cfg), anchor, max(cfg.reps // 10, 100),
            stream.child(MAX_REPS),
        )
    estimates = sample_suave(
        bundle,
        h,
        cfg.k,
        cfg.ell,
        cfg.lag,
        cfg.R,
        anchor,
        cfg.reps,
        stream,
        xi_kind=cfg.xi,
        second_moment_table=table,
        n_workers=cfg.workers,
    )
    rows = [(i, e.scalar, e.cost_total, e.cost_fishy) for i, e in enumerate(estimates)]
    _emit(cfg, out_dir, "suave", ("rep", "estimate", "cost_total", "cost_fishy"), rows)
    summary = {
        "command": "suave",
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
    _write_json(out_dir / "suave_summary.json", summary)
    return summary


def _run_theory_check(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.model != "ar1":
        raise ConfigError("theory-check applies to the ar1 model")
    bundle, _ = build_bundle(cfg)
    model = build_model(cfg)
    phi, sigma = model.phi, model.sigma
    try:
        bound = Ar1TheoryBound(phi, sigma)
    except ValueError as exc:
        raise ConfigError(f"config key 'model.phi' = {phi}: no geometric bound ({exc})") from exc
    x0, y0 = 2.0, -2.0
    stream = RngStream(cfg.seed)

    def one(child):
        rng = child.generator()
        return run_coupled(bundle.kernel, x0, y0, 0, 0, rng, keep_paths=False).meeting_time

    taus = np.array(map_replicates(one, stream.children(cfg.reps), cfg.workers))
    n = np.arange(cfg.n_max + 1)
    bounds = ar1_survival_bound(bound, x0, y0, n)
    empirical = (taus[None, :] > n[:, None]).mean(axis=1)
    rows = list(zip(n.tolist(), np.asarray(bounds).tolist(), empirical.tolist()))
    _emit(cfg, out_dir, "theory_check", ("n", "bound", "empirical"), rows)
    summary = {
        "command": "theory-check",
        "phi": phi,
        "sigma": sigma,
        "beta": bound.beta,
        "b": bound.b,
        "h_const": bound.h_const,
        "delta": bound.delta,
        "beta_tilde": bound.beta_tilde,
        "beta_bar": bound.beta_bar,
        "dominates": bool(np.all(empirical <= np.asarray(bounds) + 1e-12)),
    }
    _write_json(out_dir / "theory_check_summary.json", summary)
    return summary


def _run_oracle(cfg: ExperimentConfig, out_dir: Path) -> dict:
    if cfg.model != "finite":
        raise ConfigError("the oracle solve applies to finite-chain models")
    model = build_model(cfg)
    assert isinstance(model, FiniteChainModel)
    solution = solve_finite(model)
    summary = {
        "command": "oracle",
        "n_states": model.n_states,
        "pi": solution.pi.tolist(),
        "pi_h": solution.pi_h.tolist(),
        "g_star": solution.g_star.tolist(),
        "v": solution.v.tolist(),
    }
    _write_json(out_dir / "oracle.json", summary)
    return summary


_RUNNERS = {
    "meetings": _run_meetings,
    "tvbound": _run_tvbound,
    "tailfit": _run_tailfit,
    "pilot": _run_pilot,
    "fishy": _run_fishy,
    "umcmc": _run_umcmc,
    "epave": _run_epave,
    "suave": _run_suave,
    "theory-check": _run_theory_check,
    "oracle": _run_oracle,
}


# ---------------------------------------------------------------------------
# Shared emission helpers
# ---------------------------------------------------------------------------


def _replicate_summary(estimates, cfg: ExperimentConfig) -> dict:
    values = np.array([float(np.ravel(e.value)[0]) for e in estimates])
    ineff = inefficiency(estimates, rng=RngStream(cfg.seed, 2**19).generator())
    lo, hi = bootstrap_ci(values, rng=RngStream(cfg.seed, 2**19 + 1).generator())
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
        return
    with open(out_dir / f"{name}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _require_lag(cfg: ExperimentConfig) -> None:
    if cfg.lag < 1:
        raise ConfigError("config key 'estimator.L' must be at least 1 for this command")


def _state_value(cfg: ExperimentConfig, value: float):
    # finite chains index states by integers; continuous models use floats
    return int(value) if cfg.model == "finite" else float(value)


def _state_grid(cfg: ExperimentConfig) -> list:
    if cfg.model == "finite":
        model = build_model(cfg)
        return list(range(model.n_states))
    return list(cfg.grid)


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
    common.add_argument("--workers", type=int, default=None)
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
    p.add_argument("--xi", choices=("uniform", "optimal", "proportional-to-abs-weight"), default=None)
    p.add_argument("--grid", type=float, nargs="+", default=None)

    p = add("theory-check", help="AR(1) survival bound constants and curve")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    add("oracle", help="exact finite-chain solution as JSON")

    return parser


if __name__ == "__main__":
    sys.exit(main())
