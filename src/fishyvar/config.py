"""Experiment configuration: YAML files, model registry, CSV chain loading.

A config couples a model (with its coupling choice), a test function and
estimator settings into one reproducible experiment.  Command-line flags
override file values.  Validation happens at load time and reports the
offending key.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .chains import (
    Ar1Model,
    CauchyNormalModel,
    FiniteChainModel,
    ModelBundle,
    TestFunction,
)
from .couplings import (
    CouplingSpec,
    ar1_kernel,
    cauchy_gibbs_kernel,
    cauchy_mrth_kernel,
    finite_kernel,
)

__all__ = [
    "ConfigError",
    "MAX_REPS",
    "ExperimentConfig",
    "load_config",
    "build_model",
    "build_bundle",
    "resolve_test_function",
    "finite_chain_from_csv",
    "MODEL_NAMES",
    "TEST_FUNCTIONS",
]

MODEL_NAMES = ("ar1", "cauchy-gibbs", "cauchy-mrth", "finite")

TEST_FUNCTIONS: dict[str, TestFunction] = {
    "identity": TestFunction(lambda x: float(x), 1, "identity"),
    "square": TestFunction(lambda x: float(x) ** 2, 1, "square"),
    "abs": TestFunction(lambda x: abs(float(x)), 1, "abs"),
    "identity-and-square": TestFunction(
        lambda x: (float(x), float(x) ** 2), 2, "identity-and-square"
    ),
}


# Replicate r of a CLI run draws from stream child(r); child(MAX_REPS) is
# reserved for the EPAVE burn-in pilot and the optimal-xi fishy profile.
MAX_REPS = 2**18


class ConfigError(ValueError):
    """A configuration value failed validation; the message names the key."""


@dataclass
class ExperimentConfig:
    """Validated settings for one experiment run."""

    command: str = "suave"
    model: str = "ar1"
    model_params: dict = field(default_factory=dict)
    coupling_kind: str | None = None
    test_function: str = "identity"
    k: int = 100
    lag: int = 100
    ell: int = 500
    R: int = 10
    y: float = 0.0
    xi: str = "uniform"
    thin: int = 1
    t_steps: int = 10**4
    burn_in: int | None = None
    reps: int = 100
    seed: int = 0
    workers: int = 1
    grid: list[float] = field(default_factory=lambda: [-3, -2, -1, 0, 1, 2, 3])
    t_max: int = 200
    t_min: float | None = None
    n_max: int = 50
    quantile: float = 0.99
    reference_avar: float | None = None
    output_format: str = "csv"
    output_dir: str = "."

    def validate(self) -> None:
        checks = [
            (self.model in MODEL_NAMES, "model", f"must be one of {MODEL_NAMES}"),
            (self.k >= 0, "estimator.k", "must be nonnegative"),
            (self.lag >= 0, "estimator.L", "must be nonnegative"),
            (self.k <= self.ell, "estimator.ell", "must be at least k"),
            (self.R >= 1, "estimator.R", "must be at least 1"),
            (self.xi in ("uniform", "optimal", "proportional-to-abs-weight"),
             "estimator.xi", "must be uniform, optimal or proportional-to-abs-weight"),
            (self.thin >= 1, "estimator.thin", "must be at least 1"),
            (self.t_steps >= 2, "estimator.t_steps", "must be at least 2"),
            (self.burn_in is None or self.burn_in >= 0, "estimator.burn_in", "must be nonnegative"),
            (1 <= self.reps <= MAX_REPS, "reps", f"must lie in [1, {MAX_REPS}]"),
            (isinstance(self.seed, int) and 0 <= self.seed < 2**64,
             "seed", "must be an integer in [0, 2^64)"),
            (self.workers >= 1, "workers", "must be at least 1"),
            (len(self.grid) >= 1, "grid", "must hold at least one point"),
            (self.t_max >= 0, "t_max", "must be nonnegative"),
            (self.n_max >= 0, "n_max", "must be nonnegative"),
            (0.0 < self.quantile < 1.0, "quantile", "must lie in (0, 1)"),
            (self.output_format in ("csv", "json"), "output.format", "must be csv or json"),
        ]
        for ok, key, message in checks:
            if not ok:
                raise ConfigError(f"config key {key!r} {message}")
        if self.reference_avar is not None:
            # parsed like the --reference-avar flag, so YAML's string "1e4" works
            try:
                ref = float(self.reference_avar)
            except (TypeError, ValueError):
                ref = math.nan
            if isinstance(self.reference_avar, bool) or not (math.isfinite(ref) and ref > 0):
                raise ConfigError("config key 'reference_avar' must be a positive finite number")
            self.reference_avar = ref
        if self.test_function not in TEST_FUNCTIONS and self.model != "finite":
            raise ConfigError(
                f"config key 'test_function' unknown name {self.test_function!r}; "
                f"known: {sorted(TEST_FUNCTIONS)}"
            )


_CONFIG_KEYS = {
    "model": ("model", "name"),
    "model_params": ("model", None),
    "coupling_kind": ("coupling", "kind"),
    "test_function": ("test_function", None),
    "k": ("estimator", "k"),
    "lag": ("estimator", "L"),
    "ell": ("estimator", "ell"),
    "R": ("estimator", "R"),
    "y": ("estimator", "y"),
    "xi": ("estimator", "xi"),
    "thin": ("estimator", "thin"),
    "t_steps": ("estimator", "t_steps"),
    "burn_in": ("estimator", "burn_in"),
    "reps": ("reps", None),
    "seed": ("seed", None),
    "workers": ("workers", None),
    "grid": ("grid", None),
    "t_max": ("t_max", None),
    "t_min": ("t_min", None),
    "n_max": ("n_max", None),
    "quantile": ("quantile", None),
    "reference_avar": ("reference_avar", None),
    "output_format": ("output", "format"),
    "output_dir": ("output", "dir"),
}


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an optional YAML file plus flag overrides."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping at top level")

    cfg = ExperimentConfig()
    for attr, (section, key) in _CONFIG_KEYS.items():
        value = _dig(raw, section, key)
        if attr == "model_params" and isinstance(value, dict):
            value = {k: v for k, v in value.items() if k != "name"}
        if value is not None:
            setattr(cfg, attr, value)
    if "seed" not in raw and os.environ.get("FISHYVAR_SEED"):
        cfg.seed = int(os.environ["FISHYVAR_SEED"])
    for attr, value in (overrides or {}).items():
        if value is None:
            continue
        if attr == "model_params" and isinstance(value, dict):
            # flags override individual parameters, not the whole section
            value = {**cfg.model_params, **value}
        setattr(cfg, attr, value)
    cfg.validate()
    return cfg


def _dig(raw: dict, section: str, key: str | None):
    node = raw.get(section)
    if key is None:
        return node
    if isinstance(node, dict):
        return node.get(key)
    return None


def finite_chain_from_csv(path: str | Path, h_values) -> FiniteChainModel:
    """Load a finite chain from a CSV transition matrix.

    Expected layout: header row ``to_0,...,to_{n-1}``, then one row of
    transition probabilities per source state.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty transition CSV")
        expected = [f"to_{j}" for j in range(len(header))]
        if [c.strip() for c in header] != expected:
            raise ConfigError(f"{path}: header must be {','.join(expected)}")
        rows = [[float(v) for v in row] for row in reader if row]
    matrix = np.asarray(rows)
    if matrix.ndim != 2 or matrix.shape != (len(header), len(header)):
        raise ConfigError(f"{path}: need a {len(header)}x{len(header)} matrix, got {matrix.shape}")
    try:
        return FiniteChainModel(matrix, np.asarray(h_values, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def resolve_test_function(cfg: ExperimentConfig, model=None) -> TestFunction:
    """Pick the test function: a registry name, or the finite model's table."""
    if cfg.model == "finite" and isinstance(model, FiniteChainModel):
        if cfg.test_function in TEST_FUNCTIONS:
            return TEST_FUNCTIONS[cfg.test_function]
        return model.test_function()
    return TEST_FUNCTIONS[cfg.test_function]


def build_model(cfg: ExperimentConfig):
    """Materialize the raw model object named by the config."""
    params = dict(cfg.model_params)
    try:
        if cfg.model == "ar1":
            model = Ar1Model(
                phi=float(params.pop("phi", 0.99)), sigma=float(params.pop("sigma", 1.0))
            )
        elif cfg.model in ("cauchy-gibbs", "cauchy-mrth"):
            model = CauchyNormalModel(
                observations=tuple(params.pop("observations", (-8.0, 8.0, 17.0))),
                prior_variance=float(params.pop("prior_variance", 100.0)),
                mrth_proposal_sd=float(params.pop("mrth_proposal_sd", 10.0)),
            )
        else:
            return _finite_from_params(cfg, params)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config section 'model': {exc}") from exc
    _reject_extras("model", params)
    return model


def build_bundle(cfg: ExperimentConfig) -> tuple[ModelBundle, TestFunction]:
    """Materialize the coupled kernel, initial distribution and test function."""
    model = build_model(cfg)
    spec = CouplingSpec(cfg.coupling_kind) if cfg.coupling_kind else None
    try:
        if cfg.model == "ar1":
            kernel = ar1_kernel(model, spec)
            bundle = ModelBundle(kernel, lambda rng: 4.0 * rng.standard_normal(), "ar1")
        elif cfg.model == "cauchy-gibbs":
            bundle = ModelBundle(
                cauchy_gibbs_kernel(model, spec), lambda rng: rng.standard_normal(), cfg.model
            )
        elif cfg.model == "cauchy-mrth":
            bundle = ModelBundle(
                cauchy_mrth_kernel(model, spec), lambda rng: rng.standard_normal(), cfg.model
            )
        else:
            n = model.n_states
            bundle = ModelBundle(
                finite_kernel(model, spec), lambda rng: int(rng.integers(n)), "finite"
            )
    except ValueError as exc:
        raise ConfigError(f"config section 'coupling': {exc}") from exc
    return bundle, resolve_test_function(cfg, model)


def _finite_from_params(cfg: ExperimentConfig, params: dict) -> FiniteChainModel:
    csv_path = params.pop("transition_csv", None)
    matrix = params.pop("transition_matrix", None)
    h_values = params.pop("h_values", None)
    _reject_extras("model", params)
    if csv_path is None and matrix is None:
        raise ConfigError("config key 'model.transition_csv' or 'model.transition_matrix' required")
    if h_values is None:
        n = len(matrix) if matrix is not None else _csv_size(csv_path)
        name = cfg.test_function if cfg.test_function in TEST_FUNCTIONS else "identity"
        fn = TEST_FUNCTIONS[name]
        h_values = np.array([fn.eval(float(s)) for s in range(n)])
    if csv_path is not None:
        return finite_chain_from_csv(csv_path, h_values)
    return FiniteChainModel(np.asarray(matrix, dtype=float), np.asarray(h_values, dtype=float))


def _csv_size(path: str | Path) -> int:
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None:
        raise ConfigError(f"{path}: empty transition CSV")
    return len(header)


def _reject_extras(section: str, params: dict) -> None:
    if params:
        raise ConfigError(f"config section {section!r} has unknown keys: {sorted(params)}")
