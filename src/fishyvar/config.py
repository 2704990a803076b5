"""Experiment configuration: YAML files, model registry, CSV chain loading.

A config couples a model (with its coupling choice), a test function and
estimator settings into one reproducible experiment.  Command-line flags
override file values.  Validation happens at load time and reports the
offending key.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .avar import XI_KINDS
from .chains import (
    Ar1Model,
    CauchyNormalModel,
    CoupledKernel,
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
    "bundle_for",
    "finite_chain_from_csv",
    "MODELS",
    "MODEL_NAMES",
    "TEST_FUNCTIONS",
]

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
        self._check_types()
        checks = [
            (self.model in MODEL_NAMES, "model", f"must be one of {MODEL_NAMES}"),
            (self.k >= 0, "estimator.k", "must be nonnegative"),
            (self.lag >= 0, "estimator.L", "must be nonnegative"),
            (self.k <= self.ell, "estimator.ell", "must be at least k"),
            (self.R >= 1, "estimator.R", "must be at least 1"),
            (self.xi in XI_KINDS, "estimator.xi", f"must be one of {', '.join(XI_KINDS)}"),
            (self.thin >= 1, "estimator.thin", "must be at least 1"),
            (self.t_steps >= 2, "estimator.t_steps", "must be at least 2"),
            (self.burn_in is None or self.burn_in >= 0, "estimator.burn_in", "must be nonnegative"),
            (1 <= self.reps <= MAX_REPS, "reps", f"must lie in [1, {MAX_REPS}]"),
            (0 <= self.seed < 2**64, "seed", "must be an integer in [0, 2^64)"),
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
        # models whose states are indices carry their own test-function table
        if self.test_function not in TEST_FUNCTIONS and MODELS[self.model].state is not int:
            raise ConfigError(
                f"config key 'test_function' unknown name {self.test_function!r}; "
                f"known: {sorted(TEST_FUNCTIONS)}"
            )

    def _check_types(self) -> None:
        # YAML and the environment hand over values of any type; catch them
        # here, before a comparison raises a TypeError with no key in it
        for fields, is_kind, kind in (
            (_INTEGER_FIELDS, _is_integer, "an integer"),
            (_REAL_FIELDS, _is_real, "a number"),
            (_STRING_FIELDS, lambda v: isinstance(v, str), "a string"),
            (("model_params",), lambda v: isinstance(v, dict), "a mapping"),
        ):
            for attr in fields:
                value = getattr(self, attr)
                if not (is_kind(value) or value is None and attr in _OPTIONAL_FIELDS):
                    raise ConfigError(
                        f"config key {_key_name(attr)!r} must be {kind}, got {value!r}"
                    )
        grid = self.grid
        if not (isinstance(grid, (list, tuple, np.ndarray)) and all(map(_is_real, grid))):
            raise ConfigError(f"config key 'grid' must be a list of numbers, got {grid!r}")


_INTEGER_FIELDS = (
    "k", "lag", "ell", "R", "thin", "t_steps", "burn_in", "reps", "seed", "workers", "t_max",
    "n_max",
)
_REAL_FIELDS = ("y", "t_min", "quantile")
_STRING_FIELDS = ("model", "test_function", "xi", "output_format", "output_dir")
_OPTIONAL_FIELDS = ("burn_in", "t_min")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _key_name(attr: str) -> str:
    section, key = _CONFIG_KEYS[attr]
    return section if key is None else f"{section}.{key}"


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
    env_seed = os.environ.get("FISHYVAR_SEED")
    if "seed" not in raw and env_seed:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"config key 'seed' from FISHYVAR_SEED must be an integer, got {env_seed!r}"
            ) from None
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


def _read_transition_csv(path: str | Path) -> np.ndarray:
    """Transition matrix from a CSV: header ``to_0,...,to_{n-1}``, one row per state."""
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
    return matrix


def finite_chain_from_csv(path: str | Path, h_values) -> FiniteChainModel:
    """Load a finite chain from a CSV transition matrix.

    Expected layout: header row ``to_0,...,to_{n-1}``, then one row of
    transition probabilities per source state.
    """
    return _finite_chain(path, _read_transition_csv(path), h_values)


def _finite_chain(where, matrix, h_values) -> FiniteChainModel:
    try:
        return FiniteChainModel(matrix, np.asarray(h_values, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def resolve_test_function(cfg: ExperimentConfig, model=None) -> TestFunction:
    """Pick the test function: a registry name, or the model's own table."""
    if cfg.test_function in TEST_FUNCTIONS:
        return TEST_FUNCTIONS[cfg.test_function]
    return model.test_function()


def build_model(cfg: ExperimentConfig):
    """Materialize the raw model object named by the config."""
    params = dict(cfg.model_params)
    try:
        model = MODELS[cfg.model].build(cfg, params)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config section 'model': {exc}") from exc
    _reject_extras("model", params)
    return model


def build_bundle(cfg: ExperimentConfig) -> tuple[ModelBundle, TestFunction]:
    """Materialize the coupled kernel, initial distribution and test function."""
    return bundle_for(cfg, build_model(cfg))


def bundle_for(cfg: ExperimentConfig, model) -> tuple[ModelBundle, TestFunction]:
    """The bundle and test function of a model that :func:`build_model` built."""
    entry = MODELS[cfg.model]
    try:
        spec = CouplingSpec(cfg.coupling_kind) if cfg.coupling_kind else None
        kernel = entry.kernel(model, spec)
    except ValueError as exc:
        raise ConfigError(f"config section 'coupling': {exc}") from exc
    return ModelBundle(kernel, entry.init(model), cfg.model), resolve_test_function(cfg, model)


def _ar1(cfg: ExperimentConfig, params: dict) -> Ar1Model:
    return Ar1Model(phi=float(params.pop("phi", 0.99)), sigma=float(params.pop("sigma", 1.0)))


def _cauchy(cfg: ExperimentConfig, params: dict) -> CauchyNormalModel:
    return CauchyNormalModel(
        observations=tuple(params.pop("observations", (-8.0, 8.0, 17.0))),
        prior_variance=float(params.pop("prior_variance", 100.0)),
        mrth_proposal_sd=float(params.pop("mrth_proposal_sd", 10.0)),
    )


def _finite(cfg: ExperimentConfig, params: dict) -> FiniteChainModel:
    csv_path = params.pop("transition_csv", None)
    matrix = params.pop("transition_matrix", None)
    h_values = params.pop("h_values", None)
    _reject_extras("model", params)
    if csv_path is None and matrix is None:
        raise ConfigError("config key 'model.transition_csv' or 'model.transition_matrix' required")
    if csv_path is not None:
        try:
            matrix = _read_transition_csv(csv_path)
        except OSError as exc:
            raise ConfigError(f"config key 'model.transition_csv' cannot be read: {exc}") from exc
    if h_values is None:
        fn = TEST_FUNCTIONS.get(cfg.test_function, TEST_FUNCTIONS["identity"])
        h_values = [fn.eval(float(s)) for s in range(len(matrix))]
    where = "config section 'model'" if csv_path is None else csv_path
    return _finite_chain(where, matrix, h_values)


def _reject_extras(section: str, params: dict) -> None:
    if params:
        raise ConfigError(f"config section {section!r} has unknown keys: {sorted(params)}")


@dataclass(frozen=True)
class ModelEntry:
    """How one built-in model is built from the ``model`` section, coupled and started."""

    build: Callable[[ExperimentConfig, dict], object]  # pops its keys, with defaults
    kernel: Callable[[object, CouplingSpec | None], CoupledKernel]
    init: Callable[[object], Callable[[np.random.Generator], object]]  # model -> initial law
    state: type  # int for state indices, float for continuous states


MODELS: dict[str, ModelEntry] = {
    "ar1": ModelEntry(_ar1, ar1_kernel, lambda m: lambda rng: 4.0 * rng.standard_normal(), float),
    "cauchy-gibbs": ModelEntry(
        _cauchy, cauchy_gibbs_kernel, lambda m: lambda rng: rng.standard_normal(), float
    ),
    "cauchy-mrth": ModelEntry(
        _cauchy, cauchy_mrth_kernel, lambda m: lambda rng: rng.standard_normal(), float
    ),
    "finite": ModelEntry(
        _finite, finite_kernel, lambda m: lambda rng, n=m.n_states: int(rng.integers(n)), int
    ),
}

MODEL_NAMES = tuple(MODELS)
