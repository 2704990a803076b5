"""Experiment configuration: YAML files, model registry, CSV chain loading.

A config couples a model (with its coupling choice), a test function and
estimator settings into one reproducible experiment.  Command-line flags
override file values.  Validation happens at load time and reports the
offending key.
"""

from __future__ import annotations

import contextlib
import csv
import math
import numbers
import os
from dataclasses import dataclass, field, fields
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
    "bundle_for",
    "finite_chain_from_csv",
    "MODELS",
    "MODEL_NAMES",
    "TEST_FUNCTIONS",
]

TEST_FUNCTIONS: dict[str, TestFunction] = {
    "identity": TestFunction(float, 1, "identity"),
    "square": TestFunction(lambda x: float(x) ** 2, 1, "square"),
    "abs": TestFunction(lambda x: abs(float(x)), 1, "abs"),
    "identity-and-square": TestFunction(
        lambda x: (float(x), float(x) ** 2), 2, "identity-and-square"
    ),
}


# Replicate r of a CLI run draws from stream child(r); child(MAX_REPS) is
# reserved for the EPAVE burn-in pilot and the optimal-xi fishy profile.
MAX_REPS = 2**18

# commands whose summary takes a sample variance over the replicates
_VARIANCE_COMMANDS = ("fishy", "umcmc", "suave", "epave")


class ConfigError(ValueError):
    """A configuration value failed validation; the message names the key."""


def _key(yaml_key: str, default=None, *, factory=None):
    """A config field read from ``yaml_key`` (``section`` or ``section.name``)."""
    if factory is not None:
        return field(default_factory=factory, metadata={"key": yaml_key})
    return field(default=default, metadata={"key": yaml_key})


@dataclass
class ExperimentConfig:
    """Validated settings for one experiment run.

    Each field but ``command`` names its YAML key; its annotation gives the
    type a value must have, and ``| None`` lets it be unset.
    """

    command: str = "suave"
    model: str = _key("model.name", "ar1")
    model_params: dict = _key("model", factory=dict)  # the section's other keys
    coupling_kind: str | None = _key("coupling.kind")
    test_function: str = _key("test_function", "identity")
    k: int = _key("estimator.k", 100)
    lag: int = _key("estimator.L", 100)
    ell: int = _key("estimator.ell", 500)
    R: int = _key("estimator.R", 10)
    y: float = _key("estimator.y", 0.0)
    xi: str = _key("estimator.xi", "uniform")
    thin: int = _key("estimator.thin", 1)
    t_steps: int = _key("estimator.t_steps", 10**4)
    burn_in: int | None = _key("estimator.burn_in")
    reps: int = _key("reps", 100)
    seed: int = _key("seed", 0)
    grid: list[float] = _key("grid", factory=lambda: [-3, -2, -1, 0, 1, 2, 3])
    t_max: int = _key("t_max", 200)
    t_min: float | None = _key("t_min")
    n_max: int = _key("n_max", 50)
    quantile: float = _key("quantile", 0.99)
    reference_avar: float | None = _key("reference_avar")
    output_format: str = _key("output.format", "csv")
    output_dir: str = _key("output.dir", ".")

    def validate(self) -> None:
        self._check_types()
        ref = self.reference_avar
        checks = [
            (self.model in MODEL_NAMES, "model", f"must be one of {MODEL_NAMES}"),
            (
                self.test_function in TEST_FUNCTIONS,
                "test_function",
                f"unknown name {self.test_function!r}; known: {sorted(TEST_FUNCTIONS)}",
            ),
            (self.k >= 0, "estimator.k", "must be nonnegative"),
            (self.lag >= 0, "estimator.L", "must be nonnegative"),
            (self.k <= self.ell, "estimator.ell", "must be at least k"),
            (self.R >= 1, "estimator.R", "must be at least 1"),
            (self.xi in XI_KINDS, "estimator.xi", f"must be one of {', '.join(XI_KINDS)}"),
            (self.thin >= 1, "estimator.thin", "must be at least 1"),
            (self.t_steps >= 2, "estimator.t_steps", "must be at least 2"),
            (self.burn_in is None or self.burn_in >= 0, "estimator.burn_in", "must be nonnegative"),
            (1 <= self.reps <= MAX_REPS, "reps", f"must lie in [1, {MAX_REPS}]"),
            (
                self.reps >= 2 or self.command not in _VARIANCE_COMMANDS,
                "reps",
                f"must be at least 2 for {self.command}",
            ),
            (0 <= self.seed < 2**64, "seed", "must be an integer in [0, 2^64)"),
            (len(self.grid) >= 1, "grid", "must hold at least one point"),
            (self.t_max >= 0, "t_max", "must be nonnegative"),
            (self.n_max >= 0, "n_max", "must be nonnegative"),
            (0.0 < self.quantile < 1.0, "quantile", "must lie in (0, 1)"),
            (ref is None or 0 < ref < math.inf, "reference_avar", "must be positive and finite"),
            (self.output_format in ("csv", "json"), "output.format", "must be csv or json"),
        ]
        for ok, key, message in checks:
            if not ok:
                raise ConfigError(f"config key {key!r} {message}")

    def _check_types(self) -> None:
        # YAML and the environment hand over values of any type; catch them
        # here, before a comparison raises a TypeError with no key in it
        for f in _SETTINGS:
            kind = f.type.removesuffix(" | None")
            value = getattr(self, f.name)
            if value is None and kind != f.type:
                continue
            if kind == "float":
                value = _number(value)
            elif kind == "list[float]" and isinstance(value, list):
                value = [_number(v) for v in value]
            is_kind, what = _KINDS[kind]
            if not is_kind(value):
                raise ConfigError(f"config key {f.metadata['key']!r} must be {what}, got {value!r}")
            setattr(self, f.name, value)


_SETTINGS = tuple(f for f in fields(ExperimentConfig) if "key" in f.metadata)


def _number(value):
    # PyYAML reads an exponent with no dot, such as 1e-2, as a string
    with contextlib.suppress(ValueError):
        return float(value) if isinstance(value, str) else value
    return value


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


_KINDS = {  # field annotation -> (accepts a value, what the error asks for)
    "int": (lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool), "an integer"),
    "float": (_is_real, "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "dict": (lambda v: isinstance(v, dict), "a mapping"),
    "list[float]": (
        lambda v: isinstance(v, (list, tuple, np.ndarray)) and all(map(_is_real, v)),
        "a list of numbers",
    ),
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
        _reject_unknown_keys(raw)

    cfg = ExperimentConfig()
    for f in _SETTINGS:
        value = _dig(raw, f.metadata["key"])
        if f.name == "model_params" and isinstance(value, dict):
            value = {k: v for k, v in value.items() if k != "name"}
        if value is not None:
            setattr(cfg, f.name, value)
    env_seed = os.environ.get("FISHYVAR_SEED")
    if "seed" not in raw and env_seed:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise ConfigError(
                f"config key 'seed' from FISHYVAR_SEED must be an integer, got {env_seed!r}"
            ) from None
    names = {f.name for f in fields(ExperimentConfig)}
    for attr, value in (overrides or {}).items():
        if attr not in names:
            raise ConfigError(f"override {attr!r} names no config field; known: {sorted(names)}")
        if value is None:
            continue
        if attr == "model_params" and isinstance(value, dict):
            # flags override individual parameters, not the whole section
            value = {**cfg.model_params, **value}
        setattr(cfg, attr, value)
    cfg.validate()
    return cfg


def _reject_unknown_keys(raw: dict) -> None:
    """Raise on a key that names no setting (model keys are checked at build time)."""
    names: dict = {}  # section -> its setting names, "" for the section itself
    for f in _SETTINGS:
        section, _, name = f.metadata["key"].partition(".")
        names.setdefault(section, set()).add(name)
    for section, node in raw.items():
        known = names.get(section)
        if known is None:
            raise ConfigError(f"config key {section!r} names no setting; known: {sorted(names)}")
        if "" in known or node is None:  # a setting itself, or the model section
            continue
        if not isinstance(node, dict):
            raise ConfigError(f"config section {section!r} must be a mapping, got {node!r}")
        for name in node:
            if name not in known:
                raise ConfigError(
                    f"config key '{section}.{name}' names no setting; known: {sorted(known)}"
                )


def _dig(raw: dict, key: str):
    section, _, name = key.partition(".")
    node = raw.get(section)
    if name:
        return node.get(name) if isinstance(node, dict) else None
    return node


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


def build_model(cfg: ExperimentConfig):
    """Materialize the raw model object named by the config, after validating it."""
    cfg.validate()
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
    """Materialize the coupled kernel, initial distribution and test function.

    The config is validated by :func:`build_model`.
    """
    return bundle_for(cfg, build_model(cfg))


def bundle_for(cfg: ExperimentConfig, model) -> tuple[ModelBundle, TestFunction]:
    """The bundle and test function of a model that :func:`build_model` built.

    A model whose states are indices reads its own test-function table;
    any other model evaluates the registry function ``cfg.test_function``.
    """
    entry = MODELS[cfg.model]
    try:
        kernel = entry.kernel(model, cfg.coupling_kind)
    except ValueError as exc:
        raise ConfigError(f"config section 'coupling': {exc}") from exc
    h = model.test_function() if entry.state is int else TEST_FUNCTIONS[cfg.test_function]
    return ModelBundle(kernel, entry.init(model), cfg.model), h


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
        fn = TEST_FUNCTIONS[cfg.test_function]
        h_values = [fn.eval(float(s)) for s in range(len(matrix))]
    elif cfg.test_function != ExperimentConfig.test_function:
        raise ConfigError(
            "config key 'test_function' must keep its default: 'model.h_values' is the test function"
        )
    where = "config section 'model'" if csv_path is None else csv_path
    return _finite_chain(where, matrix, h_values)


def _reject_extras(section: str, params: dict) -> None:
    if params:
        raise ConfigError(f"config section {section!r} has unknown keys: {sorted(params)}")


@dataclass(frozen=True)
class ModelEntry:
    """How one built-in model is built from the ``model`` section, coupled and started."""

    build: Callable[[ExperimentConfig, dict], object]  # pops its keys, with defaults
    kernel: Callable[[object, str | None], CoupledKernel]  # (model, coupling kind or default)
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
