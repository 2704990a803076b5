import json
import re
from pathlib import Path

import numpy as np
import pytest

from fishyvar import cli
from fishyvar.chains import FiniteChainModel
from fishyvar.cli import main, run_experiment
from fishyvar.config import (
    MAX_REPS,
    MODEL_NAMES,
    MODELS,
    ConfigError,
    ExperimentConfig,
    build_bundle,
    build_model,
    finite_chain_from_csv,
    load_config,
)
from fishyvar.rng import RngStream, as_generator
from fishyvar.simulate import LANES

README = Path(__file__).resolve().parent.parent / "README.md"
TABLED_CHAIN = """
model:
  name: finite
  transition_matrix: [[0.5, 0.5], [0.3, 0.7]]
  h_values: [10.0, -4.0]
"""


@pytest.fixture
def finite_csv(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("to_0,to_1,to_2\n0.2,0.5,0.3\n0.4,0.4,0.2\n0.3,0.3,0.4\n")
    return path


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_yaml_roundtrip_with_flag_overrides(tmp_path):
    cfg_file = tmp_path / "experiment.yaml"
    cfg_file.write_text(
        """
model:
  name: ar1
  phi: 0.9
coupling:
  kind: reflection-maximal
test_function: identity
estimator:
  k: 50
  L: 25
  ell: 250
  R: 5
reps: 20
seed: 42
output:
  format: csv
  dir: out
"""
    )
    cfg = load_config(cfg_file)
    assert cfg.model == "ar1"
    assert cfg.model_params["phi"] == 0.9
    assert (cfg.k, cfg.lag, cfg.ell, cfg.R) == (50, 25, 250, 5)
    assert cfg.seed == 42
    cfg = load_config(cfg_file, {"R": 7, "seed": 1})
    assert cfg.R == 7 and cfg.seed == 1
    # flag-level model parameters merge with, not replace, the file's section
    cfg = load_config(cfg_file, {"model_params": {"sigma": 2.0}})
    assert cfg.model_params == {"phi": 0.9, "sigma": 2.0}


def test_every_documented_key_reaches_its_field(tmp_path):
    cfg_file = tmp_path / "experiment.yaml"
    cfg_file.write_text(
        """
model:
  name: cauchy-gibbs
  prior_variance: 50.0
coupling:
  kind: common-random-numbers
test_function: square
estimator:
  k: 20
  L: 5
  ell: 60
  R: 3
  y: 0.5
  xi: optimal
  thin: 2
  t_steps: 50
  burn_in: 7
reps: 9
seed: 11
grid: [-1.5, 1.5]
t_max: 40
t_min: 2.5
n_max: 12
quantile: 0.9
reference_avar: 3.5
output:
  format: json
  dir: elsewhere
"""
    )
    cfg = load_config(cfg_file)
    assert cfg.model == "cauchy-gibbs"
    assert cfg.model_params == {"prior_variance": 50.0}
    assert cfg.coupling_kind == "common-random-numbers"
    assert cfg.test_function == "square"
    assert (cfg.k, cfg.lag, cfg.ell, cfg.R, cfg.y, cfg.xi) == (20, 5, 60, 3, 0.5, "optimal")
    assert (cfg.thin, cfg.t_steps, cfg.burn_in) == (2, 50, 7)
    assert (cfg.reps, cfg.seed, cfg.grid) == (9, 11, [-1.5, 1.5])
    assert (cfg.t_max, cfg.t_min, cfg.n_max, cfg.quantile) == (40, 2.5, 12, 0.9)
    assert cfg.reference_avar == 3.5
    assert (cfg.output_format, cfg.output_dir) == ("json", "elsewhere")


def test_number_keys_accept_exponents_without_a_dot(tmp_path):
    # PyYAML reads 1e-2 as a string; every number key parses it as a float
    cfg_file = tmp_path / "experiment.yaml"
    cfg_file.write_text(
        "quantile: 1e-2\nestimator:\n  y: 2e0\nt_min: 3e0\nreference_avar: 1e4\n"
        "grid: [-1e0, 0, 5e-1]\n"
    )
    cfg = load_config(cfg_file)
    values = (cfg.quantile, cfg.y, cfg.t_min, cfg.reference_avar)
    assert values == (0.01, 2.0, 3.0, 1e4)
    assert all(type(v) is float for v in values)
    assert cfg.grid == [-1.0, 0, 0.5]


def test_config_validation_names_keys():
    with pytest.raises(ConfigError, match="estimator.R"):
        load_config(None, {"R": 0})
    with pytest.raises(ConfigError, match="estimator.ell"):
        load_config(None, {"k": 10, "ell": 5})
    with pytest.raises(ConfigError, match="model"):
        load_config(None, {"model": "unknown"})
    with pytest.raises(ConfigError, match="test_function"):
        load_config(None, {"test_function": "missing"})
    with pytest.raises(ConfigError, match="test_function"):
        load_config(None, {"model": "finite", "test_function": "missing"})


@pytest.mark.parametrize("key", ["workers", "repz"])
def test_unknown_override_names_raise_naming_the_key(key):
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(None, {key: 3})
    with pytest.raises(ConfigError, match=repr(key)):
        load_config(None, {"reps": 7, key: None})
    with pytest.raises(ConfigError, match="'workers'"):
        load_config(None, {"workers": 2, "repz": 3})


@pytest.mark.parametrize(
    "yaml_text, key",
    [
        ("estimator:\n  kk: 3\nrepz: 7\noutput:\n  formatt: json\n", "estimator.kk"),
        ("repz: 7\n", "repz"),
        ("output:\n  formatt: json\n", "output.formatt"),
        ("coupling:\n  knd: reflection-maximal\n", "coupling.knd"),
        ("estimator: 5\n", "estimator"),
        ("workers: 2\n", "workers"),
    ],
)
def test_unknown_config_keys_exit_2_naming_the_key(tmp_path, capsys, yaml_text, key):
    cfg_file = tmp_path / "typo.yaml"
    cfg_file.write_text(yaml_text)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(cfg_file)
    out = tmp_path / "out"
    assert main(["meetings", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_is_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["meetings", "--workers", "2"])
    assert exc.value.code == 2


def test_config_rejects_bad_yaml(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed\n")
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_config(bad)


def test_env_var_provides_default_seed(monkeypatch):
    monkeypatch.setenv("FISHYVAR_SEED", "987")
    cfg = load_config(None)
    assert cfg.seed == 987
    cfg = load_config(None, {"seed": 3})
    assert cfg.seed == 3


def test_build_model_validates_parameters():
    with pytest.raises(ConfigError):
        build_model(ExperimentConfig(model="ar1", model_params={"phi": 1.5}))
    with pytest.raises(ConfigError):
        build_model(ExperimentConfig(model="ar1", model_params={"bogus": 1}))
    with pytest.raises(ConfigError):
        build_model(ExperimentConfig(model="finite"))


def test_coupling_kind_flows_through():
    cfg = ExperimentConfig(model="ar1", coupling_kind="common-random-numbers")
    bundle, h = build_bundle(cfg)
    assert bundle.label == "ar1"
    with pytest.raises(ConfigError):
        build_bundle(ExperimentConfig(model="ar1", coupling_kind="maximal-rejection"))


def test_every_registered_model_builds_a_faithful_labelled_bundle(finite_csv):
    assert MODEL_NAMES == ("ar1", "cauchy-gibbs", "cauchy-mrth", "finite")
    for name in MODEL_NAMES:
        params = {"transition_csv": str(finite_csv)} if name == "finite" else {}
        bundle, h = build_bundle(ExperimentConfig(model=name, model_params=params))
        assert bundle.label == bundle.kernel.base.label == name
        x0 = bundle.init_sampler(RngStream(1).generator())
        assert type(x0) is MODELS[name].state
        x1, y1 = bundle.kernel.coupled_step(x0, x0, RngStream(2).generator())
        assert x1 == y1 and type(x1) is MODELS[name].state
        assert h.arity == 1


# ---------------------------------------------------------------------------
# Finite chains from CSV
# ---------------------------------------------------------------------------


def test_finite_chain_from_csv(finite_csv):
    model = finite_chain_from_csv(finite_csv, np.arange(3.0))
    assert isinstance(model, FiniteChainModel)
    assert model.n_states == 3
    assert model.transition_matrix[1, 0] == 0.4


def test_finite_csv_header_and_shape_errors(tmp_path):
    bad_header = tmp_path / "bad1.csv"
    bad_header.write_text("a,b\n0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ConfigError, match="header"):
        finite_chain_from_csv(bad_header, [0.0, 1.0])
    ragged = tmp_path / "bad2.csv"
    ragged.write_text("to_0,to_1\n0.5,0.5\n")
    with pytest.raises(ConfigError, match="matrix"):
        finite_chain_from_csv(ragged, [0.0, 1.0])
    not_stochastic = tmp_path / "bad3.csv"
    not_stochastic.write_text("to_0,to_1\n0.6,0.6\n0.5,0.5\n")
    with pytest.raises(ConfigError, match="sum"):
        finite_chain_from_csv(not_stochastic, [0.0, 1.0])


def test_finite_chain_h_is_its_table(tmp_path):
    cfg_file = tmp_path / "tabled.yaml"
    cfg_file.write_text(TABLED_CHAIN)
    cfg = load_config(cfg_file)
    _, h = build_bundle(cfg)
    table = build_model(cfg).h_values[:, 0].tolist()  # what solve_finite reads
    assert [h.eval_scalar(s) for s in range(2)] == table == [10.0, -4.0]


@pytest.mark.parametrize(
    "flags, yaml_text, message",
    [
        (["--model", "finite", "--transition-csv", "{nan_csv}"], None, r"lie in \[0, 1\]"),
        ([], TABLED_CHAIN.replace("0.7", ".nan"), r"lie in \[0, 1\]"),
        ([], TABLED_CHAIN.replace("-4.0", ".nan"), "h_values must be finite"),
        ([], TABLED_CHAIN.replace("-4.0", ".inf"), "h_values must be finite"),
    ],
)
@pytest.mark.parametrize("command", ["meetings", "oracle"])
def test_nonfinite_finite_chain_entries_exit_2_naming_the_model(
    tmp_path, capsys, command, flags, yaml_text, message
):
    # a NaN passes every `<` and `>` check, so such chains used to run
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("to_0,to_1,to_2\n0.2,0.5,0.3\n0.4,0.4,0.2\nnan,0.3,0.4\n")
    argv = [command, *(flag.format(nan_csv=nan_csv) for flag in flags)]
    if yaml_text is not None:
        cfg_file = tmp_path / "chain.yaml"
        cfg_file.write_text(yaml_text)
        argv += ["--config", str(cfg_file)]
    out = tmp_path / "out"
    assert main([*argv, "--reps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config section 'model'" in err and re.search(message, err)
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "model, argv, yaml_params, message",
    [
        ("cauchy-mrth", ["--prior-variance", "nan"], "", "prior_variance"),
        ("cauchy-gibbs", ["--prior-variance", "inf"], "", "prior_variance"),
        ("cauchy-mrth", ["--proposal-sd", "nan"], "", "mrth_proposal_sd"),
        ("cauchy-mrth", ["--proposal-sd", "inf"], "", "mrth_proposal_sd"),
        ("cauchy-gibbs", [], "  observations: [-8.0, .nan, 17.0]\n", "observations"),
        ("cauchy-mrth", [], "  observations: [.inf]\n", "observations"),
        ("ar1", ["--sigma", "nan"], "", "sigma"),
        ("ar1", ["--sigma", "inf"], "", "sigma"),
    ],
)
def test_nonfinite_model_parameters_exit_2_naming_the_model(
    tmp_path, capsys, model, argv, yaml_params, message
):
    cfg_file = tmp_path / "model.yaml"
    cfg_file.write_text(f"model:\n  name: {model}\n{yaml_params}")
    out = tmp_path / "out"
    assert main(["meetings", "--config", str(cfg_file), *argv, "--reps", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config section 'model'" in err and message in err
    assert not out.exists() or not any(out.iterdir())


def test_finite_chain_h_values_with_a_named_test_function_exit_2(tmp_path, capsys):
    cfg_file = tmp_path / "tabled.yaml"
    cfg_file.write_text(TABLED_CHAIN + "test_function: square\n")
    with pytest.raises(ConfigError, match="'test_function'"):
        build_model(load_config(cfg_file))
    out = tmp_path / "out"
    assert main(["umcmc", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert "'test_function'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_readme_config_file_loads_and_builds(tmp_path):
    text = README.read_text()
    section = text[text.index("### Config file") :]
    start = section.index("```yaml\n") + len("```yaml\n")
    block = section[start : section.index("```", start)]
    cfg_file = tmp_path / "readme.yaml"
    cfg_file.write_text(block)
    cfg = load_config(cfg_file)
    bundle, h = build_bundle(cfg)
    assert (cfg.model, cfg.model_params["phi"], cfg.reps) == ("ar1", 0.99, 1000)
    assert (bundle.label, h.label) == ("ar1", "identity")


def test_finite_model_via_config(finite_csv):
    cfg = ExperimentConfig(
        model="finite", model_params={"transition_csv": str(finite_csv)}, test_function="identity"
    )
    bundle, h = build_bundle(cfg)
    assert h.eval_scalar(2) == 2.0


# ---------------------------------------------------------------------------
# CLI behaviour
# ---------------------------------------------------------------------------


def test_cli_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_cli_bad_flag_value_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["suave", "--R", "not-a-number"])
    assert exc.value.code == 2


def test_cli_config_error_returns_2(tmp_path):
    code = main(["suave", "--model", "ar1", "--R", "0", "--out", str(tmp_path)])
    assert code == 2


def test_meetings_csv_golden_header(tmp_path):
    code = main(
        [
            "meetings",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--lag",
            "1",
            "--reps",
            "10",
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    lines = (tmp_path / "meetings.csv").read_text().splitlines()
    assert lines[0] == "rep,tau,lag,cost"
    assert len(lines) == 11


def test_rerun_is_byte_identical(tmp_path):
    args = [
        "suave",
        "--model",
        "ar1",
        "--phi",
        "0.9",
        "--k",
        "20",
        "--L",
        "10",
        "--ell",
        "100",
        "--R",
        "3",
        "--reps",
        "16",
        "--seed",
        "11",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("suave.csv", "suave_summary.json"):
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes()


def test_suave_summary_fields(tmp_path):
    code = main(
        [
            "suave",
            "--model",
            "ar1",
            "--phi",
            "0.9",
            "--k",
            "20",
            "--L",
            "10",
            "--ell",
            "100",
            "--R",
            "2",
            "--reps",
            "40",
            "--seed",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "suave_summary.json").read_text())
    for field in (
        "estimate",
        "total_cost",
        "fishy_cost",
        "variance_of_estimator",
        "inefficiency",
        "ci_estimate",
        "ci_inefficiency",
    ):
        assert field in summary
    lines = (tmp_path / "suave.csv").read_text().splitlines()
    assert lines[0] == "rep,estimate,cost_total,cost_fishy"


def test_umcmc_loss_factor_report(tmp_path):
    code = main(
        [
            "umcmc",
            "--model",
            "ar1",
            "--phi",
            "0.9",
            "--k",
            "20",
            "--L",
            "10",
            "--ell",
            "100",
            "--reps",
            "50",
            "--seed",
            "6",
            "--reference-avar",
            "100.0",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "umcmc_summary.json").read_text())
    assert summary["loss_factor_vs_avar"] == pytest.approx(summary["inefficiency"] / 100.0)
    lines = (tmp_path / "umcmc.csv").read_text().splitlines()
    assert lines[0] == "rep,value,cost"


def test_reference_avar_from_yaml(tmp_path):
    cfg_file = tmp_path / "experiment.yaml"
    cfg_file.write_text("model:\n  name: ar1\n  phi: 0.9\nreference_avar: 100.0\n")
    assert load_config(cfg_file).reference_avar == 100.0
    args = ["umcmc", "--config", str(cfg_file), "--k", "20", "--L", "10", "--ell", "100"]
    code = main(args + ["--reps", "50", "--seed", "6", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "umcmc_summary.json").read_text())
    assert summary["loss_factor_vs_avar"] == pytest.approx(summary["inefficiency"] / 100.0)


def test_bad_reference_avar_from_yaml_exits_2(tmp_path):
    cfg_file = tmp_path / "experiment.yaml"
    for value in ("abc", "0", "-5.0", "true", ".nan"):
        cfg_file.write_text(f"model:\n  name: ar1\nreference_avar: {value}\n")
        with pytest.raises(ConfigError, match="reference_avar"):
            load_config(cfg_file)
        assert main(["umcmc", "--config", str(cfg_file), "--out", str(tmp_path)]) == 2
    cfg_file.write_text("reference_avar: 1e4\n")
    assert load_config(cfg_file).reference_avar == 1e4


def test_reps_beyond_reserved_pilot_stream_exits_2(tmp_path):
    assert load_config(None, {"reps": MAX_REPS}).reps == MAX_REPS
    with pytest.raises(ConfigError, match="reps"):
        load_config(None, {"reps": MAX_REPS + 1})
    assert main(["suave", "--reps", str(MAX_REPS + 1), "--out", str(tmp_path)]) == 2


def test_summary_bootstraps_draw_from_reserved_streams(tmp_path, monkeypatch):
    keys = []

    def recording(fn):
        def call(*args, rng):
            keys.append(tuple(as_generator(rng).bit_generator.state["state"]["key"]))
            return fn(*args, rng=rng)

        return call

    monkeypatch.setattr(cli, "inefficiency", recording(cli.inefficiency))
    monkeypatch.setattr(cli, "bootstrap_ci", recording(cli.bootstrap_ci))
    args = ["umcmc", "--model", "ar1", "--phi", "0.5", "--k", "2", "--L", "1", "--ell", "5"]
    assert main(args + ["--reps", "3", "--seed", "5", "--out", str(tmp_path)]) == 0
    stream = RngStream(5)
    reserved = [stream.child(MAX_REPS + 1), stream.child(MAX_REPS + 2)]
    assert keys == [(s.stream_id, s.master_seed) for s in reserved]
    # replicate r draws from child r and lane batch b from child b, for any
    # reps up to MAX_REPS; the pilots draw from child(MAX_REPS) and its children
    pilot = stream.child(MAX_REPS)
    used = {s.stream_id for s in stream.children(MAX_REPS)}
    used |= {s.stream_id for s in stream.children(-(-MAX_REPS // LANES))}
    used |= {pilot.stream_id} | {s.stream_id for s in pilot.children(MAX_REPS)}
    assert len({s.stream_id for s in reserved}) == 2
    assert not used & {s.stream_id for s in reserved}


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_key_word_exits_2(tmp_path, monkeypatch, capsys, seed):
    out = tmp_path / "out"
    cfg_file = tmp_path / "seed.yaml"
    cfg_file.write_text(f"seed: {seed}\n")
    args = ["meetings", "--reps", "2", "--out", str(out)]
    assert main(args + ["--seed", str(seed)]) == 2
    assert main(args + ["--config", str(cfg_file)]) == 2
    monkeypatch.setenv("FISHYVAR_SEED", str(seed))
    assert main(args) == 2
    assert capsys.readouterr().err.count("'seed'") == 3
    assert not out.exists()
    monkeypatch.delenv("FISHYVAR_SEED")
    assert load_config(None, {"seed": 2**64 - 1}).seed == 2**64 - 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (["theory-check", "--phi", "0.5", "--n-max", "-3"], "n_max"),
        (["epave", "--burn-in", "-5"], "estimator.burn_in"),
        (["fishy", "--config", "{empty_grid}"], "grid"),
        (["theory-check", "--phi", "0.99"], "model.phi"),
        (["meetings", "--coupling", "bogus"], "coupling"),
        (["oracle", "--model", "finite", "--transition-csv", "{missing}"], "model.transition_csv"),
        (["epave", "--test-function", "identity-and-square"], "test_function"),
        (["suave", "--xi", "optimal", "--test-function", "identity-and-square"], "test_function"),
        (["tailfit", "--phi", "0.5"], "reps"),
        (["fishy", "--reps", "1"], "reps"),
        (["umcmc", "--reps", "1"], "reps"),
        (["suave", "--reps", "1"], "reps"),
        (["epave", "--reps", "1"], "reps"),
        (["theory-check", "--phi", "0.5", "--coupling", "common-random-numbers"], "coupling"),
    ],
)
def test_invalid_inputs_exit_2_naming_the_key(tmp_path, capsys, argv, key):
    empty_grid = tmp_path / "grid.yaml"
    empty_grid.write_text("grid: []\n")
    missing = tmp_path / "missing.csv"
    argv = [arg.format(empty_grid=empty_grid, missing=missing) for arg in argv]
    out = tmp_path / "out"
    # the default --reps 5 comes first, so a case's own --reps overrides it
    assert main(argv[:1] + ["--reps", "5"] + argv[1:] + ["--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "yaml_text, env_seed, key",
    [
        ("", "abc", "seed"),
        ("reps: abc\n", None, "reps"),
        ("grid: 3\n", None, "grid"),
        ("model: 3\n", None, "model"),
        ("test_function: [1]\n", None, "test_function"),
    ],
)
def test_mistyped_values_exit_2_naming_the_key(
    tmp_path, monkeypatch, capsys, yaml_text, env_seed, key
):
    cfg_file = tmp_path / "typed.yaml"
    cfg_file.write_text(yaml_text)
    if env_seed is not None:
        monkeypatch.setenv("FISHYVAR_SEED", env_seed)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(cfg_file)
    out = tmp_path / "out"
    assert main(["fishy", "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not out.exists()


def test_artifact_writers_leave_no_partial_file(tmp_path):
    from fishyvar import cli

    table = tmp_path / "meetings.csv"
    cli._write_table(table, ("rep", "tau"), [(0, 3)])
    before = table.read_text()

    def rows():
        yield (1, 4)
        raise RuntimeError("writer failed mid-table")

    with pytest.raises(RuntimeError):
        cli._write_table(table, ("rep", "tau"), rows())
    assert table.read_text() == before
    summary = tmp_path / "summary.json"
    with pytest.raises(TypeError):
        cli._write_json(summary, {"estimate": 1.0, "z_unserialisable": object()})
    assert not summary.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["meetings.csv"]


def test_pilot_and_tailfit_json(tmp_path):
    code = main(
        [
            "pilot",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--lag",
            "1",
            "--reps",
            "200",
            "--seed",
            "7",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    pilot = json.loads((tmp_path / "pilot.json").read_text())
    assert pilot["ell"] == 5 * pilot["k"]
    assert pilot["k"] == pilot["L"]

    code = main(
        [
            "tailfit",
            "--model",
            "ar1",
            "--phi",
            "0.9",
            "--lag",
            "1",
            "--reps",
            "2000",
            "--seed",
            "8",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    fit = json.loads((tmp_path / "tailfit.json").read_text())
    for field in ("slope", "intercept", "r2", "tmin", "tmax"):
        assert field in fit


def test_tvbound_csv_properties(tmp_path):
    code = main(
        [
            "tvbound",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--lag",
            "2",
            "--t-max",
            "30",
            "--reps",
            "500",
            "--seed",
            "9",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "tvbound.csv").read_text().splitlines()
    assert rows[0] == "t,bound"
    bounds = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b >= 0 for b in bounds)
    assert all(b1 <= b0 + 1e-12 for b0, b1 in zip(bounds, bounds[1:]))


def test_theory_check_reports_domination(tmp_path):
    code = main(
        [
            "theory-check",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--n-max",
            "40",
            "--reps",
            "2000",
            "--seed",
            "10",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "theory_check_summary.json").read_text())
    assert summary["dominates"] is True
    assert 0.0 < summary["beta_bar"] < 1.0
    rows = (tmp_path / "theory_check.csv").read_text().splitlines()
    assert rows[0] == "n,bound,empirical"


def test_oracle_subcommand(finite_csv, tmp_path):
    code = main(
        [
            "oracle",
            "--model",
            "finite",
            "--transition-csv",
            str(finite_csv),
            "--test-function",
            "identity",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["n_states"] == 3
    assert len(payload["pi"]) == 3
    assert abs(sum(payload["pi"]) - 1.0) < 1e-9


def test_epave_subcommand(tmp_path):
    code = main(
        [
            "epave",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--t-steps",
            "2000",
            "--thin",
            "10",
            "--y",
            "0",
            "--reps",
            "4",
            "--seed",
            "12",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "epave_summary.json").read_text())
    assert summary["burn_in"] >= 1  # chosen by the pilot when not given
    lines = (tmp_path / "epave.csv").read_text().splitlines()
    assert lines[0] == "rep,estimate,cost"


def test_fishy_subcommand_json_format(tmp_path):
    code = main(
        [
            "fishy",
            "--model",
            "ar1",
            "--phi",
            "0.5",
            "--grid",
            "-1",
            "0",
            "1",
            "--y",
            "0",
            "--reps",
            "50",
            "--seed",
            "13",
            "--format",
            "json",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = json.loads((tmp_path / "fishy.json").read_text())
    assert [r["x"] for r in rows] == [-1.0, 0.0, 1.0]
    assert set(rows[0]) == {"x", "mean", "se", "second_moment", "mean_cost"}


def test_run_experiment_unknown_command():
    cfg = ExperimentConfig()
    cfg.command = "nope"
    with pytest.raises(ConfigError):
        run_experiment(cfg)


@pytest.mark.parametrize("command", ["fishy", "suave", "epave"])
@pytest.mark.parametrize("y", ["3", "7", "-1", "-2", "0.5"])
def test_finite_anchor_must_be_a_state_index(finite_csv, tmp_path, capsys, command, y):
    out = tmp_path / "out"
    argv = [command, "--model", "finite", "--transition-csv", str(finite_csv), "--y", y]
    assert main(argv + ["--reps", "5", "--out", str(out)]) == 2
    assert "'estimator.y'" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_finite_anchor_accepts_the_last_state(finite_csv):
    from fishyvar import cli

    params = {"transition_csv": str(finite_csv)}
    cfg = load_config(None, {"model": "finite", "model_params": params, "y": 2.0})
    anchor = cli._state_value(cfg, build_model(cfg))
    assert (anchor, type(anchor)) == (2, int)


def test_suave_and_fishy_on_finite_chain(finite_csv, tmp_path):
    base = [
        "--model",
        "finite",
        "--transition-csv",
        str(finite_csv),
        "--test-function",
        "identity",
        "--seed",
        "14",
        "--out",
        str(tmp_path),
    ]
    assert main(["fishy", "--reps", "200", "--y", "0"] + base) == 0
    rows = (tmp_path / "fishy.csv").read_text().splitlines()
    assert rows[0] == "x,mean,se,second_moment,mean_cost"
    assert len(rows) == 4  # header + one row per state
    args = ["suave", "--k", "3", "--L", "2", "--ell", "12", "--R", "2", "--reps", "30", "--y", "0"]
    assert main(args + base) == 0
    assert main(args + ["--xi", "optimal"] + base) == 0
    summary = json.loads((tmp_path / "suave_summary.json").read_text())
    assert summary["xi"] == "optimal"
    assert np.isfinite(summary["estimate"])


def test_runtime_abort_exits_1(monkeypatch, tmp_path):
    from fishyvar import cli
    from fishyvar.simulate import TransitionBudgetError

    def explode(*args, **kwargs):
        raise TransitionBudgetError(1, 1000)

    monkeypatch.setattr(cli, "sample_meetings", explode)
    code = main(
        ["meetings", "--model", "ar1", "--reps", "5", "--lag", "1", "--out", str(tmp_path)]
    )
    assert code == 1


def test_rejection_cap_abort_exits_1_with_one_line_and_no_file(monkeypatch, tmp_path, capsys):
    from fishyvar import couplings

    # with a cap of 0 the first rejection of the maximal coupling fails the run
    monkeypatch.setattr(couplings, "DEFAULT_REJECTION_CAP", 0)
    out = tmp_path / "out"
    argv = ["meetings", "--model", "cauchy-gibbs", "--lag", "1", "--reps", "20"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: aborted:") and "exceeded 0 iterations" in err
    assert not any(out.iterdir())


def test_directly_built_configs_are_validated(tmp_path):
    with pytest.raises(ConfigError, match="'test_function'"):
        build_bundle(ExperimentConfig(model="ar1", test_function="bogus"))
    with pytest.raises(ConfigError, match="'test_function'"):
        build_model(ExperimentConfig(model="ar1", test_function="bogus"))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="'estimator.R'"):
        run_experiment(ExperimentConfig(command="suave", R=0, output_dir=str(out)))
    assert not out.exists()
