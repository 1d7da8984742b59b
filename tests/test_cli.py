"""Command-line interface: commands, config files, exit codes, artifacts."""

import json

import pytest

from tftb.cli import (
    CONFIG_KEYS, EXIT_CONFIG, EXIT_OK, _build_spec, build_parser, main, parse_config_file,
)
from tftb.errors import ConfigError
from tftb.experiments import ExperimentSpec
from tftb.importance import AlphaSchedule
from tftb.manifest import RunManifest
from tftb.trainer import TrainConfig


def train_args(tmp_path, *extra):
    return [
        "train",
        "--task", "classify-synth",
        "--mode", "tftb",
        "--alpha", "0.3",
        "--max-epochs", "3",
        "--n-per-class", "20",
        "--num-classes", "2",
        "--seed", "1",
        "--patience", "20",
        "--out", str(tmp_path / "runs"),
        *extra,
    ]


def test_train_writes_manifest_curve_and_checkpoint(tmp_path, capsys):
    assert main(train_args(tmp_path)) == EXIT_OK
    run_dir = tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1"
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "loss_curve.csv").exists()
    assert (run_dir / "checkpoint.bin").exists()
    manifest = RunManifest.load(run_dir / "manifest.json")
    assert manifest.mode == "tftb"
    assert "accuracy" in manifest.final_metrics
    assert "stop=" in capsys.readouterr().out


def test_budgeted_train_respects_the_clock(tmp_path):
    assert main(train_args(tmp_path, "--budget-seconds", "5")) == EXIT_OK
    run_dir = tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1"
    manifest = RunManifest.load(run_dir / "manifest.json")
    trace = manifest.budget
    assert trace["budget_seconds"] == 5.0
    assert trace["consumed_total"] <= 5.0 + trace["tb_max"] + 0.5


def test_unknown_task_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train", "--task", "classify-everything"])
    assert err.value.code == 2
    assert "classify-synth" in capsys.readouterr().err  # lists the valid tasks


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# experiment config\n"
        "task = classify-synth\n"
        "mode = baseline\n"
        "alpha = 0.4\n"
        "n_per_class = 20\n"
        "num_classes = 2\n"
        "max_epochs = 2\n"
        "early_stop_patience = 20\n"
        "seed = 3\n"
    )
    out = tmp_path / "runs"
    # the CLI flag wins over the file value for alpha
    code = main(["train", "--config", str(cfg), "--alpha", "0.2", "--out", str(out)])
    assert code == EXIT_OK
    run_dir = out / "classify-synth_baseline_alpha0.2_seed3"
    manifest = RunManifest.load(run_dir / "manifest.json")
    assert manifest.config["train"]["alpha"] == 0.2
    assert manifest.config["train"]["max_epochs"] == 2


def test_unknown_config_key_names_key_and_allowed_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("learning_rate_schedule = cosine\n")
    with pytest.raises(ConfigError, match="learning_rate_schedule"):
        parse_config_file(cfg)
    code = main(["train", "--config", str(cfg)])
    assert code == EXIT_CONFIG


def test_invalid_alpha_is_a_config_error(tmp_path):
    code = main(train_args(tmp_path, "--alpha", "1.5"))
    assert code == EXIT_CONFIG


def test_same_spec_and_seed_twice_identical_modulo_wall_timing(tmp_path):
    assert main(train_args(tmp_path)) == EXIT_OK
    first = json.loads(
        (tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1" / "manifest.json").read_text()
    )
    assert main(train_args(tmp_path)) == EXIT_OK
    second = json.loads(
        (tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1" / "manifest.json").read_text()
    )

    def normalize(doc):
        doc = json.loads(json.dumps(doc))
        doc["created_at"] = None
        doc["budget"] = None  # wall timings differ run to run
        for report in doc["epochs"]:
            report["wall_seconds"] = None
            report["consumed_seconds"] = None
        return doc

    assert normalize(first) == normalize(second)


def test_compare_requires_at_least_two_manifests(tmp_path):
    assert main(train_args(tmp_path)) == EXIT_OK
    manifest = tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1" / "manifest.json"
    assert main(["compare", str(manifest), "--out", str(tmp_path / "cmp")]) == EXIT_CONFIG


def test_compare_writes_delta_table(tmp_path, capsys):
    assert main(train_args(tmp_path)) == EXIT_OK
    assert main(train_args(tmp_path, "--mode", "baseline")) == EXIT_OK
    runs = tmp_path / "runs"
    a = runs / "classify-synth_tftb_alpha0.3_seed1" / "manifest.json"
    b = runs / "classify-synth_baseline_alpha0.3_seed1" / "manifest.json"
    out = tmp_path / "cmp"
    assert main(["compare", str(a), str(b), "--out", str(out)]) == EXIT_OK
    assert (out / "comparison_1.csv").exists()
    table = (out / "comparison.txt").read_text()
    assert "accuracy" in table
    assert "delta" in capsys.readouterr().out


def test_compare_three_manifests_is_pairwise_vs_first(tmp_path):
    assert main(train_args(tmp_path)) == EXIT_OK
    assert main(train_args(tmp_path, "--mode", "baseline")) == EXIT_OK
    assert main(train_args(tmp_path, "--alpha", "0.4")) == EXIT_OK
    runs = tmp_path / "runs"
    paths = [
        runs / "classify-synth_tftb_alpha0.3_seed1" / "manifest.json",
        runs / "classify-synth_baseline_alpha0.3_seed1" / "manifest.json",
        runs / "classify-synth_tftb_alpha0.4_seed1" / "manifest.json",
    ]
    out = tmp_path / "cmp3"
    assert main(["compare", *map(str, paths), "--out", str(out)]) == EXIT_OK
    assert (out / "comparison_1.csv").exists()
    assert (out / "comparison_2.csv").exists()


def test_sweep_runs_grid_and_writes_summary(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--task", "classify-synth",
            "--mode", "tftb",
            "--alphas", "0.0,0.3",
            "--seeds", "1,2",
            "--max-epochs", "2",
            "--n-per-class", "15",
            "--num-classes", "2",
            "--patience", "20",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "sweep_summary.csv").exists()
    assert (out / "sweep_summary.txt").exists()
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 4  # 2 alphas x 2 seeds
    assert "alpha=0.3" in capsys.readouterr().out


def test_baseline_sweep_over_several_alphas_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--task", "classify-synth", "--alphas", "0.1,0.3", "--seeds", "1,2",
                 "--n-per-class", "20", "--num-classes", "2", "--max-epochs", "3",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


def test_a_negative_seed_is_a_configuration_error(tmp_path, capsys):
    args = train_args(tmp_path)
    args[args.index("--seed") + 1] = "-1"
    assert main(args) == EXIT_CONFIG
    assert "configuration error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_sweep_refuses_a_negative_seed_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--task", "classify-synth", "--mode", "tftb", "--alphas", "0.3",
                 "--seeds", "1,-2", "--n-per-class", "20", "--num-classes", "2",
                 "--max-epochs", "2", "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "seed must be >= 0, got -2" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_names_the_test_split_field_it_refuses(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("task = classify-synth\nmode = tftb\nn_per_class = 20\nn_test_per_class = 0\n")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--alphas", "0.1,0.3", "--seeds", "1,2",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "n_test_per_class must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_with_empty_alpha_list_is_usage_error(tmp_path):
    code = main(
        ["sweep", "--task", "classify-synth", "--alphas", "", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flag, value", [("--alphas", "0.3,x"), ("--seeds", "1,y")])
def test_sweep_with_unparsable_list_is_usage_error(tmp_path, capsys, flag, value):
    code = main(["sweep", "--task", "classify-synth", flag, value, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(value.split(",")[1]) in err


@pytest.mark.parametrize("text", ["[]", "null", '{"schema_version": 1}', "\xff"])
def test_compare_reports_a_malformed_manifest_without_a_traceback(tmp_path, capsys, text):
    good = RunManifest(mode="tftb", seed=1, config={}, dataset={})
    good.save(tmp_path / "good.json")
    (tmp_path / "bad.json").write_bytes(text.encode("latin-1"))
    code = main(["compare", str(tmp_path / "good.json"), str(tmp_path / "bad.json"),
                 "--out", str(tmp_path / "cmp")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")


def test_compare_reports_a_metric_that_is_not_a_number_without_a_traceback(tmp_path, capsys):
    for name, loss in (("a", 0.5), ("b", "0.4")):
        RunManifest(mode="tftb", seed=1, config={}, dataset={},
                    final_metrics={"final_val_loss": loss}).save(tmp_path / f"{name}.json")
    code = main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "cmp")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "'final_val_loss'" in err


def test_compare_skips_a_metric_the_runs_did_not_measure(tmp_path, capsys):
    """A run without validation data writes a null validation loss."""
    for name, accuracy in (("a", 0.75), ("b", 0.5)):
        metrics = {"final_val_loss": None, "final_train_loss": 0.25, "accuracy": accuracy}
        RunManifest(mode="tftb", seed=1, config={}, dataset={},
                    final_metrics=metrics).save(tmp_path / f"{name}.json")
    out = tmp_path / "cmp"
    assert main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(out)]) == EXIT_OK
    table = capsys.readouterr().out
    assert "final_train_loss" in table and "accuracy" in table
    assert "final_val_loss" not in table
    rows = (out / "comparison_1.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["accuracy", "final_train_loss"]


def test_compare_reports_a_fingerprint_mismatch_as_a_configuration_error(tmp_path, capsys):
    for name, fingerprint in (("a", "0" * 16), ("b", "1" * 16)):
        RunManifest(mode="tftb", seed=1, config={},
                    dataset={"train_fingerprint": fingerprint}).save(tmp_path / f"{name}.json")
    code = main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "cmp")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "fingerprints differ" in err


@pytest.mark.parametrize("text", [
    b"task = count-synth\nconv_channels = 6\n",
    b"task = count-synth\nconv_channels = 4,4,4\n",
    b"task = count-synth\nconv_channels = 0,6\n",
    b"hidden = 0\n",
    b"hidden = -3\n",
    b"task = classify-synth\n# caf\xe9\n",
    *(b"max_epochs = 2\nn_per_class = 20\n" + line for line in (
        b"budget_seconds = inf\n",
        b"budget_seconds = nan\n",
        b"lr = nan\n",
        b"lambda_var = nan\n",
        b"lambda_var = inf\n",
        b"mode = baseline\nlambda_var = nan\n",
        b"task = count-synth\nsigma = nan\n",
        b"task = count-synth\nsigma = inf\n",
        b"alpha_delta = nan\n",
        b"alpha_eps_fast = inf\n",
        b"seed = -1\n",
    )),
], ids=["conv-one", "conv-three", "conv-zero", "hidden-zero", "hidden-negative", "not-utf8",
        "budget-inf", "budget-nan", "lr-nan", "lambda-nan", "lambda-inf", "baseline-lambda-nan",
        "sigma-nan", "sigma-inf", "alpha-delta-nan", "alpha-eps-fast-inf", "seed-negative"])
def test_malformed_config_file_is_a_configuration_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(text)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "runs").exists()


def test_ledger_csv_is_written_when_requested(tmp_path):
    assert main(train_args(tmp_path, "--ledger-csv")) == EXIT_OK
    run_dir = tmp_path / "runs" / "classify-synth_tftb_alpha0.3_seed1"
    ledger = (run_dir / "ledger.csv").read_text().splitlines()
    assert ledger[0] == "epoch,sample_id,mean,std,effective_score,selected"
    assert len(ledger) > 1


def test_aborted_training_exits_3_and_writes_diagnostic_manifest(tmp_path, capsys):
    from tftb.cli import EXIT_TRAINING

    out = tmp_path / "runs"
    code = main(
        [
            "train",
            "--task", "count-synth",
            "--mode", "baseline",
            "--max-epochs", "5",
            "--lr", "1e80",  # guaranteed numeric blow-up
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert code == EXIT_TRAINING
    diagnostic = out / "aborted_manifest.json"
    assert diagnostic.exists()
    manifest = RunManifest.load(diagnostic)
    assert manifest.stop_reason == "non_finite_abort"
    assert manifest.error is not None
    assert "aborted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the one settings table: a key per field, a flag per key

DEFAULTS = {"spec": ExperimentSpec(), "train": TrainConfig(), "schedule": AlphaSchedule()}
# the two flags that keep their documented spellings
FLAG_SPELLINGS = {
    "early_stop_patience": "--patience", "refresh_excluded_period": "--refresh-excluded",
}


def default_of(key):
    section, field, _ = CONFIG_KEYS[key]
    return getattr(DEFAULTS[section], field)


def as_text(value):
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def other_value(key):
    """A valid value of ``key`` that is not its default."""
    default = default_of(key)
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float) and default:
        return default / 2
    if isinstance(default, tuple):
        return tuple(size + 1 for size in default)
    return {"task": "count-synth", "mode": "tftb", "data_dir": "data"}.get(key, 0.25)


def spec_of(*argv):
    return _build_spec(build_parser().parse_args(["train", *argv]))


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
def test_every_key_is_a_flag_and_file_and_flag_build_the_same_spec(tmp_path, key):
    value = other_value(key)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = {as_text(value)}\n")
    from_file = spec_of("--config", str(cfg))
    flag = FLAG_SPELLINGS.get(key, "--" + key.replace("_", "-"))
    if isinstance(value, bool):
        from_flag = spec_of(flag if value else "--no-" + flag[2:])
    else:
        from_flag = spec_of(flag, as_text(value))
    assert from_file == from_flag != ExperimentSpec()


@pytest.mark.parametrize("key", sorted(k for k in CONFIG_KEYS if default_of(k) is not None))
def test_each_key_reads_its_default_back_from_text(key):
    convert = CONFIG_KEYS[key][2]
    assert convert(as_text(default_of(key))) == default_of(key)


@pytest.mark.parametrize("where", ["flag", "file"])
def test_a_malformed_value_is_the_same_configuration_error_by_flag_and_by_file(
    tmp_path, capsys, where
):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("alpha = x\n")
    args = ["--alpha", "x"] if where == "flag" else ["--config", str(cfg)]
    assert main(["train", *args, "--out", str(tmp_path / "runs")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config key alpha='x': ")
    assert not (tmp_path / "runs").exists()


def test_the_stratified_and_ledger_flags_set_what_they_set_before_every_key_had_one():
    assert spec_of().config.stratified is True and spec_of().ledger_csv is False
    assert spec_of("--no-stratified").config.stratified is False
    assert spec_of("--stratified").config.stratified is True
    assert spec_of("--ledger-csv").ledger_csv is True
