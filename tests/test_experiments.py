"""Experiment assembly: task presets, artifact emission, sweeps."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tftb.budget import VirtualClock
from tftb.errors import ConfigError
from tftb.experiments import ExperimentSpec, build_task, run_experiment, run_sweep
from tftb.manifest import FIELD_TYPES, OPTIONAL_FIELD_TYPES, RunManifest
from tftb.nn import load_params
from tftb.trainer import TrainConfig


def small_spec(mode="tftb", **overrides):
    cfg = TrainConfig(mode=mode, alpha=0.3, max_epochs=3, seed=1, early_stop_patience=20)
    defaults = dict(
        task="classify-synth",
        config=cfg,
        n_per_class=20,
        num_classes=2,
        n_test_per_class=20,
        hidden=(8,),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def test_build_task_classify_synth_shapes():
    train, val, test, arch, loss_kind = build_task(small_spec())
    assert loss_kind == "cross_entropy"
    assert arch.kind == "mlp"
    assert arch.input_dim == train.feature_shape[0]
    assert set(train.ids).isdisjoint(val.ids)
    assert test.split_tag == "test"
    assert test.fingerprint() != train.fingerprint()


def test_build_task_count_synth_shapes():
    spec = small_spec(
        task="count-synth",
        n_images=12,
        image_size=16,
        max_objects=3,
        sigma=2.0,
        n_test_images=6,
        config=TrainConfig(mode="baseline", max_epochs=2, batch_size=4, lr=1e-3,
                           loss_kind="pixelwise_l2", seed=0, early_stop_patience=20),
    )
    train, val, test, arch, loss_kind = build_task(spec)
    assert loss_kind == "pixelwise_l2"
    assert arch.kind == "conv_density"
    assert (arch.image_height, arch.image_width) == (16, 16)
    assert len(test) == 6


def test_build_task_cifar10_wires_loader_and_mlp(cifar_dir):
    spec = small_spec(task="classify-cifar10", data_dir=str(cifar_dir), hidden=(16,))
    train, val, test, arch, loss_kind = build_task(spec)
    assert len(train) + len(val) == 50000
    assert len(test) == 10000
    assert arch.input_dim == 3072
    assert arch.num_classes == 10
    assert "channel_mean" in train.meta


def test_cifar10_task_requires_data_dir():
    with pytest.raises(ConfigError, match="data_dir"):
        small_spec(task="classify-cifar10")


def test_run_experiment_writes_all_artifacts(tmp_path):
    params, manifest, run_dir = run_experiment(
        small_spec(ledger_csv=True), out_dir=tmp_path, clock=VirtualClock(costs={"batch": 0.01})
    )
    assert run_dir == tmp_path / "classify-synth_tftb_alpha0.3_seed1"
    loaded = RunManifest.load(run_dir / "manifest.json")
    assert loaded.to_json() == manifest.to_json()
    assert load_params(run_dir / "checkpoint.bin").allclose(params)
    assert (run_dir / "loss_curve.csv").exists()
    assert (run_dir / "ledger.csv").exists()
    assert manifest.dataset["test_fingerprint"]
    assert manifest.config["experiment"]["task"] == "classify-synth"
    assert "accuracy" in manifest.final_metrics


def test_manifest_keys_are_the_typed_fields_of_run_manifest(tmp_path):
    """``to_json`` writes every dataclass field, and ``from_json`` type-checks
    each of them, so a field added without a type entry cannot be dropped."""
    _, _, run_dir = run_experiment(
        small_spec(), out_dir=tmp_path, clock=VirtualClock(costs={"batch": 0.01})
    )
    keys = set(json.loads((run_dir / "manifest.json").read_text()))
    assert keys == {*FIELD_TYPES, *OPTIONAL_FIELD_TYPES, "schema_version"}
    assert keys == {f.name for f in dataclasses.fields(RunManifest)}


def test_run_experiment_counting_reports_both_error_conventions():
    spec = small_spec(
        task="count-synth",
        n_images=12,
        image_size=16,
        max_objects=3,
        sigma=2.0,
        n_test_images=6,
        config=TrainConfig(mode="baseline", max_epochs=2, batch_size=4, lr=1e-3,
                           seed=0, early_stop_patience=20),
    )
    _, manifest, _ = run_experiment(spec, clock=VirtualClock(costs={"batch": 0.01}))
    metrics = manifest.final_metrics
    assert metrics["rmse"] == pytest.approx(metrics["mse"] ** 0.5)
    assert metrics["mae"] >= 0.0
    # per-class quotas are meaningless for regression: stratification is off
    assert manifest.config["train"]["stratified"] is False


def test_run_sweep_grid_and_summary(tmp_path):
    manifests, summary = run_sweep(
        small_spec(), alphas=[0.0, 0.2], seeds=[1, 2],
        out_dir=tmp_path, clock=VirtualClock(costs={"batch": 0.01}),
    )
    assert len(manifests) == 4
    assert [row["alpha"] for row in summary] == [0.0, 0.2]
    assert all(row["n_runs"] == 2 for row in summary)
    assert (tmp_path / "sweep_summary.csv").exists()
    text = (tmp_path / "sweep_summary.txt").read_text()
    assert "alpha=0.2" in text


@pytest.mark.parametrize(
    "task, name, value, message",
    [
        ("classify-synth", "n_per_class", 0, "n_per_class must be >= 1"),
        ("classify-synth", "n_per_class", 2.5, "n_per_class must be an int"),
        ("classify-synth", "num_classes", 1, "num_classes must be >= 2"),
        ("classify-synth", "easy_fraction", 2.0, r"easy_fraction must be in \[0, 1\]"),
        ("classify-synth", "feature_dim", 1, "feature_dim must be >= 2"),
        ("classify-synth", "n_test_per_class", 0, "n_test_per_class must be >= 1"),
        ("count-synth", "n_images", 0, "n_images must be >= 1"),
        ("count-synth", "image_size", 12, "image_size must be >= 16"),
        ("count-synth", "max_objects", 2.5, "max_objects must be an int"),
        ("count-synth", "sigma", 0.0, "sigma must be positive"),
        ("count-synth", "sigma", math.inf, "sigma must be positive and finite"),
        ("count-synth", "n_test_images", 0, "n_test_images must be >= 1"),
    ],
    ids=["n_per_class-0", "n_per_class-2.5", "num_classes-1", "easy_fraction-2.0",
         "feature_dim-1", "n_test_per_class-0", "n_images-0", "image_size-12",
         "max_objects-2.5", "sigma-0.0", "sigma-inf", "n_test_images-0"],
)
def test_spec_checks_its_task_data_fields_when_built(task, name, value, message):
    with pytest.raises(ConfigError, match=message):
        small_spec(task=task, **{name: value})


def test_spec_data_checks_leave_the_other_task_fields_alone():
    # count-synth sizes mean nothing to a classify-synth spec, and back
    small_spec(task="classify-synth", n_images=0, sigma=0.0)
    small_spec(task="count-synth", n_per_class=0, easy_fraction=2.0)


def test_numpy_integers_in_any_spec_field_reach_the_manifest_as_ints(tmp_path):
    # n_images belongs to the other task: converted, not checked
    spec = ExperimentSpec(n_per_class=20, num_classes=2, n_test_per_class=5,
                          n_images=np.int64(80), hidden=(np.int64(12),),
                          conv_channels=(np.int32(2), np.int64(3)),
                          config=TrainConfig(max_epochs=1))
    _, _, run_dir = run_experiment(spec, out_dir=tmp_path)
    echo = RunManifest.load(run_dir / "manifest.json").config["experiment"]
    assert (echo["n_images"], echo["hidden"], echo["conv_channels"]) == (80, [12], [2, 3])
    assert all(type(v) is int for v in (spec.n_images, *spec.hidden, *spec.conv_channels))
    counting = ExperimentSpec(task="count-synth", n_images=np.int64(12), image_size=16,
                              n_test_images=4, conv_channels=(np.int64(2), np.uint8(2)))
    assert counting.architecture().channels == (2, 2)


def test_run_sweep_checks_every_spec_before_the_first_run(tmp_path):
    with pytest.raises(ConfigError, match="alpha"):
        run_sweep(small_spec(), alphas=[0.3, 1.5], seeds=[1], out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_baseline_sweeps_one_alpha_only(tmp_path):
    with pytest.raises(ConfigError, match="baseline ignores alpha"):
        run_sweep(small_spec(mode="baseline"), alphas=[0.1, 0.3], seeds=[1], out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    manifests, summary = run_sweep(
        small_spec(mode="baseline"), alphas=[0.3], seeds=[1, 2],
        out_dir=tmp_path, clock=VirtualClock(costs={"batch": 0.01}),
    )
    assert len(manifests) == 2
    assert summary[0]["n_runs"] == 2


def test_experiment_spec_cannot_be_assigned():
    with pytest.raises(dataclasses.FrozenInstanceError):
        small_spec().task = "count-synth"


def test_run_sweep_rejects_empty_grids():
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), alphas=[], seeds=[1])
    with pytest.raises(ConfigError):
        run_sweep(small_spec(), alphas=[0.3], seeds=[])


def test_unknown_task_is_rejected():
    with pytest.raises(ConfigError, match="valid tasks"):
        small_spec(task="classify-mnist")
