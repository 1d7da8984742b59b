"""Counts: every count is checked by ``check_count``, where it enters.

A count is an int or a numpy integer, never a bool, and is kept as the
Python int it equals, so whatever records it (a config echo, a generator's
``meta``) serialises as JSON.
"""

import dataclasses

import numpy as np
import pytest

from tftb.data import DotMap, synth_classification, synth_counting, train_val_split
from tftb.errors import ConfigError, check_count
from tftb.experiments import ExperimentSpec, run_experiment
from tftb.importance import AlphaSchedule, ImportanceLedger
from tftb.manifest import RunManifest
from tftb.trainer import TrainConfig, early_stop_check, epoch_equivalent_batches

_SMALL = synth_classification(0, 4, 2, 0.5)

# (the name the error gives, its least value, a build that takes the count)
COUNTS = {
    "TrainConfig.warmup_epochs": ("warmup_epochs", 1, lambda v: TrainConfig(warmup_epochs=v)),
    "TrainConfig.batch_size": ("batch_size", 1, lambda v: TrainConfig(batch_size=v)),
    "TrainConfig.max_epochs": ("max_epochs", 1, lambda v: TrainConfig(max_epochs=v)),
    "TrainConfig.rerank_period": ("rerank_period", 1, lambda v: TrainConfig(rerank_period=v)),
    "TrainConfig.score_window": ("score_window", 1, lambda v: TrainConfig(score_window=v)),
    "TrainConfig.early_stop_patience": (
        "early_stop_patience", 1, lambda v: TrainConfig(early_stop_patience=v)
    ),
    "TrainConfig.refresh_excluded_period": (
        "refresh_excluded_period", 0, lambda v: TrainConfig(refresh_excluded_period=v)
    ),
    "TrainConfig.seed": ("seed", 0, lambda v: TrainConfig(seed=v)),
    "AlphaSchedule.window": ("alpha schedule window", 2, lambda v: AlphaSchedule(window=v)),
    "ImportanceLedger.window": ("score window", 1, lambda v: ImportanceLedger([0, 1], v)),
    "DotMap.width": ("dot map width", 1, lambda v: DotMap(v, 16, ())),
    "DotMap.height": ("dot map height", 1, lambda v: DotMap(16, v, ())),
    "epoch_equivalent_batches.dataset_size": (
        "dataset_size", 1, lambda v: epoch_equivalent_batches(v, 32)
    ),
    "epoch_equivalent_batches.batch_size": (
        "batch_size", 1, lambda v: epoch_equivalent_batches(100, v)
    ),
    "early_stop_check.patience": ("patience", 1, lambda v: early_stop_check([1.0], v)),
    "synth_classification.seed": ("seed", 0, lambda v: synth_classification(v, 2, 2, 0.5)),
    "synth_counting.seed": ("seed", 0, lambda v: synth_counting(v, 1, 16, 1, 2.0)),
    "train_val_split.seed": ("seed", 0, lambda v: train_val_split(_SMALL, 0.25, v)),
}


@pytest.mark.parametrize("name, least, build", COUNTS.values(), ids=COUNTS.keys())
def test_every_count_is_refused_unless_an_int_of_its_least_value(name, least, build):
    for bad in (2.5, True, least - 1):
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            build(bad)
    build(np.int64(least))
    build(np.uint8(least + 1))


def test_check_count_returns_the_python_int_it_was_given():
    for value in (3, np.int64(3), np.int16(3), np.uint8(3)):
        got = check_count("n", value, 1)
        assert got == 3 and type(got) is int
    with pytest.raises(ConfigError, match="^n must be an int"):
        check_count("n", np.bool_(True), 0)
    with pytest.raises(ConfigError, match="^n must be >= 1, got 0$"):
        check_count("n", np.int64(0), 1)


def test_numpy_integer_counts_are_stored_as_ints():
    cfg = TrainConfig(batch_size=np.int64(16), max_epochs=np.int32(3), seed=np.int64(2),
                      adaptive_alpha=AlphaSchedule(window=np.int64(4)))
    for value in (cfg.batch_size, cfg.max_epochs, cfg.seed, cfg.adaptive_alpha.window):
        assert type(value) is int
    assert type(dataclasses.replace(cfg, warmup_epochs=np.int8(2)).warmup_epochs) is int
    spec = ExperimentSpec(n_per_class=np.int64(20), num_classes=np.int32(2),
                          feature_dim=np.int64(4), n_test_per_class=np.int64(5))
    assert all(type(v) is int for v in (spec.n_per_class, spec.num_classes, spec.feature_dim,
                                         spec.n_test_per_class))
    spec = ExperimentSpec(task="count-synth", n_images=np.int64(8), image_size=np.int64(16),
                          max_objects=np.int64(2), n_test_images=np.int64(4))
    assert all(type(v) is int for v in (spec.n_images, spec.image_size, spec.max_objects,
                                         spec.n_test_images))
    dots = DotMap(np.int64(4), np.int64(5), ())
    assert type(dots.width) is int and type(dots.height) is int
    meta = synth_classification(np.int64(1), np.int64(3), 2, 0.5).meta
    assert type(meta["seed"]) is int and type(meta["n_per_class"]) is int
    meta = synth_counting(np.int64(1), np.int64(2), np.int64(16), np.int64(2), 2.0).meta
    assert all(type(meta[k]) is int for k in ("seed", "n_images", "image_size", "max_objects"))


def test_a_run_with_numpy_integer_counts_writes_a_manifest_that_reads_back(tmp_path):
    spec = ExperimentSpec(
        n_per_class=np.int64(20), num_classes=2, n_test_per_class=10,
        config=TrainConfig(mode="tftb", batch_size=np.int64(16), max_epochs=2,
                           seed=np.int64(1)),
    )
    _, manifest, run_dir = run_experiment(spec, out_dir=tmp_path)
    loaded = RunManifest.load(run_dir / "manifest.json")
    assert loaded.config["train"]["batch_size"] == 16
    assert loaded.config["experiment"]["n_per_class"] == 20
    assert loaded.dataset["meta"]["n_per_class"] == 20
    assert loaded.seed == 1
