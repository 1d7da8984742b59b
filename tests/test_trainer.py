"""Training loop: schedules, parity, budgets, early stopping, manifests."""

import collections
import dataclasses
import json
import math
import time

import numpy as np
import pytest

try:
    import hypothesis
    from hypothesis import strategies as st
except ImportError:  # only the property test needs it, and is skipped without it
    hypothesis = None

import tftb.importance
import tftb.trainer
from tftb.budget import VirtualClock  # noqa: F401 (used in helper and tests)
from tftb.data import (
    Dataset, synth_classification, synth_counting, train_val_split,
)
from tftb.errors import (
    BudgetError, ConfigError, NonFiniteError, SelectionError, ShapeError, TrainingAbort,
)
from tftb.importance import ImportanceLedger, subset_size
from tftb.nn import (
    BatchStep, MlpArch, ConvDensityArch, check_inputs, init_params, per_sample_losses,
)
from tftb.nn.models import ModelParams, mean_of_losses
from tftb.trainer import (
    TrainConfig,
    _epoch_batches,
    early_stop_check,
    epoch_equivalent_batches,
    train_baseline,
    train_tftb,
)


def class_data(seed=0, n_per_class=40, num_classes=3, easy_fraction=0.5):
    full = synth_classification(seed, n_per_class, num_classes, easy_fraction)
    return train_val_split(full, 0.1, seed)


def model_for(train_set, hidden=(12,), seed=0):
    arch = MlpArch(train_set.feature_shape[0], hidden, train_set.num_classes)
    return init_params(arch, np.random.default_rng(seed))


def virtual(batch_cost=0.01, **extra):
    costs = {"batch": batch_cost}
    costs.update(extra)
    return VirtualClock(costs=costs)


# ---------------------------------------------------------------------------
# helpers


def test_epoch_equivalent_batches_examples():
    assert epoch_equivalent_batches(50000, 32) == 1563
    assert epoch_equivalent_batches(10, 32) == 1
    assert epoch_equivalent_batches(64, 32) == 2
    with pytest.raises(ConfigError):
        epoch_equivalent_batches(0, 32)


def trace_batches(monkeypatch, events):
    """Append ``("batch", epoch, lo, rows, x, y, losses)`` to ``events`` for
    every training batch, with copies of what ``loss_and_grad`` received and
    returned.  ``rows`` are cut from the epoch's row order as the epoch loop
    cuts its batches, ``order[lo : lo + batch_size]``, not read from the
    trainer."""
    shuffle, step = tftb.trainer._epoch_batches, tftb.trainer.loss_and_grad
    epoch = {"index": 0}

    def traced_shuffle(pool, n_total, rng):
        epoch.update(index=epoch["index"] + 1, order=shuffle(pool, n_total, rng), lo=0)
        return epoch["order"]

    def traced_step(params, batch, targets, batch_step):
        lo = epoch["lo"]
        epoch["lo"] += batch_step.batch_size
        rows = epoch["order"][lo : lo + batch_step.batch_size]
        seen = batch.copy(), targets.copy()
        result = step(params, batch, targets, batch_step)
        events.append(("batch", epoch["index"], lo, rows, *seen,
                       result.per_sample_losses.copy()))
        return result

    monkeypatch.setattr(tftb.trainer, "_epoch_batches", traced_shuffle)
    monkeypatch.setattr(tftb.trainer, "loss_and_grad", traced_step)


def epoch_slices(order, batch_size):
    """The batches the epoch loop cuts from one epoch's row order."""
    n_b = epoch_equivalent_batches(len(order), batch_size)
    return [order[lo : lo + batch_size] for lo in range(0, n_b * batch_size, batch_size)]


def test_epoch_batch_sizes_cover_the_dataset_exactly():
    rng = np.random.default_rng(0)
    sizes = [len(b) for b in epoch_slices(_epoch_batches(np.arange(100), 100, rng), 32)]
    assert sizes == [32, 32, 32, 4]
    assert [len(b) for b in epoch_slices(_epoch_batches(np.arange(64), 64, rng), 32)] == [32, 32]


def test_epoch_batch_ids_is_a_permutation_when_pool_is_full():
    rng = np.random.default_rng(0)
    pool = np.arange(100)
    flat = _epoch_batches(pool, 100, rng)
    assert sorted(flat.tolist()) == pool.tolist()


def test_epoch_batch_ids_cycles_smaller_pools_with_full_exposure():
    rng = np.random.default_rng(0)
    pool = np.arange(70)  # X_s of 70 in a 100-sample run
    flat = _epoch_batches(pool, 100, rng)
    assert len(flat) == 100
    assert set(flat.tolist()) == set(pool.tolist())  # 100 draws from 70 rows cover each


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
def test_each_pass_of_an_epoch_is_a_permutation_of_the_pool():
    """The trainer writes an epoch's losses one pass of the pool per ledger
    call, which takes each row at most once: every ``len(pool)`` draws of
    the epoch are a permutation of the pool, and the last, partial pass
    draws each of its rows from the pool once."""

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        rows=st.sets(st.integers(0, 500), min_size=1, max_size=60),
        n_total=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    # a pool smaller than a batch of 32, so one batch spans several passes
    @hypothesis.example(rows={4, 9, 17}, n_total=100, seed=0)
    # n_total not a multiple of the pool size
    @hypothesis.example(rows=set(range(0, 140, 2)), n_total=100, seed=1)
    def check(rows, n_total, seed):
        pool = np.array(sorted(rows), dtype=np.int64)
        order = _epoch_batches(pool, n_total, np.random.default_rng(seed))
        assert order.shape == (n_total,) and order.dtype == pool.dtype
        for lo in range(0, n_total, pool.size):
            passed = np.sort(order[lo : lo + pool.size])
            assert (passed[1:] > passed[:-1]).all()
            assert np.isin(passed, pool).all()
            if passed.size == pool.size:
                assert np.array_equal(passed, pool)

    check()


def test_early_stop_triggers_exactly_at_patience():
    losses = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95]
    assert not early_stop_check(losses[:-1], patience=5)
    assert early_stop_check(losses, patience=5)


def test_early_stop_never_fires_on_strict_decrease():
    losses = [1.0 - 0.01 * i for i in range(50)]
    assert not early_stop_check(losses, patience=5)


def test_early_stop_counter_resets_on_boundary_improvement():
    losses = [1.0, 1.01, 1.02, 1.03, 1.04, 0.99]  # improvement on the 5th stale epoch
    assert not early_stop_check(losses, patience=5)


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ConfigError):
        TrainConfig(mode="magic")
    with pytest.raises(ConfigError):
        TrainConfig(alpha=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=None, budget_seconds=None)
    with pytest.raises(ConfigError):
        TrainConfig(max_epochs=2, warmup_epochs=3)
    with pytest.raises(ConfigError):
        TrainConfig(loss_kind="huber")


def test_train_config_is_checked_again_when_replaced_and_cannot_be_assigned():
    with pytest.raises(ConfigError, match="alpha"):
        dataclasses.replace(TrainConfig(), alpha=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        TrainConfig().alpha = 1.0


def test_mode_mismatch_is_rejected():
    train, val = class_data()
    params = model_for(train)
    with pytest.raises(ConfigError):
        train_tftb(params, train, val, TrainConfig(mode="baseline"))
    with pytest.raises(ConfigError):
        train_baseline(params, train, val, TrainConfig(mode="tftb"))


# ---------------------------------------------------------------------------
# the loop


def test_alpha_zero_tftb_equals_baseline_parameters():
    train, val = class_data(seed=5)
    cfg_t = TrainConfig(mode="tftb", alpha=0.0, max_epochs=6, warmup_epochs=1, seed=3,
                        early_stop_patience=50)
    cfg_b = dataclasses.replace(cfg_t, mode="baseline")
    params_t = model_for(train, seed=3)
    params_b = model_for(train, seed=3)
    params_t, man_t = train_tftb(params_t, train, val, cfg_t, clock=virtual())
    params_b, man_b = train_baseline(params_b, train, val, cfg_b, clock=virtual())
    assert params_t.allclose(params_b)  # bit-identical under shared shuffling
    for rt, rb in zip(man_t.epochs, man_b.epochs):
        assert rt["mean_train_loss"] == rb["mean_train_loss"]
        assert rt["samples_seen"] == rb["samples_seen"]


def test_virtual_clock_budget_fits_exactly_three_selective_epochs():
    full = synth_classification(1, n_per_class=24, num_classes=2, easy_fraction=0.5)
    train, val = train_val_split(full, 0.125, 1)  # 42 train / 6 val
    params = model_for(train)
    n_b = epoch_equivalent_batches(len(train), 32)
    batch_cost = 0.1
    budget = batch_cost * n_b * 4  # warm-up plus exactly three more epochs
    cfg = TrainConfig(mode="tftb", alpha=0.25, warmup_epochs=1, max_epochs=None,
                      budget_seconds=budget, seed=0, early_stop_patience=50)
    _, manifest = train_tftb(params, train, val, cfg, clock=virtual(batch_cost))
    selective = [r for r in manifest.epochs if r["phase"] == "selective"]
    assert len(selective) == 3
    assert manifest.stop_reason == "budget_exhausted"
    assert manifest.budget["consumed_total"] <= budget + batch_cost + 1e-9


def test_budget_smaller_than_warmup_errors_before_training():
    train, val = class_data(seed=2)
    params = model_for(train)
    cfg = TrainConfig(mode="tftb", budget_seconds=0.05, warmup_epochs=1,
                      max_epochs=None, seed=0)
    with pytest.raises(BudgetError, match="warm-up"):
        train_tftb(params, train, val, cfg, clock=virtual(batch_cost=0.1))


def test_same_seed_same_virtual_clock_yields_byte_identical_manifests():
    def run(mode):
        train, val = class_data(seed=7)
        params = model_for(train, seed=7)
        cfg = TrainConfig(mode=mode, alpha=0.3, max_epochs=5, seed=7,
                          early_stop_patience=50)
        train_fn = train_tftb if mode == "tftb" else train_baseline
        _, manifest = train_fn(params, train, val, cfg, clock=virtual())
        return manifest

    # identical seed implies identical shuffles, hence identical runs, in both modes
    assert run("tftb").to_json() == run("tftb").to_json()
    assert run("baseline").to_json() == run("baseline").to_json()
    assert run("tftb").created_at is None  # virtual clock stamps no wall time


def test_exposure_parity_between_modes():
    train, val = class_data(seed=11)
    cfg_t = TrainConfig(mode="tftb", alpha=0.4, max_epochs=6, seed=2, early_stop_patience=50)
    cfg_b = dataclasses.replace(cfg_t, mode="baseline")
    _, man_t = train_tftb(model_for(train, seed=2), train, val, cfg_t, clock=virtual())
    _, man_b = train_baseline(model_for(train, seed=2), train, val, cfg_b, clock=virtual())
    seen_t = [r["samples_seen"] for r in man_t.epochs]
    seen_b = [r["samples_seen"] for r in man_b.epochs]
    assert seen_t == seen_b
    assert all(s == len(train) for s in seen_t)


def test_selected_size_tracks_alpha():
    train, val = class_data(seed=4, n_per_class=50)
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=4, seed=1, early_stop_patience=50)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    from tftb.importance import subset_size

    for report in manifest.epochs:
        if report["phase"] == "selective":
            assert report["selected_size"] == subset_size(len(train), 0.3)
            assert report["alpha"] == 0.3


def test_early_stopping_fires_and_is_recorded():
    # a learning rate of zero keeps the validation loss flat: patience must fire
    train, val = class_data(seed=6)
    cfg = TrainConfig(mode="baseline", lr=1e-12, max_epochs=50, early_stop_patience=5,
                      seed=0)
    _, manifest = train_baseline(model_for(train), train, val, cfg, clock=virtual())
    assert manifest.stop_reason == "early_stop"
    assert len(manifest.epochs) == 6  # first epoch plus five stale ones


def test_epoch_cap_is_recorded_when_it_binds():
    train, val = class_data(seed=8)
    cfg = TrainConfig(mode="baseline", max_epochs=3, seed=0, early_stop_patience=50)
    _, manifest = train_baseline(model_for(train), train, val, cfg, clock=virtual())
    assert manifest.stop_reason == "epoch_cap"
    assert len(manifest.epochs) == 3


@pytest.mark.parametrize("mode", ["tftb", "baseline"])
def test_a_run_without_validation_data_runs_to_the_epoch_cap(mode):
    train, _ = class_data(seed=9)
    no_val = Dataset(np.empty(0, np.int64), np.empty((0, train.feature_shape[0])),
                     np.empty(0, np.int64), train.num_classes, "val")
    # patience 1 at a flat loss would stop after two epochs if anything were validated
    cfg = TrainConfig(mode=mode, lr=1e-12, max_epochs=4, early_stop_patience=1, seed=0)
    run = train_tftb if mode == "tftb" else train_baseline
    _, manifest = run(model_for(train), train, no_val, cfg, clock=virtual())
    assert manifest.stop_reason == "epoch_cap"
    assert [r["val_loss"] for r in manifest.epochs] == [None] * 4
    assert manifest.final_metrics["final_val_loss"] is None
    assert manifest.final_metrics["best_val_loss"] is None
    assert manifest.dataset["val_fingerprint"] is None
    assert manifest.dataset["n_val"] == 0
    assert all(split == "train" for _, split, _ in manifest.loss_curve_rows())
    if mode == "tftb":
        selective = [r["selected_size"] for r in manifest.epochs if r["phase"] == "selective"]
        assert selective == [subset_size(len(train), cfg.alpha)] * 3


def test_baseline_sanity_loss_decreases_over_twenty_epochs():
    train, val = class_data(seed=12, n_per_class=60)
    cfg = TrainConfig(mode="baseline", max_epochs=20, lr=0.01, seed=0,
                      early_stop_patience=50)
    _, manifest = train_baseline(model_for(train), train, val, cfg, clock=virtual())
    losses = [r["mean_train_loss"] for r in manifest.epochs]
    assert losses[-1] < losses[0]


def test_counting_task_trains_with_pixelwise_l2():
    full = synth_counting(seed=3, n_images=24, image_size=16, max_objects=4, sigma=2.0)
    train, val = train_val_split(full, 0.125, 3)
    arch = ConvDensityArch(16, 16, (4, 4))
    params = init_params(arch, np.random.default_rng(0))
    cfg = TrainConfig(mode="tftb", alpha=0.25, loss_kind="pixelwise_l2", stratified=False,
                      max_epochs=3, batch_size=8, lr=1e-3, seed=0, early_stop_patience=50)
    _, manifest = train_tftb(params, train, val, cfg, clock=virtual())
    assert manifest.stop_reason == "epoch_cap"
    assert all(r["mean_train_loss"] >= 0 for r in manifest.epochs)


def test_non_finite_loss_aborts_with_diagnostic_manifest():
    full = synth_counting(seed=5, n_images=16, image_size=16, max_objects=4, sigma=2.0)
    train, val = train_val_split(full, 0.125, 5)
    arch = ConvDensityArch(16, 16, (4, 4))
    params = init_params(arch, np.random.default_rng(0))
    cfg = TrainConfig(mode="baseline", loss_kind="pixelwise_l2", stratified=False,
                      max_epochs=5, batch_size=8, lr=1e80, seed=0, early_stop_patience=50)
    with pytest.raises(TrainingAbort) as err:
        train_baseline(params, train, val, cfg, clock=virtual())
    manifest = err.value.manifest
    assert manifest is not None
    assert manifest.stop_reason == "non_finite_abort"
    assert manifest.error["sample_id"] in set(train.ids)


def test_a_second_moment_overflow_aborts_with_diagnostic_manifest():
    """Adam's refusal ends the run as any non-finite value does, not as a
    warning and not with the two weights frozen for the rest of the run."""
    train = Dataset(np.arange(4), np.full((4, 1), 1e307), np.ones(4, np.int64), 2, "train")
    no_val = Dataset(np.empty(0, np.int64), np.empty((0, 1)), np.empty(0, np.int64), 2, "val")
    params = ModelParams.zeros(MlpArch(1, (), 2))
    params.weights[0][:] = [[5.0, -5.0]]
    cfg = TrainConfig(mode="baseline", batch_size=4, max_epochs=2, lr=1e-3, seed=0)
    with pytest.raises(TrainingAbort, match="second moment overflows") as err:
        train_baseline(params, train, no_val, cfg, clock=virtual())
    manifest = err.value.manifest
    assert manifest.stop_reason == "non_finite_abort"
    assert "second moment" in manifest.error["message"]
    assert params.weights[0].tolist() == [[5.0, -5.0]]


def test_an_update_overflow_aborts_with_diagnostic_manifest():
    """At ``lr = 1e308`` the first update, ``m_hat * lr``, overflows: the run
    ends as ``non_finite_abort`` with a manifest, not with ``-inf`` weights
    that surface as a later non-finite loss, and the weights are those it
    started from."""
    train = Dataset(np.arange(4), np.full((4, 1), 10.0), np.ones(4, np.int64), 2, "train")
    no_val = Dataset(np.empty(0, np.int64), np.empty((0, 1)), np.empty(0, np.int64), 2, "val")
    params = ModelParams.zeros(MlpArch(1, (), 2))
    cfg = TrainConfig(mode="baseline", batch_size=4, max_epochs=2, lr=1e308, seed=0)
    with pytest.raises(TrainingAbort, match="update overflows at step 1") as err:
        train_baseline(params, train, no_val, cfg, clock=virtual())
    manifest = err.value.manifest
    assert manifest.stop_reason == "non_finite_abort"
    assert manifest.error == {
        "message": "adam: the update overflows at step 1 at learning rate 1e+308",
        "sample_id": None,
    }
    assert not params.flat.any()


def test_a_backward_overflow_aborts_with_diagnostic_manifest():
    """A finite loss whose gradient overflows ends the run, which names no
    sample: the gradient is the batch's, not one row's.  The model is
    ``test_a_backward_pass_that_overflows_is_refused_with_no_row``'s."""
    train = Dataset(np.arange(4), np.zeros((4, 1)), np.ones(4, np.int64), 2, "train")
    no_val = Dataset(np.empty(0, np.int64), np.empty((0, 1)), np.empty(0, np.int64), 2, "val")
    params = ModelParams.zeros(MlpArch(1, (1, 1), 2))
    params.biases[0][:] = 1e-300
    params.weights[1][:] = 1e300
    params.weights[2][:] = [[1e10, 0.0]]
    before = params.flat.tobytes()
    cfg = TrainConfig(mode="baseline", batch_size=4, max_epochs=2, seed=0)
    with pytest.raises(TrainingAbort, match="backward pass overflows") as err:
        train_baseline(params, train, no_val, cfg, clock=virtual())
    assert err.value.manifest.stop_reason == "non_finite_abort"
    assert err.value.manifest.error["sample_id"] is None
    assert params.flat.tobytes() == before


def huge_row_run():
    """The run of ``test_a_non_finite_loss_names_the_id_of_its_row``: one
    feature row of 1e308 in the first batch, whose loss is not finite."""
    train, val = class_data(seed=5)
    cfg = TrainConfig(mode="baseline", batch_size=16, max_epochs=2, seed=3)
    row = int(_epoch_batches(np.arange(len(train)), len(train),
                             np.random.default_rng(cfg.seed))[5])
    feats = train.features.copy()
    feats[row] = 1e308
    huge = Dataset(train.ids, feats, train.targets, train.num_classes, train.split_tag,
                   dict(train.meta))
    return train_baseline(model_for(train), huge, val, cfg, clock=virtual())


@pytest.mark.parametrize(
    "caller_state", [{}, {"all": "ignore"}, {"all": "raise"}],
    ids=["default", "all-ignore", "all-raise"],
)
def test_the_trainer_leaves_the_callers_error_state_as_it_found_it(caller_state):
    """A run holds its own error state, and every way out of it restores the
    caller's: a normal ``train_tftb`` run, a ``non_finite_abort`` and a
    warm-up that does not fit the budget.  No ``FloatingPointError`` leaves
    a run; each ends as the trainer's own result or error, also where the
    caller raises on underflow, which a run ignores."""
    train, val = class_data(seed=2)
    with np.errstate(**caller_state):
        before = np.geterr()
        cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=3, seed=0)
        _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
        assert manifest.stop_reason == "epoch_cap"
        assert np.geterr() == before
        with pytest.raises(TrainingAbort, match="non-finite cross_entropy loss for sample id"):
            huge_row_run()
        assert np.geterr() == before
        cfg = TrainConfig(mode="tftb", budget_seconds=0.05, warmup_epochs=1,
                          max_epochs=None, seed=0)
        with pytest.raises(BudgetError, match="warm-up"):
            train_tftb(model_for(train), train, val, cfg, clock=virtual(batch_cost=0.1))
        assert np.geterr() == before


def test_a_run_sets_the_error_state_a_number_of_times_that_does_not_grow_with_its_batches(
    monkeypatch,
):
    """The run enters its error state once, and no training batch switches
    it: two runs of the same epochs over 64 and 640 rows enter
    ``np.errstate`` equally often (only once-per-epoch sites, such as the
    epoch's loss mean, keep their own blocks)."""
    entered = []

    class CountingErrstate(np.errstate):
        def __enter__(self):
            entered.append(1)
            return super().__enter__()

    monkeypatch.setattr(np, "errstate", CountingErrstate)
    no_val = Dataset(np.empty(0, np.int64), np.empty((0, 4)), np.empty(0, np.int64), 3, "val")
    counts = []
    for n in (64, 640):
        rng = np.random.default_rng(n)
        train = Dataset(np.arange(n), rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3,
                        "train")
        cfg = TrainConfig(mode="baseline", batch_size=8, max_epochs=3, seed=0)
        entered.clear()
        _, manifest = train_baseline(model_for(train), train, no_val, cfg, clock=virtual())
        assert sum(e["batches"] for e in manifest.epochs) == 3 * n // 8
        counts.append(len(entered))
    assert counts[0] == counts[1]


def test_refresh_with_non_finite_params_raises_and_leaves_the_ledger_unchanged():
    """The ledger takes losses as given; the forward pass is what rejects
    non-finite ones, before the refresh writes a row."""
    train, _ = class_data(seed=4)
    rows = np.arange(len(train))
    ledger = ImportanceLedger(train.ids, window=3)
    ledger.record_losses(rows, np.linspace(0.0, 1.0, rows.size), epoch=1)
    before = [ledger.history(r) for r in rows], ledger.last_observed_epoch.tolist()
    params = model_for(train)
    params.flat[:] = np.nan
    step = BatchStep(params.arch, 32, "cross_entropy")
    with pytest.raises(NonFiniteError):
        tftb.trainer._refresh_excluded(params, train.features, train.targets, rows,
                                       step, 32, ledger, epoch=2)
    assert ([ledger.history(r) for r in rows], ledger.last_observed_epoch.tolist()) == before


def test_float_class_labels_are_refused_before_the_first_batch(monkeypatch):
    """A dataset with float labels is unstratified regression data to the
    dataset; a cross-entropy run refuses it rather than cast the labels,
    which would train 2.9 as class 2 with stratification off."""
    train, val = class_data(seed=2)
    floats = Dataset(train.ids, train.features, train.targets + 0.5, train.num_classes,
                     train.split_tag, dict(train.meta))
    assert floats.targets.dtype == np.float64
    batches = []
    monkeypatch.setattr(tftb.trainer, "loss_and_grad", lambda *args, **kw: batches.append(1))
    with pytest.raises(ShapeError, match="integer class indices, got float64"):
        train_baseline(model_for(train), floats, val, TrainConfig(max_epochs=2), clock=virtual())
    assert batches == []


def test_shuffled_id_order_trains_like_ascending_order():
    train, val = class_data(seed=3)
    perm = np.random.default_rng(1).permutation(len(train))
    shuffled = Dataset(train.ids[perm], train.features[perm], train.targets[perm],
                       train.num_classes, train.split_tag, dict(train.meta))
    assert np.array_equal(shuffled.ids, train.ids)
    assert np.array_equal(shuffled.features, train.features)
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=5, seed=2, early_stop_patience=50,
                      refresh_excluded_period=1)

    def run(train_set):
        rows = []
        _, manifest = train_tftb(model_for(train_set), train_set, val, cfg, clock=virtual(),
                                 ledger_writer=rows.extend)
        return manifest.to_json(), rows

    assert run(shuffled) == run(train)


def test_empty_active_subset_is_an_error_not_a_hang():
    rng = np.random.default_rng(0)
    train = Dataset([0], rng.standard_normal((1, 4)), [1], 2, "train")
    val = Dataset([1], rng.standard_normal((1, 4)), [0], 2, "val")
    # one sample at alpha 0.6 rounds the unstratified subset down to nothing
    cfg = TrainConfig(mode="tftb", alpha=0.6, stratified=False, max_epochs=3,
                      early_stop_patience=50)
    params = init_params(MlpArch(4, (3,), 2), np.random.default_rng(0))
    with pytest.raises(SelectionError, match="empty"):
        train_tftb(params, train, val, cfg, clock=virtual())


def test_warmup_covers_every_sample_id_m_times():
    rng = np.random.default_rng(0)
    pool = np.arange(37)
    counts = np.zeros(37, dtype=np.int64)
    for _ in range(3):  # m = 3 warm-up epochs
        for batch in epoch_slices(_epoch_batches(pool, 37, rng), 8):
            np.add.at(counts, batch, 1)
    assert (counts == 3).all()


def test_manifest_serialization_round_trip(tmp_path):
    from tftb.manifest import RunManifest

    train, val = class_data(seed=13)
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=3, seed=0, early_stop_patience=50)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    path = tmp_path / "manifest.json"
    manifest.save(path)
    loaded = RunManifest.load(path)
    assert loaded.to_json() == manifest.to_json()

    manifest.write_loss_curve_csv(tmp_path / "curve.csv")
    rows = (tmp_path / "curve.csv").read_text().strip().splitlines()
    assert rows[0] == "epoch,split,loss"
    assert len(rows) == 1 + 2 * len(manifest.epochs)  # train and val per epoch


def test_manifest_rejects_unknown_schema_version():
    from tftb.errors import ManifestError
    from tftb.manifest import RunManifest

    with pytest.raises(ManifestError, match="schema version"):
        RunManifest.from_json(json.dumps({"schema_version": 99}))


def test_adaptive_alpha_reduces_alpha_when_loss_stalls():
    from tftb.importance import AlphaSchedule

    train, val = class_data(seed=10)
    # lr ~ 0 keeps the loss flat, so every adaptation step shrinks alpha
    schedule = AlphaSchedule(enabled=True, window=2, eps_slow=0.01, eps_fast=0.5,
                             delta_alpha=0.1, alpha_min=0.1, alpha_max=0.8)
    cfg = TrainConfig(mode="tftb", alpha=0.4, lr=1e-12, max_epochs=6, seed=0,
                      early_stop_patience=50, adaptive_alpha=schedule)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    alphas = [r["alpha"] for r in manifest.epochs if r["phase"] == "selective"]
    assert alphas[0] == 0.4
    assert alphas[-1] < 0.4
    assert min(alphas) >= 0.1


def test_each_selective_epoch_reports_the_alpha_its_subset_was_selected_at():
    """With a rerank every second epoch, alpha adapts in epochs that keep
    their subset; each epoch still reports the alpha its subset was selected
    at, so its size is the one that alpha keeps."""
    from tftb.importance import AlphaSchedule

    train, val = class_data(seed=10)
    # lr ~ 0 keeps the loss flat, so every adaptation step shrinks alpha
    schedule = AlphaSchedule(enabled=True, window=2, eps_slow=0.01, eps_fast=0.5,
                             delta_alpha=0.1, alpha_min=0.1, alpha_max=0.8)
    cfg = TrainConfig(mode="tftb", alpha=0.6, lr=1e-12, max_epochs=8, seed=0, rerank_period=2,
                      early_stop_patience=50, adaptive_alpha=schedule)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    selective = [r for r in manifest.epochs if r["phase"] == "selective"]
    assert len({r["alpha"] for r in selective}) > 2
    for report in selective:
        assert report["selected_size"] == subset_size(len(train), report["alpha"])


def test_refresh_excluded_unstales_scores_and_is_charged():
    train, val = class_data(seed=3, n_per_class=60)
    base_cfg = TrainConfig(mode="tftb", alpha=0.4, max_epochs=5, seed=0,
                           early_stop_patience=50, budget_seconds=1000.0)
    refresh_cfg = dataclasses.replace(base_cfg, refresh_excluded_period=1)
    costs = {"batch": 0.01, "refresh": 0.5}
    _, man_base = train_tftb(model_for(train), train, val, base_cfg,
                             clock=VirtualClock(costs=costs))
    _, man_refresh = train_tftb(model_for(train), train, val, refresh_cfg,
                                clock=VirtualClock(costs=costs))
    extra = man_refresh.budget["consumed_total"] - man_base.budget["consumed_total"]
    refreshes = sum(1 for r in man_refresh.epochs if r["phase"] == "selective")
    assert extra == pytest.approx(0.5 * refreshes)


def test_validation_and_test_ids_never_enter_training_batches(tmp_path):
    # observable via the ledger dump: scored ids are exactly the training ids
    train, val = class_data(seed=15)
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=3, seed=0, early_stop_patience=50)
    seen = []
    _, _ = train_tftb(model_for(train), train, val, cfg, clock=virtual(),
                      ledger_writer=lambda rows: seen.extend(r[1] for r in rows))
    assert set(seen) == set(train.ids)
    assert set(seen).isdisjoint(val.ids)


def test_budget_trace_accounts_for_all_charged_time():
    train, val = class_data(seed=9)
    batch_cost, val_cost, rank_cost = 0.02, 0.01, 0.005
    clock = VirtualClock(costs={"batch": batch_cost, "validation": val_cost, "rank": rank_cost})
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=4, seed=0,
                      early_stop_patience=50, budget_seconds=1000.0)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=clock)
    n_b = manifest.budget["epoch_equivalent_batches"]
    epochs = len(manifest.epochs)
    # one initial ranking plus a re-rank at the end of every completed
    # selective epoch (the epoch cap only fires at the next loop entry)
    ranks = 1 + sum(1 for r in manifest.epochs if r["phase"] == "selective")
    expected = batch_cost * n_b * epochs + val_cost * epochs + rank_cost * ranks
    assert manifest.budget["consumed_total"] == pytest.approx(expected)

    # ledger dumps, one after every ranking, are charged like any section
    ledger_cost = 0.25
    dumps = []
    clock = VirtualClock(costs={"batch": batch_cost, "validation": val_cost, "rank": rank_cost,
                                "ledger": ledger_cost})
    _, dumped = train_tftb(model_for(train), train, val, cfg, clock=clock,
                           ledger_writer=dumps.append)
    assert len(dumps) == ranks == 1 + sum(1 for r in dumped.epochs if r["phase"] == "selective")
    assert dumped.budget["consumed_total"] == pytest.approx(expected + ledger_cost * ranks)


@pytest.mark.parametrize("slow", ["rank", "ledger"])
def test_scripted_rank_cost_never_overruns_the_budget(slow):
    """A rerank or ledger dump starts only while its longest run so far still
    fits; the first has nothing to estimate from and always runs."""
    train, val = class_data(seed=2, n_per_class=300)  # 810 train samples
    budget = 5.0
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=None, seed=0, early_stop_patience=50,
                      budget_seconds=budget)
    dumps = []
    clock = VirtualClock(costs={"batch": 0.01, slow: 2.0})
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=clock,
                             ledger_writer=dumps.append)
    trace = manifest.budget
    assert trace["consumed_total"] <= budget + trace["tb_max"] + 0.5
    assert manifest.stop_reason == "budget_exhausted"
    # 0.26 s of warm-up epochs; the first 2 s section runs at 0.26 s and the
    # second at 2.52 s, but the third, at 4.78 s, no longer fits: it is
    # skipped, and the last selective epoch trains until the budget is spent
    assert [r["batches"] for r in manifest.epochs] == [26, 26, 26, 22]
    assert len(dumps) == 2
    assert trace["consumed_total"] == pytest.approx(budget)


def test_real_clock_wall_time_matches_charged_time():
    """Consumption is read off the run's clock, so a run's own wall time
    exceeds consumed_total by at most 1% of T + 0.05 s (README)."""
    full = synth_classification(1, n_per_class=12500, num_classes=4, easy_fraction=0.5)
    train, val = train_val_split(full, 0.1, 1)  # 45k training samples
    budget = 4.0
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=None, seed=1, early_stop_patience=1000,
                      budget_seconds=budget)
    params = init_params(MlpArch(4, (16,), 4), np.random.default_rng(1))
    start = time.monotonic()
    _, manifest = train_tftb(params, train, val, cfg)
    wall = time.monotonic() - start
    consumed = manifest.budget["consumed_total"]
    assert manifest.stop_reason in ("budget_exhausted", "planned_iterations_exhausted")
    assert 0.0 <= wall - consumed <= 0.01 * budget + 0.05, (wall, consumed)


def test_trainer_calls_each_layer_function_once_per_unit_of_work(monkeypatch):
    """The benchmark times the trainer's layers by wrapping these names, so
    each must be called once per batch, chunk or ranking it does; a forward
    pass runs once per chunk of the wide step, and the ledger is written once
    per pass of an epoch's pool and once per refresh."""
    calls = collections.Counter()

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for name in ("loss_and_grad", "per_sample_losses", "adam_step", "select_subset",
                 "merge_and_reselect"):
        count(tftb.trainer, name, name)
    count(tftb.importance, "select_subset", "importance.select_subset")
    count(ImportanceLedger, "record_losses", "record_losses")
    count(ImportanceLedger, "effective_scores", "effective_scores")

    train, val = class_data(seed=3, n_per_class=60)
    cfg = TrainConfig(mode="tftb", alpha=0.4, max_epochs=5, seed=0, early_stop_patience=50,
                      refresh_excluded_period=1, rerank_period=2)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    batches = sum(r["batches"] for r in manifest.epochs)
    selective = [r["epoch"] for r in manifest.epochs if r["phase"] == "selective"]
    assert manifest.stop_reason == "epoch_cap" and len(selective) == 4
    # the wide step holds the whole training set here: one chunk per pass
    step = BatchStep(model_for(train).arch, cfg.batch_size, cfg.loss_kind)
    width = tftb.trainer._wide_step(step, len(train)).batch_size
    assert width == 192 > len(train) == 162
    # a refresh after every selective epoch, a rerank after every second
    # one; 65 excluded rows are a last batch of one row, which runs alone
    excluded = len(train) - subset_size(len(train), cfg.alpha)
    assert excluded == 65 and excluded % cfg.batch_size == 1
    refresh_chunks = len(selective) * (math.ceil((excluded - 1) / width) + 1)
    reranks = sum(1 for e in selective if (e - cfg.warmup_epochs) % cfg.rerank_period == 0)
    val_chunks = len(manifest.epochs) * math.ceil(len(val) / width)
    # a warm-up epoch is one pass of the dataset, a selective one cycles the subset
    passes = math.ceil(len(train) / subset_size(len(train), cfg.alpha))
    assert dict(calls) == {
        "loss_and_grad": batches,
        "adam_step": batches,
        "record_losses": cfg.warmup_epochs + len(selective) * passes + len(selective),
        "per_sample_losses": refresh_chunks + val_chunks,
        "select_subset": 1,
        "merge_and_reselect": reranks,
        "importance.select_subset": reranks,
        "effective_scores": 1 + reranks,
    }
    assert (batches, refresh_chunks, val_chunks, reranks, passes) == (30, 8, 5, 2, 2)


@pytest.mark.parametrize("budget", [None, 0.9], ids=["epoch-cap", "mid-epoch-stop"])
def test_ledger_writes_per_pass_equal_appending_each_loss(monkeypatch, budget):
    """An epoch's ledger writes, one per pass of its pool, hold the rows and
    losses of its batches in batch order, each row once per write, and leave
    the windows, counts and last observed epochs as writing each batch's
    losses one at a time would: with the active pool cycled within an epoch,
    so rows repeat in the epoch, and with a budget that ends the run inside
    an epoch, which is then not written, since nothing reads the ledger
    after the run ends."""
    events = []
    record = ImportanceLedger.record_losses

    def traced_record(ledger, rows, losses, epoch):
        events.append(("write", ledger, np.array(rows), np.array(losses), epoch))
        record(ledger, rows, losses, epoch)

    trace_batches(monkeypatch, events)
    monkeypatch.setattr(ImportanceLedger, "record_losses", traced_record)
    train, val = class_data(seed=5)  # 108 training samples, 7 batches of 16
    cfg = TrainConfig(mode="tftb", alpha=0.6, batch_size=16, seed=1, early_stop_patience=50,
                      refresh_excluded_period=1, budget_seconds=budget,
                      max_epochs=5 if budget is None else None)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    n_b = manifest.budget["epoch_equivalent_batches"]
    assert (manifest.epochs[-1]["batches"] < n_b) == (budget is not None)

    ledger = next(event[1] for event in events if event[0] == "write")
    # the reference is written through the unwrapped method, so it logs nothing
    reference = ImportanceLedger(train.ids, cfg.score_window)
    pending, written, epoch_writes, repeats = [], [], 0, False
    for kind, *event in events:
        if kind == "batch":  # the ids of the batch's rows, and its losses
            pending.append((train.ids[event[2]], event[-1]))
            continue
        _, rows, losses, epoch = event
        assert np.unique(rows).size == rows.size
        if pending:  # one of the epoch's writes, a pass of the pool each
            written.append((rows, losses))
            epoch_rows = np.concatenate([ids for ids, _ in pending])
            if sum(len(rows) for rows, _ in written) < epoch_rows.size:
                continue
            assert all(len(rows) == len(written[0][0]) for rows, _ in written[:-1])
            assert np.array_equal(train.ids[np.concatenate([r for r, _ in written])], epoch_rows)
            assert np.array_equal(np.concatenate([v for _, v in written]),
                                  np.concatenate([batch for _, batch in pending]))
            for ids, batch in pending:
                for row, loss in zip(np.searchsorted(train.ids, ids), batch):
                    record(reference, [row], [loss], epoch)
            repeats |= np.unique(epoch_rows).size < epoch_rows.size
            epoch_writes += 1
            pending, written = [], []
        else:  # a refresh
            record(reference, rows, losses, epoch)
    cut_short = budget is not None
    assert len(pending) == (manifest.epochs[-1]["batches"] if cut_short else 0)
    assert repeats and not written
    assert epoch_writes == len(manifest.epochs) - cut_short
    assert np.array_equal(ledger._losses, reference._losses)
    assert np.array_equal(ledger._counts, reference._counts)
    assert np.array_equal(ledger.last_observed_epoch, reference.last_observed_epoch)


def test_every_training_batch_is_the_features_and_targets_of_its_rows(monkeypatch):
    """Each batch is a slice of the chunk the wide step gathered, byte for
    byte the rows of the epoch's order it stands for: the first batch of
    every chunk, a batch across a seam between two passes of the pool, and
    an epoch's short tail batch among them."""
    train, val = class_data(seed=5)  # 108 training rows: 6 batches of 16 and a tail of 12
    cfg = TrainConfig(mode="tftb", alpha=0.6, batch_size=16, max_epochs=3, seed=1,
                      early_stop_patience=50)
    arch = model_for(train).arch
    # room for three batches, so an epoch has chunks at rows 0, 48 and 96
    row_bytes = BatchStep.forward_row_bytes(arch, cfg.loss_kind)
    monkeypatch.setattr(tftb.trainer, "WIDE_STEP_BYTES", 3 * 16 * row_bytes)
    assert tftb.trainer._wide_step(BatchStep(arch, 16, cfg.loss_kind), 108).batch_size == 48
    events = []
    trace_batches(monkeypatch, events)
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=virtual())
    assert [r["batches"] for r in manifest.epochs] == [7, 7, 7]

    seen = collections.Counter()
    for _, epoch, lo, rows, x, y, _ in events:
        assert x.tobytes() == train.features[rows].tobytes()
        assert y.tobytes() == train.targets[rows].astype(np.int64).tobytes()
        pool = manifest.epochs[epoch - 1]["selected_size"]
        seen["chunk start"] += lo > 0 and lo % 48 == 0
        seen["tail"] += len(rows) < 16
        seen["seam"] += lo // pool < (lo + len(rows) - 1) // pool
    assert seen == {"chunk start": 6, "tail": 3, "seam": 4}


@pytest.mark.skipif(hypothesis is None, reason="needs hypothesis")
@pytest.mark.parametrize(
    "arch, loss_kind",
    [(MlpArch(4, (24,), 4), "cross_entropy"), (ConvDensityArch(24, 24, (6, 6)), "pixelwise_l2")],
    ids=["mlp", "conv"],
)
def test_wide_forward_passes_give_the_bits_of_training_sized_ones(arch, loss_kind):
    """Per-sample losses on a step of four batches equal those of the same
    rows a training batch at a time, bit for bit, a last batch of one row
    included, so a forward-only pass scores rows as before at any width; the
    validation mean, which adds the sums of training-sized batches in order,
    keeps its bits too.  The shapes are the benchmark's MLP and conv
    workloads'."""
    rng = np.random.default_rng(0)
    n, b = 200, 32
    if loss_kind == "cross_entropy":
        targets = rng.integers(0, arch.num_classes, n)
    else:
        targets = rng.random((n, *arch.input_shape()))
    feats, targets = check_inputs(arch, rng.standard_normal((n, *arch.input_shape())),
                                  targets, loss_kind)
    params = init_params(arch, rng)
    step, wide = BatchStep(arch, b, loss_kind), BatchStep(arch, 4 * b, loss_kind)

    @hypothesis.settings(max_examples=25 if arch.kind == "mlp" else 10, deadline=None)
    @hypothesis.given(rows=st.lists(st.integers(0, n - 1), min_size=1, max_size=5 * b))
    @hypothesis.example(rows=[5])
    @hypothesis.example(rows=list(range(b + 1)))  # a last batch of one row
    @hypothesis.example(rows=list(range(4 * b + 1)))  # ... which is also a chunk's
    # on this data, one sum over these rows has other bits than the partial sums
    @hypothesis.example(rows=list(range(100)))
    @hypothesis.example(rows=list(range(150)))
    def check(rows):
        rows = np.array(rows)
        want = [per_sample_losses(params, *step.gather(feats, targets, rows[lo : lo + b]),
                                  step).copy()
                for lo in range(0, len(rows), b)]
        got = tftb.trainer._forward_losses(params, feats, targets, rows, wide, b)
        assert got.tobytes() == np.concatenate(want).tobytes()
        x, y = feats[rows], targets[rows]
        got = tftb.trainer._forward_losses(params, x, y, None, wide, b)
        assert got.tobytes() == np.concatenate(want).tobytes()
        total = 0.0
        for losses in want:  # the mean of a pass of training-sized batches
            total += float(losses.sum())
        assert mean_of_losses(got, b) == total / len(rows)

    check()


def test_the_wide_step_holds_whole_batches_within_its_byte_budget():
    """An MLP run gets a wide step of many batches, a conv run, whose sample
    takes 99 kB of buffers, only its training step, and a small dataset a
    wide step no larger than its rows need."""
    budget = tftb.trainer.WIDE_STEP_BYTES
    mlp = BatchStep(MlpArch(4, (24,), 4), 32, "cross_entropy")
    wide = tftb.trainer._wide_step(mlp, 45_000)
    assert wide.batch_size > 32 and wide.batch_size % 32 == 0
    per_batch = 32 * BatchStep.forward_row_bytes(mlp.arch, mlp.loss_kind)
    assert wide.batch_size // 32 == budget // per_batch
    conv = BatchStep(ConvDensityArch(24, 24, (6, 6)), 32, "pixelwise_l2")
    # 8 bytes a float: the image and its target; on the 26x26 grid the
    # image, a1, z (a2) and the head's output; the density map at 24x24; and
    # the loss's two maps and loss
    grid, plane = 26 * 26, 24 * 24
    assert BatchStep.forward_row_bytes(conv.arch, conv.loss_kind) == 8 * (
        2 * plane + (1 + 6 + 6 + 1) * grid + plane + 2 * plane + 1) == 98_760
    assert tftb.trainer._wide_step(conv, 1_200) is conv
    assert tftb.trainer._wide_step(mlp, 100).batch_size == 128
    assert tftb.trainer._wide_step(mlp, 32) is mlp
    assert tftb.trainer._wide_step(mlp, 1) is mlp


@pytest.mark.parametrize("position", [5, 20, 50, 90],
                         ids=["first-chunk-first-batch", "first-chunk-later-batch",
                              "second-chunk-first-batch", "second-chunk-later-batch"])
def test_a_non_finite_loss_names_the_id_of_its_row(monkeypatch, position):
    """One finite feature row so large that its logits overflow aborts the
    run at the first batch that holds it, and the abort names that row's id,
    wherever the batch lies in its chunk."""
    train, val = class_data(seed=5)  # 108 training rows
    cfg = TrainConfig(mode="baseline", batch_size=16, max_epochs=2, seed=3)
    arch = model_for(train).arch
    monkeypatch.setattr(tftb.trainer, "WIDE_STEP_BYTES",
                        3 * 16 * BatchStep.forward_row_bytes(arch, cfg.loss_kind))
    # the first epoch's row order, drawn as the run draws it
    row = int(_epoch_batches(np.arange(len(train)), len(train),
                             np.random.default_rng(cfg.seed))[position])
    feats = train.features.copy()
    feats[row] = 1e308
    huge = Dataset(train.ids, feats, train.targets, train.num_classes, train.split_tag,
                   dict(train.meta))
    with pytest.raises(TrainingAbort) as err:
        train_baseline(model_for(train), huge, val, cfg, clock=virtual())
    sid = int(train.ids[row])
    assert err.value.manifest.error == {
        "message": f"non-finite cross_entropy loss for sample id {sid}", "sample_id": sid,
    }
    assert err.value.manifest.stop_reason == "non_finite_abort"
    assert err.value.manifest.epochs == []


@pytest.mark.parametrize("mode", ["baseline", "tftb"])
def test_finite_losses_whose_sums_overflow_give_finite_epoch_means(mode):
    """Every row's loss is 1e308, so the loss sum of every batch, epoch and
    validation pass overflows: the epoch's train and validation means are
    summed again scaled by the largest loss, with no overflow warning, and
    read 1e308."""
    arch = MlpArch(1, (), 2)
    params = ModelParams.zeros(arch)
    params.weights[0][:] = [[5e307, -5e307]]
    train, val = (Dataset(np.arange(4), np.ones((4, 1)), np.ones(4, int), 2, tag)
                  for tag in ("train", "val"))
    cfg = TrainConfig(mode=mode, batch_size=4, lr=1e-300, max_epochs=2)
    run = train_tftb if mode == "tftb" else train_baseline
    _, manifest = run(params, train, val, cfg, clock=virtual())
    assert [(e["mean_train_loss"], e["val_loss"]) for e in manifest.epochs] == [(1e308, 1e308)] * 2
    assert manifest.final_metrics["final_val_loss"] == 1e308


def test_a_refused_closing_section_ends_the_run_before_any_ledger_write_or_rank(monkeypatch):
    """The epoch's ledger write runs in the section that closes it, so when
    that section no longer fits, the run ends before the ledger is written or
    ranked again."""
    writes = []
    record = ImportanceLedger.record_losses

    def counted(ledger, rows, losses, epoch):
        writes.append(epoch)
        record(ledger, rows, losses, epoch)

    monkeypatch.setattr(ImportanceLedger, "record_losses", counted)
    train, val = class_data(seed=2, n_per_class=300)  # 810 train, 90 val: 26 and 3 batches
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=None, seed=0, early_stop_patience=50,
                      budget_seconds=1.04)
    dumps = []
    # the warm-up ends at 0.76 s; the second epoch's batches end at 1.02 s,
    # and its closing section, estimated at 3 batches, would end at 1.05 s
    clock = VirtualClock(costs={"batch": 0.01, "validation": 0.5})
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=clock,
                             ledger_writer=dumps.append)
    assert manifest.stop_reason == "budget_exhausted"
    assert [r["batches"] for r in manifest.epochs] == [26, 26]
    assert manifest.epochs[-1]["val_loss"] is None
    assert writes == [1]  # the warm-up's
    assert len(dumps) == 1  # the warm-up's ranking only
    assert manifest.budget["consumed_total"] == pytest.approx(1.02)


def test_a_cold_first_batch_does_not_refuse_a_budget_the_warmup_fits():
    train, val = class_data(seed=3, n_per_class=120)  # 324 train samples, 11 batches
    cfg = TrainConfig(mode="tftb", alpha=0.3, max_epochs=None, seed=0, early_stop_patience=50,
                      budget_seconds=0.5)
    # projected from the first batch alone, the warm-up would take 1.1 s
    clock = VirtualClock(costs={"batch": 0.01}, sequences={"batch": [0.1]})
    _, manifest = train_tftb(model_for(train), train, val, cfg, clock=clock)
    assert manifest.budget["warmup_elapsed"] == pytest.approx(0.2)
    assert any(r["phase"] == "selective" for r in manifest.epochs)
    assert manifest.stop_reason in ("budget_exhausted", "planned_iterations_exhausted")
