"""Metrics and run comparison."""

import numpy as np
import pytest

from tftb.errors import ManifestError
from tftb.manifest import RunManifest
from tftb.metrics import (
    accuracy,
    compare_runs,
    counting_errors,
    evaluate_classifier,
    evaluate_counter,
    predicted_count,
)


def test_accuracy_perfect_and_hand_counted():
    assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert accuracy([0, 1, 2, 3], [0, 1, 0, 0]) == 0.5


def test_accuracy_matches_counting_loop_oracle():
    rng = np.random.default_rng(0)
    preds = rng.integers(0, 10, 10_000)
    targets = rng.integers(0, 10, 10_000)
    hits = 0
    for p, t in zip(preds, targets):
        if p == t:
            hits += 1
    assert accuracy(preds, targets) == hits / 10_000


def test_accuracy_rejects_length_mismatch():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])


def test_counting_errors_fixtures():
    assert counting_errors([3, 5], [3, 5]) == (0.0, 0.0)
    mae, mse = counting_errors([3, 5], [4, 5])
    assert mae == 0.5
    assert mse == 0.5


def test_counting_errors_match_two_pass_oracle():
    rng = np.random.default_rng(1)
    e = rng.uniform(0, 50, 500)
    g = rng.uniform(0, 50, 500)
    mae, mse = counting_errors(e, g)
    abs_sum = 0.0
    sq_sum = 0.0
    for a, b in zip(e, g):
        abs_sum += abs(a - b)
        sq_sum += (a - b) ** 2
    assert abs(mae - abs_sum / 500) < 1e-12
    assert abs(mse - sq_sum / 500) < 1e-12


def test_metrics_are_permutation_invariant():
    rng = np.random.default_rng(2)
    e = rng.uniform(0, 9, 64)
    g = rng.uniform(0, 9, 64)
    perm = rng.permutation(64)
    base = counting_errors(e, g)
    permuted = counting_errors(e[perm], g[perm])
    # fp summation order may move the last ulp; the values are the same numbers
    assert permuted == pytest.approx(base, rel=1e-12)
    p = rng.integers(0, 4, 64)
    t = rng.integers(0, 4, 64)
    assert accuracy(p, t) == accuracy(p[perm], t[perm])


def test_constant_offset_mse_is_offset_squared():
    g = np.arange(20, dtype=float)
    for c in (0.5, 2.0, 11.0):
        mae, mse = counting_errors(g + c, g)
        assert mae == pytest.approx(c)
        assert mse == pytest.approx(c * c)


def test_predicted_count_clips_below_zero():
    maps = np.stack([np.full((4, 4), -0.1), np.full((4, 4), 0.0625)])
    counts = predicted_count(maps)
    assert counts.shape == (2,)
    assert counts[0] == 0.0
    assert counts[1] == pytest.approx(1.0)


def test_predicted_count_sums_each_map_as_np_sum_does():
    maps = np.random.default_rng(0).normal(0.0, 1.0, (64, 24, 24))
    want = np.array([max(float(np.sum(m)), 0.0) for m in maps])
    assert predicted_count(maps).tobytes() == want.tobytes()


def test_evaluators_report_expected_keys():
    from tftb.data import synth_classification, synth_counting
    from tftb.nn import ConvDensityArch, MlpArch, init_params

    cls = synth_classification(0, 20, 2, 0.5)
    params = init_params(MlpArch(4, (6,), 2), np.random.default_rng(0))
    out = evaluate_classifier(params, cls)
    assert set(out) == {"accuracy", "mean_loss", "n_samples"}
    assert 0.0 <= out["accuracy"] <= 1.0

    cnt = synth_counting(0, 6, 16, 3, 2.0)
    cparams = init_params(ConvDensityArch(16, 16, (2, 2)), np.random.default_rng(0))
    cout = evaluate_counter(cparams, cnt)
    assert set(cout) == {"mae", "mse", "rmse", "mean_loss", "n_samples"}
    assert cout["rmse"] == pytest.approx(cout["mse"] ** 0.5)


def test_evaluators_match_two_pass_forward_then_losses():
    # the evaluators run the model once per batch; a second forward pass for
    # the losses, as per_sample_losses does, must give bit-identical metrics
    from tftb.data import synth_classification, synth_counting
    from tftb.nn import BatchStep, ConvDensityArch, MlpArch, forward, init_params
    from tftb.nn import per_sample_losses

    def two_pass(params, feats, targets, loss_kind, batch_size, read):
        outs, loss_total = [], 0.0
        for lo in range(0, len(feats), batch_size):
            x, y = feats[lo : lo + batch_size], targets[lo : lo + batch_size]
            # a step of its own per pass and per batch
            outs.append(read(forward(params, x, BatchStep(params.arch, len(x), loss_kind))))
            step = BatchStep(params.arch, len(x), loss_kind)
            loss_total += float(per_sample_losses(params, x, y, step).sum())
        return np.concatenate(outs), loss_total / len(feats)

    cls = synth_classification(3, 150, 3, 0.8)  # 450 samples: two batches of 256
    params = init_params(MlpArch(4, (6,), 3), np.random.default_rng(1))
    feats, labels = cls.features, cls.targets
    preds, loss = two_pass(params, feats, labels, "cross_entropy", 256,
                           lambda logits: np.argmax(logits, axis=1))
    out = evaluate_classifier(params, cls)
    assert out["accuracy"] == np.count_nonzero(preds == labels) / len(cls)
    assert out["mean_loss"] == loss

    cnt = synth_counting(4, 70, 16, 3, 2.0)  # 70 images: batches of 64 and 6
    cparams = init_params(ConvDensityArch(16, 16, (3, 2)), np.random.default_rng(2))
    feats, maps = cnt.features, cnt.targets
    counts, loss = two_pass(cparams, feats, maps, "pixelwise_l2", 64,
                            predicted_count)
    cout = evaluate_counter(cparams, cnt)
    mae, mse = counting_errors(counts, maps.reshape(len(cnt), -1).sum(axis=1))
    assert (cout["mae"], cout["mse"], cout["mean_loss"]) == (mae, mse, loss)


# ---------------------------------------------------------------------------
# run comparison


def manifest_with(metrics, fingerprint="fp", epochs=None, mode="baseline"):
    return RunManifest(
        mode=mode,
        seed=0,
        config={"train": {}},
        dataset={"test_fingerprint": fingerprint, "train_fingerprint": fingerprint},
        epochs=epochs or [],
        budget={},
        final_metrics=metrics,
        stop_reason="epoch_cap",
    )


def test_identical_manifests_compare_to_zero_deltas():
    m = manifest_with({"accuracy": 0.8, "mean_loss": 0.5})
    cmp = compare_runs(m, m)
    assert all(d.delta == 0.0 and d.winner == "tie" for d in cmp.metrics)


def test_accuracy_gain_is_flagged_for_the_better_run():
    base = manifest_with({"accuracy": 0.760})
    ours = manifest_with({"accuracy": 0.812}, mode="tftb")
    cmp = compare_runs(base, ours, label_a="baseline", label_b="tftb")
    (delta,) = cmp.metrics
    assert delta.delta == pytest.approx(0.052)
    assert delta.winner == "b"
    assert "tftb" in cmp.to_csv_text().splitlines()[0]


def test_lower_is_better_for_error_metrics():
    base = manifest_with({"mae": 12.0, "mse": 300.0})
    ours = manifest_with({"mae": 10.0, "mse": 320.0})
    cmp = compare_runs(base, ours)
    by_name = {d.name: d for d in cmp.metrics}
    assert by_name["mae"].winner == "b"
    assert by_name["mse"].winner == "a"


def test_unequal_curves_align_on_the_shorter_horizon():
    def epoch(i, loss):
        return {
            "epoch": i, "phase": "full", "mean_train_loss": loss, "val_loss": None,
            "selected_size": 10, "alpha": 0.0, "samples_seen": 10, "batches": 1,
            "wall_seconds": 0.0, "consumed_seconds": 0.0,
        }

    a = manifest_with({"accuracy": 0.5}, epochs=[epoch(i, 1.0 - 0.1 * i) for i in range(1, 6)])
    b = manifest_with({"accuracy": 0.6}, epochs=[epoch(i, 0.9 - 0.1 * i) for i in range(1, 4)])
    cmp = compare_runs(a, b)
    assert cmp.horizon == 3
    assert cmp.extra_epochs_a == 2
    assert cmp.extra_epochs_b == 0
    assert "unaligned remainder" in cmp.to_table_text()


def test_fingerprint_mismatch_is_an_error():
    a = manifest_with({"accuracy": 0.5}, fingerprint="aaa")
    b = manifest_with({"accuracy": 0.6}, fingerprint="bbb")
    with pytest.raises(ManifestError, match="fingerprints differ"):
        compare_runs(a, b)


def test_comparison_table_text_is_aligned():
    base = manifest_with({"accuracy": 0.760, "mean_loss": 0.9})
    ours = manifest_with({"accuracy": 0.812, "mean_loss": 0.7})
    text = compare_runs(base, ours).to_table_text()
    lines = text.splitlines()
    assert lines[0].startswith("metric")
    assert len(lines) >= 4
