"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion (a failing criterion shows up as the test's FAILED line).
"""

import math
import time

import numpy as np
import pytest

from tftb.budget import BudgetClock, VirtualClock
from tftb.data import Dataset, DotMap, density_map, synth_classification
from tftb.experiments import ExperimentSpec, run_experiment
from tftb.importance import select_subset, subset_size
from tftb.metrics import accuracy, counting_errors
from tftb.nn import ConvDensityArch, MlpArch
from tftb.trainer import TrainConfig, early_stop_check, epoch_equivalent_batches

from test_models import gradcheck_instance, max_fd_relative_error


def _pass(criterion: int, message: str) -> None:
    print(f"CRITERION {criterion}: PASS  {message}")


# ---------------------------------------------------------------------------
# criterion 8/9 share one batch of compare runs; computed once

BENEFIT_SEEDS = list(range(10))


def _benefit_spec(mode: str, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        task="classify-synth",
        config=TrainConfig(
            mode=mode,
            alpha=0.3,
            warmup_epochs=1,
            max_epochs=15,  # the equal sample-exposure budget
            lr=0.005,
            seed=seed,
            early_stop_patience=500,  # exposure fixed: early stop disabled
        ),
        n_per_class=250,
        num_classes=4,
        easy_fraction=0.6,
        feature_dim=4,
        n_test_per_class=1500,
        hidden=(48, 24),
    )


@pytest.fixture(scope="module")
def benefit_runs():
    t_start = time.time()
    runs = {}
    for seed in BENEFIT_SEEDS:
        pair = {}
        for mode in ("baseline", "tftb"):
            _, manifest, _ = run_experiment(
                _benefit_spec(mode, seed), clock=VirtualClock(costs={"batch": 0.001})
            )
            pair[mode] = manifest
        runs[seed] = pair
    return {"runs": runs, "elapsed": time.time() - t_start}


# ---------------------------------------------------------------------------


def test_criterion_01_budget_compliance_real_clock():
    """Training always finishes within T plus one batch plus teardown slack."""
    t_start = time.time()
    checked = 0
    for budget, max_epochs, n_seeds in ((5.0, None, 10), (15.0, 8, 10), (30.0, 8, 10)):
        for seed in range(n_seeds):
            spec = ExperimentSpec(
                task="classify-synth",
                config=TrainConfig(
                    mode="tftb",
                    alpha=0.3,
                    warmup_epochs=1,
                    max_epochs=max_epochs,
                    budget_seconds=budget,
                    lr=0.005,
                    seed=seed,
                    early_stop_patience=1000,
                ),
                n_per_class=400,
                num_classes=4,
                easy_fraction=0.6,
                feature_dim=8,
                n_test_per_class=50,
                hidden=(64, 64),
            )
            _, manifest, _ = run_experiment(spec)
            trace = manifest.budget
            bound = budget + trace["tb_max"] + 0.5
            assert trace["consumed_total"] <= bound, (
                f"T={budget} seed={seed}: consumed {trace['consumed_total']:.3f} "
                f"exceeds {bound:.3f}"
            )
            checked += 1
    elapsed = time.time() - t_start
    assert checked == 30
    assert elapsed <= 180.0, f"criterion 1 runs took {elapsed:.0f}s (limit 180s)"
    _pass(1, f"30/30 runs within T + longest batch + 0.5s ({elapsed:.0f}s total)")


def test_criterion_01b_budget_compliance_virtual_clock():
    """Deterministic verification on scripted batch-time sequences."""
    # direct clock-level script: stop flips exactly when the next batch
    # no longer fits, and the overshoot never exceeds the longest batch
    script = [0.11, 0.09, 0.30, 0.08, 0.12, 0.25, 0.05]
    clock = BudgetClock(1.0, VirtualClock(sequences={"batch": [0.10] + script}))
    clock.section("batch", lambda: None)
    clock.finish_warmup()
    i = 0
    while clock.plan_iterations() > 0 and i < len(script):
        clock.section("batch", lambda: None, batches=1)
        i += 1
    assert clock.consumed <= 1.0 + max([0.10] + script[:i]) + 1e-12

    # trainer-level script: a budget sized for warm-up plus exactly three
    # selective epoch-equivalents yields exactly three selective epochs
    full = synth_classification(1, n_per_class=24, num_classes=2, easy_fraction=0.5)
    from tftb.data import train_val_split
    from tftb.nn import init_params
    from tftb.trainer import train_tftb

    train, val = train_val_split(full, 0.125, 1)
    n_b = epoch_equivalent_batches(len(train), 32)
    cost = 0.1
    cfg = TrainConfig(mode="tftb", alpha=0.25, warmup_epochs=1, max_epochs=None,
                      budget_seconds=cost * n_b * 4, seed=0, early_stop_patience=100)
    params = init_params(MlpArch(train.feature_shape[0], (8,), 2), np.random.default_rng(0))
    _, manifest = train_tftb(params, train, val, cfg, clock=VirtualClock(costs={"batch": cost}))
    assert sum(1 for r in manifest.epochs if r["phase"] == "selective") == 3
    assert manifest.budget["consumed_total"] <= cfg.budget_seconds + cost + 1e-9
    _pass(1, "virtual-clock scripted sequences stop exactly on schedule")


def test_criterion_02_subset_exactness():
    """|X_s| = round((1 - alpha) |X|), stratified counts within +/-1 of proportional."""
    zero = np.zeros(1)
    layouts = {
        100: [25, 25, 25, 25],
        1001: [400, 351, 250],
        50000: [5000] * 10,
    }
    # hand-computed round((1 - alpha) * n): 700.7 -> 701, 600.6 -> 601, ...
    expected_sizes = {
        (100, 0.0): 100, (100, 0.3): 70, (100, 0.4): 60,
        (1001, 0.0): 1001, (1001, 0.3): 701, (1001, 0.4): 601,
        (50000, 0.0): 50000, (50000, 0.3): 35000, (50000, 0.4): 30000,
    }
    rng = np.random.default_rng(0)
    for n, class_sizes in layouts.items():
        assert sum(class_sizes) == n
        labels = np.repeat(np.arange(len(class_sizes)), class_sizes)  # ids 0..n-1
        features = np.broadcast_to(zero, (n, 1))
        dataset = Dataset(np.arange(n), features, labels, len(class_sizes), "train")
        scores = np.array([float(rng.uniform()) for _ in range(n)])  # ids 0..n-1
        for alpha in (0.0, 0.3, 0.4):
            expected = expected_sizes[(n, alpha)]
            for stratified in (False, True):
                plan = select_subset(scores, dataset, alpha, stratified)
                assert len(plan.selected_ids) == expected
                assert subset_size(n, alpha) == expected
                if stratified:
                    for c, size in enumerate(class_sizes):
                        exact = (1.0 - alpha) * size
                        assert abs(plan.per_class_counts[c] - exact) <= 1.0
    _pass(2, "|X_s| exact for |X| in {100, 1001, 50000}, alpha in {0, 0.3, 0.4}")


def test_criterion_03_ranking_oracle():
    """select_subset equals brute-force full sort + top-k on 1000 random instances."""
    zero = np.zeros(1)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        ids = sorted(int(i) for i in rng.choice(2000, size=n, replace=False))
        dataset = Dataset(ids, np.broadcast_to(zero, (n, 1)), np.zeros(n, dtype=np.int64), 1,
                          "train")
        scores = np.array([float(rng.integers(0, 8)) for _ in ids])  # heavy ties
        alpha = float(rng.uniform(0.0, 0.9))
        plan = select_subset(scores, dataset, alpha, stratified=False)
        k = subset_size(n, alpha)
        score_of = dict(zip(ids, scores.tolist()))
        brute = sorted(ids, key=lambda i: (-score_of[i], i))[:k]
        assert set(plan.selected_ids) == set(brute)
        assert len(plan.selected_ids) == k
    _pass(3, "1000/1000 randomized instances identical to the sort oracle")


def test_criterion_04_gradient_checks():
    """Both model presets, both losses, 20 seeds: FD relative error < 1e-4."""
    presets = [MlpArch(4, (6,), 3), ConvDensityArch(6, 6, (2, 2))]
    worst = 0.0
    for arch in presets:
        for loss_kind in ("cross_entropy", "pixelwise_l2"):
            for seed in range(20):
                params, x, targets = gradcheck_instance(arch, loss_kind, seed)
                err = max_fd_relative_error(params, x, targets, loss_kind)
                assert err < 1e-4, f"{arch.kind}/{loss_kind} seed {seed}: {err:.2e}"
                worst = max(worst, err)
    _pass(4, f"80 model/loss/seed combinations, worst relative error {worst:.2e}")


def test_criterion_05_density_mass_conservation():
    """200 random dot maps: mass exact to 1e-6, pixelwise oracle match to 1e-9."""
    rng = np.random.default_rng(2)
    worst_mass = 0.0
    worst_pix = 0.0
    for _ in range(200):
        w = int(rng.integers(8, 25))
        h = int(rng.integers(8, 25))
        n_points = int(rng.integers(0, 11))
        sigma = float(rng.uniform(0.8, 8.0))
        points = tuple(
            (float(rng.uniform(0, w)), float(rng.uniform(0, h))) for _ in range(n_points)
        )
        got = density_map(DotMap(w, h, points), sigma)
        worst_mass = max(worst_mass, abs(got.sum() - n_points))
        assert abs(got.sum() - n_points) <= 1e-6

        want = np.zeros((h, w))
        for px, py in points:
            kernel = np.zeros((h, w))
            for y in range(h):
                for x in range(w):
                    kernel[y, x] = math.exp(
                        -((x - px) ** 2 + (y - py) ** 2) / (2.0 * sigma * sigma)
                    )
            want += kernel / kernel.sum()
        pix = float(np.max(np.abs(got - want))) if n_points else float(np.max(np.abs(got)))
        worst_pix = max(worst_pix, pix)
        assert pix < 1e-9
    _pass(5, f"200 maps: worst mass error {worst_mass:.2e}, worst pixel error {worst_pix:.2e}")


def test_criterion_06_metric_correctness():
    """Hand fixtures exact; random instances match independent oracles to 1e-12."""
    assert accuracy([0, 1, 2, 3], [0, 1, 0, 0]) == 0.5
    assert accuracy([5, 5], [5, 5]) == 1.0
    assert counting_errors([3, 5], [4, 5]) == (0.5, 0.5)
    assert counting_errors([7.0], [7.0]) == (0.0, 0.0)

    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 400))
        e = rng.uniform(0, 100, n)
        g = rng.uniform(0, 100, n)
        mae, mse = counting_errors(e, g)
        abs_sum = 0.0
        sq_sum = 0.0
        for a, b in zip(e.tolist(), g.tolist()):
            abs_sum += abs(a - b)
            sq_sum += (a - b) * (a - b)
        assert abs(mae - abs_sum / n) <= 1e-12 * max(1.0, abs(mae))
        assert abs(mse - sq_sum / n) <= 1e-12 * max(1.0, abs(mse))

        p = rng.integers(0, 10, n)
        t = rng.integers(0, 10, n)
        hits = sum(1 for a, b in zip(p.tolist(), t.tolist()) if a == b)
        assert accuracy(p, t) == hits / n
    _pass(6, "fixtures exact; 50 random instances match oracles within 1e-12")


def test_criterion_07_early_stopping_boundaries():
    """Scripted validation-loss sequences trigger exactly at patience = 5."""
    fires = [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.95]
    assert early_stop_check(fires, 5)
    assert not early_stop_check(fires[:-1], 5)  # only four stale epochs
    assert not early_stop_check([1.0 - 0.01 * i for i in range(40)], 5)
    assert not early_stop_check([1.0, 1.01, 1.02, 1.03, 1.04, 0.99], 5)  # reset on the 5th
    assert early_stop_check([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], 5)  # flat from the start
    assert not early_stop_check([1.0, 1.0, 1.0, 1.0, 1.0], 5)
    # improvements below the 1e-9 threshold do not reset the counter
    assert early_stop_check([1.0, 1.0 - 1e-12, 1.0 - 2e-12, 1.0 - 3e-12, 1.0 - 4e-12, 1.0 - 5e-12], 5)
    _pass(7, "patience-5 rule fires exactly on schedule, boundaries included")


def test_criterion_08_directional_learning_benefit(benefit_runs):
    """Loss-ranked selection beats random sampling at equal sample exposure."""
    deltas = []
    for seed in BENEFIT_SEEDS:
        base = benefit_runs["runs"][seed]["baseline"].final_metrics["accuracy"]
        ours = benefit_runs["runs"][seed]["tftb"].final_metrics["accuracy"]
        deltas.append(ours - base)
    within = sum(1 for d in deltas if d >= -0.005)
    strict = sum(1 for d in deltas if d > 0.0)
    assert within >= 9, f"within -0.5pp in only {within}/10 seeds (deltas {deltas})"
    assert strict >= 6, f"strictly better in only {strict}/10 seeds (deltas {deltas})"
    assert benefit_runs["elapsed"] <= 300.0, f"took {benefit_runs['elapsed']:.0f}s (limit 300s)"
    _pass(
        8,
        f"within -0.5pp {within}/10, strictly better {strict}/10, "
        f"mean delta {np.mean(deltas) * 100:+.2f}pp (stochastic gate, "
        f"{benefit_runs['elapsed']:.0f}s)",
    )


def test_criterion_09_exposure_parity(benefit_runs):
    """Per-epoch samples-seen counts are identical between modes. Exact."""
    for seed in BENEFIT_SEEDS:
        base = benefit_runs["runs"][seed]["baseline"].epochs
        ours = benefit_runs["runs"][seed]["tftb"].epochs
        assert len(base) == len(ours)
        for rb, rt in zip(base, ours):
            assert rb["samples_seen"] == rt["samples_seen"], (
                f"seed {seed} epoch {rb['epoch']}: "
                f"{rb['samples_seen']} vs {rt['samples_seen']}"
            )
    _pass(9, "samples-seen per epoch index identical across all 10 compare pairs")


def test_criterion_10_manifest_determinism():
    """Same seed under the virtual clock: byte-identical manifest."""
    def one_run():
        spec = ExperimentSpec(
            task="classify-synth",
            config=TrainConfig(mode="tftb", alpha=0.3, warmup_epochs=1, max_epochs=6,
                               lr=0.005, seed=4, early_stop_patience=50),
            n_per_class=40,
            num_classes=3,
            easy_fraction=0.6,
            n_test_per_class=40,
            hidden=(12,),
        )
        _, manifest, _ = run_experiment(
            spec, clock=VirtualClock(costs={"batch": 0.01, "validation": 0.002})
        )
        return manifest

    first, second = one_run(), one_run()
    assert first.created_at is None and second.created_at is None
    assert first.to_json().encode() == second.to_json().encode()
    _pass(10, "repeated virtual-clock run produced a byte-identical manifest")
