"""Tests of the benchmark itself: derived-metric arithmetic and a smoke run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bench  # noqa: E402
from tftb.budget import VirtualClock  # noqa: E402
from tftb.experiments import ExperimentSpec, build_task  # noqa: E402
from tftb.nn.models import init_params  # noqa: E402
from tftb.trainer import TrainConfig, train_tftb  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# Dyadic section costs keep every sum of them exact in binary floating point.
COSTS = {"batch": 0.25, "shuffle": 0.125, "validation": 0.5, "rank": 1.0, "refresh": 0.75}

# 80 samples, 72 after the validation split: 3 batches of 32 per epoch.
TINY_SELECT = ExperimentSpec(
    task="classify-synth",
    n_per_class=20,
    n_test_per_class=20,
    config=TrainConfig(
        alpha=0.3, rerank_period=1, refresh_excluded_period=1, max_epochs=3,
        early_stop_patience=1000, seed=3,
    ),
)

TINY = {
    "select-heavy": TINY_SELECT,
    "conv-heavy": dataclasses.replace(bench.WORKLOADS["conv-heavy"], n_images=24,
                                      n_test_images=8),
    "equal-budget": dataclasses.replace(
        bench.WORKLOADS["equal-budget"], n_per_class=30, n_test_per_class=10,
        config=dataclasses.replace(bench.WORKLOADS["equal-budget"].config,
                                   budget_seconds=0.5),
    ),
}


def test_scripted_run_derives_metrics_exactly():
    record = bench.run_op(TINY_SELECT, traced=True, base_clock=VirtualClock(COSTS))
    run = record["modes"]["tftb"]
    # warm-up + 2 selective epochs of 3 batches; ranks after warm-up and after
    # each selective epoch, refreshes before the two reranks
    counts = {"batch": 9, "shuffle": 3, "validation": 3, "rank": 3, "refresh": 2}
    assert {k: v[0] for k, v in run["sections"].items()} == counts
    wall = sum(COSTS[k] * n for k, n in counts.items())
    assert run["wall_s"] == wall == 8.625
    selection = 3 * 1.0 + 2 * 0.75 + 3 * 0.125
    assert bench.selection_share(run) == selection / wall

    layers = bench.per_layer(record)
    assert layers["budget.charged_s"] == wall
    assert layers["budget.uncharged_s"] == 0.0
    assert layers["trainer.selection.s"] == selection
    # a virtual clock only moves inside sections, so wrapped calls take no
    # time and every section's self time is the whole section
    assert layers["trainer.batch.s"] == layers["trainer.batch.self_s"] == 9 * 0.25
    assert layers["trainer.self_s"] == 0.0
    assert bench.self_time_total(record["layers"]["tftb"]["spans"]) == wall
    assert layers["trainer.batch.count"] == layers["nn.models.fwd_bwd.calls"] == 9
    assert layers["nn.adam.calls"] == 9
    assert layers["importance.rerank.calls"] == 2
    assert layers["importance.select.calls"] == 3  # one initial, one per rerank
    assert layers["importance.score.calls"] == 3

    budgeted = dataclasses.replace(
        TINY_SELECT, config=dataclasses.replace(TINY_SELECT.config, budget_seconds=64.0)
    )
    run = bench.run_op(budgeted, traced=False, base_clock=VirtualClock(COSTS))["modes"]["tftb"]
    assert bench.budget_view(run) == {"samples_at_T": 3 * 72, "budget_wall_ratio": wall / 64.0}


def test_self_times_subtract_direct_children_only():
    times = iter([0.0, 1.0, 1.5, 2.0, 4.0, 4.5, 7.0, 10.0])
    tracer = bench.Tracer(now=lambda: next(times))
    tracer.enter()                  # parent from 0
    tracer.enter()                  # child from 1
    tracer.enter()                  # grandchild from 1.5
    tracer.exit("grandchild")       # 2.0: 0.5 s
    tracer.exit("child")            # 4.0: 3 s, self 2.5 s
    tracer.enter()                  # child from 4.5
    tracer.exit("child", items=7)   # 7.0: 2.5 s
    tracer.exit("parent")           # 10.0: 10 s, self 10 - 5.5
    assert tracer.stats["grandchild"] == {"calls": 1, "s": 0.5, "self_s": 0.5, "items": 0}
    assert tracer.stats["child"] == {"calls": 2, "s": 5.5, "self_s": 5.0, "items": 7}
    assert tracer.stats["parent"] == {"calls": 1, "s": 10.0, "self_s": 4.5, "items": 0}
    assert bench.self_time_total(tracer.snapshot()) == 10.0


def test_churn_matches_the_selected_sets_of_consecutive_rankings():
    train, val, test, arch, loss_kind = build_task(TINY_SELECT)
    cfg = dataclasses.replace(TINY_SELECT.config, mode="tftb", loss_kind=loss_kind)
    dumps = []
    tracer = bench.Tracer()
    with tracer.installed():
        train_tftb(init_params(arch, np.random.default_rng(3)), train, val, cfg,
                   clock=VirtualClock(COSTS),
                   ledger_writer=lambda rows: dumps.append({r[1] for r in rows if r[5]}))
    want = [len(new - old) / len(new) for old, new in zip(dumps, dumps[1:])]
    assert len(want) == 2
    assert tracer.churn == want


def test_probe_scales_each_stretch_by_its_mean_slowdown():
    probe = bench.SpeedProbe()
    nominal = bench.PROBE_NOMINAL_S["mlp"]
    # at half speed, then reference speed; a sample outside [0, 3] is ignored
    probe.samples = [(t, {"mlp": k * nominal, "conv": 0.0})
                     for t, k in ((0.0, 2.0), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (4.0, 8.0))]
    assert probe.scale(0.0, 3.0, "mlp") == pytest.approx(0.5 + 2 / 3 + 1.0)
    assert probe.scale(2.0, 3.0, "mlp") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        probe.scale(0.5, 1.5, "mlp")


def test_probed_clock_leaves_probe_time_out():
    clock = bench.ProbedClock(bench.SpeedProbe(("mlp",)))
    before = clock.now()
    at = clock.sample()
    assert set(clock.probe.samples[-1][1]) == {"mlp"}
    spent = clock.probe.samples[-1][1]["mlp"]
    assert before <= at <= clock.now() < at + spent / 2
    with clock.measure("batch") as span:
        pass
    assert span.elapsed < spent
    # the next probe is due only after PROBE_EVERY_S of trainer time
    assert len(clock.probe.samples) == 1


def test_missing_wrap_target_is_reported_not_raised():
    tracer = bench.Tracer()
    tracer.wrap(bench, "no_such_function", "nn.gone")
    assert tracer.missing == ["bench.no_such_function"]
    record = bench.run_op(TINY_SELECT, traced=True, base_clock=VirtualClock(COSTS))
    record["installed"].remove("nn.adam")
    layers = bench.per_layer(record)
    assert not any(name.startswith("nn.adam.") for name in layers)
    assert "nn.models.fwd_bwd.s" in layers


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_every_workload_yields_every_metric(workload):
    spec = TINY[workload]
    plain = bench.run_op(spec, traced=False)
    traced = bench.run_op(spec, traced=True)
    for record in (plain, traced):
        for run in record["modes"].values():
            assert run["problems"] == []
    e2e = bench.end_to_end(plain)
    assert set(e2e) == {m["name"] for m in DECLARED["end_to_end"]}
    assert all(0 < run["ref_s"] for run in plain["modes"].values())
    layers = bench.per_layer(traced)
    # the overhead is the difference of two operations, added by run.py
    assert set(layers) | {"trace.overhead_s"} == {m["name"] for m in DECLARED["per_layer"]}
    assert traced["missing"] == []
    assert all(math.isfinite(v) and v > 0 for v in e2e.values())
    assert all(math.isfinite(v) for v in layers.values())
    baseline_spans = traced["layers"]["baseline"]["spans"]
    assert not any(name.startswith("importance.") for name in baseline_spans)


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
