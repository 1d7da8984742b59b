"""Workloads, the traced clock and one benchmark operation.

An operation builds one workload's data (set-up), trains ``tftb`` and then
``baseline`` on the same data, initial parameters and seed under the same
stopping rule, evaluates both on the test split, and checks their outputs.
It drives the program only through its public API: ``build_task``,
``init_params``, ``train_tftb`` / ``train_baseline`` (with the benchmark's
own clock passed as ``clock=``) and ``evaluate_classifier`` /
``evaluate_counter``.

Layer times come from outside the program.  ``BenchClock`` records the
trainer's own clock sections (``batch``, ``shuffle``, ``validation``,
``rank``, ``refresh``); in a traced operation a ``Tracer`` also wraps the
public functions each section calls, as spans nested inside the sections.
Self time is a span's time minus that of its direct children.

The machine's speed is not steady: a core can run the same code 1.5-2 times
slower for seconds at a time.  ``SpeedProbe`` times fixed reference kernels
(numpy only, no program code) about every tenth of a second between the
trainer's sections, with the probe's own time left out of the clock the trainer
sees.  The bounded times are scaled by the probe to reference speed, the speed
at which each kernel takes its ``PROBE_NOMINAL_S``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import resource
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

from tftb.budget import WallClock
from tftb.experiments import ExperimentSpec, build_task
from tftb.importance import subset_size
from tftb.metrics import evaluate_classifier, evaluate_counter
from tftb.nn.models import init_params
from tftb.trainer import TrainConfig, train_baseline, train_tftb

# Slack the README allows past the budget: T + longest batch + 0.5 s.
BUDGET_SLACK_S = 0.5

# Sections whose time is selection overhead rather than training.
SELECTION_SECTIONS = ("rank", "refresh", "shuffle")

# Trainer time between two speed probes, and each probe kernel's time at
# reference speed (its warm fast-phase time on a 2-vCPU Intel Xeon KVM guest).
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = {"mlp": 0.0027, "conv": 0.0026}


# Patience is far above any epoch count reached, so the epoch cap or the
# budget ends every run and the work done is fixed by the workload.  Why each
# workload is there is in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    # 45k samples, rerank every epoch: importance scoring and ranking dominate
    "select-heavy": ExperimentSpec(
        task="classify-synth",
        n_per_class=12500,
        config=TrainConfig(alpha=0.3, rerank_period=1, max_epochs=4, early_stop_patience=1000),
    ),
    # 1.2k images, conv forward+backward dominates; refresh adds forward passes
    "conv-heavy": ExperimentSpec(
        task="count-synth",
        n_images=1333,
        n_test_images=400,
        conv_channels=(6, 6),
        config=TrainConfig(
            alpha=0.3, refresh_excluded_period=1, max_epochs=3, early_stop_patience=1000
        ),
    ),
    # 36k samples, both modes under the same budget: quality at equal wall clock
    "equal-budget": ExperimentSpec(
        task="classify-synth",
        n_per_class=5000,
        num_classes=8,
        feature_dim=8,
        config=TrainConfig(
            alpha=0.3, budget_seconds=5.0, max_epochs=None, early_stop_patience=1000
        ),
    ),
}


def workload_spec(name: str, seed: int) -> ExperimentSpec:
    spec = WORKLOADS[name]
    return dataclasses.replace(spec, config=dataclasses.replace(spec.config, seed=seed))


# ---------------------------------------------------------------------------
# machine speed


class SpeedProbe:
    """Times fixed reference kernels, some of ``mlp`` and ``conv``; ``scale``
    turns program time into time at reference speed.

    ``mlp`` runs steps of a tiny MLP with Adam-style moment updates, the
    shape of the classification trainer's work and of the data generators;
    ``conv`` runs the sliding einsums of a small same-padded convolution,
    the shape of the counting model's work.  Each tracks the slowdown of
    the program code it resembles far better than the other does.  Samples
    are ``(t, {kernel: s})`` on the trainer-visible timeline, where the probe
    itself takes no time.
    """

    def __init__(self, kernels=tuple(PROBE_NOMINAL_S), every_s: float = PROBE_EVERY_S):
        self.kernels = kernels
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((32, 4))
        self._w1 = rng.standard_normal((4, 24))
        self._w2 = rng.standard_normal((24, 3))
        self._moments = [np.zeros_like(w) for w in (self._w1, self._w2) for _ in range(2)]
        self._image = rng.standard_normal((32, 6, 26, 26))
        self._kernel = rng.standard_normal((6, 6))
        self.every_s = every_s
        self.samples: list[tuple[float, dict]] = []

    def mlp(self) -> None:
        x, w1, w2 = self._x, self._w1, self._w2
        m1, v1, m2, v2 = self._moments
        for _ in range(100):
            h = np.maximum(x @ w1, 0.0)
            out = h @ w2
            e = np.exp(out - out.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            for grad, m, v in ((x.T @ ((p @ w2.T) * (h > 0)), m1, v1), (h.T @ p, m2, v2)):
                m *= 0.9
                m += 0.1 * grad
                v *= 0.999
                v += 0.001 * grad * grad
                np.sqrt(v) + 1e-8

    def conv(self) -> None:
        out = np.zeros((32, 6, 24, 24))
        for i in range(3):
            for j in range(3):
                out += np.einsum(
                    "nchw,oc->nohw", self._image[:, :, i : i + 24, j : j + 24], self._kernel
                )

    def sample(self, t: float) -> float:
        """Time each kernel at trainer time ``t``; return the probe's wall time.

        Each kernel runs twice and only the second run is timed: the first
        refills the caches the program's code evicted, which otherwise adds
        up to 40% to the kernel's time.
        """
        began = time.perf_counter()
        times = {}
        for name in self.kernels:
            kernel = getattr(self, name)
            kernel()
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        self.samples.append((t, times))
        return time.perf_counter() - began

    def due(self, t: float) -> bool:
        return not self.samples or t - self.samples[-1][0] >= self.every_s

    def scale(self, start: float, end: float, kernel: str) -> float:
        """Time at reference speed of the interval [start, end]: each stretch
        between neighbouring samples divided by ``kernel``'s mean slowdown
        over them."""
        pts = [(t, k[kernel]) for t, k in self.samples if start <= t <= end]
        if len(pts) < 2:
            raise ValueError(f"need probe samples at both ends of [{start}, {end}]")
        return sum(
            (t1 - t0) * 2 * PROBE_NOMINAL_S[kernel] / (k0 + k1)
            for (t0, k0), (t1, k1) in zip(pts, pts[1:])
        )


class ProbedClock(WallClock):
    """Wall clock that runs the speed probe between sections when it is due,
    and leaves the probe's time out of ``now``."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.paused = 0.0

    def now(self) -> float:
        return time.monotonic() - self.paused

    def sample(self) -> float:
        """Probe now; the moment is the same before and after."""
        t = self.now()
        self.paused += self.probe.sample(t)
        return t

    @contextmanager
    def measure(self, label: str = "work"):
        with super().measure(label) as span:
            yield span
        if self.probe.due(self.now()):
            self.sample()


# ---------------------------------------------------------------------------
# spans


class Tracer:
    """Nested spans aggregated per name: calls, time, self time and items.

    ``installed`` replaces public functions of the program with wrappers that
    open a span around each call.  A target that no longer exists is listed
    in ``missing`` instead of failing, so a later rename shows up as a
    missing metric.
    """

    def __init__(self, now=None):
        self.now = now or WallClock().now
        self.stats: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0}
        )
        self.churn: list[float] = []
        self.missing: list[str] = []
        self.installed_spans: set[str] = set()
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def enter(self) -> None:
        self._stack.append([self.now(), 0.0])

    def exit(self, name: str, items: int = 0, duration: float | None = None) -> None:
        start, child = self._stack.pop()
        elapsed = self.now() - start if duration is None else duration
        st = self.stats[name]
        st["calls"] += 1
        st["s"] += elapsed
        st["self_s"] += elapsed - child
        st["items"] += items
        if self._stack:
            self._stack[-1][1] += elapsed

    def wrap(self, owner, attr: str, span: str, items=None, observe=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(span, items(args) if items else 0)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.installed_spans.add(span)

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        import tftb.experiments
        import tftb.importance
        import tftb.trainer

        ledger = getattr(tftb.importance, "ImportanceLedger", None)
        # args[1] is the batch (params, batch, ...) or the ledger's observations
        batch_len = lambda args: len(args[1])  # noqa: E731

        def rerank_churn(args, kwargs, plan):
            previous = kwargs.get("previous", args[1] if len(args) > 1 else None)
            if previous is not None and plan.selected_ids:
                replaced = set(plan.selected_ids) - set(previous.selected_ids)
                self.churn.append(len(replaced) / len(plan.selected_ids))

        # both the trainer's and importance's own names are wrapped: the
        # trainer imported them by name, merge_and_reselect calls its module's
        self.wrap(tftb.experiments, "synth_classification", "data.build")
        self.wrap(tftb.experiments, "synth_counting", "data.build")
        self.wrap(tftb.trainer, "loss_and_grad", "nn.models.fwd_bwd", items=batch_len)
        self.wrap(tftb.trainer, "per_sample_losses", "nn.models.fwd", items=batch_len)
        self.wrap(tftb.trainer, "adam_step", "nn.adam")
        self.wrap(ledger, "record_losses", "importance.record", items=batch_len)
        self.wrap(ledger, "effective_scores", "importance.score")
        self.wrap(tftb.trainer, "select_subset", "importance.select")
        self.wrap(tftb.importance, "select_subset", "importance.select")
        self.wrap(tftb.trainer, "merge_and_reselect", "importance.rerank", observe=rerank_churn)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def snapshot(self) -> dict:
        return {name: dict(st) for name, st in self.stats.items()}


class BenchClock:
    """The trainer's clock: delegates timing, records every section.

    Section totals feed ``selection_share``; with a tracer, each section is
    also a span whose children are the wrapped calls made inside it.
    """

    def __init__(self, base=None, tracer: Tracer | None = None):
        self.base = base or WallClock()
        self.is_wall = getattr(self.base, "is_wall", False)
        self.tracer = tracer
        self.sections: dict[str, list] = defaultdict(lambda: [0, 0.0])

    def now(self) -> float:
        return self.base.now()

    @contextmanager
    def measure(self, label: str = "work"):
        if self.tracer is not None:
            self.tracer.enter()
        span = None
        try:
            with self.base.measure(label) as span:
                yield span
        finally:
            elapsed = span.elapsed if span is not None else 0.0
            self.sections[label][0] += 1
            self.sections[label][1] += elapsed
            if self.tracer is not None:
                self.tracer.exit(f"trainer.{label}", duration=elapsed)


# ---------------------------------------------------------------------------
# one operation


def output_checks(manifest, n_train: int, alpha: float, quality: dict) -> list[str]:
    """Exposure, subset size and finiteness checks on one run's outputs."""
    problems = []
    n_b = manifest.budget["epoch_equivalent_batches"]
    batch_size = manifest.config["train"]["batch_size"]
    want_subset = subset_size(n_train, alpha)
    epochs = manifest.epochs
    if not epochs:
        problems.append("no epoch ran")
    for i, ep in enumerate(epochs):
        if ep["batches"] == n_b:
            if ep["samples_seen"] != n_train:
                problems.append(
                    f"epoch {ep['epoch']}: exposed {ep['samples_seen']} samples, want {n_train}"
                )
        elif i != len(epochs) - 1 or ep["samples_seen"] != ep["batches"] * batch_size:
            problems.append(f"epoch {ep['epoch']}: cut short with {ep['batches']}/{n_b} batches")
        want = want_subset if ep["phase"] == "selective" else n_train
        if ep["selected_size"] != want:
            problems.append(
                f"epoch {ep['epoch']} ({ep['phase']}): subset {ep['selected_size']}, want {want}"
            )
    finals = [manifest.final_metrics.get("final_val_loss"),
              manifest.final_metrics.get("final_train_loss"), *quality.values()]
    if not all(v is not None and math.isfinite(v) for v in finals):
        problems.append(f"non-finite final metrics: {finals}")
    return problems


def train_once(params, train, val, test, cfg, base_clock=None, tracer=None) -> dict:
    """One trainer call, timed from outside, with its derived raw numbers."""
    clock = BenchClock(base_clock, tracer)
    probed = isinstance(base_clock, ProbedClock)
    train_fn = train_tftb if cfg.mode == "tftb" else train_baseline
    start = base_clock.sample() if probed else clock.now()
    if tracer is not None:
        tracer.enter()
    try:
        params, manifest = train_fn(params, train, val, cfg, clock=clock)
    finally:
        wall = clock.now() - start
        if tracer is not None:
            tracer.exit("trainer", duration=wall)
    kernel = "mlp" if cfg.loss_kind == "cross_entropy" else "conv"
    ref_s = base_clock.probe.scale(start, base_clock.sample(), kernel) if probed else wall
    if cfg.loss_kind == "cross_entropy":
        scores = evaluate_classifier(params, test)
        quality = {"test_accuracy": scores["accuracy"], "test_loss": scores["mean_loss"]}
    else:
        scores = evaluate_counter(params, test)
        quality = {"test_mae": scores["mae"], "test_loss": scores["mean_loss"]}
    budget = manifest.budget
    limit = cfg.budget_seconds and cfg.budget_seconds + budget["tb_max"] + BUDGET_SLACK_S
    return {
        "wall_s": wall,
        "ref_s": ref_s,
        "samples": sum(ep["samples_seen"] for ep in manifest.epochs),
        "epochs": len(manifest.epochs),
        "stop_reason": manifest.stop_reason,
        "sections": {k: list(v) for k, v in clock.sections.items()},
        "budget_s": cfg.budget_seconds,
        "consumed_s": budget["consumed_total"],
        "tb_final_s": budget["tb_final"],
        "planned_batches": budget["planned_batches_initial"] or 0,
        "executed_batches": budget["executed_batches"],
        "quality": quality,
        "problems": output_checks(manifest, len(train), cfg.alpha, quality),
        "overrun": bool(limit) and wall > limit,
    }


def run_op(spec: ExperimentSpec, traced: bool, base_clock=None) -> dict:
    """Set up, train both modes, check; the raw record of one operation.

    Without ``base_clock`` it runs on a ``ProbedClock`` and every time has a
    reference-speed twin (``setup_ref_s``, ``ref_s``); with a scripted clock
    the twins equal the measured times.
    """
    if base_clock is None:
        # set-up is scaled by mlp everywhere, counting training by conv
        kernels = ("mlp", "conv") if spec.task == "count-synth" else ("mlp",)
        base_clock = ProbedClock(SpeedProbe(kernels))
    probed = isinstance(base_clock, ProbedClock)
    tracer = Tracer(base_clock.now) if traced else None
    record: dict = {"traced": traced, "modes": {}, "layers": {}}
    with tracer.installed() if tracer else nullcontext():
        start = base_clock.sample() if probed else time.perf_counter()
        train, val, test, arch, loss_kind = build_task(spec)
        initial = init_params(arch, np.random.default_rng(spec.config.seed))
        if probed:
            end = base_clock.sample()
            record["setup_s"] = end - start
            # the data generators are per-record Python, like the mlp kernel
            record["setup_ref_s"] = base_clock.probe.scale(start, end, "mlp")
        else:
            record["setup_s"] = record["setup_ref_s"] = time.perf_counter() - start
        if tracer:
            record["data_build_s"] = tracer.stats["data.build"]["s"]
        for mode in ("tftb", "baseline"):
            cfg = dataclasses.replace(
                spec.config,
                mode=mode,
                loss_kind=loss_kind,
                # per-class quotas apply to the classification tasks only
                stratified=spec.config.stratified and loss_kind == "cross_entropy",
            )
            if tracer:
                tracer.stats.clear()
                tracer.churn.clear()
            record["modes"][mode] = train_once(
                initial.copy(), train, val, test, cfg, base_clock, tracer
            )
            if tracer:
                record["layers"][mode] = {"spans": tracer.snapshot(), "churn": list(tracer.churn)}
        if tracer:
            record["missing"] = sorted(set(tracer.missing))
            record["installed"] = sorted(tracer.installed_spans)
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return record


def provenance() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get("blas", {}).get(k) for k in ("name", "version")}
    except (TypeError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# derived metrics


def _quality_ratio(tftb_quality: dict, baseline_quality: dict) -> float:
    """tftb quality over baseline quality; above 1 means tftb did better.

    Classification compares test accuracy.  Counting compares test loss
    (the density-map objective): after the few epochs a benchmark run can
    afford, the count MAE of both modes still swings by tens of percent
    from seed to seed, while the loss ratio stays within a few percent.
    """
    if "test_accuracy" in tftb_quality:
        return tftb_quality["test_accuracy"] / baseline_quality["test_accuracy"]
    return baseline_quality["test_loss"] / tftb_quality["test_loss"]


def selection_share(run: dict) -> float:
    sections = run["sections"]
    return sum(sections.get(k, [0, 0.0])[1] for k in SELECTION_SECTIONS) / run["wall_s"]


def end_to_end(record: dict) -> dict:
    """The bounded end-to-end metrics of one operation; times and rates at
    reference speed."""
    t, b = record["modes"]["tftb"], record["modes"]["baseline"]
    return {
        "setup_s": record["setup_ref_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "samples_per_s.tftb": t["samples"] / t["ref_s"],
        "samples_per_s.baseline": b["samples"] / b["ref_s"],
        "selection_share": selection_share(t),
        "quality_vs_baseline": _quality_ratio(t["quality"], b["quality"]),
    }


def budget_view(run: dict) -> dict:
    """Numbers a budgeted run is judged by: wall over T, samples within T."""
    return {
        "samples_at_T": run["samples"],
        "budget_wall_ratio": run["wall_s"] / run["budget_s"],
    }


# per-layer name -> (span, field); "us" fields are microseconds per item
SPAN_METRICS = {
    "nn.models.fwd_bwd.calls": ("nn.models.fwd_bwd", "calls"),
    "nn.models.fwd_bwd.s": ("nn.models.fwd_bwd", "s"),
    "nn.models.fwd_bwd.us_per_sample": ("nn.models.fwd_bwd", "us_per_item"),
    "nn.models.fwd.calls": ("nn.models.fwd", "calls"),
    "nn.models.fwd.s": ("nn.models.fwd", "s"),
    "nn.models.fwd.us_per_sample": ("nn.models.fwd", "us_per_item"),
    "nn.adam.calls": ("nn.adam", "calls"),
    "nn.adam.s": ("nn.adam", "s"),
    "nn.adam.us_per_step": ("nn.adam", "us_per_call"),
    "importance.record.calls": ("importance.record", "calls"),
    "importance.record.s": ("importance.record", "s"),
    "importance.record.us_per_sample": ("importance.record", "us_per_item"),
    "importance.score.calls": ("importance.score", "calls"),
    "importance.score.s": ("importance.score", "s"),
    "importance.select.calls": ("importance.select", "calls"),
    "importance.select.s": ("importance.select", "s"),
    "importance.rerank.calls": ("importance.rerank", "calls"),
    "importance.rerank.s": ("importance.rerank", "s"),
    "trainer.batch.count": ("trainer.batch", "calls"),
    "trainer.batch.s": ("trainer.batch", "s"),
    "trainer.batch.self_s": ("trainer.batch", "self_s"),
    "trainer.shuffle.s": ("trainer.shuffle", "s"),
    "trainer.validation.s": ("trainer.validation", "s"),
    "trainer.rank.s": ("trainer.rank", "s"),
    "trainer.refresh.calls": ("trainer.refresh", "calls"),
    "trainer.self_s": ("trainer", "self_s"),
}


def _span_value(span: dict | None, field_name: str) -> float:
    if span is None:
        return 0.0
    if field_name == "us_per_item":
        return span["s"] / span["items"] * 1e6 if span["items"] else 0.0
    if field_name == "us_per_call":
        return span["s"] / span["calls"] * 1e6 if span["calls"] else 0.0
    return span[field_name]


def per_layer(record: dict) -> dict:
    """Per-layer metrics of the tftb run of one traced operation.

    A metric whose wrapped function was missing from the program is left
    out; the caller reports it as missing.
    """
    run = record["modes"]["tftb"]
    spans = record["layers"]["tftb"]["spans"]
    churn = record["layers"]["tftb"]["churn"]
    installed = set(record["installed"])
    out = {}
    for name, (span, field_name) in SPAN_METRICS.items():
        # trainer sections come from the clock and are always measured
        if span in installed or span.split(".")[0] == "trainer":
            out[name] = _span_value(spans.get(span), field_name)
    if "data.build" in installed:
        out["data.build_s"] = record["data_build_s"]
    if "importance.rerank" in installed:
        out["importance.churn"] = sum(churn) / len(churn) if churn else 0.0
    out["trainer.selection.s"] = sum(
        spans.get(f"trainer.{k}", {"s": 0.0})["s"] for k in SELECTION_SECTIONS
    )
    out.update(
        {
            "budget.charged_s": run["consumed_s"],
            "budget.uncharged_s": run["wall_s"] - run["consumed_s"],
            "budget.planned_batches": run["planned_batches"],
            "budget.executed_batches": run["executed_batches"],
            "budget.tb_final_us": run["tb_final_s"] * 1e6,
        }
    )
    return out


def self_time_total(spans: dict) -> float:
    """Sum of self times over every span of one trainer call."""
    return sum(st["self_s"] for name, st in spans.items() if name != "data.build")
