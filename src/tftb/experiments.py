"""Experiment assembly: task presets, run execution, artifact emission.

An ``ExperimentSpec`` binds a task (which datasets and model preset to build)
to a ``TrainConfig``; both are frozen and check their fields when built.
``run_experiment`` builds the data, trains, evaluates the held-out test
split, and optionally writes the run directory:

    manifest.json    -- full run manifest (see tftb.manifest)
    loss_curve.csv   -- epoch, split, loss
    checkpoint.bin   -- final model parameters (see tftb.nn.checkpoint)
    ledger.csv       -- optional per-epoch sample-score dump
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data.cifar10 import load_cifar10
from .data.dataset import Dataset, train_val_split
from .data.synthetic import synth_classification, synth_counting
from .errors import ConfigError, ShapeError
from .manifest import RunManifest, write_ledger_csv
from .metrics import evaluate_classifier, evaluate_counter
from .nn.checkpoint import save_params
from .nn.models import Architecture, ConvDensityArch, MlpArch, init_params
from .trainer import TrainConfig, train_baseline, train_tftb

TASKS = ("classify-synth", "classify-cifar10", "count-synth")

# generated test splits reuse the run seed at a fixed offset
TEST_SEED_OFFSET = 100_000


@dataclass(frozen=True)
class ExperimentSpec:
    task: str = "classify-synth"
    config: TrainConfig = field(default_factory=TrainConfig)
    # classify-synth
    n_per_class: int = 250
    num_classes: int = 4
    easy_fraction: float = 0.6
    feature_dim: int = 4
    n_test_per_class: int = 500
    hidden: tuple[int, ...] = (24,)
    # classify-cifar10
    data_dir: str | None = None
    # count-synth
    n_images: int = 80
    image_size: int = 24
    max_objects: int = 6
    sigma: float = 4.0
    conv_channels: tuple[int, int] = (6, 6)
    n_test_images: int = 40
    # shared
    val_fraction: float = 0.10
    ledger_csv: bool = False

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; valid tasks: {', '.join(TASKS)}")
        if self.task == "classify-cifar10" and not self.data_dir:
            raise ConfigError("classify-cifar10 needs data_dir pointing at the binary batches")
        if not 0.0 < self.val_fraction < 0.5:
            raise ConfigError(f"val_fraction must be in (0, 0.5), got {self.val_fraction}")
        try:
            self.architecture()
        except ShapeError as exc:
            raise ConfigError(f"{self.task} model: {exc}") from exc

    def architecture(self) -> Architecture:
        """The model preset of this spec's task."""
        if self.task == "classify-synth":
            return MlpArch(self.feature_dim, tuple(self.hidden), self.num_classes)
        if self.task == "classify-cifar10":
            return MlpArch(3072, tuple(self.hidden), 10)
        return ConvDensityArch(self.image_size, self.image_size, tuple(self.conv_channels))

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        del d["config"]  # echoed separately as config["train"]
        return d

    def run_name(self) -> str:
        return (
            f"{self.task}_{self.config.mode}_alpha{self.config.alpha:g}"
            f"_seed{self.config.seed}"
        )


def build_task(spec: ExperimentSpec):
    """Datasets and model preset for a spec: (train, val, test, arch, loss_kind)."""
    seed = spec.config.seed
    if spec.task == "classify-synth":
        full = synth_classification(
            seed, spec.n_per_class, spec.num_classes, spec.easy_fraction, spec.feature_dim
        )
        test = synth_classification(
            seed + TEST_SEED_OFFSET,
            spec.n_test_per_class,
            spec.num_classes,
            spec.easy_fraction,
            spec.feature_dim,
            split_tag="test",
        )
        train, val = train_val_split(full, spec.val_fraction, seed)
        return train, val, test, spec.architecture(), "cross_entropy"
    if spec.task == "classify-cifar10":
        full, test = load_cifar10(spec.data_dir)
        train, val = train_val_split(full, spec.val_fraction, seed)
        return train, val, test, spec.architecture(), "cross_entropy"
    # count-synth
    full = synth_counting(seed, spec.n_images, spec.image_size, spec.max_objects, spec.sigma)
    test = synth_counting(
        seed + TEST_SEED_OFFSET,
        spec.n_test_images,
        spec.image_size,
        spec.max_objects,
        spec.sigma,
        split_tag="test",
    )
    train, val = train_val_split(full, spec.val_fraction, seed)
    return train, val, test, spec.architecture(), "pixelwise_l2"


def run_experiment(spec: ExperimentSpec, out_dir=None, clock=None):
    """Run one experiment; returns (params, manifest, run_dir or None)."""
    train, val, test, arch, loss_kind = build_task(spec)
    cfg = dataclasses.replace(
        spec.config,
        loss_kind=loss_kind,
        # per-class quotas only make sense for the classification tasks
        stratified=spec.config.stratified and loss_kind == "cross_entropy",
    )
    params = init_params(arch, np.random.default_rng(cfg.seed))

    run_dir = None
    ledger_writer = None
    if out_dir is not None:
        run_dir = Path(out_dir) / spec.run_name()
        run_dir.mkdir(parents=True, exist_ok=True)
        if spec.ledger_csv and cfg.mode == "tftb":
            ledger_path = run_dir / "ledger.csv"
            if ledger_path.exists():
                ledger_path.unlink()
            ledger_writer = lambda rows: write_ledger_csv(ledger_path, rows)  # noqa: E731

    if cfg.mode == "tftb":
        params, manifest = train_tftb(params, train, val, cfg, clock=clock,
                                      ledger_writer=ledger_writer)
    else:
        params, manifest = train_baseline(params, train, val, cfg, clock=clock)

    if loss_kind == "cross_entropy":
        manifest.final_metrics.update(evaluate_classifier(params, test))
    else:
        manifest.final_metrics.update(evaluate_counter(params, test))
    manifest.dataset["test_fingerprint"] = test.fingerprint()
    manifest.dataset["n_test"] = len(test)
    manifest.config["experiment"] = spec.to_dict()

    if run_dir is not None:
        manifest.save(run_dir / "manifest.json")
        manifest.write_loss_curve_csv(run_dir / "loss_curve.csv")
        save_params(params, run_dir / "checkpoint.bin")
    return params, manifest, run_dir


def sweep_summary_line(row: dict) -> str:
    """One alpha's line of a sweep summary."""
    return (
        f"alpha={row['alpha']:g}: {row['metric']} = "
        f"{row['mean']:.4f} +/- {row['std']:.4f}  (n={row['n_runs']})"
    )


def run_sweep(spec: ExperimentSpec, alphas, seeds, out_dir=None, clock=None):
    """One run per (alpha, seed); returns (manifests, summary rows per alpha)."""
    if not alphas:
        raise ConfigError("sweep needs at least one alpha")
    if not seeds:
        raise ConfigError("sweep needs at least one seed")
    if spec.config.mode == "baseline" and len(alphas) > 1:
        raise ConfigError("baseline ignores alpha: sweep one alpha, or set mode = tftb")
    # every run's spec is built, and so checked, before the first run starts
    grid = [[dataclasses.replace(spec, config=dataclasses.replace(spec.config, alpha=a, seed=s))
             for s in seeds] for a in alphas]

    manifests: list[RunManifest] = []
    primary = "accuracy" if spec.task.startswith("classify") else "mae"
    summary = []
    for alpha, run_specs in zip(alphas, grid):
        values = []
        for run_spec in run_specs:
            _, manifest, _ = run_experiment(run_spec, out_dir=out_dir, clock=clock)
            manifests.append(manifest)
            values.append(float(manifest.final_metrics[primary]))
        arr = np.asarray(values)
        summary.append(
            {
                "alpha": alpha,
                "metric": primary,
                "mean": float(arr.mean()),
                "std": float(arr.std()),
                "n_runs": len(values),
            }
        )

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "sweep_summary.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["alpha", "metric", "mean", "std", "n_runs"])
            writer.writeheader()
            writer.writerows(summary)
        lines = [f"sweep over alphas {list(alphas)}, seeds {list(seeds)} ({spec.task})"]
        lines.extend(f"  {sweep_summary_line(row)}" for row in summary)
        (out_dir / "sweep_summary.txt").write_text("\n".join(lines) + "\n")
    return manifests, summary
