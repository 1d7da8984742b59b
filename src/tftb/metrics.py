"""Task metrics and run-to-run comparisons.

Counting error conventions: ``counting_errors`` returns the literal mean of
squared count errors alongside MAE.  Because the crowd-counting literature
often tabulates the square root of that quantity under the same "MSE" name,
evaluation reports carry both ``mse`` and ``rmse``, clearly labelled.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import ManifestError
from .manifest import RunManifest
from .nn.models import BatchStep, ModelParams, check_inputs, forward, output_losses

HIGHER_IS_BETTER = {"accuracy"}


def accuracy(predictions, targets) -> float:
    """Fraction of positions where prediction equals target."""
    p = np.asarray(predictions)
    t = np.asarray(targets)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise ValueError(
            f"accuracy needs two equal-length non-empty vectors, got {p.shape} and {t.shape}"
        )
    return float(np.count_nonzero(p == t) / p.size)


def counting_errors(estimated, actual) -> tuple[float, float]:
    """(MAE, MSE) over per-image counts; MSE is the literal mean of squares."""
    e = np.asarray(estimated, dtype=np.float64)
    g = np.asarray(actual, dtype=np.float64)
    if e.shape != g.shape or e.ndim != 1 or e.size == 0:
        raise ValueError(
            f"counting_errors needs two equal-length non-empty vectors, got {e.shape} and {g.shape}"
        )
    diff = e - g
    return float(np.abs(diff).mean()), float((diff * diff).mean())


def predicted_count(density: np.ndarray) -> float:
    """Count read off a predicted density map: its sum, clipped below at 0."""
    return max(float(np.sum(density)), 0.0)


def evaluate_classifier(params: ModelParams, dataset, batch_size: int = 256) -> dict:
    """Accuracy and mean cross-entropy, one forward pass per batch."""
    feats, targets = check_inputs(params.arch, dataset.features, dataset.targets, "cross_entropy")
    step = BatchStep(params.arch, batch_size, "cross_entropy")
    predictions = np.empty(len(dataset), dtype=np.int64)
    loss_total = 0.0
    for lo in range(0, len(dataset), batch_size):
        rows = slice(lo, lo + batch_size)
        logits = forward(params, feats[rows], step)
        predictions[rows] = np.argmax(logits, axis=1)
        loss_total += float(output_losses(logits, targets[rows], step).sum())
    return {
        "accuracy": accuracy(predictions, targets),
        "mean_loss": loss_total / len(dataset),
        "n_samples": len(dataset),
    }


def evaluate_counter(params: ModelParams, dataset, batch_size: int = 64) -> dict:
    """Count errors and mean pixelwise L2 loss, one forward pass per batch."""
    feats, maps = check_inputs(params.arch, dataset.features, dataset.targets, "pixelwise_l2")
    step = BatchStep(params.arch, batch_size, "pixelwise_l2")
    true_counts = maps.reshape(len(dataset), -1).sum(axis=1)
    est_counts = np.empty(len(dataset))
    loss_total = 0.0
    for lo in range(0, len(dataset), batch_size):
        rows = slice(lo, lo + batch_size)
        pred = forward(params, feats[rows], step)
        est_counts[rows] = [predicted_count(p) for p in pred]
        loss_total += float(output_losses(pred, maps[rows], step).sum())
    mae, mse = counting_errors(est_counts, true_counts)
    return {
        "mae": mae,
        "mse": mse,
        "rmse": float(np.sqrt(mse)),
        "mean_loss": loss_total / len(dataset),
        "n_samples": len(dataset),
    }


@dataclass
class MetricDelta:
    name: str
    value_a: float
    value_b: float

    @property
    def delta(self) -> float:
        return self.value_b - self.value_a

    @property
    def winner(self) -> str:
        if self.value_a == self.value_b:
            return "tie"
        higher_wins = self.name in HIGHER_IS_BETTER
        b_wins = (self.value_b > self.value_a) == higher_wins
        return "b" if b_wins else "a"


@dataclass
class RunComparison:
    label_a: str
    label_b: str
    metrics: list[MetricDelta]
    horizon: int  # epochs both runs reported
    extra_epochs_a: int  # epochs past the horizon
    extra_epochs_b: int

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("metric,%s,%s,delta,winner\n" % (self.label_a, self.label_b))
        for m in self.metrics:
            out.write(f"{m.name},{m.value_a:.6g},{m.value_b:.6g},{m.delta:+.6g},{m.winner}\n")
        return out.getvalue()

    def to_table_text(self) -> str:
        headers = ["metric", self.label_a, self.label_b, "delta", "winner"]
        rows = [
            [m.name, f"{m.value_a:.4f}", f"{m.value_b:.4f}", f"{m.delta:+.4f}", m.winner]
            for m in self.metrics
        ]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(headers)]
        def fmt(row):
            return "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        lines = [fmt(headers), fmt(["-" * w for w in widths])]
        lines.extend(fmt(r) for r in rows)
        if self.horizon:
            lines.append("")
            lines.append(f"aligned train-loss horizon: {self.horizon} epochs")
            if self.extra_epochs_a or self.extra_epochs_b:
                lines.append(
                    f"unaligned remainder: {self.extra_epochs_a} epochs ({self.label_a}), "
                    f"{self.extra_epochs_b} epochs ({self.label_b})"
                )
        return "\n".join(lines) + "\n"


def compare_runs(a: RunManifest, b: RunManifest, label_a: str = "a", label_b: str = "b") -> RunComparison:
    """Per-metric deltas and loss-curve alignment for two runs on the same data."""
    if a.schema_version != b.schema_version:
        raise ManifestError(
            f"manifest schema versions differ: {a.schema_version} vs {b.schema_version}"
        )
    fp_key = "test_fingerprint" if "test_fingerprint" in a.dataset else "train_fingerprint"
    fp_a, fp_b = a.dataset.get(fp_key), b.dataset.get(fp_key)
    if fp_a != fp_b:
        raise ManifestError(
            f"dataset fingerprints differ ({fp_key}): {fp_a!r} vs {fp_b!r}; "
            "runs must evaluate the same split"
        )
    shared = [k for k in a.final_metrics if k in b.final_metrics and k != "n_samples"]
    metrics = [MetricDelta(k, float(a.final_metrics[k]), float(b.final_metrics[k])) for k in shared]
    horizon = min(len(a.epochs), len(b.epochs))
    return RunComparison(
        label_a=label_a,
        label_b=label_b,
        metrics=metrics,
        horizon=horizon,
        extra_epochs_a=len(a.epochs) - horizon,
        extra_epochs_b=len(b.epochs) - horizon,
    )
