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
from .nn.models import BatchStep, ModelParams, check_inputs, forward, mean_of_losses, output_losses

HIGHER_IS_BETTER = {"accuracy"}
CLASSIFIER_EVAL_ROWS = 256  # rows per forward pass of evaluate_classifier
COUNTER_EVAL_ROWS = 64  # and of evaluate_counter


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


def predicted_count(density: np.ndarray) -> np.ndarray:
    """Counts read off density maps ``(N, H, W)``: each map's sum, clipped below at 0."""
    return np.maximum(density.reshape(len(density), -1).sum(axis=1), 0.0)


def _evaluate(params: ModelParams, dataset, loss_kind: str, rows: int, read):
    """The checked targets of ``dataset``, ``read(output)`` of every sample and
    the mean loss, one forward pass and one partial loss sum per ``rows`` samples."""
    if len(dataset) == 0:
        raise ValueError(f"{dataset.split_tag}: cannot evaluate an empty split")
    feats, targets = check_inputs(params.arch, dataset.features, dataset.targets, loss_kind)
    step = BatchStep(params.arch, rows, loss_kind)
    reads, losses = [], np.empty(len(dataset))
    for lo in range(0, len(dataset), rows):
        output = forward(params, feats[lo : lo + rows], step)
        reads.append(read(output))
        losses[lo : lo + rows] = output_losses(output, targets[lo : lo + rows], step)
    return targets, np.concatenate(reads), mean_of_losses(losses, rows)


def evaluate_classifier(params: ModelParams, dataset) -> dict:
    """Accuracy and mean cross-entropy, one forward pass per batch."""
    targets, predictions, mean_loss = _evaluate(
        params, dataset, "cross_entropy", CLASSIFIER_EVAL_ROWS, lambda out: np.argmax(out, axis=1)
    )
    return {"accuracy": accuracy(predictions, targets), "mean_loss": mean_loss,
            "n_samples": len(dataset)}


def evaluate_counter(params: ModelParams, dataset) -> dict:
    """Count errors and mean pixelwise L2 loss, one forward pass per batch."""
    maps, est_counts, mean_loss = _evaluate(
        params, dataset, "pixelwise_l2", COUNTER_EVAL_ROWS, predicted_count
    )
    mae, mse = counting_errors(est_counts, maps.reshape(len(maps), -1).sum(axis=1))
    return {"mae": mae, "mse": mse, "rmse": float(np.sqrt(mse)), "mean_loss": mean_loss,
            "n_samples": len(dataset)}


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
    # a metric a run did not measure (no validation data, say) is null
    shared = [k for k, v in a.final_metrics.items()
              if k != "n_samples" and v is not None and b.final_metrics.get(k) is not None]
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
