"""Run manifests: the full record of one training run.

A manifest is a versioned JSON document carrying the echoed configuration,
one report per epoch-equivalent, the budget trace, final metrics, and the
stop reason.  A run is reproducible from its manifest's config echo and seed;
under the virtual clock the serialised document is byte-identical across
repeats (``created_at`` is only stamped from the real clock).
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ManifestError

SCHEMA_VERSION = 1

# the JSON type of every field a manifest must have; "error" and "created_at"
# may also be null or absent
FIELD_TYPES = {
    "mode": str, "seed": int, "config": dict, "dataset": dict, "epochs": list,
    "budget": dict, "final_metrics": dict, "stop_reason": str,
}
OPTIONAL_FIELD_TYPES = {"error": dict, "created_at": str}


@dataclass
class EpochReport:
    epoch: int
    phase: str  # "warmup" | "selective" | "full"
    mean_train_loss: float
    val_loss: float | None
    selected_size: int
    alpha: float
    samples_seen: int
    batches: int
    wall_seconds: float
    consumed_seconds: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunManifest:
    mode: str
    seed: int
    config: dict
    dataset: dict
    epochs: list[dict] = field(default_factory=list)
    budget: dict = field(default_factory=dict)
    final_metrics: dict = field(default_factory=dict)
    stop_reason: str = "unknown"
    error: dict | None = None
    schema_version: int = SCHEMA_VERSION
    created_at: str | None = None

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "mode": self.mode,
            "seed": self.seed,
            "config": self.config,
            "dataset": self.dataset,
            "epochs": self.epochs,
            "budget": self.budget,
            "final_metrics": self.final_metrics,
            "stop_reason": self.stop_reason,
            "error": self.error,
            "created_at": self.created_at,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ManifestError(f"manifest must be a JSON object, got {type(payload).__name__}")
        version = payload.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ManifestError(
                f"manifest schema version {version!r} not supported (expected {SCHEMA_VERSION})"
            )
        for key, kind in FIELD_TYPES.items():
            if not isinstance(payload.get(key), kind) or isinstance(payload[key], bool):
                raise ManifestError(f"manifest field {key!r} must be a {kind.__name__}")
        for key, kind in OPTIONAL_FIELD_TYPES.items():
            if not isinstance(payload.get(key, None), (kind, type(None))):
                raise ManifestError(f"manifest field {key!r} must be a {kind.__name__} or null")
        fields = {key: payload.get(key) for key in (*FIELD_TYPES, *OPTIONAL_FIELD_TYPES)}
        return cls(schema_version=version, **fields)

    @classmethod
    def load(cls, path) -> "RunManifest":
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ManifestError(f"{path}: manifest is not UTF-8 text: {exc}") from exc
        return cls.from_json(text)

    def loss_curve_rows(self) -> list[tuple[int, str, float]]:
        rows: list[tuple[int, str, float]] = []
        for report in self.epochs:
            rows.append((report["epoch"], "train", report["mean_train_loss"]))
            if report.get("val_loss") is not None:
                rows.append((report["epoch"], "val", report["val_loss"]))
        return rows

    def write_loss_curve_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "split", "loss"])
            writer.writerows(self.loss_curve_rows())


def write_ledger_csv(path, rows) -> None:
    """Append per-sample score rows (epoch, id, mean, std, effective, selected)."""
    path = Path(path)
    new_file = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["epoch", "sample_id", "mean", "std", "effective_score", "selected"])
        writer.writerows(rows)
