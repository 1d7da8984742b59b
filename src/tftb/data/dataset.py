"""Dataset abstraction with stable per-sample ids.

Ids are assigned at load/generation time and never reassigned afterwards: the
subset machinery tracks samples exclusively by id, so any selected/excluded
partition can always be reconciled against the original dataset.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..errors import ConfigError, ShapeError

# class_tag value for regression datasets, where stratification is off
UNSTRATIFIED = -1


@dataclass(frozen=True)
class SampleRecord:
    id: int
    features: np.ndarray
    target: Union[int, np.ndarray]
    class_tag: int


@dataclass
class Dataset:
    samples: list[SampleRecord]
    num_classes: int
    split_tag: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"{self.split_tag}: duplicate sample ids")
        if any(i < 0 for i in ids):
            raise ConfigError(f"{self.split_tag}: negative sample id")
        shapes = {tuple(s.features.shape) for s in self.samples}
        if len(shapes) > 1:
            raise ShapeError(f"{self.split_tag}: mixed feature shapes {sorted(shapes)}")
        for s in self.samples:
            if s.class_tag != UNSTRATIFIED and not (0 <= s.class_tag < self.num_classes):
                raise ConfigError(
                    f"{self.split_tag}: sample {s.id} class_tag {s.class_tag} "
                    f"outside [0, {self.num_classes})"
                )

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def ids(self) -> list[int]:
        return [s.id for s in self.samples]

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return tuple(self.samples[0].features.shape) if self.samples else ()

    def class_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for s in self.samples:
            sizes[s.class_tag] = sizes.get(s.class_tag, 0) + 1
        return sizes

    def fingerprint(self) -> str:
        """Stable digest of structure plus a data subsample.

        Hashes split/shape/id structure and the raw bytes of up to 64 evenly
        spaced samples; enough to detect two runs evaluating different data
        without paying for a full-corpus hash on large datasets.
        """
        h = hashlib.sha256()
        h.update(self.split_tag.encode())
        h.update(str(self.num_classes).encode())
        h.update(str(len(self.samples)).encode())
        h.update(repr(self.feature_shape).encode())
        h.update(np.asarray(self.ids, dtype=np.int64).tobytes())
        n = len(self.samples)
        if n:
            step = max(1, n // 64)
            for s in self.samples[::step]:
                h.update(np.ascontiguousarray(s.features, dtype=np.float64).tobytes())
                if isinstance(s.target, np.ndarray):
                    h.update(np.ascontiguousarray(s.target, dtype=np.float64).tobytes())
                else:
                    h.update(str(s.target).encode())
        return h.hexdigest()


def train_val_split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded split; ids are retained so the two parts stay disjoint by id."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset.samples))
    n_val = max(1, int(round(val_fraction * len(dataset.samples))))
    val_idx = set(order[:n_val].tolist())
    train_samples = [s for i, s in enumerate(dataset.samples) if i not in val_idx]
    val_samples = [s for i, s in enumerate(dataset.samples) if i in val_idx]
    train = Dataset(train_samples, dataset.num_classes, "train", dict(dataset.meta))
    val = Dataset(val_samples, dataset.num_classes, "val", dict(dataset.meta))
    return train, val
