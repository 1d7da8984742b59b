"""Dataset abstraction with stable per-sample ids, stored as arrays.

Ids are assigned at load/generation time and never reassigned afterwards: the
subset machinery tracks samples exclusively by id, so any selected/excluded
partition can always be reconciled against the original dataset.  Rows are
sorted by ascending id once, at construction, so every consumer can take row
order as id order and find an id with ``np.searchsorted(dataset.ids, id)``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..errors import ConfigError, ShapeError, check_count

# the one class of a density-map dataset, where stratification is off
UNSTRATIFIED = -1


def _as_array(split_tag: str, name: str, values, dtype=None) -> np.ndarray:
    try:
        out = np.asarray(values, dtype=dtype)
    except (TypeError, ValueError):
        out = None
    if out is None or out.dtype.kind not in "iuf":
        raise ShapeError(f"{split_tag}: {name} rows do not form one numeric array (mixed shapes?)")
    return out


@dataclass(eq=False)
class Dataset:
    """One array per field, row ``r`` of each belonging to sample ``ids[r]``.

    ``ids`` is ``(N,)`` int64, ``features`` ``(N, *feature_shape)`` float64,
    and ``targets`` either ``(N,)`` int64 class labels in ``[0, num_classes)``
    or ``(N, *map_shape)`` float64 density maps.
    """

    ids: np.ndarray
    features: np.ndarray
    targets: np.ndarray
    num_classes: int
    split_tag: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        tag = self.split_tag
        ids = _as_array(tag, "id", self.ids)
        features = _as_array(tag, "feature", self.features, np.float64)
        targets = _as_array(tag, "target", self.targets)
        if ids.size and ids.dtype.kind == "f":
            raise ConfigError(f"{tag}: sample ids must be integers, got dtype {ids.dtype}")
        ids = ids.astype(np.int64, copy=False)
        labelled = targets.dtype.kind in "iu"
        targets = targets.astype(np.int64 if labelled else np.float64, copy=False)
        if ids.ndim != 1:
            raise ShapeError(f"{tag}: ids must be one-dimensional, got shape {ids.shape}")
        n = ids.size
        for name, arr in (("features", features), ("targets", targets)):
            if arr.shape[:1] != (n,):
                raise ShapeError(f"{tag}: {n} ids but {name} of shape {arr.shape}")
        if labelled and targets.ndim != 1:
            raise ShapeError(f"{tag}: one class label per sample, got shape {targets.shape}")

        if (ids[1:] <= ids[:-1]).any():
            order = np.argsort(ids, kind="stable")
            ids, features, targets = ids[order], features[order], targets[order]
            repeated = ids[1:] == ids[:-1]
            if repeated.any():
                raise ConfigError(f"{tag}: duplicate sample ids, e.g. {ids[repeated.argmax()]}")
        if n and ids[0] < 0:
            raise ConfigError(f"{tag}: negative sample id {ids[0]}")
        if labelled:
            bad = (targets < 0) | (targets >= self.num_classes)
            if bad.any():
                k = bad.argmax()
                raise ConfigError(
                    f"{tag}: sample {ids[k]} label {targets[k]} "
                    f"outside [0, {self.num_classes})"
                )
        self.ids, self.features, self.targets = ids, features, targets

    def __len__(self) -> int:
        return self.ids.size

    @property
    def feature_shape(self) -> tuple[int, ...]:
        return self.features.shape[1:] if len(self) else ()

    @cached_property
    def class_rows(self) -> dict[int, np.ndarray]:
        """{class: its rows, ascending} for each class present, ascending;
        a density-map dataset is the one group ``UNSTRATIFIED``.  Made on
        first use and shared by every reader, so the rows are read-only."""
        if self.targets.dtype != np.int64:
            groups = {UNSTRATIFIED: np.arange(len(self))}
        else:
            rows = (np.flatnonzero(self.targets == c) for c in range(self.num_classes))
            groups = {c: r for c, r in enumerate(rows) if r.size}
        for r in groups.values():
            r.flags.writeable = False
        return groups

    def fingerprint(self) -> str:
        """Stable digest of structure plus a data subsample.

        Hashes split/shape/id structure and the raw bytes of up to 64 evenly
        spaced samples; enough to detect two runs evaluating different data
        without paying for a full-corpus hash on large datasets.
        """
        h = hashlib.sha256()
        h.update(self.split_tag.encode())
        h.update(str(self.num_classes).encode())
        h.update(str(len(self)).encode())
        h.update(repr(self.feature_shape).encode())
        h.update(self.ids.tobytes())
        for r in range(0, len(self), max(1, len(self) // 64)):
            target = self.targets[r]
            h.update(self.features[r].tobytes())
            h.update(target.tobytes() if target.ndim else str(target).encode())
        return h.hexdigest()


def train_val_split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded split; ids are retained so the two parts stay disjoint by id."""
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(check_count("seed", seed, 0))
    order = rng.permutation(len(dataset))
    n_val = max(1, int(round(val_fraction * len(dataset))))
    is_val = np.zeros(len(dataset), dtype=bool)
    is_val[order[:n_val]] = True

    def part(rows, split_tag):
        return Dataset(
            dataset.ids[rows], dataset.features[rows], dataset.targets[rows],
            dataset.num_classes, split_tag, dict(dataset.meta),
        )

    return part(~is_val, "train"), part(is_val, "val")
