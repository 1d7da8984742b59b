"""CIFAR-10 binary-format loader.

The distributed binary batches hold 10000 records each; one record is exactly
3073 bytes: a single label byte (0..9) followed by 3072 channel-major pixel
bytes (1024 red, 1024 green, 1024 blue, rows within a channel).  Pixels are
scaled to [0, 1] and then normalised per channel with constants computed from
the training split; the constants travel in ``Dataset.meta`` so they can be
echoed into the run manifest.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from ..errors import CorruptDataError
from .dataset import Dataset

RECORD_BYTES = 3073
PIXELS = 3072
CHANNEL = 1024
RECORDS_PER_FILE = 10000
NUM_CLASSES = 10
TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
TEST_FILE = "test_batch.bin"
# records per chunk of channel_stats' deviation pass: an 8 MiB temporary
STATS_CHUNK_RECORDS = (1 << 20) // PIXELS


def _read_records(path) -> np.ndarray:
    """The validated records of one binary batch: uint8, shape (n, 3073)."""
    blob = Path(path).read_bytes()
    if len(blob) == 0 or len(blob) % RECORD_BYTES != 0:
        k = len(blob) // RECORD_BYTES + 1
        raise CorruptDataError(
            f"{path}: {len(blob)} bytes is not a whole number of {RECORD_BYTES}-byte "
            f"records (nearest: {k * RECORD_BYTES})"
        )
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    labels = records[:, 0]
    bad = np.flatnonzero(labels > NUM_CLASSES - 1)
    if bad.size:
        i = int(bad[0])
        raise CorruptDataError(
            f"{path}: corrupt record {i} at byte offset {i * RECORD_BYTES}: "
            f"label byte {int(labels[i])} > 9"
        )
    return records


def read_batch_file(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse one binary batch: (labels uint8 (n,), pixels float64 (n, 3072) in [0,1]).

    Accepts any whole number of records; ``load_cifar10`` enforces the
    10000-records-per-file convention on top of this.
    """
    records = _read_records(path)
    return records[:, 0].copy(), records[:, 1:].astype(np.float64) / 255.0


def _read_split(paths) -> tuple[np.ndarray, np.ndarray]:
    """(int64 labels, float64 pixels in [0,1]) of whole files; one float64 copy."""
    expected = RECORDS_PER_FILE * RECORD_BYTES
    records = []
    for path in paths:
        actual = os.path.getsize(path)
        if actual != expected:
            raise CorruptDataError(f"{path}: expected {expected} bytes, got {actual}")
        records.append(_read_records(path))
    records = np.concatenate(records)
    pixels = records[:, 1:].astype(np.float64)
    pixels /= 255.0
    return records[:, 0].astype(np.int64), pixels


def channel_stats(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean/std of [0,1]-scaled pixels, channels in R,G,B order.

    The squared deviations are summed one chunk of ``STATS_CHUNK_RECORDS``
    records at a time, so the temporary stays the same size at any N.
    """
    per_channel = pixels.reshape(-1, 3, CHANNEL)
    mean = per_channel.mean(axis=(0, 2))
    squares = np.zeros(3)
    for lo in range(0, len(per_channel), STATS_CHUNK_RECORDS):
        dev = per_channel[lo : lo + STATS_CHUNK_RECORDS] - mean[:, None]
        dev *= dev
        squares += dev.sum(axis=(0, 2))
    std = np.sqrt(squares / (len(per_channel) * CHANNEL))
    return mean, np.where(std == 0.0, 1.0, std)


def _normalize(pixels: np.ndarray, mean: np.ndarray, std: np.ndarray) -> None:
    """Normalise per channel, in place."""
    shaped = pixels.reshape(-1, 3, CHANNEL)
    shaped -= mean[None, :, None]
    shaped /= std[None, :, None]


def load_cifar10(directory) -> tuple[Dataset, Dataset]:
    """Load the six standard binary batches into (train, test) datasets."""
    directory = Path(directory)
    train_labels, train_pixels = _read_split([directory / name for name in TRAIN_FILES])
    mean, std = channel_stats(train_pixels)
    _normalize(train_pixels, mean, std)
    test_labels, test_pixels = _read_split([directory / TEST_FILE])
    _normalize(test_pixels, mean, std)
    meta = {
        "channel_mean": [float(m) for m in mean],
        "channel_std": [float(s) for s in std],
    }

    def split(labels, pixels, split_tag):
        ids = np.arange(len(labels))
        return Dataset(ids, pixels, labels, NUM_CLASSES, split_tag, dict(meta))

    return split(train_labels, train_pixels, "train"), split(test_labels, test_pixels, "test")
