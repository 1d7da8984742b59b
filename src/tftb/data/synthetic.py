"""Synthetic desk-scale datasets for the classification and counting tasks.

The classification generator plants one Gaussian-scale cluster per class on a
circle (unit cluster scale).  An ``easy_fraction`` of each class is
near-duplicated prototypes close to the class centroid -- redundant, quickly
learned samples -- while the remainder sits out near the decision boundary to
a neighbouring class, interlocked in two crescents whose curved margin is
slow to carve.  That mix is what a loss-ranked subset can exploit: redundant
samples stop paying for themselves early, boundary samples keep paying.

The counting generator renders blob images from random dot maps and pairs
them with density-map ground truth, exercising the same math as the
full-scale point-annotated datasets at a fraction of the size.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .dataset import Dataset
from .density import DotMap, density_map

# cluster geometry for synth_classification (unit cluster scale)
_SEPARATION = 3.0
_PROTO_RADIUS = 0.45
_JITTER_RADIUS = 0.15
_NUISANCE_EASY = 0.15
# hard samples interlock in two crescents per class boundary: learnable with
# a clean margin, but the curved boundary is slow to carve, so accuracy there
# keeps paying for extra updates for many epochs
_MOON_SCALE = 0.9
_MOON_NOISE = 0.13
_NUISANCE_HARD = 0.30


def _unit_disk(rng: np.random.Generator, radius: float) -> np.ndarray:
    angle = rng.uniform(0.0, 2.0 * np.pi)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0))
    return np.array([r * np.cos(angle), r * np.sin(angle)])


def synth_classification(
    seed: int,
    n_per_class: int,
    num_classes: int,
    easy_fraction: float,
    feature_dim: int = 4,
    split_tag: str = "train",
) -> Dataset:
    """Gaussian class clusters with redundant-easy and boundary-hard samples.

    Deterministic in ``seed``.  With ``easy_fraction=1.0`` every sample lies
    within one cluster scale of its class centroid by construction.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    if not 0.0 <= easy_fraction <= 1.0:
        raise ConfigError(f"easy_fraction must be in [0, 1], got {easy_fraction}")
    if feature_dim < 2:
        raise ConfigError(f"feature_dim must be >= 2, got {feature_dim}")

    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centroids = _SEPARATION * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    n_easy = int(round(easy_fraction * n_per_class))
    n_extra = feature_dim - 2

    n_total = num_classes * n_per_class
    features = np.empty((n_total, feature_dim))
    for c in range(num_classes):
        # rows of class c: its easy samples, then its hard ones
        easy, hard = np.split(features[c * n_per_class : (c + 1) * n_per_class], [n_easy])
        center = centroids[c]
        n_proto = max(1, n_easy // 8) if n_easy else 0
        protos = [center + _unit_disk(rng, _PROTO_RADIUS) for _ in range(n_proto)]
        for i in range(n_easy):
            easy[i, :2] = protos[i % n_proto] + _unit_disk(rng, _JITTER_RADIUS)
            easy[i, 2:] = rng.uniform(-_NUISANCE_EASY, _NUISANCE_EASY, size=n_extra)
        for i in range(n_per_class - n_easy):
            neighbour_class = (c + (1 if i % 2 == 0 else -1)) % num_classes
            # one canonical frame per unordered class pair so both classes'
            # crescents land interlocked at the same midline
            lo, hi = min(c, neighbour_class), max(c, neighbour_class)
            midpoint = 0.5 * (centroids[lo] + centroids[hi])
            axis = centroids[hi] - centroids[lo]
            axis = axis / np.linalg.norm(axis)
            perp = np.array([-axis[1], axis[0]])
            t = rng.uniform(0.0, np.pi)
            if c == lo:
                local = np.array([np.cos(t), np.sin(t)])
            else:
                local = np.array([1.0 - np.cos(t), 0.5 - np.sin(t)])
            local -= np.array([0.5, 0.125])  # center the moon pair on the midline
            hard[i, :2] = (
                midpoint
                + _MOON_SCALE * (local[0] * axis + local[1] * perp)
                + rng.normal(0.0, _MOON_NOISE, size=2)
            )
            hard[i, 2:] = rng.normal(0.0, _NUISANCE_HARD, size=n_extra)

    return Dataset(
        np.arange(n_total),
        features,
        np.repeat(np.arange(num_classes), n_per_class),
        num_classes=num_classes,
        split_tag=split_tag,
        meta={
            "generator": "synth_classification",
            "seed": seed,
            "n_per_class": n_per_class,
            "easy_fraction": easy_fraction,
            "feature_dim": feature_dim,
        },
    )


def _render_blob(image: np.ndarray, x: float, y: float, blob_sigma: float) -> None:
    h, w = image.shape
    inv = 1.0 / (2.0 * blob_sigma * blob_sigma)
    gy = np.exp(-((np.arange(h) - y) ** 2) * inv)
    gx = np.exp(-((np.arange(w) - x) ** 2) * inv)
    image += np.outer(gy, gx)


def synth_counting(
    seed: int,
    n_images: int,
    image_size: int,
    max_objects: int,
    sigma: float,
    split_tag: str = "train",
) -> Dataset:
    """Blob images plus density-map targets; counts uniform in [0, max_objects]."""
    if image_size < 16:
        raise ConfigError(f"image_size must be >= 16, got {image_size}")
    if max_objects < 1:
        raise ConfigError(f"max_objects must be >= 1, got {max_objects}")
    if n_images < 1:
        raise ConfigError(f"n_images must be >= 1, got {n_images}")

    rng = np.random.default_rng(seed)
    images = np.empty((n_images, image_size, image_size))
    maps = np.empty((n_images, image_size, image_size))
    for i in range(n_images):
        count = int(rng.integers(0, max_objects + 1))
        points = tuple(
            (float(rng.uniform(0.0, image_size)), float(rng.uniform(0.0, image_size)))
            for _ in range(count)
        )
        maps[i] = density_map(DotMap(width=image_size, height=image_size, points=points), sigma)
        images[i] = rng.uniform(0.0, 0.05, size=(image_size, image_size))
        for x, y in points:
            _render_blob(images[i], x, y, blob_sigma=1.2)

    return Dataset(
        np.arange(n_images),
        images,
        maps,
        num_classes=0,
        split_tag=split_tag,
        meta={
            "generator": "synth_counting",
            "seed": seed,
            "n_images": n_images,
            "image_size": image_size,
            "max_objects": max_objects,
            "sigma": sigma,
        },
    )
