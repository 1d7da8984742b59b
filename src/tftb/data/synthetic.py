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

Both are deterministic in ``seed`` and read one ``np.random.default_rng(seed)``
stream in a fixed order, so a dataset is the same bytes from version to
version (the golden fingerprints in the tests pin them).  Class by class,
``synth_classification`` draws, in this order:

- for each prototype, a disk angle and radius (``uniform([0, 0], [2 pi, 1])``);
- for each easy sample, the same two, then one ``uniform(-0.15, 0.15)`` per
  nuisance column;
- for each hard sample, a crescent position ``uniform(0, pi)``, then one
  standard normal per feature column (two noise coordinates, then the
  nuisance columns).

Each run of uniform draws is one bulk call, and the samples are built with
array arithmetic in the order of the sample-at-a-time formulas.  Only the
hard samples draw one at a time: numpy's normal sampler reads a variable
number of raw values, so where the next uniform sits in the stream is known
only after drawing.

Image by image, ``synth_counting`` draws the object count ``integers(0,
max_objects + 1)``, then ``x, y`` of each object (``uniform(0,
image_size)``), then the background noise image (``uniform(0, 0.05)``).
Its loop over the images only draws, and no bulk call can replace it: how
many points an image draws, and how many raw values ``integers`` reads, are
known only after drawing.  Each run of
uniform draws is one ``random`` call into the image's row of an array, and
the arrays are scaled once after the loop, which numpy's ``uniform(0, s) =
0.0 + s * u`` makes the same bytes.  The blobs and density kernels are
rendered after the loop, every image's j-th object at once for j = 0, 1,
..., in blocks of under 128 KiB (``density._render_kernels``), so each image
still takes its kernels in object order.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, check_count
from .dataset import Dataset
from .density import _render_kernels, check_sigma

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
# blob width of the synth_counting images, in pixels
_BLOB_SIGMA = 1.2


def check_classification(n_per_class, num_classes, easy_fraction, feature_dim):
    """The argument checks of ``synth_classification``, each error naming its
    parameter; ``ExperimentSpec`` runs them on its fields.  Returns the counts as ints."""
    num_classes = check_count("num_classes", num_classes, 2)
    n_per_class = check_count("n_per_class", n_per_class, 1)
    if not 0.0 <= easy_fraction <= 1.0:
        raise ConfigError(f"easy_fraction must be in [0, 1], got {easy_fraction}")
    return n_per_class, num_classes, check_count("feature_dim", feature_dim, 2)


def check_counting(n_images, image_size, max_objects, sigma):
    """The argument checks of ``synth_counting``, each error naming its parameter;
    ``ExperimentSpec`` runs them on its fields.  Returns the counts as ints."""
    image_size = check_count("image_size", image_size, 16)
    max_objects = check_count("max_objects", max_objects, 1)
    n_images = check_count("n_images", n_images, 1)
    check_sigma(sigma)
    return n_images, image_size, max_objects


def _disk_points(angle_radius: np.ndarray, radius: float) -> np.ndarray:
    """Points in a disk of ``radius``, one per row of (angle, unit) draws:
    ``r = radius * sqrt(unit)`` at ``angle``."""
    angle = angle_radius[:, 0]
    r = radius * np.sqrt(angle_radius[:, 1])
    return np.stack([r * np.cos(angle), r * np.sin(angle)], axis=1)


def _crescent_frame(centroids: np.ndarray, c: int, neighbour: int):
    """(midpoint, axis, perp, c is the lower class) of the crescent pair
    between classes ``c`` and ``neighbour``.

    One canonical frame per unordered class pair, so both classes'
    crescents land interlocked at the same midline.
    """
    lo, hi = min(c, neighbour), max(c, neighbour)
    midpoint = 0.5 * (centroids[lo] + centroids[hi])
    axis = centroids[hi] - centroids[lo]
    axis = axis / np.linalg.norm(axis)
    perp = np.array([-axis[1], axis[0]])
    return midpoint, axis, perp, c == lo


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
    seed = check_count("seed", seed, 0)
    n_per_class, num_classes, feature_dim = check_classification(
        n_per_class, num_classes, easy_fraction, feature_dim
    )

    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    centroids = _SEPARATION * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    n_easy = int(round(easy_fraction * n_per_class))
    n_hard = n_per_class - n_easy
    n_extra = feature_dim - 2
    # per easy sample: jitter angle, jitter radius, then the nuisance columns
    easy_low = np.array([0.0, 0.0] + [-_NUISANCE_EASY] * n_extra)
    easy_high = np.array([2.0 * np.pi, 1.0] + [_NUISANCE_EASY] * n_extra)
    # per hard sample: two moon-noise coordinates, then the nuisance columns
    hard_scale = np.array([_MOON_NOISE] * 2 + [_NUISANCE_HARD] * n_extra)

    n_total = num_classes * n_per_class
    features = np.empty((n_total, feature_dim))
    for c in range(num_classes):
        # rows of class c: its easy samples, then its hard ones
        easy, hard = np.split(features[c * n_per_class : (c + 1) * n_per_class], [n_easy])
        if n_easy:
            n_proto = max(1, n_easy // 8)
            protos = centroids[c] + _disk_points(
                rng.uniform([0.0, 0.0], [2.0 * np.pi, 1.0], size=(n_proto, 2)), _PROTO_RADIUS
            )
            draws = rng.uniform(easy_low, easy_high, size=(n_easy, feature_dim))
            easy[:, :2] = protos[np.arange(n_easy) % n_proto] + _disk_points(draws, _JITTER_RADIUS)
            easy[:, 2:] = draws[:, 2:]
        if not n_hard:
            continue
        position = np.empty(n_hard)
        noise = np.empty((n_hard, feature_dim))
        for i in range(n_hard):
            position[i] = rng.random()
            rng.standard_normal(out=noise[i])
        # numpy computes uniform(0, pi) as 0.0 + pi * u and normal(0, s) as
        # 0.0 + s * z; the same arithmetic gives the same bytes
        t = 0.0 + np.pi * position
        noise *= hard_scale
        noise += 0.0
        # even hard rows face the next class, odd ones the previous
        for parity, step in ((0, 1), (1, -1)):
            rows = slice(parity, None, 2)
            midpoint, axis, perp, lower = _crescent_frame(
                centroids, c, (c + step) % num_classes
            )
            cos_t, sin_t = np.cos(t[rows]), np.sin(t[rows])
            if lower:
                l0, l1 = cos_t, sin_t
            else:
                l0, l1 = 1.0 - cos_t, 0.5 - sin_t
            # center the moon pair on the midline
            l0 = (l0 - 0.5)[:, None]
            l1 = (l1 - 0.125)[:, None]
            hard[rows, :2] = midpoint + _MOON_SCALE * (l0 * axis + l1 * perp) + noise[rows, :2]
        hard[:, 2:] = noise[:, 2:]

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


def synth_counting(
    seed: int,
    n_images: int,
    image_size: int,
    max_objects: int,
    sigma: float,
    split_tag: str = "train",
) -> Dataset:
    """Blob images plus density-map targets; counts uniform in [0, max_objects]."""
    seed = check_count("seed", seed, 0)
    n_images, image_size, max_objects = check_counting(n_images, image_size, max_objects, sigma)

    rng = np.random.default_rng(seed)
    counts = np.empty(n_images, dtype=np.int64)
    # (x, y) of each image's objects, in object order; slots past its count
    # stay 0 and are never rendered
    points = np.zeros((n_images, max_objects, 2))
    images = np.empty((n_images, image_size, image_size))
    for i in range(n_images):
        counts[i] = count = rng.integers(0, max_objects + 1)
        rng.random(out=points[i, :count])
        rng.random(out=images[i])
    # numpy computes uniform(0, s) as 0.0 + s * u; the same product gives the
    # same bytes, and adding 0.0 to it changes none
    points *= image_size
    images *= 0.05
    maps = np.zeros((n_images, image_size, image_size))
    _render_kernels(maps, points, counts, sigma, True)
    _render_kernels(images, points, counts, _BLOB_SIGMA, False)

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
