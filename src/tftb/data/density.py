"""Dot-map annotations and density-map ground truth.

A dot map marks object positions as (x, y) pixel coordinates.  Its density
map places one Gaussian kernel per point, each renormalised to unit in-bounds
mass, so the map integrates exactly to the object count even for points near
the border.  Predicted counts are recovered downstream as the sum of a
predicted map.  All of a map's kernels are evaluated in one array operation
each; they are summed into the map in point order, so the map is the same
bytes as one built a point at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, check_count


@dataclass(frozen=True)
class DotMap:
    width: int
    height: int
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "width", check_count("dot map width", self.width, 1))
        object.__setattr__(self, "height", check_count("dot map height", self.height, 1))
        for x, y in self.points:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ConfigError(
                    f"dot map point ({x}, {y}) outside [0, {self.width}) x [0, {self.height})"
                )

    @property
    def count(self) -> int:
        return len(self.points)


def check_sigma(sigma) -> None:
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")


def gaussian_kernels(points: np.ndarray, height: int, width: int, inv: float) -> np.ndarray:
    """One unnormalised Gaussian per row ``(x, y)`` of ``points``, sampled at
    integer pixel coordinates: ``exp(-(y - py)^2 inv) * exp(-(x - px)^2 inv)``,
    shape ``(count, height, width)``."""
    # [k, 0] and [k, 1] are point k's profiles along x and along y
    profiles = np.exp(
        -((np.arange(max(height, width), dtype=np.float64) - points[:, :, None]) ** 2) * inv
    )
    return profiles[:, 1, :height, None] * profiles[:, 0, None, :width]


def density_map(dot: DotMap, sigma: float) -> np.ndarray:
    """Ground-truth density surface of shape (height, width); sum == count.

    Each point contributes exp(-((x-px)^2 + (y-py)^2) / (2 sigma^2)) sampled
    at integer pixel coordinates, divided by its own in-bounds total.
    """
    check_sigma(sigma)
    points = np.array(dot.points, dtype=np.float64).reshape(-1, 2)
    kernels = gaussian_kernels(points, dot.height, dot.width, 1.0 / (2.0 * sigma * sigma))
    kernels /= kernels.reshape(dot.count, dot.height * dot.width).sum(axis=1)[:, None, None]
    out = np.zeros((dot.height, dot.width))
    for kernel in kernels:
        out += kernel
    return out
