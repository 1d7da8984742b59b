"""Dot-map annotations and density-map ground truth.

A dot map marks object positions as (x, y) pixel coordinates.  Its density
map places one Gaussian kernel per point, each renormalised to unit in-bounds
mass, so the map integrates exactly to the object count even for points near
the border.  Predicted counts are recovered downstream as the sum of a
predicted map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass(frozen=True)
class DotMap:
    width: int
    height: int
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"dot map size {self.width}x{self.height} is empty")
        for x, y in self.points:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ConfigError(
                    f"dot map point ({x}, {y}) outside [0, {self.width}) x [0, {self.height})"
                )

    @property
    def count(self) -> int:
        return len(self.points)


def density_map(dot: DotMap, sigma: float) -> np.ndarray:
    """Ground-truth density surface of shape (height, width); sum == count.

    Each point contributes exp(-((x-px)^2 + (y-py)^2) / (2 sigma^2)) sampled
    at integer pixel coordinates, divided by its own in-bounds total.
    """
    if not sigma > 0:
        raise ConfigError(f"sigma must be positive, got {sigma}")
    out = np.zeros((dot.height, dot.width))
    ys = np.arange(dot.height, dtype=np.float64)
    xs = np.arange(dot.width, dtype=np.float64)
    inv = 1.0 / (2.0 * sigma * sigma)
    for px, py in dot.points:
        gy = np.exp(-((ys - py) ** 2) * inv)
        gx = np.exp(-((xs - px) ** 2) * inv)
        kernel = np.outer(gy, gx)
        out += kernel / kernel.sum()
    return out
