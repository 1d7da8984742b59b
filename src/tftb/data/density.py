"""Dot-map annotations and density-map ground truth.

A dot map marks object positions as (x, y) pixel coordinates.  Its density
map places one Gaussian kernel per point, each renormalised to unit in-bounds
mass, so the map integrates exactly to the object count even for points near
the border.  Predicted counts are recovered downstream as the sum of a
predicted map.

One renderer, ``_render_kernels``, draws every Gaussian kernel of the
package: the maps of ``density_map`` and the blob images and density maps
of ``synth_counting``.  It takes a stack of maps and each map's points in
order, and adds them in one object slot at a time: slot j is every map's
j-th point, so each map still receives its kernels in point order and is the
same bytes as one built a point at a time.  Within a slot no map repeats, so
a block of a slot's kernels goes into its maps with one indexed add.  A
block holds at most ``_BLOCK_BYTES`` of kernels, and at least one kernel, so
every temporary of a block stays under glibc's default 128 KiB mmap
threshold.  glibc gives an array at or above it its own mapping, and
freeing one raises the threshold to its size, so the process's later arrays
up to that size land elsewhere: with 1.2 MB blocks the counting benchmark
trained slower and held more memory afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, check_count

# most bytes of one block of kernels; under glibc's 128 KiB mmap threshold
_BLOCK_BYTES = 96 * 1024


@dataclass(frozen=True)
class DotMap:
    width: int
    height: int
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "width", check_count("dot map width", self.width, 1))
        object.__setattr__(self, "height", check_count("dot map height", self.height, 1))
        x, y = _point_array(self.points).T
        outside = ~((0 <= x) & (x < self.width) & (0 <= y) & (y < self.height))
        if outside.any():
            x, y = self.points[int(outside.argmax())]
            raise ConfigError(
                f"dot map point ({x}, {y}) outside [0, {self.width}) x [0, {self.height})"
            )

    @property
    def count(self) -> int:
        return len(self.points)


def _point_array(points) -> np.ndarray:
    """``(x, y)`` pairs as a float64 array of shape (count, 2)."""
    return np.array(points, dtype=np.float64).reshape(len(points), 2)


def check_sigma(sigma) -> None:
    if not 0 < sigma < math.inf:
        raise ConfigError(f"sigma must be positive and finite, got {sigma}")


def _render_kernels(
    out: np.ndarray, points: np.ndarray, counts: np.ndarray, sigma: float, unit_mass: bool
) -> None:
    """Add to each map ``out[i]`` the kernel of each of its points
    ``points[i, :counts[i]]``, in point order.

    A kernel of point ``(px, py)`` is ``exp(-(y - py)^2 inv) * exp(-(x - px)^2
    inv)``, ``inv = 1 / (2 sigma^2)``, sampled at integer pixel coordinates and
    divided by its own in-bounds total if ``unit_mass``.  ``out`` is ``(n,
    height, width)``, ``points`` ``(n, slots, 2)``; points past a map's count
    are never read.
    """
    height, width = out.shape[1:]
    block = max(1, _BLOCK_BYTES // (8 * height * width))
    inv = 1.0 / (2.0 * sigma * sigma)
    pixels = np.arange(max(height, width), dtype=np.float64)
    for slot in range(points.shape[1]):
        maps = np.flatnonzero(counts > slot)
        for start in range(0, maps.size, block):
            rows = maps[start : start + block]
            # [k, 0] and [k, 1] are point k's profiles along x and along y;
            # d^2 * -inv is -(d^2) * inv, bit for bit
            profiles = np.exp((pixels - points[rows, slot, :, None]) ** 2 * -inv)
            # one product per pixel, as ``*`` gives, in fewer and longer loops
            kernels = np.einsum("ky,kx->kyx", profiles[:, 1, :height], profiles[:, 0, :width])
            if unit_mass:
                kernels /= kernels.reshape(rows.size, height * width).sum(axis=1)[:, None, None]
            out[rows] += kernels


def density_map(dot: DotMap, sigma: float) -> np.ndarray:
    """Ground-truth density surface of shape (height, width); sum == count.

    Each point contributes exp(-((x-px)^2 + (y-py)^2) / (2 sigma^2)) sampled
    at integer pixel coordinates, divided by its own in-bounds total.
    """
    check_sigma(sigma)
    out = np.zeros((1, dot.height, dot.width))
    _render_kernels(out, _point_array(dot.points)[None], np.array([dot.count]), sigma, True)
    return out[0]
