"""Deterministic point-cloud generators for self-similar test sets.

Clouds are the midpoints of the generation-level cells of an iterated
function system, never random samples, so box counts are exact and repeat
runs byte-identical.  Point order is lexicographic in the symbol sequence.
"""

import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import TooLarge


@dataclass(frozen=True)
class PointCloud:
    """Finite sample of a planar (or line) set with generation metadata.

    ``resolution`` is the diameter of a generation-level cell and bounds how
    far any point of the underlying set is from the cloud; ``base`` is the
    natural scale subdivision (3 for triadic, 4 for quarter constructions,
    else 2), used to pick box-counting scales aligned with self-similarity.
    """

    points: np.ndarray
    generation: int
    resolution: float
    label: str
    base: int = 2

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]


def _natural_base(ratio):
    inv = 1.0 / ratio
    return int(round(inv)) if abs(inv - round(inv)) < 1e-9 else 2


def _cantor_starts(r, generation):
    """Left endpoints of the generation-level intervals of C_r, sorted: for
    r < 1/2 the left copy ends below the right one starts."""
    starts = np.array([0.0])
    length = 1.0
    for _ in range(generation):
        starts = np.concatenate([starts * r, starts * r + (1.0 - r)])
        length *= r
    return starts, length


def cantor_product(r, generation):
    """Midpoints of the generation-level squares of C_r x C_r."""
    r = float(r)
    if not 0.0 < r < 0.5:
        raise ValueError("ratio must lie in (0, 1/2)")
    if generation < 0:
        raise ValueError("generation must be non-negative")
    if generation > 12:
        raise TooLarge("cantor_product capped at generation 12")
    if r**generation < sys.float_info.min:
        # an underflowed cell side would give the cloud resolution 0
        raise TooLarge(f"cell side {r:g}^{generation} is below the smallest normal float")
    starts, length = _cantor_starts(r, generation)
    mids = starts + 0.5 * length
    xs, ys = np.meshgrid(mids, mids, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    return PointCloud(
        points=pts,
        generation=generation,
        resolution=length * np.sqrt(2.0),
        label=f"cantor_product(r={r:g})",
        base=_natural_base(r),
    )


def four_corner(generation):
    """Midpoints of the ratio-1/4 corner cells: the standard
    dimension-one, purely unrectifiable planar test set."""
    if generation > 10:
        raise TooLarge("four_corner capped at generation 10")
    return replace(cantor_product(0.25, generation), label="four_corner")


def _ifs_points(ratio, offsets, generation, cap):
    """Images of the unit cube center under every word of ``generation``
    maps x -> ratio * x + offset, in lexicographic order of the words."""
    if generation < 0:
        raise ValueError("generation must be non-negative")
    if generation > cap:
        raise TooLarge(f"generation {generation} is above the cap {cap}")
    pts = np.full((1, offsets.shape[1]), 0.5)
    for _ in range(generation):
        pts = np.concatenate([ratio * pts + off for off in offsets], axis=0)
    return pts


def triadic_cloud(generation):
    """Level-``generation`` cell midpoints of the triadic Cantor set (1-D)."""
    return PointCloud(
        points=_ifs_points(1.0 / 3.0, np.array([[0.0], [2.0 / 3.0]]), generation, 24),
        generation=generation,
        resolution=(1.0 / 3.0) ** generation,
        label="triadic_cantor",
        base=3,
    )


def square_cloud(generation):
    """Midpoints of all dyadic cells of the unit square (box dimension 2)."""
    offsets = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
    return PointCloud(
        points=_ifs_points(0.5, offsets, generation, 12),
        generation=generation,
        resolution=0.5**generation * np.sqrt(2.0),
        label="unit_square",
        base=2,
    )
