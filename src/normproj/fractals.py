"""Deterministic point-cloud generators for self-similar test sets.

Clouds are the midpoints of the generation-level cells of an iterated
function system, never random samples, so box counts are exact and repeat
runs byte-identical.  Point order is lexicographic in the symbol sequence.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import NotContracting, TooLarge

MAX_POINTS = 1 << 24


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

    def translated(self, offset):
        return PointCloud(
            points=self.points + np.asarray(offset, dtype=float),
            generation=self.generation,
            resolution=self.resolution,
            label=self.label + "+shift",
            base=self.base,
        )


def _natural_base(ratio):
    inv = 1.0 / ratio
    return int(round(inv)) if abs(inv - round(inv)) < 1e-9 else 2


def _cantor_starts(r, generation):
    """Left endpoints of the generation-level intervals of C_r, sorted."""
    starts = np.array([0.0])
    length = 1.0
    for _ in range(generation):
        starts = np.sort(np.concatenate([starts * r, starts * r + (1.0 - r)]))
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


@dataclass(frozen=True)
class Similarity:
    """Contracting similarity x -> ratio * R(angle) x + offset."""

    ratio: float
    offset: np.ndarray
    angle: float = 0.0

    def __post_init__(self):
        off = np.atleast_1d(np.asarray(self.offset, dtype=float))
        off.flags.writeable = False
        object.__setattr__(self, "offset", off)
        if abs(self.ratio) >= 1.0:
            raise NotContracting(f"ratio {self.ratio} is not a contraction")

    @property
    def dim(self):
        return len(self.offset)

    def apply(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.dim == 2 and self.angle != 0.0:
            c, s = np.cos(self.angle), np.sin(self.angle)
            rot = np.array([[c, -s], [s, c]])
            pts = pts @ rot.T
        return self.ratio * pts + self.offset


def ifs_attractor(maps, generation):
    """Cell midpoints of the forward orbit of the unit cube center.

    The open-set condition is not checked; overlapping systems simply yield
    overlapping clouds.
    """
    if not maps:
        raise ValueError("need at least one map")
    dim = maps[0].dim
    if any(m.dim != dim for m in maps):
        raise ValueError("all maps must share a dimension")
    if generation < 0:
        raise ValueError("generation must be non-negative")
    if len(maps) ** generation > MAX_POINTS:
        raise TooLarge("generation would exceed the point budget")
    pts = np.full((1, dim), 0.5)
    for _ in range(generation):
        pts = np.concatenate([m.apply(pts) for m in maps], axis=0)
    ratio_max = max(abs(m.ratio) for m in maps)
    ratios = {round(abs(m.ratio), 12) for m in maps}
    base = _natural_base(ratio_max) if len(ratios) == 1 else 2
    return PointCloud(
        points=pts,
        generation=generation,
        resolution=ratio_max**generation * np.sqrt(dim),
        label=f"ifs({len(maps)} maps)",
        base=base,
    )


def triadic_cloud(generation):
    """Level-``generation`` cell midpoints of the triadic Cantor set (1-D)."""
    maps = [
        Similarity(ratio=1.0 / 3.0, offset=np.array([0.0])),
        Similarity(ratio=1.0 / 3.0, offset=np.array([2.0 / 3.0])),
    ]
    cloud = ifs_attractor(maps, generation)
    return PointCloud(
        points=cloud.points,
        generation=generation,
        resolution=(1.0 / 3.0) ** generation,
        label="triadic_cantor",
        base=3,
    )


def square_cloud(generation):
    """Midpoints of all dyadic cells of the unit square (box dimension 2)."""
    maps = [
        Similarity(ratio=0.5, offset=np.array([0.0, 0.0])),
        Similarity(ratio=0.5, offset=np.array([0.5, 0.0])),
        Similarity(ratio=0.5, offset=np.array([0.0, 0.5])),
        Similarity(ratio=0.5, offset=np.array([0.5, 0.5])),
    ]
    cloud = ifs_attractor(maps, generation)
    return PointCloud(
        points=cloud.points,
        generation=generation,
        resolution=0.5**generation * np.sqrt(2.0),
        label="unit_square",
        base=2,
    )


def circle_cloud(count=4096):
    """Evenly spaced points of the unit circle (shadow length 2 everywhere)."""
    t = 2.0 * np.pi * np.arange(count) / count
    pts = np.column_stack([np.cos(t), np.sin(t)])
    return PointCloud(
        points=pts,
        generation=0,
        resolution=2.0 * np.pi / count,
        label="unit_circle",
        base=2,
    )
