"""Direction sweeps: projected-dimension profiles and exceptional directions.

Directions live on the antipodal quotient [0, pi) since a hyperplane and its
flipped normal give the same projection.  The uniform grid with uniform
weights stands in for the rotation-invariant measure on the space of
hyperplanes; only null-versus-positive distinctions matter downstream.
"""

from dataclasses import dataclass, field

import numpy as np

from . import boxdim, cantor
from .norms import HyperplaneNormal

MIN_DIRECTIONS = 36  # coarser grids are too coarse to speak of measure


@dataclass(frozen=True)
class DirectionGrid:
    """Uniform angles on [0, pi) with uniform weights."""

    count: int
    angles: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("need at least two directions")
        angles = np.pi * np.arange(self.count) / self.count
        weights = np.full(self.count, 1.0 / self.count)
        angles.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class ExceptionalProfile:
    """Per-direction fitted slopes and fit qualities with a flagged exceptional set."""

    grid: DirectionGrid
    slopes: np.ndarray
    r2: np.ndarray
    threshold: float
    flagged: np.ndarray

    @property
    def flagged_measure(self):
        return float(np.sum(self.grid.weights[self.flagged]))


def dim_profile(norm, cloud, grid, scales, threshold=None):
    """Estimate the dimension of the closest-point shadow of a planar cloud
    under ``norm`` in every grid direction.

    Per-direction fits are never refused; slope and fit quality are
    recorded as-is and directions whose slope drops below the threshold are
    flagged.  The default threshold is min(1, full-cloud dimension) - 0.1,
    one noise floor below generic.
    """
    if grid.count < MIN_DIRECTIONS:
        raise ValueError("direction grid too coarse to speak of measure")
    if threshold is None:
        full = boxdim.estimate_dim(cloud)
        threshold = min(1.0, full.slope) - 0.1

    normals = (HyperplaneNormal.from_angle(angle) for angle in grid.angles)
    fit = boxdim.fit_loglog(scales, boxdim.projected_counts(norm, cloud, normals, scales))
    return ExceptionalProfile(grid=grid, slopes=fit.slope, r2=fit.r2,
                              threshold=float(threshold), flagged=fit.slope < threshold)


def gauss_pushforward_measure(norm, K, level):
    """Bounds on the angular measure of the Gauss image of the Cantor arc.

    For the staircase-built norm this is the certified gap-sum bracket of
    the curve the norm was built from, summed to ``level``: its positive
    lower bound witnesses a set of directions of dimension below one being
    blown up to positive measure.  A support table that carries no curve,
    or one built from a set other than ``K``, is refused.  For the Euclidean
    norm the Gauss map is the identity, so the pushforward measure is
    squeezed by the level-``level`` covering of K and tends to zero.
    """
    if norm.kind == "euclidean":
        return 0.0, float(K.m * K.r) ** level
    if norm.kind == "support_table" and norm.curve is not None and norm.curve.K == K:
        return cantor.image_measure_bounds(norm.curve, level)
    raise ValueError(
        "pushforward bounds exist for the euclidean norm and for a norm built from K only"
    )
