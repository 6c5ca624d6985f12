from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from normproj import boxdim, cantor, fractals, norms, projections, sweep
from normproj.fractals import PointCloud


def test_direction_grid_uniform():
    grid = sweep.DirectionGrid(36)
    assert len(grid.angles) == 36
    assert np.allclose(np.diff(grid.angles), np.pi / 36)
    assert grid.angles[0] == 0.0
    assert grid.angles[-1] < np.pi
    assert np.sum(grid.weights) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sweep.DirectionGrid(1)


def test_dim_profile_square_everywhere_one():
    grid = sweep.DirectionGrid(36)
    cloud = fractals.square_cloud(9)
    scales = [2.0**-k for k in range(3, 8)]
    prof = sweep.dim_profile(norms.euclidean(), cloud, grid, scales)
    assert np.all(np.abs(prof.slopes - 1.0) <= 0.05)
    assert prof.flagged_measure == 0.0
    assert prof.threshold == pytest.approx(0.9, abs=1e-9)


def test_dim_profile_cantor_product_exceptional_axes():
    grid = sweep.DirectionGrid(36)
    cloud = fractals.cantor_product(1.0 / 3.0, 7)
    scales = [3.0**-k for k in range(2, 7)]
    prof = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=0.9)
    assert prof.slopes[0] == pytest.approx(np.log(2) / np.log(3), abs=0.02)
    assert prof.slopes[18] == pytest.approx(np.log(2) / np.log(3), abs=0.02)  # pi/2
    assert prof.slopes[9] == pytest.approx(1.0, abs=0.06)  # pi/4 diagonal
    assert bool(prof.flagged[0]) and bool(prof.flagged[18])
    assert prof.flagged_measure <= 0.2


def test_dim_profile_grid_guard():
    grid = sweep.DirectionGrid(12)
    cloud = fractals.square_cloud(6)
    with pytest.raises(ValueError):
        sweep.dim_profile(norms.euclidean(), cloud, grid, [0.25, 0.125])


def test_profile_translation_stability():
    grid = sweep.DirectionGrid(36)
    cloud = fractals.cantor_product(1.0 / 3.0, 6)
    scales = [3.0**-k for k in range(2, 6)]
    base = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=0.9)
    moved = sweep.dim_profile(
        norms.euclidean(), replace(cloud, points=cloud.points + np.array([0.37, -1.2])), grid, scales, threshold=0.9
    )
    assert np.array_equal(base.flagged, moved.flagged)
    assert np.mean(np.abs(base.slopes - moved.slopes)) <= 0.05


def test_profile_rotation_equivariance():
    # quarter turn of a grid-aligned cloud rolls the profile by 90 degrees
    grid = sweep.DirectionGrid(36)
    cloud = fractals.cantor_product(1.0 / 3.0, 6)
    scales = [3.0**-k for k in range(2, 6)]
    base = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=0.9)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    turned = PointCloud(points=cloud.points @ rot.T, generation=cloud.generation,
                        resolution=cloud.resolution, label="rot", base=cloud.base)
    prof = sweep.dim_profile(norms.euclidean(), turned, grid, scales, threshold=0.9)
    assert np.allclose(prof.slopes, np.roll(base.slopes, 18), atol=1e-12)
    assert np.array_equal(prof.flagged, np.roll(base.flagged, 18))


def test_angle_family_profile_is_reindexed_euclidean():
    # constant alpha = pi/4 tilts every kernel by 3pi/4, so the family's
    # profile is the euclidean profile read off at the tilted directions
    grid = sweep.DirectionGrid(36)
    cloud = fractals.cantor_product(1.0 / 3.0, 6)
    scales = [3.0**-k for k in range(2, 6)]
    projector_of = projections.angle_family(lambda a: np.pi / 4.0)
    fam_slopes = np.array([
        boxdim.fit_loglog(scales, boxdim.projector_counts(
            projector_of(norms.HyperplaneNormal.from_angle(a)), cloud, scales)).slope
        for a in grid.angles
    ])
    euc_prof = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=0.9)
    shift = 27  # 3pi/4 in grid steps
    assert np.max(np.abs(fam_slopes - np.roll(euc_prof.slopes, -shift))) <= 0.05
    assert np.array_equal(fam_slopes < 0.9, np.roll(euc_prof.flagged, -shift))


def test_source_direction_set_dimension(curve10, triadic_set):
    # the flagged source directions are the circle points over K: their
    # parameter set has the set's own box dimension
    ks = curve10.t[~curve10.is_gap_mid]
    res = float(triadic_set.r) ** curve10.level
    cloud = PointCloud(points=np.unique(ks), generation=curve10.level,
                       resolution=res, label="K-params", base=3)
    est = boxdim.estimate_dim(cloud, [3.0**-k for k in range(1, 8)])
    assert est.slope == pytest.approx(np.log(2) / np.log(3), abs=0.05)


def test_gauss_pushforward_measures(triadic_set, curve10, ce_norm):
    lo, hi = sweep.gauss_pushforward_measure(ce_norm, triadic_set, 10)
    assert (lo, hi) == cantor.image_measure_bounds(curve10, 10)
    assert lo > 0.0

    e_lo, e_hi = sweep.gauss_pushforward_measure(norms.euclidean(), triadic_set, 10)
    assert e_lo == 0.0
    assert e_hi == pytest.approx((2.0 / 3.0) ** 10, abs=1e-15)
    for k in (4, 8, 12):
        assert sweep.gauss_pushforward_measure(norms.euclidean(), triadic_set, k)[1] == pytest.approx(
            (2.0 / 3.0) ** k
        )

    # refused: a norm with no staircase, a Euclidean circle tabulated as a
    # support table, and the built norm asked about a set it was not built from
    phi = 2.0 * np.pi * np.arange(512) / 512
    circle = norms.from_support_table(
        norms.SupportTable(phi=phi, h=np.ones(512), dh=np.zeros(512))
    )
    other = cantor.CantorSet(m=2, r=Fraction(1, 4))
    for norm, K in ((norms.lp(3.0), triadic_set), (circle, triadic_set), (ce_norm, other)):
        with pytest.raises(ValueError):
            sweep.gauss_pushforward_measure(norm, K, 8)
