import numpy as np
import pytest

from normproj import fractals
from normproj.errors import NotContracting, TooLarge
from normproj.fractals import Similarity


def _level_midpoints(K, k):
    starts, length = K.level_intervals(k)
    return np.array([float(a + length / 2) for a in starts])


def test_cantor_product_first_generation():
    cloud = fractals.cantor_product(1.0 / 3.0, 1)
    expect = np.array([[1, 1], [1, 5], [5, 1], [5, 5]]) / 6.0
    assert np.allclose(cloud.points, expect, atol=1e-15)
    assert cloud.base == 3


def test_cantor_product_counts_and_resolution():
    for g in (2, 4, 6):
        cloud = fractals.cantor_product(1.0 / 3.0, g)
        assert len(cloud.points) == 4**g
        assert cloud.resolution == pytest.approx((1.0 / 3.0) ** g * np.sqrt(2.0))
        assert cloud.points.min() >= 0.0 and cloud.points.max() <= 1.0


def test_cantor_product_guards():
    with pytest.raises(TooLarge):
        fractals.cantor_product(1.0 / 3.0, 13)
    with pytest.raises(ValueError):
        fractals.cantor_product(0.6, 3)
    with pytest.raises(ValueError, match="non-negative"):
        fractals.cantor_product(1.0 / 3.0, -1)
    with pytest.raises(ValueError, match="non-negative"):
        fractals.four_corner(-1)


def test_four_corner_first_generation():
    cloud = fractals.four_corner(1)
    expect = np.array([[1, 1], [1, 7], [7, 1], [7, 7]]) / 8.0
    assert np.allclose(cloud.points, expect, atol=1e-15)
    assert cloud.base == 4
    with pytest.raises(TooLarge):
        fractals.four_corner(11)


def test_shadow_matches_cantor_midpoints(triadic_set):
    # the x-shadow of the product cloud is exactly the level-g cell
    # representatives of the interval construction
    for g in (3, 5):
        cloud = fractals.cantor_product(1.0 / 3.0, g)
        shadow = np.unique(cloud.points[:, 0])
        assert np.max(np.abs(np.sort(shadow) - _level_midpoints(triadic_set, g))) <= 1e-12


def test_ifs_single_map_collapses():
    fixed = np.array([0.5, 0.5])
    cloud = fractals.ifs_attractor([Similarity(0.5, fixed - 0.5 * fixed)], 30)
    assert len(cloud.points) == 1
    assert np.linalg.norm(cloud.points[0] - fixed) <= 1e-8


def test_ifs_line_matches_triadic(triadic_set):
    maps = [Similarity(1.0 / 3.0, np.array([0.0])), Similarity(1.0 / 3.0, np.array([2.0 / 3.0]))]
    for g in (4, 7):
        cloud = fractals.ifs_attractor(maps, g)
        assert np.max(np.abs(np.sort(cloud.points[:, 0]) - _level_midpoints(triadic_set, g))) <= 1e-12


def test_ifs_square_reproduces_cantor_product():
    r = 1.0 / 3.0
    offs = [np.array([a, b]) for a in (0.0, 2.0 / 3.0) for b in (0.0, 2.0 / 3.0)]
    maps = [Similarity(r, off) for off in offs]
    g = 4
    got = fractals.ifs_attractor(maps, g)
    expect = fractals.cantor_product(r, g)
    got_sorted = got.points[np.lexsort(got.points.T)]
    expect_sorted = expect.points[np.lexsort(expect.points.T)]
    assert np.max(np.abs(got_sorted - expect_sorted)) <= 1e-12


def test_ifs_guards():
    with pytest.raises(NotContracting):
        Similarity(1.0, np.zeros(2))
    with pytest.raises(TooLarge):
        fractals.ifs_attractor([Similarity(0.5, np.zeros(2))] * 4, 13)
    with pytest.raises(ValueError):
        fractals.ifs_attractor([], 3)
    with pytest.raises(ValueError, match="non-negative"):
        fractals.ifs_attractor([Similarity(0.5, np.zeros(2))] * 4, -1)


def test_square_cloud_is_dyadic_grid():
    cloud = fractals.square_cloud(3)
    assert len(cloud.points) == 64
    expect = (np.arange(8) + 0.5) / 8.0
    assert np.allclose(np.unique(cloud.points[:, 0]), expect, atol=1e-15)


def test_point_cloud_metadata_immutable():
    cloud = fractals.four_corner(2)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 7.0
