import hashlib
import tracemalloc

import numpy as np
import pytest

from normproj import fractals
from normproj.errors import TooLarge
from staircase_oracle import level_intervals


def _level_midpoints(K, k):
    starts, length = level_intervals(K, k)
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


def test_cantor_product_refuses_an_underflowing_cell_side():
    # r^gen below the smallest normal float gave the cloud resolution 0 and
    # the scale ladder 1e-300, 0.0, 0.0, ...
    for r, generation in ((1e-50, 7), (1e-160, 8), (1e-300, 8), (1e-300, 2)):
        with pytest.raises(TooLarge, match="smallest normal"):
            fractals.cantor_product(r, generation)
    # one generation above the floor is still built: 1e-50^6 = 1e-300
    cloud = fractals.cantor_product(1e-50, 6)
    assert cloud.resolution > 0.0 and len(cloud.points) == 4**6


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


def test_ifs_line_matches_triadic(triadic_set):
    for g in (4, 7):
        cloud = fractals.triadic_cloud(g)
        assert np.max(np.abs(np.sort(cloud.points[:, 0]) - _level_midpoints(triadic_set, g))) <= 1e-12


def test_square_cloud_first_generation_in_map_order():
    cloud = fractals.square_cloud(1)
    assert cloud.points.tolist() == [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]


def test_cloud_bytes_locked():
    # SHA-256 of the point arrays as first written by the general IFS engine
    locked = {
        "249404d3fc5d5bec1e584f05190ae38a74bbf23d4bfdd1cb8f7a39089b871d0f": fractals.square_cloud(6),
        "dd04ef9783fe4e3f394679be68fb84f3568f6b34a2887003b9a363c59b55a2cb": fractals.triadic_cloud(10),
    }
    for digest, cloud in locked.items():
        assert hashlib.sha256(cloud.points.tobytes()).hexdigest() == digest, cloud.label


def test_ifs_guards():
    # each IFS cloud refuses a generation above its cap before it allocates
    for build, cap in ((fractals.triadic_cloud, 24), (fractals.square_cloud, 12)):
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge):
                build(cap + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16, build.__name__
        with pytest.raises(ValueError, match="non-negative"):
            build(-1)


def test_square_cloud_is_dyadic_grid():
    cloud = fractals.square_cloud(3)
    assert len(cloud.points) == 64
    expect = (np.arange(8) + 0.5) / 8.0
    assert np.allclose(np.unique(cloud.points[:, 0]), expect, atol=1e-15)


def test_point_cloud_metadata_immutable():
    cloud = fractals.four_corner(2)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 7.0
