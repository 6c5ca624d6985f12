import itertools
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import normproj
from normproj import boxdim, checks, fractals, norms, projections, sweep
from normproj.errors import LowQualityFit, UnderResolved
from normproj.fractals import PointCloud
from normproj.norms import HyperplaneNormal


def segment_cloud():
    return PointCloud(points=np.arange(4097) / 4096.0, generation=12,
                      resolution=2.0**-12, label="segment", base=2)


def test_box_count_segment():
    assert boxdim.box_count(segment_cloud(), 2.0**-6) in (64, 65)


def test_box_count_single_point():
    cloud = PointCloud(points=np.array([[0.3, 0.7]]), generation=0,
                       resolution=1e-9, label="dot", base=2)
    for delta in (1.0, 0.5, 0.1, 0.01):
        assert boxdim.box_count(cloud, delta) == 1


def test_box_count_triadic_exact():
    cloud = fractals.triadic_cloud(10)
    assert boxdim.box_count(cloud, 3.0**-5) == 32
    assert boxdim.box_count(cloud, 3.0**-3) == 8


def test_box_count_under_resolved():
    with pytest.raises(UnderResolved):
        boxdim.box_count(fractals.triadic_cloud(4), 3.0**-5)


def test_counts_monotone_on_nested_scales():
    cloud = fractals.cantor_product(1.0 / 3.0, 7)
    est = boxdim.estimate_dim(cloud)
    # scales are stored coarse-to-fine, so counts never decrease
    assert np.all(np.diff(est.counts) >= 0)


def test_count_doubling_bound():
    cloud = fractals.square_cloud(8)
    for k in range(1, 5):
        n_coarse = boxdim.box_count(cloud, 2.0**-k)
        n_fine = boxdim.box_count(cloud, 2.0 ** -(k + 1))
        assert n_fine <= 4 * n_coarse


def test_projection_is_one_lipschitz_in_counts():
    cloud = fractals.four_corner(6)
    model = norms.euclidean()
    for ang in (0.0, 0.4, 1.1):
        for k in (2, 3, 4):
            delta = 4.0**-k
            shadow = boxdim.projected_counts(model, cloud, [HyperplaneNormal.from_angle(ang)], [delta])[0][0]
            assert shadow <= 3 * boxdim.box_count(cloud, delta)


def test_estimate_dim_references():
    est = boxdim.estimate_dim(fractals.triadic_cloud(8))
    assert est.slope == pytest.approx(np.log(2) / np.log(3), abs=0.03)
    assert est.r2 >= 0.999
    est = boxdim.estimate_dim(fractals.square_cloud(6))
    assert est.slope == pytest.approx(2.0, abs=0.02)


def test_estimate_dim_needs_four_scales():
    with pytest.raises(UnderResolved):
        boxdim.estimate_dim(fractals.triadic_cloud(3))


def test_estimate_dim_low_quality_fit():
    pts = np.concatenate([np.linspace(0.0, 2.0**-6, 1000), [1.0]])
    cloud = PointCloud(points=pts, generation=0, resolution=1e-8, label="kink", base=2)
    with pytest.raises(LowQualityFit):
        boxdim.estimate_dim(cloud, [2.0**-k for k in range(1, 10)])


def test_estimate_constant_counts_single_point():
    cloud = PointCloud(points=np.array([[0.3, 0.7]]), generation=0,
                       resolution=1e-9, label="dot", base=2)
    est = boxdim.estimate_dim(cloud, [2.0**-k for k in range(1, 6)])
    assert est.slope == pytest.approx(0.0, abs=1e-12)
    assert est.r2 == 1.0


def test_fit_loglog_stack_matches_polyfit_rows(rng):
    # one closed-form pass over a stack of rows; np.polyfit per row is the
    # reference, equal up to the rounding of a different summation order
    scales = [3.0**-k for k in range(2, 8)]
    counts = np.cumprod(rng.integers(1, 5, size=(40, 6)), axis=1)
    counts[0] = 7   # constant counts: slope 0, r2 1
    fit = boxdim.fit_loglog(scales, counts)
    assert fit.slope.shape == fit.r2.shape == (40,)
    xs = np.log(scales)
    for row, slope, r2 in zip(counts, fit.slope, fit.r2, strict=True):
        one = boxdim.fit_loglog(scales, row)
        assert (one.slope, one.r2) == (slope, r2)
        ys = np.log(row)
        coeffs = np.polyfit(xs, ys, 1)
        ss_res = np.sum((ys - np.polyval(coeffs, xs)) ** 2)
        ss_tot = np.sum((ys - ys.mean()) ** 2)
        assert slope == pytest.approx(-coeffs[0], abs=1e-12)
        assert r2 == pytest.approx(1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot), abs=1e-12)
    assert (fit.slope[0], fit.r2[0]) == (0.0, 1.0)


# -- shadows -----------------------------------------------------------------

def test_projected_counts_triadic_shadow():
    cloud = fractals.cantor_product(1.0 / 3.0, 10)
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    assert boxdim.projected_counts(norms.euclidean(), cloud, [w], [3.0**-5]).tolist() == [[32]]


def test_projected_counts_diagonal_full_interval():
    cloud = fractals.cantor_product(1.0 / 3.0, 8)
    w = HyperplaneNormal.from_angle(np.pi / 4.0)
    scales = [3.0**-k for k in range(2, 8)]
    counts = boxdim.projected_counts(norms.euclidean(), cloud, [w], scales)[0]
    est = boxdim.fit_loglog(scales, counts)
    assert est.slope == pytest.approx(1.0, abs=0.05)


def test_projected_counts_single_point():
    cloud = PointCloud(points=np.array([[0.3, 0.7]]), generation=0,
                       resolution=1e-9, label="dot", base=2)
    for model in (norms.euclidean(), norms.lp(3.0)):
        assert boxdim.projected_counts(model, cloud, [HyperplaneNormal.from_angle(0.3)], [0.1]).tolist() == [[1]]


def test_projected_counts_requires_planar():
    cloud = fractals.triadic_cloud(6)
    with pytest.raises(ValueError):
        boxdim.projected_counts(norms.euclidean(), cloud, [HyperplaneNormal.from_angle(0.1)], [0.1])


def _unique_bins(coords, delta):
    # the per-scale count the sort-based engine replaced
    return len(np.unique(np.floor(coords / delta).astype(np.int64)))


def test_bin_counts_equal_unique_oracle(rng):
    tenth = [0.1, np.nextafter(0.1, 1.0), np.nextafter(np.nextafter(0.1, 1.0), 1.0)]
    ladders = {   # any order; fine ladders bin most cases wider than their points
        "fine": [2.0**-3, 3.0**-5, 0.1, 1.0, 2.0**-10, 0.37, 3.0**-2],
        "coarse": [2.0**-3, 0.1, 1.0, 0.37, 3.0**-2],
        "duplicated": [0.37, 2.0**-3, 0.37, 1.0],
        "next floats": tenth + [0.3, 2.0**-3],
    }
    edges = np.concatenate([np.arange(-64, 65) * 2.0**-3, np.arange(-27, 28) * 3.0**-2])
    cases = {
        "edges": edges,
        "negative": -rng.uniform(0.0, 5.0, 4000),
        "mixed": rng.standard_normal(4000) * 3.0,
        "repeated": np.repeat(rng.uniform(-1.0, 1.0, 50), 40),
        "single": np.array([-0.3]),
        "lattice": np.arange(-3**6, 3**6 + 1) * 3.0**-6,
        "tenth lattice": np.concatenate([np.arange(-40, 41) * 0.1, np.nextafter(np.arange(-40, 41) * 0.1, -1.0)]),
        "sparse": rng.uniform(-100.0, 100.0, 50),
    }
    for name, coords in cases.items():
        for ladder, scales in ladders.items():
            got = boxdim._occupied_counts(rng.permutation(coords)[:, None], scales)
            assert got == [_unique_bins(coords, d) for d in scales], (name, ladder)
    # near-equal scales far from the origin: the cascade's rounding check
    # still passes at 1e9 and fails at 1e10, where all points are counted
    for offset in (1e9, 1e10):
        coords = offset + rng.uniform(0.0, 50.0, 4000)
        scales = [1.0, 1.000001, 3.0]
        assert boxdim._occupied_counts(coords[:, None], scales) == [_unique_bins(coords, d) for d in scales], offset


def test_bin_counts_point_just_below_a_finer_bin_edge():
    # x / 3^-7 rounds to just below 51, so the finest bin is 50 and 50 // 3
    # is 16, while x / 3^-6 is exactly 17: counting 3^-6 from the bins of
    # 3^-7 is wrong here, and the distance-from-edge test must refuse it
    x = 17 * 3.0**-6
    assert np.floor(x / 3.0**-7) // 3 == 16 and np.floor(x / 3.0**-6) == 17
    # finest bins 49 and 50; each coordinate is repeated so that the table,
    # aligned to 3^5 slots, fits
    coords = np.repeat([x, 16.5 * 3.0**-6], 40)
    scales = [3.0**-k for k in range(2, 8)]
    assert boxdim._occupied_counts(coords[:, None], scales) == [_unique_bins(coords, d) for d in scales]


def test_bin_counts_point_just_below_a_finer_bin_edge_in_a_shadow():
    # the same coordinates, and one in x's finest bin 50, as the shadow of a
    # planar cloud on the line of (1, -0): the worker's quotient of x by
    # 3^-7 lies within a rounding of 51, on either side, and must fail the
    # edge test (a floor of 51 counts three finest bins for two); each point
    # is repeated so that the table, 3^5 slots, fits
    x = 17 * 3.0**-6
    points = np.repeat([[x, 0.0], [16.5 * 3.0**-6, 0.0], [50.5 * 3.0**-7, 0.0]], 40, axis=0)
    cloud = PointCloud(points=points, generation=0, resolution=3.0**-8, label="edge", base=3)
    scales = [3.0**-k for k in range(2, 8)]
    _assert_counts_match_unique_oracle(norms.euclidean(), cloud, [HyperplaneNormal(np.array([0.0, 1.0]))],
                                       scales)


@pytest.fixture()
def sorted_calls(monkeypatch):
    # the scale ladders that _sorted_counts is called with
    calls = []
    sorted_counts = boxdim._sorted_counts

    def counting(coords, order, bins, steps):
        calls.append(order)
        return sorted_counts(coords, order, bins, steps)

    monkeypatch.setattr(boxdim, "_sorted_counts", counting)
    return calls


def _box_cloud(points):
    return PointCloud(points=points, generation=0, resolution=2.0**-40, label="box", base=2)


def test_chained_ladders_fold_without_sorting(rng, sorted_calls, ce_norm):
    # chained base-2, 3 and 4 ladders, in any order and with a duplicate,
    # and their finest scale alone, are counted from the finest table
    points = rng.uniform(-1.0, 2.0, (4000, 2))
    cloud = _box_cloud(points)
    normals = [HyperplaneNormal.from_angle(a) for a in (0.1, 0.9, 1.7, 2.6)]
    for base in (2, 3, 4):
        scales = [float(base) ** -k for k in (3, 1, 6, 2, 5, 4, 3)]
        coords = points @ np.array([0.6, 0.8])
        assert boxdim._occupied_counts(coords[:, None], scales) == [_unique_bins(coords, d) for d in scales]
        assert boxdim._occupied_counts(coords[:, None], scales[:1]) == [_unique_bins(coords, scales[0])]
        for model in (norms.euclidean(), norms.lp(1.5), ce_norm):
            _assert_counts_match_unique_oracle(model, cloud, normals, scales)
    assert sorted_calls == []


def test_unchained_ladder_sorts(rng, sorted_calls):
    # ratios 2 and 3 nest on the finest scale, but 2 does not divide 3
    points = rng.uniform(-1.0, 2.0, (4000, 2))
    scales = [0.01, 0.02, 0.03]
    coords = points @ np.array([0.6, 0.8])
    assert boxdim._occupied_counts(coords[:, None], scales) == [_unique_bins(coords, d) for d in scales]
    assert len(sorted_calls) == 1
    normals = [HyperplaneNormal.from_angle(a) for a in (0.1, 0.9, 1.7)]
    _assert_counts_match_unique_oracle(norms.euclidean(), _box_cloud(points), normals, scales)
    assert len(sorted_calls) == 4
    # ratios 2 and 5: 5 // 2 = 2 would fold by 2 twice
    scales = [0.01, 0.02, 0.05]
    assert boxdim._occupied_counts(coords[:, None], scales) == [_unique_bins(coords, d) for d in scales]
    assert len(sorted_calls) == 5
    assert boxdim._fold_steps([0.01, 0.02, 0.06]) == [2, 3]


def test_shadow_narrower_than_bounding_box(rng, sorted_calls):
    # points near the diagonal of the unit square: their shadow on the
    # diagonal's normal line is ~1e-3 wide, the table's range ~1.4
    t = rng.uniform(0.0, 1.0, 4000)
    points = np.column_stack([t, t + 1e-3 * rng.uniform(0.0, 1.0, 4000)])
    scales = [2.0**-k for k in range(6, 13)]
    normals = [HyperplaneNormal.from_angle(a) for a in (np.pi / 4.0 + 1e-6, 3.0 * np.pi / 4.0)]
    _assert_counts_match_unique_oracle(norms.euclidean(), _box_cloud(points), normals, scales)
    assert sorted_calls == []


def test_overflowing_bin_index_refused_with_its_scale():
    # (1e300, 0) / 1e-10 overflows: the planar cell key raised OverflowError,
    # and the line and shadow counts counted an infinite bin with a warning
    points = np.array([[1e300, 0.0], [0.0, 1.0]])
    plane = PointCloud(points=points, generation=0, resolution=1e-12, label="far", base=2)
    line = PointCloud(points=points[:, 0], generation=0, resolution=1e-12, label="far", base=2)
    w = HyperplaneNormal.from_angle(0.3)
    calls = (
        lambda: boxdim.box_count(plane, 1e-10),
        lambda: boxdim.box_count(line, 1e-10),
        lambda: boxdim.projected_counts(norms.euclidean(), plane, [w], [1e-10]),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"scale 1e-10 overflow"):
            call()


def test_verify_boxdim_checks_count_without_sorting(sorted_calls, curve10):
    # the covering check's f and psi clouds hold 0 and 1, which lie on every
    # dyadic bin edge: a line cloud's quotient is numpy's own, so its single
    # scales need no edge test and none is sorted; the projector images of
    # the equal-kernel check pass the edge test at every scale
    res = float(np.min(np.diff(curve10.f))) / 4.0
    for values in (curve10.f, curve10.psi):
        cloud = PointCloud(points=values, generation=10, resolution=res, label="curve")
        for k in range(3, 9):
            assert boxdim.box_count(cloud, 2.0**-k) == _unique_bins(values, 2.0**-k)
    assert checks._check_covering_counts(0).passed
    assert checks._check_equal_kernel_boxdim(0).passed
    assert sorted_calls == []


def _unique_cells(points, delta):
    # the per-scale cell count of a planar cloud the sort-based engine replaced
    idx = np.floor(points / delta).astype(np.int64)
    idx = idx - idx.min(axis=0)
    key = idx[:, 0] * (idx[:, 1].max() + 1) + idx[:, 1]
    return len(np.unique(key))


def test_box_count_equals_unique_oracle():
    cantor7 = fractals.cantor_product(1.0 / 3.0, 7)
    shifted = replace(cantor7, points=cantor7.points + np.array([-0.6, -2.0]))
    for cloud in (fractals.four_corner(6), cantor7, shifted):
        for delta in boxdim.admissible_scales(cloud):
            assert boxdim.box_count(cloud, delta) == _unique_cells(cloud.points, delta)
    line = fractals.triadic_cloud(9)
    line = replace(line, points=line.points - 0.5)
    for delta in boxdim.admissible_scales(line):
        assert boxdim.box_count(line, delta) == _unique_bins(line.points[:, 0], delta)


@pytest.fixture()
def key_dtypes(monkeypatch):
    # the key dtype _occupied_counts sorts at each scale
    dtypes = []
    key_fits = boxdim._key_fits

    def recording(lo, hi, delta):
        fits = key_fits(lo, hi, delta)
        dtypes.append(fits and fits[2])
        return fits

    monkeypatch.setattr(boxdim, "_key_fits", recording)
    return dtypes


def test_box_count_int32_key_boundary(key_dtypes):
    # index spans 1 x (2^31 - 1) take the int32 key, 2 x 2^30 the int64 one;
    # the largest key, product - 1, sits at the cell of the far corner
    below = np.array([[0.0, 0.0], [0.0, 5.0], [0.0, 2.0**31 - 3.0], [0.0, 2.0**31 - 2.0]])
    at = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 7.0], [0.0, 2.0**30 - 1.0], [1.0, 2.0**30 - 1.0]])
    for points, dtype in ((below, np.int32), (at, np.int64)):
        key_dtypes.clear()
        cloud = PointCloud(points=points, generation=0, resolution=0.5, label="key", base=2)
        assert boxdim.box_count(cloud, 1.0) == _unique_cells(points, 1.0) == len(points)
        assert key_dtypes == [dtype]
    # the benchmark's clouds take the int32 key at every admissible scale
    for cloud in (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8)):
        key_dtypes.clear()
        est = boxdim.estimate_dim(cloud)
        assert list(est.counts) == [_unique_cells(cloud.points, d) for d in est.scales]
        assert key_dtypes == [np.int32] * len(boxdim.admissible_scales(cloud)), cloud.label


def test_box_count_cell_keys_do_not_wrap(monkeypatch):
    # (max ix + 1)(max iy + 1) = (2^32 + 1) 2^32 passes 2^63: the int64 key
    # ix (max iy + 1) + iy wrapped and merged the cells (0, 0) and (2^32, 0)
    far = PointCloud(points=np.array([[0.0, 0.0], [2.0**32, 0.0], [0.0, 2.0**32 - 1.0]]),
                     generation=0, resolution=0.5, label="far", base=2)
    assert boxdim.box_count(far, 1.0) == 3
    cantor7 = fractals.cantor_product(1.0 / 3.0, 7)
    shifted = replace(cantor7, points=cantor7.points + np.array([-0.6, -2.0]))
    with monkeypatch.context() as patch:
        patch.setattr(boxdim, "_key_fits", lambda lo, hi, delta: False)
        for cloud in (fractals.four_corner(6), shifted):
            est = boxdim.estimate_dim(cloud)
            assert list(est.counts) == [_unique_cells(cloud.points, d) for d in est.scales]

    # the benchmark's clouds keep the int64 key at every scale they count
    def refuse(points, delta):
        raise AssertionError(f"lexsorted at delta {delta}")

    monkeypatch.setattr(boxdim, "_lexsorted_count", refuse)
    for cloud in (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8)):
        boxdim.estimate_dim(cloud)
        boxdim.estimate_dim(cloud, [float(cloud.base) ** -k for k in range(2, 8)])


def test_shadow_counts_equal_per_scale_oracle(ce_norm):
    cloud = fractals.cantor_product(1.0 / 3.0, 7)
    scales = [3.0**-k for k in (4, 2, 6, 3, 5)]
    normals = [HyperplaneNormal.from_angle(ang) for ang in (0.0, 0.7, 2.0, 3.0)]
    got = boxdim.projected_counts(ce_norm, cloud, normals, scales).tolist()
    for w, counts in zip(normals, got, strict=True):
        coords = cloud.points @ boxdim._shadow_functional(ce_norm, w)
        assert counts == [_unique_bins(coords, d) for d in scales]

    projector_of = projections.angle_family(lambda a: np.pi / 3.0)
    for ang in (0.2, 1.3, 2.9):
        proj = projector_of(HyperplaneNormal.from_angle(ang))
        col = proj.matrix @ np.array([1.0, 0.0])
        direction = norms.canonicalize_direction(col / np.linalg.norm(col))
        coords = proj.apply(cloud.points) @ direction
        assert boxdim.projector_counts(proj, cloud, scales) == \
            [_unique_bins(coords, d) for d in scales]

    zero = projections.LinearProjector(kernel_dir=np.array([1.0, 0.0]), matrix=np.zeros((2, 2)))
    assert boxdim.projector_counts(zero, cloud, scales) == [1] * len(scales)


def _sweep_normals(count):
    return [HyperplaneNormal.from_angle(a) for a in sweep.DirectionGrid(count).angles]


def _assert_counts_match_unique_oracle(norm, cloud, normals, scales):
    got = boxdim.projected_counts(norm, cloud, normals, scales).tolist()
    assert len(got) == len(normals)
    for w, counts in zip(normals, got):
        shadow = cloud.points @ boxdim._shadow_functional(norm, w)
        assert counts == [len(np.unique(np.floor(shadow / d))) for d in scales], w.angle


def test_projected_counts_sweep_equal_unique_oracle():
    # the benchmark's sweep: 120 normals over both 65,536-point clouds, scales 2:7
    normals = _sweep_normals(120)
    for cloud in (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8)):
        scales = [float(cloud.base) ** -k for k in range(2, 8)]
        _assert_counts_match_unique_oracle(norms.euclidean(), cloud, normals, scales)
    # finer bins than points: the default ladder of r = 0.2 at generation 8
    cloud = fractals.cantor_product(0.2, 8)
    _assert_counts_match_unique_oracle(norms.euclidean(), cloud, _sweep_normals(36),
                                       boxdim.admissible_scales(cloud))


def test_projected_counts_norm_sweeps_equal_unique_oracle(ce_norm):
    cloud = fractals.four_corner(8)
    scales = [4.0**-k for k in range(2, 8)]
    for model in (norms.lp(3.0), ce_norm):
        _assert_counts_match_unique_oracle(model, cloud, _sweep_normals(36), scales)


def test_shadow_table_sorts_only_where_points_sit_on_bin_edges(monkeypatch):
    # every normal of a 36-direction grid but the diagonal (index 9, whose
    # shadows put points on the bin edge 0) is counted from the bin table,
    # also on cantor-product r = 0.2, whose finest bins outnumber its points
    sorted_calls = []
    sorted_counts = boxdim._sorted_counts

    def counting(coords, order, bins, steps):
        sorted_calls.append(True)
        return sorted_counts(coords, order, bins, steps)

    monkeypatch.setattr(boxdim, "_sorted_counts", counting)
    clouds = (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8), fractals.cantor_product(0.2, 8))
    for cloud in clouds:
        scales = [float(cloud.base) ** -k for k in range(2, 8)]
        sorted_at = []
        for index, w in enumerate(_sweep_normals(36)):
            sorted_calls.clear()
            boxdim.projected_counts(norms.euclidean(), cloud, [w], scales)
            if sorted_calls:
                sorted_at.append(index)
        assert sorted_at == [9], cloud.label


@pytest.fixture()
def three_workers(monkeypatch):
    # more workers than the machine may have CPUs, switching threads often,
    # so the threaded path runs and interleaves wherever the tests run
    monkeypatch.setattr(boxdim, "_worker_count", lambda: 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_projected_counts_workers_equal_one_normal_calls(three_workers, ce_norm):
    # one call counts its normals on three threads; a call with one normal
    # counts it on the calling thread
    normals = _sweep_normals(120)
    for cloud in (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8)):
        scales = [float(cloud.base) ** -k for k in range(2, 8)]
        for model in (norms.lp(3.0), ce_norm):
            alone = [boxdim.projected_counts(model, cloud, [w], scales)[0].tolist() for w in normals]
            assert boxdim.projected_counts(model, cloud, normals, scales).tolist() == alone, cloud.label
    assert boxdim.projected_counts(norms.euclidean(), cloud, [], scales).tolist() == []


def test_projected_counts_worker_error_reaches_caller(three_workers, monkeypatch):
    calls = itertools.count(1)
    table_counts = boxdim._table_counts

    def failing(*args):
        if next(calls) == 7:
            raise RuntimeError("seventh count")
        return table_counts(*args)

    monkeypatch.setattr(boxdim, "_table_counts", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="seventh count"):
        boxdim.projected_counts(norms.euclidean(), fractals.four_corner(6), _sweep_normals(36),
                                [4.0**-k for k in range(2, 6)])
    assert set(threading.enumerate()) == before


def test_shadow_functionals_on_calling_thread(three_workers, monkeypatch):
    # inverse_gauss fills the norm's memo, and a tracer wrapped around it
    # keeps one span stack: neither may be reached from a worker
    threads = []
    inverse_gauss = norms.inverse_gauss

    def recording(norm, w):
        threads.append(threading.current_thread())
        return inverse_gauss(norm, w)

    monkeypatch.setattr(norms, "inverse_gauss", recording)
    boxdim.projected_counts(norms.lp(3.0), fractals.four_corner(6), _sweep_normals(36),
                            [4.0**-k for k in range(2, 6)])
    assert len(threads) == 36
    assert set(threads) == {threading.main_thread()}


def test_counting_leaves_cloud_points_untouched():
    plane = fractals.cantor_product(1.0 / 3.0, 6)
    line = replace(fractals.triadic_cloud(8), points=np.linspace(0.9, -0.1, 3**8 + 1))
    before = {id(c): c.points.copy() for c in (plane, line)}
    scales = [3.0**-k for k in range(1, 5)]
    for delta in scales:
        boxdim.box_count(plane, delta)
        boxdim.box_count(line, delta)
    boxdim.projected_counts(norms.lp(3.0), plane, _sweep_normals(36), scales)
    proj = projections.angle_family(lambda a: np.pi / 3.0)(HyperplaneNormal.from_angle(0.2))
    boxdim.projector_counts(proj, plane, scales)
    for cloud in (plane, line):
        assert not cloud.points.flags.writeable
        assert np.array_equal(cloud.points, before[id(cloud)])


def test_dim_profile_default_threshold_same_estimates():
    cloud = fractals.cantor_product(1.0 / 3.0, 7)
    grid = sweep.DirectionGrid(36)
    scales = [3.0**-k for k in range(2, 7)]
    computed = sweep.dim_profile(norms.euclidean(), cloud, grid, scales)
    passed = sweep.dim_profile(norms.euclidean(), cloud, grid, scales, threshold=computed.threshold)
    assert passed.threshold == computed.threshold
    assert computed.slopes.shape == computed.r2.shape == (36,)
    assert np.array_equal(computed.slopes, passed.slopes)
    assert np.array_equal(computed.r2, passed.r2)
    assert np.array_equal(computed.flagged, passed.flagged)


def _fault_counts(probe):
    # the integers a probe script prints, run in a fresh interpreter
    src = str(Path(normproj.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(map(int, proc.stdout.split()))


# Minor page faults of projected_counts over 10 and then 130 normals of each
# 65,536-point cloud of the sweep benchmark, measured in a fresh interpreter.
_FAULT_PROBE = """
import resource
import numpy as np
from normproj import boxdim, fractals, norms
from normproj.norms import HyperplaneNormal

def faults(cloud, count):
    scales = [float(cloud.base) ** -k for k in range(2, 8)]
    normals = [HyperplaneNormal.from_angle(a) for a in np.pi * np.arange(count) / count]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    boxdim.projected_counts(norms.euclidean(), cloud, normals, scales)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

for cloud in (fractals.cantor_product(1.0 / 3.0, 8), fractals.four_corner(8)):
    print(faults(cloud, 10), faults(cloud, 130))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads minor page faults from Linux getrusage")
def test_projected_counts_page_faults_flat_in_normals():
    # each direction must reuse the sweep's buffers: fresh cloud-sized
    # arrays per direction fault in about 350 pages each, and four-corner's
    # run ends (up to 11k bins) would each be a fresh mapping
    counts = _fault_counts(_FAULT_PROBE)
    for few, many in zip(counts[::2], counts[1::2]):
        assert (many - few) / 120 < 16, counts


# Minor page faults of estimate_dim over a ladder of 4 and then of 7 scales
# of a 65,536-point cloud, measured in a fresh interpreter.
_LADDER_FAULT_PROBE = """
import resource
from normproj import boxdim, fractals

cloud = fractals.cantor_product(1.0 / 3.0, 8)

def faults(count):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    boxdim.estimate_dim(cloud, [3.0**-k for k in range(1, count + 1)])
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(4), faults(7))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads minor page faults from Linux getrusage")
def test_estimate_dim_page_faults_flat_in_scales():
    # every scale must reuse the ladder's key buffers: fresh cloud-sized
    # arrays per scale fault in about 340 pages each
    few, many = _fault_counts(_LADDER_FAULT_PROBE)
    assert (many - few) / 3 < 16, (few, many)


def test_estimate_dim_counts_equal_unique_oracle():
    # one call counts the whole ladder in shared buffers
    cantor7 = fractals.cantor_product(1.0 / 3.0, 7)
    shifted = replace(cantor7, points=cantor7.points + np.array([-0.6, -2.0]))
    for cloud in (fractals.four_corner(6), cantor7, shifted):
        est = boxdim.estimate_dim(cloud)
        assert list(est.counts) == [_unique_cells(cloud.points, d) for d in est.scales]
    line = replace(fractals.triadic_cloud(9), points=fractals.triadic_cloud(9).points - 0.5)
    est = boxdim.estimate_dim(line)
    assert list(est.counts) == [_unique_bins(line.points[:, 0], d) for d in est.scales]


def test_shadow_counts_refuse_any_under_resolved_scale():
    cloud = fractals.cantor_product(1.0 / 3.0, 4)
    proj = projections.angle_family(lambda a: np.pi / 3.0)(HyperplaneNormal.from_angle(0.2))
    scales = [3.0**-2, 3.0**-6]
    with pytest.raises(UnderResolved):
        boxdim.projected_counts(norms.euclidean(), cloud, [HyperplaneNormal.from_angle(0.2)], scales)
    with pytest.raises(UnderResolved):
        boxdim.projector_counts(proj, cloud, scales)


# -- favard proxy ---------------------------------------------------------------

def test_favard_disk_boundary_diameter():
    # evenly spaced points of the unit circle: shadow length 2 everywhere
    t = 2.0 * np.pi * np.arange(8192) / 8192
    cloud = PointCloud(points=np.column_stack([np.cos(t), np.sin(t)]), generation=0,
                       resolution=2.0 * np.pi / 8192, label="unit_circle", base=2)
    angles = np.pi * np.arange(36) / 36
    got = boxdim.favard_proxy(cloud, angles, 2.0**-6)
    assert got == pytest.approx(2.0, abs=0.05)


def test_favard_single_point():
    cloud = PointCloud(points=np.array([[0.3, 0.7]]), generation=0,
                       resolution=1e-9, label="dot", base=2)
    delta = 0.125
    assert boxdim.favard_proxy(cloud, np.pi * np.arange(12) / 12, delta) == pytest.approx(delta)


def test_favard_four_corner_decreasing():
    angles = np.pi * np.arange(36) / 36
    vals = [boxdim.favard_proxy(fractals.four_corner(g), angles, 4.0 ** (1 - g))
            for g in range(3, 7)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_covering_comparison_analogue(curve10):
    # |psi(s)-psi(s')| <= (1/2)|f(s)-f(s')| on the shared parameter grid,
    # so psi-image bin counts never beat f-image counts at delta/(2M)
    res = float(np.min(np.diff(curve10.f))) / 4.0
    f_cloud = PointCloud(points=curve10.f, generation=10, resolution=res, label="f", base=2)
    p_cloud = PointCloud(points=curve10.psi, generation=10, resolution=res, label="psi", base=2)
    for k in range(3, 9):
        delta = 2.0**-k
        assert boxdim.box_count(p_cloud, delta) <= boxdim.box_count(f_cloud, delta)
