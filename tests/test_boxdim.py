import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import normproj
from normproj import boxdim, fractals, norms, projections, sweep
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


# -- shadows -----------------------------------------------------------------

def test_projected_counts_triadic_shadow():
    cloud = fractals.cantor_product(1.0 / 3.0, 10)
    w = HyperplaneNormal(np.array([0.0, 1.0]))
    assert boxdim.projected_counts(norms.euclidean(), cloud, [w], [3.0**-5]) == [[32]]


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
        assert boxdim.projected_counts(model, cloud, [HyperplaneNormal.from_angle(0.3)], [0.1]) == [[1]]


def test_projected_counts_requires_planar():
    cloud = fractals.triadic_cloud(6)
    with pytest.raises(ValueError):
        boxdim.projected_counts(norms.euclidean(), cloud, [HyperplaneNormal.from_angle(0.1)], [0.1])


def _unique_bins(coords, delta):
    # the per-scale count the sort-based engine replaced
    return len(np.unique(np.floor(coords / delta).astype(np.int64)))


def test_bin_counts_equal_unique_oracle(rng):
    scales = [2.0**-3, 3.0**-5, 0.1, 1.0, 2.0**-10, 0.37, 3.0**-2]  # any order
    edges = np.concatenate([np.arange(-64, 65) * 2.0**-3, np.arange(-27, 28) * 3.0**-2])
    cases = {
        "edges": edges,
        "negative": -rng.uniform(0.0, 5.0, 4000),
        "mixed": rng.standard_normal(4000) * 3.0,
        "repeated": np.repeat(rng.uniform(-1.0, 1.0, 50), 40),
        "single": np.array([-0.3]),
        "lattice": np.arange(-3**6, 3**6 + 1) * 3.0**-6,
    }
    for name, coords in cases.items():
        got = boxdim._bin_counts(rng.permutation(coords), scales)
        assert got == [_unique_bins(coords, d) for d in scales], name


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


def test_shadow_counts_equal_per_scale_oracle(ce_norm):
    cloud = fractals.cantor_product(1.0 / 3.0, 7)
    scales = [3.0**-k for k in (4, 2, 6, 3, 5)]
    normals = [HyperplaneNormal.from_angle(ang) for ang in (0.0, 0.7, 2.0, 3.0)]
    got = boxdim.projected_counts(ce_norm, cloud, normals, scales)
    for w, counts in zip(normals, got, strict=True):
        coords = cloud.points @ boxdim._shadow_functional(ce_norm, w)
        assert counts == [_unique_bins(coords, d) for d in scales]

    fam = projections.angle_family(lambda a: np.pi / 3.0)
    for ang in (0.2, 1.3, 2.9):
        proj = fam.projector(HyperplaneNormal.from_angle(ang))
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
    got = boxdim.projected_counts(norm, cloud, normals, scales)
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


def test_projected_counts_norm_sweeps_equal_unique_oracle(ce_norm):
    cloud = fractals.four_corner(8)
    scales = [4.0**-k for k in range(2, 8)]
    for model in (norms.lp(3.0), ce_norm):
        _assert_counts_match_unique_oracle(model, cloud, _sweep_normals(36), scales)


def test_counting_leaves_cloud_points_untouched():
    plane = fractals.cantor_product(1.0 / 3.0, 6)
    line = replace(fractals.triadic_cloud(8), points=np.linspace(0.9, -0.1, 3**8 + 1))
    before = {id(c): c.points.copy() for c in (plane, line)}
    scales = [3.0**-k for k in range(1, 5)]
    for delta in scales:
        boxdim.box_count(plane, delta)
        boxdim.box_count(line, delta)
    boxdim.projected_counts(norms.lp(3.0), plane, _sweep_normals(36), scales)
    proj = projections.angle_family(lambda a: np.pi / 3.0).projector(HyperplaneNormal.from_angle(0.2))
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
    for a, b in zip(computed.estimates, passed.estimates, strict=True):
        assert np.array_equal(a.counts, b.counts)
        assert (a.slope, a.r2) == (b.slope, b.r2)
    assert np.array_equal(computed.flagged, passed.flagged)


def _fault_counts(probe):
    # the integers a probe script prints, run in a fresh interpreter
    src = str(Path(normproj.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return tuple(map(int, proc.stdout.split()))


# Minor page faults of projected_counts over 10 and then 130 normals of a
# 65,536-point cloud, measured in a fresh interpreter.
_FAULT_PROBE = """
import resource
import numpy as np
from normproj import boxdim, fractals, norms
from normproj.norms import HyperplaneNormal

cloud = fractals.cantor_product(1.0 / 3.0, 8)
scales = [3.0**-k for k in range(2, 8)]

def faults(count):
    normals = [HyperplaneNormal.from_angle(a) for a in np.pi * np.arange(count) / count]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    boxdim.projected_counts(norms.euclidean(), cloud, normals, scales)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print(faults(10), faults(130))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads minor page faults from Linux getrusage")
def test_projected_counts_page_faults_flat_in_normals():
    # each direction must reuse the sweep's buffers: fresh cloud-sized
    # arrays per direction fault in about 350 pages each
    few, many = _fault_counts(_FAULT_PROBE)
    assert (many - few) / 120 < 16, (few, many)


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
    proj = projections.angle_family(lambda a: np.pi / 3.0).projector(HyperplaneNormal.from_angle(0.2))
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
