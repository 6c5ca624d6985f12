"""Box-counting dimension estimation of clouds and their line shadows.

The box count at scale delta is the number of occupied cells of the grid
delta * Z^n anchored at the origin (no random offsets: determinism beats
estimator variance here).  Scales are powers of the cloud's natural base so
grids align with self-similarity and reference counts are exact.

The fitted slope of log N against log delta stands in for Hausdorff
dimension.  The stand-in is honest but one-sided: box-counting dimension
upper-bounds Hausdorff dimension; every report carries that caveat.

A planar cloud's cells are counted by sorting: its cell keys are sorted
once per scale, and the number of occupied cells is one more than the
number of changes between neighbours.  A key is built one contiguous
coordinate column at a time, in buffers shared by every scale of a ladder.

A line shadow is counted without sorting where that is provably exact.
Its coordinates are floored once at the finest scale and their bins marked
in a bool table; the finest count is the number of marked bins, and a
coarser scale that is an integer multiple R of the finest counts the
distinct k // R over the marked bins k in order.  ``_nested_counts`` states
when this equals the count of floor(x / delta) as numpy rounds it: the
scales are nested, and no quotient lies within a few roundings of a bin
edge.  A shadow that fails either test, or whose finest bins span more
than eight table slots per point, is sorted instead.  A sweep over many
directions counts them on one worker thread per CPU the process may use,
with one set of buffers per worker thread (a shadow and its scratch),
refilled for each of the worker's directions, so counting a direction
allocates no cloud-sized array.
"""

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import LowQualityFit, UnderResolved
from . import norms
from .norms import HyperplaneNormal

DIMENSION_CAVEAT = (
    "box-counting estimate; upper-bounds Hausdorff dimension, equal only on "
    "self-similar references"
)
MIN_SCALES = 4
MIN_R2 = 0.98
MAX_SCALES = 12  # longest ladder of admissible_scales
_EPS = 2.0**-53   # unit roundoff of float64


@dataclass(frozen=True)
class DimensionEstimate:
    """Scales, counts and the fitted log-log slope with its quality.

    ``fit_loglog`` of a stack of count rows gives arrays of slopes and
    qualities over the stack's leading axes.
    """

    scales: np.ndarray
    counts: np.ndarray
    slope: float
    r2: float
    caveat: str = DIMENSION_CAVEAT

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        c = np.asarray(self.counts, dtype=int)
        s.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "scales", s)
        object.__setattr__(self, "counts", c)


def _distinct_sorted(ordered, steps=None):
    """Distinct values of a sorted 1-D array: its changes, plus one if non-empty.

    ``steps``, if given, is a boolean buffer of length max(len - 1, 0).
    """
    changes = np.not_equal(ordered[1:], ordered[:-1], out=steps)
    return int(ordered.size > 0) + int(np.count_nonzero(changes))


def _workspace(size):
    """Scratch for ``_bin_counts`` over ``size`` coordinates: two float
    rows of that length, in one ``np.empty`` block.

    Only the pages a count touches become resident; a thread that counts
    many shadows allocates this once.
    """
    return np.empty((2, size))


def _bin_counts(coords, scales, work=None):
    """Occupied delta-bins of 1-D coordinates, one count per scale, in order.

    The count is the number of distinct floor(x / delta), the float
    quotient floored as numpy rounds it.  ``coords`` is clobbered, so
    callers pass a buffer they own; ``work`` holds two float rows of its
    length (a ``_workspace``), allocated here unless the caller passes it.
    A duplicated scale reuses its twin's count.  ``_nested_counts`` counts
    without sorting where it can prove its counts exact, and returns None
    where it cannot; then the coordinates are sorted, and each scale's
    bins, sorted too, are counted by their changes over all points.  Counts
    are equal either way; only the cost differs.
    """
    order = sorted({float(d) for d in scales})
    work = _workspace(coords.size) if work is None else work
    found = _nested_counts(coords, order, work)
    if found is None:
        found = _sorted_counts(coords, order, work)
    counts = dict(zip(order, found))
    return [counts[float(d)] for d in scales]


def _nested_counts(coords, order, work):
    """Counts at the ascending scales ``order`` from one table of the
    finest scale's bins, or None where that is not provably exact.

    With delta_f = order[0], each coordinate's quotient q = fl(x / delta_f)
    is floored once to its bin k, and the bins are marked in a bool table
    spanning the finest bin indices, held in the bytes of the floor
    buffer (8 slots per coordinate).  The finest count is the number of
    marked slots; a coarser scale delta, with R = round(delta / delta_f),
    counts the distinct k // R over the marked bins in order.  With
    eps = 2**-53 and M = max |x|, that equals the distinct floor(fl(x /
    delta)) when two tests hold:

    * nesting: R >= 2 and |delta - R delta_f| <= 4 eps delta, checked as
      |delta - fl(R delta_f)| <= 2 eps delta, which implies it;
    * distance from the bin edges: every q has q - floor(q) in [tau, 1 -
      tau], tau = 16 eps (M / delta_f + 1).

    Then fl(x / delta) = (q / R)(1 + theta) with |theta| <= 7 eps, so it
    lies within 7 eps |q| / R < tau / R of q / R, while q / R lies at least
    tau / R inside the cell [k // R, k // R + 1): floor(fl(x / delta)) =
    k // R.  A shadow that fails either test, or whose finest bins span
    more slots than the table holds, returns None.
    """
    size, fine = coords.size, order[0]
    if not (size and fine > 0.0 and order[-1] / fine < 2.0**52):
        return None
    ratios = [round(d / fine) for d in order[1:]]
    if any(r < 2 or abs(d - r * fine) > 2.0 * _EPS * d for r, d in zip(ratios, order[1:])):
        return None
    lo, hi = float(coords.min()), float(coords.max())
    first = float(np.floor(lo / fine))
    span = float(np.floor(hi / fine)) - first + 1.0
    if not span <= 8 * size:   # also where an extreme is inf or NaN
        return None
    quotient, floors = work
    np.divide(coords, fine, out=quotient)
    np.floor(quotient, out=floors)
    if ratios:
        tau = 16.0 * _EPS * (max(-lo, hi) / fine + 1.0)
        # exact but for -1 < q < 0, where the rounding (<= eps) is within
        # the margin: 7 eps |q| < tau - eps
        np.subtract(quotient, floors, out=quotient)
        if not (quotient.min() >= tau and quotient.max() <= 1.0 - tau):
            return None
    # the quotients are dead: their bytes take the slots, exact as
    # 0 <= value < span, and the floors' bytes the table
    slot = quotient.view(np.int64)
    np.subtract(floors, first, out=slot, casting="unsafe")
    seen = floors.view(bool)[:int(span)]
    seen.fill(False)
    seen[slot] = True
    bins = np.flatnonzero(seen)
    if not ratios:
        return [bins.size]
    # the table and the slots are dead, and so are the bin indices once
    # shifted: tau <= 1/2 bounds |k| by 2**49, so k and floor(fl(k / R)) =
    # k // R are exact in floats
    fine_bins, coarse = floors[:bins.size], quotient[:bins.size]
    np.add(bins, first, out=fine_bins)
    steps = bins.view(bool)[:bins.size - 1]
    counts = [bins.size]
    for r in ratios:
        np.floor(np.divide(fine_bins, r, out=coarse), out=coarse)
        counts.append(_distinct_sorted(coarse, steps))
    return counts


def _sorted_counts(coords, order, work):
    """Counts at the scales ``order`` over all of ``coords``, sorted in
    place: the bins of sorted coordinates are sorted too."""
    coords.sort()
    bins, steps = work[0], work[1].view(bool)[:max(coords.size - 1, 0)]
    counts = []
    for delta in order:
        np.floor(np.divide(coords, delta, out=bins), out=bins)
        counts.append(_distinct_sorted(bins, steps))
    return counts


def _occupied_counts(points, scales):
    """Occupied cells of the grid delta * Z^n, one count per scale, in order.

    The shifted integer cell coordinates of each point mix into one int64
    key, one contiguous column at a time; the key is sorted and its changes
    counted.  The column, key and change buffers are allocated once and
    refilled for every scale: fresh cloud-sized arrays per scale would each
    be a new mapping whose pages fault in.  A scale whose key could wrap
    is counted by ``_lexsorted_count`` instead.
    """
    if points.shape[1] == 1:
        return _bin_counts(points[:, 0].copy(), scales)
    size = len(points)
    # per column: numpy reduces an (n, 2) array over axis 0 ~10x slower
    columns = [points[:, j] for j in range(points.shape[1])]
    lo, hi = [c.min() for c in columns], [c.max() for c in columns]
    cell = np.empty(size)
    col = np.empty(size, dtype=np.int64)
    key = np.empty(size, dtype=np.int64)
    steps = np.empty(max(size - 1, 0), dtype=bool)
    counts = []
    for delta in scales:
        if not _key_fits(lo, hi, delta):
            counts.append(_lexsorted_count(points, delta))
            continue
        for j in range(points.shape[1]):
            np.floor(np.divide(points[:, j], delta, out=cell), out=cell)
            dest = col if j else key
            np.copyto(dest, cell, casting="unsafe")
            dest -= dest.min()
            if j:
                key *= int(col.max()) + 1
                key += col
        key.sort()
        counts.append(_distinct_sorted(key, steps))
    return counts


def _key_fits(lo, hi, delta):
    """Whether the cells of points within [lo, hi] at scale delta take an
    int64 key: every cell index, and the product over the columns of the
    index spans (max shifted index + 1), lie below 2**63, in Python ints.

    floor(fl(x / delta)) is monotone in x, so the extremes of the points
    give the extremes of their cell indices.
    """
    lows = [math.floor(float(a) / delta) for a in lo]
    highs = [math.floor(float(b) / delta) for b in hi]
    spans = math.prod(b - a + 1 for a, b in zip(lows, highs))
    return -2**63 < min(lows) and max(highs) < 2**63 and spans < 2**63


def _lexsorted_count(points, delta):
    """Occupied cells of the grid delta * Z^n from the float cell
    coordinates, which cannot wrap: rows in lexsort order, and their changes."""
    cells = np.floor(points / delta)
    cells = cells[np.lexsort(cells.T)]
    return int(len(cells) > 0) + int(np.count_nonzero(np.any(cells[1:] != cells[:-1], axis=1)))


def _check_resolved(cloud, scales):
    for delta in scales:
        if float(delta) < 2.0 * cloud.resolution:
            raise UnderResolved(
                f"delta {float(delta):g} below twice the cloud resolution {cloud.resolution:g}"
            )


def box_count(cloud, delta):
    """Number of occupied cells of the grid delta * Z^n."""
    _check_resolved(cloud, [delta])
    return _occupied_counts(cloud.points, [float(delta)])[0]


def admissible_scales(cloud):
    """Powers base^-k admissible under the resolution guard, coarse first."""
    out = []
    for k in range(1, MAX_SCALES + 1):
        delta = float(cloud.base) ** (-k)
        if delta < 2.0 * cloud.resolution:
            break
        out.append(delta)
    return out


def fit_loglog(scales, counts):
    """Least-squares slope of log N against log delta, without refusal.

    ``counts`` holds one count per scale along its last axis.  A stack of
    rows is fitted in one closed-form pass; ``slope`` and ``r2`` are then
    arrays over its leading axes, and floats for a single row.
    """
    scales = np.asarray(scales, dtype=float)
    counts = np.asarray(counts, dtype=float)
    xs = np.log(scales)
    dx = xs - xs.mean()
    ys = np.log(counts)
    dy = ys - ys.mean(axis=-1, keepdims=True)
    beta = np.sum(dy * dx, axis=-1) / np.sum(dx * dx)
    ss_res = np.sum((dy - beta[..., None] * dx) ** 2, axis=-1)
    ss_tot = np.sum(dy * dy, axis=-1)
    flat = ss_tot == 0.0
    r2 = np.where(flat, 1.0, np.maximum(0.0, 1.0 - ss_res / np.where(flat, 1.0, ss_tot)))
    slope = -beta
    if counts.ndim == 1:
        slope, r2 = float(slope), float(r2)
    return DimensionEstimate(scales=scales, counts=counts.astype(int), slope=slope, r2=r2)


def estimate_dim(cloud, scales=None):
    """Box-count over a ladder of scales and fit the dimension.

    Refuses with LowQualityFit when the fit explains less than ``MIN_R2`` of
    the variance; refuses with UnderResolved when fewer than four admissible
    scales exist.
    """
    if scales is None:
        scales = admissible_scales(cloud)
    scales = sorted((float(s) for s in scales), reverse=True)
    scales = [s for s in scales if s >= 2.0 * cloud.resolution]
    if len(scales) < MIN_SCALES:
        raise UnderResolved("need at least four admissible scales")
    counts = _occupied_counts(cloud.points, scales)
    est = fit_loglog(scales, counts)
    if est.r2 < MIN_R2:
        raise LowQualityFit(f"log-log fit r2 {est.r2:.4f} below {MIN_R2}")
    return est


# ---------------------------------------------------------------------------
# shadows
# ---------------------------------------------------------------------------

def _shadow_functional(norm, w):
    """Linear functional giving the arc-length coordinate on w-perp of the
    closest-point projection of a point.

    Projecting x along u = G^{-1}(w) and reading the coordinate against the
    canonical unit direction v of w-perp collapses to the single functional
    <x, v - (<u,v>/<u,w>) w>, applied to all points at once.
    """
    if not isinstance(w, HyperplaneNormal):
        w = HyperplaneNormal(w)
    v = w.line_direction()
    if norm.kind == "euclidean":
        return v
    u = norms.inverse_gauss(norm, w.w)
    return v - (float(np.dot(u, v)) / float(np.dot(u, w.w))) * w.w


def _worker_count():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def projected_counts(norm, cloud, normals, scales):
    """Occupied delta-bins of the cloud's shadow on w-perp, for each w in ``normals``.

    Returns one list per normal, in order, holding one count per scale in
    the order given.  The shadow functionals are computed on the calling
    thread; the directions are then counted on one worker thread per CPU
    the process may use (at most one per normal), worker k taking the
    normals i = k mod W.  Each worker allocates one set of buffers (a
    shadow and a ``_workspace``) and refills it for each of its normals;
    fresh cloud-sized arrays per direction would each be a new mapping
    whose pages fault in.  An exception in a worker stops the others and
    is raised here once all have ended.
    """
    if cloud.dim != 2:
        raise ValueError("projected_counts expects a planar cloud")
    _check_resolved(cloud, scales)
    # inverse_gauss fills the norm's memo, which is not shared safely
    functionals = [_shadow_functional(norm, w) for w in normals]
    out = [None] * len(functionals)
    workers = max(1, min(_worker_count(), len(functionals)))
    errors = []

    def count(k):
        try:
            shadow = np.empty(len(cloud.points))
            work = _workspace(len(cloud.points))
            for i in range(k, len(functionals), workers):
                if errors:
                    return
                np.matmul(cloud.points, functionals[i], out=shadow)
                out[i] = _bin_counts(shadow, scales, work)
        except BaseException as exc:   # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=count, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    count(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def projector_counts(projector, cloud, scales):
    """Occupied delta-bins of the image of a planar rank-one projector.

    Returns one count per scale in ``scales``, in the order given; a
    rank-zero projector maps the cloud to one point, so every count is 1.
    """
    _check_resolved(cloud, scales)
    # arc-length coordinate along the image line read off the matrix (a
    # family built from a map g projects onto g(V), not onto V)
    for probe in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        cand = projector.matrix @ probe
        if np.linalg.norm(cand) > 1e-9:
            direction = norms.canonicalize_direction(cand / np.linalg.norm(cand))
            image = projector.apply(cloud.points)
            # the image is dead once its shadow is read: its bytes are the workspace
            return _bin_counts(image @ direction, scales, image.reshape(2, -1))
    return [1] * len(scales)


def favard_proxy(cloud, directions, delta, norm=None):
    """Mean shadow length over a direction grid at resolution delta.

    For each angle the hyperplane normal is (cos a, sin a); the shadow
    length is the occupied-bin count times delta.  ``norm`` defaults to the
    Euclidean norm; a strictly convex model reuses its projection family.
    """
    if norm is None:
        norm = norms.euclidean()
    angles = np.asarray(getattr(directions, "angles", directions), dtype=float)
    counts = projected_counts(norm, cloud, [HyperplaneNormal.from_angle(a) for a in angles], [delta])
    return float(np.mean([c[0] * float(delta) for c in counts]))
