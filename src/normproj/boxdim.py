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
coordinate column at a time, in buffers shared by every scale of a ladder,
and is int32 wherever the cells fit it.

Every line shadow (a sweep's shadow on w-perp, a projector's image, a line
cloud's own coordinate) is one linear functional of the cloud, counted by
one core, ``_line_counts``, on one worker thread per CPU the process may
use, each with one set of buffers.  It sorts a shadow only where a table
is not provably exact: the quotients by the finest scale are floored once
into a bool table of bins, and each coarser scale of a chained ladder is
folded out of the previous scale's table (``_table_counts``).
"""

import itertools
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
MAX_SCALES = 12  # longest default ladder of admissible_scales
_EPS = 2.0**-53   # unit roundoff of float64
_SLOTS = 8        # bin table slots per coordinate: the bytes of one float


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


def _distinct_sorted(ordered, steps):
    """Distinct values of a sorted 1-D array: its changes, plus one if
    non-empty; ``steps`` is a boolean buffer of length max(len - 1, 0)."""
    changes = np.not_equal(ordered[1:], ordered[:-1], out=steps)
    return int(ordered.size > 0) + int(np.count_nonzero(changes))


def _fold_steps(order):
    """Fold factors of the ascending scales ``order`` on its finest, or None
    where the ladder is not chained.

    With delta_f = order[0] and R_i = round(order[i] / delta_f), R_0 = 1,
    the factors are m_i = R_i / R_(i-1).  The ladder is chained where every
    coarser scale is nested on the finest, |delta - R delta_f| <= 4 eps
    delta (checked as |delta - fl(R delta_f)| <= 2 eps delta, which implies
    it), and each R_(i-1) divides R_i with m_i >= 2.  Every base^-k ladder
    is chained.
    """
    fine = order[0]
    if not (fine > 0.0 and order[-1] / fine < 2.0**52):
        return None
    ratios = [1] + [round(d / fine) for d in order[1:]]
    if any(abs(d - r * fine) > 2.0 * _EPS * d for r, d in zip(ratios[1:], order[1:])):
        return None
    folds = [b // a for a, b in zip(ratios, ratios[1:])]
    if any(m < 2 or m * a != b for m, a, b in zip(folds, ratios, ratios[1:])):
        return None
    return folds


def _table_range(lo, hi, size, rmax):
    """First bin and length of a bin table over the bins floor(lo) ..
    floor(hi), both multiples of ``rmax``, so that every coarser scale of
    the ladder folds whole; None where the table would take more than
    ``_SLOTS`` slots per coordinate, or where an end is inf or NaN."""
    if not hi - lo <= _SLOTS * size:
        return None
    first = math.floor(lo) // rmax * rmax
    span = -(-(math.floor(hi) + 1 - first) // rmax) * rmax
    return (first, span) if span <= _SLOTS * size else None


def _table_counts(quotients, floors, folds, first, span, tau):
    """Counts at a chained ladder from one bin table of the finest scale,
    or None where a quotient sits too near a bin edge.

    ``quotients`` holds each coordinate's quotient q by the finest scale
    delta_f, and ``floors`` is a float buffer of its length; both are
    clobbered.  Each bin k = floor(q) lies in [first, first + span), and
    ``first`` and ``span`` are multiples of the product of ``folds`` (the
    fold factors m of ``_fold_steps``).  Bin k marks slot k - first of a
    bool table held in the bytes of ``floors``; the finest count is the
    number of marked slots.  Each coarser scale ORs the m strided views of
    the previous scale's table and counts the marked slots of the result:
    slot j of the scale with ratio R marks the bins k with k // R = j +
    first / R.  That equals the distinct floor(x / delta) as numpy rounds
    it when every q has q - floor(q) in [tau, 1 - tau].

    With eps = 2**-53, let each q lie within 6 eps B of fl(x / delta_f),
    numpy's quotient of the coordinate x, and let tau = 16 eps (B + 1).
    Then floor(q) = floor(fl(x / delta_f)).  At a coarser scale delta,
    nested on the finest with ratio R (|delta - R delta_f| <= 4 eps delta),
    fl(x / delta) lies within 10 eps B / R < tau / R of q / R, while q / R
    lies at least tau / R inside the cell [k // R, k // R + 1):
    floor(fl(x / delta)) = k // R.  ``_line_counts`` bounds B from the
    cloud's bounding box; where its quotient is numpy's own (q =
    fl(x / delta_f)) only coarser scales need the test.  ``tau`` None
    skips it.
    """
    np.floor(quotients, out=floors)
    if tau is not None:
        # exact but for -1 < q < 0, where the rounding (<= eps) is within
        # the margin: 10 eps B < tau - eps
        np.subtract(quotients, floors, out=quotients)
        if not (quotients.min() >= tau and quotients.max() <= 1.0 - tau):
            return None
    # the quotients are dead: their bytes take the slots, exact as
    # 0 <= k - first < span, and the floors' bytes the table
    floors -= first
    slots = quotients.view(np.int64)
    np.copyto(slots, floors, casting="unsafe")
    table = floors.view(bool)[:span]
    table.fill(False)
    table[slots] = True
    counts = [int(np.count_nonzero(table))]
    # the slots are dead too: their bytes take the coarser tables, which
    # together are shorter than the finest
    spare = quotients.view(bool)
    for m in folds:
        coarse, spare = spare[:table.size // m], spare[table.size // m:]
        if m in (2, 4, 8):   # m slots in a row are the bytes of one uint
            np.not_equal(table.view(f"u{m}"), 0, out=coarse)
        else:
            np.logical_or(table[0::m], table[1::m], out=coarse)
            for r in range(2, m):
                np.logical_or(coarse, table[r::m], out=coarse)
        table = coarse
        counts.append(int(np.count_nonzero(table)))
    return counts


def _sorted_counts(coords, order, bins, steps):
    """Counts at the scales ``order`` over all of ``coords``, sorted in
    place, with ``bins`` a float buffer of its length and ``steps`` a bool
    buffer one shorter: the bins of sorted coordinates are sorted too."""
    coords.sort()
    counts = []
    for delta in order:
        np.floor(np.divide(coords, delta, out=bins), out=bins)
        counts.append(_distinct_sorted(bins, steps))
    return counts


def _worker_count():
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _line_counts(points, functionals, scales):
    """Occupied delta-bins of the shadows P f of the cloud P, f each row of
    ``functionals``: a (D, S) int64 array of the distinct floor(fl(P f) /
    delta), one count per scale in the order given.

    On a chained ladder ``_table_counts`` counts a shadow's quotients q by
    the finest scale delta_f, their range and margin taken once per call
    from the cloud's bounding box: with lo_j and hi_j the extremes of
    column j, g = f / delta_f and B = sum_j max(|lo_j|, |hi_j|) |g_j|, q
    and fl(fl(P f) / delta_f) both lie within 3 eps B of P f / delta_f.  A
    planar cloud's q = P g is one matmul; a line cloud's is numpy's own
    fl(P f / delta_f).  Other shadows, and those the table refuses, are
    sorted.  One worker thread per CPU the process may use (at most one per
    row) takes the next row from a shared counter and refills one set of
    buffers; fresh cloud-sized arrays would each be a new mapping whose
    pages fault in.  An exception in a worker stops the others and is
    raised here once all have ended; quotients that overflow a float raise
    ValueError.
    """
    size, width = points.shape
    order = sorted({float(d) for d in scales})
    positions = [order.index(float(d)) for d in scales]
    folds = _fold_steps(order) if size else None
    if size:
        lo = np.array([points[:, j].min() for j in range(width)])
        hi = np.array([points[:, j].max() for j in range(width)])
        scaled = functionals / order[0]
        with np.errstate(over="ignore", invalid="ignore"):
            tau = 16.0 * _EPS * (np.abs(scaled) @ np.maximum(-lo, hi) + 1.0)
            ends = scaled * lo, scaled * hi
            low = np.minimum(*ends).sum(axis=1) - tau
            high = np.maximum(*ends).sum(axis=1) + tau
            if not np.isfinite(high - low).all():
                raise ValueError(f"bin indices at the scale {order[0]!r} overflow a float")
    out = np.empty((len(functionals), len(scales)), dtype=np.int64)
    workers = max(1, min(_worker_count(), len(out)))
    tickets = itertools.count()
    errors = []

    def count():
        try:
            # the quotients and their floors, or a shadow to sort and its
            # bins; the sort's steps fault in only if a shadow is sorted
            quotients, floors = np.empty((2, size))
            steps = np.empty(max(size - 1, 0), dtype=bool)
            while not errors:
                i = next(tickets)
                if i >= len(out):
                    return
                found = None
                table = None if folds is None else _table_range(low[i], high[i], size, math.prod(folds))
                if table is not None:
                    if width == 1:   # numpy's own quotient, exact: one scale needs no edge test
                        np.multiply(points[:, 0], functionals[i, 0], out=quotients)
                        quotients /= order[0]
                    else:
                        np.matmul(points, scaled[i], out=quotients)
                    found = _table_counts(quotients, floors, folds, *table,
                                          tau[i] if width > 1 or folds else None)
                if found is None:
                    np.matmul(points, functionals[i], out=quotients)
                    found = _sorted_counts(quotients, order, floors, steps)
                out[i] = [found[k] for k in positions]
        except BaseException as exc:   # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=count) for _ in range(1, workers)]
    for thread in threads:
        thread.start()
    count()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return out


def _occupied_counts(points, scales):
    """Occupied cells of the grid delta * Z^n, one count per scale, in order.

    The integer cell coordinates of each point, shifted to start at 0, mix
    into one key, one contiguous column at a time; the key is sorted and
    its changes counted.  The key is int32 where ``_key_fits`` says the
    cells fit it, which sorts faster than int64.  The column, key and
    change buffers are allocated once and refilled for every scale: fresh
    cloud-sized arrays per scale would each be a new mapping whose pages
    fault in.  A scale whose cells take no key is counted by
    ``_lexsorted_count`` instead.
    """
    if points.shape[1] == 1:
        return _line_counts(points, np.array([[1.0]]), scales)[0].tolist()
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
        fits = _key_fits(lo, hi, delta)
        if not fits:
            counts.append(_lexsorted_count(points, delta))
            continue
        lows, spans, dtype = fits
        keys, cols = key.view(dtype)[:size], col.view(dtype)[:size]
        for j, column in enumerate(columns):
            np.floor(np.divide(column, delta, out=cell), out=cell)
            cell -= lows[j]   # exact: the shifted index lies in [0, 2**53)
            dest = cols if j else keys
            np.copyto(dest, cell, casting="unsafe")
            if j:
                keys *= spans[j]
                keys += cols
        keys.sort()
        counts.append(_distinct_sorted(keys, steps))
    return counts


def _key_fits(lo, hi, delta):
    """How the cells of points within [lo, hi] at scale delta take a key:
    the lowest cell index and the index span (max - min + 1) of each
    column, and the key's dtype; or None where the product of the spans
    reaches 2**53.

    The dtype is int32 where that product lies below 2**31, and int64
    otherwise.  The indices are Python ints, and the shift of each index
    by its column's lowest is exact in floats below 2**53.  floor(fl(x /
    delta)) is monotone in x, so the extremes of the points give the
    extremes of their cell indices.  Indices that overflow a float raise
    ValueError.
    """
    if not all(math.isfinite(float(x) / delta) for x in (*lo, *hi)):
        raise ValueError(f"cell indices at the scale {delta!r} overflow a float")
    lows = [math.floor(float(a) / delta) for a in lo]
    spans = [math.floor(float(b) / delta) - low + 1 for b, low in zip(hi, lows)]
    cells = math.prod(spans)
    if cells >= 2**53:
        return None
    return lows, spans, np.int32 if cells < 2**31 else np.int64


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


def admissible_scales(cloud, lo=1, hi=MAX_SCALES):
    """Powers base^-k for k = lo..hi admissible under the resolution guard, coarse first."""
    out = []
    for k in range(lo, hi + 1):
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
    """Linear functional giving the arc-length coordinate on w-perp, w a
    HyperplaneNormal, of the closest-point projection of a point.

    Projecting x along u = G^{-1}(w) and reading the coordinate against the
    canonical unit direction v of w-perp collapses to the single functional
    <x, v - (<u,v>/<u,w>) w>, applied to all points at once.
    """
    v = w.line_direction()
    if norm.kind == "euclidean":
        return v
    u = norms.inverse_gauss(norm, w.w)
    return v - (float(np.dot(u, v)) / float(np.dot(u, w.w))) * w.w


def projected_counts(norm, cloud, normals, scales):
    """Occupied delta-bins of the cloud's shadow on w-perp, for each w in ``normals``.

    ``normals`` is any iterable.  Returns a (D, S) int64 array: row i holds
    normal i's counts, one per scale in the order given (``_line_counts``).
    """
    if cloud.dim != 2:
        raise ValueError("projected_counts expects a planar cloud")
    _check_resolved(cloud, scales)
    # inverse_gauss fills the norm's memo, which is not shared safely
    functionals = np.fromiter((_shadow_functional(norm, w) for w in normals),
                              dtype=np.dtype((float, 2)))
    return _line_counts(cloud.points, functionals, scales)


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
            # the image's coordinate is one functional of the cloud
            return _line_counts(cloud.points, (projector.matrix.T @ direction)[None], scales)[0].tolist()
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
    counts = projected_counts(norm, cloud, (HyperplaneNormal.from_angle(a) for a in angles), [delta])
    return float(np.mean(counts[:, 0] * float(delta)))
