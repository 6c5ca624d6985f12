"""The numpy brentq against SciPy's, bit for bit: on a scalar bracket and on
every lane of a stacked call."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from normproj.roots import brentq


def _outcome(solver, f, a, b, **kw):
    """The root's bits as a hex string, or the type of the exception raised."""
    try:
        return float(solver(f, a, b, **kw)).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc)


FAMILIES = (
    lambda c: lambda x: x**3 - c,
    lambda c: lambda x: math.tan(x) - c,
    lambda c: lambda x: math.sin(10.0 * x) - 0.1 * c,
    lambda c: lambda x: math.copysign(abs(x - c) ** 0.3, x - c),
    lambda c: lambda x: 1e-200 * (x - c),   # extrapolation denominators underflow to 0
)


@pytest.mark.parametrize("xtol", [1e-13, 1e-14, 1e-15])
def test_brentq_equals_scipy_on_random_brackets(xtol):
    rng = np.random.default_rng(20)
    for make in FAMILIES:
        for _ in range(200):
            f = make(rng.uniform(-1.0, 1.0))
            a, b = sorted(rng.uniform(-1.4, 1.4, 2))
            # brackets of one sign raise in both; a few steps may not converge
            for maxiter in (100, 4):
                want = _outcome(scipy_brentq, f, a, b, xtol=xtol, maxiter=maxiter)
                got = _outcome(brentq, f, a, b, xtol=xtol, maxiter=maxiter)
                assert got == want, (a, b, maxiter)


def test_brentq_equals_scipy_on_a_multiple_root():
    for c in (0.0, 0.3, -1.0 / 3.0):
        def f(x):
            return math.copysign(abs(x - c) ** 3, x - c)

        want = _outcome(scipy_brentq, f, -2.0, 1.7, xtol=1e-14, maxiter=500)
        assert isinstance(want, str)
        assert _outcome(brentq, f, -2.0, 1.7, xtol=1e-14, maxiter=500) == want


def test_brentq_raises_what_scipy_raises():
    def f(x):
        return x - 0.25

    cases = (
        ((1.0, 2.0), {}),                     # endpoints of one sign
        ((0.0, 1.0), {"maxiter": 0}),         # no convergence
    )
    for args, kw in cases:
        want = _outcome(scipy_brentq, f, *args, **kw)
        assert isinstance(want, type) and _outcome(brentq, f, *args, **kw) is want, (args, kw)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    # a root at either end returns that end without iterating
    assert brentq(f, 0.25, 1.0) == 0.25 and brentq(f, -1.0, 0.25) == 0.25


# the families above as numpy residuals of (x, c), for stacks of lanes
LANE_FAMILIES = (
    lambda x, c: x**3 - c,
    lambda x, c: np.tan(x) - c,
    lambda x, c: np.sin(10.0 * x) - 0.1 * c,
    lambda x, c: np.copysign(np.abs(x - c) ** 0.3, x - c),
    lambda x, c: 1e-200 * (x - c),
)


def _scipy_lanes(family, c, a, b, **kw):
    """SciPy's outcome on each lane's bracket alone.

    SciPy's x goes in as a one-element array: numpy's power and tan on
    arrays may round differently from the C library's on a Python float.
    """
    return [_outcome(scipy_brentq, lambda x, ci=ci: family(np.array([x]), ci)[0], ai, bi, **kw)
            for ci, ai, bi in zip(c, a, b)]


def _stacked(family, c, a, b, **kw):
    return [v.hex() for v in brentq(family, a, b, args=(c,), **kw).tolist()]


@pytest.mark.parametrize("xtol", [1e-13, 1e-14, 1e-15])
def test_every_lane_equals_scipy(xtol):
    rng = np.random.default_rng(21)
    for family in LANE_FAMILIES:
        c = rng.uniform(-1.0, 1.0, 400)
        a, b = np.sort(rng.uniform(-1.4, 1.4, (2, 400)), axis=0)
        want = _scipy_lanes(family, c, a, b, xtol=xtol)
        ok = np.array([isinstance(w, str) for w in want])
        assert ok.sum() > 100
        got = _stacked(family, c[ok], a[ok], b[ok], xtol=xtol)
        assert got == [w for w in want if isinstance(w, str)]


def test_lanes_of_different_lengths_and_endpoint_roots():
    # a multiple root (~150 steps), fast simple roots and roots at either
    # end of the bracket, in one call
    def family(x, c):
        return np.where(c > 1.5, np.copysign(np.abs(x - c + 2.0) ** 3, x - c + 2.0), x - c)

    c = np.array([2.0, 2.3, 2.0 - 1.0 / 3.0, 0.25, -0.7, -2.0, 1.2, 0.1])
    a = np.array([-2.0, -2.0, -2.0, 0.0, -1.0, -2.0, -1.0, 0.1])
    b = np.array([1.7, 1.7, 1.7, 1.0, 1.0, 1.0, 1.2, 0.5])
    want = _scipy_lanes(family, c, a, b, xtol=1e-14, maxiter=500)
    assert all(isinstance(w, str) for w in want)
    assert _stacked(family, c, a, b, xtol=1e-14, maxiter=500) == want
    assert want[5:] == [(-2.0).hex(), (1.2).hex(), (0.1).hex()]


def test_a_slow_lane_or_a_nan_lane_fails_the_stack():
    c = np.array([0.25, 0.5, -0.3])
    a, b = np.full(3, -1.0), np.full(3, 1.0)
    slow = _scipy_lanes(LANE_FAMILIES[1], c, a, b, maxiter=4)
    assert RuntimeError in slow
    with pytest.raises(RuntimeError):
        brentq(LANE_FAMILIES[1], a, b, args=(c,), maxiter=4)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x, c: np.where((x > 0.5) & (c > 0.4), np.nan, x - c), a, b, args=(c,))
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x, c: x - c, a, np.array([1.0, 1.0, -0.5]), args=(c,))
