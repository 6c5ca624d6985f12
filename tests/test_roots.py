"""The plain-Python brentq against SciPy's, bit for bit."""

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
