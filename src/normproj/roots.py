"""Bracketed root finding on a stack of brackets, in plain numpy.

``brentq`` runs SciPy's Brent solver (``brentq.c``) on every lane of a stack
of brackets at once.  Each lane takes the steps of a line-for-line port of
the C source, in the same floating-point order, with its branches as
``np.where``; a lane is frozen once it converges.  So every lane returns the
root SciPy returns on that bracket alone, bit for bit, with the same
defaults (relative tolerance fixed at 4*eps) and exceptions.  The tests use
SciPy as the oracle; the package itself needs only numpy.  As a derivative
of SciPy's source it carries SciPy's licence:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

import numpy as np

XTOL = 2e-12
RTOL = 4.0 * np.finfo(float).eps
MAXITER = 100


def brentq(f, a, b, args=(), xtol=XTOL, maxiter=MAXITER):
    """Roots of ``f`` in the brackets [a, b], one per lane of a stack.

    ``a`` and ``b`` are 1-D arrays, or floats, that broadcast to the stack
    of brackets (a float bracket is a stack of one lane); f(a) and f(b) must
    differ in sign on every lane.  ``f(x, *args)`` gets the 1-D array x of
    the lanes still iterating and, for each array in ``args``, its rows for
    those lanes, and returns their values.  Returns the 1-D array of roots.
    A lane converges when half its bracket is below (xtol + RTOL*|x|)/2,
    and is frozen from then on.  Raises ValueError for a lane whose
    endpoints have one sign or for a NaN value of ``f``, and RuntimeError
    if a lane has not converged after ``maxiter`` steps.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))

    def values(x, lanes):
        fx = f(x, *(arg[lanes] for arg in args))
        fx = np.asarray(fx, dtype=float).reshape(-1)
        nan = np.isnan(fx)
        if nan.any():
            raise ValueError(f"The function value at x={x[nan][0]} is NaN; solver cannot continue.")
        return fx

    lanes = np.arange(a.size)
    xpre, xcur = a.reshape(-1).copy(), b.reshape(-1).copy()
    fpre, fcur = values(xpre, lanes), values(xcur, lanes)
    at_a = fpre == 0.0
    live = ~at_a & (fcur != 0.0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    root = np.where(at_a, xpre, xcur)
    lanes, xpre, xcur, fpre, fcur = (v[live] for v in (lanes, xpre, xcur, fpre, fcur))
    xblk = fblk = spre = scur = np.zeros(len(lanes))
    for _ in range(maxiter):
        if not lanes.size:
            break
        flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        fpre, fcur, fblk = np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)

        delta = (xtol + RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            root[lanes[done]] = xcur[done]
            keep = ~done
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[keep] for v in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
            if not lanes.size:
                break

        with np.errstate(all="ignore"):
            # interpolate where xpre == xblk, else extrapolate; every lane
            # computes both and keeps its own.  A zero den (underflow) gives
            # +-inf or NaN, as in C, and either fails the step test.
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            den = dblk * dpre * (fblk - fpre)
            stry = np.where(xpre == xblk,
                            -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / den)
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = values(xcur, lanes)
    if lanes.size:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur[0]}.")
    return root
