"""Per-point exact oracles for the staircase grid, read only by the tests.

Every command reaches the staircase through the one-pass integer grid
``cantor._exact_grid``.  The tests compare it with an independent route:
an exact ``fractions.Fraction`` descent of the interval tree for the
integral of the staircase, and ``Fraction`` views of the level intervals
and gaps built from ``CantorSet.level_starts``.
"""

from fractions import Fraction

from normproj.cantor import DESCENT_CAP


def level_intervals(K, k):
    """Exact (starts, length) of the m^k level-k intervals, sorted."""
    starts, length, unit = K.level_starts(k)
    return [Fraction(a, unit) for a in starts], Fraction(length, unit)


def gaps_upto(K, k):
    """Exact (left, right) endpoints of all gaps of level <= k, sorted.

    Every gap of level <= k lies between two consecutive level-k
    intervals, from the end of one to the start of the next.
    """
    starts, length, unit = K.level_starts(k)
    return [(Fraction(a + length, unit), Fraction(b, unit))
            for a, b in zip(starts, starts[1:])]


def _integral_staircase_exact(K, u):
    """Exact bracket of integral_0^u staircase as (value, error) Fractions.

    The integral over a complete level interval uses self-similarity (the
    restricted staircase integrates to half the interval's mass times its
    length above its base value); gap pieces are rectangles.  Only a partial
    deepest interval contributes a bracketed remainder.
    """
    if u <= 0:
        return Fraction(0), Fraction(0)
    if u >= 1:
        return Fraction(1, 2), Fraction(0)
    r = K.r
    m = K.m
    step0 = K.branch_step
    total = Fraction(0)
    base = Fraction(0)   # staircase value at the left end of current interval
    mass = Fraction(1)   # measure carried by the current interval
    length = Fraction(1)
    pos = Fraction(u)
    for _ in range(DESCENT_CAP):
        step = step0 * length
        sub = r * length
        glen = step - sub
        i = int(pos // step)
        if i > m - 1:
            i = m - 1
        # complete sub-intervals and gaps strictly left of branch i
        for j in range(i):
            total += sub * (base + (Fraction(2 * j + 1, 2)) * mass / m)
            total += glen * (base + (j + 1) * mass / m)
        rel = pos - i * step
        if rel >= sub:  # ends inside gap i
            total += sub * (base + (Fraction(2 * i + 1, 2)) * mass / m)
            total += (rel - sub) * (base + (i + 1) * mass / m)
            return total, Fraction(0)
        if rel == 0:
            return total, Fraction(0)
        base += i * mass / m
        mass /= m
        length = sub
        pos = rel
    lo = total + pos * base
    hi = total + pos * (base + mass)
    return (lo + hi) / 2, (hi - lo) / 2


def F_exact(K, u):
    """Quarter integral of f, (integral of staircase + u^2/2) / 8, as exact
    (value, error) Fractions."""
    u = Fraction(u)
    integ, err = _integral_staircase_exact(K, u)
    return (integ + u * u / 2) / 8, err / 8
