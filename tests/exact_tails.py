"""Exact Lebesgue tails of the two Monte Carlo estimates, for tests to compare against.

`lebesgue_tail` is the measure of the points whose first n digits have a
digit-1 mean in a window: a dynamic program over (image, digit-1 count) on
the image table, where a word of length n with image J has a cylinder of
length |s_n| * |J| (`ImageTable.length`).  `circle_tail` is the measure of
the points of the circle map that spend at least a fraction a of their first
n iterates within eps of the source 0.
"""

import math
from collections import Counter

from negabeta.intervalmaps import CircleMap
from negabeta.measures import image_table

# The seeds a Monte Carlo test runs on, fixed before the samples were drawn,
# and how far each seed's hits may lie from N p
SEEDS = (1, 2, 3, 4, 5)
MAX_SIGMAS = 4.5


def sigmas(hits, count, p):
    """|hits - N p| in standard deviations of the binomial count."""
    return abs(hits - count * p) / math.sqrt(count * p * (1 - p))


def lebesgue_tail(system, n, window):
    """The exact measure of {x : lo <= (digit-1 count of x's first n digits)/n <= hi}.

    Images with one point are dropped: their cylinders have no length.
    The mean is compared in floats, as the engines compare it.
    """
    table = image_table(system)
    level = Counter({(table.root, 0): 1})
    for _ in range(n):
        step = Counter()
        for (image, ones), count in level.items():
            for digit in range(len(table.cells)):
                child = table.step(image, digit)
                if child is not None and child[0] != child[2]:
                    step[child, ones + (digit == 1)] += count
        level = step
    lo, hi = window
    return sum(count * table.length(n, image) for (image, ones), count in level.items()
               if lo <= ones / n <= hi)


def circle_tail(a, n, eps):
    """The exact measure of the points with at least a fraction a of their
    first n iterates within eps of 0 (circle distance).

    The map moves every point monotonically away from the source 0 and
    never back, so the iterates near 0 are the first ones: at least k of
    them are near 0 iff the (k-1)-th is, where k is the least count with
    k/n >= a.  That set is the arc f^-(k-1)([-eps, eps]), symmetric about 0,
    whose half-length is found by bisection on the increasing branch on
    [0, 1/2], where f(x) >= x.
    """
    k = next(k for k in range(1, n + 1) if k / n >= a)
    fmap = CircleMap()
    half = eps
    for _ in range(k - 1):
        lo, hi = 0.0, half
        while (mid := (lo + hi) / 2) not in (lo, hi):
            lo, hi = (mid, hi) if fmap(mid) < half else (lo, mid)
        half = hi
    return 2 * half
