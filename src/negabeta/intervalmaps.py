"""Two companion interval systems used as cross-checks.

A five-branch slope-3 map whose symbolic system is a two-piece ordered
presentation with exactly computable cylinder lengths, and a circle map with
one source and one sink whose occupation-time deviations have a closed-form
predicted rate.  The slope-3 system runs in exact rational arithmetic; the
circle map is smooth and non-expanding away from its source, so plain double
precision is enough there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from negabeta.ldp import DeviationEstimate, _window_deviation
from negabeta.measures import Image, ImageTable, word_classes
from negabeta.sampling import _sample_doubles
from negabeta.shiftgraph import LabeledGraph
from negabeta.specprop import SoficPresentation


class IntervalMapError(Exception):
    """Base class for errors raised by this module."""


@dataclass(frozen=True)
class AffineBranch:
    """One affine branch x -> slope*x + intercept on [lo, hi)-style cells."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    slope: Fraction
    intercept: Fraction


@dataclass(frozen=True)
class PiecewiseExpandingMap:
    """Piecewise affine expanding map given by its branch cells."""

    branches: tuple[AffineBranch, ...]

    @cached_property
    def image_table(self) -> ImageTable:
        """The branches acting on the endpoints of the images T^n[w], built once per map.

        For Example 3.1 the table is the six cell endpoints.
        """
        slope = self.branches[0].slope
        if any(br.slope != slope for br in self.branches):
            raise IntervalMapError("the image table needs one slope for all branches")
        return ImageTable(self.branches, [br.intercept for br in self.branches], slope,
                          1 / slope, slope < 0, {x for br in self.branches for x in (br.lo, br.hi)})


def example31_system() -> tuple[PiecewiseExpandingMap, SoficPresentation]:
    """The five-branch slope-3 map and its two-piece ordered presentation.

    Words of the symbolic system are exactly the factors of u 1 v with u over
    {0,1} and v over {2,3,4}; the presentation has one vertex looping on
    {0,1}, a 1-labeled edge to a second vertex looping on {2,3,4}.
    """
    cells = [
        (Fraction(0), Fraction(1, 6), Fraction(0)),
        (Fraction(1, 6), Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(2, 3), Fraction(-1)),
        (Fraction(2, 3), Fraction(5, 6), Fraction(-3, 2)),
        (Fraction(5, 6), Fraction(1), Fraction(-2)),
    ]
    branches = []
    for k, (lo, hi, intercept) in enumerate(cells):
        last = k == len(cells) - 1
        branches.append(AffineBranch(lo, hi, True, last, Fraction(3), intercept))
    fmap = PiecewiseExpandingMap(tuple(branches))
    graph = LabeledGraph(
        2,
        frozenset({(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)}),
    )
    presentation = SoficPresentation(graph, ((0,), (1,)))
    return fmap, presentation


@dataclass(frozen=True)
class Example31BoundsReport:
    """The words of length n whose image T^n[w] is one interval, counted.

    All of them share the cylinder length 3^-n * |image|, so the two bounds
    hold for all of them or for none.
    """

    n: int
    image: Image
    length: Fraction
    words: int
    lower_ok: bool
    upper_ok: bool


def example31_measure_bounds(maxlen: int) -> list[Example31BoundsReport]:
    """Exact cylinder lengths with the (1/2)3^-n <= L <= 3^-n bounds, for all words up to maxlen.

    Counts words instead of listing them: the classes of the map's image
    table (:func:`negabeta.measures.word_classes`), one per image.  A
    word's length is 3^-n times the length of its image, so both bounds are
    bounds on the image (1/2 <= |J_w| <= 1), decided once per image.
    Returns one report per (length, image); ``words`` sums to the number of
    words.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    table = example31_system()[0].image_table
    bounds = table.bounds(Fraction(1, 2))
    reports = []
    for n, level in enumerate(word_classes(table, maxlen), 1):
        for image, (_, count) in level.items():
            upper_ok, lower_ok = bounds(image[0], image[2])
            reports.append(Example31BoundsReport(n, image, table.length(n, image), count,
                                                 lower_ok, upper_ok))
    return reports


# -- circle map with a source and a sink ---------------------------------------------------


@dataclass(frozen=True)
class CircleMap:
    """theta -> theta + strength * sin(2*pi*theta) on representatives [0, 1).

    The commands iterate it on arrays (`_vectorized_circle`).
    """

    strength: float = 0.1

    def derivative(self, theta: float) -> float:
        return 1.0 + self.strength * 2.0 * math.pi * math.cos(2.0 * math.pi * theta)

    def source_rate(self) -> float:
        """log of the derivative at the repelling fixed point 0."""
        return math.log(self.derivative(0.0))


def _vectorized_circle(theta: np.ndarray, strength: float) -> np.ndarray:
    import numpy as np

    t = theta - np.floor(theta)
    upper = t >= 0.5
    reduced = np.where(upper, t - 0.5, t)
    # sin(2 pi r) = sin(2 pi (1/2 - r)): fold [0, 1/2) onto [0, 1/4].  Both
    # subtractions are exact where their result is used (Sterbenz's lemma)
    s = np.sin(2.0 * np.pi * np.minimum(reduced, 0.5 - reduced))
    s = np.where(upper, -s, s)
    out = theta + strength * s
    return out - np.floor(out)


def circle_nonwandering(fmap: CircleMap) -> list[float]:
    """The non-wandering set of the circle map: its fixed points, [0.0, 0.5].

    For 0 < s < 1/(2 pi), theta -> theta + s sin(2 pi theta) has derivative
    1 + 2 pi s cos(2 pi theta) > 0, so it is an orientation-preserving
    homeomorphism of the circle.  Since |s sin(2 pi theta)| < 1, its fixed
    points are exactly the zeros {0, 1/2} of sin(2 pi theta); so its
    rotation number is 0, and by Poincare's classification every orbit
    converges to a fixed point: the non-wandering set is the fixed-point
    set.  Raises ValueError for any other strength.
    """
    if not 0 < fmap.strength < 1 / (2 * math.pi):
        raise ValueError(f"strength must lie in (0, 1/(2 pi)), got {fmap.strength}")
    return [0.0, 0.5]


def circle_mc_deviation(a_window: tuple[float, float], n: int, sample_count: int,
                        seed: int, eps: float) -> DeviationEstimate:
    """Lebesgue probability of spending a given fraction of time near the source.

    The occupation observable is the fraction of the first n iterates within
    eps of 0 (circle distance); the predicted decay rate of the tail at
    fraction a is a * log f'(0).  Uses the same counter-based sampler as the
    digit engine: each batch of ``_CHUNK`` samples is one block of Philox
    output, whose rows are read as doubles
    (:func:`negabeta.sampling._sample_doubles`, which the generic digit
    engine reads too; only the rare row below 2^-9 becomes a Python integer)
    and iterated in double precision.  A point that leaves the
    eps-neighbourhood never comes back (see ``occupation_fractions``), so
    each batch iterates only the rows still near 0 and stops when none is
    left: the cost grows with the rows near the source, not with N*n.  Hits
    are counted per batch, so memory stays flat in the sample count.
    Raises ValueError for an eps outside (0, 1/2): from 1/2 on, the
    neighbourhood holds the sink 1/2.
    """
    import numpy as np

    if not 0 < eps < 0.5:  # nan too
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    fmap = CircleMap()

    def occupation_fractions(start: int, block: np.ndarray) -> np.ndarray:
        """The fraction of the first n iterates of each row within eps of 0.

        The float map never decreases min(theta, 1 - theta): on [0, 1/2) it
        adds s*sin >= 0, on [1/2, 1) it subtracts a term >= 0, rounding to
        nearest is monotone, and 0 and 1/2 are exact fixed points.  So a
        row's near iterates are a prefix of its orbit, and a row is dropped
        at its first iterate farther than eps.  ``np.sin`` is elementwise,
        so mapping the surviving rows gives each the double it would get in
        the whole batch.
        """
        theta = _sample_doubles(block)
        near = np.zeros(len(block))
        live = np.arange(len(block))
        for _ in range(n):
            inside = np.minimum(theta, 1.0 - theta) <= eps
            live, theta = live[inside], theta[inside]
            if not live.size:
                break
            near[live] += 1
            theta = _vectorized_circle(theta, fmap.strength)
        return near / n

    return _window_deviation(a_window, n, sample_count, seed, occupation_fractions)


def predicted_occupation_rate(a: float) -> float:
    """Closed-form rate for occupation fraction a near the source."""
    return a * CircleMap().source_rate()
