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
from typing import Sequence, Union

from negabeta.ldp import DeviationEstimate, _window_deviation
from negabeta.measures import Image, ImageTable, InadmissibleWord
from negabeta.sampling import _sample_doubles
from negabeta.shiftgraph import LabeledGraph
from negabeta.specprop import SoficPresentation
from negabeta.transform import HitBoundary, Word


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

    def __call__(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True


@dataclass(frozen=True)
class PiecewiseExpandingMap:
    """Piecewise affine expanding map given by its branch cells."""

    branches: tuple[AffineBranch, ...]

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        points = [self.branches[0].lo]
        for br in self.branches:
            points.append(br.hi)
        return tuple(points)

    def branch_of(self, x: Fraction) -> int:
        for i, br in enumerate(self.branches):
            if br.contains(x):
                return i
        raise IntervalMapError(f"{x} lies in no branch cell")

    @cached_property
    def image_table(self) -> ImageTable:
        """The branches acting on the endpoints of the images T^n[w], built once per map.

        For Example 3.1 the table is the six cell endpoints.
        """
        slope = self.branches[0].slope
        if any(br.slope != slope for br in self.branches):
            raise IntervalMapError("the image table needs one slope for all branches")
        return ImageTable(self.branches, [br.intercept for br in self.branches], slope,
                          1 / slope, slope < 0, Fraction(1))

    def on_open_boundary(self, x: Fraction) -> bool:
        return any(x == p for p in self.breakpoints[1:-1])

    def code_point(self, x: Union[Fraction, int, float], n: int,
                   strict: bool = True) -> Word:
        """Branch itinerary of length n in exact rational arithmetic.

        With ``strict`` the orbit must avoid the interior breakpoints (the
        boundary step index is reported); otherwise the half-open cells decide
        every point, endpoints included.
        """
        x = Fraction(x).limit_denominator(10**12) if isinstance(x, float) else Fraction(x)
        if not (0 <= x <= 1):
            raise IntervalMapError("point outside [0, 1]")
        word = []
        for step in range(n):
            if strict and self.on_open_boundary(x):
                raise HitBoundary(step)
            i = self.branch_of(x)
            word.append(i)
            x = self.branches[i](x)
        return tuple(word)


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


def example31_word_admissible(word: Sequence[int]) -> bool:
    """Factor-of-u1v characterization: no digit >= 2 before a digit <= 1."""
    word = tuple(word)
    if any(not 0 <= d <= 4 for d in word):
        return False
    for prev, cur in zip(word, word[1:]):
        if prev >= 2 and cur <= 1:
            return False
        if prev <= 1 and cur >= 2 and prev != 1:
            return False
    return True


def example31_cylinder(fmap: PiecewiseExpandingMap, word: Sequence[int]):
    """Exact rational cylinder of a word under the half-open coding cells.

    Returns (lo, hi, lo_closed, hi_closed), or None when the cylinder is empty.
    Raises :class:`negabeta.measures.InadmissibleWord` for a digit outside
    the alphabet of branches.
    """
    table = fmap.image_table
    word = tuple(word)
    folded = table.fold(word)
    if folded is None:
        return None
    cyl = table.cylinder(word, *folded)
    return cyl.lo, cyl.hi, cyl.lo_closed, cyl.hi_closed


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

    Counts words instead of listing them.  A word's end-state set in the
    presentation (read from all states) fixes its one-letter extensions, and
    its image J_w = T^n[w] in the map's image table fixes theirs; so the
    words of one length fall into classes keyed by (end states, J_w), each
    class steps by ``graph.followers`` and :meth:`ImageTable.step`, and the
    counts of classes that merge add.  The subset step is deterministic, so
    each word lies in exactly one class and the counts are exact.  A word's
    length is 3^-n times the length of its image, so both bounds are bounds
    on the image (1/2 <= |J_w| <= 1), decided once per image.  Returns one
    report per (length, image); ``words`` sums to the number of words.
    Raises :class:`negabeta.measures.InadmissibleWord` when some word's
    cylinder has no interior, naming one word of its class.
    """
    if maxlen < 1:
        raise ValueError("maxlen must be >= 1")
    fmap, presentation = example31_system()
    graph, table = presentation.graph, fmap.image_table
    bounds = table.bounds(Fraction(1, 2))
    # (end states, image) -> [one word of the class, for error messages; number of words]
    level = {(frozenset(range(graph.vertex_count)), table.root): [(), 1]}
    reports = []
    for n in range(1, maxlen + 1):
        children: dict = {}
        for (states, image), (word, count) in level.items():
            for digit, ends in graph.followers(states):
                child = table.step(image, digit)
                if child is None or child[0] == child[2]:
                    raise InadmissibleWord(f"no interior in the cylinder of word {word + (digit,)}")
                entry = children.setdefault((ends, child), [word + (digit,), 0])
                entry[1] += count
        counts: dict[Image, int] = {}
        for (_, image), (_, count) in children.items():
            counts[image] = counts.get(image, 0) + count
        for image, count in counts.items():
            upper_ok, lower_ok = bounds(image[0], image[2])
            reports.append(Example31BoundsReport(n, image, table.length(n, image), count,
                                                 lower_ok, upper_ok))
        level = children
    return reports


# -- circle map with a source and a sink ---------------------------------------------------


def _sin_two_pi(theta: float) -> float:
    """sin(2*pi*theta) with exact zeros at theta in {0, 1/2}.

    Range-reduces so the argument passed to sin is exactly zero at the two
    fixed points, which keeps them genuine fixed points in floating point.
    """
    t = theta - math.floor(theta)
    if t >= 0.5:
        return -_sin_two_pi(t - 0.5)
    if t > 0.25:
        t = 0.5 - t
    return math.sin(2.0 * math.pi * t)


@dataclass(frozen=True)
class CircleMap:
    """theta -> theta + sin(2*pi*theta)/10 on representatives [0, 1)."""

    strength: float = 0.1

    def __call__(self, theta: float) -> float:
        out = theta + self.strength * _sin_two_pi(theta)
        return out - math.floor(out)

    def derivative(self, theta: float) -> float:
        return 1.0 + self.strength * 2.0 * math.pi * math.cos(2.0 * math.pi * theta)

    def source_rate(self) -> float:
        """log of the derivative at the repelling fixed point 0."""
        return math.log(self.derivative(0.0))


def _vectorized_circle(theta: np.ndarray, strength: float) -> np.ndarray:
    import numpy as np

    t = theta - np.floor(theta)
    reduced = np.where(t >= 0.5, t - 0.5, t)
    folded = np.where(reduced > 0.25, 0.5 - reduced, reduced)
    s = np.sin(2.0 * np.pi * folded)
    s = np.where(t >= 0.5, -s, s)
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
                        seed: int, eps: float = 0.05) -> DeviationEstimate:
    """Lebesgue probability of spending a given fraction of time near the source.

    The occupation observable is the fraction of the first n iterates within
    eps of 0 (circle distance); the predicted decay rate of the tail at
    fraction a is a * log f'(0).  Uses the same counter-based sampler as the
    digit engine: each batch of ``_CHUNK`` samples is hashed into one buffer,
    whose rows are read as doubles (:func:`negabeta.sampling._sample_doubles`,
    which the generic digit engine reads too; only the rare row below 2^-9
    becomes a Python integer) and iterated in double precision.
    Hits are counted per batch, in contiguous shares of the batches (one
    per CPU, at most one per ``_MIN_SHARE`` samples), so memory stays flat
    in the sample count.
    """
    import numpy as np

    fmap = CircleMap()

    def occupation_fractions(start: int, block: np.ndarray) -> np.ndarray:
        theta = _sample_doubles(block)
        near = np.zeros(len(block))
        for _ in range(n):
            dist = np.minimum(theta, 1.0 - theta)
            near += dist <= eps
            theta = _vectorized_circle(theta, fmap.strength)
        return near / n

    return _window_deviation(a_window, n, sample_count, seed, occupation_fractions)


def predicted_occupation_rate(a: float) -> float:
    """Closed-form rate for occupation fraction a near the source."""
    return a * CircleMap().source_rate()
