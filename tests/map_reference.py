"""The maps of the package, and its integer polynomials, evaluated at one point, as
references for the tests.

The program never iterates a point of the interval maps: it works on the
expansion of 1 and on the image tables of the branches, and the circle-map
commands iterate whole arrays.  The definitions here evaluate pointwise from
the paper's formulas, and no module of the package reads them:

- `apply_map(system, x)`: the negative-beta map at x, with the endpoint
  conventions of both case tags (test_transform, test_cylinder_walk);
- `value_of(system, s)`: the point whose itinerary is the eventually
  periodic sequence s, summed in closed form (test_transform);
- `sequence_from_text(text, alphabet_bound)`: the inverse of
  `DigitSequence.to_text` (test_transform), and `nth_digit(s, k)`: the
  digit at index k of an eventually periodic sequence (test_transform,
  test_shiftgraph, test_border_table);
- `SignedPoint`, `signed_step(system, value, side)` and
  `itinerary(system, x, n)`: the branch itinerary of a point, plain or
  side-tagged (test_transform, test_integer_build, test_acceptance);
  `HitBoundary`, raised by `itinerary` and `code_point` when an orbit
  lands on a partition endpoint (test_transform, test_acceptance,
  test_border_table, test_intervalmaps);
- `in_interval(interval, x)`: x lies in a branch cell or a cylinder, its
  endpoint flags honoured (test_measures);
- `code_point(fmap, x, n, strict)` and `breakpoints(fmap)`: the branch
  itinerary of a point under Example 3.1's half-open cells, and the cell
  endpoints (test_intervalmaps);
- `circle_step(fmap, theta)`: one step of the circle map in scalar floats
  (test_intervalmaps, and `exact_tails.circle_tail`);
- `poly_value(poly, x)`: an integer polynomial at a rational point
  (test_algebraic, test_field_integer, test_integer_build).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from negabeta.algebraic import FieldElement, IntPolynomial
from negabeta.intervalmaps import CircleMap, IntervalMapError, PiecewiseExpandingMap
from negabeta.transform import (
    Case, DigitSequence, MinusBetaSystem, OutOfDomain, Side, TransformError, Word, _floor_exact,
)

PointLike = Union[FieldElement, Fraction, int]


class HitBoundary(TransformError):
    """Orbit landed exactly on a partition endpoint."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"orbit hit a partition endpoint at step {step}")


def apply_map(system: MinusBetaSystem, x):
    """T(x) = (k + 1) - beta*x on the k-th cell; T(0) = 1, T(1) is the left limit at 1.

    At an interior endpoint k/beta the case tag decides: Case1 maps it to 0,
    Case2 to 1.
    """
    if isinstance(x, (int, Fraction)):
        x = system.beta.from_rational(x)
    zero, one = system.beta.zero(), system.beta.one()
    if x < zero or x > one:
        raise OutOfDomain("point outside [0, 1]")
    if x == zero:
        return one
    if x == one:
        return (system.b + 1) - system.beta_element * one
    t = system.beta_element * x
    k, is_int = _floor_exact(t)
    if is_int:
        return zero if system.case is Case.CASE1 else one
    return (k + 1) - t


def value_of(system: MinusBetaSystem, s: DigitSequence):
    """The unique point whose itinerary is s: the sum of -(d_k + 1) (-1/beta)^(k+1).

    The period's part is summed once, as a geometric series.
    """
    step = -system.beta_inverse

    def block(word: Word):
        acc, power = system.beta.zero(), system.beta.one()
        for d in word:
            power = power * step
            acc = acc - power * (d + 1)
        return acc, power  # the word's part, and (-1/beta)^len(word)

    head, head_scale = block(s.preperiod)
    tail, ratio = block(s.period)
    return head + head_scale * tail / (1 - ratio)


def sequence_from_text(text: str, alphabet_bound: int) -> DigitSequence:
    """The sequence that `DigitSequence.to_text` prints as ``pre(per)``."""
    head, sep, tail = text.partition("(")
    if not sep or not tail.endswith(")"):
        raise ValueError("expected pre(per) form")

    def parse(chunk: str) -> list[int]:
        if not chunk:
            return []
        if alphabet_bound <= 9 and "," not in chunk:
            return [int(c) for c in chunk]
        return [int(c) for c in chunk.split(",")]

    return DigitSequence.from_parts(parse(head), parse(tail[:-1]), alphabet_bound)


def nth_digit(s: DigitSequence, k: int) -> int:
    """The digit at index k of the sequence."""
    u = len(s.preperiod)
    if k < u:
        return s.preperiod[k]
    return s.period[(k - u) % len(s.period)]


@dataclass(frozen=True)
class SignedPoint:
    """A point of [0, 1] with a one-sided tag.

    The tag only carries information when the value sits on a partition
    endpoint (0, k/beta, or 1); everywhere else iteration ignores it.
    """

    value: FieldElement
    side: Side


def signed_step(system: MinusBetaSystem, value, side: Side):
    """One application on a side-tagged point; returns (digit, value, side)."""
    t = system.beta_element * value
    digit, side = system._side_step(t, side)
    return digit, (digit + 1) - t, side


def itinerary(system: MinusBetaSystem, x: Union[PointLike, SignedPoint], n: int) -> Word:
    """Branch itinerary of length n.

    Plain points must avoid the partition endpoints for n steps (checked
    exactly); side-tagged points iterate through endpoints using the side
    convention.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(x, SignedPoint):
        value, side = x.value, x.side
        digits = []
        for _ in range(n):
            digit, value, side = signed_step(system, value, side)
            digits.append(digit)
        return tuple(digits)
    if isinstance(x, (int, Fraction)):
        x = system.beta.from_rational(x)
    zero, one = system.beta.zero(), system.beta.one()
    if x < zero or x > one:
        raise OutOfDomain("point outside [0, 1]")
    digits = []
    for step in range(n):
        if x == zero or x == one:
            raise HitBoundary(step)
        t = system.beta_element * x
        k, is_int = _floor_exact(t)
        if is_int:
            raise HitBoundary(step)
        digits.append(k)
        x = (k + 1) - t
    return tuple(digits)


def breakpoints(fmap: PiecewiseExpandingMap) -> tuple[Fraction, ...]:
    """The cell endpoints, 0 first and 1 last."""
    return (fmap.branches[0].lo, *(br.hi for br in fmap.branches))


def in_interval(interval, x) -> bool:
    """x lies in the interval (a branch cell or a cylinder), its endpoint flags honoured."""
    return (interval.lo <= x <= interval.hi and (x != interval.lo or interval.lo_closed)
            and (x != interval.hi or interval.hi_closed))


def code_point(fmap: PiecewiseExpandingMap, x: Union[Fraction, int, float], n: int,
               strict: bool = True) -> Word:
    """Branch itinerary of length n in exact rational arithmetic.

    With ``strict`` the orbit must avoid the interior breakpoints (the
    boundary step index is reported); otherwise the half-open cells decide
    every point, endpoints included.
    """
    x = Fraction(x).limit_denominator(10**12) if isinstance(x, float) else Fraction(x)
    if not (0 <= x <= 1):
        raise IntervalMapError("point outside [0, 1]")
    interior = breakpoints(fmap)[1:-1]
    word = []
    for step in range(n):
        if strict and x in interior:
            raise HitBoundary(step)
        i = next((i for i, br in enumerate(fmap.branches) if in_interval(br, x)), None)
        if i is None:
            raise IntervalMapError(f"{x} lies in no branch cell")
        word.append(i)
        branch = fmap.branches[i]
        x = branch.slope * x + branch.intercept
    return tuple(word)


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


def circle_step(fmap: CircleMap, theta: float) -> float:
    """theta + strength * sin(2*pi*theta), on representatives [0, 1)."""
    out = theta + fmap.strength * _sin_two_pi(theta)
    return out - math.floor(out)


def poly_value(poly: IntPolynomial, x) -> Fraction:
    """The polynomial at the rational x, by Horner's rule."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc
