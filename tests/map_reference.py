"""The two interval maps evaluated at one point, as references for the tests.

The program never iterates a point of either map: it works on the expansion
of 1, on itineraries of side-tagged points and on the image tables of the
branches.  The definitions here evaluate the maps pointwise from the paper's
formulas, and no module of the package reads them:

- `apply_map(system, x)`: the negative-beta map at x, with the endpoint
  conventions of both case tags (test_transform, test_cylinder_walk);
- `value_of(system, s)`: the point whose itinerary is the eventually
  periodic sequence s, summed in closed form (test_transform);
- `sequence_from_text(text, alphabet_bound)`: the inverse of
  `DigitSequence.to_text` (test_transform);
- `in_interval(interval, x)`: x lies in a branch cell or a cylinder, its
  endpoint flags honoured (test_measures);
- `code_point(fmap, x, n, strict)` and `breakpoints(fmap)`: the branch
  itinerary of a point under Example 3.1's half-open cells, and the cell
  endpoints (test_intervalmaps).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from negabeta.intervalmaps import IntervalMapError, PiecewiseExpandingMap
from negabeta.transform import (
    Case, DigitSequence, HitBoundary, MinusBetaSystem, OutOfDomain, Word, _floor_exact,
)


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
