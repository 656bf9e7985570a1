"""The negative-beta interval map: digits, expansions and the coding partition.

The map acts on [0, 1], is affine with slope -beta on each branch, and its
symbolic dynamics is governed by the expansion of 1 taken as the limit from
below.  Beta is an algebraic number (a decimal input is the exact rational
it names), and orbit points are field elements together with a side tag, so
endpoint conventions and eventual periodicity are decided without any
numerical perturbation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from negabeta.algebraic import AlgebraicNumber, FieldElement

Word = tuple[int, ...]

# Step budget of the expansion of 1, shared by every command that needs it.
EXPANSION_STEPS = 4096


class TransformError(Exception):
    """Base class for errors raised by this module."""


class OutOfDomain(TransformError):
    """Point lies outside [0, 1]."""


class NotEventuallyPeriodic(TransformError):
    """Orbit of 1 is not eventually periodic, or showed no cycle within the step budget."""


class NotAlgebraicInteger(NotEventuallyPeriodic):
    """Beta is not an algebraic integer, which proves the orbit of 1 aperiodic."""


class Side(enum.Enum):
    BELOW = "from_below"
    ABOVE = "from_above"


class Case(enum.Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"


@dataclass(frozen=True)
class DigitSequence:
    """Eventually periodic digit string, canonical (minimal preperiod and period)."""

    preperiod: Word
    period: Word
    alphabet_bound: int

    def __post_init__(self):
        if len(self.period) < 1:
            raise ValueError("period must be nonempty")
        for d in self.preperiod + self.period:
            if not 0 <= d <= self.alphabet_bound:
                raise ValueError("digit outside the alphabet")

    @classmethod
    def from_parts(cls, preperiod: Sequence[int], period: Sequence[int],
                   alphabet_bound: int) -> "DigitSequence":
        """Build the canonical form: shortest period, then shortest preperiod."""
        per = list(period)
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per == per[:d] * (len(per) // d):
                per = per[:d]
                break
        pre = list(preperiod)
        while pre and pre[-1] == per[-1]:
            per = [per[-1]] + per[:-1]
            pre.pop()
        return cls(tuple(pre), tuple(per), alphabet_bound)

    def prefix(self, n: int) -> Word:
        """The first n digits (none for n <= 0)."""
        n = max(n, 0)
        return (self.preperiod + self.period * -(-max(0, n - self.u) // self.v))[:n]

    @property
    def u(self) -> int:
        return len(self.preperiod)

    @property
    def v(self) -> int:
        return len(self.period)

    def to_text(self) -> str:
        pre = word_to_text(self.preperiod, self.alphabet_bound)
        per = word_to_text(self.period, self.alphabet_bound)
        return f"{pre}({per})"

    def __str__(self) -> str:
        return self.to_text()


def word_separator(alphabet_bound: int) -> str:
    """What goes between two digits of a word's text: nothing while every
    digit is one character, else a comma."""
    return "" if alphabet_bound <= 9 else ","


def word_to_text(word: Sequence[int], alphabet_bound: int) -> str:
    return word_separator(alphabet_bound).join(str(d) for d in word)


def word_from_text(text: str, alphabet_bound: int) -> Word:
    """The word that :func:`word_to_text` prints as ``text``."""
    sep = word_separator(alphabet_bound)
    return tuple(map(int, text.split(sep) if sep and text else text))


def _floor_exact(t) -> tuple[int, bool]:
    """Floor of an exact value; flags whether t is an integer.

    A rational t is read off its vector.  Otherwise the floor comes from one
    integer enclosure [lo/den, hi/den] at most 1/4 wide: t is irrational, so
    when the enclosure lies strictly between k = floor(lo/den) and k+1 the
    floor is k.  Only an enclosure that touches or straddles an integer falls
    back to the exact signs of t - k and t - (k+1), which refine as far as
    they need.  Those signs would answer from a strictly inside enclosure
    without a bisection, so the isolating interval ends as it would with
    the signs alone, and so does every float read from it later.
    """
    nums, den = t.nums, t.den
    if not any(nums[1:]):
        return nums[0] // den, den == 1
    lo, hi, den = t._bracket(1, 4)
    k = lo // den
    if lo > k * den and hi < (k + 1) * den:
        return k, False
    while (t - k).sign() < 0:
        k -= 1
    while (t - (k + 1)).sign() >= 0:
        k += 1
    return k, False


@dataclass(frozen=True)
class JInterval:
    """One cell of the coding partition, with endpoint inclusion flags."""

    index: int
    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool


class MinusBetaSystem:
    """The negative-beta map for a fixed beta > 1.

    Beta is an algebraic number; a rational beta (the ``decimal:`` input) is
    one of degree 1 and takes the same arithmetic.  The expansion of 1 is
    computed on first use and cached; the case tag and the coding partition
    are read off it.
    """

    def __init__(self, beta: AlgebraicNumber):
        self.beta = beta
        gen = beta.generator()
        if (gen - 1).sign() <= 0:
            raise ValueError("beta must exceed 1")
        self._beta_el = gen
        self.b = self._floor_of_beta()
        self._expansion: DigitSequence | None = None
        self._partition: tuple[JInterval, ...] | None = None
        self._aut_cache = None  # set lazily by negabeta.shiftgraph
        self._table_cache = None  # set lazily by negabeta.measures

    def _floor_of_beta(self) -> int:
        gen = self._beta_el
        k, is_int = _floor_exact(gen)
        return k - 1 if is_int else k

    # -- basic numbers ----------------------------------------------------------

    @property
    def beta_element(self) -> FieldElement:
        """beta as an exact field element."""
        return self._beta_el

    @cached_property
    def beta_inverse(self) -> FieldElement:
        """1/beta, read off the minimal polynomial c_0 + c_1 x + ... + c_d x^d.

        beta^-1 = -(c_1 + c_2 beta + ... + c_d beta^(d-1)) / c_0, and c_0 != 0
        because beta > 1 is a root of an irreducible polynomial; no solve.
        """
        c0, *rest = self.beta.minpoly.coefficients
        return self.beta._element([-c for c in rest], c0)

    def beta_float(self) -> float:
        return float(self._beta_el)

    def log_beta(self) -> float:
        return math.log(self.beta_float())

    @property
    def case(self) -> Case:
        """Case1 when the expansion of 1 is purely periodic with last period digit 0."""
        seq = self.expansion_of_one()
        return Case.CASE1 if seq.u == 0 and seq.period[-1] == 0 else Case.CASE2

    # -- the map ------------------------------------------------------------------

    def _side_step(self, t: FieldElement, side: Side) -> tuple[int, Side]:
        """The digit of a point x approached from ``side`` (BELOW or ABOVE), with
        beta*x = t, and the side of its image.

        At an endpoint (t an integer k) the digit is k-1 from below and k from above.
        """
        k, is_int = _floor_exact(t)
        if side is Side.BELOW:
            if is_int and k == 0:
                raise OutOfDomain("no points below 0")
            return (k - 1 if is_int else k), Side.ABOVE
        if is_int and k >= self.b + 1:
            raise OutOfDomain("no points above 1")
        return k, Side.BELOW

    # -- expansion of 1 -------------------------------------------------------------

    def expansion_of_one(self, max_steps: int = EXPANSION_STEPS) -> DigitSequence:
        """Digit expansion of 1 (limit from below), with cycle detection.

        Iterates the side-tagged point (1, from_below), whose side flips at
        every step because each branch is decreasing.  Raises
        :class:`NotAlgebraicInteger` at once, before any step, when the
        minimal polynomial of beta is not monic: every orbit point is
        (d+1) - beta*x of the one before, an integer polynomial in beta with
        leading coefficient +-1, so a repeat makes beta a root of a monic
        integer polynomial, and that refusal is a proof.  Otherwise each
        point is an integer vector, and beta times it is a companion shift.
        Raises its base :class:`NotEventuallyPeriodic` when the budget runs
        out, which is not a proof that the orbit is aperiodic.
        """
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self._expansion is not None:
            return self._expansion
        if self.beta.minpoly.coefficients[-1] != 1:
            raise NotAlgebraicInteger(
                "beta is not an algebraic integer, so the orbit of 1 is not eventually periodic")
        *low, _ = self.beta.minpoly.coefficients
        nums, side = (1,) + (0,) * (len(low) - 1), Side.BELOW
        seen: dict = {}
        digits: list[int] = []
        for step in range(max_steps):
            first = seen.setdefault((nums, side), step)
            if first < step:
                self._expansion = DigitSequence.from_parts(digits[:first], digits[first:], self.b)
                return self._expansion
            top = nums[-1]
            t = (-top * low[0],) + tuple(x - top * c for x, c in zip(nums, low[1:]))
            digit, side = self._side_step(FieldElement(self.beta, t, 1), side)
            nums = (digit + 1 - t[0],) + tuple(-x for x in t[1:])
            digits.append(digit)
        raise NotEventuallyPeriodic(f"no cycle within {max_steps} steps")

    # -- coding partition --------------------------------------------------------------------

    def partition(self) -> tuple[JInterval, ...]:
        """The coding partition, with case-dependent endpoint inclusions (cached)."""
        if self._partition is None:
            inv = self.beta_inverse
            case1 = self.case is Case.CASE1
            cells = []
            for i in range(self.b + 1):
                lo = inv * i
                hi = self.beta.one() if i == self.b else inv * (i + 1)
                if case1:
                    cells.append(JInterval(i, lo, hi, lo_closed=(i == 0), hi_closed=True))
                else:
                    cells.append(JInterval(i, lo, hi, lo_closed=True, hi_closed=(i == self.b)))
            self._partition = tuple(cells)
        return self._partition

    def __repr__(self):
        # the case shows once the expansion is cached; repr never computes it
        case = "" if self._expansion is None else f", {self.case.value}"
        return f"MinusBetaSystem(beta~{float(self._beta_el):.6f}, b={self.b}{case})"
