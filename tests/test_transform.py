"""The map itself: endpoint tables, expansions, orderings, admissibility."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from negabeta import transform
from negabeta.algebraic import IntPolynomial, make_algebraic, parse_beta_spec
from negabeta.measures import InadmissibleWord
from negabeta.transform import (
    Case,
    DigitSequence,
    MinusBetaSystem,
    NotEventuallyPeriodic,
    OutOfDomain,
    Side,
)

from map_reference import (
    HitBoundary, SignedPoint, apply_map, itinerary, nth_digit, sequence_from_text, value_of,
)
from measure_reference import additivity_holds, cylinder_length, reference_interval
from pisot_bases import BASES
from word_reference import Ordering, alt_compare, enumerate_admissible, word_admissible

PISOT = IntPolynomial((-1, -1, 0, 1))


@pytest.fixture(scope="module")
def pisot_sys():
    sys = MinusBetaSystem(make_algebraic(PISOT, 1, 2))
    sys.expansion_of_one()
    return sys


@pytest.fixture(scope="module")
def two_sys():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-2, 1)), 1, 3))
    sys.expansion_of_one()
    return sys


@pytest.fixture(scope="module")
def three_sys():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-3, 1)), 2, 4))
    sys.expansion_of_one()
    return sys


# -- apply_map ------------------------------------------------------------------


def test_apply_map_interior(two_sys):
    assert apply_map(two_sys, Fraction(3, 4)) == Fraction(1, 2)


def test_apply_map_zero_goes_to_one(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        assert apply_map(sys, 0) == 1


def test_apply_map_case2_endpoint(pisot_sys):
    g = pisot_sys.beta.generator()
    assert pisot_sys.case is Case.CASE2
    assert apply_map(pisot_sys, 1 / g) == 1


def test_apply_map_case1_endpoint(two_sys):
    assert two_sys.case is Case.CASE1
    assert apply_map(two_sys, Fraction(1, 2)) == 0


def test_apply_map_at_one_is_left_limit(pisot_sys, two_sys):
    g = pisot_sys.beta.generator()
    assert apply_map(pisot_sys, 1) == 2 - g
    assert apply_map(two_sys, 1) == 0


def test_apply_map_out_of_domain(two_sys):
    with pytest.raises(OutOfDomain):
        apply_map(two_sys, Fraction(3, 2))
    with pytest.raises(OutOfDomain):
        apply_map(two_sys, Fraction(-1, 2))


def test_endpoint_before_expansion_reads_the_case():
    fresh = MinusBetaSystem(make_algebraic(IntPolynomial((-2, 1)), 1, 3))
    assert apply_map(fresh, Fraction(1, 2)) == 0  # Case1: the endpoint maps to 0


def _outcome(call):
    try:
        return call()
    except InadmissibleWord:
        return InadmissibleWord


def test_a_fresh_system_computes_the_expansion_on_first_use():
    """Each case-dependent entry point, first on a fresh system, matches a warm one."""
    for coeffs, lo, hi in BASES:
        beta = make_algebraic(IntPolynomial(coeffs), lo, hi)
        warm = MinusBetaSystem(beta)
        words = [(d,) for d in range(warm.b + 1)] + [warm.expansion_of_one().prefix(3)]
        endpoints = [warm.beta_inverse * k for k in range(1, warm.b + 1)]
        assert MinusBetaSystem(beta).partition() == warm.partition()
        assert MinusBetaSystem(beta).case is warm.case
        fresh = MinusBetaSystem(beta)
        assert [apply_map(fresh, x) for x in endpoints] == [apply_map(warm, x) for x in endpoints]
        for probe in (reference_interval, cylinder_length, additivity_holds):
            for w in words:
                got = _outcome(lambda: probe(MinusBetaSystem(beta), w))
                assert got == _outcome(lambda: probe(warm, w)), (coeffs, probe.__name__, w)


def test_repr_does_not_compute_the_expansion():
    fresh = MinusBetaSystem(make_algebraic(PISOT, 1, 2))
    assert repr(fresh) == "MinusBetaSystem(beta~1.324718, b=1)"
    assert fresh._expansion is None
    fresh.expansion_of_one()
    assert repr(fresh) == "MinusBetaSystem(beta~1.324718, b=1, Case2)"


# -- expansion_of_one -----------------------------------------------------------


def test_expansion_minimal_pisot(pisot_sys):
    e = pisot_sys.expansion_of_one()
    assert e.preperiod == (1, 0, 0)
    assert e.period == (1,)
    assert pisot_sys.case is Case.CASE2


def test_expansion_beta2(two_sys):
    e = two_sys.expansion_of_one()
    assert e.preperiod == ()
    assert e.period == (1, 0)
    assert two_sys.case is Case.CASE1


def test_expansion_beta3(three_sys):
    e = three_sys.expansion_of_one()
    assert (e.preperiod, e.period) == ((), (2, 0))
    assert three_sys.case is Case.CASE1


def limit_expansion_oracle(sys, steps):
    """Independent oracle: code 1 - delta for a tiny exact delta > 0.

    The expansion of 1 is the limit of itineraries from below, so for small
    enough delta the first few digits of the itinerary of 1 - delta agree
    with it.  Iteration here stays on interior points only.
    """
    delta_exp = steps + 30
    one = sys.beta.one()
    x = one - (one / sys.beta_element ** delta_exp)
    return itinerary(sys, x, steps)


@pytest.mark.parametrize("fixture", ["pisot_sys", "two_sys", "three_sys"])
def test_expansion_matches_limit_oracle(fixture, request):
    sys = request.getfixturevalue(fixture)
    steps = 24
    oracle = limit_expansion_oracle(sys, steps)
    assert oracle == sys.expansion_of_one().prefix(steps)


def test_expansion_stable_under_bigger_budget():
    sys = MinusBetaSystem(make_algebraic(PISOT, 1, 2))
    first = sys.expansion_of_one(max_steps=64)
    again = sys.expansion_of_one(max_steps=4096)
    assert first == again


def test_expansion_budget_exhaustion():
    sys = MinusBetaSystem(make_algebraic(PISOT, 1, 2))
    with pytest.raises(NotEventuallyPeriodic):
        sys.expansion_of_one(max_steps=2)


@pytest.mark.parametrize("spec", [
    "poly:-3,0,2;interval:1,2", "poly:-9,5;interval:1,2", "decimal:1.8;precision:64",
])
def test_expansion_refused_for_non_monic_minpoly(spec, monkeypatch):
    """A base that is not an algebraic integer is refused before the first step."""
    sys = MinusBetaSystem(parse_beta_spec(spec))

    def no_step(*args):
        raise AssertionError("expansion_of_one took a step")

    # every step reads one floor
    monkeypatch.setattr(transform, "_floor_exact", no_step)
    with pytest.raises(NotEventuallyPeriodic, match="not an algebraic integer"):
        sys.expansion_of_one()


def test_no_pisot_base_is_refused_as_non_monic():
    assert len(BASES) == 68
    for coeffs, lo, hi in BASES:
        beta = make_algebraic(IntPolynomial(coeffs), lo, hi)
        assert beta.minpoly.coefficients[-1] == 1, coeffs
        MinusBetaSystem(beta).expansion_of_one()


# -- itineraries ------------------------------------------------------------------


def test_itinerary_fixed_point_branch1(two_sys):
    assert itinerary(two_sys, Fraction(2, 3), 12) == (1,) * 12


def test_itinerary_fixed_point_branch0(pisot_sys):
    g = pisot_sys.beta.generator()
    x = 1 / (g + 1)
    assert itinerary(pisot_sys, x, 12) == (0,) * 12


def test_itinerary_empty(two_sys):
    assert itinerary(two_sys, Fraction(1, 3), 0) == ()


def test_itinerary_boundary_reported(two_sys):
    with pytest.raises(HitBoundary) as err:
        itinerary(two_sys, Fraction(1, 2), 5)
    assert err.value.step == 0
    with pytest.raises(HitBoundary) as err:
        itinerary(two_sys, Fraction(3, 4), 5)  # 3/4 -> 1/2
    assert err.value.step == 1


def test_itinerary_signed_point_through_boundary(two_sys):
    start = SignedPoint(two_sys.beta.one(), Side.BELOW)
    assert itinerary(two_sys, start, 6) == (1, 0, 1, 0, 1, 0)


def test_itinerary_decimal_mode():
    sys = MinusBetaSystem(parse_beta_spec("decimal:1.8;precision:64"))
    assert sys.beta.degree == 1
    word = itinerary(sys, Fraction(1, 3), 10)
    assert len(word) == 10
    assert all(0 <= d <= sys.b for d in word)


# -- alternating order ---------------------------------------------------------------


def test_alt_compare_basic():
    zeros = DigitSequence((), (0,), 1)
    ones = DigitSequence((), (1,), 1)
    ten = DigitSequence((), (1, 0), 1)
    assert alt_compare(zeros, ones) is Ordering.LESS
    assert alt_compare(ones, ten) is Ordering.LESS  # coded points: 2/3 < 1 for beta=2
    assert alt_compare(ten, ten) is Ordering.EQUAL
    assert alt_compare((1, 0), ten) is Ordering.PREFIX
    assert alt_compare((1, 1), (1,)) is Ordering.PREFIX
    assert alt_compare((1, 1), (1, 1)) is Ordering.EQUAL
    assert alt_compare((0, 1), (0, 0)) is Ordering.LESS  # odd index: bigger digit is smaller


def test_alt_compare_order_preservation(two_sys):
    # 2/3 codes to 1^inf and 1 codes to (10)^inf; 2/3 < 1 must hold in the order
    ones = itinerary(two_sys, Fraction(2, 3), 30)
    top = two_sys.expansion_of_one()
    assert alt_compare(ones, top) is Ordering.LESS


def test_monotone_coding_random_pairs(pisot_sys, two_sys):
    rng = random.Random(20260811)
    for sys in (pisot_sys, two_sys):
        done = 0
        while done < 100:
            a = Fraction(rng.randrange(1, 10**6), 10**6)
            b = Fraction(rng.randrange(1, 10**6), 10**6)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            try:
                ia = itinerary(sys, a, 40)
                ib = itinerary(sys, b, 40)
            except HitBoundary:
                continue
            assert alt_compare(ia, ib) in (Ordering.LESS, Ordering.EQUAL, Ordering.PREFIX)
            done += 1


# -- admissibility ---------------------------------------------------------------------


def test_word_admissible_examples(pisot_sys):
    assert word_admissible(pisot_sys, (1, 1))
    assert not word_admissible(pisot_sys, (1, 0, 1))
    assert word_admissible(pisot_sys, ())


def test_factor_closedness(pisot_sys):
    rng = random.Random(5)
    words = [tuple(rng.randrange(0, 2) for _ in range(8)) for _ in range(120)]
    for w in words:
        if word_admissible(pisot_sys, w):
            for i in range(len(w)):
                for j in range(i, len(w) + 1):
                    assert word_admissible(pisot_sys, w[i:j])


def test_enumerate_admissible_matches_filter(pisot_sys, three_sys):
    for sys, n in ((pisot_sys, 8), (three_sys, 5)):
        listed = set(enumerate_admissible(sys, n))
        brute = set()
        stack = [()]
        while stack:
            w = stack.pop()
            if 0 < len(w) <= n and word_admissible(sys, w):
                brute.add(w)
            if len(w) < n:
                stack.extend(w + (a,) for a in range(sys.b + 1))
        assert listed == brute


def test_enumerate_admissible_is_not_bounded_by_the_recursion_limit(pisot_sys):
    # in preorder the first words run down the smallest-digit branch, one letter longer each
    words = list(islice(enumerate_admissible(pisot_sys, 1500), 1500))
    assert len(words[-1]) == 1500


# -- value_of / round trips -------------------------------------------------------------


def test_value_of_expansion_is_one(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        assert value_of(sys, sys.expansion_of_one()) == 1


def test_value_of_zeros(pisot_sys):
    g = pisot_sys.beta.generator()
    x = value_of(pisot_sys, DigitSequence((), (0,), pisot_sys.b))
    assert x * (g + 1) == 1


def test_value_of_ones_beta2(two_sys):
    assert value_of(two_sys, DigitSequence((), (1,), 1)).as_fraction() == Fraction(2, 3)


def test_round_trip_small_periods(pisot_sys, two_sys):
    rng = random.Random(99)
    for sys in (pisot_sys, two_sys):
        top = sys.expansion_of_one()
        done = 0
        while done < 12:
            pre = tuple(rng.randrange(0, sys.b + 1) for _ in range(rng.randrange(0, 3)))
            per = tuple(rng.randrange(0, sys.b + 1) for _ in range(rng.randrange(1, 4)))
            s = DigitSequence.from_parts(pre, per, sys.b)
            # only sequences all of whose shifts stay admissible code actual points
            word = s.prefix(24)
            if not word_admissible(sys, word):
                continue
            if alt_compare(s, top) not in (Ordering.LESS,):
                continue
            x = value_of(sys, s)
            if not (0 <= x <= 1):
                continue
            try:
                assert itinerary(sys, x, 16) == s.prefix(16)
            except HitBoundary:
                continue
            done += 1


# -- digit sequences ----------------------------------------------------------------------


def test_digit_sequence_canonicalization():
    s = DigitSequence.from_parts((1, 0, 0), (1, 1), 1)
    assert (s.preperiod, s.period) == ((1, 0, 0), (1,))
    s = DigitSequence.from_parts((1, 0), (0, 1, 0, 1), 1)
    assert (s.preperiod, s.period) == ((1, 0), (0, 1))
    s = DigitSequence.from_parts((1, 1), (0, 1), 1)
    assert (s.preperiod, s.period) == ((1,), (1, 0))
    s = DigitSequence.from_parts((), (2, 0, 2, 0), 2)
    assert (s.preperiod, s.period) == ((), (2, 0))


def test_digit_sequence_text_round_trip():
    s = DigitSequence.from_parts((1, 0, 0), (1,), 1)
    assert s.to_text() == "100(1)"
    assert sequence_from_text("100(1)", 1) == s
    wide = DigitSequence.from_parts((10,), (11, 0), 12)
    assert sequence_from_text(wide.to_text(), 12) == wide


def test_case1_period_ends_in_zero(two_sys, three_sys, pisot_sys):
    for sys in (two_sys, three_sys):
        e = sys.expansion_of_one()
        assert sys.case is Case.CASE1
        assert e.u == 0 and e.period[-1] == 0
    e = pisot_sys.expansion_of_one()
    assert pisot_sys.case is Case.CASE2
    assert not (e.u == 0 and e.period[-1] == 0)


# -- printed-parity variant (recorded as expected-to-fail cross-check) ------------------


def alt_compare_printed_parity(s, t, limit):
    """The other parity convention; kept only to document its inconsistency."""
    for k in range(limit):
        a = s[k] if not isinstance(s, DigitSequence) else nth_digit(s, k)
        b = nth_digit(t, k) if isinstance(t, DigitSequence) else t[k]
        if a != b:
            diff = a - b if k % 2 == 1 else b - a
            return Ordering.LESS if diff < 0 else Ordering.GREATER
    return Ordering.PREFIX


def test_printed_parity_is_inconsistent(two_sys):
    # 1^inf codes 2/3 and must be admissible for beta = 2, but under the
    # printed parity its shift exceeds the expansion of 1, which would wrongly
    # exclude it from the language of the full 2-shift.
    ones = (1,) * 20
    top = two_sys.expansion_of_one()
    assert alt_compare(ones, top) is Ordering.LESS
    assert alt_compare_printed_parity(ones, top, 20) is Ordering.GREATER
