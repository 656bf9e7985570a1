"""The integer fast paths of the per-call build against the code they replaced.

`transform._floor_exact` decides a floor from one integer enclosure and
reaches the exact sign only when the enclosure touches or straddles an
integer; the reference below is the Fraction enclosure followed by the two
sign loops.  `AlgebraicNumber` checks that its endpoints straddle the root
with integer Horner; `FieldElement` hashes a rational element as the number
it equals.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.algebraic import (
    AlgebraicNumber,
    FieldElement,
    IntPolynomial,
    make_algebraic,
    parse_beta_spec,
)
from negabeta.transform import MinusBetaSystem, Side, _floor_exact

from pisot_bases import BASES


def reference_floor(t):
    """The Fraction enclosure, then exact signs until k <= t < k+1."""
    if t.is_rational():
        r = t.as_fraction()
        return r.numerator // r.denominator, r.denominator == 1
    lo, _ = t.approx(Fraction(1, 4))
    k = lo.__floor__()
    while (t - k).sign() < 0:
        k -= 1
    while (t - (k + 1)).sign() >= 0:
        k += 1
    return k, False


@pytest.fixture(scope="module")
def systems():
    assert len(BASES) == 68
    return [MinusBetaSystem(make_algebraic(IntPolynomial(c), lo, hi)) for c, lo, hi in BASES]


class SignCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        sign = FieldElement.sign

        def counted(element):
            self.calls += 1
            return sign(element)

        monkeypatch.setattr(FieldElement, "sign", counted)


def _orbit_points(system, steps=40):
    """beta * x for the first points x of the orbit of 1 from below."""
    value, side = system.beta.one(), Side.BELOW
    for _ in range(steps):
        yield system.beta_element * value
        _, value, side = system._signed_step(value, side)


def test_floor_matches_the_sign_loops_on_every_orbit(systems):
    for system in systems:
        for t in _orbit_points(system):
            assert _floor_exact(t) == reference_floor(t), system


def test_floor_falls_back_to_exact_signs_near_integers(monkeypatch):
    counter = SignCounter(monkeypatch)
    for coeffs, lo, hi in BASES[:66]:  # the irrational ones
        for k, side in ((k, side) for k in range(4) for side in (1, -1)):
            # a fresh field each time, so the first 1/4-wide enclosure is a coarse one
            beta = make_algebraic(IntPolynomial(coeffs), lo, hi).generator()
            t = k + side * beta ** -40
            before = counter.calls
            got = _floor_exact(t)
            assert counter.calls > before  # the enclosure touches or straddles k
            assert got == reference_floor(t) == ((k if side > 0 else k - 1), False)


def test_expansion_of_one_never_reaches_an_exact_sign(systems, monkeypatch):
    counter = SignCounter(monkeypatch)
    for system in systems:
        system.expansion_of_one()
    assert counter.calls == 0


@pytest.mark.parametrize("coeffs, lo, hi", [
    ((-1, -1, 0, 1), 2, 3),          # both endpoints above the root
    ((-1, -1, 0, 1), 0, 1),          # both below
    ((-4, 0, 1), 2, 3),              # an endpoint on the root
    ((-4, 0, 1), Fraction(-3), 2),   # the other endpoint on the root
    ((-2, 0, 1), Fraction(1, 3), Fraction(1, 2)),
])
def test_straddle_check_rejects_a_bad_interval(coeffs, lo, hi):
    poly = IntPolynomial(coeffs)
    assert poly(Fraction(lo)) * poly(Fraction(hi)) >= 0
    with pytest.raises(ValueError, match="straddle"):
        AlgebraicNumber(poly, Fraction(lo), Fraction(hi))


# -- hashes agree with equality -----------------------------------------------------------------

FIELDS = [parse_beta_spec(spec) for spec in
          ("poly:-1,-1,0,1;interval:1,2", "decimal:2", "decimal:1.7")]
rationals = st.one_of(st.integers(-10**20, 10**20),
                      st.fractions(min_value=-50, max_value=50, max_denominator=10**6))


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(FIELDS), r=rationals, s=rationals)
def test_rational_elements_hash_as_the_numbers_they_equal(field, r, s):
    a = field.from_rational(r)
    for x, y in ((a, r), (a, field.from_rational(s)), (a, s), (field.one() * r, r)):
        if x == y:
            assert hash(x) == hash(y)
    assert a in {r} and r in {a}
    assert (a in {s}) == (s in {a}) == (r == s)
    assert field.one() in {1} and 1 in {field.one()}
    if field.degree == 1:
        assert field.generator() in {field.generator().as_fraction()}


def test_irrational_elements_keep_their_vector_hash():
    beta = FIELDS[0].generator()
    assert hash(beta) == hash((beta.nums, beta.den))
    assert beta not in {Fraction(beta.nums[0], beta.den)}
