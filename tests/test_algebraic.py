"""Exact field arithmetic: construction, signs, decimals, ring laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.algebraic import (
    AlgebraicNumber,
    IntPolynomial,
    MixedFields,
    MultipleRootsInInterval,
    NoRootInInterval,
    field_arith,
    make_algebraic,
    parse_beta_spec,
    sign_of,
    to_decimal,
)

PISOT = IntPolynomial((-1, -1, 0, 1))  # x^3 - x - 1


def bisect_root(poly, lo, hi, steps=80):
    """Independent oracle: plain rational bisection on a sign change."""
    lo, hi = Fraction(lo), Fraction(hi)
    s_lo = poly(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        s_mid = poly(mid)
        if s_mid == 0:
            return mid, mid
        if (s_mid > 0) == (s_lo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.fixture(scope="module")
def pisot():
    return make_algebraic(PISOT, 1, 2)


def test_make_algebraic_pisot_decimal(pisot):
    # oracle: bisection on x^3 - x - 1 pins the first ten fraction digits
    lo, hi = bisect_root(PISOT, 1, 2)
    scale = 10**10
    assert (lo * scale).__floor__() == (hi * scale).__floor__()
    expected = (lo * scale).__floor__()
    assert to_decimal(pisot.generator(), 10) == f"1.{expected - scale}"
    assert to_decimal(pisot.generator(), 10) == "1.3247179572"


def test_make_algebraic_linear_is_exact():
    two = make_algebraic(IntPolynomial((-2, 1)), 1, 3)
    assert two.degree == 1
    assert two.generator().as_fraction() == 2


def test_make_algebraic_sqrt2():
    sqrt2 = make_algebraic(IntPolynomial((-2, 0, 1)), 1, 2)
    lo, hi = bisect_root(IntPolynomial((-2, 0, 1)), 1, 2)
    scale = 10**10
    expected = (lo * scale).__floor__()
    assert (hi * scale).__floor__() == expected
    assert to_decimal(sqrt2.generator(), 8) == "1.41421356"


def test_minpoly_vanishes_at_root(pisot):
    g = pisot.generator()
    acc = pisot.zero()
    for k, c in enumerate(pisot.minpoly.coefficients):
        acc = acc + (g**k) * c
    assert acc.is_zero()


def test_squarefree_reduction_applied(caplog):
    # (x-2)^2 has the single root 2; the squarefree part is taken, with a log line
    squared = IntPolynomial((4, -4, 1))
    with caplog.at_level("INFO", logger="negabeta.algebraic"):
        two = make_algebraic(squared, 1, 3)
    assert two.minpoly.coefficients == (-2, 1)
    assert "not squarefree" in caplog.text


def test_no_root_in_interval():
    with pytest.raises(NoRootInInterval) as err:
        make_algebraic(PISOT, 2, 3)
    assert err.value.in_interval == 0
    assert err.value.total_real == 1


def test_multiple_roots_in_interval():
    # (x-2)(x^3-x-1) has two real roots in [1, 3]
    p = IntPolynomial((2, 1, -2, -2, 1))
    with pytest.raises(MultipleRootsInInterval) as err:
        make_algebraic(p, 1, 3)
    assert err.value.in_interval == 2
    assert err.value.total_real == 2


def test_field_arith_examples(pisot):
    g = pisot.generator()
    assert field_arith(g, g, "sub").is_zero()
    sq = field_arith(g, g, "mul")
    assert sq.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    cube = field_arith(g, sq, "mul")
    assert cube.coeffs == (Fraction(1), Fraction(1), Fraction(0))  # beta^3 = beta + 1


def test_mixed_fields_rejected(pisot):
    sqrt2 = make_algebraic(IntPolynomial((-2, 0, 1)), 1, 2)
    with pytest.raises(MixedFields):
        field_arith(pisot.generator(), sqrt2.generator(), "add")


def test_sign_of_examples(pisot):
    g = pisot.generator()
    assert sign_of(g**3 - g - 1) == 0
    assert sign_of(g - 1) == 1
    assert sign_of(2 - g) == 1
    # decimal oracle agrees
    assert float(2 - g) > 0


def test_sign_matches_decimal_comparison(pisot):
    rng = random.Random(7)
    for _ in range(150):
        a = pisot.from_coeffs([Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(3)])
        b = pisot.from_coeffs([Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(3)])
        diff = a - b
        lo_a, hi_a = a.approx(Fraction(1, 10**30))
        lo_b, hi_b = b.approx(Fraction(1, 10**30))
        gap = (lo_a + hi_a) / 2 - (lo_b + hi_b) / 2
        if abs(gap) > Fraction(1, 10**20):
            assert sign_of(diff) == (1 if gap > 0 else -1)


def test_to_decimal_rationals(pisot):
    assert to_decimal(pisot.from_rational(Fraction(1, 2)), 10) == "0.5000000000"
    assert to_decimal(pisot.zero(), 10) == "0.0000000000"
    assert to_decimal(pisot.from_rational(Fraction(-1, 3)), 5) == "-0.33333"


small_fracs = st.fractions(min_value=-8, max_value=8, max_denominator=12)


@settings(max_examples=120, deadline=None)
@given(st.lists(small_fracs, min_size=3, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3),
       st.lists(small_fracs, min_size=3, max_size=3))
def test_ring_laws(av, bv, cv):
    field = _RING_FIELD
    a, b, c = (field.from_coeffs(v) for v in (av, bv, cv))
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


_RING_FIELD = make_algebraic(PISOT, 1, 2)


def test_inverse_and_division(pisot):
    g = pisot.generator()
    assert (g * g.inverse()) == 1
    x = g**2 - 3
    assert (x / x) == 1
    assert ((g + 1) / g) * g == g + 1


def test_parse_beta_spec_poly():
    beta = parse_beta_spec("poly:-1,-1,0,1;interval:1,2")
    assert beta.minpoly.coefficients == (-1, -1, 0, 1)
    beta2 = parse_beta_spec("poly:-2,1;interval:1/1,3")
    assert beta2.generator().as_fraction() == 2


def test_parse_beta_spec_decimal():
    """decimal:d is the exact rational d, a number of degree 1."""
    spec = parse_beta_spec("decimal:1.8;precision:200")
    assert isinstance(spec, AlgebraicNumber)
    assert spec.minpoly.coefficients == (-9, 5)
    assert spec.generator().as_fraction() == Fraction(9, 5)
    # precision is range-checked and not read
    assert parse_beta_spec("decimal:1.8;precision:1").minpoly == spec.minpoly


@pytest.mark.parametrize("bad", [
    "poly:-1,-1,0,1",
    "interval:1,2",
    "decimal:1.8;precision:0",
    "nonsense",
    "poly:1,2;interval:1",
    "poly:-1,-1,0,1;interval:3,4;interval:1,2",
    "poly:-1,-1,0,1;interval:1,2;foo:3",
    "poly:-1,-1,0,1;interval:1,2;precision:64",
    "poly:-1,-1,0,1;interval:1,2;decimal:2",
    "decimal:2;interval:1,3",
])
def test_parse_beta_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_beta_spec(bad)

