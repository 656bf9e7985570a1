"""`FieldElement.decimal` refines the isolating box exactly as it did before it
read its sign off its first enclosure.

The box of a field only shrinks, and `float` reads its midpoint, so a
refinement order that differed would change later floats.  `old_decimal` is
the former method: an exact sign test, then a fresh enclosure narrowed until
both ends round alike.  Any sequence of `decimal`, `float` and `sign` calls
must leave the same box, and give the same answers, on two fresh copies of a
field, one of them formatting with `old_decimal`.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.algebraic import FieldElement, IntPolynomial, make_algebraic

FIELDS = [
    ((-1, -1, 0, 1), 1, 2),  # x^3 - x - 1
    ((-1, -1, 1), 1, 2),  # x^2 - x - 1
    ((-1, -1, 0, 0, 1), 1, 2),  # x^4 - x - 1
    ((-2, 0, 2, -1, -2, 1), 2, 3),  # the 52-state base
]


def old_decimal(element: FieldElement, digits: int) -> str:
    scale = 10**digits
    if element.is_rational():
        neg = element.nums[0] < 0
        n = (2 * abs(element.nums[0]) * scale + element.den) // (2 * element.den)
    else:
        neg = element.sign() < 0
        width_den = scale * 1000
        while True:
            lo, hi, den = element._bracket(1, width_den)
            if neg:
                lo, hi = hi, lo
            n = (2 * abs(lo) * scale + den) // (2 * den)
            if n == (2 * abs(hi) * scale + den) // (2 * den):
                break
            width_den *= 16
    whole, frac = divmod(n, scale)
    return f"{'-' if neg else ''}{whole}.{frac:0{digits}d}"


def _field(index):
    coeffs, lo, hi = FIELDS[index]
    return make_algebraic(IntPolynomial(coeffs), lo, hi)


def _straddler(field, scale=1):
    """beta - m for the midpoint m of the current box, as the vector over 2q
    times ``scale`` (so not in lowest terms when scale > 1): its first
    enclosure straddles 0."""
    a, b, q = field._box
    nums = [-(a + b) * scale, 2 * q * scale] + [0] * (field.degree - 2)
    return tuple(nums), 2 * q * scale


def _run(field, vectors, ops, decimal):
    elements = [FieldElement(field, nums, den) for nums, den in vectors]
    results, boxes = [], []
    for op, index, digits in ops:
        element = elements[index]
        if op == "decimal":
            results.append(decimal(element, digits))
        elif op == "float":
            results.append(float(element))
        else:
            results.append(element.sign())
        boxes.append(field._box)
    return results, boxes


def _check(index, extra, ops):
    """The same answers and the same box after every call, with either decimal."""
    new, old = _field(index), _field(index)
    assert new._box == old._box
    vectors = [_straddler(new), _straddler(new, 6), *extra]
    expected = _run(old, vectors, ops, old_decimal)
    assert _run(new, vectors, ops, FieldElement.decimal) == expected


_vector = st.tuples(st.lists(st.integers(-50, 50), min_size=5, max_size=5),
                    st.integers(1, 40)).map(lambda v: (tuple(v[0]), v[1]))
_op = st.tuples(st.sampled_from(["decimal", "float", "sign"]), st.integers(0, 3),
                st.sampled_from([1, 15, 60]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, len(FIELDS) - 1), st.lists(_vector, min_size=2, max_size=2),
       st.lists(_op, min_size=1, max_size=6))
def test_any_call_sequence_leaves_the_old_box(index, extra, ops):
    degree = len(FIELDS[index][0]) - 1
    _check(index, [(nums[:degree], den) for nums, den in extra], ops)


def test_a_straddling_first_enclosure_takes_the_exact_sign():
    for index in range(len(FIELDS)):
        field = _field(index)
        for scale in (1, 6):
            lo, hi, _ = FieldElement(field, *_straddler(field, scale))._enclosure()
            assert lo < 0 < hi
        for digits in (1, 15, 60):
            _check(index, [], [("decimal", 0, digits), ("float", 1, 0), ("decimal", 1, 60)])
        # a decimal right after another call on the same value, with and without a sign test
        _check(index, [], [("sign", 0, 0), ("decimal", 0, 1), ("decimal", 1, 1)])


def test_the_old_and_new_decimals_agree_on_rationals():
    field = _field(0)
    for value in (Fraction(1, 3), Fraction(-7, 8), Fraction(5, 2), Fraction(0)):
        element = FieldElement(field, (value.numerator * 3, 0, 0), value.denominator * 3)
        for digits in (1, 15, 60):
            assert element.decimal(digits) == old_decimal(element, digits)
