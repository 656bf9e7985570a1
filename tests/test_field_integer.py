"""The integer field layer against a Fraction-vector reference.

`algebraic.FieldElement` stores an integer vector over one denominator and
evaluates on the isolating interval in integers.  The reference below is the
plain Fraction-vector arithmetic it replaced: a Fraction power table, the
polynomial extended gcd for inverses, and Fraction interval Horner on its own
isolating interval, refined one bisection at a time.  Both must agree on
every exact result; numeric bounds must be valid and overlap.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.algebraic import parse_beta_spec

# -- the Fraction-vector reference --------------------------------------------------------------


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] / b[-1]
        q[k] = coef
        for j, bj in enumerate(b):
            a[k + j] -= coef * bj
    return q, _trim(a[: len(b) - 1])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _trim(out)


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _trim(out)


def _interval_eval(coeffs, lo, hi):
    vlo = vhi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        candidates = (vlo * lo, vlo * hi, vhi * lo, vhi * hi)
        vlo, vhi = min(candidates) + c, max(candidates) + c
    return vlo, vhi


class RefField:
    def __init__(self, minpoly, lo, hi):
        self.minpoly = [Fraction(c) for c in minpoly]
        self.d = d = len(minpoly) - 1
        self.iv = (Fraction(lo), Fraction(hi))
        self.sign_lo = 1 if self.poly(self.iv[0]) > 0 else -1
        top = [-c / self.minpoly[-1] for c in self.minpoly[:-1]]
        table = [tuple(Fraction(int(i == k)) for i in range(d)) for k in range(d)]
        for _ in range(d - 1):
            prev = table[-1]
            shifted = [Fraction(0)] + list(prev[:-1])
            table.append(tuple(shifted[i] + prev[-1] * top[i] for i in range(d)))
        self.table = table

    def poly(self, x):
        acc = Fraction(0)
        for c in reversed(self.minpoly):
            acc = acc * x + c
        return acc

    def refine_step(self):
        lo, hi = self.iv
        if lo == hi:
            return
        mid = (lo + hi) / 2
        if (self.poly(mid) > 0) == (self.sign_lo > 0):
            self.iv = (mid, hi)
        else:
            self.iv = (lo, mid)

    def element(self, coeffs):
        vec = [Fraction(c) for c in coeffs]
        return Ref(self, tuple(vec + [Fraction(0)] * (self.d - len(vec))))


class Ref:
    def __init__(self, field, coeffs):
        self.field, self.coeffs = field, coeffs

    def __add__(self, other):
        return Ref(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Ref(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        d = self.field.d
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(self.coeffs):
            for j, bj in enumerate(other.coeffs):
                conv[i + j] += ai * bj
        out = [Fraction(0)] * d
        for k, ck in enumerate(conv):
            for i in range(d):
                out[i] += ck * self.field.table[k][i]
        return Ref(self.field, tuple(out))

    def inverse(self):
        if self.field.d == 1 or not any(self.coeffs[1:]):
            return self.field.element([1 / self.coeffs[0]])
        r0, r1 = _trim(list(self.coeffs)), list(self.field.minpoly)
        s0, s1 = [Fraction(1)], []
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1
        _, rem = _poly_divmod([c / r0[0] for c in s0], self.field.minpoly)
        return self.field.element(rem)

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.element([1])
        for _ in range(n):
            acc = acc * self
        return acc

    def is_rational(self):
        return not any(self.coeffs[1:])

    def approx(self, max_width):
        if self.is_rational():
            return self.coeffs[0], self.coeffs[0]
        while True:
            elo, ehi = _interval_eval(self.coeffs, *self.field.iv)
            if ehi - elo <= max_width:
                return elo, ehi
            self.field.refine_step()

    def sign(self):
        if self.is_rational():
            c = self.coeffs[0]
            return (c > 0) - (c < 0)
        while True:
            elo, ehi = _interval_eval(self.coeffs, *self.field.iv)
            if elo > 0:
                return 1
            if ehi < 0:
                return -1
            self.field.refine_step()

    def decimal(self, digits):
        scale = 10**digits
        if self.is_rational():
            r = self.coeffs[0]
            neg = r < 0
            n = (abs(r) * scale + Fraction(1, 2)).__floor__()
        else:
            neg = self.sign() < 0
            width = Fraction(1, scale * 1000)
            while True:
                lo, hi = self.approx(width)
                slo = abs(lo if not neg else hi) * scale + Fraction(1, 2)
                shi = abs(hi if not neg else lo) * scale + Fraction(1, 2)
                if slo.__floor__() == shi.__floor__():
                    n = slo.__floor__()
                    break
                width /= 16
        whole, frac = divmod(n, scale)
        return f"{'-' if neg else ''}{whole}.{frac:0{digits}d}"

    def __float__(self):
        lo, hi = self.approx(Fraction(1, 10**18))
        return float((lo + hi) / 2)


# -- fields under test --------------------------------------------------------------------------

SPECS = {
    "cubic": "poly:-1,-1,0,1;interval:1,2",
    "golden": "poly:-1,-1,1;interval:1,2",
    "quartic": "poly:-1,0,0,-1,1;interval:1,2",  # x^4 - x^3 - 1, from the benchmark pools
    "nonmonic": "poly:-3,0,2;interval:1,2",       # 2x^2 - 3: reduction rows over 2
    "nonmonic_cubic": "poly:-2,-2,0,3;interval:1,2",  # 3x^3 - 2x - 2: rows over 9
    "base2": "poly:-2,1;interval:1,3",             # degree 1
}


def _pair(name):
    field = parse_beta_spec(SPECS[name])
    lo, hi = field.interval()
    return field, RefField(field.minpoly.coefficients, lo, hi)


FIELDS = {name: _pair(name) for name in SPECS}

small = st.fractions(min_value=-9, max_value=9, max_denominator=15)
vectors = st.lists(small, min_size=1, max_size=4)


def _both(name, vec):
    field, ref = FIELDS[name]
    vec = vec[: field.degree]
    return field.from_coeffs(vec), ref.element(vec)


def _canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1


def _same(x, r):
    """The element equals the reference value, in canonical form."""
    assert _canonical(x)
    assert x.coeffs == r.coeffs
    rebuilt = x.field.from_coeffs(r.coeffs)
    assert x == rebuilt and hash(x) == hash(rebuilt)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(av=vectors, bv=vectors, power=st.integers(-3, 4))
def test_ring_operations_match_reference(name, av, bv, power):
    a, ra = _both(name, av)
    b, rb = _both(name, bv)
    _same(a, ra)
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a * b, ra * rb)
    _same(-a, ra.field.element([]) - ra)
    assert (a == b) == (ra.coeffs == rb.coeffs)
    if any(rb.coeffs):
        _same(b.inverse(), rb.inverse())
        _same(a / b, ra * rb.inverse())
    if any(ra.coeffs) or power >= 0:
        _same(a ** power, ra ** power)
    # the same value reached two ways is one canonical element
    c = (a * b + a) - a * b
    assert c == a and hash(c) == hash(a)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=60, deadline=None)
@given(av=vectors, scalar=small, digits=st.integers(1, 25), bits=st.integers(1, 80))
def test_numeric_operations_match_reference(name, av, scalar, digits, bits):
    a, ra = _both(name, av)
    rs = ra.field.element([scalar])
    _same(a * scalar, ra * rs)
    _same(a + scalar, ra + rs)
    _same(scalar - a, rs - ra)
    if scalar:
        _same(a / scalar, ra * rs.inverse())
    assert a.sign() == ra.sign()
    assert (a - scalar).sign() == (ra - rs).sign()
    assert a.decimal(digits) == ra.decimal(digits)
    width = Fraction(1, 2**bits)
    lo, hi = a.approx(width)
    rlo, rhi = ra.approx(width)
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= hi and hi - lo <= width
    assert lo <= rhi and rlo <= hi  # both enclose the one true value
    fa, fr = float(a), float(ra)
    assert abs(fa - fr) <= 1e-18 + 2 * math.ulp(max(abs(fa), abs(fr)))


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batched_bisection_matches_single_steps(name):
    field, _ = FIELDS[name]
    one_at_a_time = parse_beta_spec(SPECS[name])
    batched = parse_beta_spec(SPECS[name])
    _, ref = _pair(name)
    for _ in range(37):
        one_at_a_time._refine_step()
        ref.refine_step()
    batched._refine_step(37)
    assert one_at_a_time.interval() == batched.interval() == ref.iv
    lo, hi = batched.interval()
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert field.minpoly(lo) * field.minpoly(hi) <= 0


def test_refine_stops_at_the_first_width_below_the_target():
    number = parse_beta_spec(SPECS["cubic"])
    lo, hi = number.interval()
    target = (hi - lo) / 1000
    new_lo, new_hi = number.refine(target)
    assert new_hi - new_lo <= target < 2 * (new_hi - new_lo)
