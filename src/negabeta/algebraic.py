"""Exact arithmetic in the number field generated by one real algebraic number.

A field is described by an integer polynomial together with a rational
isolating interval pinning down a single real root.  Elements are stored as
integer coefficient vectors over one positive denominator in the power basis
of that root, and signs and bounds come from integer interval arithmetic on
the isolating interval, so equality, signs and correctly rounded decimal
output are all decided exactly.  No
floating point enters any exactness-bearing path; floats only appear in
convenience accessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

_SIGN_REFINE_CAP = 20000


class AlgebraicError(Exception):
    """Base class for errors raised by this module."""


class NoRootInInterval(AlgebraicError):
    """The polynomial has no real root inside the given interval."""

    def __init__(self, in_interval: int, total_real: int):
        self.in_interval = in_interval
        self.total_real = total_real
        super().__init__(
            f"no root in interval ({in_interval} in interval, "
            f"{total_real} real roots in total)"
        )


class MultipleRootsInInterval(AlgebraicError):
    """The interval fails to isolate: it contains several distinct roots."""

    def __init__(self, in_interval: int, total_real: int):
        self.in_interval = in_interval
        self.total_real = total_real
        super().__init__(
            f"interval is not isolating ({in_interval} roots in interval, "
            f"{total_real} real roots in total)"
        )


class MixedFields(AlgebraicError):
    """Arithmetic was attempted between elements of different fields."""


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def _bareiss(aug: list[list[int]]) -> tuple[int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination of an n x (n + k) integer matrix [A | B].

    Returns det(A) and the integer matrix det(A) * A^-1 B, whose rows are
    the numerators of the solution X of A X = B over det(A); a singular A
    returns (0, []).  Every entry stays a minor of [A | B], so each division
    by the previous pivot is exact (Bareiss, Math. Comp. 22, 1968).
    The rows of ``aug`` are overwritten.
    """
    n = len(aug)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot is None:
            return 0, []
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        top = aug[k][k + 1:]
        p = aug[k][k]
        for i, row in enumerate(aug):
            if i != k:
                f = row[k]
                row[k + 1:] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in aug]


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients listed low degree first."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) < 2 or coeffs[-1] == 0:
            raise ValueError("need a nonconstant polynomial with nonzero leading coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"{c}*x" if abs(c) != 1 else ("x" if c > 0 else "-x"))
            else:
                parts.append(f"{c}*x^{k}" if abs(c) != 1 else (f"x^{k}" if c > 0 else f"-x^{k}"))
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _halvings(num: int, den: int) -> int:
    """Least k >= 0 with num <= den * 2**k, for positive den."""
    return ((num - 1) // den).bit_length() if num > den else 0


class AlgebraicNumber:
    """One real root of an irreducible integer polynomial.

    The constructor takes ``minpoly`` as given and does not test that it is
    irreducible.  :func:`make_algebraic` and :func:`parse_beta_spec` are the constructors
    that guarantee a minimal polynomial, and the class is not exported from
    the package.  The isolating interval [a/q, b/q] is held as the integers (a, b, q) and
    only ever shrinks; refinement results are cached on the instance, which
    keeps the value immutable as observed through the public operations and
    safe to share between threads.
    """

    def __init__(self, minpoly: IntPolynomial, lo: Fraction, hi: Fraction):
        self.minpoly = minpoly
        self.degree = minpoly.degree
        if self.degree == 1:
            c0, c1 = minpoly.coefficients
            lo = hi = Fraction(-c0, c1)
            self._sign_lo = 0
        else:
            s_lo = _sign_at(minpoly.coefficients, lo.numerator, lo.denominator)
            s_hi = _sign_at(minpoly.coefficients, hi.numerator, hi.denominator)
            if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
                raise ValueError("interval endpoints must straddle the root")
            self._sign_lo = s_lo
        q = math.lcm(lo.denominator, hi.denominator)
        self._box = (lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q)
        self._reduction, self._reduction_den = self._build_reduction()

    def _build_reduction(self) -> tuple[list[tuple[int, ...]], int]:
        """X^d .. X^(2d-2) in the power basis, as integer rows over lead^(d-1).

        With X^d = -(c_0 + ... + c_{d-1} X^{d-1}) / lead, the power X^(d+j)
        is an integer row over lead^(j+1); the rows are brought to one
        denominator so a product reduces with integer arithmetic alone.
        """
        *low, lead = self.minpoly.coefficients
        d = len(low)
        rows, row = [], [-c for c in low]
        for _ in range(d - 1):
            rows.append(row)
            shifted = [0] + row[:-1]
            row = [lead * s - row[-1] * c for s, c in zip(shifted, low)]
        return ([tuple(r * lead ** (d - 2 - j) for r in rw) for j, rw in enumerate(rows)],
                lead ** (d - 1))

    # -- isolating interval ---------------------------------------------------

    def interval(self) -> tuple[Fraction, Fraction]:
        a, b, q = self._box
        return Fraction(a, q), Fraction(b, q)

    def _refine_step(self, steps: int = 1) -> None:
        """Bisect the isolating interval `steps` times, in integers."""
        a, b, q = self._box
        if a == b:
            return
        coeffs = self.minpoly.coefficients
        for _ in range(steps):
            mid = a + b
            a, b, q = 2 * a, 2 * b, 2 * q
            # q^d * minpoly(mid/q); nonzero, since an irreducible polynomial
            # of degree >= 2 has no rational root
            acc, q_pow = coeffs[-1], 1
            for c in reversed(coeffs[:-1]):
                q_pow *= q
                acc = acc * mid + c * q_pow
            if (acc > 0) == (self._sign_lo > 0):
                a = mid
            else:
                b = mid
        self._box = (a, b, q)

    def refine(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        max_width = _frac(max_width)
        a, b, q = self._box
        self._refine_step(_halvings((b - a) * max_width.denominator, q * max_width.numerator))
        return self.interval()

    # -- element constructors -------------------------------------------------

    def _element(self, nums: Sequence[int], den: int) -> "FieldElement":
        """The element nums/den in canonical form: den > 0, overall gcd 1."""
        if den < 0:
            nums, den = [-n for n in nums], -den
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
        return FieldElement(self, tuple(nums), den)

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def from_rational(self, r: Rational) -> "FieldElement":
        if not isinstance(r, (int, Fraction)):
            raise TypeError(f"expected an exact rational, got {type(r).__name__}")
        return FieldElement(self, (r.numerator,) + (0,) * (self.degree - 1), r.denominator)

    def from_coeffs(self, coeffs: Iterable[Rational]) -> "FieldElement":
        vec = [_frac(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ValueError("coefficient vector longer than the field degree")
        vec += [Fraction(0)] * (self.degree - len(vec))
        den = math.lcm(*(c.denominator for c in vec))
        return self._element([c.numerator * (den // c.denominator) for c in vec], den)

    def generator(self) -> "FieldElement":
        """The root itself, as a field element."""
        if self.degree == 1:
            return self.from_rational(self.interval()[0])
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __float__(self) -> float:
        self.refine(Fraction(1, 10**18))
        a, b, q = self._box
        return (a + b) / (2 * q)

    def __repr__(self) -> str:
        lo, hi = self.interval()
        return f"AlgebraicNumber({self.minpoly}, [{lo}, {hi}])"


def _compatible(a: "FieldElement", b: "FieldElement") -> bool:
    fa, fb = a.field, b.field
    if fa is fb:
        return True
    if fa.minpoly.coefficients != fb.minpoly.coefficients:
        return False
    alo, ahi = fa.interval()
    blo, bhi = fb.interval()
    return alo <= bhi and blo <= ahi


class FieldElement:
    """Element of Q(root): the integer vector nums over den, in the power basis.

    The form is canonical (den > 0 and gcd(nums, den) = 1), so equal elements
    have equal vectors and hashes; a rational element also equals, and hashes
    as, the int or Fraction of its value.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: AlgebraicNumber, nums: tuple[int, ...], den: int):
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The rational coefficient vector in the power basis."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- ring structure --------------------------------------------------------

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if not _compatible(self, other):
                raise MixedFields("operands belong to different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def _combine(self, other, sign: int) -> "FieldElement":
        """self + sign * other, over the least common denominator."""
        if not (isinstance(other, FieldElement) and other.field is self.field):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        g = math.gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        nums = [x * ma + y * mb for x, y in zip(self.nums, other.nums)]
        return self.field._element(nums, da * ma)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        if isinstance(other, int):
            # other*den - nums[0] keeps the gcd with den, so the form stays canonical
            first, *rest = self.nums
            nums = (other * self.den - first, *(-a for a in rest))
            return FieldElement(self.field, nums, self.den)
        return (-self)._combine(other, 1)

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.nums), self.den)

    def _scaled(self, num: int, den: int) -> "FieldElement":
        if den == 0:
            raise ZeroDivisionError("division by zero")
        return self.field._element([a * num for a in self.nums], self.den * den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        field = self.field
        d = field.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(self.nums):
            if ai:
                for j, bj in enumerate(other.nums):
                    if bj:
                        conv[i + j] += ai * bj
        scale = field._reduction_den
        out = [c * scale for c in conv[:d]] if scale != 1 else conv[:d]
        for ck, row in zip(conv[d:], field._reduction):
            if ck:
                for i, r in enumerate(row):
                    if r:
                        out[i] += ck * r
        return field._element(out, self.den * other.den * scale)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("field element is zero")
        if self.is_rational():
            return self.field.from_rational(Fraction(self.den, self.nums[0]))
        # Solve self * y = 1.  Column j of y -> self * y is self * X^j = nums_j / den_j,
        # so with z_j = y_j / den_j the system has the integer columns nums_j.
        # It is nonsingular because the field has no zero divisors.
        field = self.field
        x = field.generator()
        columns, column = [], self
        for _ in range(field.degree):
            columns.append(column)
            column = column * x
        aug = [[c.nums[i] for c in columns] + [int(i == 0)] for i in range(field.degree)]
        det, z = _bareiss(aug)
        if not det:
            raise ZeroDivisionError("element is a zero divisor: the polynomial is reducible")
        return field._element([c.den * zj for c, (zj,) in zip(columns, z)], det)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.denominator, other.numerator)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        acc = self.field.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    # -- predicates and comparisons -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def _enclosure(self) -> tuple[int, int, int]:
        """(lo, hi, den) with the value in [lo/den, hi/den].

        Interval Horner evaluation on the isolating interval [a/q, b/q],
        scaled by q at every step so that it stays in integers.
        """
        a, b, q = self.field._box
        nums = self.nums
        lo = hi = nums[-1]
        q_pow = 1
        for c in reversed(nums[:-1]):
            q_pow *= q
            products = (lo * a, lo * b, hi * a, hi * b)
            c_scaled = c * q_pow
            lo, hi = min(products) + c_scaled, max(products) + c_scaled
        return lo, hi, self.den * q_pow

    def _bracket(self, width_num: int, width_den: int) -> tuple[int, int, int]:
        """An enclosure at most width_num/width_den wide.

        The enclosure width roughly halves with each bisection of the
        isolating interval, so one batch of bisections usually suffices.
        """
        lo, hi, den = self._enclosure()
        while (hi - lo) * width_den > width_num * den:
            self.field._refine_step(_halvings((hi - lo) * width_den, width_num * den))
            lo, hi, den = self._enclosure()
        return lo, hi, den

    def sign(self) -> int:
        if self.is_rational():
            first = self.nums[0]
            return (first > 0) - (first < 0)
        steps = spent = 0
        while True:
            lo, hi, _ = self._enclosure()
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if spent >= _SIGN_REFINE_CAP:
                raise RuntimeError("sign determination did not converge")
            steps = 2 * steps or 1
            self.field._refine_step(steps)
            spent += steps

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        if not isinstance(other, FieldElement):
            return NotImplemented
        if not _compatible(self, other):
            return False
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        """Equal values hash alike: a rational element hashes as the int or
        Fraction it equals, any other element by its canonical vector."""
        nums = self.nums
        if not any(nums[1:]):
            return hash(nums[0]) if self.den == 1 else hash(Fraction(nums[0], self.den))
        return hash((nums, self.den))

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    # -- numeric output ---------------------------------------------------------

    def approx(self, max_width: Fraction) -> tuple[Fraction, Fraction]:
        """Exact rational bounds on the value, at most max_width apart."""
        if self.is_rational():
            value = self.as_fraction()
            return value, value
        max_width = _frac(max_width)
        lo, hi, den = self._bracket(max_width.numerator, max_width.denominator)
        return Fraction(lo, den), Fraction(hi, den)

    def decimal(self, digits: int) -> str:
        if digits < 1:
            raise ValueError("digits must be >= 1")
        scale = 10**digits
        if self.is_rational():
            neg = self.nums[0] < 0
            n = (2 * abs(self.nums[0]) * scale + self.den) // (2 * self.den)
        else:
            neg = self.sign() < 0
            width_den = scale * 1000
            while True:
                lo, hi, den = self._bracket(1, width_den)
                if neg:
                    lo, hi = hi, lo
                # round half up: floor(|x| * scale + 1/2) at both ends
                n = (2 * abs(lo) * scale + den) // (2 * den)
                if n == (2 * abs(hi) * scale + den) // (2 * den):
                    break
                width_den *= 16
        whole, frac = divmod(n, scale)
        return f"{'-' if neg else ''}{whole}.{frac:0{digits}d}"

    def __float__(self) -> float:
        if self.is_rational():
            return self.nums[0] / self.den
        lo, hi, den = self._bracket(1, 10**18)
        return (lo + hi) / (2 * den)

    def __repr__(self):
        return f"FieldElement({list(self.coeffs)})"


# -- the minimal polynomial, in integers -----------------------------------------------------
#
# Integer polynomials below are coefficient tuples, lowest degree first, with
# no leading zeros.

_RABIN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


def _primitive(c: Sequence[int]) -> tuple[int, ...]:
    """c divided by the gcd of its coefficients, signs kept."""
    g = math.gcd(*c)
    return tuple(x // g for x in c)


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The pseudo-remainder of a by b: lead(b)^(deg a - deg b + 1) * a mod b."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [lead * x for x in r]
        for j in range(db):
            r[k + j] -= top * b[j]
    return _trim(r)


def _divide_exact(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """a / b for a primitive divisor b of a; by Gauss's lemma the quotient is integral."""
    r = list(a)
    quotient = [0] * (len(a) - len(b) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c, rest = divmod(r[k + len(b) - 1], b[-1])
        if rest:
            raise ArithmeticError("divisor does not divide")
        quotient[k] = c
        for j, bj in enumerate(b):
            r[k + j] -= c * bj
    return tuple(quotient)


def _sturm_chain(f: Sequence[int]) -> list[tuple[int, ...]]:
    """f, f' and the negated remainders, each scaled by a positive rational.

    The chain ends at a nonzero constant when f is squarefree, and at a
    multiple of gcd(f, f') otherwise.
    """
    chain = [tuple(f), _primitive([k * c for k, c in enumerate(f) if k])]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _prem(a, b)
        if not r:
            break
        # r is lead(b)^e times the remainder, e = len(a) - len(b) + 1
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-x for x in r]
        chain.append(_primitive(r))
    return chain


def _sign_at(c: Sequence[int], num: int, den: int) -> int:
    """Sign of c(num/den), for den > 0."""
    acc, den_pow = c[-1], 1
    for x in reversed(c[:-1]):
        den_pow *= den
        acc = acc * num + x * den_pow
    return (acc > 0) - (acc < 0)


def _value_mod(c: Sequence[int], x: int, p: int) -> int:
    """c(x) modulo p."""
    acc = 0
    for a in reversed(c):
        acc = (acc * x + a) % p
    return acc


def _variations(values: Iterable[int]) -> int:
    """Sign changes along the sequence, zeros skipped."""
    positive = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(positive, positive[1:]))


def _variations_at(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    return _variations(_sign_at(c, num, den) for c in chain)


def _real_root_count(chain: list[tuple[int, ...]]) -> int:
    """Distinct real roots of the squarefree chain[0]: V(-oo) - V(+oo)."""
    at_minus = _variations(c[-1] if len(c) % 2 else -c[-1] for c in chain)
    return at_minus - _variations(c[-1] for c in chain)


def _roots_in(chain: list[tuple[int, ...]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the squarefree chain[0] in the closed interval [lo, hi].

    V(lo) - V(hi) counts the roots in (lo, hi]; a root at lo is added.
    """
    at_lo = [_sign_at(c, lo.numerator, lo.denominator) for c in chain]
    return (_variations(at_lo) - _variations_at(chain, hi.numerator, hi.denominator)
            + (at_lo[0] == 0))


def _rational_roots(f: tuple[int, ...], chain: list[tuple[int, ...]]) -> list[Fraction]:
    """The rational roots of the squarefree f, whose leading coefficient is positive.

    Every rational root is k/lead for an integer k, and a half-open interval
    narrower than 1/lead holds at most one such point.  So Sturm bisection of
    (-B, B], B a power of two above Cauchy's root bound, down to that width
    leaves one candidate per interval that holds a root; the number of steps
    grows with the bit length of the coefficients, not with their divisors.
    """
    lead = f[-1]
    # A rational root k/lead is a root modulo every prime not dividing lead,
    # so a prime modulo which f has no root rules all of them out.
    if any(lead % p and all(_value_mod(f, x, p) for x in range(p)) for p in (2, 3, 5, 7)):
        return []
    bound = 1 << (-(-max(abs(c) for c in f[:-1]) // lead)).bit_length()
    roots = []
    stack = [(-bound, bound, 0, _variations_at(chain, -bound, 1), _variations_at(chain, bound, 1))]
    while stack:
        a, b, e, va, vb = stack.pop()  # the interval (a/2^e, b/2^e]
        if va == vb:
            continue
        if (b - a) * lead < 1 << e:
            k = (b * lead) >> e
            if k << e > a * lead and _sign_at(f, k, lead) == 0:
                roots.append(Fraction(k, lead))
            continue
        mid = a + b
        vm = _variations_at(chain, mid, 1 << (e + 1))
        stack += [(2 * a, mid, e + 1, va, vm), (mid, 2 * b, e + 1, vm, vb)]
    return roots


def _mulmod(u: list[int], v: list[int], f: list[int], p: int) -> list[int]:
    """u * v modulo the monic f and the prime p."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
    n = len(f) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        top = prod[k] % p
        if top:
            for j in range(n):
                prod[k - n + j] -= top * f[j]
    return _trim([c % p for c in prod[:n]])


def _gcd_degree_mod(a: list[int], b: list[int], p: int) -> int:
    """Degree of gcd(a, b) over the field of p elements, for a nonzero a."""
    while b:
        r, inv = list(a), pow(b[-1], -1, p)
        for k in range(len(a) - len(b), -1, -1):
            top = r.pop() * inv % p
            for j in range(len(b) - 1):
                r[k + j] = (r[k + j] - top * b[j]) % p
        a, b = b, _trim(r)
    return len(a) - 1


def _irreducible_mod(f: Sequence[int], p: int) -> bool:
    """Irreducibility of f modulo p, for deg f >= 2 and a prime p not dividing lead(f).

    Over the field of p elements every irreducible factor of degree k
    divides x^(p^k) - x, so the monic f of degree n is irreducible iff
    gcd(f, x^(p^k) - x) = 1 for k = 1 .. n // 2; the test stops at the
    first k with a common factor.
    """
    inv = pow(f[-1], -1, p)
    monic = [c * inv % p for c in f]
    frobenius = [0, 1]  # x^(p^k) mod f
    for _ in range((len(f) - 1) // 2):
        power, base, e = [1], frobenius, p
        while e:
            if e & 1:
                power = _mulmod(power, base, monic, p)
            base = _mulmod(base, base, monic, p)
            e >>= 1
        frobenius = power
        h = frobenius + [0, 0]  # padded, so that x can be subtracted
        if _gcd_degree_mod(monic, _trim([h[0], (h[1] - 1) % p, *h[2:]]), p) > 0:
            return False
    return True


def _factor_owning_root(g: tuple[int, ...], lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The irreducible factor of the squarefree g with a root in [lo, hi], by sympy."""
    import logging

    import sympy  # only for factors that no prime below 60 certifies

    logging.getLogger(__name__).debug(
        "no prime below 60 certifies %s; factoring with sympy", IntPolynomial(g))
    _, factors = sympy.Poly(list(reversed(g)), sympy.Symbol("x"), domain="ZZ").factor_list()
    for factor, _ in factors:
        coeffs = tuple(int(c) for c in reversed(factor.all_coeffs()))
        if _roots_in(_sturm_chain(coeffs), lo, hi):
            return coeffs
    raise ArithmeticError("no factor owns the root")


def _minimal_polynomial(f: tuple[int, ...], chain: list[tuple[int, ...]],
                        lo: Fraction, hi: Fraction) -> tuple[int, ...]:
    """The irreducible factor of the squarefree f owning its one root in [lo, hi]."""
    if len(f) == 2:
        return f
    rest = f
    for r in _rational_roots(f, chain):
        linear = (-r.numerator, r.denominator)
        if lo <= r <= hi:
            return linear
        rest = _divide_exact(rest, linear)
    # The root is irrational and rest has no rational root, so rest is
    # irreducible when its degree is 2 or 3; a prime modulo which it stays
    # irreducible, with its degree kept, certifies it for any degree.
    if len(rest) <= 4 or any(rest[-1] % p and _irreducible_mod(rest, p) for p in _RABIN_PRIMES):
        return rest
    return _factor_owning_root(rest, lo, hi)


def make_algebraic(p: IntPolynomial | Sequence[int], lo: Rational, hi: Rational) -> AlgebraicNumber:
    """Pin down the unique real root of p inside [lo, hi].

    Everything runs in integers.  p is reduced to its squarefree part
    p / gcd(p, p'), made primitive with a positive leading coefficient, and
    a Sturm chain of primitive pseudo-remainders counts its distinct real
    roots, over all of R and in the closed interval [lo, hi]; an interval
    more than 1024 times wider than Cauchy's root bound B is first cut down
    to [-B, B].  Raises
    :class:`NoRootInInterval` or :class:`MultipleRootsInInterval` when the
    interval does not hold exactly one of them.  The minimal polynomial of
    that root is the linear factor of a rational root (found by Sturm
    bisection), or else the part of p left after the rational roots are
    divided out, once it is certified irreducible: by having degree 2 or 3,
    or by staying irreducible modulo a prime below 60.  Only a factor no prime
    certifies is handed to sympy's ``factor_list``, the one use of sympy.
    """
    if not isinstance(p, IntPolynomial):
        p = IntPolynomial(tuple(p))
    lo, hi = _frac(lo), _frac(hi)
    if lo > hi:
        raise ValueError("empty interval")
    chain = _sturm_chain(p.coefficients)
    if len(chain[-1]) > 1:
        import logging  # only on this rare path, off the import floor

        logging.getLogger(__name__).info(
            "input polynomial was not squarefree; reduced to its squarefree part")
        f = _primitive(_divide_exact(p.coefficients, chain[-1]))
    else:
        f = _primitive(p.coefficients)
    if f[-1] < 0:
        f = tuple(-c for c in f)
    if f != chain[0]:
        chain = _sturm_chain(f)

    total_real = _real_root_count(chain)
    # Every root lies strictly inside Cauchy's bound (-B, B).  A far wider
    # interval is cut down to it, so refinement never starts from a huge width.
    # B = (lead + top) / lead, compared with hi - lo in integers.
    lead, top = f[-1], max(abs(c) for c in f[:-1])
    width = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    if width * lead > 1024 * (lead + top) * lo.denominator * hi.denominator:
        bound = Fraction(lead + top, lead)
        lo, hi = max(lo, -bound), min(hi, bound)
    in_interval = _roots_in(chain, lo, hi) if lo <= hi else 0
    if in_interval == 0:
        raise NoRootInInterval(0, total_real)
    if in_interval > 1:
        raise MultipleRootsInInterval(in_interval, total_real)

    coeffs = list(_minimal_polynomial(f, chain, lo, hi))
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    minpoly = IntPolynomial(tuple(coeffs))

    # An irreducible minpoly of degree >= 2 has no rational root, and its one
    # root in [lo, hi] is simple, so the endpoints already straddle it.
    number = AlgebraicNumber(minpoly, lo, hi)
    if minpoly.degree > 1:
        number._refine_step(10)  # refine((hi - lo) / 1024), which takes ten bisections
    return number


def field_arith(a: FieldElement, b: FieldElement, op: str) -> FieldElement:
    """Exact ring operation; op is one of 'add', 'sub', 'mul'."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def sign_of(a: FieldElement) -> int:
    """Exact sign: -1, 0 or +1."""
    return a.sign()


def to_decimal(a: FieldElement, digits: int) -> str:
    """Value of a, correctly rounded to the requested number of fraction digits."""
    return a.decimal(digits)


# -- shared beta input grammar -------------------------------------------------

def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


_SPEC_KEYS = {"poly": {"poly", "interval"}, "decimal": {"decimal", "precision"}}


def parse_beta_spec(text: str) -> AlgebraicNumber:
    """Parse the shared beta grammar.

    Either ``poly:<c0,c1,...,ck>;interval:<lo>,<hi>`` with rational bounds
    written as ``p/q``, or ``decimal:<d>;precision:<digits>``, which is the
    exact rational d as a number of degree 1; precision is range-checked and
    not read.  A repeated key, a key the form does not know, or the two
    forms together are a ValueError.
    """
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed beta spec near {chunk!r}")
        key = key.strip()
        if key in fields:
            raise ValueError(f"repeated key {key!r} in beta spec")
        fields[key] = value.strip()
    forms = [form for form in _SPEC_KEYS if form in fields]
    if len(forms) != 1:
        raise ValueError("beta spec must start with poly: or decimal:" if not forms
                         else "beta spec mixes the poly: and decimal: forms")
    unknown = sorted(set(fields) - _SPEC_KEYS[forms[0]])
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in the {forms[0]}: form of beta spec")
    if "poly" in fields:
        if "interval" not in fields:
            raise ValueError("poly form needs an interval:<lo>,<hi> part")
        coeffs = tuple(int(c) for c in fields["poly"].split(","))
        bounds = fields["interval"].split(",")
        if len(bounds) != 2:
            raise ValueError("interval must be two comma-separated rationals")
        lo, hi = (_parse_rational(b) for b in bounds)
        return make_algebraic(IntPolynomial(coeffs), lo, hi)
    if int(fields.get("precision", "64")) < 1:
        raise ValueError("precision must be >= 1")
    d = _parse_rational(fields["decimal"])
    return make_algebraic(IntPolynomial((-d.numerator, d.denominator)), d, d)
