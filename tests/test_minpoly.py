"""The integer minimal-polynomial search against the sympy factorisation it replaced.

`algebraic.make_algebraic` works in integers: the squarefree part and the root
counts come from a Sturm chain of primitive pseudo-remainders, rational roots
from Sturm bisection, and the irreducibility of what is left from its degree or
from Rabin's test modulo a prime below 60.  sympy is imported only for a factor
no prime certifies.  The reference below is the code it replaced: sympy's
`factor_list` over the integers and `count_roots` per factor.  Both must give
the same minimal polynomial and isolating interval, or the same error with the
same counts.  Spec text generated from the grammar must parse or raise
`ValueError`/`AlgebraicError`, nothing else.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import algebraic
from negabeta.algebraic import (
    AlgebraicError,
    AlgebraicNumber,
    IntPolynomial,
    MultipleRootsInInterval,
    NoRootInInterval,
    make_algebraic,
    parse_beta_spec,
)

from pisot_bases import BASES

# -- the sympy reference --------------------------------------------------------------------------


def reference_make_algebraic(p, lo, hi):
    p = IntPolynomial(tuple(p))
    lo, hi = Fraction(lo), Fraction(hi)
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(p.coefficients)), x, domain="ZZ").factor_list()
    total_real = in_interval = 0
    chosen = None
    for factor, _ in factors:
        if factor.degree() < 1:
            continue
        total_real += factor.count_roots()
        count = factor.count_roots(sympy.Rational(lo.numerator, lo.denominator),
                                   sympy.Rational(hi.numerator, hi.denominator))
        in_interval += count
        if count == 1 and chosen is None:
            chosen = factor
    if in_interval == 0:
        raise NoRootInInterval(0, total_real)
    if in_interval > 1:
        raise MultipleRootsInInterval(in_interval, total_real)
    coeffs = [int(c) for c in reversed(chosen.all_coeffs())]
    if coeffs[-1] < 0:
        coeffs = [-c for c in coeffs]
    minpoly = IntPolynomial(tuple(coeffs))
    number = AlgebraicNumber(minpoly, lo, hi)
    if minpoly.degree > 1:
        number.refine((hi - lo) / 1024)
    return number


def outcome(build, p, lo, hi):
    """The minimal polynomial and interval, or the error class and its counts."""
    try:
        number = build(p, lo, hi)
    except (NoRootInInterval, MultipleRootsInInterval) as err:
        return type(err).__name__, err.in_interval, err.total_real
    return number.minpoly.coefficients, number.interval()


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@pytest.fixture
def fallbacks(monkeypatch):
    """The factors handed to sympy during the test."""
    seen = []
    owning = algebraic._factor_owning_root

    def spy(g, lo, hi):
        seen.append(g)
        return owning(g, lo, hi)

    monkeypatch.setattr(algebraic, "_factor_owning_root", spy)
    return seen


# -- random products against the reference --------------------------------------------------------

_factor = st.lists(st.integers(-6, 6), min_size=2, max_size=4).filter(lambda c: c[-1] != 0)
_bound = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@st.composite
def _case(draw):
    """A product of 1-3 factors, some squared, and intervals; bounds may sit on a rational root."""
    p, roots = [1], []
    for factor in draw(st.lists(_factor, min_size=1, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            p = _mul(p, factor)
        if len(factor) == 2:
            roots.append(Fraction(-factor[0], factor[1]))
    bound = st.one_of(_bound, st.sampled_from(roots)) if roots else _bound
    intervals = draw(st.lists(st.tuples(bound, bound).map(sorted), min_size=1, max_size=4))
    return p, intervals


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_case())
def test_random_products_match_sympy(case):
    p, intervals = case
    for lo, hi in intervals:
        assert outcome(make_algebraic, p, lo, hi) == outcome(reference_make_algebraic, p, lo, hi)


# -- the spec grammar under generated text ----------------------------------------------------------

_HUGE = st.integers(-10**30, 10**30)
_SMALL_FACTOR = st.lists(st.integers(-4, 4), min_size=2, max_size=3)
_HUGE_FACTOR = st.lists(st.one_of(st.integers(-4, 4), _HUGE), min_size=2, max_size=3)
_RATIONAL = st.one_of(
    st.integers(-5, 5).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)),  # q = 0 included
    _HUGE.map(str),
)


@st.composite
def _spec_text(draw):
    """Spec text from the grammar, with degenerate polynomials and bounds."""
    if draw(st.booleans()):
        return f"decimal:{draw(_RATIONAL)};precision:{draw(st.integers(-1, 80))}"
    # zero constant terms, non-monic and zero leading coefficients come from the
    # factors; squares make repeated factors
    coeffs, roots = [1], []
    for factor in draw(st.lists(st.one_of(_SMALL_FACTOR, _HUGE_FACTOR), min_size=1, max_size=2)):
        for _ in range(draw(st.integers(1, 2))):
            coeffs = _mul(coeffs, factor)
        if len(factor) == 2 and factor[1]:
            roots.append(str(Fraction(-factor[0], factor[1])))
    # the root of a linear factor puts a root exactly on an endpoint; the
    # bounds are not sorted, so intervals come reversed too
    endpoint = st.one_of(_RATIONAL, st.sampled_from(roots)) if roots else _RATIONAL
    lo, hi = draw(endpoint), draw(endpoint)
    return f"poly:{','.join(map(str, coeffs))};interval:{lo},{hi}"


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_spec_text())
def test_parse_beta_spec_returns_or_raises_value_or_algebraic_error(text):
    try:
        beta = parse_beta_spec(text)
    except (ValueError, AlgebraicError):
        return
    assert isinstance(beta, AlgebraicNumber)
    if text.startswith("decimal:"):
        d = Fraction(text[len("decimal:"):].split(";")[0])
        assert beta.minpoly.coefficients == (-d.numerator, d.denominator)


# -- pinned cases ---------------------------------------------------------------------------------


def test_pool_bases_match_sympy_without_fallback(fallbacks):
    assert len(BASES) == 68
    for case in BASES:
        assert outcome(make_algebraic, *case) == outcome(reference_make_algebraic, *case), case
    assert fallbacks == []


@pytest.mark.parametrize("case, minpoly", [
    (((0, -2, 0, 1), 1, 2), (-2, 0, 1)),   # x^3 - 2x: the zero root is split off
    (((-2, 1), 2, 3), (-2, 1)),            # a root on the lower endpoint counts
    (((-2, 1), 0, 2), (-2, 1)),            # and on the upper one
    (((2, 1, -1, -2, 1), 1, 3), None),     # (x - 2)(x^3 - x - 1): two roots in [1, 3]
    (((2, 1, -1, -2, 1), 1, Fraction(3, 2)), (-1, -1, 0, 1)),
    # x(x^2 + 3x - 1): the root 0 is a bisection point, with a root in (0, 1) beside it
    (((0, -1, 3, 1), Fraction(1, 4), Fraction(1, 2)), (-1, 3, 1)),
    # x^4 - 2x - 1: its Sturm chain skips a degree, so a remainder's sign needs correcting
    (((-1, -2, 0, 0, 1), 1, 2), (-1, -2, 0, 0, 1)),
    (((-1, -2, 0, 0, 1), -2, 2), None),
])
def test_pinned_cases_match_sympy(case, minpoly, fallbacks):
    got = outcome(make_algebraic, *case)
    assert got == outcome(reference_make_algebraic, *case)
    if minpoly is None:
        assert got == ("MultipleRootsInInterval", 2, 2)  # both cases have 2 real roots
    else:
        assert got[0] == minpoly
    assert fallbacks == []


def test_uncertified_factor_takes_the_sympy_path(fallbacks):
    # (x^2 - 2)(x^2 - 3) factors modulo every prime, so no prime certifies it
    case = ((6, 0, -5, 0, 1), 1, Fraction(3, 2))
    got = outcome(make_algebraic, *case)
    assert got == outcome(reference_make_algebraic, *case)
    assert got[0] == (-2, 0, 1)
    assert fallbacks == [(6, 0, -5, 0, 1)]


def test_thirty_digit_coefficients_search_no_divisors(fallbacks):
    case = ((-(10**38 - 1), 0, 1), 1, 10**19)
    start = time.perf_counter()
    got = outcome(make_algebraic, *case)
    assert time.perf_counter() - start < 0.05
    assert got == outcome(reference_make_algebraic, *case)
    assert got[0] == (-(10**38 - 1), 0, 1)
    assert fallbacks == []


def test_rabin_matches_sympy_modulo_p():
    rng = random.Random(5)
    x = sympy.Symbol("x")
    primes = [p for p in algebraic._RABIN_PRIMES if p < 20]
    for _ in range(300):
        p = rng.choice(primes)
        coeffs = [rng.randrange(p) for _ in range(rng.randint(2, 6))] + [rng.randrange(1, p)]
        expected = sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible
        assert algebraic._irreducible_mod(coeffs, p) == expected, (coeffs, p)


def test_sympy_is_not_imported():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    # neither sympy nor numpy may load for the package or for any exact command
    code = (
        "import sys\n"
        "def check(step):\n"
        "    loaded = {'sympy', 'numpy'} & set(sys.modules)\n"
        "    assert not loaded, f'{step} loaded {sorted(loaded)}'\n"
        "import negabeta\n"
        "check('import negabeta')\n"
        "from negabeta import cli\n"
        "beta = ['--beta', 'poly:-1,-1,0,1;interval:1,2']\n"
        "for argv in (['yrrap', *beta], ['graph', *beta], ['components', *beta],\n"
        "             ['spec', *beta, '--oracle-maxlen', '4'], ['cyl', *beta, '--maxlen', '4'],\n"
        "             ['gbeta', *beta, '--n', '10'], ['example31', '--maxlen', '4'],\n"
        "             ['validate', *beta, '--maxlen', '4', '--seed', '3']):\n"
        "    assert cli.main(argv) == 0, argv[0]\n"
        "    check(argv[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
