"""The fraction-free elimination against the Fraction Gauss-Jordan it replaced.

`reference_solve` is the Gauss-Jordan elimination over `Fraction`s that
`FieldElement.inverse` and `random_markov_measure` used to call, extended to
report the determinant (the product of its pivots) and to return
determinant 0 on a singular system instead of raising.  `_bareiss` must
give the same determinant and the same solution over it, on integer
systems and on rational systems cleared of denominators row by row.
"""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import ldp
from negabeta.algebraic import AlgebraicNumber, IntPolynomial, _bareiss, parse_beta_spec
from negabeta.shiftgraph import automaton_for, chain_for, decompose
from negabeta.transform import MinusBetaSystem

from measure_reference import random_markov_measure

BIG = "poly:-2,0,2,-1,-2,1;interval:2,3"  # x^5-2x^4-x^3+2x^2-2, a 52-state automaton


def reference_solve(rows, rhs):
    """Gauss-Jordan over the rationals: (det, solution), or (0, None) when singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in (*row, *b)] for row, b in zip(rows, rhs)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return det, [row[n:] for row in aug]


def cleared(rows):
    """Each rational row times the lcm of its denominators: the same solutions, in integers."""
    out = []
    for row in rows:
        scale = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def test_singular_integer_system_has_determinant_zero():
    assert _bareiss([[1, 2, 1], [2, 4, 0]]) == (0, [])
    assert _bareiss([[0, 0], [0, 5]]) == (0, [])
    assert reference_solve([[1, 2], [2, 4]], [[1], [0]]) == (0, None)


def test_singular_rational_system_has_determinant_zero():
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = [[half, third, Fraction(1)], [3 * half, 3 * third, Fraction(5, 7)]]
    assert cleared(rows) == [[3, 2, 6], [21, 14, 10]]
    assert _bareiss(cleared(rows)) == (0, [])


def test_inverse_of_a_zero_divisor_is_a_named_error():
    # x^2 - 1 is reducible, so g - 1 times g + 1 is 0 and g - 1 has no inverse
    ring = AlgebraicNumber(IntPolynomial((-1, 0, 1)), Fraction(1, 2), Fraction(3, 2))
    with pytest.raises(ZeroDivisionError, match="zero divisor"):
        (ring.generator() - 1).inverse()


rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))


@st.composite
def rational_systems(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 2))
    return [draw(st.lists(rationals, min_size=n + k, max_size=n + k)) for _ in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rational_systems())
def test_rational_systems_match_the_fraction_gauss_jordan(aug):
    n = len(aug)
    det, solution = reference_solve([row[:n] for row in aug], [row[n:] for row in aug])
    got_det, nums = _bareiss(cleared(aug))
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in aug)
    assert got_det == det * scale
    if det:
        assert [[Fraction(x, got_det) for x in row] for row in nums] == solution
    else:
        assert nums == []


@st.composite
def integer_matrices(draw):
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):  # a dependent row makes it singular
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.integers(-2, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])] if i != j else [0] * n
    return rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(integer_matrices())
def test_integer_determinants_match_the_fraction_gauss_jordan(rows):
    det, _ = reference_solve(rows, [[] for _ in rows])
    assert _bareiss([list(row) for row in rows]) == (det, [[] for _ in rows] if det else [])


def test_kink_polynomials_match_sympy_determinants(monkeypatch):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    built = []
    kink_polynomial = ldp._kink_polynomial

    def recording(*args):
        built.append((args, kink_polynomial(*args)))
        return built[-1][1]

    monkeypatch.setattr(ldp, "_kink_polynomial", recording)
    for spec in ("poly:-1,-1,0,1;interval:1,2", "poly:-1,-1,1;interval:1,2"):
        system = MinusBetaSystem(parse_beta_spec(spec))
        system.expansion_of_one()
        chain = chain_for(system)
        for psi in ({0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}, {0: 0.0, 1: 2.0}):
            built.clear()
            ldp.rate_envelope(chain, psi)
            assert built, (spec, psi)
            for (n, exponents, power, root), coeffs in built:
                matrix = sympy.eye(n) * z**power * root
                for s, d, e in exponents:
                    matrix[s, d] -= z**e
                expected = sympy.Poly(matrix.det(), z).all_coeffs()[::-1]
                while expected and expected[-1] == 0:
                    expected.pop()
                assert coeffs == [int(c) for c in expected], (spec, psi, exponents, power)


def test_random_markov_measure_runs_no_fraction_arithmetic():
    # The weights, the system and its solution are integers; each probability
    # and each stationary mass is one Fraction(num, den).  A Fraction solve
    # of the 52-state system made about 94,000 operations.
    system = MinusBetaSystem(parse_beta_spec(BIG))
    system.expansion_of_one()
    chain = decompose(automaton_for(system))
    component = max(chain.components, key=len)
    assert len(component) == 52
    ops = ("_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
           "__neg__", "__pos__", "__abs__", "__pow__", "__rpow__")
    wanted = {getattr(Fraction, name).__code__: name for name in ops}
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wanted:
            counts[wanted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        measure = random_markov_measure(chain.automaton.graph, component, random.Random(3))
    finally:
        sys.setprofile(None)
    assert not counts
    assert sum(p for _, p in measure.stationary) == 1
