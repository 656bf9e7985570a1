"""The KMP border table and the integer orbit of 1 against the code they replaced.

`reference_build_gamma` is the builder that walked every border of every
spine prefix through `border_step` (tests/word_reference.py), once per vertex and digit.
`reference_expansion` steps the orbit of 1 as `FieldElement`s, one generic
product per step.  The table (`shiftgraph._gamma_rows`, made a graph by
`word_reference.build_gamma`) must give the same edges and the same errors,
and the integer orbit the same digits, the same errors and the same
isolating interval afterwards, because it reads the same floors.
"""

import sys
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import transform
from negabeta.algebraic import FieldElement, parse_beta_spec
from negabeta.shiftgraph import (
    HorizonTooSmall,
    LabeledGraph,
    ShiftGraphError,
    automaton_for,
    fold,
)
from negabeta.transform import (
    DigitSequence,
    MinusBetaSystem,
    NotEventuallyPeriodic,
    OutOfDomain,
    Side,
    _floor_exact,
)

from map_reference import HitBoundary, nth_digit
from pisot_bases import BASES
from test_cylinder_walk import NON_PISOT
from word_reference import border_step, build_gamma

CUBIC = "poly:-1,-1,0,1;interval:1,2"
BIG = "poly:-2,0,2,-1,-2,1;interval:2,3"  # 52 states


def _spec(coeffs, lo, hi):
    return "poly:" + ",".join(map(str, coeffs)) + f";interval:{lo},{hi}"


SPECS = [_spec(*base) for base in BASES + NON_PISOT] + [BIG]


# -- the references ------------------------------------------------------------------------------


def reference_build_gamma(s, horizon):
    """Every border of every spine prefix walked again for each digit."""
    u, v = s.u, s.v
    if horizon < u + 2 * v:
        raise HorizonTooSmall(f"horizon {horizon} < {u + 2 * v}")
    spine = s.prefix(horizon + 1)
    edges = set()
    borders = ()
    for i in range(horizon):
        for a in range(s.alphabet_bound + 1):
            new = border_step(spine, borders, a)
            if new is None:
                continue
            j = new[0] if new else 0  # the longest border, or none
            if u + v < j <= i:
                raise ShiftGraphError(f"back edge from V{i} lands at V{j} beyond u+v={u + v}")
            edges.add((i, a, j))
        borders = border_step(spine, borders, spine[i])
    return LabeledGraph(horizon + 1, frozenset(edges))


def reference_expansion(system, max_steps):
    """The orbit of 1 from below as field elements, each step one product beta * x."""
    value, side = system.beta.one(), Side.BELOW
    seen, digits = {}, []
    for step in range(max_steps):
        key = (value, side)
        if key in seen:
            first = seen[key]
            return DigitSequence.from_parts(digits[:first], digits[first:], system.b)
        seen[key] = step
        t = system.beta_element * value
        k, is_int = _floor_exact(t)
        if is_int:
            if side is Side.BELOW:
                if k == 0:
                    raise OutOfDomain("no points below 0")
                digit = k - 1
            elif side is Side.ABOVE:
                if k >= system.b + 1:
                    raise OutOfDomain("no points above 1")
                digit = k
            else:
                raise HitBoundary(0)
        else:
            digit = k
        value = (digit + 1) - t
        side = Side.ABOVE if side is Side.BELOW else Side.BELOW
        digits.append(digit)
    raise NotEventuallyPeriodic(f"no cycle within {max_steps} steps")


def outcome(fn, *args):
    try:
        got = fn(*args)
    except (ShiftGraphError, NotEventuallyPeriodic) as exc:
        return "error", type(exc).__name__, str(exc)
    return "value", got.edges if isinstance(got, LabeledGraph) else got


@dataclass(frozen=True)
class Understated:
    """A digit sequence that claims a shorter preperiod and period than it has."""

    seq: DigitSequence
    u: int
    v: int

    @property
    def alphabet_bound(self):
        return self.seq.alphabet_bound

    def prefix(self, n):
        return self.seq.prefix(n)


@pytest.fixture(scope="module")
def systems():
    assert len(SPECS) == 72
    out = []
    for spec in SPECS:
        system = MinusBetaSystem(parse_beta_spec(spec))
        system.expansion_of_one()
        out.append(system)
    return out


# -- the table --------------------------------------------------------------------------------


def test_table_matches_the_border_walk(systems):
    sizes = set()
    for system in systems:
        s = system.expansion_of_one()
        base = s.u + 6 * s.v + 4
        for horizon in (s.u + 2 * s.v, base, 2 * base):
            got = outcome(build_gamma, s, horizon)
            assert got == outcome(reference_build_gamma, s, horizon), (s, horizon)
            assert got[0] == "value"
        aut = automaton_for(system)
        assert aut == fold(build_gamma(s, base), s.u, s.v)
        sizes.add(aut.graph.vertex_count)
    assert 52 in sizes


def test_table_raises_as_the_border_walk(systems):
    s = systems[SPECS.index(CUBIC)].expansion_of_one()  # 100(1): V4 and V6 have back edges to V2
    short = outcome(build_gamma, s, s.u + 2 * s.v - 1)
    assert short == outcome(reference_build_gamma, s, s.u + 2 * s.v - 1)
    assert short == ("error", "HorizonTooSmall", "horizon 4 < 5")
    understated = Understated(s, 0, 1)
    far = outcome(build_gamma, understated, 12)
    assert far == outcome(reference_build_gamma, understated, 12)
    assert far == ("error", "ShiftGraphError", "back edge from V4 lands at V2 beyond u+v=1")


@st.composite
def sequences(draw):
    b = draw(st.integers(1, 3))
    digits = st.lists(st.integers(0, b), max_size=5)
    period = draw(digits.filter(bool))
    return DigitSequence.from_parts(draw(digits), period, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sequences(), st.integers(0, 12))
def test_table_matches_the_border_walk_on_any_sequence(s, extra):
    """Equal wherever the border walk reads the whole spine.  Where a spine digit is
    refused, the walk drops that spine edge and then fails on its missing borders;
    the table names the digit."""
    horizon = s.u + 2 * s.v + extra
    got = outcome(build_gamma, s, horizon)
    try:
        expected = outcome(reference_build_gamma, s, horizon)
    except TypeError:
        expected = None
    spine = {(i, nth_digit(s, i), i + 1) for i in range(horizon)}
    if expected is not None and (expected[0] == "error" or spine <= expected[1]):
        assert got == expected
    else:
        assert got[:2] == ("error", "ShiftGraphError") and "is refused at V" in got[2]


# -- the orbit of 1 ----------------------------------------------------------------------------


def test_integer_orbit_matches_the_field_orbit():
    for spec in SPECS + ["decimal:2", "decimal:3"]:
        for budget in (1, 2, 3, 5, transform.EXPANSION_STEPS):
            fresh = [MinusBetaSystem(parse_beta_spec(spec)) for _ in range(2)]
            got = outcome(fresh[0].expansion_of_one, budget)
            assert got == outcome(reference_expansion, fresh[1], budget), (spec, budget)
            assert fresh[0].beta._box == fresh[1].beta._box, (spec, budget)
    two = MinusBetaSystem(parse_beta_spec("decimal:2")).expansion_of_one()
    three = MinusBetaSystem(parse_beta_spec("decimal:3")).expansion_of_one()
    assert (str(two), str(three)) == ("(10)", "(20)")


# -- what the build no longer does --------------------------------------------------------------


def calls(functions, thunk):
    """Run thunk and count the Python-level calls of each of the functions."""
    wanted = {fn.__code__: fn.__qualname__ for fn in functions}
    counts = Counter({name: 0 for name in wanted.values()})

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in wanted:
            counts[wanted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return counts


def test_automaton_walks_no_border_and_builds_one_graph():
    for spec in (CUBIC, "decimal:2", BIG):
        system = MinusBetaSystem(parse_beta_spec(spec))
        system.expansion_of_one()
        counts = calls([border_step, LabeledGraph.__init__], lambda: automaton_for(system))
        assert counts == {"border_step": 0, "LabeledGraph.__init__": 1}, spec


def test_expansion_of_one_multiplies_no_field_element():
    for spec in (CUBIC, "decimal:2", BIG):
        system = MinusBetaSystem(parse_beta_spec(spec))
        counts = calls([FieldElement.__mul__], system.expansion_of_one)
        assert counts == {"FieldElement.__mul__": 0}, spec
