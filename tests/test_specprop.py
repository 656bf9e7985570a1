"""Gluing certificates: bounds, oracle agreement, exhaustive gluing, coverage, support."""

import pytest

from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.shiftgraph import LabeledGraph, automaton_for, decompose
from negabeta.specprop import (
    DisconnectedPair,
    SoficPresentation,
    SpecCertificate,
    ergodic_support_check,
    gluing_test,
    omega_coverage_check,
    spec_bound,
    spec_bruteforce,
)
from negabeta.transform import MinusBetaSystem

from pisot_bases import BASES


@pytest.fixture(scope="module")
def ex31():
    graph = LabeledGraph(
        2, frozenset({(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1)})
    )
    return SoficPresentation(graph, ((0,), (1,)))


@pytest.fixture(scope="module")
def pisot_presentation():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 0, 1)), 1, 2))
    sys.expansion_of_one()
    return SoficPresentation.from_chain(decompose(automaton_for(sys)))


@pytest.fixture(scope="module")
def full_shift():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-2, 1)), 1, 3))
    sys.expansion_of_one()
    return SoficPresentation.from_chain(decompose(automaton_for(sys)))


def test_example31_strong_with_minimal_gap_one(ex31):
    cert = spec_bound(ex31, oracle_maxlen=6)
    assert cert.kind == "strong_one_way"
    assert cert.M == 1
    assert cert.exact_min_M == 1


def test_example31_bruteforce_table(ex31):
    table = spec_bruteforce(ex31, 6)
    assert dict(table.pair_max) == {(0, 0): 0, (0, 1): 1, (1, 1): 0}
    # "02" needs one symbol of glue; "012" realizes it
    assert table.overall_max == 1


def test_pisot_gets_weak_certificate(pisot_presentation):
    cert = spec_bound(pisot_presentation, oracle_maxlen=5)
    assert cert.kind == "w_one_way"
    assert cert.M >= 2
    assert cert.exact_min_M is not None
    assert cert.exact_min_M <= cert.M
    # one witness gap word per ordered pair, each no longer than M
    assert len(cert.witnesses) == 6
    assert all(len(w) <= cert.M for _, w in cert.witnesses)


def test_full_shift_strong_gap_zero(full_shift):
    cert = spec_bound(full_shift, oracle_maxlen=5)
    assert cert.kind == "strong_one_way"
    assert cert.M == 0
    assert cert.exact_min_M == 0


def test_bruteforce_never_exceeds_bound(ex31, pisot_presentation, full_shift):
    for pres in (ex31, pisot_presentation, full_shift):
        cert = spec_bound(pres)
        table = spec_bruteforce(pres, 5)
        assert table.overall_max <= cert.M


def test_bruteforce_maxlen_zero(ex31):
    table = spec_bruteforce(ex31, 0)
    assert all(gap == 0 for _, gap in table.pair_max)


def test_gap_within_component_bounded_by_diameter(pisot_presentation):
    table = spec_bruteforce(pisot_presentation, 4)
    pairs = dict(table.pair_max)
    # tail component diameter is 2; the same-component entries stay within it
    assert pairs[(0, 0)] == 0
    assert pairs[(1, 1)] == 0
    assert pairs[(2, 2)] <= 2


def test_disconnected_pair_reported():
    graph = LabeledGraph(2, frozenset({(0, 0, 0), (1, 1, 1)}))
    pres = SoficPresentation(graph, ((0,), (1,)))
    with pytest.raises(DisconnectedPair) as err:
        spec_bound(pres)
    assert err.value.pair == (0, 1)


def test_gluing_strong(ex31):
    cert = spec_bound(ex31)
    assert gluing_test(ex31, cert)


def test_gluing_weak(pisot_presentation):
    cert = spec_bound(pisot_presentation)
    assert gluing_test(pisot_presentation, cert)
    # with no gap allowed, some ordered pair of component words does not concatenate
    assert not gluing_test(pisot_presentation, SpecCertificate("w_one_way", 0, cert.witnesses))


def test_strong_certificate_gaps_are_exact(ex31):
    cert = spec_bound(ex31)
    # shrinking M below the certificate must break exactness for some tuple
    broken = SpecCertificate("strong_one_way", cert.M - 1, cert.witnesses)
    assert not gluing_test(ex31, broken)


def _presentation(coeffs, lo, hi):
    system = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    system.expansion_of_one()
    return SoficPresentation.from_chain(decompose(automaton_for(system)))


NON_PISOT = [
    ((-1, -1, 0, 0, 1), 1, 2),           # x^4 - x - 1
    ((-1, 0, -1, 0, 0, 1), 1, 2),        # x^5 - x^2 - 1
    ((-1, -1, 0, 0, 0, 0, 1), 1, 2),     # x^6 - x - 1
    ((-2, 0, 2, -1, -2, 1), 2, 3),       # x^5 - 2x^4 - x^3 + 2x^2 - 2, 52 states in its tail
]


@pytest.mark.parametrize("coeffs, lo, hi", BASES + NON_PISOT,
                         ids=[str(c) for c, _, _ in BASES + NON_PISOT])
def test_exact_checks_pass_on_every_base(coeffs, lo, hi):
    pres = _presentation(coeffs, lo, hi)
    assert gluing_test(pres, spec_bound(pres))
    assert ergodic_support_check(pres)


def test_omega_coverage(ex31, pisot_presentation):
    assert omega_coverage_check(ex31)
    assert omega_coverage_check(pisot_presentation)


def test_omega_coverage_ignores_transient_vertices():
    # vertex 1 sits on no cycle; leaving it out of every component is fine
    graph = LabeledGraph(3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 1, 2)}))
    pres = SoficPresentation(graph, ((0,), (2,)))
    assert omega_coverage_check(pres)


def test_omega_coverage_monotone(pisot_presentation):
    graph = pisot_presentation.graph
    partial = SoficPresentation(graph, pisot_presentation.components[:2] )
    full = pisot_presentation
    # adding a component never flips a passing check to failing
    if omega_coverage_check(partial):
        assert omega_coverage_check(full)


def test_ergodic_support_confinement(pisot_presentation, ex31):
    assert ergodic_support_check(pisot_presentation)
    assert ergodic_support_check(ex31)


def test_ergodic_support_fails_on_a_split_or_missing_component(pisot_presentation):
    # 0 <-> 1 is one strong component; {0} with its loop is strongly connected, but a
    # measure on the cycle 0 -> 1 -> 0 lives on no listed piece
    graph = LabeledGraph(3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 2), (2, 0, 2)}))
    assert ergodic_support_check(SoficPresentation(graph, ((0, 1), (2,))))
    assert not ergodic_support_check(SoficPresentation(graph, ((0,), (2,))))
    # the tail component left out
    graph, components = pisot_presentation.graph, pisot_presentation.components
    assert not ergodic_support_check(SoficPresentation(graph, components[:-1]))
