"""The one-pass component chain against the construction it replaced.

`reference_chain` is the inductive construction `decompose` used to run: N is
the least k with V_k..V_last irreducible, each earlier piece is grown to the
largest irreducible range from its first vertex, and the next piece starts at
the first later vertex with in-degree at least 2.  The strong-component pass
must give the same components, pairs and N on every tested automaton, and
refuse an automaton whose strong components are not vertex ranges.
"""

import pytest

from negabeta import shiftgraph
from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.shiftgraph import (
    FoldedAutomaton, LabeledGraph, ShiftGraphError, automaton_for, cycle_vertices, decompose,
    is_irreducible,
)
from negabeta.transform import MinusBetaSystem

from pisot_bases import BASES

# Yrrap but not Pisot: (polynomial, lo, hi), lowest coefficient first
NON_PISOT = [
    ((-1, -1, 0, 0, 1), 1, 2),  # x^4 - x - 1
    ((1, -1, -1, -1, 1), 1, 2),  # x^4 - x^3 - x^2 - x + 1, Salem
    ((-1, 0, -1, 0, 0, 1), 1, 2),  # x^5 - x^2 - 1
    ((-2, 0, 2, -1, -2, 1), 2, 3),  # x^5 - 2x^4 - x^3 + 2x^2 - 2, 52 states
    ((-1, -1, 0, 0, 0, 0, 1), 1, 2),  # x^6 - x - 1
    ((-1, 0, 0, 0, 0, -1, 1), 1, 2),  # x^6 - x^5 - 1
    ((1, 0, -2, -1, -2, 1), 2, 3),  # x^5 - 2x^4 - x^3 - 2x^2 + 1
]
ALL_BASES = BASES + NON_PISOT


def reference_chain(aut):
    """(components, pairs, N) by the growing-range construction."""
    g = aut.graph
    total = g.vertex_count
    N = next(k for k in range(total) if is_irreducible(g, range(k, total)))
    components, pairs = [], []
    l = 0
    while l != N:
        n_i = max(k for k in range(l, N) if is_irreducible(g, range(l, k + 1)))
        components.append(tuple(range(l, n_i + 1)))
        pairs.append((l, n_i))
        l = next(k for k in range(n_i + 1, N + 1)
                 if sum(1 for e in g.edges if e[2] == k) >= 2)
    components.append(tuple(range(N, total)))
    pairs.append((N, None))
    return tuple(components), tuple(pairs), N


@pytest.fixture(scope="module", params=ALL_BASES, ids=lambda base: ",".join(map(str, base[0])))
def automaton(request):
    coeffs, lo, hi = request.param
    return automaton_for(MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi)))


def test_chain_matches_reference(automaton):
    chain = decompose(automaton)
    assert (chain.components, chain.pairs, chain.N) == reference_chain(automaton)
    assert set().union(*chain.components) == cycle_vertices(automaton.graph)


def test_decompose_runs_no_subset_test(automaton, monkeypatch):
    expected = decompose(automaton)

    def refuse(g, vertices):
        raise AssertionError("is_irreducible called")

    monkeypatch.setattr(shiftgraph, "is_irreducible", refuse)
    assert decompose(automaton) == expected


def test_component_not_a_range_is_refused():
    # {V0, V2} is a strong component with V1 between them on a loop of its own
    g = LabeledGraph(3, frozenset({(0, 0, 2), (2, 0, 0), (1, 0, 1)}))
    with pytest.raises(ShiftGraphError, match="not a vertex range"):
        decompose(FoldedAutomaton(g, 0, 3))


def test_last_vertex_off_every_cycle_is_refused():
    g = LabeledGraph(2, frozenset({(0, 0, 0), (0, 1, 1)}))
    with pytest.raises(ShiftGraphError, match="last vertex"):
        decompose(FoldedAutomaton(g, 0, 2))
