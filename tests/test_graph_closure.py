"""The graph layer's reachability answers against a Floyd-Warshall closure.

`is_irreducible`, `cycle_vertices`, `_cyclic_components`, `_component_diameter`,
`_shortest_cross_word` and `_some_cycle` walk the graph index level by level.
The reference here is the closure of the edge relation: the length of a
shortest path of one or more edges between every pair of vertices, built by
the Warshall triple loop.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.shiftgraph import LabeledGraph, _cyclic_components, cycle_vertices, is_irreducible
from negabeta.specprop import _component_diameter, _shortest_cross_word, _some_cycle

MAX_VERTICES = 8
MAX_LABEL = 2


@st.composite
def graphs(draw):
    n = draw(st.integers(1, MAX_VERTICES))
    vertex = st.integers(0, n - 1)
    edges = draw(st.frozensets(st.tuples(vertex, st.integers(0, MAX_LABEL), vertex), max_size=24))
    return LabeledGraph(n, edges)


@st.composite
def graph_and_subset(draw):
    """A graph and a nonempty vertex subset, in a drawn order; often a single vertex."""
    g = draw(graphs())
    vertex = st.integers(0, g.vertex_count - 1)
    subset = draw(st.one_of(st.lists(vertex, min_size=1, max_size=1),
                            st.lists(vertex, min_size=1, unique=True)))
    return g, subset


def closure(g, within=None):
    """dist[s][t]: edges on a shortest path of one or more edges from s to t inside
    ``within`` (every vertex by default), math.inf when there is none."""
    n = g.vertex_count
    keep = set(range(n)) if within is None else set(within)
    dist = [[math.inf] * n for _ in range(n)]
    for s, _, t in g.edges:
        if s in keep and t in keep:
            dist[s][t] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


@settings(max_examples=300, deadline=None)
@given(graph_and_subset())
def test_is_irreducible_matches_closure(gs):
    g, subset = gs
    dist = closure(g, subset)
    # a single vertex needs its self-loop, and more vertices all reach each other
    assert is_irreducible(g, subset) == all(dist[s][t] < math.inf for s in subset for t in subset)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_cycle_vertices_match_closure(g):
    dist = closure(g)
    assert cycle_vertices(g) == {v for v in range(g.vertex_count) if dist[v][v] < math.inf}


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_cyclic_components_match_closure(g):
    dist = closure(g)
    on_cycle = [v for v in range(g.vertex_count) if dist[v][v] < math.inf]
    # the classes of "reach each other" among the cycle vertices, by smallest vertex
    expected = sorted({tuple(w for w in on_cycle if dist[v][w] < math.inf and dist[w][v] < math.inf)
                       for v in on_cycle})
    assert _cyclic_components(g) == expected


@settings(max_examples=300, deadline=None)
@given(graph_and_subset())
def test_component_diameter_matches_closure(gs):
    g, comp = gs
    dist = closure(g, comp)
    pairs = [dist[s][t] for s in comp for t in comp if s != t]
    try:
        got = _component_diameter(g, comp)
    except ValueError:
        got = None
    assert got == (max(pairs, default=0) if math.inf not in pairs else None)


@settings(max_examples=300, deadline=None)
@given(graph_and_subset(), st.data())
def test_shortest_cross_word_matches_closure(gs, data):
    g, src = gs
    dst = data.draw(st.lists(st.integers(0, g.vertex_count - 1), min_size=1, unique=True))
    dist = closure(g)
    expected = 0 if set(src) & set(dst) else min(dist[s][t] for s in src for t in dst)
    word = _shortest_cross_word(g, src, dst)
    if expected == math.inf:
        assert word is None
        return
    assert len(word) == expected
    states = sum(1 << v for v in set(src))  # the mask of src
    for a in word:
        states = g.step(states, a)
    assert any(states >> v & 1 for v in dst)


@settings(max_examples=300, deadline=None)
@given(graph_and_subset(), st.integers(0, 2**32))
def test_some_cycle_is_a_shortest_cycle_in_the_component(gs, seed):
    g, comp = gs
    start = random.Random(seed).choice(comp)  # _some_cycle draws its start the same way
    shortest = closure(g, comp)[start][start]
    cycle = _some_cycle(g, comp, random.Random(seed))
    if shortest == math.inf:
        assert cycle is None
        return
    verts, edges = cycle
    assert len(edges) == shortest and verts[0] == start
    assert all(e in g.edges and e[0] in comp and e[2] in comp for e in edges)
    assert verts == [e[0] for e in edges]
    assert [e[2] for e in edges] == verts[1:] + [start]
