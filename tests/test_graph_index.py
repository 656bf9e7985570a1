"""The indexed set operations of LabeledGraph against a brute-force edge scan.

The graph takes and returns state sets as int masks (bit v set iff vertex v
is in the set); the scan works on frozensets, and each assertion converts at
the boundary with `mask` and `members`, so the scan shares no code with the
index.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta.shiftgraph import LabeledGraph

from word_reference import back_reads, reads

MAX_VERTICES = 6
MAX_LABEL = 3


@st.composite
def graphs(draw):
    n = draw(st.integers(1, MAX_VERTICES))
    vertex = st.integers(0, n - 1)
    edges = draw(st.frozensets(st.tuples(vertex, st.integers(0, MAX_LABEL), vertex), max_size=18))
    return LabeledGraph(n, edges)


@st.composite
def graph_and_states(draw):
    g = draw(graphs())
    states = draw(st.frozensets(st.integers(0, g.vertex_count - 1)))
    return g, states


labels = st.integers(0, MAX_LABEL)


def mask(states):
    return sum(1 << v for v in frozenset(states))


def members(m):
    assert m >= 0
    return frozenset(v for v in range(m.bit_length()) if m >> v & 1)


words = st.lists(labels, max_size=6)


def scan_step(g, states, label):
    return frozenset(t for s, a, t in g.edges if s in states and a == label)


def scan_back_step(g, states, label):
    return frozenset(s for s, a, t in g.edges if t in states and a == label)


def scan_reads(g, word, step):
    states = frozenset(range(g.vertex_count))
    for a in word:
        states = step(g, states, a)
    return states


@settings(max_examples=200, deadline=None)
@given(graph_and_states(), labels)
def test_step_and_back_step_match_scan(gs, label):
    g, states = gs
    assert members(g.step(mask(states), label)) == scan_step(g, states, label)
    assert members(g.back_step(mask(states), label)) == scan_back_step(g, states, label)


@settings(max_examples=200, deadline=None)
@given(graph_and_states())
def test_forward_matches_scan(gs):
    g, states = gs
    assert members(g.forward(mask(states))) == frozenset(t for s, _, t in g.edges if s in states)


@settings(max_examples=200, deadline=None)
@given(graph_and_states())
def test_backward_matches_scan(gs):
    g, states = gs
    assert members(g.backward(mask(states))) == frozenset(s for s, _, t in g.edges if t in states)


@settings(max_examples=200, deadline=None)
@given(graph_and_states())
def test_followers_match_scan(gs):
    g, states = gs
    labels = sorted({a for _, a, _ in g.edges})
    expected = tuple((a, t) for a in labels if (t := scan_step(g, states, a)))
    assert tuple((a, members(t)) for a, t in g.followers(mask(states))) == expected
    assert tuple((a, members(t)) for a, t in g.followers(mask(states))) == expected  # the memo


@settings(max_examples=200, deadline=None)
@given(graphs(), words)
def test_reads_match_scan(g, word):
    assert members(reads(g, word)) == scan_reads(g, word, scan_step)
    assert members(back_reads(g, word)) == scan_reads(g, word[::-1], scan_back_step)


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_edge_lists_match_scan(g):
    for v in range(g.vertex_count):
        assert g.out_edges(v) == sorted(e for e in g.edges if e[0] == v)
        assert members(g.successors(v)) == {t for s, _, t in g.edges if s == v}
