"""The presentation layer's shared state-set facts against the per-pair code they replaced.

`spec_bruteforce` and `bruteforce_exact_min` walk each end set's gap
frontiers once for every start set, `_word_classes` takes the state sets of
a component's words from one search over state-set pairs, `spec_bound`'s
strong gap is the same gap intersection as `bruteforce_exact_min`,
`g_beta_values` sweeps the lengths once, `fold` reads each vertex's spine
digit and back edges once, from its row of out-edges, and `gluing_test`
glues each class of words with one relation once.  The references below are
the plain versions: every component word listed and read with
`reads`/`back_reads` from scratch, one frontier walk per (end set, start
set) pair, the strong gap from per-vertex reachability powers, one subset
frontier per length, both signatures recomputed from the graph's edge lists
per candidate fold, and each listed word glued and read on its own.  Results and errors must be equal, not close.

The code under test holds state sets as int masks; the references hold them
as frozensets and step them with `Plain`, an index of the graph's edges of
their own, so a mask is converted only where the two meet (`mask`, `members`).
"""

from functools import cache
from types import SimpleNamespace
from typing import Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negabeta import specprop
from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.intervalmaps import example31_system
from negabeta.measures import (
    InadmissibleWord,
    NoBranchReachable,
    _g_from_followers,
    g_beta_n,
    g_beta_values,
)
from negabeta.shiftgraph import (
    FoldedAutomaton,
    FoldNotVerified,
    LabeledGraph,
    automaton_for,
    decompose,
    fold,
)
from negabeta.specprop import (
    DisconnectedPair,
    SoficPresentation,
    SpecCertificate,
    _component_diameter,
    _default_gap_cap,
    _end_start_sets,
    _loops_everywhere,
    _shortest_cross_word,
    bruteforce_exact_min,
    spec_bound,
    spec_bruteforce,
)
from negabeta.transform import MinusBetaSystem

from pisot_bases import BASES
from word_reference import build_gamma

# -- the per-pair references ------------------------------------------------------------------


def mask(states):
    return sum(1 << v for v in frozenset(states))


def members(m):
    return frozenset(v for v in range(m.bit_length()) if m >> v & 1)


class Plain:
    """Frozenset steps over a graph's edges, indexed per (vertex, label) and per vertex."""

    def __init__(self, graph):
        self.vertex_count = graph.vertex_count
        self.labels = sorted({a for _, a, _ in graph.edges})
        self.targets, self.sources, self.succ = {}, {}, {}
        for s, a, t in graph.edges:
            self.targets.setdefault((s, a), set()).add(t)
            self.sources.setdefault((t, a), set()).add(s)
            self.succ.setdefault(s, set()).add(t)

    def step(self, states, a):
        return frozenset(t for s in states for t in self.targets.get((s, a), ()))

    def back_step(self, states, a):
        return frozenset(s for t in states for s in self.sources.get((t, a), ()))

    def forward(self, states):
        return frozenset(t for s in states for t in self.succ.get(s, ()))

    def reads(self, word):
        states = frozenset(range(self.vertex_count))
        for a in word:
            states = self.step(states, a)
        return states

    def back_reads(self, word):
        states = frozenset(range(self.vertex_count))
        for a in reversed(word):
            states = self.back_step(states, a)
        return states


@cache
def plain_index(graph):
    return Plain(graph)


def component_words(p, i, maxlen):
    """Every word of length at most maxlen that labels a path inside component i."""
    plain = plain_index(p.graph)
    comp = frozenset(p.components[i])
    labels = plain.labels
    words = [()]
    frontier = [((), comp)]
    while frontier:
        word, states = frontier.pop()
        if len(word) >= maxlen:
            continue
        for a in labels:
            t = plain.step(states, a) & comp
            if t:
                words.append(word + (a,))
                frontier.append((word + (a,), t))
    return words


def reference_state_classes(p, i, maxlen):
    plain = plain_index(p.graph)
    words = component_words(p, i, maxlen)
    return {plain.reads(w) for w in words}, {plain.back_reads(w) for w in words}


def reference_gluable_gaps(p, ends, starts, gap_cap):
    plain = plain_index(p.graph)
    gaps, current = set(), ends
    for g in range(gap_cap + 1):
        if not current:
            break
        if current & starts:
            gaps.add(g)
        current = plain.forward(current)
    return gaps


def reference_spec_bruteforce(p, maxlen, gap_cap=None):
    q = len(p.components)
    if gap_cap is None:
        gap_cap = _default_gap_cap(p)
    classes = [reference_state_classes(p, i, maxlen) for i in range(q)]
    pair_max = []
    overall = 0
    for i in range(q):
        for j in range(i, q):
            worst = 0
            for ends in classes[i][0]:
                for starts in classes[j][1]:
                    gaps = reference_gluable_gaps(p, ends, starts, gap_cap)
                    if not gaps:
                        raise DisconnectedPair(i, j)
                    worst = max(worst, min(gaps))
            pair_max.append(((i, j), worst))
            overall = max(overall, worst)
    return tuple(pair_max), overall, maxlen


def reference_exact_min(p, maxlen, gap_cap=None) -> Optional[int]:
    q = len(p.components)
    if gap_cap is None:
        gap_cap = _default_gap_cap(p)
    classes = [reference_state_classes(p, i, maxlen) for i in range(q)]
    achievable = None
    for i in range(q):
        for j in range(i, q):
            for ends in classes[i][0]:
                for starts in classes[j][1]:
                    gaps = reference_gluable_gaps(p, ends, starts, gap_cap)
                    achievable = gaps if achievable is None else achievable & gaps
                    if not achievable:
                        return None
    return min(achievable) if achievable else None


def subset_family(graph, comp, step):
    """State sets reached inside the component by single-label steps from all of it."""
    cset = frozenset(comp)
    family = {cset}
    frontier = [cset]
    while frontier:
        nxt = []
        for states in frontier:
            for a in plain_index(graph).labels:
                t = step(states, a) & cset
                if t and t not in family:
                    family.add(t)
                    nxt.append(t)
        frontier = nxt
    return family


def bool_power_reach(graph, max_power):
    """reach[m][p] = set of vertices reachable from p along exactly m edges."""
    plain = plain_index(graph)
    reach = [{v: frozenset((v,)) for v in range(graph.vertex_count)}]
    for _ in range(max_power):
        prev = reach[-1]
        reach.append({v: plain.forward(prev[v]) for v in range(graph.vertex_count)})
    return reach


def exact_gap_everywhere(p, forward, backward, reach_m):
    q = len(p.components)
    for i in range(q):
        for j in range(i, q):
            for ends in forward[i]:
                for starts in backward[j]:
                    if not any(reach_m[e].intersection(starts) for e in ends):
                        return False
    return True


def reference_spec_bound(p, oracle_maxlen=None):
    q = len(p.components)
    diams = [_component_diameter(p.graph, comp) for comp in p.components]
    witnesses = []
    for i in range(q):
        for j in range(i, q):
            word = _shortest_cross_word(p.graph, p.components[i], p.components[j])
            if word is None:
                raise DisconnectedPair(i, j)
            witnesses.append(((i, j), word))
    m_bound = max(diams) + max(len(word) for _, word in witnesses) + max(diams)
    if _loops_everywhere(p):
        plain = plain_index(p.graph)
        forward = [subset_family(p.graph, comp, plain.step) for comp in p.components]
        backward = [subset_family(p.graph, comp, plain.back_step) for comp in p.components]
        reach = bool_power_reach(p.graph, m_bound)
        strong_m = next((m for m in range(m_bound + 1)
                         if exact_gap_everywhere(p, forward, backward, reach[m])), None)
        if strong_m is not None:
            exact = None if oracle_maxlen is None else reference_exact_min(p, oracle_maxlen)
            return SpecCertificate("strong_one_way", strong_m, tuple(witnesses), exact)
    exact = None if oracle_maxlen is None else reference_spec_bruteforce(p, oracle_maxlen)[1]
    return SpecCertificate("w_one_way", m_bound, tuple(witnesses), exact)


def reference_gluing(p, cert):
    """`gluing_test` on listed words: each word of 1..4 symbols inside a component
    glued and read on its own, over the (states reached, last component) pairs."""
    plain = plain_index(p.graph)
    words = [component_words(p, i, 4)[1:] for i in range(len(p.components))]
    gaps = [cert.M] if cert.kind == "strong_one_way" else range(cert.M + 1)
    seen = {(plain.reads(w), i) for i, listed in enumerate(words) for w in listed}
    todo = list(seen)
    while todo:
        states, i = todo.pop()
        fronts = [states]
        for _ in range(cert.M):
            fronts.append(plain.forward(fronts[-1]))
        for j in range(i, len(words)):
            for w in words[j]:
                starts = plain.back_reads(w)
                glued = next((fronts[g] & starts for g in gaps if fronts[g] & starts), None)
                if glued is None:
                    return False
                for a in w:
                    glued = plain.step(glued, a)
                if (glued, j) not in seen:
                    seen.add((glued, j))
                    todo.append((glued, j))
    return True


def reference_g_beta_n(system, n):
    aut = automaton_for(system)
    plain = plain_index(aut.graph)
    frontier = {frozenset(range(aut.graph.vertex_count))}
    for _ in range(n):
        frontier = {plain.step(states, a) for states in frontier for a in plain.labels}
        frontier.discard(frozenset())
    if not frontier:
        raise InadmissibleWord(f"no admissible words of length {n}")
    return max(_g_from_followers(aut.graph, mask(states)) for states in frontier)


def _spine_digit(g, i):
    lbls = [a for _, a, t in g.out_edges(i) if t == i + 1]
    if len(lbls) == 1:
        return lbls[0]
    raise FoldNotVerified(f"ambiguous spine at V{i}")


def _back_edges(g, i, spine_label):
    return frozenset((a, t) for _, a, t in g.out_edges(i) if not (a == spine_label and t == i + 1))


def reference_build_folded(g, start, period, u, v):
    """The graph's edges from V0..V_(start+period-1), targets folded onto that range."""
    total = start + period
    edges = set()
    for s_, a, t in sorted(g.edges):
        if s_ < total:
            target = t if t < total else start + (t - start) % period
            if t != s_ + 1 and target > u + v:
                raise FoldNotVerified(f"folded back edge V{s_}->V{target} beyond u+v={u + v}")
            edges.add((s_, a, target))
    return FoldedAutomaton(LabeledGraph(total, frozenset(edges)), start, period)


def reference_fold(g, u, v):
    horizon = g.vertex_count - 1
    periods = sorted(d for d in range(1, 2 * v + 1) if (2 * v) % d == 0)
    last_error = None
    for p in periods:
        max_start = horizon - (2 * v + p)
        for start in range(u, max(u, max_start) + 1):
            if start + 2 * v + p > horizon:
                break
            ok = True
            for i in range(start, start + 2 * v):
                if _spine_digit(g, i) != _spine_digit(g, i + p):
                    ok = False
                    break
                if _back_edges(g, i, _spine_digit(g, i)) != _back_edges(g, i + p, _spine_digit(g, i + p)):
                    ok = False
                    break
            if ok:
                return reference_build_folded(g, start, p, u, v)
        last_error = f"period {p} not verified within horizon {horizon}"
    if horizon < u + 6 * v:
        raise FoldNotVerified(f"horizon {horizon} too small to verify folding")
    raise FoldNotVerified(last_error or "fold failed")


def outcome(fn, *args, **kwargs):
    """The value, or the error's class, message and payload, so errors compare with ==."""
    try:
        return "value", fn(*args, **kwargs)
    except (DisconnectedPair, InadmissibleWord, NoBranchReachable, FoldNotVerified) as exc:
        return "error", type(exc).__name__, str(exc), getattr(exc, "pair", None)


def table_outcome(p, maxlen):
    got = outcome(spec_bruteforce, p, maxlen)
    if got[0] == "value":
        table = got[1]
        return "value", (table.pair_max, table.overall_max, table.maxlen)
    return got


def assert_oracles_agree(p, maxlens, gap_cap=None):
    """With ``gap_cap``, the oracles' cap is pinned to it in place of `_default_gap_cap`,
    so that a small cap drives them into their capped paths."""
    cap = _default_gap_cap if gap_cap is None else (lambda _: gap_cap)
    with mock.patch.object(specprop, "_default_gap_cap", cap):
        for maxlen in maxlens:
            assert table_outcome(p, maxlen) == outcome(reference_spec_bruteforce, p, maxlen,
                                                       gap_cap=gap_cap)
            assert (outcome(bruteforce_exact_min, p, maxlen)
                    == outcome(reference_exact_min, p, maxlen, gap_cap=gap_cap))
            assert as_frozensets(_end_start_sets(p, maxlen, inside=False)) == [
                reference_state_classes(p, i, maxlen) for i in range(len(p.components))]


def as_frozensets(classes):
    """`_end_start_sets` with each state mask read as a frozenset of vertices."""
    return [tuple({members(m) for m in masks} for masks in pair) for pair in classes]


def assert_certificates_agree(p, maxlens):
    plain = plain_index(p.graph)
    assert as_frozensets(_end_start_sets(p, None, inside=True)) == [
        (subset_family(p.graph, comp, plain.step), subset_family(p.graph, comp, plain.back_step))
        for comp in p.components
    ]
    assert outcome(spec_bound, p) == outcome(reference_spec_bound, p)
    for maxlen in maxlens:
        assert (outcome(spec_bound, p, oracle_maxlen=maxlen)
                == outcome(reference_spec_bound, p, oracle_maxlen=maxlen))


# -- the 68 bases ------------------------------------------------------------------------------


def _system(coeffs, lo, hi):
    system = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    system.expansion_of_one()
    return system


@pytest.fixture(scope="module")
def systems():
    assert len(BASES) == 68
    return [_system(*base) for base in BASES]


def test_oracles_agree_on_every_base(systems):
    for system in systems:
        p = SoficPresentation.from_chain(decompose(automaton_for(system)))
        assert_oracles_agree(p, range(6))


def test_certificates_agree_on_every_base(systems):
    for system in systems:
        p = SoficPresentation.from_chain(decompose(automaton_for(system)))
        assert_certificates_agree(p, range(5))


def test_g_beta_sweep_agrees_on_every_base(systems):
    for system in systems:
        expected = [reference_g_beta_n(system, k) for k in range(1, 21)]
        assert g_beta_values(system, 20) == expected
        assert [g_beta_n(system, k) for k in range(1, 21)] == expected


def test_fold_agrees_on_every_base(systems):
    for system in systems:
        s = system.expansion_of_one()
        base = s.u + 6 * s.v + 4
        for horizon in (s.u + 2 * s.v, base - 1, base, 2 * base):
            g = build_gamma(s, horizon)
            assert outcome(fold, g, s.u, s.v) == outcome(reference_fold, g, s.u, s.v)


def test_fold_agrees_with_an_ambiguous_spine_anywhere(systems):
    """A doubled spine edge before, inside and after the first verified window.

    The one-scan fold reads signatures in the reference's order, so it raises
    at the same vertex, or folds the same way when the vertex is never read.
    """
    places = set()
    for system in systems[::7]:
        s = system.expansion_of_one()
        g = build_gamma(s, s.u + 6 * s.v + 4)
        aut = fold(g, s.u, s.v)
        window = range(aut.fold_start, aut.fold_start + 2 * s.v + aut.fold_period + 1)
        for i in range(g.vertex_count - 1):
            spine = next(a for _, a, t in g.out_edges(i) if t == i + 1)
            doubled = LabeledGraph(g.vertex_count, g.edges | {(i, spine + 1, i + 1)})
            got = outcome(fold, doubled, s.u, s.v)
            assert got == outcome(reference_fold, doubled, s.u, s.v), (s, i)
            side = "before" if i < window.start else "inside" if i in window else "after"
            places.add((side, got[0]))
    assert {("before", "error"), ("inside", "error"), ("after", "value")} <= places


def test_example31_takes_the_strong_path():
    _, p = example31_system()
    assert spec_bound(p).kind == "strong_one_way"
    assert_oracles_agree(p, range(8))
    assert_certificates_agree(p, range(8))
    assert bruteforce_exact_min(p, 6) == reference_exact_min(p, 6) == 1


# -- the errors --------------------------------------------------------------------------------


def test_disconnected_pair_names_the_same_pair():
    # the word 0 of component 0 ends in {0, 1}, and no path leads from there to the word 2
    graph = LabeledGraph(3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (2, 2, 2)}))
    p = SoficPresentation(graph, ((0,), (1,), (2,)))
    got = table_outcome(p, 3)
    assert got == outcome(reference_spec_bruteforce, p, 3)
    assert got[0] == "error" and got[3] == (0, 2)
    assert (outcome(bruteforce_exact_min, p, 3) == outcome(reference_exact_min, p, 3)
            == ("value", None))


def test_a_start_set_met_at_the_cap_still_glues():
    # the word 0 ends in {0} alone and the word 2 starts in {k} alone, k edges on:
    # the frontier walk must reach the cap to glue them, and one gap less disconnects them
    k = 4
    edges = {(0, 0, 0), (k, 2, k)} | {(i, 1, i + 1) for i in range(k)}
    p = SoficPresentation(LabeledGraph(k + 1, frozenset(edges)), ((0,), (k,)))
    for cap in (k, k - 1):
        assert_oracles_agree(p, range(4), gap_cap=cap)
    with mock.patch.object(specprop, "_default_gap_cap", lambda _: k):
        assert table_outcome(p, 1) == ("value", ((((0, 0), 0), ((0, 1), k), ((1, 1), 0)), k, 1))
    with mock.patch.object(specprop, "_default_gap_cap", lambda _: k - 1):
        assert table_outcome(p, 1)[3] == (0, 1)


def _fake_system(graph):
    # automaton_for returns a system's cached automaton as it is
    return SimpleNamespace(_aut_cache=FoldedAutomaton(graph, 0, 1))


def _g_beta_loop(system, n):
    return [reference_g_beta_n(system, k) for k in range(1, n + 1)]


def test_g_beta_errors_at_the_same_length():
    no_edges = _fake_system(LabeledGraph(2, frozenset()))
    assert outcome(g_beta_values, no_edges, 4) == outcome(_g_beta_loop, no_edges, 4)
    assert outcome(g_beta_values, no_edges, 4)[1] == "InadmissibleWord"
    # every state set's one follower is itself, so no branching is reachable
    chain = _fake_system(LabeledGraph(2, frozenset({(0, 0, 0), (1, 0, 1)})))
    assert outcome(g_beta_values, chain, 4) == outcome(_g_beta_loop, chain, 4)
    assert outcome(g_beta_values, chain, 4)[1] == "NoBranchReachable"


def test_ambiguous_spine_raises_alike():
    # V2 -> V3 carries two labels
    edges = {(i, 0, i + 1) for i in range(12)} | {(i, 1, 0) for i in range(13)} | {(2, 1, 3)}
    g = LabeledGraph(13, frozenset(edges))
    got = outcome(fold, g, 1, 1)
    assert got == outcome(reference_fold, g, 1, 1)
    assert got[:3] == ("error", "FoldNotVerified", "ambiguous spine at V2")


# -- random presentations ----------------------------------------------------------------------


@st.composite
def presentations(draw, loops=False):
    """Two or three strongly connected pieces in order, with random edges forward.

    With ``loops`` every piece vertex carries a self-loop, so that `spec_bound`
    searches for a strong certificate, and each piece has an edge into the
    next, so that every ordered pair of pieces connects.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    extra = draw(st.integers(0, 2))  # vertices outside every piece
    n = sum(sizes) + extra
    label = st.integers(0, 2)
    edges, pieces, first = set(), [], 0
    for size in sizes:
        piece = tuple(range(first, first + size))
        first += size
        for k, v in enumerate(piece):  # a cycle through the piece keeps it strongly connected
            edges.add((v, draw(label), piece[(k + 1) % size]))
        inner = st.tuples(st.sampled_from(piece), label, st.sampled_from(piece))
        edges |= draw(st.sets(inner, max_size=4))
        if loops:
            edges |= {(v, draw(label), v) for v in piece}
        pieces.append(piece)
    vertex = st.integers(0, n - 1)
    forward = [(s, a, t) for s, a, t in draw(st.sets(st.tuples(vertex, label, vertex), max_size=8))
               if _rank(s, pieces) <= _rank(t, pieces)]
    edges |= set(forward)
    if loops:
        edges |= {(s[-1], draw(label), t[0]) for s, t in zip(pieces, pieces[1:])}
    return SoficPresentation(LabeledGraph(n, frozenset(edges)), tuple(pieces))


def _rank(v, pieces):
    """Forward edges only, so the pieces stay the strongly connected ones."""
    for k, piece in enumerate(pieces):
        if v in piece:
            return 2 * k
    return 2 * len(pieces) + 1 if v % 2 else -1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(presentations(), st.sampled_from([None, 1, 3]))
def test_oracles_agree_on_random_presentations(p, gap_cap):
    assert_oracles_agree(p, range(5), gap_cap=gap_cap)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(presentations(loops=True))
def test_certificates_agree_on_looped_presentations(p):
    assert _loops_everywhere(p)
    assert_certificates_agree(p, range(5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(presentations(loops=True) | presentations(), st.sampled_from(["strong_one_way", "w_one_way"]),
       st.integers(0, 4))
def test_gluing_walk_agrees_on_random_presentations(p, kind, m):
    cert = SpecCertificate(kind, m, ())
    assert specprop.gluing_test(p, cert) == reference_gluing(p, cert)


@st.composite
def spines(draw):
    """A spine V0 -> V_h with random back edges, sometimes a doubled spine edge."""
    u, v = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    h = draw(st.integers(u + 2 * v, u + 8 * v + 2))
    digits = draw(st.lists(st.integers(0, 2), min_size=h, max_size=h))
    edges = {(i, d, i + 1) for i, d in enumerate(digits)}
    back = st.tuples(st.integers(0, h), st.integers(0, 2), st.integers(0, u + v))
    edges |= draw(st.sets(back, max_size=3 * h))
    return LabeledGraph(h + 1, frozenset(edges)), u, v


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spines())
def test_fold_agrees_on_random_spines(spine):
    g, u, v = spine
    assert outcome(fold, g, u, v) == outcome(reference_fold, g, u, v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(presentations(), st.integers(1, 8))
def test_g_beta_agrees_on_random_graphs(p, n):
    system = _fake_system(p.graph)
    assert outcome(g_beta_values, system, n) == outcome(_g_beta_loop, system, n)
