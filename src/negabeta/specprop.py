"""Gluing certificates for ordered sofic presentations.

A presentation is a labeled graph together with an ordered list of strongly
connected vertex subsets.  The checker certifies that words drawn from the
pieces, in order, can always be concatenated through bounded gap words: with
gaps of one fixed exact length (strong form) or gaps bounded by a common
length (the weaker form).  A word oracle, exact for the words up to a given
length, backs the state machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Optional, Sequence

from negabeta.shiftgraph import (
    ComponentChain, Edge, LabeledGraph, _cyclic_components, _levels, cycle_vertices,
    is_irreducible, mask_of,
)
from negabeta.transform import Word, word_to_text


class SpecError(Exception):
    """Base class for errors raised by this module."""


class DisconnectedPair(SpecError):
    """Some ordered component pair admits no connecting path at all."""

    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"no path from component {i + 1} to component {j + 1}")


@dataclass(frozen=True)
class SoficPresentation:
    """Labeled graph with an ordered family of strongly connected pieces."""

    graph: LabeledGraph
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = 0  # the mask of the vertices of the components so far
        for comp in self.components:
            cset = mask_of(comp)
            if seen & cset:
                raise ValueError("components must be pairwise disjoint")
            seen |= cset
            if not is_irreducible(self.graph, comp):
                raise ValueError(f"component {comp} is not strongly connected")

    @cached_property
    def diameters(self) -> tuple[int, ...]:
        """Each component's diameter inside itself, computed once per presentation."""
        return tuple(_component_diameter(self.graph, comp) for comp in self.components)

    @classmethod
    def from_chain(cls, chain: ComponentChain) -> "SoficPresentation":
        return cls(chain.automaton.graph, chain.components)


@dataclass(frozen=True)
class SpecCertificate:
    """Outcome of the gluing check.

    ``strong_one_way`` certificates promise a gap of exactly M between any
    ordered segments; ``w_one_way`` certificates promise gaps of at most M.
    The witness table stores one connecting gap word per ordered pair, and
    ``exact_min_M`` carries the brute-force optimum when it was computed.
    """

    kind: str  # strong_one_way | w_one_way | undetermined
    M: int
    witnesses: tuple[tuple[tuple[int, int], Word], ...]
    exact_min_M: Optional[int] = None

    def to_json_dict(self, alphabet_bound: int = 9) -> dict:
        pairs = [
            {"i": i + 1, "j": j + 1, "gap": len(w), "witness": word_to_text(w, alphabet_bound)}
            for (i, j), w in self.witnesses
        ]
        out = {"kind": self.kind, "M": self.M, "pairs": pairs}
        if self.exact_min_M is not None:
            out["exact_min_M"] = self.exact_min_M
        return out


# -- graph distance helpers ------------------------------------------------------


def _component_diameter(graph: LabeledGraph, comp: Sequence[int]) -> int:
    within = mask_of(comp)
    diam = 0
    for p in comp:
        reached = 0
        for depth, level in enumerate(_levels(lambda level: graph.forward(level) & within, 1 << p)):
            reached |= level
        if reached != within:
            raise ValueError("component not strongly connected")
        diam = max(diam, depth)
    return diam


def _shortest_path(graph: LabeledGraph, starts: Sequence[int],
                   targets: int) -> Optional[list[Edge]]:
    """Edges of a shortest path from ``starts`` into the mask ``targets``.

    Breadth-first from the starts in their given order along sorted out-edges;
    each vertex keeps the edge it was first reached by, and the search stops at
    the first target reached.  None when no target is reachable.
    """
    parent: dict[int, Optional[Edge]] = {v: None for v in starts}
    if targets & mask_of(starts):
        return []
    frontier = list(starts)
    while frontier:
        nxt = []
        for v in frontier:
            for e in graph.out_edges(v):
                t = e[2]
                if t not in parent:
                    parent[t] = e
                    if targets >> t & 1:
                        path = []
                        while parent[t] is not None:
                            path.append(parent[t])
                            t = parent[t][0]
                        return path[::-1]
                    nxt.append(t)
        frontier = nxt
    return None


def _shortest_cross_word(graph: LabeledGraph, src: Sequence[int],
                         dst: Sequence[int]) -> Optional[Word]:
    """Labels of a shortest path from ``src`` into ``dst``; None when there is none."""
    path = _shortest_path(graph, src, mask_of(dst))
    return None if path is None else tuple(a for _, a, _ in path)


# -- state sets of component words ---------------------------------------------------


def _word_classes(graph: LabeledGraph, comp: Sequence[int], step,
                  maxlen: Optional[int] = None) -> set[tuple[int, int]]:
    """(inside, anywhere) state masks of the component's words of length at most ``maxlen``.

    ``inside`` is what a word reaches within the component, ``anywhere`` what it
    reaches in the full graph from every vertex.  With ``graph.step`` these are
    end sets, with ``graph.back_step`` start sets.  A pair fixes the pairs of all
    its one-symbol extensions, so the level walk over pairs stops at the first
    level that adds none; ``maxlen=None`` sets no depth limit.
    """
    cset = mask_of(comp)
    labels = graph.labels()

    def extend(level: frozenset) -> frozenset:
        return frozenset((t, step(anywhere, a)) for inside, anywhere in level for a in labels
                         if (t := step(inside, a) & cset))

    classes: set[tuple[int, int]] = set()
    start = frozenset({(cset, graph.vertex_mask)})
    for depth, level in enumerate(_levels(extend, start)):
        classes |= level
        if depth == maxlen:  # the first maxlen + 1 levels
            break
    return classes


def _end_start_sets(p: SoficPresentation, maxlen: Optional[int],
                    inside: bool) -> list[tuple[set[int], set[int]]]:
    """Per component, the end masks and the start masks of its words, taken inside
    the component or in the full graph."""
    side = 0 if inside else 1
    return [tuple({pair[side] for pair in _word_classes(p.graph, comp, step, maxlen)}
                  for step in (p.graph.step, p.graph.back_step))
            for comp in p.components]


def _loops_everywhere(p: SoficPresentation) -> bool:
    """Every component state carries a self-loop inside its component."""
    return all(p.graph.successors(v) >> v & 1 for comp in p.components for v in comp)


# -- the certifier ------------------------------------------------------------------


def spec_bound(p: SoficPresentation, oracle_maxlen: Optional[int] = None) -> SpecCertificate:
    """Certify ordered gluing with bounded gaps.

    The weak bound M is the sum of the worst in-component diameter, the worst
    ordered cross distance, and the worst target diameter; per-pair witness
    gap words are recorded.  A strong certificate (gaps of one exact length)
    is issued only when every component state carries a self-loop, because a
    loop at each end state is what upgrades a bounded gap to an exact one for
    tuples of any length; the certified exact length is then the smallest
    value that connects every end-state set to every start-state set.  When
    ``oracle_maxlen`` is given, the word oracle to that length refines
    ``exact_min_M``.
    """
    q = len(p.components)
    if q == 0:
        raise ValueError("presentation has no components")
    diams = p.diameters
    witnesses = []
    for i in range(q):
        for j in range(i, q):
            word = _shortest_cross_word(p.graph, p.components[i], p.components[j])
            if word is None:
                raise DisconnectedPair(i, j)
            witnesses.append(((i, j), word))
    m_bound = max(diams) + max(len(word) for _, word in witnesses) + max(diams)

    if _loops_everywhere(p):
        strong_m = _exact_gap(p, _end_start_sets(p, None, inside=True), m_bound)
        if strong_m is not None:
            exact = None
            if oracle_maxlen is not None:
                exact = bruteforce_exact_min(p, oracle_maxlen)
            return SpecCertificate("strong_one_way", strong_m, tuple(witnesses), exact)

    exact = None
    if oracle_maxlen is not None:
        exact = spec_bruteforce(p, oracle_maxlen).overall_max
    return SpecCertificate("w_one_way", m_bound, tuple(witnesses), exact)


# -- word oracle ------------------------------------------------------------------------


@dataclass(frozen=True)
class BruteForceTable:
    """Aggregated minimal-gap maxima per ordered component pair."""

    pair_max: tuple[tuple[tuple[int, int], int], ...]
    overall_max: int
    maxlen: int


def _default_gap_cap(p: SoficPresentation) -> int:
    return 2 * max(p.diameters) + p.graph.vertex_count + 2


def _gap_frontiers(forward: Callable[[int], int], ends: int,
                   gap_cap: int) -> Iterator[tuple[int, int]]:
    """(g, mask of the states reached from ends along exactly g edges) for g <= gap_cap,
    while nonempty.

    ``forward`` is the graph's ``forward`` step, or a memo of it.
    """
    current = ends
    for g in range(gap_cap + 1):
        if not current:
            return
        yield g, current
        current = forward(current)


def _exact_gap(p: SoficPresentation, classes, gap_cap: int) -> Optional[int]:
    """Smallest g <= gap_cap that glues every end set of each component to every start
    set of itself and of each later component in exactly g symbols; None when none does.

    The gaps are a mask too: bit g is set iff a gap of g symbols glues.  Each end
    set's frontiers are walked to the cap once and shared by every start set.
    """
    forward = cache(p.graph.forward)  # the walks of different end sets merge
    achievable = -1  # every gap
    q = len(p.components)
    for i in range(q):
        for ends in classes[i][0]:
            front = [current for _, current in _gap_frontiers(forward, ends, gap_cap)]
            for j in range(i, q):
                for starts in classes[j][1]:
                    achievable &= sum(1 << g for g, current in enumerate(front) if current & starts)
                    if not achievable:
                        return None
    return (achievable & -achievable).bit_length() - 1


def spec_bruteforce(p: SoficPresentation, maxlen: int) -> BruteForceTable:
    """Word-level minimal gaps for every ordered pair of component words.

    Pairs are grouped by (end-state set, start-state set), which preserves the
    word-level semantics exactly while collapsing the quadratic blowup.  The
    gap frontiers of each end set of component i are walked once, shared by
    the start sets of every component j >= i, and stop once each of those
    start sets is met; a start set still unmet at the cap raises
    :class:`DisconnectedPair` for the least such j.
    """
    classes = _end_start_sets(p, maxlen, inside=False)
    gap_cap = _default_gap_cap(p)
    forward = cache(p.graph.forward)  # the walks of different end sets merge
    q = len(p.components)
    worst = {(i, j): 0 for i in range(q) for j in range(i, q)}
    for i in range(q):
        wanted = [(j, starts) for j in range(i, q) for starts in classes[j][1]]
        unmet = q  # the least j with a start set some end set never meets
        for ends in classes[i][0]:
            pending = wanted
            for g, current in _gap_frontiers(forward, ends, gap_cap):
                left = []
                for j, starts in pending:
                    if current & starts:
                        worst[i, j] = max(worst[i, j], g)
                    else:
                        left.append((j, starts))
                pending = left
                if not pending:
                    break
            if pending:  # in ascending j
                unmet = min(unmet, pending[0][0])
        if unmet < q:
            raise DisconnectedPair(i, unmet)
    return BruteForceTable(tuple(worst.items()), max(worst.values(), default=0), maxlen)


def bruteforce_exact_min(p: SoficPresentation, maxlen: int) -> Optional[int]:
    """Smallest M such that every ordered word pair glues with a gap of exactly M."""
    return _exact_gap(p, _end_start_sets(p, maxlen, inside=False), _default_gap_cap(p))


# -- coverage and support checks ----------------------------------------------------------


def omega_coverage_check(p: SoficPresentation) -> bool:
    """Every vertex lying on a directed cycle belongs to some component."""
    covered = set()
    for comp in p.components:
        covered.update(comp)
    return cycle_vertices(p.graph).issubset(covered)


def ergodic_support_check(p: SoficPresentation) -> bool:
    """Every ergodic measure of the graph lives on one component of the presentation.

    An ergodic measure is carried by one cyclic strong component of the graph,
    so the property holds iff each of them is one of ``p.components``.
    """
    listed = {mask_of(comp) for comp in p.components}
    return all(mask_of(comp) in listed for comp in _cyclic_components(p.graph))


# -- exhaustive soundness of issued certificates ---------------------------------------------


_GLUING_WORD_LEN = 4  # longest component word the gluing check glues


def _word_relations(graph: LabeledGraph, comp: Sequence[int]) -> set[tuple[tuple[int, int], ...]]:
    """The relations of the words of paths of 1..``_GLUING_WORD_LEN`` edges inside the component.

    A word's relation lists (v, mask of the states that reading it from v ends
    in, in the full graph) for each state v it can be read from.  Words with one
    relation glue alike, and a word's state set inside the component and its
    relation fix those of its one-symbol extensions.
    """
    cset = mask_of(comp)
    labels = graph.labels()
    level = {(cset, tuple((v, 1 << v) for v in range(graph.vertex_count)))}
    relations = set()
    for _ in range(_GLUING_WORD_LEN):
        level = {(t, tuple((v, ends) for v, reached in relation
                           if (ends := graph.step(reached, a))))
                 for inside, relation in level for a in labels
                 if (t := graph.step(inside, a) & cset)}
        relations |= {relation for _, relation in level}
    return relations


def _read(relation: tuple[tuple[int, int], ...], states: int) -> int:
    """The mask of the states that reading a word from ``states`` ends in."""
    ends = 0
    for v, reached in relation:
        if states >> v & 1:
            ends |= reached
    return ends


def gluing_test(p: SoficPresentation, cert: SpecCertificate) -> bool:
    """Whether the certificate's gaps glue every ordered sequence of component words.

    The words are the labels of paths of 1..``_GLUING_WORD_LEN`` edges inside
    one component.  A sequence with nondecreasing component indices is glued
    from the left: from the states its words have reached so far, the first
    gap of exactly M (strong) or at most M (weak) symbols whose frontier meets
    the start states of the next word carries them there, and the states met
    read that word.  What follows depends on a sequence only through the
    states it has reached and its last component index, so a walk over
    these (state mask, component index) pairs to their fixed point decides
    sequences of every number of words.  False when some sequence finds no
    such gap.
    """
    forward = cache(p.graph.forward)  # the frontier walks of different masks merge
    relations = [[(mask_of(v for v, _ in relation), relation)
                  for relation in _word_relations(p.graph, comp)] for comp in p.components]
    least_gap = cert.M if cert.kind == "strong_one_way" else 0
    seen = {(_read(relation, p.graph.vertex_mask), i)
            for i, words in enumerate(relations) for _, relation in words}
    todo = list(seen)
    while todo:
        states, i = todo.pop()
        front = [current for g, current in _gap_frontiers(forward, states, cert.M)
                 if g >= least_gap]
        for j in range(i, len(relations)):
            for starts, relation in relations[j]:
                glued = next((current & starts for current in front if current & starts), 0)
                if not glued:
                    return False
                pair = (_read(relation, glued), j)
                if pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
    return True
