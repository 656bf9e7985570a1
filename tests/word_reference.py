"""Word-by-word reference engines that the tests compare the program against.

The program decides the language of the negative-beta shift from two finite
descriptions: the folded automaton and the image table of the map's branches
(`measures.language_gap` compares them at every length, and
`measures.word_classes` counts the table's words in classes of their image).  The engines here
work from the definition instead, one word at a time, and no module of the
package reads them:

- `Ordering` and `alt_compare`: the alternating order of digit sequences
  (test_transform, test_acceptance);
- `word_admissible(system, word)`: no suffix of the word exceeds the
  expansion of 1 in that order (test_transform, test_measures,
  test_acceptance);
- `border_step` and `enumerate_admissible(system, maxlen)`: the admissible
  words in preorder, each carrying its borders against the expansion of 1
  (test_transform, test_shiftgraph, test_cylinder_walk, test_measures,
  test_acceptance, and the reference builder of test_border_table);
- `enumerate_words(graph, maxlen)`: the graph's readable words in
  preorder, each with the mask of its end states (test_shiftgraph,
  test_intervalmaps, test_cylinder_walk, and `measure_reference.cylinder_walk`);
- `cross_validate(aut, system, n)`: the automaton's words against
  `enumerate_admissible` up to length n (test_shiftgraph, test_acceptance,
  test_language_gap);
- `count_words(graph, n)`: the automaton's words of one length, counted on
  its state sets alone (test_shiftgraph, test_language_gap), and
  `reads(graph, word)` and `back_reads(graph, word)`: the masks of the
  states a word can end in and be read from (test_graph_index,
  test_language_gap, test_intervalmaps, `measure_reference.g_beta_word`);
- `example31_word_admissible(word)`: Example 3.1's language, the factors of
  u1v with u over {0,1} and v over {2,3,4} (test_intervalmaps);
- `build_gamma(s, horizon)`: the unfolded graph V0..V_horizon, built from
  the same border rows that `automaton_for` folds, and `fold(graph, u, v)`:
  a graph's edges folded by `shiftgraph._fold_rows`, the fold that
  `automaton_for` runs (test_shiftgraph, test_border_table,
  test_presentation_reuse).
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, Optional, Sequence, Union

from negabeta.shiftgraph import FoldedAutomaton, LabeledGraph, _fold_rows, _gamma_rows
from negabeta.transform import DigitSequence, MinusBetaSystem, Word


class Ordering(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    PREFIX = "prefix"


def alt_compare(s: Union[DigitSequence, Sequence[int]],
                t: Union[DigitSequence, Sequence[int]]) -> Ordering:
    """Alternating-order comparison by first disagreement.

    At disagreement index n the result is LESS when (-1)^n (s_n - t_n) < 0;
    the comparison direction flips with the parity of n, which is the
    convention that keeps the interval coding order-preserving.  Eventually
    periodic inputs are compared exactly; PREFIX is returned when a finite
    word is an exact prefix of the other input.
    """
    s_inf = isinstance(s, DigitSequence)
    t_inf = isinstance(t, DigitSequence)
    if s_inf and t_inf:
        limit = max(s.u, t.u) + 2 * math.lcm(s.v, t.v)  # agreeing this far, they agree forever
    elif s_inf:
        limit = len(t)
    elif t_inf:
        limit = len(s)
    else:
        limit = min(len(s), len(t))
    head_s = s.prefix(limit) if s_inf else s
    head_t = t.prefix(limit) if t_inf else t
    for k in range(limit):
        a, b = head_s[k], head_t[k]
        if a != b:
            diff = a - b if k % 2 == 0 else b - a
            return Ordering.LESS if diff < 0 else Ordering.GREATER
    if s_inf and t_inf:
        return Ordering.EQUAL
    if s_inf or t_inf:
        return Ordering.PREFIX
    return Ordering.EQUAL if len(s) == len(t) else Ordering.PREFIX


def border_step(ref: Sequence[int], active: tuple[int, ...], a: int) -> tuple[int, ...] | None:
    """Borders of the word w+a, from the borders ``active`` of w.

    A border of w is the length of a suffix of w that is a prefix of ``ref``,
    the digits of the expansion of 1 at least as far as index len(w);
    ``active`` lists the nonzero borders, longest first.
    Each of them, and the empty one, either extends (``a == ref_j``) or makes
    the suffix of w+a differ from ``ref`` at index j.  Returns None when such
    a suffix exceeds ``ref`` in the alternating order, so w+a is
    inadmissible; otherwise the borders of w+a, longest first.
    """
    new = []
    for pos in active + (0,):
        r = ref[pos]
        if a == r:
            new.append(pos + 1)
        elif (a - r if pos % 2 == 0 else r - a) > 0:
            return None
    return tuple(new)


def word_admissible(system: MinusBetaSystem, w: Sequence[int]) -> bool:
    """True iff no suffix of w exceeds the expansion of 1 in alternating order."""
    ref = system.expansion_of_one()
    w = tuple(w)
    if any(not 0 <= d <= system.b for d in w):
        return False
    return all(alt_compare(w[start:], ref) is not Ordering.GREATER for start in range(len(w)))


def enumerate_admissible(system: MinusBetaSystem, maxlen: int) -> Iterator[Word]:
    """Yield every admissible word of length 1..maxlen, in preorder.

    Each word follows its parent, children in digit order.  Carries the
    borders of the current word through :func:`border_step`; a word dies
    exactly when one of them extends on the wrong side of the alternating
    order.  Equivalent to filtering by :func:`word_admissible` but
    exponentially cheaper on the inadmissible subtrees.
    """
    ref = system.expansion_of_one().prefix(maxlen)
    # An explicit stack, not recursion: words may be longer than Python's
    # recursion limit.  Children are pushed in reverse digit order, so the
    # smallest digit comes off first.
    stack: list[tuple[Word, tuple[int, ...]]] = [((), ())]
    while stack:
        word, active = stack.pop()
        if word:
            yield word
        if len(word) < maxlen:
            for a in range(system.b, -1, -1):
                new_active = border_step(ref, active, a)
                if new_active is not None:
                    stack.append((word + (a,), new_active))


def enumerate_words(graph: LabeledGraph,
                    maxlen: int) -> Iterator[tuple[Word, int]]:
    """All distinct readable words of length 1..maxlen, each with the mask of its end states.

    The end states of a word are those of all its readings, starting anywhere.
    Words come in preorder, children in label order: each word follows its
    parent, with no word of the parent's length or shorter in between.
    """
    # An explicit stack, not recursion: words may be longer than Python's
    # recursion limit.  Children are pushed in reverse label order, so the
    # smallest label comes off first.
    stack = [((), graph.vertex_mask)]
    while stack:
        word, states = stack.pop()
        if word:
            yield word, states
        if len(word) < maxlen:
            stack.extend((word + (a,), t) for a, t in reversed(graph.followers(states)))


def cross_validate(aut: FoldedAutomaton, system: MinusBetaSystem,
                   n: int) -> tuple[bool, Optional[Word]]:
    """Compare automaton words with order-admissible words up to length n.

    Returns (True, None) when the two languages agree on every length up to
    n, else (False, first counterexample word).
    """
    automaton_words = {w for w, _ in enumerate_words(aut.graph, n)}
    admissible = set(enumerate_admissible(system, n))
    if automaton_words == admissible:
        return True, None
    diff = sorted(automaton_words.symmetric_difference(admissible), key=lambda w: (len(w), w))
    return False, diff[0]


def count_words(graph: LabeledGraph, n: int) -> int:
    """Number of distinct label words of length n readable from any state."""
    if n < 0:
        raise ValueError("n must be >= 0")
    counts: dict[int, int] = {graph.vertex_mask: 1}  # state mask -> words ending there
    for _ in range(n):
        nxt: dict[int, int] = {}
        for states, c in counts.items():
            for _, t in graph.followers(states):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(counts.values())


def reads(graph: LabeledGraph, word: Sequence[int]) -> int:
    """The mask of the end states of all readings of the word, starting anywhere."""
    states = graph.vertex_mask
    for a in word:
        states = graph.step(states, a)
    return states


def back_reads(graph: LabeledGraph, word: Sequence[int]) -> int:
    """The mask of the start states of all readings of the word, ending anywhere."""
    states = graph.vertex_mask
    for a in reversed(word):
        states = graph.back_step(states, a)
    return states


def example31_word_admissible(word: Sequence[int]) -> bool:
    """Factor-of-u1v characterization: no digit >= 2 before a digit <= 1."""
    word = tuple(word)
    if any(not 0 <= d <= 4 for d in word):
        return False
    for prev, cur in zip(word, word[1:]):
        if prev >= 2 and cur <= 1:
            return False
        if prev <= 1 and cur >= 2 and prev != 1:
            return False
    return True


def build_gamma(s: DigitSequence, horizon: int) -> LabeledGraph:
    """Vertices V0..V_horizon and the edges of the admissible language of s.

    Every digit a that V_i's row admits gets an edge to V_j, where j is the
    longest border of the extended word, or 0 when none is left: a = s_i is
    the spine edge V_i -> V_(i+1), any other digit a back edge.  Raises as
    `shiftgraph._gamma_rows` does, on a horizon below u+2v or a back edge
    beyond u+v.
    """
    rows = _gamma_rows(s, horizon)
    return LabeledGraph(len(rows), frozenset((i, a, t) for i, row in enumerate(rows) for a, t in row))


def fold(graph: LabeledGraph, u: int, v: int) -> FoldedAutomaton:
    """`shiftgraph._fold_rows` on the graph's edges, each vertex's row in edge order."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(graph.vertex_count)]
    for s, a, t in sorted(graph.edges):
        rows[s].append((a, t))
    return _fold_rows(rows, u, v)
