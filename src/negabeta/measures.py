"""Exact cylinder geometry and the measure-side objects.

Cylinder sets pull back to genuine subintervals of [0, 1]; their endpoints
are exact field elements so the decay bounds and the partition identity can
be asserted with equality, not tolerance.  The cylinder table carries them
as integer coefficient vectors over one denominator, so a word costs integer
tuple additions, and it formats each distinct endpoint once.  Markov and
empirical measures live on the folded automaton and feed the rate machinery.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

from negabeta.algebraic import FieldElement, to_decimal
from negabeta.shiftgraph import LabeledGraph, _levels, _perron, automaton_for, is_irreducible
from negabeta.transform import MinusBetaSystem, Word, word_from_text, word_separator


class MeasureError(Exception):
    """Base class for errors raised by this module."""


class InadmissibleWord(MeasureError):
    """The word codes no interval of positive length."""


class NoBranchReachable(MeasureError):
    """No extension of the word ever reaches a branching state."""


class NotIrreducible(MeasureError):
    """The operation needs a strongly connected component."""


# -- cylinders -------------------------------------------------------------------


class CylinderInterval(NamedTuple):
    """Interval of points whose coding starts with a fixed word."""

    word: Word
    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool

    @property
    def length(self):
        return self.hi - self.lo


# An interval with endpoints in ImageTable.points: (lo index, lo_closed, hi index, hi_closed).
Image = tuple[int, bool, int, bool]


class _Depth(NamedTuple):
    """The constants of phi_w(y) = slope*y + c_w shared by all words of one length."""

    slope: object  # s_n = inv_slope^n
    scale: object  # |s_n|
    decreasing: bool  # s_n < 0, read off the branches' orientation
    ends: tuple  # s_n * p for each table point p
    terms: tuple  # s_n * intercept_a for each digit a
    lengths: dict  # (lo index, hi index) of J_w -> |[w]|


class ImageTable:
    """The branches of an interval map acting on the endpoints of its images T^n[w].

    The branches T_a(x) = slope*x + intercept_a share one slope, each on its
    cell of a partition of [0, 1]; the caller passes the slope and its
    inverse, so building the table inverts nothing.  T^n maps the cylinder
    [w] of a word of length n onto its image J_w = T^n[w], and J_wa is T_a
    of the cut of J_w by cell_a.  So every image endpoint lies in the
    closure P of {0, 1} and the cell endpoints under the branches, each
    acting on its closed cell.  P must be finite: for the negative-beta map
    of a Yrrap beta it is {0, 1}, the k/beta and the orbit of 1; for
    Example 3.1 it is the six cell endpoints.  P is sorted once with exact
    comparisons, after which an image is an :data:`Image` of indices and a
    digit's step compares integers.

    The inverse of T^n on [w] is phi_w(y) = s_n*y + c_w, with s_n = inv_slope^n
    and c_wa = c_w - s_{n+1}*intercept_a.  So [w] = phi_w(J_w) and
    |[w]| = |s_n| * |J_w|, exactly.
    """

    def __init__(self, cells: Sequence, intercepts: Sequence, slope, inv_slope, decreasing: bool,
                 one):
        zero = one - one

        def forward(level: frozenset) -> frozenset:
            return frozenset(slope * p + c for p in level
                             for cell, c in zip(cells, intercepts) if cell.lo <= p <= cell.hi)

        start = frozenset((zero, one, *(x for cell in cells for x in (cell.lo, cell.hi))))
        self.points = tuple(sorted(frozenset().union(*_levels(forward, start))))
        index = {p: i for i, p in enumerate(self.points)}
        self.cells = tuple((index[cell.lo], cell.lo_closed, index[cell.hi], cell.hi_closed)
                           for cell in cells)
        # the index of T_a(p) for each point p of the closed cell a, None off it
        self.maps = tuple(tuple(index[slope * p + c] if lo <= i <= hi else None
                                for i, p in enumerate(self.points))
                          for (lo, _, hi, _), c in zip(self.cells, intercepts))
        self.root: Image = (index[zero], True, index[one], True)
        self.zero = zero
        self.inv_slope = inv_slope
        self.intercepts = tuple(intercepts)
        self.decreasing = decreasing
        self._depths = [_Depth(one, one, False, self.points, (), {})]

    def depth(self, n: int) -> _Depth:
        """The constants of phi_w for words of length n, computed once per depth."""
        depths = self._depths
        while len(depths) <= n:
            slope = depths[-1].slope * self.inv_slope
            decreasing = depths[-1].decreasing != self.decreasing
            depths.append(_Depth(slope, -slope if decreasing else slope, decreasing,
                                 tuple(slope * p for p in self.points),
                                 tuple(slope * c for c in self.intercepts), {}))
        return depths[n]

    def step(self, image: Image, digit: int) -> Optional[Image]:
        """J_wa from J_w = image: T_a of the cut of J_w by cell_a; None when the cut is empty.

        A cut of one point gives an image with lo == hi.  The flags of T_a's
        endpoints swap when the branch decreases.
        """
        lo, lo_closed, hi, hi_closed = image
        cell_lo, cell_lo_closed, cell_hi, cell_hi_closed = self.cells[digit]
        if lo == cell_lo:
            lo_closed = lo_closed and cell_lo_closed
        elif lo < cell_lo:
            lo, lo_closed = cell_lo, cell_lo_closed
        if hi == cell_hi:
            hi_closed = hi_closed and cell_hi_closed
        elif hi > cell_hi:
            hi, hi_closed = cell_hi, cell_hi_closed
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
        image_of = self.maps[digit]
        if self.decreasing:
            return image_of[hi], hi_closed, image_of[lo], lo_closed
        return image_of[lo], lo_closed, image_of[hi], hi_closed

    def fold(self, word: Word) -> Optional[tuple[Image, object]]:
        """(J_w, c_w) of one word by :meth:`step`; None when [w] is empty.

        Raises :class:`InadmissibleWord` for a digit that names no branch.
        """
        for digit in word:
            if not 0 <= digit < len(self.cells):
                raise InadmissibleWord(f"digit {digit} outside the alphabet")
        image, offset = self.root, self.zero
        for n, digit in enumerate(word, 1):
            image = self.step(image, digit)
            if image is None:
                return None
            offset = offset - self.depth(n).terms[digit]
        return image, offset

    def cylinder(self, word: Word, image: Image, offset) -> CylinderInterval:
        """[w] = phi_w(J_w), from J_w and c_w: two additions."""
        depth = self.depth(len(word))
        lo, lo_closed, hi, hi_closed = image
        lo_end, hi_end = depth.ends[lo] + offset, depth.ends[hi] + offset
        if depth.decreasing:
            return CylinderInterval(word, hi_end, lo_end, hi_closed, lo_closed)
        return CylinderInterval(word, lo_end, hi_end, lo_closed, hi_closed)

    def length(self, n: int, image: Image):
        """|[w]| = |s_n| * |J_w| for a word of length n, once per (depth, image)."""
        depth = self.depth(n)
        key = image[0], image[2]
        if key not in depth.lengths:
            depth.lengths[key] = depth.scale * (self.points[key[1]] - self.points[key[0]])
        return depth.lengths[key]

    def bounds(self, lower):
        """(|J| <= 1, |J| >= lower) of an image J, given its two indices; once per image.

        |[w]| = |s_n| * |J_w|, so the decay bounds |[w]| <= |s_n| and
        |[w]| >= lower * |s_n| are bounds on the image alone.
        """
        points = self.points

        @cache
        def bounds(lo: int, hi: int) -> tuple[bool, bool]:
            width = points[hi] - points[lo]
            return width <= 1, width >= lower

        return bounds

    def interior_step(self, image: Image, digit: int) -> Optional[Image]:
        """J_wa when the cylinder [wa] has interior, else None (also for a digit past the cells)."""
        child = self.step(image, digit) if digit < len(self.cells) else None
        return child if child is not None and child[0] != child[2] else None


def word_classes(graph: LabeledGraph, table: ImageTable,
                 maxlen: int) -> Iterator[dict[tuple[int, Image], list]]:
    """The words of length 1, 2, ..., maxlen of ``graph``, one level per length, as classes.

    A word's end-state set (read from all states) fixes its one-letter
    extensions in the graph, and its image J_w in ``table`` fixes theirs; so
    the words of one length fall into classes keyed by (end state mask,
    J_w).  Each level maps a key to [the least word of the class in tuple
    order, which is preorder; the number of words].  A class steps by
    ``graph.followers`` and :meth:`ImageTable.step`, and the counts of
    classes that merge add.  The subset step is deterministic, so each word
    lies in exactly one class and the counts are exact; a level's classes
    come in the order of their least words.  Raises :class:`InadmissibleWord`
    when the cylinder of a word of the graph has no interior, naming the
    least such word of the shortest length.
    """
    level = {(graph.vertex_mask, table.root): [(), 1]}
    for _ in range(maxlen):
        children: dict = {}
        for (states, image), (word, count) in level.items():
            for digit, ends in graph.followers(states):
                child = table.interior_step(image, digit)
                if child is None:
                    raise InadmissibleWord(f"no interior in the cylinder of word {word + (digit,)}")
                entry = children.get((ends, child))
                if entry is None:
                    children[ends, child] = [word + (digit,), count]
                else:
                    entry[1] += count
        yield children
        level = children


def language_gap(graph: LabeledGraph, table: ImageTable) -> Optional[Word]:
    """The shortest word that exactly one of ``graph`` and ``table`` admits, or None.

    The graph admits a word it reads from some state; the table admits a
    word whose cylinder has interior.  Among gaps of equal length the least
    in tuple order comes first.  Walks the pairs (end state mask, J_w) of
    :func:`word_classes` breadth first, digits ascending, to the fixed
    point: whether a pair's words extend by a digit depends on the pair
    alone, so a pair met at an earlier length is not walked again, and a
    pair is first met with its least word.  So the two languages are
    compared at every length in finitely many steps.
    """
    start = (graph.vertex_mask, table.root)
    seen, level = {start}, {start: ()}
    while level:
        children = {}
        for (states, image), word in level.items():
            ends = dict(graph.followers(states))
            for digit in sorted(ends.keys() | range(len(table.cells))):
                child = table.interior_step(image, digit)
                if (digit in ends) != (child is not None):
                    return word + (digit,)
                pair = (ends.get(digit), child)
                if child is not None and pair not in seen:
                    seen.add(pair)
                    children[pair] = word + (digit,)
        level = children
    return None


def image_table(system: MinusBetaSystem) -> ImageTable:
    """The image table of x -> (a+1) - beta*x on the partition, cached on the system."""
    if system._table_cache is None:
        cells = system.partition()
        system._table_cache = ImageTable(cells, [a + 1 for a in range(len(cells))],
                                         -system.beta_element, -system.beta_inverse, True,
                                         system.beta.one())
    return system._table_cache


def _fold(system: MinusBetaSystem, word: Word) -> tuple[ImageTable, Image, object]:
    table = image_table(system)
    folded = table.fold(word)
    if folded is None:
        raise InadmissibleWord(f"empty cylinder for word {word}")
    image, offset = folded
    if image[0] == image[2]:
        raise InadmissibleWord(f"degenerate cylinder for word {word}")
    return table, image, offset


def cylinder_interval(system: MinusBetaSystem, word: Sequence[int]) -> CylinderInterval:
    """Exact coding cylinder, read off the word's image in the image table.

    Raises :class:`InadmissibleWord` when the cylinder has no interior.
    """
    word = tuple(word)
    table, image, offset = _fold(system, word)
    return table.cylinder(word, image, offset)


class CylinderReport(NamedTuple):
    """Exact cylinder and its length together with the two decay bound checks.

    `scale` is the contraction of the inverse branch on the cylinder
    (beta^-n for a word of length n), and `image` is the word's image T^n[w]
    in the image table, so that length = scale * |image|.
    """

    interval: CylinderInterval
    length: object
    scale: object
    upper_bound_ok: bool
    lower_bound_applicable: bool
    lower_bound_ok: Optional[bool]
    image: Image

    @property
    def word(self) -> Word:
        return self.interval.word


def _lower_constant(system: MinusBetaSystem):
    """1 - b/beta, the constant of the lower bound on branching words."""
    return system.beta.one() - system.b * system.beta_inverse


def cylinder_measure(system: MinusBetaSystem, word: Sequence[int]) -> CylinderReport:
    """Exact Lebesgue length of the cylinder, with its bound report.

    The length never exceeds beta^-n; when the word admits two distinct
    one-letter extensions it is also at least (1 - b/beta) * beta^-n.  Both
    are decided exactly on the word's image (see :meth:`ImageTable.bounds`).
    """
    word = tuple(word)
    table, image, offset = _fold(system, word)
    graph = automaton_for(system).graph
    branching = len(graph.followers(graph.reads(word))) >= 2
    upper_ok, lower_ok = table.bounds(_lower_constant(system))(image[0], image[2])
    n = len(word)
    return CylinderReport(table.cylinder(word, image, offset), table.length(n, image),
                          table.depth(n).scale, upper_ok, branching,
                          lower_ok if branching else None, image)


# The columns of a cylinder table row, in the order of :func:`cylinder_table`.
CYLINDER_COLUMNS = ("word", "lo", "hi", "lo_decimal", "hi_decimal", "length",
                    "upper_bound_ok", "lower_bound_applicable", "lower_bound_ok")


def _coeff_text(nums: Sequence[int], den: int) -> str:
    """The vector nums/den as "[c_0,c_1,...]", each c_k as n or n/d in lowest terms."""
    parts = []
    for num in nums:
        g = math.gcd(num, den)
        parts.append(str(num // g) if g == den else f"{num // g}/{den // g}")
    return "[" + ",".join(parts) + "]"


def cylinder_table(system: MinusBetaSystem, maxlen: int, digits: int) -> list[tuple]:
    """One row of :data:`CYLINDER_COLUMNS` for every admissible word up to maxlen, in preorder.

    One depth-first walk over the folded automaton's words (the admissible
    words), children in digit order, on an explicit stack of (word text,
    length n, end state mask, image J_w, c_w).  c_w and the endpoints
    phi_w(J_w) of [w] are integer vectors over one denominator D, the lcm of
    the denominators of the depth constants s_n*p and s_n*intercept_a up to
    maxlen, so a word costs index comparisons in the image table and three
    tuple additions.  Each distinct endpoint vector is formatted once, its
    decimal read off the vector over D as it stands: a decimal depends on the
    value alone, so no vector is brought to lowest terms.  A word's length
    (the difference of its endpoints) and both bound checks are read off
    its image, once per (depth, image), so no word needs a sign test.  A
    word branches when its end states have two followers.  Raises
    :class:`InadmissibleWord` at the first word in preorder whose cylinder
    has no interior.
    """
    graph = automaton_for(system).graph
    table = image_table(system)
    bounds = table.bounds(_lower_constant(system))
    depths = [table.depth(n) for n in range(maxlen + 1)]
    den = math.lcm(*(x.den for depth in depths for x in (*depth.ends, *depth.terms)))

    def over_den(x) -> tuple[int, ...]:
        scale = den // x.den
        return tuple(a * scale for a in x.nums)

    ends = [tuple(map(over_den, depth.ends)) for depth in depths]
    terms = [tuple(map(over_den, depth.terms)) for depth in depths]
    field = system.beta

    def decimal(vector: tuple[int, ...]) -> str:
        return to_decimal(FieldElement(field, vector, den), digits)

    endpoints: dict[tuple[int, ...], tuple[str, str]] = {}

    def endpoint(vector: tuple[int, ...]) -> tuple[str, str]:
        texts = endpoints.get(vector)
        if texts is None:
            texts = endpoints[vector] = _coeff_text(vector, den), decimal(vector)
        return texts

    # per depth: (lo index, hi index) of J_w -> (|[w]| as a decimal, upper ok, lower ok)
    images: list[dict] = [{} for _ in depths]
    sep = word_separator(system.b)
    rows = []
    stack = [("", 0, graph.vertex_mask, table.root, (0,) * field.degree)]
    while stack:
        text, n, states, image, offset = stack.pop()
        followers = graph.followers(states)
        if n:
            if image is None:
                raise InadmissibleWord(
                    f"no interior in the cylinder of word {word_from_text(text, system.b)}")
            lo, _, hi, _ = image
            at = ends[n]
            lo_end = endpoint(tuple(map(operator.add, at[lo], offset)))
            hi_end = endpoint(tuple(map(operator.add, at[hi], offset)))
            if depths[n].decreasing:
                lo_end, hi_end = hi_end, lo_end
            measured = images[n].get((lo, hi))
            if measured is None:
                width = tuple(map(operator.sub, at[hi], at[lo]))
                if depths[n].decreasing:
                    width = tuple(map(operator.neg, width))
                measured = images[n][lo, hi] = (decimal(width), *bounds(lo, hi))
            length, upper_ok, lower_ok = measured
            branching = len(followers) >= 2
            rows.append((text, lo_end[0], hi_end[0], lo_end[1], hi_end[1], length, upper_ok,
                         branching, lower_ok if branching else None))
        if n < maxlen:
            prefix, m = (text + sep if n else ""), n + 1
            step = terms[m]
            stack.extend((prefix + str(a), m, t, table.interior_step(image, a),
                          tuple(map(operator.sub, offset, step[a])))
                         for a, t in reversed(followers))
    return rows


# -- branching distance ------------------------------------------------------------


def _g_from_followers(graph: LabeledGraph, start: int) -> int:
    """Extensions from the state mask ``start`` to the nearest mask with two followers."""
    def step(level: frozenset[int]) -> frozenset[int]:
        return frozenset(t for states in level for _, t in graph.followers(states))

    for depth, level in enumerate(_levels(step, frozenset((start,)))):
        if any(len(graph.followers(states)) >= 2 for states in level):
            return depth
    raise NoBranchReachable("no extension reaches a branching state")


def g_beta_values(system: MinusBetaSystem, n: int) -> list[int]:
    """[g_beta(1), ..., g_beta(n)]: worst branching distances per word length.

    One sweep over the lengths: the subset frontier advances once per step,
    and each state set's distance is computed once per call.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    graph = automaton_for(system).graph
    distance = cache(lambda states: _g_from_followers(graph, states))
    frontier = {graph.vertex_mask}  # the state masks of the words of length k
    values = []
    for k in range(1, n + 1):
        frontier = {t for states in frontier for _, t in graph.followers(states)}
        if not frontier:
            raise InadmissibleWord(f"no admissible words of length {k}")
        values.append(max(distance(states) for states in frontier))
    return values


def g_beta_n(system: MinusBetaSystem, n: int) -> int:
    """Worst branching distance over all admissible words of length n."""
    return g_beta_values(system, n)[-1]


# -- Markov measures -----------------------------------------------------------------


@dataclass(frozen=True)
class MarkovMeasure:
    """Stationary Markov measure supported on edges of a labeled graph.

    Edge probabilities are per-source transition probabilities; the stationary
    vertex distribution satisfies the balance equation (exactly when built
    from rationals, to 1e-12 when built numerically).
    """

    graph: LabeledGraph
    edge_probs: tuple  # ((src, label, dst), prob) pairs
    stationary: tuple  # (vertex, prob) pairs
    alphabet_bound: int

    def pi(self) -> dict:
        return dict(self.stationary)

    def entropy(self) -> float:
        """Shannon entropy rate (nats per symbol)."""
        pi = self.pi()
        acc = 0.0
        for (src, _, _), p in self.edge_probs:
            if p > 0:
                acc -= float(pi[src]) * float(p) * math.log(float(p))
        return acc

    @cached_property
    def _edges_by_label(self) -> dict[int, list[tuple[int, int, float]]]:
        """label -> (src, dst, p) of its positive edges, in ``edge_probs`` order."""
        out: dict[int, list[tuple[int, int, float]]] = {}
        for (src, label, dst), p in self.edge_probs:
            if p > 0:
                out.setdefault(label, []).append((src, dst, float(p)))
        return out

    def cylinder_mass(self, word: Sequence[int]) -> float:
        """Stationary probability of reading the word from the start."""
        word = tuple(word)
        states = {v: float(p) for v, p in self.stationary if p > 0}
        for a in word:
            nxt: dict[int, float] = {}
            for src, dst, p in self._edges_by_label.get(a, ()):
                if src in states:
                    nxt[dst] = nxt.get(dst, 0.0) + states[src] * p
            states = nxt
            if not states:
                return 0.0
        return sum(states.values())


def _psi_value(psi, label: int) -> float:
    if callable(psi):
        return float(psi(label))
    return float(psi[label])


def parry_measure(graph: LabeledGraph, vertices: Optional[Sequence[int]] = None) -> MarkovMeasure:
    """Maximal-entropy Markov measure of an irreducible graph piece.

    Built from the Perron data of the adjacency matrix
    (:func:`negabeta.shiftgraph._perron`): each edge out of p into q gets
    probability r_q / (rho * r_p), and the stationary law is that chain's.
    Its entropy equals the log of the spectral radius.
    """
    verts = sorted(vertices) if vertices is not None else list(range(graph.vertex_count))
    if not is_irreducible(graph, verts):
        raise NotIrreducible("the maximal-entropy construction needs a strongly connected piece")
    index = {v: i for i, v in enumerate(verts)}
    _, scale, pi = _perron(graph.adjacency(verts))
    edge_probs = []
    for (s, a, t) in sorted(graph.edges):
        if s in index and t in index:
            edge_probs.append(((s, a, t), scale[index[s], index[t]]))
    stationary = tuple((v, pi[index[v]]) for v in verts)
    bound = max(graph.labels()) if graph.edges else 0
    return MarkovMeasure(graph, tuple(edge_probs), stationary, bound)


# -- empirical measures -----------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sliding-window factor frequencies of one finite itinerary."""

    depth: int
    freqs: tuple[tuple[Word, object], ...]
    sample_length: int
    alphabet_bound: int

    def cylinder_mass(self, word: Sequence[int]):
        word = tuple(word)
        if len(word) > self.depth:
            raise ValueError("word longer than the measure depth")
        total = 0
        for w, f in self.freqs:
            if w[: len(word)] == word:
                total += f
        return total


def empirical_measure(itinerary: Sequence[int], depth: int,
                      alphabet_bound: Optional[int] = None) -> EmpiricalMeasure:
    """Depth-k window frequencies of a length-n itinerary (n-k+1 windows)."""
    word = tuple(itinerary)
    n = len(word)
    if depth < 1 or n < depth:
        raise ValueError("need sample length >= depth >= 1")
    bound = alphabet_bound if alphabet_bound is not None else max(word)
    counts: dict[Word, int] = {}
    for i in range(n - depth + 1):
        w = word[i : i + depth]
        counts[w] = counts.get(w, 0) + 1
    total = n - depth + 1
    freqs = tuple(sorted((w, Fraction(c, total)) for w, c in counts.items()))
    return EmpiricalMeasure(depth, freqs, n, bound)


@dataclass(frozen=True)
class MixtureMeasure:
    """Finite convex combination of measures, for the metric property checks."""

    parts: tuple[tuple[object, object], ...]  # (weight, measure)

    def cylinder_mass(self, word):
        return sum(w * m.cylinder_mass(word) for w, m in self.parts)


# -- truncated weak metric ----------------------------------------------------------------


def indicator_words(alphabet_bound: int, count: int) -> list[Word]:
    """First `count` words in length-then-lexicographic order."""
    out: list[Word] = []
    length = 1
    while len(out) < count:
        for w in itertools.product(range(alphabet_bound + 1), repeat=length):
            out.append(w)
            if len(out) >= count:
                break
        length += 1
    return out


def max_truncation(alphabet_bound: int, depth: int) -> int:
    """Largest K whose first K indicator words all fit within the given depth."""
    total = 0
    for length in range(1, depth + 1):
        total += (alphabet_bound + 1) ** length
    return total


def weak_metric_truncated(mu, nu, K: int, alphabet_bound: int) -> float:
    """Truncated compatible metric on measures.

    Sums 2^-(n+1) |mu[w_n] - nu[w_n]| over the first K cylinder indicator
    functions, enumerated by length then lexicographic order.  The specific
    dense family is a free choice; only the contract properties (bounded by
    one, convexity, joint perturbation) are relied on by callers.
    """
    total = Fraction(0) if isinstance(mu.cylinder_mass((0,)), Fraction) else 0.0
    for n, w in enumerate(indicator_words(alphabet_bound, K), start=1):
        diff = mu.cylinder_mass(w) - nu.cylinder_mass(w)
        total += abs(diff) * Fraction(1, 2 ** (n + 1))
    return total

