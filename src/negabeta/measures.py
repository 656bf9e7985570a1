"""Exact cylinder geometry and the measure-side objects.

Cylinder sets pull back to genuine subintervals of [0, 1]; their endpoints
are exact field elements so the decay bounds and the partition identity can
be asserted with equality, not tolerance.  The cylinder table, the one
pullback, carries them as integer coefficient vectors over one denominator,
so a word costs integer tuple additions, and it formats each distinct
endpoint once.  Its set-up reads integer data too: the image table takes
its points from the orbit of 1 that the expansion walks, with no closure,
and the per-depth constants step as integer vectors.  Markov and
empirical measures live on the folded automaton and feed the rate machinery.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from negabeta.algebraic import FieldElement, to_decimal
from negabeta.shiftgraph import LabeledGraph, _levels, _perron, automaton_for, is_irreducible
from negabeta.transform import MinusBetaSystem, Word, word_separator


class MeasureError(Exception):
    """Base class for errors raised by this module."""


class InadmissibleWord(MeasureError):
    """The word codes no interval of positive length."""


class NoBranchReachable(MeasureError):
    """No extension of the word ever reaches a branching state."""


class NotIrreducible(MeasureError):
    """The operation needs a strongly connected component."""


class PointsNotClosed(MeasureError):
    """An image table's point set misses a cell endpoint or an image T_a(p) of one of its points."""


# -- cylinders -------------------------------------------------------------------


# An interval with endpoints in ImageTable.points: (lo index, lo_closed, hi index, hi_closed).
Image = tuple[int, bool, int, bool]


class _Depth(NamedTuple):
    """The constants of phi_w(y) = slope*y + c_w shared by all words of one length."""

    slope: object  # s_n = inv_slope^n
    scale: object  # |s_n|
    decreasing: bool  # s_n < 0, read off the branches' orientation
    lengths: dict  # (lo index, hi index) of J_w -> |[w]|


class ImageTable:
    """The branches of an interval map acting on the endpoints of its images T^n[w].

    The branches T_a(x) = slope*x + intercept_a share one slope, each on its
    cell of a partition of [0, 1]; the caller passes the slope and its
    inverse, so building the table inverts nothing.  T^n maps the cylinder
    [w] of a word of length n onto its image J_w = T^n[w], and J_wa is T_a
    of the cut of J_w by cell_a.  So every image endpoint lies in any point
    set P of [0, 1] that holds the cell endpoints and is closed under the
    branches, each acting on its closed cell.  The caller supplies P: for
    the negative-beta map of a Yrrap beta it is the cell endpoints {0, 1}
    and the k/beta together with the orbit of 1 (Ito & Sadahiro); for
    Example 3.1 it is the six cell endpoints.  P is sorted once, after which
    a point is its index: "p lies in the closed cell a" compares indices,
    an image is an :data:`Image` of indices and a digit's step compares
    integers.  Looking up every T_a(p) in P proves P closed; a point that
    is missing raises :class:`PointsNotClosed`.

    The inverse of T^n on [w] is phi_w(y) = s_n*y + c_w, with s_n = inv_slope^n
    and c_wa = c_w - s_{n+1}*intercept_a.  So [w] = phi_w(J_w) and
    |[w]| = |s_n| * |J_w|, exactly.
    """

    def __init__(self, cells: Sequence, intercepts: Sequence, slope, inv_slope, decreasing: bool,
                 points: Iterable):
        self.points = tuple(sorted(set(points)))
        index = {p: i for i, p in enumerate(self.points)}

        def find(p) -> int:
            i = index.get(p)
            if i is None:
                raise PointsNotClosed(f"{p!r} is a cell endpoint or an image of a point, "
                                      "but not in the point set")
            return i

        self.cells = tuple((find(cell.lo), cell.lo_closed, find(cell.hi), cell.hi_closed)
                           for cell in cells)
        # the index of T_a(p) for each point p of the closed cell a, None off it
        self.maps = tuple(tuple(find(slope * p + c) if lo <= i <= hi else None
                                for i, p in enumerate(self.points))
                          for (lo, _, hi, _), c in zip(self.cells, intercepts))
        self.root: Image = (0, True, len(self.points) - 1, True)
        self.inv_slope = inv_slope
        self.decreasing = decreasing
        self._depths = [_Depth(self.points[-1], self.points[-1], False, {})]
        self._children: dict[Image, tuple[tuple[int, Image], ...]] = {}

    def depth(self, n: int) -> _Depth:
        """The constants of phi_w for words of length n, computed once per depth."""
        depths = self._depths
        while len(depths) <= n:
            slope = depths[-1].slope * self.inv_slope
            decreasing = depths[-1].decreasing != self.decreasing
            depths.append(_Depth(slope, -slope if decreasing else slope, decreasing, {}))
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

    def children(self, image: Image) -> tuple[tuple[int, Image], ...]:
        """(a, J_wa) for each digit a, ascending, whose cylinder [wa] has interior, from J_w.

        Found once per image and kept on the table.
        """
        found = self._children.get(image)
        if found is None:
            found = self._children[image] = tuple(
                (digit, child) for digit in range(len(self.cells))
                if (child := self.step(image, digit)) is not None and child[0] != child[2])
        return found


def word_classes(table: ImageTable, maxlen: int) -> Iterator[dict[Image, list]]:
    """The words of length 1, 2, ..., maxlen whose cylinders have interior, by length, as classes.

    A word's image J_w in ``table`` fixes its one-letter extensions and
    their images, so the words of one length fall into classes keyed by J_w.
    Each level maps an image to [the least word of the class in tuple order,
    which is preorder; the number of words].  A class steps by
    :meth:`ImageTable.children`, and the counts of classes that merge add.
    The step is deterministic, so each word lies in exactly one class and the
    counts are exact; a level's classes come in the order of their least
    words.
    """
    level = {table.root: [(), 1]}
    for _ in range(maxlen):
        children: dict = {}
        for image, (word, count) in level.items():
            for digit, child in table.children(image):
                entry = children.get(child)
                if entry is None:
                    children[child] = [word + (digit,), count]
                else:
                    entry[1] += count
        yield children
        level = children


def language_gap(graph: LabeledGraph, table: ImageTable) -> Optional[Word]:
    """The shortest word that exactly one of ``graph`` and ``table`` admits, or None.

    The graph admits a word it reads from some state; the table admits a
    word whose cylinder has interior.  Among gaps of equal length the least
    in tuple order comes first.  Walks the pairs (end state mask, J_w)
    breadth first, digits ascending, to the fixed point: whether a pair's
    words extend by a digit depends on the pair alone, so a pair met at an
    earlier length is not walked again, and a pair is first met with its
    least word.  So the two languages are compared at every length in
    finitely many steps.
    """
    start = (graph.vertex_mask, table.root)
    seen, level = {start}, {start: ()}
    while level:
        children = {}
        for (states, image), word in level.items():
            ends, images = dict(graph.followers(states)), dict(table.children(image))
            for digit in sorted(ends.keys() | images.keys()):
                if (digit in ends) != (digit in images):
                    return word + (digit,)
                pair = (ends[digit], images[digit])
                if pair not in seen:
                    seen.add(pair)
                    children[pair] = word + (digit,)
        level = children
    return None


def image_table(system: MinusBetaSystem) -> ImageTable:
    """The image table of x -> (a+1) - beta*x on the partition, cached on the system.

    Its points are the cell endpoints and the orbit of 1 that the expansion
    of 1 walks.
    """
    if system._table_cache is None:
        cells = system.partition()
        points = {x for cell in cells for x in (cell.lo, cell.hi)}
        points.update(FieldElement(system.beta, nums, 1) for nums in system.orbit_of_one)
        system._table_cache = ImageTable(cells, [a + 1 for a in range(len(cells))],
                                         -system.beta_element, -system.beta_inverse, True,
                                         points)
    return system._table_cache


def _lower_constant(system: MinusBetaSystem):
    """1 - b/beta, the constant of the lower bound on branching words."""
    return system.beta.one() - system.b * system.beta_inverse


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


def _depth_vectors(system: MinusBetaSystem, maxlen: int) -> tuple[int, list, list]:
    """(D, ends, terms): D*s_n*p for each table point p and D*s_n*(a+1) for each
    digit a, for n = 0..maxlen, as integer vectors, with s_n = (-1/beta)^n.

    Each depth steps the one before by the companion map of -1/beta: for the
    minimal polynomial c_0 + c_1 x + ... + x^d, v -> (v_0 c_(k+1)/c_0 - v_(k+1))_k,
    with v_d = 0.  The points lie in Z[beta]/L, L the lcm of their
    denominators, and each step divides by c_0 once, so over
    D = L*|c_0|^maxlen every division is exact.  The point 1 is the table's
    last, so D*s_n*(a+1) is (a+1) times its vector.
    """
    table = image_table(system)
    coefficients = system.beta.minpoly.coefficients
    c0, shifted = coefficients[0], coefficients[1:]
    den = math.lcm(*(p.den for p in table.points)) * abs(c0) ** maxlen
    at = [tuple(x * (den // p.den) for x in p.nums) for p in table.points]
    ends = [at]
    for _ in range(maxlen):
        at = [tuple(v[0] // c0 * c - x for c, x in zip(shifted, (*v[1:], 0))) for v in at]
        ends.append(at)
    digits = range(1, len(table.cells) + 1)
    terms = [[tuple(a * x for x in at[-1]) for a in digits] for at in ends]
    return den, ends, terms


def cylinder_table(system: MinusBetaSystem, maxlen: int, digits: int) -> list[tuple]:
    """One row of :data:`CYLINDER_COLUMNS` for every admissible word up to maxlen, in preorder.

    One depth-first walk over the words whose cylinders have interior (the
    admissible words), children in digit order, on an explicit stack of
    (word text, length n, image J_w, c_w); a word's children are those of
    its image (:meth:`ImageTable.children`).  c_w and the endpoints
    phi_w(J_w) of [w] are integer vectors over one denominator D
    (:func:`_depth_vectors`), so a word costs index comparisons in the image
    table and three tuple additions.  Each distinct endpoint vector is
    formatted once, its decimal read off the vector over D as it stands: a
    decimal depends on the value alone, so no vector is brought to lowest
    terms.  A word's length (the difference of its endpoints) and both bound
    checks are read off its image, once per (depth, image), so no word needs
    a sign test.  A word branches when its image has two children.
    """
    table = image_table(system)
    bounds = table.bounds(_lower_constant(system))
    den, ends, terms = _depth_vectors(system, maxlen)
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
    images: list[dict] = [{} for _ in ends]
    sep = word_separator(system.b)
    rows = []
    stack = [("", 0, table.root, (0,) * field.degree)]
    while stack:
        text, n, image, offset = stack.pop()
        children = table.children(image)
        if n:
            lo, _, hi, _ = image
            at = ends[n]
            decreasing = n % 2 == 1  # s_n = (-1/beta)^n
            lo_end = endpoint(tuple(map(operator.add, at[lo], offset)))
            hi_end = endpoint(tuple(map(operator.add, at[hi], offset)))
            if decreasing:
                lo_end, hi_end = hi_end, lo_end
            measured = images[n].get((lo, hi))
            if measured is None:
                width = tuple(map(operator.sub, at[hi], at[lo]))
                if decreasing:
                    width = tuple(map(operator.neg, width))
                measured = images[n][lo, hi] = (decimal(width), *bounds(lo, hi))
            length, upper_ok, lower_ok = measured
            branching = len(children) >= 2
            rows.append((text, lo_end[0], hi_end[0], lo_end[1], hi_end[1], length, upper_ok,
                         branching, lower_ok if branching else None))
        if n < maxlen:
            prefix, m = (text + sep if n else ""), n + 1
            step = terms[m]
            stack.extend((prefix + str(a), m, child, tuple(map(operator.sub, offset, step[a])))
                         for a, child in reversed(children))
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


def parry_measure(graph: LabeledGraph) -> MarkovMeasure:
    """Maximal-entropy Markov measure of an irreducible graph piece.

    Built from the Perron data of the adjacency matrix
    (:func:`negabeta.shiftgraph._perron`): each edge out of p into q gets
    probability r_q / (rho * r_p), and the stationary law is that chain's.
    Its entropy equals the log of the spectral radius.
    """
    verts = range(graph.vertex_count)
    if not is_irreducible(graph, verts):
        raise NotIrreducible("the maximal-entropy construction needs a strongly connected piece")
    _, scale, pi = _perron(graph.adjacency())
    edge_probs = tuple(((s, a, t), scale[s, t]) for s, a, t in sorted(graph.edges))
    stationary = tuple((v, pi[v]) for v in verts)
    bound = max(graph.labels()) if graph.edges else 0
    return MarkovMeasure(graph, edge_probs, stationary, bound)


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

