"""Exact cylinder geometry and the measure-side objects.

Cylinder sets pull back to genuine subintervals of [0, 1]; their endpoints
are carried as exact field elements so the decay bounds and the partition
identity can be asserted with equality, not tolerance.  Markov and empirical
measures live on the folded automaton and feed the rate machinery.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from negabeta.algebraic import _solve_exact
from negabeta.shiftgraph import (
    LabeledGraph, _levels, automaton_for, enumerate_words, spectral_radius,
)
from negabeta.transform import MinusBetaSystem, Word


class MeasureError(Exception):
    """Base class for errors raised by this module."""


class InadmissibleWord(MeasureError):
    """The word codes no interval of positive length."""


class NoBranchReachable(MeasureError):
    """No extension of the word ever reaches a branching state."""


class NotIrreducible(MeasureError):
    """The operation needs a strongly connected component."""


# -- cylinders -------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderInterval:
    """Interval of points whose coding starts with a fixed word."""

    word: Word
    lo: object
    hi: object
    lo_closed: bool
    hi_closed: bool

    @property
    def length(self):
        return self.hi - self.lo

    def contains(self, x) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True


class Branch(NamedTuple):
    """One monotone affine branch x -> slope*x + intercept, on its coding cell.

    The cell has the endpoint fields of :class:`negabeta.transform.JInterval`.
    The branch keeps 1/slope and its orientation, so a walk through it needs
    no division and no sign test.
    """

    cell: object
    intercept: object
    inv_slope: object
    decreasing: bool


class CylinderFrame(NamedTuple):
    """The cylinder [w] of a word of length n and the inverse of T^n on it.

    phi_w(y) = slope*y + intercept maps T^n[w] onto [w]; it is the composite
    of the inverse branches along w, so |slope| is the product of their
    contractions (beta^-n for the negative-beta map).
    """

    cylinder: CylinderInterval
    slope: object
    intercept: object
    decreasing: bool

    @property
    def scale(self):
        """|slope|, the contraction of phi_w."""
        return -self.slope if self.decreasing else self.slope


def _root_frame(one) -> CylinderFrame:
    zero = one - one
    return CylinderFrame(CylinderInterval((), zero, one, True, True), one, zero, False)


def _extend(frame: CylinderFrame, branch: Branch, word: Word) -> Optional[CylinderFrame]:
    """Frame of `word`, one digit longer than the frame's word; None when empty.

    [wa] = [w] intersected with phi_w(cell_a), and phi_wa is phi_w after the
    inverse of branch a: a fixed number of field operations at any depth.
    """
    s, c = frame.slope, frame.intercept
    cell = branch.cell
    lo, hi = s * cell.lo + c, s * cell.hi + c
    lo_closed, hi_closed = cell.lo_closed, cell.hi_closed
    if frame.decreasing:
        lo, hi, lo_closed, hi_closed = hi, lo, hi_closed, lo_closed
    parent = frame.cylinder
    if parent.lo == lo:
        lo_closed = lo_closed and parent.lo_closed
    elif parent.lo > lo:
        lo, lo_closed = parent.lo, parent.lo_closed
    if parent.hi == hi:
        hi_closed = hi_closed and parent.hi_closed
    elif parent.hi < hi:
        hi, hi_closed = parent.hi, parent.hi_closed
    if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
        return None
    slope = s * branch.inv_slope
    return CylinderFrame(CylinderInterval(word, lo, hi, lo_closed, hi_closed),
                         slope, c - slope * branch.intercept,
                         frame.decreasing != branch.decreasing)


def affine_cylinder(word: Sequence[int], branches: Sequence[Branch],
                    one) -> Optional[CylinderFrame]:
    """Frame of one word, by the walk's step folded over its digits.

    Returns None when the cylinder is empty; a single point is returned as a
    degenerate interval.  Raises :class:`InadmissibleWord` for a digit that
    names no branch.  `one` fixes the arithmetic (a field element or a
    Fraction).
    """
    word = tuple(word)
    for digit in word:
        if not 0 <= digit < len(branches):
            raise InadmissibleWord(f"digit {digit} outside the alphabet")
    frame = _root_frame(one)
    for n in range(1, len(word) + 1):
        frame = _extend(frame, branches[word[n - 1]], word[:n])
        if frame is None:
            return None
    return frame


def affine_cylinder_walk(words: Iterable[Word], branches: Sequence[Branch],
                         one) -> Iterator[CylinderFrame]:
    """Frames of words given in preorder, one step per word.

    Each word must come after its parent, with no word of the parent's length
    or shorter in between (the order of a depth-first enumeration).  A stack
    holds one frame per depth, so a word costs O(1) field operations instead
    of an O(n) pullback.  Raises :class:`InadmissibleWord` when a word's
    cylinder has no interior.
    """
    stack = [_root_frame(one)]
    for word in words:
        if not 1 <= len(word) <= len(stack):
            raise ValueError(f"word {word} does not follow its parent")
        del stack[len(word):]
        frame = _extend(stack[-1], branches[word[-1]], word)
        if frame is None or frame.cylinder.lo == frame.cylinder.hi:
            raise InadmissibleWord(f"no interior in the cylinder of word {word}")
        stack.append(frame)
        yield frame


def _branches(system: MinusBetaSystem) -> list[Branch]:
    """Branches x -> (a+1) - beta*x of the negative-beta map on its partition."""
    inv_slope = -system.beta_inverse
    return [Branch(cell, a + 1, inv_slope, True) for a, cell in enumerate(system.partition())]


def _fold(system: MinusBetaSystem, word: Sequence[int]) -> CylinderFrame:
    word = tuple(word)
    frame = affine_cylinder(word, _branches(system), system.beta.one())
    if frame is None:
        raise InadmissibleWord(f"empty cylinder for word {word}")
    if frame.cylinder.lo == frame.cylinder.hi:
        raise InadmissibleWord(f"degenerate cylinder for word {word}")
    return frame


def cylinder_interval(system: MinusBetaSystem, word: Sequence[int]) -> CylinderInterval:
    """Exact coding cylinder, through the inverse branches y -> (digit + 1 - y)/beta.

    Raises :class:`InadmissibleWord` when the cylinder has no interior.
    """
    return _fold(system, word).cylinder


@dataclass(frozen=True)
class CylinderReport:
    """Exact cylinder and its length together with the two decay bound checks.

    `scale` is the contraction of the inverse branch on the cylinder
    (beta^-n for a word of length n).
    """

    interval: CylinderInterval
    length: object
    scale: object
    upper_bound_ok: bool
    lower_bound_applicable: bool
    lower_bound_ok: Optional[bool]

    @property
    def word(self) -> Word:
        return self.interval.word


def _report(frame: CylinderFrame, lower_constant, branching: bool) -> CylinderReport:
    interval = frame.cylinder
    length = interval.length
    scale = frame.scale
    lower_ok = length >= lower_constant * scale if branching else None
    return CylinderReport(interval, length, scale, length <= scale, branching, lower_ok)


def _lower_constant(system: MinusBetaSystem):
    """1 - b/beta, the constant of the lower bound on branching words."""
    return system.beta.one() - system.b * system.beta_inverse


def cylinder_measure(system: MinusBetaSystem, word: Sequence[int]) -> CylinderReport:
    """Exact Lebesgue length of the cylinder, with its bound report.

    The length never exceeds beta^-n; when the word admits two distinct
    one-letter extensions it is also at least (1 - b/beta) * beta^-n.  Both
    comparisons are exact field arithmetic.
    """
    frame = _fold(system, word)
    graph = automaton_for(system).graph
    branching = len(graph.followers(graph.reads(frame.cylinder.word))) >= 2
    return _report(frame, _lower_constant(system), branching)


def cylinder_walk(system: MinusBetaSystem, maxlen: int) -> Iterator[CylinderReport]:
    """Reports for every admissible word up to maxlen, in preorder.

    Walks the folded automaton's words (the admissible words, in the order of
    :meth:`MinusBetaSystem.enumerate_admissible`) through
    :func:`affine_cylinder_walk`, so each report costs O(1) field operations;
    a word branches when its end states have two followers.
    """
    graph = automaton_for(system).graph
    lower = _lower_constant(system)
    words, ends = itertools.tee(enumerate_words(graph, maxlen))
    frames = affine_cylinder_walk((w for w, _ in words), _branches(system), system.beta.one())
    for frame, (_, states) in zip(frames, ends):
        yield _report(frame, lower, len(graph.followers(states)) >= 2)


# -- branching distance ------------------------------------------------------------


def g_beta_word(system: MinusBetaSystem, word: Sequence[int]) -> int:
    """Distance (in extension length) from the word to the nearest branching.

    Works on follower sets of the folded automaton: the answer depends on the
    word only through the set of states its readings end in, so this is a
    breadth-first search over subsets rather than over words.
    """
    graph = automaton_for(system).graph
    start = graph.reads(tuple(word))
    if not start:
        raise InadmissibleWord(f"word {tuple(word)} is not admissible")
    return _g_from_followers(graph, start)


def _g_from_followers(graph: LabeledGraph, start: frozenset[int]) -> int:
    def step(level: frozenset[frozenset[int]]) -> frozenset[frozenset[int]]:
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
    frontier = {frozenset(range(graph.vertex_count))}
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

    def probs(self) -> dict:
        return dict(self.edge_probs)

    def pi(self) -> dict:
        return dict(self.stationary)

    def support_edges(self) -> set:
        return {e for e, p in self.edge_probs if p > 0}

    def entropy(self) -> float:
        pi = self.pi()
        acc = 0.0
        for (src, _, _), p in self.edge_probs:
            if p > 0:
                acc -= float(pi[src]) * float(p) * math.log(float(p))
        return acc

    def mean_label(self, psi) -> float:
        pi = self.pi()
        acc = 0.0
        for (src, label, _), p in self.edge_probs:
            if p > 0:
                acc += float(pi[src]) * float(p) * _psi_value(psi, label)
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


def _perron_vector(mat: np.ndarray, rho: float) -> np.ndarray:
    """Strictly positive eigenvector for the leading eigenvalue."""
    import numpy as np

    values, vectors = np.linalg.eig(mat)
    k = int(np.argmin(np.abs(values - rho)))
    vec = np.real(vectors[:, k])
    if vec.sum() < 0:
        vec = -vec
    if np.any(vec <= 0):
        # polish with a few shifted power steps; irreducibility makes it positive
        vec = np.abs(vec) + 1e-9
        for _ in range(200):
            vec = (mat + np.eye(mat.shape[0])) @ vec
            vec /= np.linalg.norm(vec)
    return vec


def markov_entropy(measure: MarkovMeasure) -> float:
    """Shannon entropy rate of the Markov measure (nats per symbol)."""
    return measure.entropy()


def parry_measure(graph: LabeledGraph, vertices: Optional[Sequence[int]] = None) -> MarkovMeasure:
    """Maximal-entropy Markov measure of an irreducible graph piece.

    Built from the Perron eigendata of the adjacency matrix: each edge out of
    p into q gets probability r_q / (rho * r_p), and the stationary law is the
    normalized product of left and right eigenvectors.  Its entropy equals the
    log of the spectral radius.
    """
    from negabeta.shiftgraph import is_irreducible

    verts = sorted(vertices) if vertices is not None else list(range(graph.vertex_count))
    if not is_irreducible(graph, verts):
        raise NotIrreducible("the maximal-entropy construction needs a strongly connected piece")
    index = {v: i for i, v in enumerate(verts)}
    mat = graph.adjacency(verts)
    rho = spectral_radius(mat)
    right = _perron_vector(mat, rho)
    left = _perron_vector(mat.T, rho)
    pi = left * right
    pi /= pi.sum()
    edge_probs = []
    for (s, a, t) in sorted(graph.edges):
        if s in index and t in index:
            p = right[index[t]] / (rho * right[index[s]])
            edge_probs.append(((s, a, t), p))
    stationary = tuple((v, pi[index[v]]) for v in verts)
    bound = max(graph.labels()) if graph.edges else 0
    return MarkovMeasure(graph, tuple(edge_probs), stationary, bound)


def random_markov_measure(graph: LabeledGraph, vertices: Sequence[int],
                          rng: random.Random) -> MarkovMeasure:
    """Random rational Markov measure on one strongly connected piece.

    Transition probabilities are random positive rationals on the component's
    edges; the stationary distribution is solved exactly over the rationals,
    so the balance equation holds with equality.
    """
    from negabeta.shiftgraph import is_irreducible

    verts = sorted(vertices)
    if not is_irreducible(graph, verts):
        raise NotIrreducible("random Markov measures are built on strongly connected pieces")
    vset = set(verts)
    out: dict[int, list] = {v: [] for v in verts}
    for e in sorted(graph.edges):
        s, _, t = e
        if s in vset and t in vset:
            out[s].append(e)
    edge_probs = {}
    for v in verts:
        weights = [Fraction(rng.randrange(1, 9)) for _ in out[v]]
        total = sum(weights)
        for e, w in zip(out[v], weights):
            edge_probs[e] = w / total
    # stationary distribution: solve pi P = pi exactly by Gaussian elimination
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    # (P^T - I) with its last row replaced by the normalization: nonsingular for irreducible P
    rows = [[Fraction(0)] * n for _ in range(n)]
    for e, p in edge_probs.items():
        s, _, t = e
        rows[idx[t]][idx[s]] += p
    for i in range(n):
        rows[i][i] -= 1
    rows[-1] = [Fraction(1)] * n
    rhs = [Fraction(0)] * (n - 1) + [Fraction(1)]
    pi = _solve_exact(rows, rhs)
    stationary = tuple((v, pi[idx[v]]) for v in verts)
    bound = max(graph.labels()) if graph.edges else 0
    return MarkovMeasure(graph, tuple(sorted(edge_probs.items())), stationary, bound)


def point_mass_on_cycle(graph: LabeledGraph, cycle_vertices_list: Sequence[int],
                        cycle_edges: Sequence[tuple[int, int, int]],
                        alphabet_bound: int) -> MarkovMeasure:
    """Invariant measure equidistributed along one directed cycle."""
    k = len(cycle_edges)
    edge_probs = tuple((e, Fraction(1)) for e in cycle_edges)
    stationary = tuple((v, Fraction(1, k)) for v in cycle_vertices_list)
    return MarkovMeasure(graph, edge_probs, stationary, alphabet_bound)


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


# -- exhaustive cylinder sweeps ---------------------------------------------------------------


def length_totals(cylinders: Iterable[CylinderInterval]) -> dict:
    """Exact sum of the cylinder lengths at each word length."""
    totals: dict = {}
    for cyl in cylinders:
        n = len(cyl.word)
        totals[n] = totals[n] + cyl.length if n in totals else cyl.length
    return totals


def partition_identity_holds(system: MinusBetaSystem, n: int) -> bool:
    """Sum of cylinder lengths at length n equals one exactly."""
    reports = cylinder_walk(system, n)
    return length_totals(r.interval for r in reports if len(r.word) == n).get(n) == 1


def additivity_holds(system: MinusBetaSystem, word: Sequence[int]) -> bool:
    """Cylinder length equals the sum over its admissible one-letter extensions."""
    parent = _fold(system, word)
    total = system.beta.zero()
    for c, branch in enumerate(_branches(system)):
        child = _extend(parent, branch, parent.cylinder.word + (c,))
        if child is not None:
            total = total + child.cylinder.length
    return total == parent.cylinder.length
