"""Finite presentations of the symbolic system attached to an expansion of 1.

Builds the infinite labeled graph prescribed by the expansion (a spine
through the prefixes of the expansion, and back edges to the longest
surviving border), one row of edge targets per vertex, each row read off the
row of the vertex's KMP failure link; folds it to a finite automaton using
the periodicity of the tail, and decomposes the result into the ordered chain
of irreducible pieces that carries every invariant measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

from negabeta.transform import DigitSequence, MinusBetaSystem, word_to_text

Edge = tuple[int, int, int]  # (source, label, target)


class ShiftGraphError(Exception):
    """Base class for errors raised by this module."""


class HorizonTooSmall(ShiftGraphError):
    """The requested horizon cannot accommodate the construction."""


class FoldNotVerified(ShiftGraphError):
    """No verified folding was found within the horizon."""


@dataclass(frozen=True)
class _GraphIndex:
    out: tuple[tuple[Edge, ...], ...]  # sorted out-edges per vertex
    succ: tuple[int, ...]  # vertex -> mask of its successors
    pred: tuple[int, ...]  # vertex -> mask of its predecessors
    targets: dict[int, tuple[int, ...]]  # label -> per source vertex, the mask of its targets
    sources: dict[int, tuple[int, ...]]  # label -> per target vertex, the mask of its sources
    labels: tuple[int, ...]  # ascending
    followers: dict  # state mask -> its (label, end mask) pairs, filled by LabeledGraph.followers


def mask_of(vertices: Iterable[int]) -> int:
    """The state mask of a collection of vertices: bit v is set iff v is in it."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> list[int]:
    """The vertices of a state mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _gather(rows: Sequence[int], states: int) -> int:
    """The union of the masks ``rows[v]`` over the vertices v of ``states``."""
    out = 0
    while states:
        low = states & -states
        out |= rows[low.bit_length() - 1]
        states ^= low
    return out


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable labeled directed graph on vertices 0..vertex_count-1.

    A set of vertices (a state set) is one int, its mask: bit v is set iff
    vertex v is in the set, so 0 is the empty set and :attr:`vertex_mask`
    the whole graph.  :meth:`step`, :meth:`back_step`, :meth:`forward`,
    :meth:`backward`, :meth:`followers` and
    :meth:`successors` take and return masks; :func:`mask_of` and
    :func:`vertices_of` convert.
    """

    vertex_count: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for src, label, dst in self.edges:
            if not (0 <= src < self.vertex_count and 0 <= dst < self.vertex_count):
                raise ValueError("edge endpoint outside the vertex range")
            if label < 0:
                raise ValueError("labels are nonnegative digits")

    @property
    def vertex_mask(self) -> int:
        """The mask of every vertex."""
        return (1 << self.vertex_count) - 1

    @cached_property
    def _index(self) -> _GraphIndex:
        """Edge lists and endpoint masks per vertex, built on first use."""
        n = self.vertex_count
        out: list[list[Edge]] = [[] for _ in range(n)]
        succ, pred = [0] * n, [0] * n
        targets: dict[int, list[int]] = {}
        sources: dict[int, list[int]] = {}
        for e in sorted(self.edges):
            s, a, t = e
            out[s].append(e)
            succ[s] |= 1 << t
            pred[t] |= 1 << s
            targets.setdefault(a, [0] * n)[s] |= 1 << t
            sources.setdefault(a, [0] * n)[t] |= 1 << s
        return _GraphIndex(
            out=tuple(map(tuple, out)),
            succ=tuple(succ),
            pred=tuple(pred),
            targets={a: tuple(rows) for a, rows in targets.items()},
            sources={a: tuple(rows) for a, rows in sources.items()},
            labels=tuple(sorted(targets)),
            followers={},
        )

    def out_edges(self, v: int) -> list[Edge]:
        return list(self._index.out[v])

    def labels(self) -> set[int]:
        return set(self._index.labels)

    def successors(self, v: int) -> int:
        """The mask of the vertices one edge from ``v``."""
        return self._index.succ[v]

    def step(self, states: int, label: int) -> int:
        """End states of the edges labeled ``label`` that leave ``states``, as a mask."""
        rows = self._index.targets.get(label)
        return _gather(rows, states) if rows else 0

    def followers(self, states: int) -> tuple[tuple[int, int], ...]:
        """(label, end mask) for each label, ascending, whose step from ``states`` is nonempty.

        Computed once per state set and kept on the graph index.
        """
        pairs = self._index.followers.get(states)
        if pairs is None:
            pairs = tuple((a, t) for a in self._index.labels if (t := self.step(states, a)))
            self._index.followers[states] = pairs
        return pairs

    def back_step(self, states: int, label: int) -> int:
        """Start states of the edges labeled ``label`` that enter ``states``, as a mask."""
        rows = self._index.sources.get(label)
        return _gather(rows, states) if rows else 0

    def forward(self, states: int) -> int:
        """Successors of the mask ``states`` along edges of any label."""
        return _gather(self._index.succ, states)

    def backward(self, states: int) -> int:
        """Predecessors of the mask ``states`` along edges of any label."""
        return _gather(self._index.pred, states)

    def induced(self, vertices: Iterable[int]) -> "LabeledGraph":
        """Subgraph on the given vertices, re-indexed in sorted order."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        edges = frozenset(
            (index[s], a, index[t]) for s, a, t in self.edges if s in index and t in index
        )
        return LabeledGraph(len(keep), edges)

    def adjacency(self, vertices: Optional[Sequence[int]] = None) -> np.ndarray:
        import numpy as np

        verts = list(vertices) if vertices is not None else list(range(self.vertex_count))
        index = {v: i for i, v in enumerate(verts)}
        mat = np.zeros((len(verts), len(verts)))
        for s, _, t in self.edges:
            if s in index and t in index:
                mat[index[s], index[t]] += 1
        return mat

    def to_dot(self, components: Optional[Sequence[Sequence[int]]] = None,
               *, alphabet_bound: int) -> str:
        lines = ["digraph shift {", "  rankdir=LR;"]
        claimed = set()
        if components:
            for i, comp in enumerate(components):
                lines.append(f"  subgraph cluster_{i} {{")
                lines.append(f'    label="component {i + 1}";')
                for v in sorted(comp):
                    lines.append(f"    V{v};")
                    claimed.add(v)
                lines.append("  }")
        for v in range(self.vertex_count):
            if v not in claimed:
                lines.append(f"  V{v};")
        for s, a, t in sorted(self.edges):
            lines.append(f'  V{s} -> V{t} [label="{word_to_text((a,), alphabet_bound)}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": sorted([s, a, t] for s, a, t in self.edges),
        }


Row = list[tuple[int, int]]  # one vertex's out-edges (label, target), labels ascending


def _gamma_rows(s: DigitSequence, horizon: int) -> list[Row]:
    """The out-edges of V0..V_horizon, the last vertex's empty.

    V_i stands for the borders of the spine word s_0..s_{i-1} (the lengths
    of its suffixes that are prefixes of s): i itself, then those of its
    longest proper border f(i), the KMP failure link.  So V_i's row is f(i)'s
    row (for V0, every digit to V0) less the digits that position i forbids
    in the alternating order (a > s_i at even i, a < s_i at odd i), with
    s_i sent to V_(i+1) when f(i)'s row admits it; its target there is
    f(i+1).  Every back edge must land at index at most u+v; that bound is
    asserted during the build.
    """
    u, v = s.u, s.v
    if horizon < u + 2 * v:
        raise HorizonTooSmall(f"horizon {horizon} < {u + 2 * v}")
    rows: list[Row] = []
    border = [(a, 0) for a in range(s.alphabet_bound + 1)]
    for i, d in enumerate(s.prefix(horizon)):
        row, link, odd = [], None, i % 2
        for a, j in border:
            if a == d:
                row.append((a, i + 1))
                link = j
            elif a > d if odd else a < d:
                if u + v < j <= i:
                    raise ShiftGraphError(f"back edge from V{i} lands at V{j} beyond u+v={u + v}")
                row.append((a, j))
        if link is None:
            raise ShiftGraphError(f"spine digit {d} is refused at V{i}")
        rows.append(row)
        border = rows[link]
    rows.append([])
    return rows


def _fold_index(i: int, start: int, period: int) -> int:
    return i if i < start + period else start + (i - start) % period


@dataclass(frozen=True)
class FoldedAutomaton:
    """Finite quotient of the infinite graph under verified tail periodicity."""

    graph: LabeledGraph
    fold_start: int
    fold_period: int


def _fold_rows(rows: Sequence[Row], u: int, v: int) -> FoldedAutomaton:
    """Fold the out-edges of V0..V_horizon onto a finite automaton by tail periodicity.

    Periodicity of the edge structure is guaranteed with period 2v, but a
    proper divisor of 2v may already work (integer bases fold at period v);
    candidates are tried smallest first.  A start index s (from u upward)
    verifies period p when V_i and V_(i+p) carry the same spine label and
    exact back-edge sets for every i in the 2v window from s, which cannot be
    fooled by the quotient map.  Each period is checked in one scan of i
    from u that counts the run of matching pairs, restarting it after a
    mismatch; the first run of 2v gives the smallest start.  Signatures are
    read in the order of that scan, so an ambiguous spine raises at the
    first vertex the scan reaches.
    """
    horizon = len(rows) - 1
    periods = sorted(d for d in range(1, 2 * v + 1) if (2 * v) % d == 0)

    @cache  # filled on first use, so an ambiguous spine raises where it is first read
    def signature(i: int) -> tuple[int, frozenset[tuple[int, int]]]:
        """The spine digit of V_i and its back edges (label, target)."""
        lbls = [a for a, t in rows[i] if t == i + 1]
        if len(lbls) != 1:
            raise FoldNotVerified(f"ambiguous spine at V{i}")
        return lbls[0], frozenset((a, t) for a, t in rows[i] if (a, t) != (lbls[0], i + 1))

    last_error = None
    for p in periods:
        max_start = horizon - (2 * v + p)  # the last start whose window fits
        start = u
        for i in range(u, max_start + 2 * v):
            if start > max_start:
                break
            if signature(i) != signature(i + p):
                start = i + 1
            elif i - start + 1 == 2 * v:
                return _build_folded(rows, start, p, u, v)
        last_error = f"period {p} not verified within horizon {horizon}"
    # period 2v is mathematically guaranteed for start >= u given enough room
    if horizon < u + 6 * v:
        raise FoldNotVerified(f"horizon {horizon} too small to verify folding")
    raise FoldNotVerified(last_error or "fold failed")


def _build_folded(rows: Sequence[Row], start: int, period: int, u: int, v: int) -> FoldedAutomaton:
    total = start + period
    edges = set()
    for s_ in range(total):
        for a, t in rows[s_]:
            target = _fold_index(t, start, period)
            if t != s_ + 1 and target > u + v:
                raise FoldNotVerified(f"folded back edge V{s_}->V{target} beyond u+v={u + v}")
            edges.add((s_, a, target))
    return FoldedAutomaton(LabeledGraph(total, frozenset(edges)), start, period)


@dataclass(frozen=True)
class ComponentChain:
    """Ordered irreducible pieces (l_i, n_i), the last one open-ended from N."""

    components: tuple[tuple[int, ...], ...]
    automaton: FoldedAutomaton

    @property
    def pairs(self) -> tuple[tuple[int, Optional[int]], ...]:
        return tuple((c[0], c[-1]) for c in self.components[:-1]) + ((self.N, None),)

    @property
    def N(self) -> int:
        return self.components[-1][0]

    @property
    def q(self) -> int:
        return len(self.components)

    def component_graph(self, i: int) -> LabeledGraph:
        return self.automaton.graph.induced(self.components[i])

    def to_json_dict(self) -> dict:
        out = []
        for (l, n), comp in zip(self.pairs, self.components):
            out.append({"l": l, "n": n, "vertices": sorted(comp)})
        return {"N": self.N, "components": out}


def _levels(step, start):
    """The items first reached from ``start`` after 0, 1, 2, ... steps.

    ``step`` maps a level to everything one step on: a graph's ``forward`` or
    ``backward`` on state masks, or a step over sets of state masks.  A
    caller that bounds the walk intersects inside its step.  The walk stops
    at the first empty level.  ``new - (new & seen)`` is the difference of
    two frozensets and of two masks alike.
    """
    seen = level = start
    while level:
        yield level
        new = step(level)
        level = new - (new & seen)
        seen = seen | level  # rebound: ``start`` may be the caller's set


def _reach(step, start: int) -> int:
    """The mask of everything the level walk from the mask ``start`` reaches."""
    reached = 0
    for level in _levels(step, start):
        reached |= level
    return reached


def is_irreducible(g: LabeledGraph, vertices: Iterable[int]) -> bool:
    """True iff the induced subgraph is strongly connected.

    A single vertex counts only when it carries a self-loop: a loop-free
    vertex generates no shift-invariant set.
    """
    vset = mask_of(vertices)
    if not vset:
        raise ValueError("vertex subset must be nonempty")
    root = vset & -vset
    if root == vset:
        return bool(g.successors(root.bit_length() - 1) & root)
    return all(_reach(lambda level, step=step: step(level) & vset, root) == vset
               for step in (g.forward, g.backward))


def _cyclic_components(g: LabeledGraph) -> list[tuple[int, ...]]:
    """The strong components with a cycle (more than one vertex, or a self-loop), sorted.

    Each takes what a backward level walk reaches inside a forward one, both off assigned states.
    """
    free = g.vertex_mask
    found = []
    while free:
        root = free & -free
        ahead = _reach(lambda level: g.forward(level) & free, root)
        comp = _reach(lambda level: g.backward(level) & ahead, root)
        free ^= comp
        if comp != root or g.successors(root.bit_length() - 1) & root:
            found.append(tuple(vertices_of(comp)))
    return found


def cycle_vertices(g: LabeledGraph) -> set[int]:
    """Vertices lying on some directed cycle: the union of the cyclic strong components."""
    return set().union(*_cyclic_components(g))


def decompose(aut: FoldedAutomaton) -> ComponentChain:
    """Ordered chain of irreducible pieces of the folded automaton.

    The pieces are the strong components with a cycle, in index order, the
    last one holding the last vertex.  This is the paper's construction (N
    the least k with V_k..V_last irreducible, each earlier piece the largest
    irreducible range, the next one from the next vertex of in-degree >= 2):
    every folded edge is a spine edge V_i -> V_(i+1) or goes to an index no
    larger than its source, so the target of a back edge lies on a cycle,
    strong components are ranges, and a vertex on no cycle has in-degree at
    most 1.  V0 always has the digit-0 loop, because s_0 = b >= 1.  Raises
    :class:`ShiftGraphError` when a component is not a range or the last vertex is on no cycle.
    """
    g = aut.graph
    components = _cyclic_components(g)
    for comp in components:
        if comp != tuple(range(comp[0], comp[-1] + 1)):
            raise ShiftGraphError(f"strong component {comp} is not a vertex range")
    if not components or components[-1][-1] != g.vertex_count - 1:
        raise ShiftGraphError("the last vertex lies on no cycle; folding is inconsistent")
    return ComponentChain(tuple(components), aut)


# -- words and entropy -----------------------------------------------------------


def spectral_radius(mat: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix, 0.0 when it is empty.

    One direct eigenvalue solve.  For the automaton, the tail component's
    value is anchored exactly by h_top = log beta.
    """
    import numpy as np

    if mat.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def _perron(mat: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The Perron data of an irreducible nonnegative matrix A: its Perron root
    rho, the edge probabilities Q_ij = r_j / (rho r_i) of its equilibrium
    chain (r the right Perron vector), and that chain's stationary law.

    An edge i -> j of weight w is taken with probability w Q_ij, so the
    chain's transition matrix is S = A Q, entry by entry; on an adjacency
    matrix each single edge has probability Q_ij, which is the Parry chain.

    The Perron root is the eigenvalue of largest real part, also when
    others share its modulus.  An eigensolver gives each vector entry to an
    absolute error near the largest entry times 2^-52, so entries many
    orders smaller (far out in t, for a weighted matrix) may be noise.
    While some entry i of r misses (A r)_i = rho r_i by a relative 1e-12, r
    is corrected by the Perron vector of diag(r)^-1 A diag(r), whose entries
    are near 1 where r is right: each pass gains about 16 orders of
    magnitude.  The stationary law is read off the off-diagonal entries of S
    by Grassmann-Taksar-Heyman elimination, which subtracts nothing and so
    keeps its relative accuracy when the chain is nearly reducible.
    """
    import numpy as np

    scaled = mat
    right = np.ones(len(mat))
    for _ in range(8):
        values, vectors = np.linalg.eig(scaled)
        k = int(np.argmax(values.real))
        rho = float(values[k].real)
        right = right * np.abs(vectors[:, k].real)
        right = np.maximum(right / right.max(), 1e-150)
        if np.all(np.abs(mat @ right - rho * right) <= 1e-12 * rho * right):
            break
        scaled = mat * right[None, :] / right[:, None]
    scale = right[None, :] / (rho * right[:, None])
    p = mat * scale
    n = len(p)
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.empty(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return rho, scale, pi / pi.sum()


def entropy_estimate(aut: FoldedAutomaton, vertices: Optional[Sequence[int]] = None) -> float:
    """Log of the spectral radius of the (component) adjacency matrix."""
    mat = aut.graph.adjacency(vertices)
    rho = spectral_radius(mat)
    return math.log(rho) if rho > 0 else float("-inf")


# -- construction convenience -----------------------------------------------------

def automaton_for(system: MinusBetaSystem) -> FoldedAutomaton:
    """The folded automaton of an exact system, built once and cached on it.

    The rows are built to horizon u+6v+4, which leaves the guaranteed period
    2v from index u the room that the fold needs to verify it, and are folded
    as they are: the folded graph is the only :class:`LabeledGraph` built.
    """
    if system._aut_cache is None:
        s = system.expansion_of_one()
        system._aut_cache = _fold_rows(_gamma_rows(s, s.u + 6 * s.v + 4), s.u, s.v)
    return system._aut_cache


def chain_for(system: MinusBetaSystem) -> ComponentChain:
    return decompose(automaton_for(system))
