"""Measure-side identities and per-word readings, as references for the tests.

The program reads cylinders, branching distances and Markov measures off
whole levels of the automaton and the image table (`measures.cylinder_walk`,
`measures.g_beta_values`, `ldp`'s weighted components).  The definitions
here read one word or one measure at a time, and no module of the package
reads them:

- `additivity_holds(system, word)`: a cylinder's length is the sum of the
  lengths of its one-letter extensions (test_measures, test_transform);
- `g_beta_word(system, word)`: the distance from one word to the nearest
  branching (test_measures);
- `mean_label(measure, psi)`: the mean of an observable under a Markov
  measure (test_ldp);
- `example31_cylinder(fmap, word)`: the cylinder of one word of
  Example 3.1, read off the map's image table (test_intervalmaps,
  test_cylinder_walk);
- `random_markov_measure(graph, vertices, rng)` and
  `point_mass_on_cycle(...)`: Markov measures with exact rational
  probabilities, as inputs for the measure tests (test_measures,
  test_elimination).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from negabeta.algebraic import _bareiss
from negabeta.intervalmaps import PiecewiseExpandingMap
from negabeta.measures import (
    InadmissibleWord, MarkovMeasure, NotIrreducible, _fold, _g_from_followers, _psi_value,
)
from negabeta.shiftgraph import LabeledGraph, automaton_for, is_irreducible
from negabeta.transform import MinusBetaSystem


def additivity_holds(system: MinusBetaSystem, word: Sequence[int]) -> bool:
    """Cylinder length equals the sum over its one-letter extensions.

    Each extension's length is read off its image, |[wa]| = beta^-(n+1) |J_wa|,
    so the identity checks the table's branch maps against the partition.
    Raises :class:`InadmissibleWord` when the word's cylinder has no interior.
    """
    word = tuple(word)
    table, image, _ = _fold(system, word)
    n = len(word)
    children = (table.step(image, digit) for digit in range(len(table.cells)))
    return sum((table.length(n + 1, child) for child in children if child is not None),
               system.beta.zero()) == table.length(n, image)


def g_beta_word(system: MinusBetaSystem, word: Sequence[int]) -> int:
    """Distance (in extension length) from the word to the nearest branching.

    The answer depends on the word only through the set of states its
    readings end in, so this is a breadth-first search over state sets.
    """
    graph = automaton_for(system).graph
    start = graph.reads(tuple(word))
    if not start:
        raise InadmissibleWord(f"word {tuple(word)} is not admissible")
    return _g_from_followers(graph, start)


def mean_label(measure: MarkovMeasure, psi) -> float:
    """The stationary mean of psi(label) over the measure's edges."""
    pi = measure.pi()
    acc = 0.0
    for (src, label, _), p in measure.edge_probs:
        if p > 0:
            acc += float(pi[src]) * float(p) * _psi_value(psi, label)
    return acc


def example31_cylinder(fmap: PiecewiseExpandingMap, word: Sequence[int]):
    """Exact rational cylinder of a word under the half-open coding cells.

    Returns (lo, hi, lo_closed, hi_closed), or None when the cylinder is empty.
    Raises :class:`InadmissibleWord` for a digit outside the alphabet of
    branches.
    """
    table = fmap.image_table
    word = tuple(word)
    folded = table.fold(word)
    if folded is None:
        return None
    cyl = table.cylinder(word, *folded)
    return cyl.lo, cyl.hi, cyl.lo_closed, cyl.hi_closed


def random_markov_measure(graph: LabeledGraph, vertices: Sequence[int],
                          rng: random.Random) -> MarkovMeasure:
    """Random rational Markov measure on one strongly connected piece.

    Transition probabilities are random positive rationals on the component's
    edges; the stationary distribution is solved exactly by fraction-free
    elimination in integers, so the balance equation holds with equality.
    """
    verts = sorted(vertices)
    if not is_irreducible(graph, verts):
        raise NotIrreducible("random Markov measures are built on strongly connected pieces")
    vset = set(verts)
    out: dict[int, list] = {v: [] for v in verts}
    for e in sorted(graph.edges):
        s, _, t = e
        if s in vset and t in vset:
            out[s].append(e)
    weight, total = {}, {}
    for v in verts:
        for e in out[v]:
            weight[e] = rng.randrange(1, 9)
        total[v] = sum(weight[e] for e in out[v])
    edge_probs = {e: Fraction(w, total[e[0]]) for e, w in weight.items()}
    # stationary distribution: pi P = pi, with the last balance equation replaced
    # by sum(pi) = 1, nonsingular for irreducible P.  In q_v = pi_v / total_v the
    # balance at t reads sum over edges s -> t of weight * q_s = total_t * q_t,
    # so the system is integer and pi_v = total_v * q_v.
    n = len(verts)
    idx = {v: i for i, v in enumerate(verts)}
    aug = [[0] * (n + 1) for _ in range(n)]
    for (s, _, t), w in weight.items():
        aug[idx[t]][idx[s]] += w
    for i, v in enumerate(verts):
        aug[i][i] -= total[v]
    aug[-1] = [total[v] for v in verts] + [1]
    det, q = _bareiss(aug)
    if not det:
        raise NotIrreducible("the stationary distribution is not unique")
    stationary = tuple((v, Fraction(total[v] * qv, det)) for v, (qv,) in zip(verts, q))
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
