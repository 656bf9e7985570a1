"""Measure-side identities and per-word readings, as references for the tests.

The program reads cylinders, branching distances and Markov measures off
whole levels of the automaton and the image table (`measures.cylinder_table`,
`measures.g_beta_values`, `ldp`'s weighted components).  The definitions
here read one word or one measure at a time, and no module of the package
reads them:

- `image_walk(table, words)` and `cylinder_walk(system, maxlen)`: one
  `CylinderReport` per admissible word, in preorder, from the word listing
  of `word_reference.enumerate_words` (test_measures, test_cylinder_walk,
  test_language_gap, test_intervalmaps);
- `cylinder_rows(system, maxlen, digits)` and `cylinder_text(rows, fmt)`:
  the `cyl` table as one dict per report, and its CSV or JSON text through
  the standard library's writers (test_cylinder_table);
- `partition_identity_holds(system, n)`: the lengths hi - lo of the
  cylinders of the words of length n sum to 1 (test_measures,
  test_acceptance);
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

import csv
import io
import json
import math
import operator
import random
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from negabeta.algebraic import _bareiss, to_decimal
from negabeta.intervalmaps import PiecewiseExpandingMap
from negabeta.measures import (
    CylinderInterval, CylinderReport, Image, ImageTable, InadmissibleWord, MarkovMeasure,
    NotIrreducible, _coeff_text, _fold, _g_from_followers, _lower_constant, _psi_value,
    image_table,
)
from negabeta.shiftgraph import LabeledGraph, automaton_for, is_irreducible
from negabeta.transform import MinusBetaSystem, Word, word_to_text

from word_reference import enumerate_words


def image_walk(table: ImageTable,
               words: Iterable[tuple[Word, object]]) -> Iterator[tuple[Word, object, Image]]:
    """(word, tag, J_w) for each (word, tag) given in preorder, one step per word.

    Each word must come after its parent, with no word of the parent's length
    or shorter in between (the order of `word_reference.enumerate_words`,
    whose end states are the tags).  A stack holds one image per depth.
    Raises :class:`InadmissibleWord` when a word's cylinder has no interior.
    """
    stack = [table.root]
    for word, tag in words:
        del stack[len(word):]
        image = table.step(stack[-1], word[-1])
        if image is None or image[0] == image[2]:
            raise InadmissibleWord(f"no interior in the cylinder of word {word}")
        stack.append(image)
        yield word, tag, image


def cylinder_walk(system: MinusBetaSystem, maxlen: int) -> Iterator[CylinderReport]:
    """Reports for every admissible word up to maxlen, in preorder.

    Walks the folded automaton's words (the admissible words) through
    :func:`image_walk`.  c_w and the endpoints of [w] are integer vectors
    over one denominator D, the lcm of the denominators of the depth
    constants up to maxlen; each distinct endpoint becomes a canonical field
    element once, looked up by its vector.  A word's length and bound checks
    are read off its image.  A word branches when its end states have two
    followers.
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
    elements: dict[tuple[int, ...], object] = {}

    def endpoint(vector: tuple[int, ...]):
        value = elements.get(vector)
        if value is None:
            value = elements[vector] = system.beta._element(vector, den)
        return value

    offsets = [(0,) * system.beta.degree]  # c_w * D for each prefix of the current word
    for word, states, image in image_walk(table, enumerate_words(graph, maxlen)):
        n = len(word)
        del offsets[n:]
        offset = tuple(map(operator.sub, offsets[-1], terms[n][word[-1]]))
        offsets.append(offset)
        lo, lo_closed, hi, hi_closed = image
        lo_end = endpoint(tuple(map(operator.add, ends[n][lo], offset)))
        hi_end = endpoint(tuple(map(operator.add, ends[n][hi], offset)))
        if depths[n].decreasing:
            interval = CylinderInterval(word, hi_end, lo_end, hi_closed, lo_closed)
        else:
            interval = CylinderInterval(word, lo_end, hi_end, lo_closed, hi_closed)
        branching = len(graph.followers(states)) >= 2
        upper_ok, lower_ok = bounds(lo, hi)
        yield CylinderReport(interval, table.length(n, image), depths[n].scale, upper_ok,
                             branching, lower_ok if branching else None, image)


def cylinder_rows(system: MinusBetaSystem, maxlen: int, digits: int) -> list[dict]:
    """The `cyl` table as one dict per report of :func:`cylinder_walk`."""
    def texts(value) -> tuple[str, str]:
        return _coeff_text(value.nums, value.den), to_decimal(value, digits)

    rows = []
    for report in cylinder_walk(system, maxlen):
        interval = report.interval
        lo, lo_decimal = texts(interval.lo)
        hi, hi_decimal = texts(interval.hi)
        rows.append({
            "word": word_to_text(interval.word, system.b),
            "lo": lo,
            "hi": hi,
            "lo_decimal": lo_decimal,
            "hi_decimal": hi_decimal,
            "length": texts(report.length)[1],
            "upper_bound_ok": report.upper_bound_ok,
            "lower_bound_applicable": report.lower_bound_applicable,
            "lower_bound_ok": report.lower_bound_ok,
        })
    return rows


def cylinder_text(rows: list[dict], fmt: str) -> str:
    """The `cyl` stdout for the rows of :func:`cylinder_rows`: CSV rows in the key
    order of the first row, or JSON with sorted keys and an indent of 2."""
    if fmt == "json":
        return json.dumps({"rows": rows}, sort_keys=True, indent=2, allow_nan=False) + "\n"
    header = list(rows[0]) if rows else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows([row[key] for key in header] for row in rows)
    return buf.getvalue()


def partition_identity_holds(system: MinusBetaSystem, n: int) -> bool:
    """The cylinder lengths hi - lo of the words of length n sum to one exactly."""
    lengths = [r.interval.hi - r.interval.lo for r in cylinder_walk(system, n) if len(r.word) == n]
    return sum(lengths, system.beta.zero()) == 1


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
