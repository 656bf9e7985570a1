"""The language decided at every length: the pair walk and the class walk.

`measures.language_gap` walks pairs (state set of the automaton, image in
the branches' image table) to their fixed point and returns the shortest
word one side admits and the other refuses; it is the one place where the
automaton meets the table.  `measures.word_classes` counts the table's
words of each length in classes of their image.  Both are checked against
the word-by-word references of `word_reference`, on the real presentations
and on mutated ones; no fault is shipped in the package.
"""

import hashlib
import json
import time

import pytest

from negabeta import cli, measures, shiftgraph
from negabeta.algebraic import IntPolynomial, make_algebraic, parse_beta_spec
from negabeta.intervalmaps import example31_system
from negabeta.measures import image_table, language_gap, word_classes
from negabeta.shiftgraph import FoldedAutomaton, LabeledGraph, automaton_for
from negabeta.transform import MinusBetaSystem

from measure_reference import cylinder_walk, reference_interval
from pisot_bases import BASES
from test_cylinder_walk import NON_PISOT
from word_reference import count_words, cross_validate, reads

BIG = "poly:-2,0,2,-1,-2,1;interval:2,3"  # x^5 - 2x^4 - x^3 + 2x^2 - 2, 52 states
CUBIC = "poly:-1,-1,0,1;interval:1,2"


def _system(coeffs, lo, hi):
    return MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))


def _mutated(aut, drop=(), add=()):
    edges = (aut.graph.edges - set(drop)) | set(add)
    return FoldedAutomaton(LabeledGraph(aut.graph.vertex_count, frozenset(edges)),
                           aut.fold_start, aut.fold_period)


def _sides(graph, system, word):
    """(graph admits the word, its cylinder has interior)."""
    return bool(reads(graph, word)), reference_interval(system, word) is not None


@pytest.mark.parametrize("coeffs, lo, hi", BASES + NON_PISOT,
                         ids=[str(c) for c, _, _ in BASES + NON_PISOT])
def test_no_gap_on_every_base(coeffs, lo, hi):
    system = _system(coeffs, lo, hi)
    assert language_gap(automaton_for(system).graph, image_table(system)) is None


def test_no_gap_on_the_52_state_base():
    system = MinusBetaSystem(parse_beta_spec(BIG))
    assert automaton_for(system).graph.vertex_count == 52
    assert language_gap(automaton_for(system).graph, image_table(system)) is None


def test_a_retarget_first_seen_at_58_letters():
    """Edge (51,1,0) retargeted to 31: the reference bounded by 8 letters
    passes, the pair walk names a word of 58 letters that only one side admits."""
    system = MinusBetaSystem(parse_beta_spec(BIG))
    aut = automaton_for(system)
    assert (51, 1, 0) in aut.graph.edges
    mutated = _mutated(aut, drop=[(51, 1, 0)], add=[(51, 1, 31)])
    gap = language_gap(mutated.graph, image_table(system))
    assert gap is not None and len(gap) == 58
    admitted, interior = _sides(mutated.graph, system, gap)
    assert admitted != interior
    assert cross_validate(mutated, system, 8) == (True, None)


def test_example31_language_both_ways():
    fmap, presentation = example31_system()
    assert language_gap(presentation.graph, fmap.image_table) is None
    graph = presentation.graph
    dropped = LabeledGraph(graph.vertex_count, graph.edges - {(0, 1, 1)})
    # the map admits 12 (u1v with u = 1, v = 2); without the edge the presentation does not
    assert language_gap(dropped, fmap.image_table) == (1, 2)


@pytest.mark.parametrize("spec", [CUBIC, "poly:-1,-1,1;interval:1,2", "poly:-1,-1,-2,1;interval:2,3"])
def test_gap_is_the_least_shortest_counterexample(spec):
    """On every single-edge addition or retarget of the automaton, the pair
    walk's word is the first counterexample of the bounded reference, in
    (length, word) order, whenever it is at most 8 letters long."""
    system = MinusBetaSystem(parse_beta_spec(spec))
    aut = automaton_for(system)
    table = image_table(system)
    n = aut.graph.vertex_count
    mutations = [([], [(s, a, t)]) for s in range(n) for a in range(system.b + 1)
                 for t in range(n)]
    mutations += [([e], [(e[0], e[1], t)]) for e in sorted(aut.graph.edges) for t in range(n)]
    found = 0
    for drop, add in mutations:
        mutated = _mutated(aut, drop, add)
        gap = language_gap(mutated.graph, table)
        expected = cross_validate(mutated, system, 8)
        if gap is None or len(gap) > 8:
            assert expected == (True, None), (drop, add)
        else:
            assert expected == (False, gap), (drop, add)
            found += 1
    assert found


@pytest.mark.parametrize("spec", [CUBIC, "decimal:3", "poly:-1,-1,-2,1;interval:2,3", BIG])
def test_class_counts_are_the_word_counts(spec):
    """The table's classes count the automaton's words: a cross-check of the two engines."""
    system = MinusBetaSystem(parse_beta_spec(spec))
    graph = automaton_for(system).graph
    levels = list(word_classes(image_table(system), 9))
    counts = [sum(count for _, count in level.values()) for level in levels]
    assert counts == [count_words(graph, n) for n in range(1, 10)]


def test_class_words_are_the_least_in_preorder():
    """Each class holds the least of its words, and the classes of a level come in that order."""
    system = MinusBetaSystem(parse_beta_spec(CUBIC))
    least = {}
    for report in cylinder_walk(system, 7):
        least.setdefault((len(report.word), report.image), report.word)
    classes = {}
    for n, level in enumerate(word_classes(image_table(system), 7), 1):
        words = [word for word, _ in level.values()]
        assert words == sorted(words)
        classes.update(((n, image), word) for image, (word, _) in level.items())
    assert classes == least


def test_validate_names_the_gap_word_instead_of_a_traceback(monkeypatch, capsys):
    """An automaton that admits 101, whose cylinder has no interior, makes
    validate exit 1 through the language check, which names 101; the checks
    read off the table's word classes hold, since they read no automaton."""
    system = MinusBetaSystem(parse_beta_spec(CUBIC))
    mutated = _mutated(automaton_for(system), add=[(1, 0, 0)])
    for module in (shiftgraph, measures):
        monkeypatch.setattr(module, "automaton_for", lambda system: mutated)
    assert cli.main(["validate", "--beta", CUBIC, "--maxlen", "6", "--seed", "3"]) == 1
    checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["language_cross_validation"] == {
        "name": "language_cross_validation", "ok": False, "detail": "counterexample 101"}
    for name in ("cylinder_upper_bounds", "cylinder_lower_bounds_corrected",
                 "partition_identity", "count_submultiplicativity"):
        assert checks[name] == {"name": name, "ok": True, "detail": ""}


def test_cyl_prints_the_table_under_a_wrong_automaton(monkeypatch, capsys):
    """The same automaton admits 0101, whose cylinder has no interior; cyl reads
    the table alone, so it prints the rows of the true automaton with exit 0."""
    expected = [(cli.main(["cyl", "--beta", CUBIC, "--maxlen", str(maxlen)]), *capsys.readouterr())
                for maxlen in range(1, 5)]
    system = MinusBetaSystem(parse_beta_spec(CUBIC))
    mutated = _mutated(automaton_for(system), add=[(1, 0, 0)])
    for module in (shiftgraph, measures):
        monkeypatch.setattr(module, "automaton_for", lambda system: mutated)
    # the patch reaches the commands that read the automaton
    assert cli.main(["validate", "--beta", CUBIC, "--maxlen", "4"]) == 1
    capsys.readouterr()
    for maxlen, (code, out, err) in enumerate(expected, 1):
        assert (code, err) == (0, "") and out
        assert cli.main(["cyl", "--beta", CUBIC, "--maxlen", str(maxlen)]) == 0
        assert capsys.readouterr() == (out, ""), maxlen


def test_validate_decides_depth_40_on_base_3(capsys):
    """The class walk makes a long --maxlen cheap: the all-ok digest at depth 40."""
    start = time.perf_counter()
    assert cli.main(["validate", "--beta", "poly:-3,1;interval:2,4", "--maxlen", "40",
                     "--seed", "3"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f8c4b1cb93d2a1fafd87b8bc9994863031f286bcddefa2d3f35ff80dc1689679")
    assert elapsed < 2.0
