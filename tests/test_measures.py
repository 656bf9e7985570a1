"""Cylinders, decay bounds, branching distances, Markov and empirical measures."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.measures import (
    InadmissibleWord,
    MixtureMeasure,
    NotIrreducible,
    cylinder_interval,
    cylinder_measure,
    cylinder_walk,
    empirical_measure,
    g_beta_n,
    max_truncation,
    parry_measure,
    weak_metric_truncated,
)
from negabeta.shiftgraph import LabeledGraph, automaton_for, decompose
from negabeta.transform import MinusBetaSystem

from map_reference import in_interval
from measure_reference import (
    additivity_holds, g_beta_word, point_mass_on_cycle, random_markov_measure,
)
from pisot_bases import BASES
from word_reference import enumerate_admissible, partition_identity_holds, word_admissible


@pytest.fixture(scope="module")
def pisot_sys():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 0, 1)), 1, 2))
    sys.expansion_of_one()
    return sys


@pytest.fixture(scope="module")
def two_sys():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-2, 1)), 1, 3))
    sys.expansion_of_one()
    return sys


# -- cylinders -------------------------------------------------------------------


def test_cylinder_beta2_single_digit(two_sys):
    cyl = cylinder_interval(two_sys, (1,))
    assert cyl.lo == Fraction(1, 2) and not cyl.lo_closed
    assert cyl.hi == 1 and cyl.hi_closed
    assert cyl.length == Fraction(1, 2)


def test_cylinder_beta2_contains_fixed_point(two_sys):
    cyl = cylinder_interval(two_sys, (1, 1))
    assert cyl.length == Fraction(1, 4)
    assert in_interval(cyl, two_sys.beta.from_rational(Fraction(2, 3)))


def test_cylinder_empty_word(two_sys):
    cyl = cylinder_interval(two_sys, ())
    assert cyl.lo == 0 and cyl.hi == 1 and cyl.length == 1


def test_cylinder_pisot_single_digit(pisot_sys):
    g = pisot_sys.beta.generator()
    cyl = cylinder_interval(pisot_sys, (1,))
    assert cyl.length == 1 - 1 / g


def test_cylinder_inadmissible(pisot_sys):
    with pytest.raises(InadmissibleWord):
        cylinder_interval(pisot_sys, (1, 0, 1))
    with pytest.raises(InadmissibleWord):
        cylinder_interval(pisot_sys, (5,))


def test_beta2_cylinders_are_uniform(two_sys):
    for w in ((0,), (1, 0), (0, 1, 1), (1, 1, 0, 1)):
        report = cylinder_measure(two_sys, w)
        assert report.length == Fraction(1, 2 ** len(w))
        assert report.upper_bound_ok and report.lower_bound_ok


def test_exhaustive_bounds_pisot(pisot_sys):
    g = pisot_sys.beta.generator()
    one = pisot_sys.beta.one()
    corrected = (one - 1 / g) / g
    for report in cylinder_walk(pisot_sys, 8):
        assert report.upper_bound_ok
        if report.lower_bound_applicable:
            # the stated constant can fail (see the counterexample test); the
            # corrected constant, one branch contraction smaller, never does
            assert report.length * g ** len(report.word) >= corrected


@pytest.mark.parametrize("coeffs, lo, hi", BASES, ids=[str(c) for c, _, _ in BASES])
def test_branching_flag_counts_admissible_extensions(coeffs, lo, hi):
    """The walk reads branching off the automaton's state sets; counting the
    one-letter extensions that word_admissible accepts is the reference."""
    sys = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    for report in cylinder_walk(sys, 6):
        count = sum(1 for c in range(sys.b + 1) if word_admissible(sys, report.word + (c,)))
        assert report.lower_bound_applicable == (count >= 2), report.word
        if len(report.word) <= 3:
            assert cylinder_measure(sys, report.word) == report


def test_per_word_lower_bound_counterexample(pisot_sys):
    """The claimed per-word constant fails at 1001: its cylinder equals the
    cylinder of 100 (the fourth digit is forced), so one contraction step is
    lost and the exact length is (1-1/beta) * beta^-5, not beta^-4."""
    g = pisot_sys.beta.generator()
    one = pisot_sys.beta.one()
    assert word_admissible(pisot_sys, (1, 0, 0, 1, 0))
    assert word_admissible(pisot_sys, (1, 0, 0, 1, 1))
    length = cylinder_interval(pisot_sys, (1, 0, 0, 1)).length
    assert length == cylinder_interval(pisot_sys, (1, 0, 0)).length
    assert length == (one - 1 / g) / g**5
    assert not length >= (one - 1 / g) / g**4


def test_partition_identity(pisot_sys, two_sys):
    for sys in (pisot_sys, two_sys):
        for n in range(1, 9):
            assert partition_identity_holds(sys, n)


def test_additivity_exact(pisot_sys):
    for w in ((), (1,), (0, 0), (1, 1), (1, 0, 0)):
        assert additivity_holds(pisot_sys, w)


def test_cylinder_shorter_than_scale(pisot_sys):
    g = pisot_sys.beta.generator()
    for report in cylinder_walk(pisot_sys, 6):
        assert report.length <= 1 / g ** len(report.word)


# -- branching distances ----------------------------------------------------------


def test_g_pisot_bounded_by_two(pisot_sys):
    values = [g_beta_n(pisot_sys, n) for n in range(1, 13)]
    assert max(values) <= 2
    assert 2 in values


def test_g_beta2_identically_zero(two_sys):
    for n in range(1, 9):
        assert g_beta_n(two_sys, n) == 0


def test_g_word_at_branching_state(pisot_sys):
    assert g_beta_word(pisot_sys, (1, 1)) == 0  # follower branches immediately
    assert g_beta_word(pisot_sys, (1, 1, 0)) == 2  # deepest state of the tail cycle


def g_word_oracle(sys, word, cap=8):
    """Brute force: scan extensions by length for a double continuation."""
    for i in range(cap):
        for v in _words(sys.b, i):
            wv = tuple(word) + v
            if not word_admissible(sys, wv):
                continue
            count = sum(1 for c in range(sys.b + 1) if word_admissible(sys, wv + (c,)))
            if count >= 2:
                return i
    raise AssertionError("no branching found")


def _words(bound, length):
    if length == 0:
        yield ()
        return
    for w in _words(bound, length - 1):
        for c in range(bound + 1):
            yield w + (c,)


def test_g_word_matches_brute_force(pisot_sys):
    for word in enumerate_admissible(pisot_sys, 5):
        assert g_beta_word(pisot_sys, word) == g_word_oracle(pisot_sys, word)


# -- Markov measures -----------------------------------------------------------------


def test_parry_entropy_is_log_spectral_radius(pisot_sys):
    chain = decompose(automaton_for(pisot_sys))
    measure = parry_measure(chain.component_graph(2))
    assert abs(measure.entropy() - pisot_sys.log_beta()) < 1e-9


def test_parry_full_shift_is_uniform(two_sys):
    measure = parry_measure(automaton_for(two_sys).graph)
    assert abs(measure.entropy() - math.log(2)) < 1e-12
    assert all(abs(p - 0.5) < 1e-12 for _, p in measure.edge_probs)


def test_parry_deterministic_cycle_has_zero_entropy():
    cycle = LabeledGraph(3, frozenset({(0, 0, 1), (1, 1, 2), (2, 0, 0)}))
    measure = parry_measure(cycle)
    assert abs(measure.entropy()) < 1e-12


def test_parry_rejects_reducible():
    g = LabeledGraph(2, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1)}))
    with pytest.raises(NotIrreducible):
        parry_measure(g)


def test_random_markov_is_exactly_stationary(pisot_sys):
    rng = random.Random(5)
    chain = decompose(automaton_for(pisot_sys))
    g = chain.automaton.graph
    measure = random_markov_measure(g, chain.components[2], rng)
    pi = measure.pi()
    probs = dict(measure.edge_probs)
    for v in chain.components[2]:
        incoming = sum(
            pi[s] * p for (s, _, t), p in probs.items() if t == v
        )
        assert incoming == pi[v]
    row_sums = {}
    for (s, _, _), p in probs.items():
        row_sums[s] = row_sums.get(s, Fraction(0)) + p
    assert all(total == 1 for total in row_sums.values())


def test_point_mass_on_cycle():
    cycle = LabeledGraph(2, frozenset({(0, 1, 1), (1, 0, 0)}))
    mass = point_mass_on_cycle(cycle, [0, 1], [(0, 1, 1), (1, 0, 0)], 1)
    assert sum(p for _, p in mass.stationary) == 1
    assert mass.entropy() == 0


def reference_cylinder_mass(measure, word):
    """The loop cylinder_mass had: a scan of every edge probability per step."""
    states = {v: float(p) for v, p in measure.stationary if p > 0}
    for a in tuple(word):
        nxt = {}
        for (src, label, dst), p in measure.edge_probs:
            if label == a and src in states and p > 0:
                nxt[dst] = nxt.get(dst, 0.0) + states[src] * float(p)
        states = nxt
        if not states:
            return 0.0
    return sum(states.values())


def test_cylinder_mass_matches_edge_scan(pisot_sys, two_sys):
    # per-label edge lists keep the edge_probs order, so every float sum is
    # added in the same order and the masses are equal, not close
    golden_sys = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 1)), 1, 2))
    # every vertex reads 0 and 1 into every vertex, so each mass sums 4 terms
    dense = LabeledGraph(4, frozenset(itertools.product(range(4), (0, 1), range(4))))
    rng = random.Random(17)
    cases = [(dense, [range(4)], 1)]
    for system in (pisot_sys, two_sys, golden_sys):
        chain = decompose(automaton_for(system))
        cases.append((chain.automaton.graph, chain.components, system.b))
    for g, components, b in cases:
        measures = []
        for comp in components:
            measures.append(parry_measure(g, comp))
            measures += [random_markov_measure(g, comp, rng) for _ in range(3)]
        alphabet = range(b + 2)  # one label that no edge carries
        words = [w for n in range(6) for w in itertools.product(alphabet, repeat=n)]
        for measure in measures:
            for w in words:
                assert measure.cylinder_mass(w) == reference_cylinder_mass(measure, w), w


# -- empirical measures ------------------------------------------------------------------


def test_empirical_constant_itinerary():
    em = empirical_measure((0,) * 10, 2)
    assert em.cylinder_mass((0, 0)) == 1
    assert em.cylinder_mass((0,)) == 1
    assert em.cylinder_mass((1,)) == 0


def test_empirical_cycle_depth_one():
    em = empirical_measure((1, 1, 1, 1), 1)
    assert em.cylinder_mass((1,)) == 1


def test_empirical_frequencies_sum_to_one():
    rng = random.Random(3)
    word = tuple(rng.randrange(0, 3) for _ in range(40))
    em = empirical_measure(word, 3, alphabet_bound=2)
    assert sum(f for _, f in em.freqs) == 1


# -- truncated weak metric ----------------------------------------------------------------


def _random_empirical(rng, length=30, depth=2, bound=1):
    word = tuple(rng.randrange(0, bound + 1) for _ in range(length))
    return empirical_measure(word, depth, alphabet_bound=bound)


def test_metric_identity_and_bound():
    rng = random.Random(11)
    K = max_truncation(1, 2)
    for _ in range(50):
        mu = _random_empirical(rng)
        nu = _random_empirical(rng)
        assert weak_metric_truncated(mu, mu, K, 1) == 0
        assert weak_metric_truncated(mu, nu, K, 1) <= 1


def test_metric_convexity_inequality():
    rng = random.Random(12)
    K = max_truncation(1, 2)
    for _ in range(60):
        parts = rng.randrange(2, 4)
        weights = [Fraction(rng.randrange(1, 5)) for _ in range(parts)]
        total = sum(weights)
        weights = [w / total for w in weights]
        mus = [_random_empirical(rng) for _ in range(parts)]
        nus = [_random_empirical(rng) for _ in range(parts)]
        left = weak_metric_truncated(
            MixtureMeasure(tuple(zip(weights, mus))),
            MixtureMeasure(tuple(zip(weights, nus))),
            K, 1,
        )
        right = sum(w * weak_metric_truncated(m, n, K, 1)
                    for w, m, n in zip(weights, mus, nus))
        assert left <= right


def test_metric_joint_perturbation_bound():
    rng = random.Random(13)
    K = max_truncation(1, 2)
    for _ in range(60):
        parts = rng.randrange(2, 4)
        a = [Fraction(rng.randrange(1, 5)) for _ in range(parts)]
        a = [x / sum(a) for x in a]
        shift = Fraction(rng.randrange(0, 3), 100)
        b = list(a)
        b[0] = b[0] + shift
        b[-1] = b[-1] - shift
        if any(x < 0 for x in b):
            continue
        mus = [_random_empirical(rng) for _ in range(parts)]
        nus = [_random_empirical(rng) for _ in range(parts)]
        zeta = max(
            [sum(abs(x - y) for x, y in zip(a, b))]
            + [weak_metric_truncated(m, n, K, 1) for m, n in zip(mus, nus)]
        )
        left = weak_metric_truncated(
            MixtureMeasure(tuple(zip(a, mus))),
            MixtureMeasure(tuple(zip(b, nus))),
            K, 1,
        )
        assert left <= 2 * zeta
