"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math
import random
import time
from fractions import Fraction
from math import comb

import pytest

from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.intervalmaps import (
    CircleMap,
    circle_mc_deviation,
    circle_nonwandering,
    example31_system,
    predicted_occupation_rate,
)
from negabeta.ldp import compare_rate_functions, mc_deviation
from negabeta.measures import (
    MixtureMeasure,
    cylinder_interval,
    empirical_measure,
    g_beta_n,
    max_truncation,
    weak_metric_truncated,
)
from negabeta.shiftgraph import (
    automaton_for,
    decompose,
    entropy_estimate,
)
from negabeta.specprop import (
    SoficPresentation,
    bruteforce_exact_min,
    ergodic_support_check,
    gluing_test,
    spec_bound,
)
from negabeta.transform import (
    Case,
    HitBoundary,
    MinusBetaSystem,
)
from exact_tails import MAX_SIGMAS, SEEDS, circle_tail, lebesgue_tail, sigmas
from map_reference import itinerary
from word_reference import (
    Ordering, alt_compare, cross_validate, enumerate_admissible, partition_identity_holds,
    word_admissible,
)

DIGIT1 = {0: 0.0, 1: 1.0}


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[acceptance {num:02d}] {status} {name}{suffix}")
    assert ok, f"criterion {num} failed — {name}{suffix}"


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


@pytest.fixture(scope="module")
def three_sys():
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-3, 1)), 2, 4))
    sys.expansion_of_one()
    return sys


def test_c01_yrrap_pipeline():
    start = time.perf_counter()
    sys = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 0, 1)), 1, 2))
    seq = sys.expansion_of_one()
    elapsed = time.perf_counter() - start
    ok = (
        seq.preperiod == (1, 0, 0)
        and seq.period == (1,)
        and sys.case is Case.CASE2
        and elapsed < 1.0
    )
    _report(1, "expansion of 1 is 100(1)^inf, Case 2, under one second", ok,
            f"got {seq.to_text()} {sys.case.value} in {elapsed:.3f}s")


def test_c02_graph_fidelity(pisot_sys, two_sys):
    aut = automaton_for(pisot_sys)
    chain = decompose(aut)
    pisot_ok = (
        aut.graph.vertex_count == 5
        and chain.q == 3
        and chain.components == ((0,), (1,), (2, 3, 4))
        and aut.graph.out_edges(0) == [(0, 0, 0), (0, 1, 1)]
        and aut.graph.out_edges(1) == [(1, 0, 2), (1, 1, 1)]
    )
    aut2 = automaton_for(two_sys)
    two_ok = aut2.graph.vertex_count == 2 and aut2.graph.edges == frozenset(
        {(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)}
    )
    _report(2, "five-state chain with q=3 for the cubic base; full 2-shift for base 2",
            pisot_ok and two_ok)


def test_c03_entropy_anchor(pisot_sys):
    chain = decompose(automaton_for(pisot_sys))
    tail_entropy = entropy_estimate(chain.automaton, chain.components[2])
    total = entropy_estimate(chain.automaton)
    beta = float(pisot_sys.beta_element)
    rho = math.exp(tail_entropy)
    ok = (
        abs(rho - beta) < 1e-9
        and abs(rho**3 - rho - 1) < 1e-8
        and abs(total - math.log(beta)) < 1e-9
    )
    _report(3, "tail spectral radius equals beta and chain entropy equals log beta (1e-9)",
            ok, f"|rho-beta|={abs(rho - beta):.2e}")


def test_c04_language_cross_validation(pisot_sys, two_sys, three_sys):
    details = []
    ok = True
    for sys, name in ((two_sys, "base 2"), (three_sys, "base 3"), (pisot_sys, "cubic")):
        good, counterexample = cross_validate(automaton_for(sys), sys, 10)
        ok = ok and good
        if not good:
            details.append(f"{name} mismatch at {counterexample}")
    _report(4, "automaton language equals order-admissible words to length 10", ok,
            "; ".join(details))


def test_c05_cylinder_bounds(pisot_sys):
    g = pisot_sys.beta.generator()
    one = pisot_sys.beta.one()
    words = list(enumerate_admissible(pisot_sys, 10))

    def dbl(w):
        return sum(1 for c in range(2) if word_admissible(pisot_sys, w + (c,))) >= 2

    upper_ok = True
    corridor_ok = True
    corrected_ok = True
    for w in words:
        length = cylinder_interval(pisot_sys, w).length
        n = len(w)
        if not length <= 1 / g**n:
            upper_ok = False
        if dbl(w):
            # the corrected per-word constant (one branch contraction below the
            # stated one, which has the exact counterexample w=1001)
            if not length >= (one - 1 / g) / g ** (n + 1):
                corrected_ok = False
            if all(dbl(w[:k]) for k in range(n + 1)):
                if not length >= (one - 1 / g) / g**n:
                    corridor_ok = False
    sums_ok = all(partition_identity_holds(pisot_sys, n) for n in range(1, 11))
    _report(
        5,
        "exact cylinder bounds to length 10 (upper, branching lower, unit sums)",
        upper_ok and corridor_ok and corrected_ok and sums_ok,
        f"{len(words)} words; lower bound in corridor form plus corrected "
        f"per-word constant (stated per-word constant fails at 1001)",
    )


def test_c06_branching_distance(pisot_sys, two_sys):
    pisot_vals = [g_beta_n(pisot_sys, n) for n in range(1, 13)]
    two_vals = [g_beta_n(two_sys, n) for n in range(1, 13)]
    ok = max(pisot_vals) <= 2 and all(v == 0 for v in two_vals)
    _report(6, "branching distance <= 2 (cubic) and identically 0 (base 2) to n=12",
            ok, f"cubic max={max(pisot_vals)}")


def test_c07_specification_certificates(pisot_sys):
    _, ex31 = example31_system()
    cert31 = spec_bound(ex31, oracle_maxlen=6)
    ex31_ok = (
        cert31.kind == "strong_one_way"
        and cert31.M == 1
        and cert31.exact_min_M == 1
        and bruteforce_exact_min(ex31, 6) == 1
    )
    pres = SoficPresentation.from_chain(decompose(automaton_for(pisot_sys)))
    certp = spec_bound(pres, oracle_maxlen=5)
    pisot_ok = (
        certp.kind == "w_one_way"
        and certp.M < math.inf
        and len(certp.witnesses) == 6
        and all(len(word) <= certp.M for _, word in certp.witnesses)
    )
    glue_ok = gluing_test(ex31, cert31) and gluing_test(pres, certp)
    _report(7, "strong certificate (M=1) for the two-loop system; weak certificate "
               "with witnesses for the cubic chain; every ordered gluing of words of "
               "length <= 4 each",
            ex31_ok and pisot_ok and glue_ok,
            f"cubic M={certp.M}, exact_min={certp.exact_min_M}")


def test_c08_exact_decay_anchor(pisot_sys):
    g = pisot_sys.beta.generator()
    log_beta = pisot_sys.log_beta()
    width = abs(math.log(1 - 1 / float(g)))
    ok = True
    for n in range(1, 41):
        length = cylinder_interval(pisot_sys, (1,) * n).length
        rate = -math.log(float(length)) / n
        if not (log_beta - 1e-12 <= rate <= log_beta + width / n + 1e-12):
            ok = False
            break
    rate30 = -math.log(float(cylinder_interval(pisot_sys, (1,) * 30).length)) / 30
    pinned = abs(rate30 - log_beta) <= 0.05
    _report(8, "all-ones cylinder decay sits in the corridor to n=40; n=30 pins "
               "the rate to log beta +/- 0.05",
            ok and pinned, f"rate(30)={rate30:.4f}, log beta={log_beta:.4f}")


def test_c09_mc_against_binomial(two_sys):
    start = time.perf_counter()
    n, window, count = 30, (0.7, 0.75), 10**6
    p = sum(comb(30, k) for k in range(21, 23)) / 2**30  # means 21/30 and 22/30
    exact_ok = float(lebesgue_tail(two_sys, n, window)) == p
    away = [sigmas(mc_deviation(two_sys, DIGIT1, window, n, count, seed).hits, count, p)
            for seed in SEEDS]
    elapsed = time.perf_counter() - start
    ok = exact_ok and max(away) <= MAX_SIGMAS and elapsed < 60.0
    _report(9, "digit-frequency deviation matches the exact binomial tail within "
               f"{MAX_SIGMAS} sigma on each of {len(SEEDS)} fixed seeds at N=1e6, under a minute",
            ok, f"exact rate={-math.log(p) / n:.5f}, "
                f"sigmas={[round(z, 2) for z in away]}, {elapsed:.1f}s")


def test_c10_circle_map():
    fmap = CircleMap()
    clusters = circle_nonwandering(fmap)
    cluster_ok = (
        len(clusters) == 2
        and min(abs(c) for c in clusters) < 1e-6
        and min(abs(c - 0.5) for c in clusters) < 1e-6
    )
    details = [f"clusters={clusters}"]
    # the tails are exact (exact_tails.circle_tail); bandwidth 0.1 keeps the
    # finite-n prefactor bias |log(2 eps)|/n inside the stated 20% tolerance
    # (at eps=0.05 that bias alone is ~31% of the a=0.3 rate)
    rate_ok = True
    for a in (0.3, 0.5):
        tail = circle_tail(a, 50, 0.1)
        predicted = predicted_occupation_rate(a)
        rel = abs(-math.log(tail) / 50 - predicted) / predicted
        details.append(f"a={a}: P={tail:.4g}, rel={rel:.3f}")
        if rel >= 0.2:
            rate_ok = False
    # the sampled tail at a=0.3, about 22 hits per 1e5 samples, against the exact one
    tail, count = circle_tail(0.3, 50, 0.1), 10**5
    away = [sigmas(circle_mc_deviation((0.3, 1.0), 50, count, seed=seed, eps=0.1).hits,
                   count, tail) for seed in SEEDS]
    details.append(f"sigmas={[round(z, 2) for z in away]}")
    _report(10, "circle map: nonwandering {0, 1/2} to 1e-6; exact occupation rates "
                "within 20% of a*log(1+pi/5) at n=50; sampled hits within "
                f"{MAX_SIGMAS} sigma of the exact tail on each of {len(SEEDS)} fixed seeds "
                "at N=1e5",
            cluster_ok and rate_ok and max(away) <= MAX_SIGMAS, ", ".join(details))


def test_c11_rate_function_separation(pisot_sys):
    rows = compare_rate_functions(pisot_sys)
    log_beta = pisot_sys.log_beta()
    witness = rows[0]
    ok = (
        abs(witness.lebesgue_rate + log_beta) < 1e-12
        and witness.max_entropy_rate == float("-inf")
    )
    _report(11, "fixed-point mass separates the two rate functions "
                "(q_L = -log beta, q_m = -inf)", ok)


def test_c12_property_suites(pisot_sys):
    rng = random.Random(20260811)
    K = max_truncation(1, 2)

    def rand_emp():
        word = tuple(rng.randrange(0, 2) for _ in range(30))
        return empirical_measure(word, 2, alphabet_bound=1)

    metric_ok = True
    for _ in range(1000):
        parts = rng.randrange(2, 4)
        a = [Fraction(rng.randrange(1, 5)) for _ in range(parts)]
        a = [x / sum(a) for x in a]
        shift = Fraction(rng.randrange(0, 3), 100)
        b = list(a)
        b[0] += shift
        b[-1] -= shift
        mus = [rand_emp() for _ in range(parts)]
        nus = [rand_emp() for _ in range(parts)]
        bound1 = weak_metric_truncated(mus[0], nus[0], K, 1) <= 1
        mix_a = MixtureMeasure(tuple(zip(a, mus)))
        mix_same = MixtureMeasure(tuple(zip(a, nus)))
        convex = weak_metric_truncated(mix_a, mix_same, K, 1) <= sum(
            w * weak_metric_truncated(m, n, K, 1) for w, m, n in zip(a, mus, nus)
        )
        joint_ok = True
        if all(x >= 0 for x in b):
            zeta = max(
                [sum(abs(x - y) for x, y in zip(a, b))]
                + [weak_metric_truncated(m, n, K, 1) for m, n in zip(mus, nus)]
            )
            mix_b = MixtureMeasure(tuple(zip(b, nus)))
            joint_ok = weak_metric_truncated(mix_a, mix_b, K, 1) <= 2 * zeta
        if not (bound1 and convex and joint_ok):
            metric_ok = False
            break

    pres = SoficPresentation.from_chain(decompose(automaton_for(pisot_sys)))
    support_ok = ergodic_support_check(pres)

    monotone_ok = True
    done = 0
    while done < 200:
        a = Fraction(rng.randrange(1, 10**6), 10**6)
        b = Fraction(rng.randrange(1, 10**6), 10**6)
        if a == b:
            continue
        a, b = min(a, b), max(a, b)
        try:
            ia = itinerary(pisot_sys, a, 40)
            ib = itinerary(pisot_sys, b, 40)
        except HitBoundary:
            continue
        if alt_compare(ia, ib) is Ordering.GREATER:
            monotone_ok = False
            break
        done += 1

    _report(12, "metric inequalities (1000 tuples), support confinement "
                "(every cyclic component listed), coding monotonicity (200 pairs)",
            metric_ok and support_ok and monotone_ok)
