"""Graph construction, folding, decomposition, counting, cross-validation."""

import math
from fractions import Fraction

import pytest

from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.shiftgraph import (
    FoldNotVerified,
    HorizonTooSmall,
    LabeledGraph,
    _fold_index,
    automaton_for,
    chain_for,
    cycle_vertices,
    decompose,
    entropy_estimate,
    is_irreducible,
    spectral_radius,
)
from negabeta.transform import MinusBetaSystem

from map_reference import nth_digit
from pisot_bases import BASES
from word_reference import (
    build_gamma, count_words, cross_validate, enumerate_admissible, enumerate_words, fold,
)


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


# -- graph construction --------------------------------------------------------


def test_build_gamma_pisot_edges(pisot_sys):
    s = pisot_sys.expansion_of_one()
    g = build_gamma(s, 7)
    spine = {(i, nth_digit(s, i), i + 1) for i in range(7)}
    extra = {(0, 0, 0), (1, 1, 1), (4, 0, 2), (6, 0, 2)}
    assert g.edges == frozenset(spine | extra)


def test_build_gamma_beta2_edges(two_sys):
    s = two_sys.expansion_of_one()
    g = build_gamma(s, 5)
    spine = {(i, nth_digit(s, i), i + 1) for i in range(5)}
    extra = {(0, 0, 0), (1, 1, 1), (2, 0, 0), (3, 1, 1), (4, 0, 0)}
    assert g.edges == frozenset(spine | extra)


def test_build_gamma_spine_always_present(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        s = sys.expansion_of_one()
        g = build_gamma(s, s.u + 2 * s.v + 2)
        assert (0, nth_digit(s, 0), 1) in g.edges


def test_build_gamma_horizon_check(pisot_sys):
    s = pisot_sys.expansion_of_one()
    with pytest.raises(HorizonTooSmall):
        build_gamma(s, s.u + 2 * s.v - 1)


def test_back_edges_land_at_most_u_plus_v(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        s = sys.expansion_of_one()
        g = build_gamma(s, s.u + 8 * s.v + 4)
        for src, _, dst in g.edges:
            if dst != src + 1:
                assert dst <= s.u + s.v


# -- folding ----------------------------------------------------------------------


def test_fold_pisot_five_states(pisot_sys):
    aut = automaton_for(pisot_sys)
    assert aut.graph.vertex_count == 5
    assert aut.fold_start == 3
    assert _fold_index(5, aut.fold_start, aut.fold_period) == 3
    assert _fold_index(6, aut.fold_start, aut.fold_period) == 4


def test_fold_beta2_two_states(two_sys):
    aut = automaton_for(two_sys)
    assert aut.graph.vertex_count == 2
    assert aut.graph.edges == frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)})


def test_fold_purely_periodic_starts_at_zero(two_sys, three_sys):
    for sys in (two_sys, three_sys):
        aut = automaton_for(sys)
        assert aut.fold_start == 0


def test_fold_idempotence(pisot_sys):
    # expanding the folded structure and folding again reproduces it
    s = pisot_sys.expansion_of_one()
    g = build_gamma(s, s.u + 6 * s.v + 4)
    first = fold(g, s.u, s.v)
    g2 = build_gamma(s, s.u + 10 * s.v + 8)
    second = fold(g2, s.u, s.v)
    assert first.graph == second.graph
    assert (first.fold_start, first.fold_period) == (second.fold_start, second.fold_period)


def test_fold_insufficient_horizon(pisot_sys):
    s = pisot_sys.expansion_of_one()
    g = build_gamma(s, s.u + 2 * s.v)
    with pytest.raises(FoldNotVerified):
        fold(g, s.u, s.v)


def test_automaton_is_the_fold_at_one_horizon():
    """Horizons u+6v, u+6v+4, 2(u+6v+4) and 200 all fold to the automaton that
    automaton_for builds at u+6v+4; at u+2v the fold cannot verify on any base."""
    assert len(BASES) == 68
    for coeffs, lo, hi in BASES:
        sys = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
        s = sys.expansion_of_one()
        base = s.u + 6 * s.v + 4
        aut = automaton_for(sys)
        for horizon in (base - 4, base, 2 * base, 200):
            assert fold(build_gamma(s, horizon), s.u, s.v) == aut, (coeffs, horizon)
        with pytest.raises(FoldNotVerified):
            fold(build_gamma(s, s.u + 2 * s.v), s.u, s.v)


# -- decomposition ------------------------------------------------------------------


def test_decompose_pisot(pisot_sys):
    chain = decompose(automaton_for(pisot_sys))
    assert chain.q == 3
    assert chain.N == 2
    assert chain.components == ((0,), (1,), (2, 3, 4))
    assert chain.pairs == ((0, 0), (1, 1), (2, None))


def test_decompose_beta2(two_sys):
    chain = decompose(automaton_for(two_sys))
    assert chain.q == 1
    assert chain.N == 0
    assert chain.components == ((0, 1),)


def test_decompose_single_loop_vertex():
    g = LabeledGraph(1, frozenset({(0, 0, 0)}))
    from negabeta.shiftgraph import FoldedAutomaton

    aut = FoldedAutomaton(g, 0, 1)
    chain = decompose(aut)
    assert chain.q == 1 and chain.components == ((0,),)


def test_decompose_covers_cycle_vertices(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        chain = decompose(automaton_for(sys))
        covered = {v for comp in chain.components for v in comp}
        assert cycle_vertices(chain.automaton.graph).issubset(covered)


def test_is_irreducible_cases(pisot_sys):
    g = automaton_for(pisot_sys).graph
    assert is_irreducible(g, [0])           # 0-loop
    assert not is_irreducible(g, [0, 1])    # no return edge
    assert is_irreducible(g, [2, 3, 4])     # tail cycle structure
    lonely = LabeledGraph(2, frozenset({(0, 0, 1)}))
    assert not is_irreducible(lonely, [0])  # loop-free single vertex


# -- counting and entropy -----------------------------------------------------------


def test_count_words_beta2_powers_of_two(two_sys):
    aut = automaton_for(two_sys)
    for n in range(15):
        assert count_words(aut.graph, n) == 2**n


def test_count_words_matches_enumeration(pisot_sys):
    aut = automaton_for(pisot_sys)
    for n in range(1, 9):
        assert count_words(aut.graph, n) == sum(
            1 for w, _ in enumerate_words(aut.graph, n) if len(w) == n)


def test_count_words_empty_word(pisot_sys):
    assert count_words(automaton_for(pisot_sys).graph, 0) == 1


def test_count_words_submultiplicative(pisot_sys):
    aut = automaton_for(pisot_sys)
    counts = [count_words(aut.graph, n) for n in range(12)]
    for n in range(12):
        for m in range(12 - n):
            assert counts[n + m] <= counts[n] * counts[m]


def companion_root_oracle(coeffs, lo, hi, steps=80):
    """Largest real root of a cubic by plain bisection; independent of numpy."""
    def val(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for _ in range(steps):
        mid = (lo + hi) / 2
        if val(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_tail_component_spectral_radius_is_beta(pisot_sys):
    chain = decompose(automaton_for(pisot_sys))
    h = entropy_estimate(chain.automaton, chain.components[2])
    # oracle: the largest root of x^3 - x - 1 by bisection (low degree first)
    root = companion_root_oracle([-1.0, -1.0, 0.0, 1.0], 1.0, 2.0)
    assert abs(math.exp(h) - root) < 1e-9
    assert abs(h - pisot_sys.log_beta()) < 1e-9


def test_full_chain_entropy(pisot_sys, two_sys, three_sys):
    # x^2-x-1, x^2-3x+1, x^4-2x^3+x-1 (7 states), x^4-x^3-x^2-2x-1 (11 states)
    more = [((-1, -1, 1), 1), ((1, -3, 1), 2), ((-1, 1, 0, -2, 1), 1), ((-1, -2, -1, -1, 1), 2)]
    systems = [pisot_sys, two_sys, three_sys]
    systems += [MinusBetaSystem(make_algebraic(IntPolynomial(c), b, b + 1)) for c, b in more]
    for sys in systems:
        assert abs(entropy_estimate(automaton_for(sys)) - sys.log_beta()) < 1e-12


def _charpoly(adj):
    """det(xI - A), low degree first, by Faddeev-LeVerrier in integers."""
    n = len(adj)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{n-k+1} I, then c_{n-k} = -tr(A M_k) / k
        m = [[sum(adj[i][l] * m[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(adj[i][l] * m[l][i] for i in range(n) for l in range(n))
        assert trace % k == 0
        coeffs[n - k] = -trace // k
    return coeffs


def _remainder(num, den):
    rem = [Fraction(c) for c in num]
    while len(rem) >= len(den):
        q, shift = rem[-1] / den[-1], len(rem) - len(den)
        for i, d in enumerate(den):
            rem[shift + i] -= q * d
        rem.pop()
    return rem


def test_charpoly_examples():
    assert _charpoly([[0, 1, 0], [0, 0, 1], [1, 1, 0]]) == [-1, -1, 0, 1]  # x^3 - x - 1
    assert _charpoly([[2, 1], [1, 1]]) == [1, -3, 1]
    assert _charpoly([[1, 1, 0], [0, 1, 0], [0, 0, 0]]) == [0, 1, -2, 1]  # x (x - 1)^2
    assert _remainder([0, 1, -2, 1], [-1, 1]) == [0]
    assert _remainder([1, 0, 1], [-1, 1]) == [2]


def test_minimal_polynomial_divides_automaton_charpoly():
    """The exact anchor of the float entropy: beta is an eigenvalue of the
    automaton's integer adjacency, and the float spectral radius is beta."""
    assert len(BASES) == 68
    for coeffs, lo, hi in BASES:
        beta = make_algebraic(IntPolynomial(coeffs), lo, hi)
        graph = automaton_for(MinusBetaSystem(beta)).graph
        n = graph.vertex_count
        adj = [[0] * n for _ in range(n)]
        for s, _, t in graph.edges:
            adj[s][t] += 1
        assert not any(_remainder(_charpoly(adj), beta.minpoly.coefficients)), coeffs
        assert graph.adjacency().tolist() == adj
        assert abs(spectral_radius(graph.adjacency()) - float(beta.generator())) <= 1e-12, coeffs


def test_automaton_walk_lists_the_admissible_words_in_order():
    """cyl prints its rows in this order, so its CSV bytes depend on it."""
    assert len(BASES) == 68
    for coeffs, lo, hi in BASES:
        sys = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
        words = [w for w, _ in enumerate_words(automaton_for(sys).graph, 7)]
        assert words == list(enumerate_admissible(sys, 7)), coeffs


def test_word_walk_is_not_bounded_by_the_recursion_limit():
    loop = LabeledGraph(1, frozenset({(0, 0, 0)}))
    lengths = [len(w) for w, ends in enumerate_words(loop, 5000) if ends == 1]  # the mask of {0}
    assert lengths == list(range(1, 5001))


def test_spectral_radius_crosscheck():
    import numpy as np

    mat = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rho = spectral_radius(mat)
    assert abs(rho**3 - rho - 1) < 1e-9


@pytest.mark.parametrize(
    "rows, rho",
    [
        ([], 0.0),
        ([[0, 0], [0, 0]], 0.0),
        ([[0, 1, 1], [0, 0, 1], [0, 0, 0]], 0.0),
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1.0),
        ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 1.0),
    ],
    ids=["empty", "zero", "nilpotent", "3-cycle", "jordan"],
)
def test_spectral_radius_exact_cases(rows, rho):
    import numpy as np

    mat = np.array(rows, dtype=float).reshape(len(rows), len(rows))
    assert abs(spectral_radius(mat) - rho) < 1e-12


# -- language cross-validation ----------------------------------------------------------


@pytest.mark.parametrize("fixture", ["pisot_sys", "two_sys", "three_sys"])
def test_cross_validate_to_length_ten(fixture, request):
    sys = request.getfixturevalue(fixture)
    ok, counterexample = cross_validate(automaton_for(sys), sys, 10)
    assert ok, f"language mismatch at {counterexample}"


# (coefficients, lowest degree first; an interval isolating beta).  The first
# 13 need a border other than the longest one to reject a word (for
# x^3-2x^2-x-1, with d(1) = 21(2), the word "20"); back edges drawn from s_i
# alone accept it.
BORDER_BASES = {
    "x^3-2x^2-3x-3": ((-3, -3, -2, 1), 3, 4),
    "x^3-3x^2-x-3": ((-3, -1, -3, 1), 3, 4),
    "x^3-3x^2-3": ((-3, 0, -3, 1), 3, 4),
    "x^3-2x^2-3x-2": ((-2, -3, -2, 1), 3, 4),
    "x^3-x^2-3x-2": ((-2, -3, -1, 1), 2, 3),
    "x^3-3x^2-2x-2": ((-2, -2, -3, 1), 3, 4),
    "x^3-x^2-2x-2": ((-2, -2, -1, 1), 2, 3),
    "x^3-2x^2-2": ((-2, 0, -2, 1), 2, 3),
    "x^3-3x^2-x-1": ((-1, -1, -3, 1), 3, 4),
    "x^3-2x^2-x-1": ((-1, -1, -2, 1), 2, 3),
    "x^4-x^3-2x^2-2x-1": ((-1, -2, -2, -1, 1), 2, 3),
    "x^4-2x^3-x^2+1": ((1, 0, -1, -2, 1), 2, 3),
    "x^4-x^3-1": ((-1, 0, 0, -1, 1), 1, 2),
    "x^3-x-1": ((-1, -1, 0, 1), 1, 2),
    "2": ((-2, 1), 1, 3),
    "3": ((-3, 1), 2, 4),
    "x^2-x-1": ((-1, -1, 1), 1, 2),
}


@pytest.fixture(scope="module", params=sorted(BORDER_BASES))
def border_sys(request):
    coeffs, lo, hi = BORDER_BASES[request.param]
    sys = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
    sys.expansion_of_one()
    return sys


def test_automaton_language_is_admissible_language(border_sys):
    aut = automaton_for(border_sys)
    ok, counterexample = cross_validate(aut, border_sys, 8)
    assert ok, f"language mismatch at {counterexample}"
    assert abs(entropy_estimate(aut) - border_sys.log_beta()) <= 1e-12


def test_every_follower_set_lies_in_that_of_v0(border_sys):
    # every word of length <= 6 read from a state is also read from V0
    aut = automaton_for(border_sys)
    labels = sorted(aut.graph.labels())
    for state in range(aut.graph.vertex_count):
        pairs = {(1 << state, 1)}  # the masks of {state} and {0}
        for _ in range(6):
            pairs = {(aut.graph.step(here, a), aut.graph.step(root, a))
                     for here, root in pairs for a in labels}
            pairs = {(here, root) for here, root in pairs if here}
            assert all(root for _, root in pairs), f"V{state} reads a word V0 does not"


def test_out_degree_bounds(pisot_sys, two_sys, three_sys):
    for sys in (pisot_sys, two_sys, three_sys):
        aut = automaton_for(sys)
        for v in range(aut.graph.vertex_count):
            out = aut.graph.out_edges(v)
            assert 1 <= len(out) <= sys.b + 1


def test_golden_ratio_system_end_to_end():
    golden = MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 1)), 1, 2))
    seq = golden.expansion_of_one()
    assert (seq.preperiod, seq.period) == ((1,), (0,))
    aut = automaton_for(golden)
    assert aut.graph.vertex_count == 3
    chain = decompose(aut)
    assert chain.q == 2
    assert abs(entropy_estimate(aut) - golden.log_beta()) < 1e-9
    ok, _ = cross_validate(aut, golden, 10)
    assert ok


def test_dot_and_json_exports(pisot_sys):
    chain = chain_for(pisot_sys)
    dot = chain.automaton.graph.to_dot(chain.components, alphabet_bound=1)
    assert dot.count("cluster_") == 3
    assert all(f"V{v};" in dot or f"V{v} ->" in dot for v in range(5))
    payload = chain.automaton.graph.to_json_dict()
    assert payload["vertices"] == 5
    assert sorted(payload["edges"]) == payload["edges"]
