"""Pressure, level-1 rates, Monte Carlo deviations, rate-function separation."""

import math
from fractions import Fraction
from math import comb

import pytest

from negabeta import ldp
from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.ldp import (
    UnachievableLevel,
    WindowNeverHit,
    WrongBeta,
    _beta_fixed_point,
    compare_rate_functions,
    deviation_estimate,
    free_energy,
    level1_rate,
    mc_deviation,
    pressure,
    wilson_interval,
)
from negabeta.measures import cylinder_interval, parry_measure
from negabeta.sampling import _digit_means_beta2, _digit_means_generic, _philox_block, _seed_key
from negabeta.shiftgraph import chain_for
from negabeta.transform import MinusBetaSystem
from exact_tails import MAX_SIGMAS, SEEDS, lebesgue_tail, sigmas
from measure_reference import mean_label
from pisot_bases import BASES

DIGIT1 = {0: 0.0, 1: 1.0}


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
def golden_sys():
    return MinusBetaSystem(make_algebraic(IntPolynomial((-1, -1, 1)), 1, 2))


# -- free energy ----------------------------------------------------------------


def test_free_energy_parry_is_zero(pisot_sys):
    chain = chain_for(pisot_sys)
    measure = parry_measure(chain.component_graph(2))
    assert abs(free_energy(measure, pisot_sys.log_beta())) < 1e-9


def test_free_energy_fixed_point(pisot_sys):
    value = free_energy(0.0, pisot_sys.log_beta())
    assert abs(value + pisot_sys.log_beta()) < 1e-15


def test_free_energy_non_invariant_is_minus_infinity(pisot_sys):
    assert free_energy(0.3, pisot_sys.log_beta(), invariant=False) == float("-inf")


# -- pressure --------------------------------------------------------------------


def test_pressure_at_zero_is_topological_entropy(pisot_sys, two_sys):
    for sys in (pisot_sys, two_sys):
        chain = chain_for(sys)
        assert abs(pressure(chain, DIGIT1, 0.0)[0] - sys.log_beta()) < 1e-9


def test_pressure_beta2_closed_form(two_sys):
    chain = chain_for(two_sys)
    psi = {0: 0.0, 1: 1.0}
    for t in (-3.0, -1.0, 0.0, 0.5, 2.0):
        assert abs(pressure(chain, psi, t)[0] - math.log(1 + math.exp(t))) < 1e-9


def test_pressure_negative_limit_selects_loop_component(pisot_sys):
    chain = chain_for(pisot_sys)
    assert abs(pressure(chain, DIGIT1, -60.0)[0]) < 1e-9


def test_pressure_convexity(pisot_sys, two_sys):
    for sys in (pisot_sys, two_sys):
        chain = chain_for(sys)
        grid = [(-3 + k * 0.25) for k in range(25)]
        values = [pressure(chain, DIGIT1, t)[0] for t in grid]
        for i in range(1, len(grid) - 1):
            second = values[i - 1] - 2 * values[i] + values[i + 1]
            assert second >= -1e-8


# -- level-1 rates ----------------------------------------------------------------


def test_rate_zero_at_equilibrium_mean(pisot_sys):
    chain = chain_for(pisot_sys)
    measure = parry_measure(chain.component_graph(2))
    a_star = mean_label(measure, DIGIT1)
    result = level1_rate(chain, DIGIT1, a_star, pisot_sys.log_beta())
    assert abs(result.rate) < 1e-8
    assert abs(result.t_star) < 1e-4


def test_rate_at_all_ones_orbit(pisot_sys):
    chain = chain_for(pisot_sys)
    result = level1_rate(chain, DIGIT1, 1.0, pisot_sys.log_beta())
    assert abs(result.rate - pisot_sys.log_beta()) < 1e-6


def test_rate_beta2_binary_entropy(two_sys):
    chain = chain_for(two_sys)
    for a in (0.1, 0.25, 0.5, 0.66, 0.9):
        result = level1_rate(chain, DIGIT1, a, math.log(2))
        if a in (0.0, 1.0):
            h_bin = 0.0
        else:
            h_bin = -(a * math.log(a) + (1 - a) * math.log(1 - a))
        assert abs(result.rate - (math.log(2) - h_bin)) < 1e-8


def test_rate_nonnegative_on_grid(two_sys):
    chain = chain_for(two_sys)
    for k in range(11):
        a = k / 10
        result = level1_rate(chain, DIGIT1, a, math.log(2))
        assert result.rate >= -1e-10


GRID = [0.15, 0.3, 0.45, 0.6, 0.75, 0.9]


def test_rate_builds_the_component_graphs_once_per_call(pisot_sys, monkeypatch):
    # every point of one rate call shares one weighted copy of the chain's
    # components, and each point takes at most 15 pressure evaluations
    chain = chain_for(pisot_sys)
    built, evaluations = [], []
    real_graph, real_pressure = type(chain).component_graph, ldp.pressure
    monkeypatch.setattr(type(chain), "component_graph",
                        lambda self, i: built.append(i) or real_graph(self, i))
    monkeypatch.setattr(ldp, "pressure",
                        lambda *args, **kwargs: evaluations.append(1) or real_pressure(*args, **kwargs))
    envelope = ldp.rate_envelope(chain, DIGIT1)
    for a in GRID:
        before = len(evaluations)
        level1_rate(chain, DIGIT1, a, pisot_sys.log_beta(), envelope=envelope)
        assert len(evaluations) - before <= 15
    assert built == list(range(chain.q))
    assert len(evaluations) <= 15 * len(GRID)


def test_rate_finds_constant_radii_once_per_call(pisot_sys, monkeypatch):
    # the cubic's two loop components carry only one digit each: their matrix
    # is the same at every t, so each spectral radius is found once per call,
    # not once per pressure evaluation
    chain = chain_for(pisot_sys)
    constant = [c[2] is not None for c in ldp._weighted_components(chain, DIGIT1)]
    assert constant == [True, True, False]
    radii, evaluations = [], []
    real_radius, real_pressure = ldp.spectral_radius, ldp.pressure
    monkeypatch.setattr(ldp, "spectral_radius", lambda mat: radii.append(1) or real_radius(mat))
    monkeypatch.setattr(ldp, "pressure",
                        lambda *args, **kwargs: evaluations.append(1) or real_pressure(*args, **kwargs))
    envelope = ldp.rate_envelope(chain, DIGIT1)
    for a in GRID:
        level1_rate(chain, DIGIT1, a, pisot_sys.log_beta(), envelope=envelope)
    assert 0 < len(evaluations) <= 15 * len(GRID)
    assert len(radii) == 2 + len(evaluations)


@pytest.mark.parametrize("psi", [DIGIT1, {0: 1.0, 1: 0.0}, {0: 0.25, 1: 0.25}, {0: -0.0, 1: 0.0},
                                 {0: 0.7, 1: -2.5}])
def test_constant_components_give_the_general_pressure_float_for_float(pisot_sys, two_sys, psi):
    for sys in (pisot_sys, two_sys):
        for n, edges, constant in ldp._weighted_components(chain_for(sys), psi):
            for t in (-256.0, -3.7, -1e-6, 0.0, 1e-6, 0.5, 2.0, 255.9):
                general = ldp._component_pressure((n, edges, None), t).hex()
                assert ldp._component_pressure((n, edges, constant), t).hex() == general


def test_rate_unachievable(two_sys):
    chain = chain_for(two_sys)
    with pytest.raises(UnachievableLevel):
        level1_rate(chain, DIGIT1, 1.5, math.log(2))


# -- exact phase transitions -----------------------------------------------------

T_GOLDEN = -math.log((1 + math.sqrt(5)) / 2)  # the cubic's kink: 1 - z - z^2 = 0, z = e^t


def _binary_entropy(a):
    return -(a * math.log(a) + (1 - a) * math.log(1 - a))


def test_cubic_kink_polynomial_and_root(pisot_sys):
    chain = chain_for(pisot_sys)
    tail = ldp._weighted_components(chain, DIGIT1)[2]
    exponents = [(s, d, int(value)) for s, d, value in tail[1]]
    assert ldp._kink_polynomial(tail[0], exponents, 0, 1) == [1, -1, -1]
    (kink,) = ldp.rate_envelope(chain, DIGIT1).kinks
    assert abs(kink.left.t - T_GOLDEN) <= 1e-15
    assert (kink.left.component, kink.right.component, kink.component) == (0, 2, 2)
    assert kink.left.slope == 0.0
    assert abs(kink.right.slope - (5 - 2 * math.sqrt(5))) <= 1e-12


def test_cubic_t_star_is_the_isolated_root(pisot_sys, monkeypatch):
    # every mean up to 5 - 2 sqrt 5 is answered at the kink, with no pressure evaluation
    chain = chain_for(pisot_sys)
    envelope = ldp.rate_envelope(chain, DIGIT1)
    monkeypatch.setattr(ldp, "pressure", None)
    for k in range(1, 53):
        a = k / 100
        result = level1_rate(chain, DIGIT1, a, pisot_sys.log_beta(), envelope=envelope)
        assert abs(result.t_star - T_GOLDEN) <= 1e-15
        assert result.component == 2  # the tail
        assert abs(result.entropy + T_GOLDEN * a) <= 1e-15


def test_beta2_closed_forms(two_sys):
    chain = chain_for(two_sys)
    envelope = ldp.rate_envelope(chain, DIGIT1)
    for k in range(1, 100):
        a = k / 100
        result = level1_rate(chain, DIGIT1, a, math.log(2), envelope=envelope)
        assert abs(result.t_star - math.log(a / (1 - a))) <= 1e-12
        assert abs(result.rate - (math.log(2) - _binary_entropy(a))) <= 1e-13


@pytest.mark.parametrize("a", [0.0, 1.0])
def test_extreme_means_are_reached_at_the_cap(pisot_sys, two_sys, a):
    # H is 0 at both extreme means of both bases: the cubic's loops and the
    # two fixed points of base 2 carry no entropy
    for sys in (pisot_sys, two_sys):
        result = level1_rate(chain_for(sys), DIGIT1, a, sys.log_beta())
        assert abs(result.entropy) <= 1e-9 and abs(result.rate - sys.log_beta()) <= 1e-9
        assert result.t_star == (256.0 if a else -256.0)


def test_non_transitive_rates_beat_every_dual_point():
    # H(a) = inf_t (P(t) - t a): no t of a dense grid may beat the returned H
    grid = [k / 20 for k in range(-200, 201)]
    checked = 0
    for coeffs, lo, hi in BASES:
        system = MinusBetaSystem(make_algebraic(IntPolynomial(coeffs), lo, hi))
        chain = chain_for(system)
        if chain.q == 1:
            continue
        checked += 1
        envelope = ldp.rate_envelope(chain, DIGIT1)
        values = [ldp.pressure(chain, DIGIT1, t, components=envelope.components)[0]
                  for t in grid]
        for k in range(1, 20):
            a = k / 20
            result = level1_rate(chain, DIGIT1, a, system.log_beta(), envelope=envelope)
            assert min(p - t * a for p, t in zip(values, grid)) >= result.entropy - 1e-12
    assert checked == 4


def test_cubic_entropy_is_affine_on_the_kink_interval(pisot_sys):
    chain = chain_for(pisot_sys)
    envelope = ldp.rate_envelope(chain, DIGIT1)
    h = [level1_rate(chain, DIGIT1, k / 40, pisot_sys.log_beta(), envelope=envelope).entropy
         for k in range(1, 22)]
    assert all(abs(h[i - 1] - 2 * h[i] + h[i + 1]) <= 1e-12 for i in range(1, len(h) - 1))


def test_a_transition_without_kink_polynomial_is_found_numerically(pisot_sys):
    # psi = 0.7 * digit1 has no integer values, so no kink is pinned exactly;
    # its rate at 0.7 a is the digit1 rate at a, with t scaled by 1/0.7
    chain = chain_for(pisot_sys)
    scaled = {0: 0.0, 1: 0.7}
    exact, numeric = ldp.rate_envelope(chain, DIGIT1), ldp.rate_envelope(chain, scaled)
    assert len(exact.kinks) == 1 and numeric.kinks == []
    for k in range(1, 20):
        a = k / 20
        want = level1_rate(chain, DIGIT1, a, 0.0, envelope=exact)
        got = level1_rate(chain, scaled, 0.7 * a, 0.0, envelope=numeric)
        assert abs(got.entropy - want.entropy) <= 1e-12
        assert abs(0.7 * got.t_star - want.t_star) <= 1e-10
        assert got.component == want.component


def _rate_rows(system, grid):
    chain = chain_for(system)
    envelope = ldp.rate_envelope(chain, DIGIT1)
    return [level1_rate(chain, DIGIT1, a, system.log_beta(), envelope=envelope) for a in grid]


def test_rates_survive_a_perturbed_perron_root(pisot_sys, two_sys, monkeypatch):
    # the rate engine reads Perron roots from spectral_radius (pressure) and
    # shiftgraph._perron (slopes, through the edge probabilities r_j / (rho r_i));
    # a relative 1e-13 change of both moves no value by more than 1e-10, and no
    # byte of a kink point
    grid = [k / 20 for k in range(1, 20)]
    before = {sys: _rate_rows(sys, grid) for sys in (pisot_sys, two_sys)}
    real_radius, real_perron = ldp.spectral_radius, ldp._perron
    radii, perrons = [], []

    def radius(mat):
        radii.append(1)
        return real_radius(mat) * (1 + 1e-13)

    def perron(mat):
        perrons.append(1)
        rho, scale, pi = real_perron(mat)
        return rho * (1 + 1e-13), scale / (1 + 1e-13), pi

    monkeypatch.setattr(ldp, "spectral_radius", radius)
    monkeypatch.setattr(ldp, "_perron", perron)
    kink_points = 0
    for sys, rows in before.items():
        for old, new in zip(rows, _rate_rows(sys, grid)):
            assert old.component == new.component
            for field in ("rate", "entropy", "t_star"):
                assert abs(getattr(old, field) - getattr(new, field)) <= 1e-10
            if sys is pisot_sys and old.a <= 0.5:
                kink_points += 1
                assert old.to_json_dict() == new.to_json_dict() and old.component == 2
    assert kink_points == 10
    assert radii and perrons  # both patches were read


# -- Monte Carlo -------------------------------------------------------------------


def test_mc_full_window_rate_zero(two_sys):
    est = mc_deviation(two_sys, DIGIT1, (0.0, 1.0), 10, 2000, seed=1)
    assert est.hits == est.sample_count
    assert est.rate == 0.0


def test_exact_tail_of_base_2_is_the_binomial_sum(two_sys):
    for n, window in ((30, (0.7, 0.75)), (30, (0.0, 0.3)), (17, (0.4, 0.6)), (1, (0.0, 1.0))):
        k_lo, k_hi = math.ceil(window[0] * n), math.floor(window[1] * n)
        binomial = sum(comb(n, k) for k in range(k_lo, k_hi + 1))
        assert lebesgue_tail(two_sys, n, window) == Fraction(binomial, 2**n)


def test_exact_tails_are_exact(pisot_sys, golden_sys, two_sys):
    # the tails add up to exactly 1 in the number field; the cubic's at
    # n = 30 on [0, 0.2] is -803 + 581 beta + 19 beta^2
    for system, n in ((pisot_sys, 30), (golden_sys, 40), (two_sys, 30)):
        assert lebesgue_tail(system, n, (0.0, 1.0)) == 1
    tail = lebesgue_tail(pisot_sys, 30, (0.0, 0.2))
    beta = pisot_sys.beta_element
    assert tail == -803 + 581 * beta + 19 * beta * beta
    assert round(float(tail), 8) == 0.00380882


def test_mc_beta2_matches_binomial(two_sys):
    # each fixed seed's hits lie within MAX_SIGMAS of N p, p the binomial tail
    n, window, count = 30, (0.7, 0.75), 200000
    p = sum(comb(n, k) for k in range(21, 23)) / 2**n  # means 21/30 and 22/30
    assert p == float(lebesgue_tail(two_sys, n, window))
    for seed in SEEDS:
        hits = mc_deviation(two_sys, DIGIT1, window, n, count, seed).hits
        assert sigmas(hits, count, p) <= MAX_SIGMAS, seed


@pytest.mark.parametrize("name, n, window", [("cubic", 30, (0.0, 0.2)),
                                             ("x^2-x-1", 40, (0.0, 0.25))],
                         ids=["cubic", "x^2-x-1"])
def test_mc_hits_lie_within_sigmas_of_the_exact_tail(name, n, window, pisot_sys, golden_sys):
    system = {"cubic": pisot_sys, "x^2-x-1": golden_sys}[name]
    count = 200000
    p = float(lebesgue_tail(system, n, window))
    for seed in SEEDS:
        hits = mc_deviation(system, DIGIT1, window, n, count, seed).hits
        assert sigmas(hits, count, p) <= MAX_SIGMAS, seed


def test_mc_ci_coverage_over_seeds(two_sys):
    # the exact coverage of the 95% Wilson interval at this N and the exact
    # tail p: the Binomial(N, p) mass of the hit counts whose interval covers
    # p; then each fixed seed's hits lie within MAX_SIGMAS of N p
    n, window, count = 20, (0.7, 0.8), 20000
    p = sum(comb(n, k) for k in range(14, 17)) / 2**n  # means 14/20, 15/20 and 16/20
    assert p == float(lebesgue_tail(two_sys, n, window))

    def pmf(k):
        return math.exp(math.lgamma(count + 1) - math.lgamma(k + 1) - math.lgamma(count - k + 1)
                        + k * math.log(p) + (count - k) * math.log1p(-p))

    intervals = (wilson_interval(k, count) for k in range(count + 1))
    coverage = sum(pmf(k) for k, (lo, hi) in enumerate(intervals) if lo <= p <= hi)
    assert coverage >= 0.94
    for seed in SEEDS:
        est = mc_deviation(two_sys, DIGIT1, window, n, count, seed)
        assert sigmas(est.hits, count, p) <= MAX_SIGMAS, seed


def test_mc_window_monotone(two_sys):
    small = mc_deviation(two_sys, DIGIT1, (0.7, 0.75), 20, 20000, seed=3)
    large = mc_deviation(two_sys, DIGIT1, (0.65, 0.8), 20, 20000, seed=3)
    assert large.rate <= small.rate


def test_mc_never_hit(two_sys):
    with pytest.raises(WindowNeverHit) as err:
        mc_deviation(two_sys, DIGIT1, (0.999, 1.0), 40, 500, seed=5)
    assert err.value.estimate.hits == 0
    assert err.value.estimate.rate is None
    assert err.value.estimate.rate_lower_bound > 0


def test_mc_engines_agree(two_sys):
    block = _philox_block(_seed_key(9), range(500))
    fast = _digit_means_beta2([0.0, 1.0], 24, block).tolist()
    slow = _digit_means_generic(two_sys.b, [0.0, 1.0], 24, block, precision=90,
                                beta_fixed=_beta_fixed_point(two_sys, 90)).tolist()
    assert fast == slow


def test_mc_pisot_near_maximal_mean(pisot_sys):
    # N p is about 32.7, so no fixed seed misses the window, and each rate
    # lies more than 10 of its standard deviations inside both bounds
    n, window, count = 30, (1.0 - 1 / 30, 1.0), 200000
    p = float(lebesgue_tail(pisot_sys, n, window))
    log_beta = pisot_sys.log_beta()
    # cross-check against the exact all-ones cylinder decay
    exact = -math.log(float(cylinder_interval(pisot_sys, (1,) * n).length)) / n
    for seed in SEEDS:
        est = mc_deviation(pisot_sys, DIGIT1, window, n, count, seed)
        assert sigmas(est.hits, count, p) <= MAX_SIGMAS, seed
        assert abs(est.rate - log_beta) < 0.12
        assert est.rate <= exact + 0.05


def test_mc_deterministic_given_seed(two_sys):
    a = mc_deviation(two_sys, DIGIT1, (0.6, 0.8), 15, 4000, seed=42)
    b = mc_deviation(two_sys, DIGIT1, (0.6, 0.8), 15, 4000, seed=42)
    assert a == b


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert 0.4 < lo < 0.5 < hi < 0.6
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0


def test_deviation_estimate_maps_wilson_to_rates():
    est = deviation_estimate(10, 100, 25, seed=3)
    p_lo, p_hi = wilson_interval(25, 100)
    assert est.rate == -math.log(0.25) / 10
    assert (est.ci_lo, est.ci_hi) == (-math.log(p_hi) / 10, -math.log(p_lo) / 10)
    assert (est.n, est.sample_count, est.hits, est.seed) == (10, 100, 25, 3)


def test_deviation_estimate_zero_hits_certifies_lower_bound():
    with pytest.raises(WindowNeverHit) as info:
        deviation_estimate(10, 100, 0, seed=3)
    est = info.value.estimate
    assert est.hits == 0 and est.rate is None and est.ci_hi == float("inf")
    assert est.rate_lower_bound == -math.log(wilson_interval(0, 100)[1]) / 10 > 0


# -- exact decay anchor ------------------------------------------------------------------


def test_all_ones_cylinder_corridor(pisot_sys):
    g = pisot_sys.beta.generator()
    log_beta = pisot_sys.log_beta()
    width = abs(math.log(1 - 1 / float(g)))
    for n in range(1, 41):
        length = cylinder_interval(pisot_sys, (1,) * n).length
        rate = -math.log(float(length)) / n
        assert log_beta - 1e-12 <= rate <= log_beta + width / n + 1e-12
    rate30 = -math.log(float(cylinder_interval(pisot_sys, (1,) * 30).length)) / 30
    assert abs(rate30 - log_beta) <= 0.05


def test_all_ones_cylinder_exact_form(pisot_sys):
    # the all-ones cylinder contracts by exactly one branch slope per step
    g = pisot_sys.beta.generator()
    for n in range(1, 20):
        length = cylinder_interval(pisot_sys, (1,) * n).length
        assert length == (g - 1) / g**n


# -- rate function separation -----------------------------------------------------------


def test_compare_rate_functions_witness(pisot_sys):
    rows = compare_rate_functions(pisot_sys)
    log_beta = pisot_sys.log_beta()
    witness = rows[0]
    assert witness.carried_on_tail is False
    assert abs(witness.lebesgue_rate + log_beta) < 1e-12
    assert witness.max_entropy_rate == float("-inf")


def test_compare_rate_functions_parry_row(pisot_sys):
    rows = compare_rate_functions(pisot_sys)
    parry_row = rows[2]
    assert abs(parry_row.lebesgue_rate) < 1e-9
    assert abs(parry_row.max_entropy_rate) < 1e-9


def test_compare_rate_functions_mixtures(pisot_sys):
    log_beta = pisot_sys.log_beta()
    for row in compare_rate_functions(pisot_sys)[3:]:
        assert row.max_entropy_rate == float("-inf")
        # h = (1-a) log(beta) makes the Lebesgue rate -a log(beta)
        assert abs(row.lebesgue_rate - (row.entropy - log_beta)) < 1e-12


def test_compare_rate_functions_wrong_beta(two_sys):
    with pytest.raises(WrongBeta):
        compare_rate_functions(two_sys)
