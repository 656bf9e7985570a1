"""Pressure, level-1 rates, Monte Carlo deviations, rate-function separation."""

import math
from math import comb

import pytest

from negabeta import ldp
from negabeta.algebraic import IntPolynomial, make_algebraic
from negabeta.ldp import (
    UnachievableLevel,
    WindowNeverHit,
    WrongBeta,
    _beta_fixed_point,
    _digit_means_beta2,
    _digit_means_generic,
    _sample_block,
    compare_rate_functions,
    deviation_estimate,
    free_energy,
    level1_rate,
    mc_deviation,
    pressure_value,
    wilson_interval,
)
from negabeta.measures import cylinder_interval, parry_measure
from negabeta.shiftgraph import chain_for
from negabeta.transform import MinusBetaSystem

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
        assert abs(pressure_value(chain, DIGIT1, 0.0) - sys.log_beta()) < 1e-9


def test_pressure_beta2_closed_form(two_sys):
    chain = chain_for(two_sys)
    psi = {0: 0.0, 1: 1.0}
    for t in (-3.0, -1.0, 0.0, 0.5, 2.0):
        assert abs(pressure_value(chain, psi, t) - math.log(1 + math.exp(t))) < 1e-9


def test_pressure_negative_limit_selects_loop_component(pisot_sys):
    chain = chain_for(pisot_sys)
    assert abs(pressure_value(chain, DIGIT1, -60.0)) < 1e-9


def test_pressure_convexity(pisot_sys, two_sys):
    for sys in (pisot_sys, two_sys):
        chain = chain_for(sys)
        grid = [(-3 + k * 0.25) for k in range(25)]
        values = [pressure_value(chain, DIGIT1, t) for t in grid]
        for i in range(1, len(grid) - 1):
            second = values[i - 1] - 2 * values[i] + values[i + 1]
            assert second >= -1e-8


# -- level-1 rates ----------------------------------------------------------------


def test_rate_zero_at_equilibrium_mean(pisot_sys):
    chain = chain_for(pisot_sys)
    measure = parry_measure(chain.component_graph(2))
    a_star = measure.mean_label(DIGIT1)
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


def test_rate_builds_the_component_graphs_once_per_point(pisot_sys, monkeypatch):
    # the ~70 pressure evaluations of one rate point share one weighted copy
    # of the chain's components
    chain = chain_for(pisot_sys)
    built, evaluations = [], []
    real_graph, real_pressure = type(chain).component_graph, ldp.pressure
    monkeypatch.setattr(type(chain), "component_graph",
                        lambda self, i: built.append(i) or real_graph(self, i))
    monkeypatch.setattr(ldp, "pressure",
                        lambda *args, **kwargs: evaluations.append(1) or real_pressure(*args, **kwargs))
    level1_rate(chain, DIGIT1, 0.4, pisot_sys.log_beta())
    assert built == list(range(chain.q))
    assert len(evaluations) > 50


def test_rate_finds_constant_radii_once_per_point(pisot_sys, monkeypatch):
    # the cubic's two loop components carry only the digit 0: their matrix is
    # the same at every t, so each spectral radius is found once, not once per
    # pressure evaluation
    chain = chain_for(pisot_sys)
    constant = [c[2] is not None for c in ldp._weighted_components(chain, DIGIT1)]
    assert constant == [True, True, False]
    radii, evaluations = [], []
    real_radius, real_pressure = ldp.spectral_radius, ldp.pressure
    monkeypatch.setattr(ldp, "spectral_radius", lambda mat: radii.append(1) or real_radius(mat))
    monkeypatch.setattr(ldp, "pressure",
                        lambda *args, **kwargs: evaluations.append(1) or real_pressure(*args, **kwargs))
    level1_rate(chain, DIGIT1, 0.3, pisot_sys.log_beta())
    assert len(evaluations) > 50
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


# -- Monte Carlo -------------------------------------------------------------------


def exact_binomial_rate(n, lo, hi):
    k_lo = math.ceil(lo * n)
    k_hi = math.floor(hi * n)
    p = sum(comb(n, k) for k in range(k_lo, k_hi + 1)) / 2**n
    return -math.log(p) / n


def test_mc_full_window_rate_zero(two_sys):
    est = mc_deviation(two_sys, DIGIT1, (0.0, 1.0), 10, 2000, seed=1)
    assert est.hits == est.sample_count
    assert est.rate == 0.0


def test_mc_beta2_matches_binomial(two_sys):
    est = mc_deviation(two_sys, DIGIT1, (0.7, 0.75), 30, 200000, seed=7)
    exact = exact_binomial_rate(30, 0.7, 0.75)
    assert est.ci_lo <= exact <= est.ci_hi


def test_mc_ci_coverage_over_seeds(two_sys):
    exact = exact_binomial_rate(20, 0.7, 0.8)
    inside = 0
    for seed in range(20):
        est = mc_deviation(two_sys, DIGIT1, (0.7, 0.8), 20, 20000, seed=seed)
        if est.ci_lo <= exact <= est.ci_hi:
            inside += 1
    assert inside >= 17  # 95% nominal coverage, allow slack


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
    block = _sample_block(9, range(500))
    fast = _digit_means_beta2(DIGIT1, 24, block).tolist()
    slow = _digit_means_generic(two_sys, DIGIT1, 24, block, precision=90,
                                beta_fixed=_beta_fixed_point(two_sys, 90)).tolist()
    assert fast == slow


def test_mc_pisot_near_maximal_mean(pisot_sys):
    est = mc_deviation(pisot_sys, DIGIT1, (1.0 - 1 / 30, 1.0), 30, 20000, seed=5)
    log_beta = pisot_sys.log_beta()
    # cross-check against the exact all-ones cylinder decay
    exact = -math.log(float(cylinder_interval(pisot_sys, (1,) * 30).length)) / 30
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
