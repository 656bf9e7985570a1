"""Negative-beta transformation toolkit.

Exact digit expansions, finite sofic presentations, one-way gluing
certificates, exact cylinder measures and large-deviation rate machinery for
the orientation-reversing beta map on the unit interval, plus two companion
interval systems used for cross-checks.
"""

from negabeta.algebraic import (
    AlgebraicNumber,
    DecimalBeta,
    FieldElement,
    IntPolynomial,
    MixedFields,
    MultipleRootsInInterval,
    NoRootInInterval,
    field_arith,
    make_algebraic,
    parse_beta_spec,
    sign_of,
    to_decimal,
)
from negabeta.transform import (
    Case,
    DigitSequence,
    HitBoundary,
    InexactMode,
    MinusBetaSystem,
    NotEventuallyPeriodic,
    Ordering,
    Side,
    SignedPoint,
    alt_compare,
)
from negabeta.shiftgraph import (
    ComponentChain,
    FoldedAutomaton,
    LabeledGraph,
    automaton_for,
    build_gamma,
    chain_for,
    count_words,
    cross_validate,
    decompose,
    entropy_estimate,
    fold,
    is_irreducible,
)
from negabeta.specprop import (
    DisconnectedPair,
    SoficPresentation,
    SpecCertificate,
    ergodic_support_check,
    omega_coverage_check,
    spec_bound,
    spec_bruteforce,
)
from negabeta.measures import (
    CylinderInterval,
    EmpiricalMeasure,
    InadmissibleWord,
    MarkovMeasure,
    cylinder_interval,
    cylinder_measure,
    cylinder_walk,
    empirical_measure,
    g_beta_n,
    g_beta_values,
    g_beta_word,
    markov_entropy,
    parry_measure,
    weak_metric_truncated,
)
from negabeta.ldp import (
    DeviationEstimate,
    OrbitTooLong,
    RateResult,
    UnachievableLevel,
    WindowNeverHit,
    WrongBeta,
    compare_rate_functions,
    free_energy,
    level1_rate,
    mc_deviation,
    pressure,
)
from negabeta.intervalmaps import (
    CircleMap,
    PiecewiseExpandingMap,
    circle_mc_deviation,
    circle_nonwandering,
    example31_measure_bounds,
    example31_system,
)

__all__ = [
    "AlgebraicNumber", "DecimalBeta", "FieldElement", "IntPolynomial",
    "MixedFields", "MultipleRootsInInterval", "NoRootInInterval",
    "field_arith", "make_algebraic", "parse_beta_spec", "sign_of", "to_decimal",
    "Case", "DigitSequence", "HitBoundary", "InexactMode", "MinusBetaSystem",
    "NotEventuallyPeriodic", "Ordering", "Side", "SignedPoint", "alt_compare",
    "ComponentChain", "FoldedAutomaton", "LabeledGraph", "automaton_for",
    "build_gamma", "chain_for", "count_words", "cross_validate", "decompose",
    "entropy_estimate", "fold", "is_irreducible",
    "DisconnectedPair", "SoficPresentation", "SpecCertificate",
    "ergodic_support_check", "omega_coverage_check", "spec_bound", "spec_bruteforce",
    "CylinderInterval", "EmpiricalMeasure", "InadmissibleWord", "MarkovMeasure",
    "cylinder_interval", "cylinder_measure", "cylinder_walk", "empirical_measure",
    "g_beta_n", "g_beta_values", "g_beta_word", "markov_entropy", "parry_measure",
    "weak_metric_truncated",
    "DeviationEstimate", "OrbitTooLong", "RateResult", "UnachievableLevel",
    "WindowNeverHit", "WrongBeta", "compare_rate_functions", "free_energy",
    "level1_rate", "mc_deviation", "pressure",
    "CircleMap", "PiecewiseExpandingMap", "circle_mc_deviation",
    "circle_nonwandering", "example31_measure_bounds", "example31_system",
]
