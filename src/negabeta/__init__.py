"""Negative-beta transformation toolkit.

Exact digit expansions, finite sofic presentations, one-way gluing
certificates, exact cylinder measures and large-deviation rate machinery for
the orientation-reversing beta map on the unit interval, plus two companion
interval systems used for cross-checks.

Importing the package loads none of its modules: each exported name, and each
module, is imported on first access (PEP 562), so a command pays only for the
modules it runs.
"""

import importlib

# The public names of each module; ``__all__`` is their union.
_EXPORTS = {
    "algebraic": (
        "FieldElement", "IntPolynomial",
        "MixedFields", "MultipleRootsInInterval", "NoRootInInterval",
        "field_arith", "make_algebraic", "parse_beta_spec", "sign_of", "to_decimal",
    ),
    "transform": (
        "Case", "DigitSequence", "HitBoundary", "MinusBetaSystem", "NotAlgebraicInteger",
        "NotEventuallyPeriodic", "Side",
    ),
    "shiftgraph": (
        "ComponentChain", "FoldedAutomaton", "LabeledGraph", "automaton_for",
        "chain_for", "decompose",
        "entropy_estimate", "fold", "is_irreducible",
    ),
    "specprop": (
        "DisconnectedPair", "SoficPresentation", "SpecCertificate",
        "ergodic_support_check", "omega_coverage_check", "spec_bound", "spec_bruteforce",
    ),
    "measures": (
        "CylinderInterval", "EmpiricalMeasure", "InadmissibleWord", "MarkovMeasure",
        "cylinder_interval", "cylinder_measure", "cylinder_walk", "empirical_measure",
        "g_beta_n", "g_beta_values", "parry_measure", "weak_metric_truncated",
    ),
    "ldp": (
        "DeviationEstimate", "OrbitTooLong", "RateEnvelope", "RateResult",
        "UnachievableLevel", "WindowNeverHit", "WrongBeta", "compare_rate_functions",
        "free_energy", "level1_rate", "mc_deviation", "pressure", "rate_envelope",
    ),
    "intervalmaps": (
        "CircleMap", "PiecewiseExpandingMap", "circle_mc_deviation",
        "circle_nonwandering", "example31_measure_bounds", "example31_system",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
