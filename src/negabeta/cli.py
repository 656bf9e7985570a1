"""Batch command-line surface.

One subcommand per analysis; outputs are machine-readable (JSON with sorted
keys, RFC-4180 CSV, or DOT) and byte-identical for identical configuration
and seed.  All randomness flows from an explicit ``--seed``; stochastic
commands refuse to run without one.  Exit codes: 0 success, 1 property
violation found, 2 usage error, 3 refused: a step/exactness budget exhausted
(stderr ``budget exhausted:``) or a proof that the expansion of 1 is not
eventually periodic because beta is not an algebraic integer (``not
Yrrap:``), 4 output error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import re
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

try:  # the C string encoder of the json package, without loading its decoder
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

# The other modules are imported by the commands that run them, so a process
# loads only what its subcommand needs.
from negabeta import algebraic
from negabeta.algebraic import parse_beta_spec
from negabeta.transform import (
    EXPANSION_STEPS, MinusBetaSystem, NotAlgebraicInteger, NotEventuallyPeriodic, word_to_text,
)


class UsageError(Exception):
    """Bad command line; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises what argparse rejects as a usage error, which prints one line.

    A token that starts like a negative number (``-0.1:0.5:3``, ``-.5``,
    ``-inf``, ``-nan``) is a flag value, not a flag, so it reaches the
    command's own check; subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


class _NeverHit(Exception):
    """A Monte Carlo window that no sample hit; maps to exit code 3.

    Carries the message and the report, which still certifies a rate lower
    bound and is emitted like any report: to ``--out`` if given, else stdout.
    """


class _Violation(Exception):
    """A property violation with no report to emit; maps to exit code 1.

    Prints one ``property violation:`` line on stderr and nothing on stdout.
    """


@dataclass
class RunConfig:
    """Validated invocation: command, beta, parameters, seed, output routing."""

    command: str
    beta_text: Optional[str]
    seed: Optional[int]
    fmt: str
    out: Optional[str]
    digits: int
    params: dict = field(default_factory=dict)


_STOCHASTIC = {"mc", "example32"}
# the commands whose results each non-JSON format can write, and the usage
# error for the others
_FORMAT_COMMANDS = {
    "csv": ({"cyl", "rate", "compare-rates"},
            "csv format applies to row-shaped results (cyl, rate, compare-rates)"),
    "dot": ({"graph", "components"},
            "dot format applies to graph-shaped results (graph, components)"),
}
# cap on --digits, below Python's 4300-digit limit on int-to-str conversion
MAX_DIGITS = 1000


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="negabeta",
        description="negative-beta transformation toolkit (batch, machine-readable output)",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p, beta=True):
        if beta:
            p.add_argument("--beta", required=True,
                           help="poly:<c0,...,ck>;interval:<lo>,<hi> or decimal:<d>;precision:<n> "
                                "(the exact rational d; precision is accepted and not read)")
        p.add_argument("--format", dest="fmt", default="json", choices=["json", "csv", "dot"])
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--digits", type=int, default=15, help="decimal digits in reports")

    p = sub.add_parser("yrrap", help="digit expansion of 1 and the case tag")
    common(p)
    p.add_argument("--max-steps", type=int, default=EXPANSION_STEPS)

    p = sub.add_parser("graph", help="folded automaton of the expansion")
    common(p)

    p = sub.add_parser("components", help="ordered irreducible component chain")
    common(p)

    p = sub.add_parser("spec", help="gluing certificate for the component chain")
    common(p)
    p.add_argument("--oracle-maxlen", type=int, default=0,
                   help="when > 0, refine exact_min_M by the word oracle to this word length")

    p = sub.add_parser("cyl", help="exact cylinder table")
    common(p)
    p.add_argument("--maxlen", type=int, required=True)

    p = sub.add_parser("gbeta", help="branching distances g(1..n)")
    common(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("entropy", help="component and total entropies")
    common(p)

    p = sub.add_parser("rate", help="level-1 rate function values")
    common(p)
    p.add_argument("--obs", default="digit1", help="digit | digit<k> (indicator)")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--a-grid", default=None, help="lo:hi:count sweep of target means")

    p = sub.add_parser("mc", help="Monte Carlo deviation estimate")
    common(p)
    p.add_argument("--obs", default="digit1")
    p.add_argument("--window", required=True, help="lo:hi window of observable means")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", dest="samples", type=int, required=True)

    p = sub.add_parser("compare-rates", help="Lebesgue vs maximal-entropy rate functions")
    common(p)

    p = sub.add_parser("example31", help="five-branch slope-3 system report")
    common(p, beta=False)
    p.add_argument("--maxlen", type=int, default=8)

    p = sub.add_parser("example32", help="circle-map occupation deviations")
    common(p, beta=False)
    p.add_argument("--a-window", default="0.3:1.0")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--N", dest="samples", type=int, default=100000)
    p.add_argument("--eps", type=float, default=0.05)

    p = sub.add_parser("validate", help="cross-validation and invariant suites")
    common(p)
    p.add_argument("--maxlen", type=int, default=8)

    return parser


_PARSER = _build_parser()


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Parse and validate an argument vector into a RunConfig."""
    ns = _PARSER.parse_args(list(argv))
    if not ns.command:
        raise UsageError("a subcommand is required")
    if ns.command in _STOCHASTIC and ns.seed is None:
        raise UsageError(f"--seed is mandatory for '{ns.command}'")
    if not 1 <= ns.digits <= MAX_DIGITS:
        raise UsageError(f"--digits must be in 1..{MAX_DIGITS}, got {ns.digits}")
    if ns.fmt in _FORMAT_COMMANDS and ns.command not in _FORMAT_COMMANDS[ns.fmt][0]:
        raise UsageError(_FORMAT_COMMANDS[ns.fmt][1])
    params = {
        k: v
        for k, v in vars(ns).items()
        if k not in {"command", "beta", "fmt", "out", "seed", "digits"}
    }
    return RunConfig(
        command=ns.command,
        beta_text=getattr(ns, "beta", None),
        seed=ns.seed,
        fmt=ns.fmt,
        out=ns.out,
        digits=ns.digits,
        params=params,
    )


# -- observable grammar ---------------------------------------------------------------


def parse_observable(text: str, alphabet_bound: int):
    if text == "digit":
        return {d: float(d) for d in range(alphabet_bound + 1)}
    # a run of ASCII digits only: int() would also take signs, spaces and underscores
    match = re.fullmatch("digit([0-9]+)", text)
    if match:
        try:
            k = int(match[1])
        except ValueError as exc:  # more digits than int() converts
            raise UsageError(f"unknown observable {text!r}") from exc
        if not 0 <= k <= alphabet_bound:
            raise UsageError(f"observable {text!r} names no digit: digits are 0..{alphabet_bound}")
        return {d: 1.0 if d == k else 0.0 for d in range(alphabet_bound + 1)}
    raise UsageError(f"unknown observable {text!r}")


def _parse_window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"window must be lo:hi, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError(f"window ends must be finite, got {text!r}")
    if lo > hi:
        raise UsageError("window lower end exceeds upper end")
    return lo, hi


def _system_for(config: RunConfig) -> MinusBetaSystem:
    try:
        return MinusBetaSystem(parse_beta_spec(config.beta_text))
    except (ValueError, algebraic.AlgebraicError) as exc:
        raise UsageError(str(exc)) from exc


# -- command bodies --------------------------------------------------------------------


def _cmd_yrrap(config: RunConfig):
    max_steps = _positive(config, "max_steps", "--max-steps")
    system = _system_for(config)
    seq = system.expansion_of_one(max_steps=max_steps)
    return {
        "preperiod": word_to_text(seq.preperiod, system.b),
        "period": word_to_text(seq.period, system.b),
        "case": system.case.value,
        "b": system.b,
        "u": seq.u,
        "v": seq.v,
        "beta": algebraic.to_decimal(system.beta.generator(), config.digits),
    }


def _cmd_graph(config: RunConfig):
    from negabeta import shiftgraph

    system = _system_for(config)
    aut = shiftgraph.automaton_for(system)
    payload = aut.graph.to_json_dict()
    payload["fold"] = {"start": aut.fold_start, "period": aut.fold_period}
    if config.fmt == "dot":
        return aut.graph.to_dot(alphabet_bound=system.b)
    return payload


def _cmd_components(config: RunConfig):
    from negabeta import shiftgraph

    system = _system_for(config)
    chain = shiftgraph.chain_for(system)
    if config.fmt == "dot":
        return chain.automaton.graph.to_dot(chain.components, alphabet_bound=system.b)
    payload = chain.automaton.graph.to_json_dict()
    payload.update(chain.to_json_dict())
    return payload


def _cmd_spec(config: RunConfig):
    from negabeta import shiftgraph, specprop

    maxlen = config.params["oracle_maxlen"]
    if maxlen < 0:
        raise UsageError(f"--oracle-maxlen must be >= 0, got {maxlen}")
    system = _system_for(config)
    chain = shiftgraph.chain_for(system)
    pres = specprop.SoficPresentation.from_chain(chain)
    cert = specprop.spec_bound(pres, oracle_maxlen=maxlen or None)
    return cert.to_json_dict(system.b)


def _cylinder_rows(system: MinusBetaSystem, maxlen: int, digits: int) -> list[dict]:
    from negabeta import measures

    # Neighbouring cylinders share endpoints and many share a length, so each
    # value is formatted once, keyed by its canonical vector: a value costs one
    # tuple lookup instead of a hash of the element.
    formatted: dict[tuple, tuple[str, str]] = {}

    def texts(value) -> tuple[str, str]:
        key = value.nums, value.den
        pair = formatted.get(key)
        if pair is None:
            pair = formatted[key] = (_coeff_text(value), algebraic.to_decimal(value, digits))
        return pair

    rows = []
    for report in measures.cylinder_walk(system, maxlen):
        interval = report.interval
        lo, lo_decimal = texts(interval.lo)
        hi, hi_decimal = texts(interval.hi)
        rows.append(
            {
                "word": word_to_text(interval.word, system.b),
                "lo": lo,
                "hi": hi,
                "lo_decimal": lo_decimal,
                "hi_decimal": hi_decimal,
                "length": texts(report.length)[1],
                "upper_bound_ok": report.upper_bound_ok,
                "lower_bound_applicable": report.lower_bound_applicable,
                "lower_bound_ok": report.lower_bound_ok,
            }
        )
    return rows


def _coeff_text(element) -> str:
    """The coefficient vector as "[c_0,c_1,...]", each c_k as n or n/d in lowest terms."""
    den = element.den
    parts = []
    for num in element.nums:
        g = math.gcd(num, den)
        parts.append(str(num // g) if g == den else f"{num // g}/{den // g}")
    return "[" + ",".join(parts) + "]"


def _positive(config: RunConfig, key: str, flag: str) -> int:
    value = config.params[key]
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _cmd_cyl(config: RunConfig):
    from negabeta import measures

    maxlen = _positive(config, "maxlen", "--maxlen")
    system = _system_for(config)
    try:
        rows = _cylinder_rows(system, maxlen, config.digits)
    except measures.InadmissibleWord as exc:
        # the automaton admits a word whose cylinder has no interior
        raise _Violation(str(exc)) from exc
    return {"rows": rows}


def _cmd_gbeta(config: RunConfig):
    from negabeta import measures

    n = _positive(config, "n", "--n")
    system = _system_for(config)
    values = measures.g_beta_values(system, n)
    return {"n": n, "g": values, "max": max(values)}


def _cmd_entropy(config: RunConfig):
    from negabeta import shiftgraph

    system = _system_for(config)
    chain = shiftgraph.chain_for(system)
    comps = []
    for i in range(chain.q):
        h = shiftgraph.entropy_estimate(chain.automaton, chain.components[i])
        comps.append({"component": i + 1, "entropy": h if h != float("-inf") else None})
    total = shiftgraph.entropy_estimate(chain.automaton)
    return {
        "components": comps,
        "topological_entropy": total,
        "log_beta": system.log_beta(),
    }


def _cmd_rate(config: RunConfig):
    from negabeta import ldp, shiftgraph

    system = _system_for(config)
    chain = shiftgraph.chain_for(system)
    psi = parse_observable(config.params["obs"], system.b)
    phi_const = system.log_beta()
    targets = []
    if config.params.get("a") is not None:
        targets.append(config.params["a"])
    if config.params.get("a_grid"):
        try:
            lo, hi, count = config.params["a_grid"].split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError as exc:
            raise UsageError("a-grid must be lo:hi:count") from exc
        if count < 1:
            raise UsageError(f"a-grid count must be >= 1, got {count}")
        targets.extend(lo + (hi - lo) * k / max(count - 1, 1) for k in range(count))
    if not targets:
        raise UsageError("give --a or --a-grid")
    if not all(math.isfinite(a) for a in targets):
        raise UsageError("target means must be finite")
    envelope = ldp.rate_envelope(chain, psi)  # everything that does not depend on a
    try:
        rows = [ldp.level1_rate(chain, psi, a, phi_const, envelope=envelope).to_json_dict()
                for a in targets]
    except ldp.UnachievableLevel as exc:
        raise UsageError(f"unachievable level: {exc}") from exc
    return {"rows": rows, "phi_const": phi_const, "note": "level-1 values are derived consequences"}


def _cmd_mc(config: RunConfig):
    from negabeta import ldp

    n = _positive(config, "n", "--n")
    samples = _positive(config, "samples", "--N")
    system = _system_for(config)
    psi = parse_observable(config.params["obs"], system.b)
    window = _parse_window(config.params["window"])
    try:
        estimate = ldp.mc_deviation(system, psi, window, n, samples, config.seed)
    except ldp.OrbitTooLong as exc:
        raise UsageError(str(exc)) from exc
    except ldp.WindowNeverHit as exc:
        raise _NeverHit(str(exc), exc.report) from exc
    return estimate.to_json_dict()


def _cmd_compare_rates(config: RunConfig):
    from negabeta import ldp

    system = _system_for(config)
    try:
        rows = ldp.compare_rate_functions(system)
    except ldp.WrongBeta as exc:
        raise UsageError(str(exc)) from exc
    return {"rows": [r.to_json_dict() for r in rows]}


def _cmd_example31(config: RunConfig):
    from negabeta import intervalmaps, specprop

    maxlen = _positive(config, "maxlen", "--maxlen")
    _, pres = intervalmaps.example31_system()
    cert = specprop.spec_bound(pres, oracle_maxlen=maxlen)
    reports = intervalmaps.example31_measure_bounds(maxlen)
    return {
        "certificate": cert.to_json_dict(4),
        "words_checked": sum(r.words for r in reports),
        "bounds_ok": all(r.lower_ok and r.upper_ok for r in reports),
        "maxlen": maxlen,
    }


def _cmd_example32(config: RunConfig):
    from negabeta import intervalmaps, ldp

    n = _positive(config, "n", "--n")
    samples = _positive(config, "samples", "--N")
    window = _parse_window(config.params["a_window"])
    eps = config.params["eps"]
    if not 0 < eps < 0.5:  # nan too; from 0.5 on, the neighbourhood holds the sink 1/2
        raise UsageError(f"--eps must lie in (0, 0.5), got {eps}")
    circle = {
        "nonwandering": intervalmaps.circle_nonwandering(intervalmaps.CircleMap()),
        "predicted_rate": intervalmaps.predicted_occupation_rate(window[0]),
    }
    try:
        estimate = intervalmaps.circle_mc_deviation(window, n, samples, config.seed, eps=eps)
    except ldp.WindowNeverHit as exc:
        raise _NeverHit(str(exc), {**exc.report, **circle}) from exc
    return {**estimate.to_json_dict(), **circle}


def _cmd_validate(config: RunConfig):
    from negabeta import measures, shiftgraph, specprop

    maxlen = _positive(config, "maxlen", "--maxlen")
    system = _system_for(config)
    checks = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    aut = shiftgraph.automaton_for(system)
    chain = shiftgraph.decompose(aut)
    graph, table = aut.graph, measures.image_table(system)
    # the shortest word that the automaton and the branches' image table disagree on, at any length
    gap = measures.language_gap(graph, table)
    record("language_cross_validation", gap is None,
           "" if gap is None else f"counterexample {word_to_text(gap, system.b)}")

    # The words up to maxlen in classes of (end states, image): the words of
    # a class share their branching and their image, so both bounds too.
    try:
        levels, unread = list(measures.word_classes(graph, table, maxlen)), ""
    except measures.InadmissibleWord as exc:
        # an admitted word has no cylinder with interior: each check read off the classes fails
        levels, unread = [], str(exc)
    classes = [(states, image, word) for level in levels
               for (states, image), (word, _) in level.items()]
    corrected = (system.beta.one() - system.b * system.beta_inverse) * system.beta_inverse
    bounds = table.bounds(corrected)
    record("cylinder_upper_bounds",
           not unread and all(bounds(image[0], image[2])[0] for _, image, _ in classes), unread)
    # the least word in preorder that branches and falls below the bound
    low = min(((word, image) for states, image, word in classes
               if len(graph.followers(states)) >= 2 and not bounds(image[0], image[2])[1]),
              default=None)
    detail = unread
    if low is not None:
        word, (lo, _, hi, _) = low
        # length/scale is the width of the word's image
        detail = (f"word {word_to_text(word, system.b)} has length/scale "
                  f"{algebraic.to_decimal(table.points[hi] - table.points[lo], 6)} below "
                  f"(1 - b/beta)/beta = {algebraic.to_decimal(corrected, 6)}")
    record("cylinder_lower_bounds_corrected", not unread and low is None, detail)
    shallow = levels[:min(maxlen, 8)]
    totals = [sum((count * table.length(n, image) for (_, image), (_, count) in level.items()),
                  system.beta.zero()) for n, level in enumerate(shallow, 1)]
    record("partition_identity", not unread and all(total == 1 for total in totals), unread)

    pres = specprop.SoficPresentation.from_chain(chain)
    cert = specprop.spec_bound(pres)
    record("omega_coverage", specprop.omega_coverage_check(pres))
    record("ergodic_support", specprop.ergodic_support_check(pres))
    record("gluing_certificate", specprop.gluing_test(pres, cert))

    out_deg_ok = all(
        1 <= len(graph.out_edges(v)) <= system.b + 1 for v in range(graph.vertex_count)
    )
    record("out_degree_bounds", out_deg_ok)

    counts = [1] + [sum(count for _, count in level.values()) for level in shallow]
    submult = all(
        counts[n + m] <= counts[n] * counts[m]
        for n in range(len(counts))
        for m in range(len(counts) - n)
    )
    record("count_submultiplicativity", not unread and submult, unread)

    all_ok = all(c["ok"] for c in checks)
    return {"ok": all_ok, "checks": checks}


_COMMANDS = {
    "yrrap": _cmd_yrrap,
    "graph": _cmd_graph,
    "components": _cmd_components,
    "spec": _cmd_spec,
    "cyl": _cmd_cyl,
    "gbeta": _cmd_gbeta,
    "entropy": _cmd_entropy,
    "rate": _cmd_rate,
    "mc": _cmd_mc,
    "compare-rates": _cmd_compare_rates,
    "example31": _cmd_example31,
    "example32": _cmd_example32,
    "validate": _cmd_validate,
}


# -- report emission ----------------------------------------------------------------------


def _json_scalar(value) -> Optional[str]:
    """The JSON text of a string, number, bool or None; None for anything else."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    return None


def _json_parts(value, indent: str, parts: list[str]) -> None:
    """Append the JSON text of ``value``, nested one level below ``indent``."""
    text = _json_scalar(value)
    if text is not None:
        parts.append(text)
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        deeper = indent + "  "
        separator = ",\n" + deeper
        parts.append("[\n" + deeper)
        for k, item in enumerate(value):
            if k:
                parts.append(separator)
            _json_parts(item, deeper, parts)
        parts.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        deeper = indent + "  "
        separator, comma = "{\n" + deeper, ",\n" + deeper
        for key, item in sorted(value.items()):
            name = _json_scalar(key)
            if name is None:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(key).__name__}")
            if not isinstance(key, str):
                name = encode_basestring_ascii(name)
            parts.append(separator + name + ": ")
            separator = comma
            _json_parts(item, deeper, parts)
        parts.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)``, byte for byte.

    The stdlib encodes with an indent in pure Python, through closures built
    on every call that leave a reference cycle behind; this recursion builds
    none.
    """
    parts: list[str] = []
    _json_parts(value, "", parts)
    return "".join(parts)


def emit_report(result, fmt: str, out: Optional[str]) -> str:
    """Serialize a command result with stable field ordering."""
    if fmt == "dot":
        if not isinstance(result, str):
            raise UsageError(_FORMAT_COMMANDS["dot"][1])
        text = result
    elif fmt == "csv":
        rows = result.get("rows") if isinstance(result, dict) else None
        if rows is None:
            raise UsageError(_FORMAT_COMMANDS["csv"][1])
        header = list(rows[0]) if rows else []
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows([row[key] for key in header] for row in rows)
        text = buf.getvalue()
    else:
        text = _json_text(result) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise IOError(str(exc)) from exc
    return text


def run(config: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    body = _COMMANDS.get(config.command)
    if body is None:
        raise UsageError(f"unknown command {config.command!r}")
    never_hit = None
    try:
        result = body(config)
    except _NeverHit as exc:
        # a zero-hit run still certifies a rate lower bound: its report goes out like any other
        never_hit, result = exc.args
    except _Violation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    text = emit_report(result, config.fmt, config.out)
    if not config.out:
        sys.stdout.write(text)
    if never_hit is not None:
        print(f"window never hit: {never_hit}", file=sys.stderr)
        return 3
    if isinstance(result, dict) and result.get("ok") is False:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        config = parse_config(argv)
        return run(config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except NotAlgebraicInteger as exc:
        print(f"not Yrrap: {exc}", file=sys.stderr)
        return 3
    except NotEventuallyPeriodic as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except IOError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
