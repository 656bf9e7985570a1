"""Seeded workloads and the exact anchors every job's output is checked against.

A workload is a list of CLI jobs.  The benchmark seed picks the bases, grids,
Monte Carlo windows and the program's own ``--seed``; the program only ever
sees argv.  Every job carries an anchor: a check of its stdout against an
exact or closed-form value that the benchmark computes on its own.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

CUBIC = (-1, -1, 0, 1)      # x^3 - x - 1, the paper's cubic Pisot base
GOLDEN = (-1, -1, 1)        # x^2 - x - 1
BASE2 = (-2, 1)             # x - 2
DEFECT = (-1, -1, -2, 1)    # x^3 - 2x^2 - x - 1, see KNOWN_DEFECTS

# Bases whose folded automaton accepts words with an empty cylinder (for
# x^3-2x^2-x-1 it accepts "20"), mapped to the anchors that defect breaks:
# the automaton entropy exceeds log(beta), and for x^4-x^3-1 one state also
# has three out-edges with b = 1.  Measured over every base of the pools
# below; every one of them is in every `presentations` pass, so the defect
# keeps showing in `failed`.
KNOWN_DEFECTS = {
    coeffs: {"entropy"} for coeffs in [
        (-3, -3, -2, 1), (-3, -1, -3, 1), (-3, 0, -3, 1), (-2, -3, -2, 1), (-2, -3, -1, 1),
        (-2, -2, -3, 1), (-2, -2, -1, 1), (-2, 0, -2, 1), (-1, -1, -3, 1), (-1, -1, -2, 1),
        (-1, -2, -2, -1, 1), (1, 0, -1, -2, 1),
    ]
}
KNOWN_DEFECTS[(-1, 0, 0, -1, 1)] = {"entropy", "graph"}

Anchor = Callable[[str], Optional[str]]  # stdout -> None, or why it missed


@dataclass(frozen=True)
class Base:
    coeffs: tuple[int, ...]  # lowest degree first, monic
    beta: float

    @property
    def b(self) -> int:
        return math.floor(self.beta)

    @property
    def spec(self) -> str:
        lo = self.b if self.beta != self.b else self.b - 1  # isolate an integer root too
        return f"poly:{','.join(map(str, self.coeffs))};interval:{lo},{self.b + 1}"

    @property
    def name(self) -> str:
        terms = []
        deg = len(self.coeffs) - 1
        for k in range(deg, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            mag = abs(c)
            body = f"{mag}{mono}" if mono == "" or mag != 1 else mono
            terms.append(("-" if c < 0 else "+") + body)
        text = "".join(terms)
        return text[1:] if text.startswith("+") else text


@dataclass
class Job:
    argv: list[str]
    kind: str                  # command, or "mc.generic" / "mc.base2"
    anchor: Anchor
    base: Optional[Base] = None
    units: int = 0             # rate points or MC samples; cyl rows come from the output

    @property
    def known_defect(self) -> bool:
        return self.base is not None and self.kind in KNOWN_DEFECTS.get(self.base.coeffs, ())


def make_base(coeffs) -> Base:
    roots = np.roots(list(reversed(coeffs)))
    return Base(tuple(coeffs), float(max(roots, key=abs).real))


def _is_pisot(coeffs) -> bool:
    roots = sorted(np.roots(list(reversed(coeffs))), key=abs)
    big, mods = roots[-1], [abs(r) for r in roots]
    # a margin keeps float root moduli away from the unit circle
    return abs(big.imag) < 1e-9 and big.real > 1.0001 and mods[-2] < 0.97


def pisot_pool(degree: int, lo: int, hi: int, max_b: int) -> list[Base]:
    """Irreducible monic Pisot polynomials with lower coefficients in [lo, hi]."""
    import sympy  # a dependency of the program itself

    x = sympy.Symbol("x")
    out = []
    for lower in itertools.product(range(lo, hi + 1), repeat=degree):
        coeffs = (*lower, 1)
        if lower[0] == 0 or not _is_pisot(coeffs):
            continue
        if not sympy.Poly(list(reversed(coeffs)), x).is_irreducible:
            continue
        base = make_base(coeffs)
        if base.b <= max_b:
            out.append(base)
    return out


def pools() -> dict[str, list[Base]]:
    return {
        "quadratic": pisot_pool(2, -3, 3, 3),
        "cubic": pisot_pool(3, -3, 3, 3),
        "quartic": pisot_pool(4, -2, 2, 3),
    }


# -- anchors ---------------------------------------------------------------------------------


def coeff_vector(text: str) -> list[Fraction]:
    return [Fraction(c) for c in text.strip("[]").split(",")]


def cyl_anchor(maxlen: int) -> Anchor:
    """Every upper bound holds and, per depth, the exact lengths sum to [1, 0, ...]."""
    def check(out: str) -> Optional[str]:
        sums: dict[int, list[Fraction]] = {}
        for row in csv.DictReader(io.StringIO(out)):
            if row["upper_bound_ok"] != "True":
                return f"upper bound fails on {row['word']}"
            lo, hi = coeff_vector(row["lo"]), coeff_vector(row["hi"])
            acc = sums.setdefault(len(row["word"]), [Fraction(0)] * len(lo))
            for i, (a, c) in enumerate(zip(lo, hi)):
                acc[i] += c - a
        if sorted(sums) != list(range(1, maxlen + 1)):
            return f"depths {sorted(sums)} instead of 1..{maxlen}"
        for n, acc in sums.items():
            if acc != [1] + [0] * (len(acc) - 1):
                return f"partition identity fails at depth {n}"
        return None
    return check


def example31_anchor(out: str) -> Optional[str]:
    return None if json.loads(out)["bounds_ok"] is True else "bounds_ok is false"


def entropy_anchor(out: str) -> Optional[str]:
    data = json.loads(out)
    gap = data["topological_entropy"] - data["log_beta"]
    return None if abs(gap) <= 1e-9 else f"h_top - log(beta) = {gap:.3e}"


def yrrap_anchor(base: Base) -> Anchor:
    def check(out: str) -> Optional[str]:
        data = json.loads(out)
        if data["b"] != base.b or abs(float(data["beta"]) - base.beta) > 1e-9:
            return f"beta {data['beta']} / b {data['b']} disagree with the float root"
        return None
    return check


def graph_anchor(base: Base) -> Anchor:
    """Every automaton state has between 1 and b+1 outgoing edges, labels in 0..b."""
    def check(out: str) -> Optional[str]:
        data = json.loads(out)
        degree = [0] * data["vertices"]
        for s, a, _ in data["edges"]:
            if not 0 <= a <= base.b:
                return f"label {a} outside 0..{base.b}"
            degree[s] += 1
        if not all(1 <= d <= base.b + 1 for d in degree):
            return "out-degree outside 1..b+1"
        return None
    return check


def components_anchor(out: str) -> Optional[str]:
    """Disjoint vertex sets inside the automaton; only the last piece is open-ended."""
    data = json.loads(out)
    comps = data["components"]
    seen = [v for comp in comps for v in comp["vertices"]]
    if not comps or len(seen) != len(set(seen)) or not all(0 <= v < data["vertices"] for v in seen):
        return "components are not disjoint vertex sets"
    if comps[-1]["n"] is not None or any(c["n"] is None for c in comps[:-1]):
        return "the open-ended piece is not last"
    return None


def spec_anchor(out: str) -> Optional[str]:
    data = json.loads(out)
    if data["kind"] not in ("strong_one_way", "w_one_way") or data["M"] < 0 or not data["pairs"]:
        return f"malformed certificate {data['kind']} M={data['M']}"
    if data.get("exact_min_M", 0) > data["M"]:
        return f"oracle exact_min_M {data['exact_min_M']} exceeds certified M {data['M']}"
    return None


def gbeta_anchor(n: int) -> Anchor:
    def check(out: str) -> Optional[str]:
        data = json.loads(out)
        g = data["g"]
        if len(g) != n or data["max"] != max(g) or min(g) < 0:
            return "g table malformed"
        return None
    return check


def _binary_entropy(a: float) -> float:
    return -a * math.log(a) - (1 - a) * math.log(1 - a)


def rate_anchor(points: int, base2: bool) -> Anchor:
    """Base 2: rate = log 2 - H(a) exactly (to 1e-9).  Otherwise rates are >= 0."""
    def check(out: str) -> Optional[str]:
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != points:
            return f"{len(rows)} rate rows, expected {points}"
        for row in rows:
            a, rate = float(row["a"]), float(row["rate"])
            if base2 and abs(rate - (math.log(2) - _binary_entropy(a))) > 1e-9:
                return f"rate({a}) = {rate} differs from log 2 - H(a)"
            if rate < -1e-9:
                return f"negative rate {rate} at a={a}"
        return None
    return check


def _wilson(hits: int, total: int, z: float) -> tuple[float, float]:
    phat = hits / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return center - half, center + half


def _mc_consistent(data: dict, samples: int) -> Optional[str]:
    if data["N"] != samples or data["hits"] < 1:
        return f"N={data['N']} hits={data['hits']}"
    if not data["ci_lo"] <= data["rate"] <= data["ci_hi"]:
        return "rate outside its own confidence interval"
    return None


def mc_anchor(samples: int, n: int, window: tuple[float, float], base2: bool) -> Anchor:
    """Base 2: the exact binomial tail lies in a 6-sigma Wilson interval of the estimate."""
    def check(out: str) -> Optional[str]:
        data = json.loads(out)
        why = _mc_consistent(data, samples)
        if why or not base2:
            return why
        lo, hi = window
        tail = Fraction(sum(math.comb(n, k) for k in range(n + 1) if lo <= k / n <= hi), 2 ** n)
        w_lo, w_hi = _wilson(data["hits"], samples, 6.0)
        if not w_lo <= tail <= w_hi:
            return f"exact tail {float(tail):.6g} outside [{w_lo:.6g}, {w_hi:.6g}]"
        return None
    return check


def example32_anchor(samples: int, a_lo: float) -> Anchor:
    def check(out: str) -> Optional[str]:
        data = json.loads(out)
        why = _mc_consistent(data, samples)
        if why:
            return why
        if data["nonwandering"] != [0.0, 0.5]:
            return f"nonwandering set {data['nonwandering']}"
        predicted = a_lo * math.log(1 + 0.2 * math.pi)
        if abs(data["predicted_rate"] - predicted) > 1e-12:
            return "predicted rate differs from a * log f'(0)"
        return None
    return check


def compare_rates_anchor(out: str) -> Optional[str]:
    log_beta = math.log(make_base(CUBIC).beta)
    for row in json.loads(out)["rows"]:
        if abs(row["q_lebesgue"] - (row["h"] - log_beta)) > 1e-9:
            return f"q_lebesgue != h - log(beta) for {row['measure']}"
    return None


# -- workloads -------------------------------------------------------------------------------


def _cyl_depth(base: Base, rows: int) -> int:
    """Deepest table whose estimated row count sum_k beta^k stays within `rows`."""
    depth = 2
    while sum(base.beta ** k for k in range(1, depth + 2)) <= rows:
        depth += 1
    return depth


def _cyl_job(base: Base, maxlen: int) -> Job:
    return Job(["cyl", "--beta", base.spec, "--maxlen", str(maxlen), "--format", "csv"],
               "cyl", cyl_anchor(maxlen), base)


def cylinders(seed: int, pool: dict[str, list[Base]]) -> list[Job]:
    """Exact cylinder tables: the fixed matrix, two seeded b <= 2 bases, example31."""
    rng = random.Random(f"cylinders:{seed}")
    fixed = {CUBIC, GOLDEN, BASE2}
    candidates = [b for fam in ("quadratic", "cubic") for b in pool[fam]
                  if b.b <= 2 and b.coeffs not in fixed]
    jobs = [
        _cyl_job(make_base(CUBIC), 8),
        _cyl_job(Base(BASE2, 2.0), 7),
        _cyl_job(make_base(GOLDEN), 7),
    ]
    for base in rng.sample(candidates, 2):
        jobs.append(_cyl_job(base, _cyl_depth(base, 25)))
    jobs.append(Job(["example31", "--maxlen", "6"], "example31", example31_anchor))
    return jobs


PRESENTATION_COMMANDS = ("yrrap", "graph", "components", "spec", "entropy", "gbeta")


def presentations(seed: int, pool: dict[str, list[Base]]) -> list[Job]:
    """Many bases, one CLI call per command, the way users work.

    Every base of KNOWN_DEFECTS is in every pass, so that the defect shows in
    `failed` on every seed, by the same count.  The seed draws most of the
    other bases of each family, so that the work per pass hardly depends on
    the seed; the oracle length is capped because its cost grows like (b+1)^k.
    """
    rng = random.Random(f"presentations:{seed}")
    fixed = [make_base(CUBIC), make_base(DEFECT)]
    fixed += [make_base(c) for c in sorted(KNOWN_DEFECTS) if c != DEFECT]
    bases = list(fixed)
    for family, count in (("quadratic", 6), ("cubic", 19), ("quartic", 13)):
        members = [b for b in pool[family] if b.coeffs not in {f.coeffs for f in fixed}]
        bases.extend(rng.sample(members, count))
    jobs = []
    for base in bases:
        beta = ["--beta", base.spec]
        jobs += [
            Job(["yrrap", *beta], "yrrap", yrrap_anchor(base), base),
            Job(["graph", *beta], "graph", graph_anchor(base), base),
            Job(["components", *beta], "components", components_anchor, base),
            Job(["spec", *beta, "--oracle-maxlen", "4"], "spec", spec_anchor, base),
            Job(["entropy", *beta], "entropy", entropy_anchor, base),
            Job(["gbeta", *beta, "--n", "10"], "gbeta", gbeta_anchor(10), base),
        ]
    return jobs


def _rate_job(base: Base, lo: float, hi: float, points: int) -> Job:
    target = ["--a", str(lo)] if points == 1 else ["--a-grid", f"{lo}:{hi}:{points}"]
    return Job(["rate", "--beta", base.spec, "--obs", "digit1", *target, "--format", "csv"],
               "rate", rate_anchor(points, base.coeffs == BASE2), base, points)


def _mc_job(base: Base, window: tuple[float, float], n: int, samples: int, seed: int) -> Job:
    base2 = base.coeffs == BASE2
    return Job(["mc", "--beta", base.spec, "--obs", "digit1",
                "--window", f"{window[0]}:{window[1]}", "--n", str(n),
                "--N", str(samples), "--seed", str(seed)],
               "mc.base2" if base2 else "mc.generic",
               mc_anchor(samples, n, window, base2), base, samples)


def deviations(seed: int, pool: dict[str, list[Base]]) -> list[Job]:
    """Rate grids (pressure / spectral radius), both MC engines, the circle map."""
    rng = random.Random(f"deviations:{seed}")
    cubic, golden, base2 = make_base(CUBIC), make_base(GOLDEN), Base(BASE2, 2.0)

    def grid(lo_range, hi_range):
        return round(rng.uniform(*lo_range), 3), round(rng.uniform(*hi_range), 3)

    def window():
        lo = round(rng.uniform(0.25, 0.4), 3)
        return lo, round(lo + 0.1, 3)

    seeded = rng.choice([b for b in pool["quadratic"] if b.b <= 2])
    a_lo = round(rng.uniform(0.25, 0.35), 3)
    return [
        _rate_job(cubic, *grid((0.1, 0.2), (0.8, 0.9)), 5),
        _rate_job(base2, *grid((0.05, 0.15), (0.85, 0.95)), 9),
        _rate_job(seeded, *grid((0.3, 0.6), (0.6, 0.6)), 1),
        _mc_job(cubic, window(), 30, 20000, rng.randrange(10**6)),
        _mc_job(golden, window(), 30, 20000, rng.randrange(10**6)),
        _mc_job(base2, window(), 30, 200000, rng.randrange(10**6)),
        Job(["example32", "--n", "30", "--N", "40000", "--eps", "0.1",
             "--a-window", f"{a_lo}:1.0", "--seed", str(rng.randrange(10**6))],
            "example32", example32_anchor(40000, a_lo), None, 40000),
        Job(["compare-rates", "--beta", cubic.spec], "compare-rates", compare_rates_anchor, cubic),
    ]


WORKLOADS = {"cylinders": cylinders, "presentations": presentations, "deviations": deviations}
