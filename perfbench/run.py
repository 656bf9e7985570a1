"""Benchmark of the negabeta CLI: seeded workloads run in-process through cli.main.

    python3 perfbench/run.py --workload cylinders --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Workloads are cylinders, presentations,
deviations, or ``all``.  With ``--trace 0`` the untraced passes give the
end-to-end metrics; with ``--trace 1`` untraced passes alternate with traced
ones, whose spans give the per-layer metrics.  Every job's output is checked
against an exact anchor and hashed; the hash must repeat in every pass, traced
or not.  The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import spans
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_SAMPLES = 9
MIN_PASSES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

WORKLOAD_METRICS = {
    "failed_ratio": "ratio",
    "cylinders_per_s": "1/s",
    "bases_per_s": "1/s",
    "base_ms.p50": "ms",
    "base_ms.tail": "ms",
    "base_ms.samples": "count",
    "rate_points_per_s": "1/s",
    "mc_samples_per_s": "1/s",
}

SPAN_METRICS = [
    "algebraic.parse_beta_spec.calls", "algebraic.parse_beta_spec.self_s",
    "algebraic.make_algebraic.calls", "algebraic.make_algebraic.self_s",
    "algebraic.to_decimal.calls", "algebraic.to_decimal.self_s",
    "transform.expansion_of_one.calls", "transform.expansion_of_one.self_s",
    "transform.enumerate_admissible.words", "transform.enumerate_admissible.self_s",
    "transform.word_admissible.calls", "transform.word_admissible.self_s",
    "shiftgraph.automaton_for.calls", "shiftgraph.automaton_for.self_s",
    "shiftgraph.fold.calls",
    "shiftgraph.decompose.self_s", "shiftgraph.entropy_estimate.self_s",
    "shiftgraph.spectral_radius.calls", "shiftgraph.spectral_radius.self_s",
    "specprop.spec_bound.calls", "specprop.spec_bound.self_s",
    "specprop.spec_bruteforce.self_s", "specprop.bruteforce_exact_min.self_s",
    "measures.cylinder_interval.calls", "measures.cylinder_interval.self_s",
    "measures.cylinder_measure.self_s", "measures.g_beta_n.self_s",
    "ldp.level1_rate.calls", "ldp.level1_rate.self_s", "ldp.pressure.calls",
    "ldp.mc_deviation.calls", "ldp.mc_deviation.self_s",
    "intervalmaps.example31_measure_bounds.self_s",
    "intervalmaps.circle_mc_deviation.self_s", "intervalmaps.circle_nonwandering.self_s",
]

DERIVED_METRICS = {
    "measures.cylinder_interval.per_row": "count/row",
    "ldp.pressure.per_point": "count/point",
    "ldp.mc_deviation.us_per_sample.generic": "us",
    "ldp.mc_deviation.us_per_sample.base2": "us",
    "intervalmaps.circle_mc_deviation.us_per_sample": "us",
    "algebraic.mul_us": "us",
    "algebraic.inverse_us": "us",
    "algebraic.sign_us": "us",
    "algebraic.decimal_us": "us",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{name: "s" if name.endswith("self_s") else "count" for name in SPAN_METRICS},
    **DERIVED_METRICS,
    **WORKLOAD_METRICS,
}


# -- running jobs ------------------------------------------------------------------------------


def run_job(cli, job: workloads.Job) -> tuple[float, object, str]:
    """One in-process CLI call: (seconds, exit code or exception text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(job.argv)
    except Exception as exc:  # a traceback is a failed job, never an aborted run
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


class Ledger:
    """Anchor verdicts, output digests and failures of every job.

    ``attempted`` and ``failed`` count jobs, not executions: a job fails when
    any of its executions fails.  So the counts depend on the seed alone, not
    on how many passes fit in the time.
    """

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.digest: list[str | None] = [None] * len(jobs)
        self.verdict: list[str | None] = [None] * len(jobs)
        self.output: list[str] = [""] * len(jobs)
        self.units = [job.units for job in jobs]
        self.executions = 0
        self.job_failed = [False] * len(jobs)
        self.known: dict[str, str] = {}
        self.unexpected: dict[str, str] = {}

    @property
    def attempted(self) -> int:
        return len(self.jobs)

    @property
    def failed(self) -> int:
        return sum(self.job_failed)

    def record(self, i: int, rc, out: str, traced: bool) -> None:
        job = self.jobs[i]
        self.executions += 1
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.digest[i] is None:
            self.digest[i], self.output[i] = digest, out
            self.verdict[i] = self._judge(job, rc, out)
            if job.kind == "cyl":
                self.units[i] = max(out.count("\n") - 1, 0)
        elif digest != self.digest[i]:
            self._fail(i, f"{'traced' if traced else 'repeated'} pass printed other bytes",
                       digest_mismatch=True)
            return
        if self.verdict[i]:
            self._fail(i, self.verdict[i])

    @staticmethod
    def _judge(job: workloads.Job, rc, out: str) -> str | None:
        if rc != 0:
            return f"exit {rc}"
        try:
            return job.anchor(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    def _fail(self, i: int, why: str, digest_mismatch: bool = False) -> None:
        job = self.jobs[i]
        self.job_failed[i] = True
        if job.known_defect and not digest_mismatch:
            self.known[f"{job.base.name} ({job.kind})"] = why
        else:
            self.unexpected[" ".join(job.argv)] = why


def run_pass(cli, jobs, ledger: Ledger, tracer: spans.Tracer | None = None):
    """All jobs once.  Returns per-job seconds and, when traced, the span totals."""
    times = []
    totals = {"self": Counter(), "calls": Counter(), "yields": Counter(),
              "mc_self": Counter(), "spans": 0}
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.reset()
        elapsed, rc, out = run_job(cli, job)
        times.append(elapsed)
        ledger.record(i, rc, out, traced=tracer is not None)
        if tracer is not None:
            selfs = tracer.self_times()
            totals["self"].update(selfs)
            totals["calls"].update(tracer.calls)
            totals["yields"].update(tracer.yields)
            totals["spans"] += len(tracer.spans)
            totals["mc_self"][job.kind] += selfs.get("ldp.mc_deviation", 0.0)
    return times, totals


# -- metrics -----------------------------------------------------------------------------------


def tail(values: list[float]) -> float:
    """Highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return ordered[math.ceil(p / 100 * n) - 1]
    return statistics.median(ordered)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def fastest(passes: list[list[float]]) -> list[float]:
    """Each job's fastest time over the passes.

    Other tenants of a shared machine only ever add time, in bursts that can
    cover several passes; a job's fastest repeat is its cost without them.
    """
    return [min(times) for times in zip(*passes)]


def workload_metrics(jobs, ledger: Ledger, passes: list[list[float]]) -> dict[str, float]:
    """Throughput and per-base latency from the untraced passes."""
    best = fastest(passes)

    def throughput(kinds) -> float:
        busy = sum(t for t, job in zip(best, jobs) if job.kind in kinds)
        return _ratio(sum(u for u, job in zip(ledger.units, jobs) if job.kind in kinds), busy)

    base_ms = []
    for times in passes:
        per_base: dict[str, float] = defaultdict(float)
        for t, job in zip(times, jobs):
            if job.kind in workloads.PRESENTATION_COMMANDS:
                per_base[job.base.spec] += t
        base_ms.extend(1000 * v for v in per_base.values())
    bases = {job.base.spec for job in jobs if job.kind in workloads.PRESENTATION_COMMANDS}
    busy = sum(t for t, job in zip(best, jobs) if job.kind in workloads.PRESENTATION_COMMANDS)
    return {
        "failed_ratio": ledger.failed / ledger.attempted,
        "cylinders_per_s": throughput({"cyl"}),
        "bases_per_s": _ratio(len(bases), busy),
        "base_ms.p50": statistics.median(base_ms) if base_ms else 0.0,
        "base_ms.tail": tail(base_ms) if base_ms else 0.0,
        "base_ms.samples": len(base_ms),
        "rate_points_per_s": throughput({"rate"}),
        "mc_samples_per_s": throughput({"mc.generic", "mc.base2", "example32"}),
    }


def span_metrics(jobs, ledger: Ledger, totals: dict) -> dict[str, float]:
    """Per-layer numbers from one traced pass."""
    selfs, calls = totals["self"], totals["calls"]
    out = {f"{layer}.self_s": sum(v for k, v in selfs.items() if k.startswith(layer + "."))
           for layer in spans.LAYERS}
    for name in SPAN_METRICS:
        span, _, what = name.rpartition(".")
        out[name] = {"calls": calls, "self_s": selfs, "words": totals["yields"]}[what][span]

    def units(kinds) -> int:
        return sum(u for u, job in zip(ledger.units, jobs) if job.kind in kinds)

    out["measures.cylinder_interval.per_row"] = _ratio(
        calls["measures.cylinder_interval"], units({"cyl"}))
    out["ldp.pressure.per_point"] = _ratio(calls["ldp.pressure"], units({"rate"}))
    for engine in ("generic", "base2"):
        out[f"ldp.mc_deviation.us_per_sample.{engine}"] = 1e6 * _ratio(
            totals["mc_self"][f"mc.{engine}"], units({f"mc.{engine}"}))
    out["intervalmaps.circle_mc_deviation.us_per_sample"] = 1e6 * _ratio(
        selfs["intervalmaps.circle_mc_deviation"], units({"example32"}))
    out["trace.spans"] = totals["spans"]
    return out


def field_microbench(ledger: Ledger, rounds: int = 3) -> dict[str, float]:
    """Field operations on the cubic's exact cylinder endpoints from the cylinders pass."""
    from negabeta import algebraic

    cubic = workloads.make_base(workloads.CUBIC)
    i = next(i for i, job in enumerate(ledger.jobs)
             if job.kind == "cyl" and job.base and job.base.coeffs == workloads.CUBIC)
    vectors = []
    for row in csv.DictReader(io.StringIO(ledger.output[i])):
        vectors += [workloads.coeff_vector(row["lo"]), workloads.coeff_vector(row["hi"])]
    vectors = list(dict.fromkeys(tuple(v) for v in vectors if any(v)))

    samples = defaultdict(list)
    for _ in range(rounds):
        field = algebraic.parse_beta_spec(cubic.spec)  # fresh field: refinement is not cached
        elems = [field.from_coeffs(v) for v in vectors]
        pairs = list(zip(elems, elems[1:]))
        diffs = [a - b for a, b in pairs]
        ops = {
            "mul_us": lambda: [algebraic.field_arith(a, b, "mul") for a, b in pairs],
            "inverse_us": lambda: [a.inverse() for a in elems],
            "sign_us": lambda: [algebraic.sign_of(d) for d in diffs],
            "decimal_us": lambda: [algebraic.to_decimal(a, 15) for a in elems],
        }
        for name, op in ops.items():
            start = time.perf_counter()
            count = len(op())
            samples[name].append(1e6 * (time.perf_counter() - start) / count)
    return {f"algebraic.{name}": statistics.median(v) for name, v in samples.items()}


def setup_once(first_base: str) -> float:
    """Fresh-interpreter time of `python -m negabeta.cli yrrap` on the first base."""
    env = {k: v for k, v in os.environ.items() if k != "NEGABETA_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, "-m", "negabeta.cli", "yrrap", "--beta", first_base]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"setup command failed: {done.stderr.decode()[-400:]}")
    return elapsed


# -- one workload ------------------------------------------------------------------------------


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, pool) -> dict:
    jobs = workloads.WORKLOADS[name](seed, pool)
    ledger = Ledger(jobs)
    metrics: dict[str, float] = {}
    first_base = next(job.base for job in jobs if job.base is not None).spec
    setup: list[float] = []

    run_pass(cli, jobs, ledger)  # warm-up; its outputs are the reference digests
    plain: list[list[float]] = []
    traced: list[tuple[list[float], dict]] = []
    tracer = spans.Tracer()
    measured = 0.0
    while measured < seconds or len(plain) < MIN_PASSES or (trace and len(traced) < MIN_PASSES):
        start = time.perf_counter()
        if trace:
            installed = spans.Installation(tracer)
            try:
                traced.append(run_pass(cli, jobs, ledger, tracer))
            finally:
                installed.restore()
        plain.append(run_pass(cli, jobs, ledger)[0])
        measured += time.perf_counter() - start
        # set-up samples sit between passes, so that a burst of load from
        # other tenants reaches only a few of them
        if not trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_once(first_base))
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_once(first_base))

    wall = sum(fastest(plain))
    if trace:
        per_pass = [span_metrics(jobs, ledger, totals) for _, totals in traced]
        metrics.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
        metrics["trace.overhead_ratio"] = sum(fastest([t for t, _ in traced])) / wall
        field = field_microbench(ledger) if name == "cylinders" else {}
        for key in ("mul_us", "inverse_us", "sign_us", "decimal_us"):
            metrics[f"algebraic.{key}"] = field.get(f"algebraic.{key}", 0.0)
    else:
        metrics["setup_s"] = statistics.median(setup)
        metrics["wall_s"] = wall
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(workload_metrics(jobs, ledger, plain))
    return {"jobs": len(jobs), "passes": len(plain) + len(traced), "ledger": ledger,
            "metrics": metrics}


def report(name: str, seed: int, trace: bool, result: dict) -> dict:
    """Print a readable table; return the contract's JSON object."""
    ledger: Ledger = result["ledger"]
    metrics = result["metrics"]
    units = {**END_TO_END, **PER_LAYER}
    print(f"# {name} seed={seed} trace={int(trace)}: {result['jobs']} jobs, "
          f"{result['passes']} timed passes + 1 warm-up, "
          f"{ledger.failed}/{ledger.attempted} jobs failed over {ledger.executions} executions")
    for key in sorted(metrics):
        print(f"{key:48s} {metrics[key]!r:>24} {units[key]}")
    for base, why in sorted(ledger.known.items()):
        print(f"known defect (automaton over-accepts): {base}: {why}")
    for label, why in sorted(ledger.unexpected.items()):
        print(f"FAILED: {label}: {why}")
    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": not ledger.unexpected,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "negabeta" / "cli.py").is_file():
        print(f"error: no negabeta sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.pop("NEGABETA_THREADS", None)
    sys.path.insert(0, str(SRC))
    from negabeta import cli

    pool = workloads.pools()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = report(name, args.seed, bool(args.trace),
                               run_workload(cli, name, args.seed, args.seconds,
                                            bool(args.trace), pool))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
