"""The Monte Carlo engines against the scalar loop they replaced.

`ldp._digit_means_generic` runs a batch first as double orbits, each row
with a certificate that its digits are the fixed-point ones, and the rows it
cannot certify as fixed-point lanes of one Python integer.  The reference
below is the plain loop: one sample at a time, hashed on its own, stepped in
Python integers with the digit clamped to [0, b], and the observable added
in step order.  Both engines read the same digits and add in the same order,
so the means must be equal, not close.
"""

import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negabeta import ldp, sampling
from negabeta.algebraic import parse_beta_spec
from negabeta.ldp import (
    _beta_fixed_point,
    _certificate_bounds,
    _digit_means_beta2,
    _digit_means_generic,
    _digit_mean,
    _double_means,
    _orbit_digits,
    mc_deviation,
)
from negabeta.sampling import _CHUNK, _sample_block
from negabeta.transform import MinusBetaSystem

# -- the scalar reference -----------------------------------------------------------------


def _sample_fixed_point(seed, index):
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:16], "big")


def _pack(samples):
    """128-bit integers as the rows of a sample block."""
    return np.frombuffer(b"".join(s.to_bytes(16, "big") for s in samples),
                         dtype=np.uint8).reshape(-1, 16)


def _scale_sample(sample, precision):
    if precision >= 128:
        return sample << (precision - 128)
    return sample >> (128 - precision)


def _psi_value(psi, label):
    return float(psi(label)) if callable(psi) else float(psi[label])


def reference_means(system, psi, n, samples, precision, beta_fixed):
    b = system.b
    table = [(d + 1) << (2 * precision) for d in range(b + 1)]
    psi_vals = [_psi_value(psi, d) for d in range(b + 1)]
    out = []
    for sample in samples:
        x = _scale_sample(sample, precision)
        acc = 0.0
        for _ in range(n):
            t = beta_fixed * x
            d = t >> (2 * precision)
            if d > b:
                d = b
            elif d < 0:
                d = 0
            acc += psi_vals[d]
            x = (table[d] - t) >> precision
        out.append(acc / n)
    return out


def _precision(system, n):
    return int(math.ceil(n * math.log2(system.beta_float()))) + 64


# -- bases and observables ----------------------------------------------------------------

SPECS = {
    "cubic": "poly:-1,-1,0,1;interval:1,2",
    "golden": "poly:-1,-1,1;interval:1,2",
    "x^2-3x+1": "poly:1,-3,1;interval:2,3",
    "three": "poly:-3,1;interval:2,4",
    "b300": "poly:-300,1;interval:299,301",
    "decimal": "decimal:1.7;precision:30",
}
SYSTEMS = {name: MinusBetaSystem(parse_beta_spec(spec)) for name, spec in SPECS.items()}


def _observable(kind, b):
    if kind == "digit":
        return {d: float(d) for d in range(b + 1)}
    if kind == "digitK":
        return {d: 1.0 if d == b else 0.0 for d in range(b + 1)}
    return lambda d: math.sin(d) / 3 + d / 7  # non-integer values: the summation order shows


# -- tests ---------------------------------------------------------------------------------


SAMPLER_SEEDS = [0, 7, -3, 10**12, 12345678901234567890]
SAMPLER_INDICES = list(range(50)) + [_CHUNK - 1, _CHUNK, 10**9 + 7]


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_shared_prefix_sampler_matches_one_shot_hash(seed):
    expected = _pack([_sample_fixed_point(seed, i) for i in SAMPLER_INDICES])
    assert _sample_block(seed, SAMPLER_INDICES).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_sampler_without_builtin_sha256_hashes_through_hashlib(seed, monkeypatch):
    # a build with neither _sha2 nor _sha256 falls back to hashlib.sha256
    expected = _pack([_sample_fixed_point(seed, i) for i in SAMPLER_INDICES])
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    calls = []
    sha256 = hashlib.sha256

    def counted(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counted)
    assert _sample_block(seed, SAMPLER_INDICES).tobytes() == expected.tobytes()
    assert calls == [f"{seed}:{i}".encode() for i in SAMPLER_INDICES]


@pytest.mark.parametrize("seed", [0, -3, 12345678901234567890])
def test_sample_blocks_match_one_shot_hash_across_chunks(seed):
    # the batches _window_deviation draws, joined, are the one-shot digests in order
    count = 2 * _CHUNK + 5
    blocks = [_sample_block(seed, range(start, min(start + _CHUNK, count)))
              for start in range(0, count, _CHUNK)]
    assert [len(block) for block in blocks] == [_CHUNK, _CHUNK, 5]
    assert all(block.shape[1] == 16 and block.dtype == np.uint8 for block in blocks)
    reference = b"".join(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:16]
                         for i in range(count))
    assert b"".join(block.tobytes() for block in blocks) == reference


# the two sides of the certificate's horizon: 38 bits of orbit (the double
# pass certifies nearly every row) and 55 bits (every row runs in the lanes)
@settings(max_examples=60, deadline=None, derandomize=True)
@example(name="golden", n=55, count=_CHUNK, kind="callable", seed=3)
@example(name="x^2-3x+1", n=40, count=_CHUNK, kind="digit", seed=4)
@given(
    name=st.sampled_from(sorted(SPECS)),
    n=st.integers(1, 60),
    count=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
    kind=st.sampled_from(["digit", "digitK", "callable"]),
    seed=st.integers(0, 10**6),
)
def test_lanes_match_scalar_loop(name, n, count, kind, seed):
    system = SYSTEMS[name]
    psi = _observable(kind, system.b)
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    block = _sample_block(seed, range(count))
    lanes = _digit_means_generic(system, psi, n, block, precision, beta_fixed)
    samples = [_sample_fixed_point(seed, i) for i in range(count)]
    assert lanes.tolist() == reference_means(system, psi, n, samples, precision, beta_fixed)


def test_small_precision_and_edge_samples():
    # precisions below and above the 128 sample bits, and the extreme samples
    system = SYSTEMS["cubic"]
    samples = [0, 1, (1 << 128) - 1, 1 << 127] + [_sample_fixed_point(4, i) for i in range(60)]
    for precision in (40, 65, 127, 128, 129, 200):
        beta_fixed = _beta_fixed_point(system, precision)
        lanes = _digit_means_generic(system, {0: 0.0, 1: 1.0}, 17, _pack(samples), precision,
                                     beta_fixed)
        assert lanes.tolist() == reference_means(system, {0: 0.0, 1: 1.0}, 17, samples,
                                                 precision, beta_fixed)


def _count_scalar_reruns(monkeypatch):
    calls = []
    real = ldp._orbit_digits
    monkeypatch.setattr(ldp, "_orbit_digits", lambda *args: calls.append(1) or real(*args))
    return calls


def test_clamp_batches_rerun_in_scalar(monkeypatch):
    # For an integer beta, beta_fixed = (b + 1) << p, so a step from x = 2^p
    # reads the digit b + 1, which the scalar loop clamps to b.  The sample 0
    # gets there in one step.  Its double orbit starts on an integer, so it is
    # not certified and goes to the lanes, whose batch (that one row) is
    # rerun in scalar; the certified rows are never rerun.
    system = SYSTEMS["three"]
    psi = _observable("callable", system.b)
    n, precision = 12, _precision(system, 12)
    beta_fixed = _beta_fixed_point(system, precision)
    assert beta_fixed == (system.b + 1) << precision
    plain = [_sample_fixed_point(2, i) for i in range(40)]
    calls = _count_scalar_reruns(monkeypatch)
    assert (_digit_means_generic(system, psi, n, _pack(plain), precision, beta_fixed).tolist()
            == reference_means(system, psi, n, plain, precision, beta_fixed))
    assert calls == []
    clamped = plain + [0]
    assert (_digit_means_generic(system, psi, n, _pack(clamped), precision, beta_fixed).tolist()
            == reference_means(system, psi, n, clamped, precision, beta_fixed))
    assert len(calls) == 1


def test_beta_just_below_an_integer():
    # beta_fixed rounds up to 3 << p, so the clamp can act as for beta = 3
    system = MinusBetaSystem(parse_beta_spec("decimal:2.99999999999999999999999999999999;precision:40"))
    n = 10
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    assert system.b == 2 and beta_fixed == 3 << precision
    samples = [0] + [_sample_fixed_point(5, i) for i in range(300)]
    psi = _observable("digit", system.b)
    assert (_digit_means_generic(system, psi, n, _pack(samples), precision, beta_fixed).tolist()
            == reference_means(system, psi, n, samples, precision, beta_fixed))


def reference_means_beta2(psi, n, samples):
    psi0, psi1 = _psi_value(psi, 0), _psi_value(psi, 1)
    odd_mask = sum(1 << (n - 1 - k) for k in range(1, n, 2))
    out = []
    for x in samples:
        ones = bin((x >> (128 - n)) ^ odd_mask).count("1")
        out.append((ones * psi1 + (n - ones) * psi0) / n)
    return out


def test_base2_engine_matches_its_loop_and_the_scalar_orbit():
    # Its float operations are those of the popcount loop.  With 0/1 values
    # every sum is exact, so it also equals the scalar orbit while n is well
    # below the 128 sample bits; near 128 the orbit reaches the dyadic
    # boundary points where the two differ.
    system = MinusBetaSystem(parse_beta_spec("poly:-2,1;interval:1,3"))
    block = _sample_block(11, range(_CHUNK + 1))
    samples = [_sample_fixed_point(11, i) for i in range(_CHUNK + 1)]
    for n in (1, 2, 29, 64, 128):
        for psi in ({0: 0.3, 1: 1.1}, {0: 0.0, 1: 1.0}, {0: 1.0, 1: 0.0}):
            assert _digit_means_beta2(psi, n, block).tolist() == reference_means_beta2(psi, n, samples)
        if n == 128:
            continue
        precision = _precision(system, n)
        assert (_digit_means_beta2({0: 0.0, 1: 1.0}, n, block).tolist()
                == reference_means(system, {0: 0.0, 1: 1.0}, n, samples, precision,
                                   _beta_fixed_point(system, precision)))


def reference_means_unpackbits(psi, n, block):
    """The base-2 engine before the popcount: one byte per unpacked bit."""
    psi0, psi1 = _psi_value(psi, 0), _psi_value(psi, 1)
    ones = np.unpackbits(block ^ np.uint8(0x55), axis=1, count=n).sum(axis=1, dtype=np.int64)
    return (ones * psi1 + (n - ones) * psi0) / n


def test_base2_popcount_matches_unpacked_bits():
    block = _sample_block(6, range(_CHUNK + 7))
    for n in range(1, 97):
        for psi in ({0: 0.25, 1: 1.5}, {0: 0.0, 1: 1.0}):
            means = _digit_means_beta2(psi, n, block)
            assert means.dtype == np.float64
            assert means.tobytes() == reference_means_unpackbits(psi, n, block).tobytes(), n


@pytest.mark.parametrize("n", [1, 63, 64, 65, 96])
def test_base2_block_means_equal_the_scalar_orbit(n):
    # the bits counted in the block are the digits of the exact orbit
    system = MinusBetaSystem(parse_beta_spec("poly:-2,1;interval:1,3"))
    psi = {0: 0.0, 1: 1.0}
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    indices = range(_CHUNK - 50, _CHUNK + 50)
    scalar = [_digit_mean(_orbit_digits(system, n, _sample_fixed_point(3, i), precision,
                                        beta_fixed), [0.0, 1.0]) for i in indices]
    assert _digit_means_beta2(psi, n, _sample_block(3, indices)).tolist() == scalar


def test_audit_checks_the_engine_that_ran(monkeypatch):
    system = SYSTEMS["cubic"]
    psi = {0: 0.0, 1: 1.0}
    real = ldp._digit_means_generic

    def off_by_one_ulp(*args):
        means = real(*args)
        return np.nextafter(means, np.inf)

    monkeypatch.setattr(ldp, "_digit_means_generic", off_by_one_ulp)
    with pytest.raises(ArithmeticError, match="lane audit failed at sample 0"):
        mc_deviation(system, psi, (0.0, 1.0), 20, 300, seed=1)


def test_hits_counted_across_batches():
    # the count over several batches equals the count over the reference means
    system = SYSTEMS["golden"]
    psi = {0: 0.0, 1: 1.0}
    n, count, seed, window = 15, 2 * _CHUNK + 3, 9, (0.0, 0.3)
    precision = _precision(system, n)
    means = reference_means(system, psi, n, [_sample_fixed_point(seed, i) for i in range(count)],
                            precision, _beta_fixed_point(system, precision))
    est = mc_deviation(system, psi, window, n, count, seed)
    assert est.hits == sum(1 for m in means if window[0] <= m <= window[1])


# -- the certificate of the double orbits ----------------------------------------------------


def _lane_rows(monkeypatch):
    """Record the number of rows each call of the integer lanes gets."""
    rows = []
    real = ldp._lane_means
    monkeypatch.setattr(ldp, "_lane_means",
                        lambda system, psi, n, block, *rest: rows.append(len(block))
                        or real(system, psi, n, block, *rest))
    return rows


def test_horizon_of_the_certificate():
    # the bound sum 2 B_k on the uncertified share reaches 1 a little below
    # 50 bits of orbit; from there the double pass is skipped
    for name, below, above in (("golden", 55, 80), ("cubic", 100, 140), ("three", 20, 40)):
        system = SYSTEMS[name]
        for n, runs in ((below, True), (above, False)):
            precision = _precision(system, n)
            bounds = _certificate_bounds(_beta_fixed_point(system, precision), precision, n)
            assert (bounds is not None) == runs, (name, n)
            if runs:
                assert len(bounds) == n and list(bounds) == sorted(bounds) and bounds[-1] < 0.5


@pytest.mark.parametrize("name, n, runs", [("cubic", 116, False), ("golden", 70, False),
                                           ("cubic", 30, True)])
def test_double_pass_runs_only_where_rows_may_be_certified(monkeypatch, name, n, runs):
    # at cubic n = 116 and golden n = 70 the double pass certified 0 of 4096
    # rows (seed 1): sum 2 B_k, which bounds the share it leaves uncertified,
    # is above 1 there, and the pass is skipped; at n = 30 it is about 4e-11
    system = SYSTEMS[name]
    psi = {0: 0.0, 1: 1.0}
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    bounds = _certificate_bounds(beta_fixed, precision, n)
    assert (bounds is not None) == runs
    if runs:
        assert 2 * sum(bounds) < 1e-10
    passes = []
    real = ldp._sample_doubles
    monkeypatch.setattr(ldp, "_sample_doubles", lambda block: passes.append(1) or real(block))
    samples = [_sample_fixed_point(1, i) for i in range(300)]
    means = _digit_means_generic(system, psi, n, _pack(samples), precision, beta_fixed)
    assert means.tolist() == reference_means(system, psi, n, samples, precision, beta_fixed)
    assert passes == ([1] if runs else [])


@pytest.mark.parametrize("name", ["cubic", "golden", "x^2-3x+1", "decimal"])
def test_near_boundary_samples_are_not_certified(name):
    # samples next to a point k/beta of the digit boundaries, and next to its
    # one-step preimages (D + 1 - k/beta)/beta, reach a product within a few
    # ulps of the integer k; the double orbit cannot tell the digit there
    system = SYSTEMS[name]
    lo, hi = system.beta_element.approx(Fraction(1, 2**300))
    beta = (lo + hi) / 2
    points = []
    for k in range(1, system.b + 1):
        points.append(k / beta)
        points += [(d + 1 - k / beta) / beta for d in range(system.b + 1)]
    samples = sorted({s for q in points
                      for s in (math.floor(q * 2**128) + e for e in (-1, 0, 1))
                      if 0 <= s < 2**128})
    assert len(samples) >= 9
    n = 20
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    psi = _observable("callable", system.b)
    psi_vals = [psi(d) for d in range(system.b + 1)]
    means, certified = _double_means(psi_vals, n, _pack(samples), precision, beta_fixed)
    assert not certified.any()
    assert (_digit_means_generic(system, psi, n, _pack(samples), precision, beta_fixed).tolist()
            == reference_means(system, psi, n, samples, precision, beta_fixed))


@pytest.mark.parametrize("name, n", [("cubic", 30), ("golden", 45), ("x^2-3x+1", 25),
                                     ("three", 12), ("b300", 5), ("decimal", 60)])
def test_failed_certificate_falls_back_to_the_lanes(monkeypatch, name, n):
    # bounds of 1/2 certify no row: every row then runs through the lanes
    system = SYSTEMS[name]
    psi = _observable("callable", system.b)
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    samples = [0, 1 << 127] + [_sample_fixed_point(6, i) for i in range(500)]
    monkeypatch.setattr(ldp, "_certificate_bounds", lambda *args: (0.5,) * n)
    rows = _lane_rows(monkeypatch)
    assert (_digit_means_generic(system, psi, n, _pack(samples), precision, beta_fixed).tolist()
            == reference_means(system, psi, n, samples, precision, beta_fixed))
    assert rows == [len(samples)]


def test_cubic_at_30_steps_never_runs_the_lanes(monkeypatch):
    system = SYSTEMS["cubic"]
    psi = {0: 0.0, 1: 1.0}
    n, count, seed = 30, _CHUNK, 1
    precision = _precision(system, n)
    beta_fixed = _beta_fixed_point(system, precision)
    rows = _lane_rows(monkeypatch)
    means = _digit_means_generic(system, psi, n, _sample_block(seed, range(count)), precision,
                                 beta_fixed)
    samples = [_sample_fixed_point(seed, i) for i in range(count)]
    assert means.tolist() == reference_means(system, psi, n, samples, precision, beta_fixed)
    # one batch is counted in this process, so the patched lanes see every call
    assert sampling._share_count(count) == 1
    est = mc_deviation(system, psi, (0.2, 0.4), n, count, seed)
    assert est.hits == sum(1 for m in means if 0.2 <= m <= 0.4)
    assert rows == []
