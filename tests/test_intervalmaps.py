"""The slope-3 five-branch system and the circle map with source and sink."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from negabeta import cli
from negabeta.intervalmaps import (
    CircleMap,
    IntervalMapError,
    PiecewiseExpandingMap,
    _vectorized_circle,
    circle_mc_deviation,
    circle_nonwandering,
    example31_measure_bounds,
    example31_system,
    predicted_occupation_rate,
)
from negabeta.ldp import WindowNeverHit
from negabeta.measures import InadmissibleWord, image_walk
from negabeta.sampling import _CHUNK, _philox_block, _sample_doubles, _seed_key
from negabeta.shiftgraph import enumerate_words
from negabeta.specprop import spec_bound
from negabeta.transform import HitBoundary
from exact_tails import MAX_SIGMAS, SEEDS, circle_tail, sigmas
from map_reference import breakpoints, circle_step, code_point
from measure_reference import example31_cylinder
from philox_reference import sample_int
from word_reference import example31_word_admissible


@pytest.fixture(scope="module")
def system():
    return example31_system()


# -- coding ----------------------------------------------------------------------


def test_code_point_oh_one(system):
    fmap, _ = system
    word = code_point(fmap, Fraction(1, 10), 4)
    assert word[:2] == (0, 1)


def test_code_point_zero_one_sided(system):
    fmap, _ = system
    assert code_point(fmap, 0, 6, strict=False) == (0,) * 6


def test_code_point_empty(system):
    fmap, _ = system
    assert code_point(fmap, Fraction(1, 10), 0) == ()


def test_code_point_boundary_reported(system):
    fmap, _ = system
    with pytest.raises(HitBoundary) as err:
        code_point(fmap, Fraction(1, 6), 3)
    assert err.value.step == 0
    with pytest.raises(HitBoundary) as err:
        code_point(fmap, Fraction(1, 18), 3)  # 1/18 -> 1/6
    assert err.value.step == 1


def test_code_point_outside_domain(system):
    fmap, _ = system
    with pytest.raises(IntervalMapError):
        code_point(fmap, Fraction(3, 2), 1)


# -- language --------------------------------------------------------------------


def test_admissibility_examples():
    assert example31_word_admissible((1, 2))
    assert not example31_word_admissible((0, 2))
    assert example31_word_admissible((4, 4))


def test_presentation_matches_pattern(system):
    _, presentation = system
    words = {w for w, _ in enumerate_words(presentation.graph, 6)}
    for length in range(1, 7):
        for w in _all_words(length):
            assert (w in words) == example31_word_admissible(w)


def _all_words(length):
    if length == 0:
        yield ()
        return
    for w in _all_words(length - 1):
        for c in range(5):
            yield w + (c,)


def test_coded_points_match_language(system):
    fmap, presentation = system
    rng = random.Random(123)
    seen = set()
    for _ in range(10000):
        x = Fraction(rng.randrange(0, 10**6), 10**6)
        try:
            word = code_point(fmap, x, 8)
        except HitBoundary:
            continue
        assert example31_word_admissible(word)
        assert presentation.graph.reads(word)
        seen.add(word)
    # realization: every admissible word of length <= 8 owns a cylinder with
    # interior, and its midpoint codes back to the word
    for word, _ in enumerate_words(presentation.graph, 8):
        cyl = example31_cylinder(fmap, word)
        assert cyl is not None
        lo, hi, _, _ = cyl
        mid = (lo + hi) / 2
        assert code_point(fmap, mid, len(word), strict=False) == word


# -- exact cylinder bounds ------------------------------------------------------------


def test_cylinder_single_digit(system):
    fmap, _ = system
    lo, hi, lo_closed, hi_closed = example31_cylinder(fmap, (1,))
    assert (lo, hi) == (Fraction(1, 6), Fraction(1, 2))
    assert lo_closed and not hi_closed


@pytest.mark.parametrize("word", [(-1,), (5,), (1, -1), (0, 5)])
def test_cylinder_rejects_digits_outside_alphabet(system, word):
    fmap, _ = system
    with pytest.raises(InadmissibleWord):
        example31_cylinder(fmap, word)


def test_image_table_is_the_cell_endpoints(system):
    fmap, _ = system
    assert fmap.image_table.points == breakpoints(fmap)


def test_image_table_needs_one_slope(system):
    fmap, _ = system
    first, *rest = fmap.branches
    mixed = PiecewiseExpandingMap((dataclasses.replace(first, slope=Fraction(6)), *rest))
    with pytest.raises(IntervalMapError):
        example31_cylinder(mixed, (0,))


def listing(maxlen):
    """(word, end states, image) of every word up to maxlen, one by one, in preorder."""
    fmap, presentation = example31_system()
    return list(image_walk(fmap.image_table, enumerate_words(presentation.graph, maxlen)))


def classes(maxlen):
    return {(r.n, r.image): r for r in example31_measure_bounds(maxlen)}


def test_measure_bounds_exhaustive():
    reports = example31_measure_bounds(8)
    assert all(r.lower_ok and r.upper_ok for r in reports)
    assert any(r.n == 8 for r in reports)


@pytest.mark.parametrize("maxlen", range(1, 8))
def test_class_counts_equal_the_word_listing(maxlen):
    """Per (length, image), the counted classes hold exactly the listed words."""
    listed = Counter((len(word), image) for word, _, image in listing(maxlen))
    assert {key: r.words for key, r in classes(maxlen).items()} == listed


def test_words_checked_has_a_closed_form(capsys):
    """The words are {0,1}^i {2,3,4}^(n-i) with a 1 at the join when 0 < i < n: per
    length n, 2^n + 3^n + sum_{0<i<n} 2^(i-1) 3^(n-i) = 2*3^n - 2^(n-1), which sums
    to 3^(L+1) - 2^L - 2 over n = 1..L."""
    for maxlen in range(1, 41):
        assert cli.main(["example31", "--maxlen", str(maxlen)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["words_checked"] == 3 ** (maxlen + 1) - 2 ** maxlen - 2
        assert payload["bounds_ok"] is True


def test_example31_lists_no_word(monkeypatch, capsys):
    """The CLI reaches neither the word enumeration nor the per-word image walk."""
    def refuse(*args, **kwargs):
        raise AssertionError("a word listing was reached")

    for module in [m for name, m in sys.modules.items() if name.startswith("negabeta")]:
        for name in ("enumerate_words", "image_walk"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert cli.main(["example31", "--maxlen", "12"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bounds_ok"] is True
    assert payload["words_checked"] == 3 ** 13 - 2 ** 12 - 2


def test_measure_bounds_empty_word_is_unit(system):
    fmap, _ = system
    lo, hi, _, _ = example31_cylinder(fmap, ())
    assert hi - lo == 1


def test_cylinder_denominators_divide_2_3n():
    reports = classes(6)
    for word, _, image in listing(6):
        assert (2 * 3 ** len(word)) % reports[len(word), image].length.denominator == 0


def test_presentation_certificate():
    _, presentation = example31_system()
    cert = spec_bound(presentation, oracle_maxlen=6)
    assert cert.kind == "strong_one_way"
    assert cert.M == 1
    assert cert.exact_min_M == 1


# -- circle map -------------------------------------------------------------------------


def test_fixed_points_exact():
    fmap = CircleMap()
    assert circle_step(fmap, 0.0) == 0.0
    assert circle_step(fmap, 0.5) == 0.5


def test_derivative_at_source():
    fmap = CircleMap()
    assert abs(fmap.derivative(0.0) - (1 + math.pi / 5)) < 1e-15
    assert fmap.derivative(0.5) < 1


def test_nonwandering_set():
    clusters = circle_nonwandering(CircleMap())
    assert len(clusters) == 2
    assert min(abs(c - 0.0) for c in clusters) < 1e-6
    assert min(abs(c - 0.5) for c in clusters) < 1e-6


@pytest.mark.parametrize("strength", [0.01, 0.1, 0.15])
def test_nonwandering_set_is_the_exact_fixed_points(strength):
    # an orientation-preserving circle homeomorphism with fixed points: late
    # forward orbits from a grid gather at the sink 1/2, and the source 0
    # stays put, so there is nothing else to find
    fmap = CircleMap(strength)
    assert circle_nonwandering(fmap) == [0.0, 0.5]
    assert circle_step(fmap, 0.0) == 0.0 and circle_step(fmap, 0.5) == 0.5
    theta = np.linspace(0.0, 1.0, 200, endpoint=False)[1:]
    for _ in range(3000):
        theta = _vectorized_circle(theta, strength)
    assert np.all(np.abs(theta - 0.5) < 1e-3)


@pytest.mark.parametrize("strength", [0.0, 0.2, -0.1, 1 / (2 * math.pi), math.nan])
def test_nonwandering_refuses_strengths_without_a_homeomorphism_proof(strength):
    with pytest.raises(ValueError, match="strength"):
        circle_nonwandering(CircleMap(strength))


def test_orbits_converge_to_sink():
    fmap = CircleMap()
    rng = random.Random(9)
    stray = 0
    total = 3000
    for _ in range(total):
        x = rng.random()
        for _ in range(300):
            x = circle_step(fmap, x)
        if abs(x - 0.5) > 1e-6:
            stray += 1
    assert stray <= math.isqrt(total)


def test_occupation_rate_prediction():
    # the exact tail's rate lies within 20% of the closed form, and each
    # fixed seed's hits (about 26.5 expected) within MAX_SIGMAS of N p
    a, n, samples = 0.3, 50, 120000
    tail = circle_tail(a, n, 0.1)
    pred = predicted_occupation_rate(a)
    assert abs(-math.log(tail) / n - pred) / pred < 0.2
    for seed in SEEDS:
        est = circle_mc_deviation((a, 1.0), n, samples, seed=seed, eps=0.1)
        assert sigmas(est.hits, samples, tail) <= MAX_SIGMAS, seed


def test_occupation_monotone_in_a():
    rates = []
    for a in (0.2, 0.3, 0.4):
        est = circle_mc_deviation((a, 1.0), 40, 120000, seed=21, eps=0.1)
        rates.append(est.rate)
    assert rates == sorted(rates)


def test_occupation_window_never_hit():
    with pytest.raises(WindowNeverHit):
        circle_mc_deviation((0.99, 1.0), 50, 2000, seed=3)


def test_full_window_is_certain():
    est = circle_mc_deviation((0.0, 1.0), 20, 5000, seed=4)
    assert est.hits == est.sample_count and est.rate == 0.0


@pytest.mark.parametrize("eps", [0.0, 0.5, math.nan])
def test_occupation_refuses_eps_outside_the_open_half(eps):
    with pytest.raises(ValueError, match="eps"):
        circle_mc_deviation((0.3, 1.0), 30, 100, seed=1, eps=eps)


def _sample_ints(seed, count):
    """The counter-based samples, each from the scalar Philox, as 128-bit integers."""
    return [sample_int(seed, i) for i in range(count)]


def _pack(samples):
    return np.frombuffer(b"".join(s.to_bytes(16, "big") for s in samples),
                         dtype=np.uint8).reshape(-1, 16)


def test_circle_thetas_of_hashed_samples_are_the_divided_integers():
    count = 5 * _CHUNK  # about 40 rows below 2^-9
    expected = np.array([s / 2.0**128 for s in _sample_ints(8, count)])
    block = _philox_block(_seed_key(8), range(count))
    assert _sample_doubles(block).tobytes() == expected.tobytes()


def _crafted_samples():
    # 0, 1, the largest sample, and values at and next to the 53-bit rounding
    # point for every bit length; some have hi < 2**55 and take the slow rows
    out = [0, 1, 2, (1 << 128) - 1, (1 << 55) << 64, ((1 << 55) << 64) - 1]
    for length in range(1, 129):
        top = 1 << (length - 1)
        drop = max(length - 53, 0)  # bits below the last kept one
        for mantissa in (top, top | 1 << drop, (2 * top - 1) >> drop << drop):
            out.append(mantissa)
            if drop:
                half = 1 << (drop - 1)
                for low in (half, half - 1, half + 1, (1 << drop) - 1):
                    out.append((mantissa >> drop << drop) | low)
                    out.append(((mantissa >> drop << drop) | low) ^ (1 << drop))
    return [s for s in out if 0 <= s < 1 << 128]


def test_circle_thetas_of_crafted_samples_round_as_the_integers():
    samples = _crafted_samples()
    block = np.frombuffer(b"".join(s.to_bytes(16, "big") + bytes(16) for s in samples),
                          dtype=np.uint8).reshape(-1, 32)[:, :16]  # rows with a stride
    assert any(s >> 64 < 2**55 for s in samples) and any(s >> 64 >= 2**55 for s in samples)
    expected = np.array([s / 2.0**128 for s in samples])
    assert _sample_doubles(block).tobytes() == expected.tobytes()
    assert _sample_doubles(_pack(samples)).tobytes() == expected.tobytes()


def whole_array_hits(a_window, n, sample_count, seed, eps):
    """The loop circle_mc_deviation had: all samples in one array."""
    strength = CircleMap().strength
    lo, hi = a_window
    theta = np.array([s / 2.0**128 for s in _sample_ints(seed, sample_count)])
    near = np.zeros(sample_count)
    for _ in range(n):
        dist = np.minimum(theta, 1.0 - theta)
        near += dist <= eps
        theta = _vectorized_circle(theta, strength)
    fractions = near / n
    return int(np.count_nonzero((fractions >= lo) & (fractions <= hi)))


def _where_circle(theta, strength):
    """The vectorised circle map with both folds as np.where."""
    t = theta - np.floor(theta)
    reduced = np.where(t >= 0.5, t - 0.5, t)
    folded = np.where(reduced > 0.25, 0.5 - reduced, reduced)
    s = np.sin(2.0 * np.pi * folded)
    s = np.where(t >= 0.5, -s, s)
    out = theta + strength * s
    return out - np.floor(out)


def _crafted_thetas(random_count):
    """The quarter points and their neighbours (1 ulp and subnormal steps),
    both ends of [0, 1], thetas crowded near the source 0, the sink 1/2 and
    1, then ``random_count`` uniform thetas."""
    rng = random.Random(12)
    edges = [q + e for q in (0.0, 0.25, 0.5, 0.75, 1.0)
             for e in (0.0, 5e-324, -5e-324, 2**-54, -(2**-54), 2**-53, -(2**-53))]
    crowded = [c + d * rng.random() ** 12 for c in (0.0, 0.5, 1.0) for d in (1, -1)
               for _ in range(300)]
    return np.array([x for x in edges + crowded if 0.0 <= x <= 1.0]
                    + [rng.random() for _ in range(random_count)])


def test_circle_map_folds_as_the_where_form():
    theta = _crafted_thetas(5000)
    ours, where = theta, theta
    for _ in range(40):
        ours = _vectorized_circle(ours, CircleMap().strength)
        where = _where_circle(where, CircleMap().strength)
        assert ours.tobytes() == where.tobytes()


def test_circle_distance_to_the_source_never_decreases():
    # circle_mc_deviation drops a row at its first iterate farther than eps
    # from 0: that is exact only if no later iterate comes back
    largest = _sample_doubles(_pack([(1 << 128) - 1]))
    assert largest.tolist() == [1.0]
    theta = np.concatenate([_crafted_thetas(200000), largest])
    dist = np.minimum(theta, 1.0 - theta)
    for _ in range(60):
        theta = _vectorized_circle(theta, CircleMap().strength)
        after = np.minimum(theta, 1.0 - theta)
        assert np.all(after >= dist)
        dist = after


def test_circle_map_is_elementwise_across_batch_sizes():
    theta = np.array([s / 2.0**128 for s in _sample_ints(6, 4096 + 4095 + 7 + 1)])
    whole, parts = theta, np.split(theta, [4096, 4096 + 4095, 4096 + 4095 + 7])
    rng = random.Random(6)
    for _ in range(30):
        # a gathered subset of another size and order, as the engine maps its live rows
        rows = np.array(rng.sample(range(len(whole)), rng.randrange(1, len(whole))))
        picked = _vectorized_circle(whole[rows], CircleMap().strength)
        whole = _vectorized_circle(whole, CircleMap().strength)
        parts = [_vectorized_circle(part, CircleMap().strength) for part in parts]
        assert picked.tobytes() == whole[rows].tobytes()
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# 4097 and 10001 cut their last batch short; eps = 2^-9 keeps the rows above
# 1 - 2^-9 and those below 2^-9, which the sampler divides as Python
# integers; the window [0, 0] counts the rows that are never near the source
@pytest.mark.parametrize("count", [4095, 4097, 10001])
def test_circle_hits_counted_per_batch(count):
    for window, eps in (((0.3, 1.0), 0.1), ((0.0, 0.25), 0.05), ((0.0, 0.0), 0.1),
                        ((0.5, 1.0), 0.45), ((0.3, 1.0), 0.4999), ((1 / 30, 1.0), 2**-9)):
        est = circle_mc_deviation(window, 30, count, seed=5, eps=eps)
        assert est.hits == whole_array_hits(window, 30, count, 5, eps)


def _peak_rss_kb(argv):
    """Peak resident memory (ru_maxrss) of one command run in a fresh process."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, resource, sys\n"
        "from negabeta.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "assert code == 0, code\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def _example32_peak_rss_kb(samples):
    return _peak_rss_kb(["example32", "--n", "30", "--N", str(samples), "--eps", "0.1",
                         "--seed", "1"])


def _mc_base2_peak_rss_kb(samples):
    return _peak_rss_kb(["mc", "--beta", "poly:-2,1;interval:1,3", "--obs", "digit1",
                         "--n", "30", "--N", str(samples), "--window", "0.0:0.4",
                         "--seed", "1"])


def test_example32_memory_flat_in_sample_count():
    # ru_maxrss is in KiB on Linux; 10x the samples may add at most 5 MB
    assert _example32_peak_rss_kb(10**6) - _example32_peak_rss_kb(10**5) <= 5 * 1024


def test_mc_memory_flat_in_sample_count():
    # the base-2 engine draws one sample block per batch, as example32 does
    assert _mc_base2_peak_rss_kb(10**6) - _mc_base2_peak_rss_kb(10**5) <= 5 * 1024
