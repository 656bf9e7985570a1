"""Monte Carlo runs split into batches against the run counted in one piece.

`sampling._count_hits` counts a run in contiguous batches of ``_CHUNK``
samples, in one process.  A sample depends on (seed, index) alone and its
mean on the sample alone, so the estimate must not depend on where the run
is split: batches of other sizes, and one batch of the whole run, must give
it field for field, and an audit failure must name the first failing sample
of the run, whichever batch holds it.  The split is changed by patching
``sampling._CHUNK``.
"""

import numpy as np
import pytest

from negabeta import sampling
from negabeta.algebraic import parse_beta_spec
from negabeta.intervalmaps import circle_mc_deviation
from negabeta.ldp import WindowNeverHit, mc_deviation
from negabeta.sampling import _CHUNK, _philox_block, _seed_key
from negabeta.transform import MinusBetaSystem

DIGIT1 = {0: 0.0, 1: 1.0}
SYSTEMS = {name: MinusBetaSystem(parse_beta_spec(spec)) for name, spec in (
    ("base 2", "poly:-2,1;interval:1,3"),
    ("cubic", "poly:-1,-1,0,1;interval:1,2"),
    ("x^2-x-1", "poly:-1,-1,1;interval:1,2"),
)}

# name -> (run(window, count), a window with hits); no mean reaches EMPTY
RUNS = {
    **{name: (lambda window, count, system=system: mc_deviation(system, DIGIT1, window, 30,
                                                                 count, seed=3), (0.3, 0.45))
       for name, system in SYSTEMS.items()},
    "circle": (lambda window, count: circle_mc_deviation(window, 30, count, seed=5, eps=0.1),
               (0.1, 0.3)),
}
EMPTY = (1.5, 2.0)
COUNTS = [1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3, 5 * _CHUNK - 1]


def _outcome(call):
    """The estimate, or the payload of the WindowNeverHit it raised."""
    try:
        return call()
    except WindowNeverHit as exc:
        return "never hit", str(exc), exc.report, exc.estimate


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_split_equals_serial(name, count, monkeypatch):
    # batches of 777 samples, and one batch of the whole run, give the
    # estimate of batches of _CHUNK
    run, window = RUNS[name]
    for target in (window, EMPTY):
        batched = _outcome(lambda: run(target, count))
        for chunk in (777, count):
            with monkeypatch.context() as patched:
                patched.setattr(sampling, "_CHUNK", chunk)
                assert _outcome(lambda: run(target, count)) == batched, (target, chunk)
        if target == EMPTY:
            assert batched[0] == "never hit" and batched[3].hits == 0
        elif count > _CHUNK:
            assert batched.hits > 0


def test_shares_cover_the_samples_once():
    # the batches start at 0, _CHUNK, 2 _CHUNK, ...; joined, they are the
    # run's samples in order, each drawn once, and every mean in the window counts
    count, seed, window = 5 * _CHUNK - 1, 4, (0.25, 0.5)
    starts, blocks = [], []

    def batch_means(start, block):
        starts.append(start)
        blocks.append(block)
        return np.arange(start, start + len(block)) / count

    hits = sampling._count_hits(window, count, seed, batch_means)
    assert starts == list(range(0, count, _CHUNK))
    assert [len(b) for b in blocks] == [_CHUNK] * 4 + [_CHUNK - 1]
    assert np.array_equal(np.concatenate(blocks), _philox_block(_seed_key(seed), range(count)))
    assert hits == sum(1 for i in range(count) if 0.25 <= i / count <= 0.5)


def _nudge_samples(monkeypatch, seed, indices):
    """Move the generic engine's mean of the samples at ``indices`` up one ulp."""
    rows = _philox_block(_seed_key(seed), indices)
    real = sampling._digit_means_generic

    def nudged(b, psi_vals, n, block, *rest):
        means = real(b, psi_vals, n, block, *rest)
        marked = (block[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
        return np.where(marked, np.nextafter(means, np.inf), means)

    monkeypatch.setattr(sampling, "_digit_means_generic", nudged)


@pytest.mark.parametrize("indices, first", [([4100], 4100), ([0, 4100], 0),
                                            ([4100, 6200], 4100)])
def test_share_errors_match_the_serial_error(indices, first, monkeypatch):
    # 4100 and 6200 are audited indices of the second batch of _CHUNK; split
    # at 4099 they share a batch, and in one batch of the run they share it with 0
    count = 2 * _CHUNK + 3
    _nudge_samples(monkeypatch, 1, indices)
    errors = []
    for chunk in (_CHUNK, 4099, count):
        with monkeypatch.context() as patched:
            patched.setattr(sampling, "_CHUNK", chunk)
            with pytest.raises(ArithmeticError) as caught:
                mc_deviation(SYSTEMS["cubic"], DIGIT1, (0.0, 1.0), 20, count, seed=1)
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1] == errors[2]
    assert errors[0][1].startswith(f"lane audit failed at sample {first}:")
