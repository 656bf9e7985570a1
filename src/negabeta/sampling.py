"""Counter-based Monte Carlo samples, and the batch loop that counts hits over them.

Sample i of a seed is the 128-bit output block of Philox4x32-10 (Salmon,
Moraes, Dror & Shaw, *Parallel random numbers: as easy as 1, 2, 3*, SC 2011)
at the counter ``(i mod 2^32, i >> 32, 0, 0)``, under a key read off the
seed's SHA-256; its four words, big-endian, are a 128-bit fixed-point number
in [0, 1).  A run computes its samples in batches of ``_CHUNK``, so memory
stays flat in the sample count.  A sample depends on (seed, i) alone, so the
count does not depend on the batches.
"""

from __future__ import annotations

import sys
from typing import Callable, Iterable

# Samples per lane batch: hits are counted chunk by chunk, so memory stays
# flat in the sample count.
_CHUNK = 4096

# Philox4x32's round multipliers and key increments (the golden ratio and sqrt(3) - 1)
_M0, _M1 = 0xD2511F53, 0xCD9E8D57
_W0, _W1 = 0x9E3779B9, 0xBB67AE85
_ROUNDS = 10
_WORD = 0xFFFFFFFF


def _seed_key(seed: int) -> tuple[int, int]:
    """The Philox key of a seed: the first 8 bytes of sha256 of its decimal
    text, as two big-endian 32-bit words, so every integer has a key of its own.

    The hash is CPython's builtin SHA-256 (``_sha2`` on 3.12+, ``_sha256``
    before), which loads less than ``hashlib``; a build without it falls
    back to ``hashlib.sha256``, which gives the same digest.
    """
    # imported here, so that only the sampling commands load a hash module; the
    # version picks the module, since a failed import is retried on every call
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

    digest = sha256(b"%d" % seed).digest()
    return int.from_bytes(digest[:4], "big"), int.from_bytes(digest[4:8], "big")


def _philox_block(key: tuple[int, int], indices: Iterable[int]) -> np.ndarray:
    """Philox4x32-10 under ``key`` at the counters of ``indices``, one row of 16 bytes each.

    Under a seed's key (:func:`_seed_key`), row k is sample i of the k-th
    index i, its four words big-endian: a 128-bit fixed-point number on
    [0, 1).  The batch is one ``(count, 16)`` uint8 array that every engine
    reads.

    The 32-bit words are held in uint64 arrays, so that a round's two
    products are exact and their high words are one shift away.  A range is
    turned into its counters by ``np.arange``, any other iterable one index
    at a time; neither builds the indices below the smallest one.
    """
    import numpy as np

    if isinstance(indices, range):
        counter = np.arange(indices.start, indices.stop, indices.step, dtype=np.uint64)
    else:
        counter = np.fromiter(indices, dtype=np.uint64)
    word, shift = np.uint64(_WORD), np.uint64(32)
    m0, m1 = np.uint64(_M0), np.uint64(_M1)
    x0, x1 = counter & word, counter >> shift
    x2 = x3 = np.zeros_like(counter)
    k0, k1 = key
    for r in range(_ROUNDS):
        if r:
            k0, k1 = (k0 + _W0) & _WORD, (k1 + _W1) & _WORD
        p0, p1 = m0 * x0, m1 * x2
        x0, x1 = (p1 >> shift) ^ x1 ^ np.uint64(k0), p1 & word
        x2, x3 = (p0 >> shift) ^ x3 ^ np.uint64(k1), p0 & word
    out = np.empty((len(counter), 4), dtype=">u4")
    for j, x in enumerate((x0, x1, x2, x3)):
        out[:, j] = x
    return out.view(np.uint8)


def _sample_int(row: np.ndarray) -> int:
    """One row of a sample block as its 128-bit integer."""
    return int.from_bytes(row.tobytes(), "big")


_EXACT_HI = 2**55  # a sample whose top 64 bits reach this rounds from them and a sticky bit


def _sample_doubles(block: np.ndarray) -> np.ndarray:
    """The rows of a sample block as doubles: s / 2.0**128 for each 128-bit s.

    With s = hi * 2^64 + lo and hi >= 2^55, hi carries at least 56 bits, so
    rounding s to 53 bits looks at lo only as a sticky bit: setting the last
    bit of hi when lo != 0 and converting hi rounds the same way.  The few
    rows with a smaller hi (about 1 in 512) are divided as Python integers.
    """
    import numpy as np

    words = block.view(">u8")
    hi, lo = words[:, 0], words[:, 1]
    x = (hi | (lo != 0)).astype(np.float64) * 2.0**-64
    for k in np.flatnonzero(hi < _EXACT_HI):
        x[k] = _sample_int(block[k]) / 2.0**128
    return x


def _count_hits(window: tuple[float, float], sample_count: int, seed: int,
                batch_means: Callable[[int, np.ndarray], np.ndarray]) -> int:
    """The number of the first ``sample_count`` samples whose mean lies in the window.

    ``batch_means(start, block)`` gives the means of the batch that starts
    at sample index ``start``, whose samples are the rows of the
    :func:`_philox_block` ``block`` under the seed's key.  The seed is hashed once per run.
    """
    import numpy as np

    lo, hi = window
    key = _seed_key(seed)
    hits = 0
    for first in range(0, sample_count, _CHUNK):
        block = _philox_block(key, range(first, min(first + _CHUNK, sample_count)))
        means = batch_means(first, block)
        hits += int(np.count_nonzero((means >= lo) & (means <= hi)))
    return hits
