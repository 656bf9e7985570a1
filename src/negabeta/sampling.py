"""Counter-based Monte Carlo samples, the batch loop that counts hits over
them, and the digit engines that turn a batch into orbit means.

Sample i of a seed is the 128-bit output block of Philox4x32-10 (Salmon,
Moraes, Dror & Shaw, *Parallel random numbers: as easy as 1, 2, 3*, SC 2011)
at the counter ``(i mod 2^32, i >> 32, 0, 0)``, under a key read off the
seed's SHA-256; its four words, big-endian, are a 128-bit fixed-point number
in [0, 1).  A run computes its samples in batches of ``_CHUNK``, so memory
stays flat in the sample count.  A sample depends on (seed, i) alone, so the
count does not depend on the batches.

The digit engines read the (-beta)-map's digits 0..b off the orbit of each
sample, given beta in fixed point and the observable's value at each digit
(``psi_vals``): integer lanes that step fixed-point orbits with enough guard
bits that the expanding map cannot corrupt them, double orbits that stand in
for them where an error bound certifies the same digits, a popcount for base
2, and the scalar loop that audits them.  They take plain numbers, so this
module imports no other module of the package.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Iterable, Optional, Sequence

# Samples per lane batch: hits are counted chunk by chunk, so memory stays
# flat in the sample count.
_CHUNK = 4096

# Philox4x32's round multipliers and key increments (the golden ratio and sqrt(3) - 1)
_M0, _M1 = 0xD2511F53, 0xCD9E8D57
_W0, _W1 = 0x9E3779B9, 0xBB67AE85
_ROUNDS = 10
_WORD = 0xFFFFFFFF

# A sample is one output block: 16 bytes, a 128-bit fixed-point number.
_SAMPLE_BYTES = 16
_SAMPLE_BITS = 8 * _SAMPLE_BYTES
# An orbit of n steps uses about n*log2(beta) bits of its sample; beyond this
# cap (a 32-bit margin below the sample's bits) it would read the truncation.
_ORBIT_BITS = _SAMPLE_BITS - 32

# The scalar audit reruns every sample whose index is a multiple of this.
_AUDIT_STEP = 100


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


# -- digit engines ---------------------------------------------------------------------


def _scale_sample(sample: int, precision: int) -> int:
    if precision >= _SAMPLE_BITS:
        return sample << (precision - _SAMPLE_BITS)
    return sample >> (_SAMPLE_BITS - precision)


def _orbit_digits(b: int, n: int, sample: int, precision: int,
                  beta_fixed: int) -> tuple[int, ...]:
    """Digit string of one fixed-point orbit with digits 0..b: the scalar
    reference of the lanes.

    `beta_fixed` is beta in the same fixed point, from
    :func:`negabeta.ldp._beta_fixed_point`.
    """
    table = [(d + 1) << (2 * precision) for d in range(b + 1)]
    x = _scale_sample(sample, precision)
    digits = []
    for _ in range(n):
        t = beta_fixed * x
        d = t >> (2 * precision)
        d = b if d > b else (0 if d < 0 else d)
        digits.append(d)
        x = (table[d] - t) >> precision
    return tuple(digits)


def _digit_mean(digits: Sequence[int], psi_vals: Sequence[float]) -> float:
    acc = 0.0
    for d in digits:
        acc += psi_vals[d]
    return acc / len(digits)


def _lane_means(b: int, psi_vals: Sequence[float], n: int, block: np.ndarray,
                precision: int, beta_fixed: int) -> np.ndarray:
    """Exact-start fixed-point orbits; one mean of the observable per sample.

    The rows of the sample block run as lanes of one Python integer, each
    lane a whole number of bytes and at least 2p + 8 bits wide (p the
    precision): the rows are copied byte-reversed into a zeroed array, which
    one ``int.from_bytes`` reads.  Per lane, a step is the scalar step of
    :func:`_orbit_digits`: with t = beta_fixed * x the digit is t >> 2p and
    the next point is (2^2p - (t mod 2^2p)) >> p, which lies in [0, 2^p].
    The lanes never carry or borrow into each other, so every lane does
    exactly the scalar integer arithmetic.  The digits of
    consecutive steps are gathered side by side in each lane and come out of
    one ``to_bytes`` per group of steps; the means add the observable step by
    step in the scalar order, so they are bit-identical to it.

    The scalar loop clamps the digit to b.  Since x <= 2^p, the clamp can
    only act when beta_fixed >= (b + 1) << p, as for an integer beta; the
    lanes then watch for a digit above b, and a batch that shows one is
    rerun by :func:`_orbit_digits`.  :func:`_digit_means_generic` runs here
    only the rows its double orbits do not certify.
    """
    import numpy as np

    count = len(block)
    top = beta_fixed >> precision  # the largest digit a step can produce
    width = next(w for w in (1, 2, 4, 8) if top < 256**w)  # bytes per digit
    digit_bits = 8 * width
    # whole bytes per lane, a multiple of the digit width: 2p bits below the
    # digit field, and at least 17 bytes so a raw 128-bit sample shifts cleanly
    lane_bytes = max((2 * precision + digit_bits + 7) // 8, 17)
    lane_bytes += -lane_bytes % width
    ones = int.from_bytes(b"\x01".ljust(lane_bytes, b"\x00") * count, "little")
    unit = ones << (2 * precision)
    low_mask = unit - ones
    x_mask = (ones << (precision + 1)) - ones
    digit_field = (unit << digit_bits) - unit
    # a group of steps gathers its digits side by side in each lane, step j
    # at bit j * digit_bits, for one to_bytes per group
    group = min(lane_bytes // width, 2 * precision // digit_bits + 1)

    lanes = np.zeros((count, lane_bytes), dtype=np.uint8)
    lanes[:, :_SAMPLE_BYTES] = block[:, ::-1]
    x = int.from_bytes(lanes.tobytes(), "little")
    if precision >= _SAMPLE_BITS:
        x <<= precision - _SAMPLE_BITS
    else:
        x = (x >> (_SAMPLE_BITS - precision)) & x_mask
    psi_arr = np.array(psi_vals, dtype=np.float64)
    acc = np.zeros(count)
    for first in range(0, n, group):
        steps = min(group, n - first)
        packed = 0
        for j in range(steps):
            t = beta_fixed * x
            packed |= (t & digit_field) >> (2 * precision - j * digit_bits)
            x = ((unit - (t & low_mask)) >> precision) & x_mask
        digits = np.frombuffer(packed.to_bytes(count * lane_bytes, "little"),
                               dtype=f"<u{width}").reshape(count, -1)[:, :steps]
        if top > b and digits.max() > b:
            return np.array([_digit_mean(_orbit_digits(b, n, _sample_int(row), precision,
                                                       beta_fixed), psi_vals) for row in block])
        for values in psi_arr[digits.T]:
            acc += values
    return acc / n


def _up(x: float) -> float:
    """The next double above x: an upper bound of any real that rounds to x."""
    return math.nextafter(x, math.inf)


@functools.lru_cache(maxsize=16)
def _certificate_bounds(beta_fixed: int, precision: int, n: int) -> Optional[tuple[float, ...]]:
    """Per-step bounds B_0..B_{n-1} that certify a double orbit, or None.

    Three orbits of a sample s start near xi_0 = s / 2^128: the exact orbit
    xi of the map x -> (d+1) - beta*x, the fixed-point orbit X of
    :func:`_orbit_digits` at p bits, and the double orbit z of
    :func:`_double_means`, with products tau = beta*xi, T = (beta_fixed/2^p)*X
    and t = fl(beta_hat*z).  While the three share their digits, the errors
    e_k = |z_k - xi_k| and delta_k = |X_k - xi_k| obey, with beta_up an upper
    bound of beta, beta_hat and beta_fixed/2^p, and u = 2^-53:

    - |t_k - tau_k| <= beta_up*u + |beta_hat - beta| + beta_up*e_k (the
      rounded product, the rounded slope, the inherited error), and
      e_{k+1} <= |t_k - tau_k| + u/2 (the rounded 1 - frac(t_k));
      e_0 <= u/2 (the sample rounded to a double);
    - |T_k - tau_k| <= 2^-p + beta_up*delta_k (|beta_fixed/2^p - beta| < 2^-p
      for the beta_fixed of :func:`negabeta.ldp._beta_fixed_point`),
      and delta_{k+1} <= |T_k - tau_k| + 2^-p (the truncation to p bits);
      delta_0 <= 2^-p.

    B_k bounds |t_k - tau_k| + |T_k - tau_k|.  If t_k is farther than B_k
    from every integer, then tau_k and T_k lie strictly between the same two
    integers as t_k, so all three orbits read the digit floor(t_k); tau_k is
    not an integer, so xi_{k+1} < 1 and the digit is at most b, which the
    fixed-point orbit's clamp leaves alone.  By induction a row certified
    at every step reads exactly the digits of :func:`_orbit_digits`.  The
    recurrences run in doubles, each result moved one ulp up.

    A row whose t_k fall uniformly modulo 1 misses the certificate at step
    k with probability 2 B_k, so sum_k 2 B_k bounds the expected share of
    uncertified rows.  Returns None once that bound reaches 1: there the
    double pass certifies almost no row (none of 4096 on the cubic base at
    n = 116, where the bound is 1.35, nor on x^2 - x - 1 at n = 70), and
    every row would pay for the lanes as well.  A bound of 1/2 or more at a
    single step (no row certifiable) is the special case of this rule.
    """
    unit = 2.0**-53
    fixed = math.ldexp(1.0, -precision)
    beta_hat = beta_fixed / (1 << precision)  # correctly rounded
    # beta_fixed/2^p lies within half an ulp of beta_hat, and beta within 2^-p of it
    beta_up = _up(_up(beta_hat) + fixed)
    slope_err = _up(beta_up * unit + fixed)  # |beta_hat - beta|
    step_err = _up(_up(beta_up * unit + slope_err) + fixed)  # the terms that do not grow
    fresh = _up(unit / 2 + fixed)  # e_0 + delta_0, and the rounding added per step
    bounds = []
    carried = fresh  # e_k + delta_k
    share = 0.0  # sum of 2 B_k so far
    for _ in range(n):
        bound = _up(step_err + _up(beta_up * carried))
        share += 2 * bound
        if share >= 1:
            return None
        bounds.append(bound)
        carried = _up(bound + fresh)
    return tuple(bounds)


def _double_means(psi_vals: Sequence[float], n: int, block: np.ndarray, precision: int,
                  beta_fixed: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Means of the double orbits of the block's rows, with the rows they are certified for.

    Each row is read as the double nearest to it (:func:`_sample_doubles`);
    a step is t = beta_hat * z, d = floor(t), z <- 1 - (t - d) = (d+1) - t,
    where beta_hat is the double nearest to beta_fixed / 2^p, and the
    observable is added in step order.  A row is certified when at every
    step k, t lies farther than B_k of :func:`_certificate_bounds` from
    every integer: its digits are then those of :func:`_orbit_digits`, so
    its mean is bit-identical to the scalar one.  Returns None, without
    running, when the bounds rule every row out.
    """
    import numpy as np

    bounds = _certificate_bounds(beta_fixed, precision, n)
    if bounds is None:
        return None
    beta_hat = beta_fixed / (1 << precision)
    # an uncertified step may read floor(beta_hat) = b + 1; its mean is discarded
    psi_arr = np.array(list(psi_vals) + [0.0] * (int(beta_hat) + 1 - len(psi_vals)))
    count = len(block)
    z = _sample_doubles(block)
    t = np.empty(count)
    frac = np.empty(count)
    digit = np.empty(count)
    near = np.empty(count)
    index = np.empty(count, dtype=np.intp)
    values = np.empty(count)
    acc = np.zeros(count)
    certified = np.ones(count, dtype=bool)
    for bound in bounds:
        np.multiply(z, beta_hat, out=t)
        np.floor(t, out=digit)
        np.subtract(t, digit, out=frac)  # exact: t < 1, or floor(t) <= t <= 2 floor(t)
        np.subtract(1.0, frac, out=z)
        np.minimum(frac, z, out=near)  # the distance to the nearest integer (z is exact when it wins)
        certified &= near > bound
        np.copyto(index, digit, casting="unsafe")
        np.take(psi_arr, index, out=values)
        acc += values
    return acc / n, certified


def _digit_means_generic(b: int, psi_vals: Sequence[float], n: int, block: np.ndarray,
                         precision: int, beta_fixed: int) -> np.ndarray:
    """Exact-start fixed-point orbit means; one mean of the observable per sample.

    Every mean equals the one :func:`_orbit_digits` gives at p = ``precision``
    bits, float for float.  The block first runs as double orbits
    (:func:`_double_means`), each row with a certificate that its digits are
    the fixed-point ones; only the rows left uncertified run through the
    integer lanes of :func:`_lane_means`.  Past about 47 to 50 bits of orbit
    the certificate is not expected to hold for any row
    (:func:`_certificate_bounds` gives None), and every row runs in the lanes.
    """
    import numpy as np

    doubles = _double_means(psi_vals, n, block, precision, beta_fixed)
    if doubles is None:
        return _lane_means(b, psi_vals, n, block, precision, beta_fixed)
    means, certified = doubles
    rest = np.flatnonzero(~certified)
    if len(rest):
        means[rest] = _lane_means(b, psi_vals, n, block[rest], precision, beta_fixed)
    return means


_ODD_BITS = 0x5555555555555555  # the complemented bit positions of a 64-bit word


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Ones in each uint64 of x: bit counts summed in 2-, 4- and 8-bit fields,
    then the eight byte counts added into the top byte by one multiply."""
    import numpy as np

    m1, m2, m4, h01 = map(np.uint64, (0x5555555555555555, 0x3333333333333333,
                                      0x0F0F0F0F0F0F0F0F, 0x0101010101010101))
    x = x - ((x >> np.uint64(1)) & m1)
    x = (x & m2) + ((x >> np.uint64(2)) & m2)
    x = (x + (x >> np.uint64(4))) & m4
    return (x * h01) >> np.uint64(56)


def _digit_means_beta2(psi_vals: Sequence[float], n: int, block: np.ndarray) -> np.ndarray:
    """Base-2 fast path: the exact fixed-point orbit digits of x are the
    alternately complemented leading bits of x, so digit means reduce to
    counts of ones.  Each row is read as big-endian 64-bit words, complemented
    at the odd bit positions (0x55...55), shifted down to its first n bits
    and popcounted; n <= 96 (``_ORBIT_BITS``) needs at most two words.
    Bit-for-bit equal to the generic engine away from dyadic boundary points
    (a zero-probability set for hashed samples)."""
    import numpy as np

    psi0, psi1 = psi_vals
    words = block.view(">u8")
    ones = np.zeros(len(block), dtype=np.int64)
    for k in range(0, n, 64):
        head = (words[:, k // 64] ^ np.uint64(_ODD_BITS)) >> np.uint64(64 - min(n - k, 64))
        ones += _popcount64(head).astype(np.int64)
    return (ones * psi1 + (n - ones) * psi0) / n


def _audit_sample(b: int, psi_vals: Sequence[float], n: int, index: int,
                  sample: int, mean: float, precision: int, beta_fixed: int,
                  beta_double: int) -> None:
    """Rerun one sample in scalar: its digits at p and 2p bits must agree, and
    the engine's mean must be the mean of those digits."""
    digits = _orbit_digits(b, n, sample, precision, beta_fixed)
    if digits != _orbit_digits(b, n, sample, 2 * precision, beta_double):
        raise ArithmeticError(f"precision audit failed at sample {index}: digit strings differ")
    scalar = _digit_mean(digits, psi_vals)
    if mean != scalar and not (math.isnan(mean) and math.isnan(scalar)):
        raise ArithmeticError(
            f"lane audit failed at sample {index}: engine mean {mean!r}, scalar mean {scalar!r}"
        )
