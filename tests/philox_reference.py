"""The Monte Carlo samples computed one at a time, apart from `negabeta.sampling`.

Sample i of a seed is the Philox4x32-10 block (Salmon, Moraes, Dror & Shaw,
*Parallel random numbers: as easy as 1, 2, 3*, SC 2011) at the counter
(i mod 2^32, i >> 32, 0, 0), under the key of the first 8 bytes of sha256 of
the seed's decimal text, read as a 128-bit big-endian integer.  Here each
block is ten rounds on Python integers, and the key comes from `hashlib`.
"""

import functools
import hashlib

M0, M1 = 0xD2511F53, 0xCD9E8D57
W0, W1 = 0x9E3779B9, 0xBB67AE85
WORD = 0xFFFFFFFF


def philox4x32_10(counter, key):
    """The four output words of Philox4x32-10 at four counter words and two key words."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + W0) & WORD, (k1 + W1) & WORD
        p0, p1 = M0 * x0, M1 * x2
        x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & WORD, (p0 >> 32) ^ x3 ^ k1, p0 & WORD
    return x0, x1, x2, x3


@functools.cache
def seed_key(seed):
    digest = hashlib.sha256(str(seed).encode()).digest()
    return int.from_bytes(digest[:4], "big"), int.from_bytes(digest[4:8], "big")


def sample_int(seed, index):
    """Sample ``index`` of ``seed`` as its 128-bit integer."""
    x0, x1, x2, x3 = philox4x32_10((index & WORD, index >> 32, 0, 0), seed_key(seed))
    return x0 << 96 | x1 << 64 | x2 << 32 | x3
