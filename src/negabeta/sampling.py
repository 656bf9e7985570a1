"""Counter-based Monte Carlo samples, and the batch loop that counts hits over them.

Sample i of a seed is the first 16 bytes of sha256 of ``f"{seed}:{i}"``, read
as a 128-bit fixed-point number in [0, 1).  A run hashes its samples in
batches of ``_CHUNK``, so memory stays flat in the sample count, and counts
the batches in contiguous shares, one per CPU and at most one per
``_MIN_SHARE`` samples, each share but the first in a forked child.  A sample's mean does not depend on the batch or the process
that computes it, so neither does the count.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable

# Samples per lane batch: hits are counted chunk by chunk, so memory stays
# flat in the sample count.
_CHUNK = 4096

# The fewest samples a share is forked for.  A child costs about 1.5-2 ms in
# a process of 70 MB (fork, copy-on-write faults, exit); on 2 CPUs the split
# beat the serial count on every engine from 2 x 8192 samples on, and lost on
# the base-2 engine at 12293 (see CHANGES.md).
_MIN_SHARE = 2 * _CHUNK


def _sample_block(seed: int, indices: Iterable[int]) -> np.ndarray:
    """Counter-based uniform samples on [0, 1), one row of 16 bytes per index.

    Row k is the first 16 bytes of sha256 of ``f"{seed}:{i}"`` for the k-th
    index i: a 128-bit fixed-point number, big-endian.  Each message is hashed
    in one call of CPython's builtin SHA-256 (``_sha2`` on 3.12+, ``_sha256``
    before), whose per-call cost is below OpenSSL's through ``hashlib``; a
    build without it falls back to ``hashlib.sha256``, which gives the same
    digests.  The digests are joined into one buffer, so the batch is one
    ``(count, 16)`` uint8 array that every engine reads.
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

    import numpy as np

    message = b"%d:%%d" % seed
    digests = [sha256(message % i).digest() for i in indices]
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 32)[:, :16]


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
    :func:`_sample_block` ``block``.  The batches are counted in shares
    (:func:`_count_in_shares`).
    """
    import numpy as np

    lo, hi = window

    def count(start: int, stop: int) -> int:
        hits = 0
        for first in range(start, stop, _CHUNK):
            block = _sample_block(seed, range(first, min(first + _CHUNK, stop)))
            means = batch_means(first, block)
            hits += int(np.count_nonzero((means >= lo) & (means <= hi)))
        return hits

    return _count_in_shares(count, sample_count)


def _share_count(sample_count: int) -> int:
    """Processes a run's batches are counted in: one per CPU of the process's
    affinity set, at most one per ``_MIN_SHARE`` samples, and one where the
    platform has no ``os.fork`` or ``os.sched_getaffinity``, or where the
    process runs other Python threads (a lock one of them holds at the fork
    would stay held in the child)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), sample_count // _MIN_SHARE))


def _count_in_shares(count: Callable[[int, int], int], sample_count: int) -> int:
    """``count(0, sample_count)``, as a sum over contiguous shares of the samples.

    There is one share per process of :func:`_share_count`, and the shares
    differ in size by at most one sample.  The parent counts the first
    share; each other share runs in a child made by ``os.fork``, which sends
    back its count or its error through a pipe.  Errors are raised in share
    order, so the one raised is the one the serial count meets first.  When
    no pipe or no child can be made, the parent counts the rest itself.  No
    child outlives the call: on an error the parent kills the children it
    has not yet read.
    """
    shares = _share_count(sample_count)
    if shares == 1:
        return count(0, sample_count)
    import pickle
    import signal

    edges = [sample_count * k // shares for k in range(shares + 1)]
    children = []  # (pid, read end of its pipe), in share order, until reaped
    rest = None  # the first sample of the shares no child could be forked for
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            child = _fork_share(count, start, stop)
            if child is None:
                rest = start
                break
            children.append(child)
        hits = count(edges[0], edges[1])
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            del children[0]  # the child has closed its end: it is exiting
            pipe.close()
            os.waitpid(pid, 0)
            if not payload:
                raise RuntimeError(f"the share counted by process {pid} ended without a result")
            share_hits, error = pickle.loads(payload)
            if error is not None:
                raise error
            hits += share_hits
        if rest is not None:
            hits += count(rest, sample_count)
        return hits
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_share(count: Callable[[int, int], int], start: int, stop: int):
    """(pid, read end of its pipe) of a child that counts ``count(start, stop)``,
    or None when the system gives no pipe or no process."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        _count_in_child(count, start, stop, write)
    os.close(write)
    return pid, open(read, "rb")


def _count_in_child(count: Callable[[int, int], int], start: int, stop: int,
                    write: int) -> None:
    """The body of a forked share: ``count(start, stop)``, or the error it
    raised, pickled into the pipe ``write``.  The child leaves only through
    ``os._exit``, so it runs no exit handler and flushes none of the stdio
    buffers it inherited."""
    try:
        import pickle

        try:
            result = (count(start, stop), None)
        except BaseException as exc:  # an interrupt too: the parent raises it
            result = (None, exc)
        try:
            payload = pickle.dumps(result)
        except Exception:  # an error that does not pickle goes back as its type and message
            error = result[1]
            payload = pickle.dumps((None, RuntimeError(f"{type(error).__name__}: {error}")))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)
