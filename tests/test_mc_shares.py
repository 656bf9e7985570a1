"""Monte Carlo runs counted in forked shares against the serial count.

`sampling._count_hits` splits a run's batches into contiguous shares, one
per CPU of the affinity set; the parent counts the first share and a forked
child counts each other one.  A sample's mean does not depend on the process
that computes it, so the estimates must be equal field for field, and an
error must be the one the serial count meets first.  The CPU count is set by
patching ``os.sched_getaffinity``; on one CPU ``os.fork`` is patched to
raise, so a serial run proves that it forked nothing.  Most tests also lower
``sampling._MIN_SHARE``, the fewest samples a child is forked for, so that
runs of a few batches split.
"""

import errno
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from negabeta import ldp, sampling
from negabeta.algebraic import parse_beta_spec
from negabeta.intervalmaps import circle_mc_deviation
from negabeta.ldp import WindowNeverHit, mc_deviation
from negabeta.sampling import _CHUNK, _sample_block
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


def _refuse_fork():
    raise AssertionError("a serial run forked")


def _on_cpus(monkeypatch, cpus, min_share=1):
    """Give the process ``cpus`` CPUs, and fork shares of ``min_share``
    samples or more; returns the list of pids it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(sampling, "_MIN_SHARE", min_share)
    if cpus == 1:
        monkeypatch.setattr(os, "fork", _refuse_fork)
        return []
    forked = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forked


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _outcome(call):
    """The estimate, or the payload of the WindowNeverHit it raised."""
    try:
        return call()
    except WindowNeverHit as exc:
        return "never hit", str(exc), exc.report, exc.estimate


def _run_on(monkeypatch, cpus, call, min_share=1):
    """(outcome, children forked) of ``call`` with ``cpus`` CPUs."""
    with monkeypatch.context() as patched:
        forked = _on_cpus(patched, cpus, min_share)
        outcome = _outcome(call)
    assert _no_child_left()
    return outcome, len(forked)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_split_equals_serial(name, count, monkeypatch):
    run, window = RUNS[name]
    for target in (window, EMPTY):
        serial, forks = _run_on(monkeypatch, 1, lambda: run(target, count))
        assert forks == 0
        for cpus in (2, 4):
            for min_share in (1, sampling._MIN_SHARE):
                split, forks = _run_on(monkeypatch, cpus, lambda: run(target, count), min_share)
                assert split == serial, (target, cpus, min_share)
                assert forks == min(cpus, max(1, count // min_share)) - 1
        if target == EMPTY:
            assert serial[0] == "never hit" and serial[3].hits == 0
        elif count > _CHUNK:
            assert serial.hits > 0


def test_shares_cover_the_samples_once(monkeypatch):
    # the parent counts the first third; the three shares add up to every sample
    calls = []
    parent = os.getpid()

    def count(start, stop):
        if os.getpid() == parent:
            calls.append((start, stop))
        return stop - start

    count_all = 5 * _CHUNK - 1
    forked = _on_cpus(monkeypatch, 3)
    assert sampling._count_in_shares(count, count_all) == count_all
    assert calls == [(0, count_all // 3)] and len(forked) == 2
    assert _no_child_left()


def test_small_runs_stay_serial(monkeypatch):
    # a child costs more than it saves on a share of fewer than _MIN_SHARE samples
    share = sampling._MIN_SHARE
    assert share == 2 * _CHUNK
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert [sampling._share_count(n) for n in (1, 2 * share - 1, 2 * share, 3 * share + 5)] \
        == [1, 1, 2, 3]
    assert sampling._share_count(64 * share) == 64 == sampling._share_count(10**6)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert sampling._share_count(20000) == 2  # the mc.generic runs of the benchmark


def test_serial_while_other_threads_run(monkeypatch):
    # a thread could hold a lock at the fork, which the child would never see released
    run, window = RUNS["base 2"]
    serial, _ = _run_on(monkeypatch, 1, lambda: run(window, 3 * _CHUNK))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        outcome, forks = _run_on(monkeypatch, 4, lambda: run(window, 3 * _CHUNK))
    finally:
        release.set()
        waiter.join()
    assert outcome == serial and forks == 0
    _, forks = _run_on(monkeypatch, 4, lambda: run(window, 3 * _CHUNK))
    assert forks == 3


def test_serial_without_fork_or_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", _refuse_fork)
    assert sampling._share_count(10 * _CHUNK) == 1
    monkeypatch.undo()
    monkeypatch.delattr(os, "fork")
    assert sampling._share_count(10 * _CHUNK) == 1


def _nudge_samples(monkeypatch, seed, indices):
    """Move the generic engine's mean of the samples at ``indices`` up one ulp."""
    rows = _sample_block(seed, indices)
    real = ldp._digit_means_generic

    def nudged(system, psi, n, block, *rest):
        means = real(system, psi, n, block, *rest)
        marked = (block[:, None, :] == rows[None, :, :]).all(axis=2).any(axis=1)
        return np.where(marked, np.nextafter(means, np.inf), means)

    monkeypatch.setattr(ldp, "_digit_means_generic", nudged)


@pytest.mark.parametrize("indices, first", [([4100], 4100), ([0, 4100], 0),
                                            ([4100, 6200], 4100)])
def test_share_errors_match_the_serial_error(indices, first, monkeypatch):
    # with 2 CPUs the child counts samples 4097..8194; 4100 and 6200 are the
    # audited indices past that split point, so only a child sees them fail
    count = 2 * _CHUNK + 3
    assert count // 2 < 4100
    _nudge_samples(monkeypatch, 1, indices)

    def run():
        return mc_deviation(SYSTEMS["cubic"], DIGIT1, (0.0, 1.0), 20, count, seed=1)

    errors = []
    for cpus in (1, 2):
        with monkeypatch.context() as patched:
            forked = _on_cpus(patched, cpus)
            with pytest.raises(ArithmeticError) as caught:
                run()
        assert len(forked) == cpus - 1
        assert _no_child_left()
        errors.append((type(caught.value), str(caught.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(f"lane audit failed at sample {first}:")


def test_failing_parent_share_kills_its_children(monkeypatch):
    parent = os.getpid()
    real = ldp._digit_means_beta2

    def engine(psi, n, block):
        if os.getpid() == parent:
            raise ArithmeticError("the parent's share failed")
        time.sleep(60)  # a child the parent waited for would hold the test here
        return real(psi, n, block)

    monkeypatch.setattr(ldp, "_digit_means_beta2", engine)
    forked = _on_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(ArithmeticError, match="the parent's share failed"):
        mc_deviation(SYSTEMS["base 2"], DIGIT1, (0.0, 1.0), 30, 3 * _CHUNK, seed=1)
    assert time.monotonic() - start < 30
    assert len(forked) == 2 and _no_child_left()


def _exit_quietly():
    os._exit(1)


def _raise_unpicklable():
    class Local(ArithmeticError):
        pass  # a class defined in a function does not pickle

    raise Local("from a child")


@pytest.mark.parametrize("in_child, message", [
    (_exit_quietly, "ended without a result"),
    (_raise_unpicklable, "^Local: from a child$"),  # sent back as its type name and message
])
def test_child_failures_reach_the_caller(in_child, message, monkeypatch):
    parent = os.getpid()
    real = ldp._digit_means_beta2

    def engine(psi, n, block):
        if os.getpid() != parent:
            in_child()
        return real(psi, n, block)

    monkeypatch.setattr(ldp, "_digit_means_beta2", engine)
    _on_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=message):
        mc_deviation(SYSTEMS["base 2"], DIGIT1, (0.0, 1.0), 30, 2 * _CHUNK, seed=1)
    assert _no_child_left()


def test_failed_pipe_counts_the_rest_in_the_parent(monkeypatch):
    run, window = RUNS["x^2-x-1"]
    count = 5 * _CHUNK - 1
    serial, _ = _run_on(monkeypatch, 1, lambda: run(window, count))
    real = os.pipe
    calls = []

    def pipe():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return real()

    forked = _on_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "pipe", pipe)
    assert run(window, count) == serial
    assert len(calls) == 2 and len(forked) == 1 and _no_child_left()


def test_failed_fork_counts_the_rest_in_the_parent(monkeypatch):
    run, window = RUNS["cubic"]
    count = 5 * _CHUNK - 1
    serial, _ = _run_on(monkeypatch, 1, lambda: run(window, count))
    real = os.fork
    calls = []

    def fork():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real()

    _on_cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", fork)
    assert run(window, count) == serial
    assert len(calls) == 2 and _no_child_left()


_BUFFERED = r"""
import os, sys
os.sched_getaffinity = lambda pid: {0, 1, 2}
from negabeta.algebraic import parse_beta_spec
from negabeta.ldp import mc_deviation
from negabeta import sampling
from negabeta.sampling import _CHUNK
from negabeta.transform import MinusBetaSystem
sampling._MIN_SHARE = _CHUNK
sys.stdout.write("buffered before the fork\n")
two = MinusBetaSystem(parse_beta_spec("poly:-2,1;interval:1,3"))
print(mc_deviation(two, {0: 0.0, 1: 1.0}, (0.3, 0.6), 30, 3 * _CHUNK, seed=1).hits)
"""


def test_children_never_flush_the_parents_output(monkeypatch):
    # stdout to a pipe is block-buffered: a child that flushed its copy of
    # the buffer on the way out would print the first line again
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-c", _BUFFERED], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    serial, _ = _run_on(monkeypatch, 1, lambda: mc_deviation(
        SYSTEMS["base 2"], DIGIT1, (0.3, 0.6), 30, 3 * _CHUNK, seed=1))
    assert proc.stdout == f"buffered before the fork\n{serial.hits}\n"
