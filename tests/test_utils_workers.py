"""Tests for the worker-process primitive (``repro.utils.workers``).

Every wait carries a timeout, so a regression shows up as a failed assertion
rather than a hung suite.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.utils.workers import Worker, WorkerDied, wait_any

CTX = multiprocessing.get_context("spawn")


def _echo(conn, tag):
    """Reply ``(tag, message)`` to every message; ``None`` stops the loop."""
    while True:
        message = conn.recv()
        if message is None:
            return
        conn.send((tag, message))


def _reply_then_exit(conn):
    conn.recv()
    conn.send("last words")


def _wedged(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    time.sleep(60)  # never reads its pipe again


@pytest.fixture
def worker():
    worker = Worker(CTX, _echo, ("w0",), name="repro-test-worker")
    yield worker
    worker.kill()


def _one_reply(worker, timeout=10.0):
    replies = list(wait_any([worker], timeout=timeout))
    assert len(replies) == 1, "exactly one report per ready worker"
    assert replies[0][0] is worker
    return replies[0][1]


def test_round_trip_and_target_args(worker):
    worker.send({"n": 1})
    assert _one_reply(worker) == ("w0", {"n": 1})
    assert worker.process.name == "repro-test-worker" and worker.process.daemon


def test_killed_before_send_raises_structured_death(worker):
    os.kill(worker.process.pid, signal.SIGKILL)
    worker.process.join(timeout=10.0)
    with pytest.raises(WorkerDied) as excinfo:
        worker.send("job")
    assert excinfo.value.exitcode == -signal.SIGKILL
    assert excinfo.value.signal == signal.SIGKILL


def test_killed_mid_job_reports_death_once_and_never_hangs():
    busy = Worker(CTX, _wedged)
    assert _one_reply(busy, timeout=30.0) == "ready"  # now busy, owing no reply
    os.kill(busy.process.pid, signal.SIGKILL)
    start = time.monotonic()
    death = _one_reply(busy, timeout=30.0)
    assert time.monotonic() - start < 10.0, "the sentinel must wake the wait"
    assert isinstance(death, WorkerDied)
    assert (death.exitcode, death.signal) == (-signal.SIGKILL, signal.SIGKILL)
    busy.kill()


def test_buffered_reply_wins_over_the_exit():
    worker = Worker(CTX, _reply_then_exit)
    try:
        worker.send("go")
        worker.process.join(timeout=10.0)  # replied, then exited: both handles ready
        assert not worker.process.is_alive()
        assert _one_reply(worker) == "last words"
        # Only now, with the pipe drained, is the exit reported -- cleanly.
        death = _one_reply(worker)
        assert isinstance(death, WorkerDied) and death.exitcode == 0 and death.signal is None
    finally:
        worker.kill()


def test_stop_is_polite_first_and_escalates_on_a_wedged_worker(worker):
    worker.stop(None, timeout=10.0)
    assert worker.process.exitcode == 0, "a healthy worker exits on the stop message"

    wedged = Worker(CTX, _wedged)
    assert _one_reply(wedged, timeout=30.0) == "ready"
    start = time.monotonic()
    wedged.stop(None, timeout=0.2)
    assert time.monotonic() - start < 10.0
    assert not wedged.process.is_alive()
    assert wedged.process.exitcode == -signal.SIGKILL


def test_wait_any_honours_timeout_and_multiplexes(worker):
    other = Worker(CTX, _echo, ("w1",))
    try:
        start = time.monotonic()
        assert list(wait_any([worker, other], timeout=0.1)) == []
        assert 0.05 < time.monotonic() - start < 5.0
        assert list(wait_any([], timeout=0.0)) == []
        other.send("ping")
        assert [(w, r) for w, r in wait_any([worker, other], timeout=10.0)] == [(other, ("w1", "ping"))]
    finally:
        other.kill()
