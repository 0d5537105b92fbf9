"""Deterministic fault injection for campaign chaos testing.

A :class:`FaultPlan` is a *seeded, pure* description of which runs of a
campaign misbehave and how: every decision is a function of ``(plan seed,
run key, attempt)`` through SHA-256, never of wall-clock time, process ids
or Python's randomized ``hash()``.  Two campaigns over the same spec with
the same plan therefore inject byte-identical fault schedules -- which is
what lets the chaos suite (``tests/test_sweeps_chaos.py``, ``make chaos``)
assert that a faulted campaign converges to exactly the ok-records of a
fault-free one.

Fault kinds
-----------
Worker-side (drawn from one uniform stream per key, rates stacked):

* ``"crash"``     -- the worker process SIGKILLs itself (hard death: what an
  OOM kill or a segfault looks like from the supervisor's side);
* ``"hang"``      -- the worker sleeps ``hang_s`` seconds before executing,
  tripping the campaign's per-run deadline (requires ``timeout_s``; without
  a deadline the run merely finishes late);
* ``"transient"`` -- the worker raises :class:`TransientFault`, a retryable
  error (the moral equivalent of a flaked network or filesystem call).

Store-side (an independent stream, applied record by record by
:meth:`~repro.sweeps.store.ResultStore.put_many`):

* ``"torn"``      -- the first append of the key's record is cut mid-line
  (no trailing newline) before the real record lands, simulating a writer
  killed mid-append followed by a recovery append;
* ``"duplicate"`` -- the record line is appended twice (a resumed campaign
  double-writing), exercising last-wins reload and ``store compact``.

Worker faults fire on the first ``faulted_attempts`` attempts of a faulted
key only (default 1), so a campaign that retries
(:func:`~repro.sweeps.runner.run_campaign`'s ``max_attempts`` > 1) recovers
every such run.  Raise ``faulted_attempts`` to ``max_attempts`` or past it to
force exhaustion and exercise the quarantine path.

Fault injection never participates in run keys or record contents -- see the
run-key contract in :mod:`repro.sweeps`.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import asdict, dataclass
from typing import Mapping


class TransientFault(Exception):
    """An injected retryable error (classified retryable by default policies)."""


def _uniform(*parts: object) -> float:
    """A deterministic uniform in [0, 1) from SHA-256 of the joined parts."""
    digest = hashlib.sha256(":".join(str(part) for part in parts).encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(1 << 48)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults (see module doc)."""

    seed: int = 0
    #: Worker-side rates (fractions of keys), stacked in this order.
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    transient_rate: float = 0.0
    #: Store-side rates (independent stream), stacked in this order.
    torn_write_rate: float = 0.0
    duplicate_write_rate: float = 0.0
    #: Worker faults fire on attempts 1..faulted_attempts of a faulted key.
    faulted_attempts: int = 1
    #: How long a "hang" sleeps; make it comfortably larger than the
    #: campaign's ``timeout_s`` so the deadline, not the sleep, ends the run.
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        worker = self.crash_rate + self.hang_rate + self.transient_rate
        store = self.torn_write_rate + self.duplicate_write_rate
        if not 0.0 <= worker <= 1.0 or not 0.0 <= store <= 1.0:
            raise ValueError("fault rates must be fractions whose per-stream sum is <= 1")

    # -- decisions ----------------------------------------------------------
    def worker_fault(self, key: str, attempt: int = 1) -> str | None:
        """``"crash"`` / ``"hang"`` / ``"transient"`` / None for (key, attempt)."""
        if attempt > self.faulted_attempts:
            return None
        u = _uniform(self.seed, "worker", key)
        if u < self.crash_rate:
            return "crash"
        if u < self.crash_rate + self.hang_rate:
            return "hang"
        if u < self.crash_rate + self.hang_rate + self.transient_rate:
            return "transient"
        return None

    def store_fault(self, key: str) -> str | None:
        """``"torn"`` / ``"duplicate"`` / None for the key's record append."""
        u = _uniform(self.seed, "store", key)
        if u < self.torn_write_rate:
            return "torn"
        if u < self.torn_write_rate + self.duplicate_write_rate:
            return "duplicate"
        return None

    def faulted_fraction(self, keys) -> float:
        """Fraction of ``keys`` that draw any fault (worker or store)."""
        keys = list(keys)
        if not keys:
            return 0.0
        hit = sum(
            1 for key in keys
            if self.worker_fault(key, 1) is not None or self.store_fault(key) is not None
        )
        return hit / len(keys)

    # -- worker-side execution ---------------------------------------------
    def inject(self, key: str, attempt: int) -> None:
        """Apply the worker fault for (key, attempt); called inside a worker.

        ``"crash"`` does not return (the process SIGKILLs itself);
        ``"hang"`` sleeps ``hang_s`` then returns (the supervisor's deadline
        is expected to kill the worker first); ``"transient"`` raises
        :class:`TransientFault`.
        """
        kind = self.worker_fault(key, attempt)
        if kind is None:
            return
        if kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(self.hang_s)
        elif kind == "transient":
            raise TransientFault(
                f"injected transient fault (seed={self.seed}, attempt={attempt})"
            )

    # -- (de)serialization (plans cross process boundaries with payloads) ---
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        return cls(**dict(data))
