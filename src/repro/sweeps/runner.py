"""Campaign runner: fault-tolerant fan-out over supervised worker processes.

The runner is the layer between "one harness run" and "a paper figure": it
expands a :class:`~repro.sweeps.spec.SweepSpec` (or takes explicit
:class:`~repro.sweeps.spec.RunRequest` lists), skips every run whose key the
:class:`~repro.sweeps.store.ResultStore` already holds (``resume``), executes
the rest, and appends records to the store as soon as they land -- one
locked append per worker reply.  Workers execute via
:func:`repro.experiments.harness.run_algorithm_safe`, so an infeasible point
becomes a ``"failed"`` record instead of aborting the campaign.

Dispatch is in *chunks*: a worker receives a list of requests in one
message, runs them in order and replies once with their outcomes, and the
supervisor persists the reply's final records with one append.  A chunk is
``ceil(queued / (2 * workers))`` runs, at most :data:`MAX_CHUNK_RUNS`
(guided self-scheduling: chunks shrink as the queue drains).  Three kinds of
run go alone: every run of a campaign with a deadline (``timeout_s`` stays
per run), numeric-mode runs (their cost dwarfs the dispatch cost) and
*suspects* -- the runs of a chunk whose worker died.  Such a death charges
no attempt; the suspects return to the front of the queue, so the next
death is charged to exactly one run, as with one run per message.

Fault tolerance: instead of a bare ``multiprocessing.Pool.imap`` (where one
OOM-killed or hung worker wedges the whole campaign), execution runs under a
**supervisor** over :class:`repro.utils.workers.Worker` processes -- the one
worker-process primitive, shared with the plane engine's shard pool
(:mod:`repro.machine.shard`).  ``jobs=1`` without a deadline or fault plan is
the same supervisor's *in-process slot*: no process is spawned, and every
attempt goes through the same retry loop, one run and one append at a time.
The supervisor enforces a per-run wall-clock deadline (``timeout_s``),
detects hard worker deaths (SIGKILL / OOM / segfault) without hanging,
re-executes failed attempts of the :data:`RETRYABLE_ERRORS` up to
``max_attempts`` times with exponential backoff and deterministic jitter
(:func:`backoff`), and -- once a run's budget is exhausted -- quarantines it
as a structured ``"failed"`` record carrying the failure taxonomy
(``attempts`` / ``duration_s`` / ``exit_signal`` / ``traceback_tail`` /
``retryable``) instead of killing the campaign.  An out-of-memory kill is
such a death: a retryable ``WorkerCrash`` with ``exit_signal`` 9, charged to
exactly one run.  Successful records stay pure functions of the run
parameters: attempt counts and injected faults never leak into ok-records
or run keys, which is the chaos-harness invariant
(``tests/test_sweeps_chaos.py``).

``KeyboardInterrupt`` / ``SIGTERM`` cancel cooperatively: finished replies
still sitting in worker pipes are drained to the store before the interrupt
re-raises; a killed campaign loses at most the chunk each worker was running.

Concurrent campaigns sharing one store coordinate through leases
(:meth:`~repro.sweeps.store.ResultStore.acquire_leases`): keys leased by a
live campaign are *deferred* -- this campaign waits for their records to
appear instead of executing them twice -- and leases lapse after their TTL
(:data:`LEASE_TTL_S`) so a crashed campaign cannot wedge the keys it held.

Determinism: records are reported in expansion order regardless of worker
completion order, and every stored ok-value is a pure function of the run's
parameters -- a 2-job campaign aggregates byte-identically to a serial one,
faulted or not.
"""

from __future__ import annotations

import heapq
import json
import multiprocessing
import os
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.algorithms import get_algorithm
from repro.experiments.harness import AlgorithmRun, RunFailure, run_algorithm_safe
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active_tracer
from repro.sweeps.faults import FaultPlan, _uniform
from repro.sweeps.spec import RunRequest, SweepSpec, request_from_dict
from repro.sweeps.store import (
    ResultStore,
    failure_to_record,
    record_to_run,
    run_to_record,
)
from repro.utils.workers import Worker, WorkerDied, wait_any

_LOG = get_logger("sweeps")

#: Filename of the campaign-metrics sidecar written beside the result store.
#: Metrics live here -- never inside ok-records, which stay pure functions of
#: the run parameters (the chaos-harness invariant).
METRICS_SIDECAR = "campaign_metrics.json"

#: Default store directory, relative to the current working directory.
DEFAULT_STORE_PATH = ".sweep-cache"

#: Most runs one worker message carries: a campaign killed mid-chunk loses
#: at most this many finished runs per worker.
MAX_CHUNK_RUNS = 32
#: Bucket bounds of the ``sweeps.dispatch.chunk_runs`` histogram (runs).
CHUNK_BUCKETS = (1, 2, 4, 8, 16, 32)

#: Error classes worth re-executing: injected transients, hard worker
#: deaths, deadline trips and environment-induced failures.  Deterministic
#: simulation errors (infeasible schedules, conservation violations, value
#: errors) are *not* here -- the simulator is deterministic, so they would
#: fail identically on every attempt.
RETRYABLE_ERRORS = (
    "TransientFault",
    "WorkerCrash",
    "RunTimeout",
    "MemoryError",
    "OSError",
    "BrokenPipeError",
    "ConnectionResetError",
    "EOFError",
)


#: Retry backoff: ``BACKOFF_S`` before attempt 2, doubling per attempt up to
#: ``MAX_BACKOFF_S``, plus up to ``JITTER_S`` of deterministic jitter.
BACKOFF_S = 0.05
MAX_BACKOFF_S = 2.0
JITTER_S = 0.02

#: Lease lifetime: a campaign heartbeats its leases at a third of this, and a
#: crashed campaign's keys become reclaimable once it lapses.
LEASE_TTL_S = 15.0


def backoff(key: str, attempt: int) -> float:
    """Seconds to wait before re-dispatching ``key`` after ``attempt``.

    The jitter is derived from the run key and attempt number (SHA-256, never
    ``random``), so two campaigns replaying the same fault schedule retry on
    the same cadence.
    """
    base = min(BACKOFF_S * 2.0 ** (attempt - 1), MAX_BACKOFF_S)
    return base + _uniform("backoff", key, attempt) * JITTER_S


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    #: Records in expansion order (cached and fresh alike).
    records: list[dict]
    #: Number of runs actually executed by this invocation (ok or
    #: quarantined; deferred / pruned runs never executed).
    executed: int
    #: Number of runs answered from the store without executing.
    cached: int
    #: Number of records (cached or fresh) whose status is ``"failed"``.
    failed: int
    elapsed_s: float
    #: Number of runs the planner rejected as infeasible without executing
    #: (their ``"failed"`` records carry error type ``InfeasiblePlan``).
    pruned: int = 0
    store_path: str = ""
    #: Retry attempts performed beyond each run's first attempt.
    retried: int = 0
    #: Runs stored as ``"failed"`` by this invocation's execution phase
    #: (retry budget exhausted or non-retryable error).
    quarantined: int = 0
    #: Runs resolved by waiting on a concurrent campaign's lease.
    deferred: int = 0
    #: Store lines a compaction would drop, as of campaign end (see
    #: :attr:`~repro.sweeps.store.ResultStore.stale_lines`).
    stale_lines: int = 0
    #: Snapshot of the supervisor's :class:`~repro.obs.metrics.MetricsRegistry`
    #: at campaign end (worker spawns/deaths, retries, queue depth, per-run
    #: latency histogram).  Also persisted as ``campaign_metrics.json`` beside
    #: the store; never part of any run record.
    metrics: dict | None = None
    _runs: list[AlgorithmRun] | None = field(default=None, repr=False)

    @property
    def ok_records(self) -> list[dict]:
        return [r for r in self.records if r.get("status") == "ok"]

    @property
    def failed_records(self) -> list[dict]:
        return [r for r in self.records if r.get("status") == "failed"]

    def runs(self) -> list[AlgorithmRun]:
        """The successful runs as :class:`AlgorithmRun` objects (cached)."""
        if self._runs is None:
            self._runs = [record_to_run(r) for r in self.ok_records]
        return self._runs

    def summary_line(self) -> str:
        """One human-readable line summarizing the campaign outcome."""
        parts = [
            f"campaign: {len(self.records)} records",
            f"ok={len(self.records) - self.failed}",
            f"failed={self.failed}",
            f"executed={self.executed}",
            f"cached={self.cached}",
        ]
        for label, value in (
            ("pruned", self.pruned), ("deferred", self.deferred),
            ("retried", self.retried), ("quarantined", self.quarantined),
        ):
            if value:
                parts.append(f"{label}={value}")
        parts.append(f"elapsed={self.elapsed_s:.2f}s")
        if self.store_path:
            parts.append(f"store={self.store_path}")
        return " ".join(parts)

    def to_dict(self, include_records: bool = True) -> dict:
        """JSON-serializable view of the campaign (``repro sweep --json``)."""
        doc = {
            "total": len(self.records),
            "ok": len(self.records) - self.failed,
            "failed": self.failed,
            "executed": self.executed,
            "cached": self.cached,
            "pruned": self.pruned,
            "deferred": self.deferred,
            "retried": self.retried,
            "quarantined": self.quarantined,
            "elapsed_s": round(self.elapsed_s, 6),
            "stale_lines": self.stale_lines,
            "store_path": self.store_path,
            "metrics": self.metrics,
        }
        if include_records:
            doc["records"] = self.records
        return doc


def execute_request(request: RunRequest) -> dict:
    """Execute one request and return its store record (never raises)."""
    outcome = run_algorithm_safe(
        request.algorithm,
        request.scenario,
        seed=request.seed,
        verify=request.verify,
        mode=request.mode,
        shards=request.shards,
        plane_dtype=request.plane_dtype,
    )
    if isinstance(outcome, AlgorithmRun):
        return run_to_record(outcome, request.key, seed=request.seed)
    return failure_to_record(outcome, request.key, seed=request.seed)


def plan_request(request: RunRequest):
    """Plan one request through the registry (never raises; see run_campaign)."""
    try:
        return get_algorithm(request.algorithm).plan(request.scenario)
    except Exception:  # noqa: BLE001 - a broken planner must not kill a campaign
        # A planner bug must not prune real work; treat the point as feasible
        # and let execution (which captures failures) decide.
        return None


def _traceback_tail(limit: int = 6) -> str:
    """The last ``limit`` lines of the current exception's traceback."""
    lines = traceback.format_exc().strip().splitlines()
    return "\n".join(lines[-limit:])


def _failed_record(request: RunRequest, error_type: str, message: str, **taxonomy) -> dict:
    """The ``"failed"`` store record of a run that was pruned or quarantined."""
    failure = RunFailure(
        algorithm=request.algorithm,
        scenario=request.scenario,
        mode=request.mode,
        error_type=error_type,
        error_message=message,
        **taxonomy,
    )
    return failure_to_record(failure, request.key, seed=request.seed)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _attempt(request: RunRequest | dict, attempt: int, faults: FaultPlan | None) -> tuple:
    """Execute one attempt of a run; describe its outcome as a supervisor message.

    The message is either ``("done", record, duration_s)`` -- where
    ``record`` may itself be a captured ``"failed"`` record -- or
    ``("raised", error_type, message, traceback_tail, duration_s)`` for
    exceptions outside the harness's capture (injected transients,
    interpreter-level failures).  A worker process hands over the request as
    the wire dict it received (decoded here, inside the capture); the
    supervisor's in-process slot hands over the request itself.
    """
    start = time.perf_counter()
    try:
        if isinstance(request, dict):
            request = request_from_dict(request)
        if faults is not None:
            faults.inject(request.key, attempt)  # may crash/hang/raise
        return ("done", execute_request(request), time.perf_counter() - start)
    except Exception as exc:  # noqa: BLE001 - reported to the supervisor
        return (
            "raised", type(exc).__name__, str(exc), _traceback_tail(),
            time.perf_counter() - start,
        )


def _worker_loop(conn, faults_payload: dict | None) -> None:
    """One supervised worker: recv a chunk ``[(payload, attempt), ...]``, run
    it in order and send the list of its :func:`_attempt` messages as one reply.

    A ``None`` message shuts the worker down.  SIGINT is ignored so a Ctrl-C
    interrupts the supervisor (which drains and shuts workers down
    cooperatively), not the workers.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread start methods
        pass
    faults = FaultPlan.from_dict(faults_payload) if faults_payload else None
    while True:
        try:
            chunk = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if chunk is None:
            return
        try:
            conn.send([_attempt(payload, attempt, faults) for payload, attempt in chunk])
        except (OSError, BrokenPipeError):
            return


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------
class _Task:
    __slots__ = ("request", "key", "attempts", "duration_s", "seq", "t0_ns", "started",
                 "suspect")

    def __init__(self, request: RunRequest, seq: int):
        self.request = request
        self.key = request.key
        self.attempts = 0
        self.duration_s = 0.0
        self.seq = seq
        #: Tracer timestamp of the first dispatch (``None`` when untraced).
        self.t0_ns: int | None = None
        #: ``time.monotonic()`` at the current attempt's dispatch.
        self.started = 0.0
        #: It was in a chunk whose worker died, so it may be the killer.
        self.suspect = False

    @property
    def alone(self) -> bool:
        """Dispatched in a chunk of its own: a suspect, or a numeric run
        (whose own cost dwarfs what a chunk saves)."""
        return self.suspect or self.request.mode != "volume"


@dataclass
class _ExecStats:
    ok: int = 0
    quarantined: int = 0
    retried: int = 0

    @property
    def executed(self) -> int:
        return self.ok + self.quarantined


class _Supervisor:
    """Dispatch of a request batch under the campaign's one retry loop.

    With ``jobs >= 1`` the batch runs crash-isolated: each of ``jobs``
    :class:`~repro.utils.workers.Worker` processes holds at most one
    in-flight *chunk* -- a list of runs sent in one message, run in order and
    answered in one reply, whose final records reach the store in one append
    -- and :func:`~repro.utils.workers.wait_any` multiplexes replies and
    deaths, so a dead or hung worker never blocks results from the others.
    Chunks follow guided self-scheduling (:meth:`_take_chunk`); three rules
    keep crash isolation per run:

    * **deadline** -- with ``timeout_s`` every run goes alone, so a deadline
      trip is a retryable ``RunTimeout`` of exactly that run;
    * **death** -- a worker dying under a chunk of several runs charges none
      of them an attempt: they return to the front of the queue as
      *suspects*;
    * **suspect** -- a suspect (like a numeric run) always goes alone, so
      the next death is a retryable ``WorkerCrash`` of exactly one run.

    A dead worker is respawned.

    With ``jobs=0`` no process is spawned: the in-process slot executes each
    attempt inline and feeds its message through the same outcome handling,
    so retry classification, backoff, quarantine records, the latency
    histogram and the campaign spans are the supervised ones (``exit_signal``
    is always ``None`` in-process).
    """

    def __init__(
        self,
        requests: Iterable[RunRequest],
        jobs: int,
        put: Callable[[list[dict]], None],
        max_attempts: int,
        timeout_s: float | None,
        faults: FaultPlan | None,
        renew: Callable[[list[str]], None],
        metrics: MetricsRegistry,
        stats: _ExecStats,
    ):
        self.tasks = [_Task(request, seq) for seq, request in enumerate(requests)]
        self.jobs = min(jobs, len(self.tasks))
        #: Persists final records (one store append + a progress callback each).
        self.put = put
        self.max_attempts = max_attempts
        self.timeout_s = timeout_s
        self.faults_payload = faults.to_dict() if faults is not None else None
        #: Heartbeats the leases of the unfinished runs.
        self.renew = renew
        self.renew_interval_s = max(LEASE_TTL_S / 3.0, 0.5)
        #: Campaign-wide registry and counts, shared by every batch.
        self.metrics = metrics
        self.stats = stats
        self.tracer = active_tracer()
        self.queue: deque[_Task] = deque(self.tasks)
        self.retry_heap: list[tuple[float, int, _Task]] = []
        self.in_flight: dict[Worker, list[_Task]] = {}
        self.unfinished: set[str] = {task.key for task in self.tasks}

    def _run_span(self, task: _Task, status: str) -> None:
        """Emit one campaign-track span covering the run's supervised lifetime."""
        if self.tracer is None or task.t0_ns is None:
            return
        self.tracer.complete(
            f"run:{task.key}", "campaign", task.t0_ns,
            self.tracer.now_ns() - task.t0_ns,
            args={"status": status, "attempts": task.attempts},
            track="campaign",
        )

    # -- outcome handling ---------------------------------------------------
    def _finish_ok(self, task: _Task) -> None:
        self.stats.ok += 1
        self.unfinished.discard(task.key)
        self.metrics.counter("sweeps.runs.ok").inc()
        self.metrics.histogram("sweeps.run.latency_s").observe(task.duration_s)
        self._run_span(task, "ok")

    def _quarantine(self, task: _Task, error_type: str, message: str,
                    tb_tail: str, exit_signal: int | None, retryable: bool) -> dict:
        self.stats.quarantined += 1
        self.unfinished.discard(task.key)
        self.metrics.counter("sweeps.runs.quarantined").inc()
        self.metrics.histogram("sweeps.run.latency_s").observe(task.duration_s)
        self._run_span(task, "quarantined")
        _LOG.warning(
            "quarantined %s after %d attempt(s): %s: %s",
            task.key, task.attempts, error_type, message,
        )
        return _failed_record(
            task.request, error_type, message,
            attempts=task.attempts,
            duration_s=round(task.duration_s, 3),
            exit_signal=exit_signal,
            traceback_tail=tb_tail,
            retryable=retryable,
        )

    def _resolve_failure(self, task: _Task, error_type: str, message: str,
                         tb_tail: str = "", exit_signal: int | None = None) -> dict | None:
        """Schedule a retry (``None``) or return the run's quarantine record."""
        retryable = error_type in RETRYABLE_ERRORS
        if retryable and task.attempts < self.max_attempts:
            self.stats.retried += 1
            self.metrics.counter("sweeps.runs.retried").inc()
            delay = backoff(task.key, task.attempts)
            _LOG.info(
                "retrying %s after %s (attempt %d/%d, backoff %.3fs)",
                task.key, error_type, task.attempts, self.max_attempts, delay,
            )
            eligible_at = time.monotonic() + delay
            heapq.heappush(self.retry_heap, (eligible_at, task.seq, task))
            return None
        return self._quarantine(task, error_type, message, tb_tail, exit_signal, retryable)

    def _outcome(self, task: _Task, message: tuple) -> dict | None:
        """The final record one attempt's message settles, or ``None`` (a retry)."""
        if message[0] == "done":
            _, record, duration = message
            task.duration_s += duration
            if record.get("status") == "ok":
                self._finish_ok(task)
                return record
            error = record.get("error", {})
            return self._resolve_failure(
                task, error.get("type", "UnknownError"), error.get("message", ""),
            )
        _, error_type, message_text, tb_tail, duration = message  # "raised"
        task.duration_s += duration
        return self._resolve_failure(task, error_type, message_text, tb_tail)

    def _persist(self, records: list[dict | None]) -> None:
        """One store append for the final records among ``records``."""
        records = [record for record in records if record is not None]
        if records:
            self.put(records)

    def _handle_lost_worker(self, worker: Worker, metric: str, error_type: str,
                            message: str, exit_signal: int | None) -> None:
        """The worker running a chunk died or overran its deadline: replace it
        (killing it first if it still runs).  A lone run's attempt fails; the
        runs of a larger chunk are charged nothing and go back to the front of
        the queue as suspects."""
        chunk = self.in_flight.pop(worker)
        worker.respawn()
        self.metrics.counter(metric).inc()
        self.metrics.counter("sweeps.workers.spawns").inc()
        if len(chunk) > 1:
            for task in chunk:
                task.attempts -= 1
                task.suspect = True
            self.queue.extendleft(reversed(chunk))
            _LOG.warning("%s under a chunk of %d runs; worker respawned, runs requeued alone",
                         message, len(chunk))
            return
        [task] = chunk
        task.duration_s += time.monotonic() - task.started
        _LOG.warning("%s on %s; worker respawned", message, task.key)
        self._persist([self._resolve_failure(task, error_type, message, exit_signal=exit_signal)])

    # -- main loop ----------------------------------------------------------
    def _start(self, chunk: list[_Task]) -> list[_Task]:
        """Charge every run of a dispatched chunk one attempt."""
        now = time.monotonic()
        for task in chunk:
            task.attempts += 1
            task.started = now
            if self.tracer is not None and task.t0_ns is None:
                task.t0_ns = self.tracer.now_ns()
        self.metrics.counter("sweeps.dispatch.chunks").inc()
        self.metrics.histogram("sweeps.dispatch.chunk_runs", CHUNK_BUCKETS).observe(len(chunk))
        return chunk

    def _take_chunk(self) -> list[_Task]:
        """Pop the next chunk off the queue by guided self-scheduling.

        ``ceil(queued / (2 * workers))`` runs, at most :data:`MAX_CHUNK_RUNS`,
        so chunks shrink as the queue drains and the workers finish together.
        With a deadline, or when a run must go :attr:`~_Task.alone`, the
        chunk is that one run.
        """
        size = 1 if self.timeout_s is not None else min(
            MAX_CHUNK_RUNS, -(-len(self.queue) // (2 * self.jobs)),
        )
        chunk = [self.queue.popleft()]
        while (len(chunk) < size and self.queue
               and not chunk[0].alone and not self.queue[0].alone):
            chunk.append(self.queue.popleft())
        return chunk

    def _dispatch(self, workers: list[Worker]) -> None:
        """Hand a chunk of queued tasks to each idle worker."""
        for worker in workers:
            if worker in self.in_flight or not self.queue:
                continue
            chunk = self._take_chunk()
            try:
                worker.send([(task.request.to_dict(), task.attempts + 1) for task in chunk])
            except WorkerDied:
                # Died between chunks, so no attempt was lost: replace it and
                # put the chunk back for the next free worker.
                self.queue.extendleft(reversed(chunk))
                worker.respawn()
                self.metrics.counter("sweeps.workers.spawns").inc()
                continue
            self.in_flight[worker] = self._start(chunk)

    def _wait_timeout(self, last_renew: float) -> float:
        """Seconds the loop may block: until the next retry falls due, the
        nearest run deadline or the next lease renewal."""
        wake_at = [last_renew + self.renew_interval_s]
        if self.retry_heap:
            wake_at.append(self.retry_heap[0][0])
        if self.timeout_s is not None and self.in_flight:
            wake_at.append(min(c[0].started for c in self.in_flight.values()) + self.timeout_s)
        return max(min(wake_at) - time.monotonic(), 0.0)

    def run(self) -> None:
        if not self.tasks:
            return
        ctx = multiprocessing.get_context()
        workers = [Worker(ctx, _worker_loop, (self.faults_payload,)) for _ in range(self.jobs)]
        self.metrics.counter("sweeps.workers.spawns").inc(len(workers))
        queue_depth = self.metrics.gauge("sweeps.queue.depth")
        last_renew = time.monotonic()
        try:
            while self.unfinished:
                now = time.monotonic()
                while self.retry_heap and self.retry_heap[0][0] <= now:
                    self.queue.append(heapq.heappop(self.retry_heap)[2])
                queue_depth.set(len(self.queue) + len(self.retry_heap))
                if workers:
                    self._dispatch(workers)
                elif self.queue:  # the in-process slot: one attempt, inline
                    [task] = self._start([self.queue.popleft()])
                    self._persist([self._outcome(task, _attempt(task.request, task.attempts, None))])
                if time.monotonic() - last_renew >= self.renew_interval_s:
                    self.renew(sorted(self.unfinished))
                    last_renew = time.monotonic()
                if self.queue and len(self.in_flight) < max(len(workers), 1):
                    continue  # work is queued and a slot is free: nothing to wait for
                if not self.in_flight and not self.retry_heap:
                    if self.unfinished:  # pragma: no cover - supervisor invariant
                        raise RuntimeError(
                            "supervisor has unfinished runs but nothing queued or in flight"
                        )
                    break  # the in-process slot just finished the last run
                for worker, reply in wait_any(list(self.in_flight), self._wait_timeout(last_renew)):
                    if isinstance(reply, WorkerDied):
                        self._handle_lost_worker(
                            worker, "sweeps.workers.deaths", "WorkerCrash",
                            f"worker process died mid-run (exit code {reply.exitcode})",
                            exit_signal=reply.signal,
                        )
                    else:
                        chunk = self.in_flight.pop(worker)
                        self._persist([self._outcome(t, m) for t, m in zip(chunk, reply)])
                if self.timeout_s is None:
                    continue
                now = time.monotonic()
                for worker, chunk in list(self.in_flight.items()):
                    if now - chunk[0].started > self.timeout_s:
                        self._handle_lost_worker(
                            worker, "sweeps.workers.timeouts", "RunTimeout",
                            f"run exceeded the {self.timeout_s}s wall-clock deadline",
                            exit_signal=int(signal.SIGKILL),
                        )
        except KeyboardInterrupt:
            # Cooperative cancellation: results already sitting in worker
            # pipes are persisted before the interrupt propagates, so a
            # Ctrl-C / SIGTERM never discards completed work.
            self._drain()
            raise
        finally:
            for worker in workers:
                worker.stop(None, timeout=1.0)

    def _drain(self) -> None:
        for worker, reply in wait_any(list(self.in_flight), timeout=0):
            if isinstance(reply, WorkerDied):
                continue
            # Persist completed results only; a failed attempt mid-retry must
            # not be quarantined by the interrupt (a resumed campaign would
            # mistake it for a final record) -- it simply re-executes later.
            done = []
            for task, message in zip(self.in_flight.pop(worker), reply):
                if message[0] == "done" and message[1].get("status") == "ok":
                    task.duration_s += message[2]
                    self._finish_ok(task)
                    done.append(message[1])
            self._persist(done)


def _install_sigterm_as_interrupt():
    """Route SIGTERM through KeyboardInterrupt while a campaign executes.

    Returns an undo callable.  Outside the main thread (or where signals are
    unavailable) this is a no-op -- the interrupt drain then only covers
    KeyboardInterrupt.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _raise_interrupt(signum, frame):  # pragma: no cover - exercised via tests' SIGTERM
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
    except ValueError:  # pragma: no cover - exotic embedding
        return lambda: None
    return lambda: signal.signal(signal.SIGTERM, previous)


def run_campaign(
    spec: SweepSpec | Sequence[RunRequest],
    store: ResultStore | str | None = None,
    jobs: int = 1,
    resume: bool = True,
    retry_failures: bool = False,
    progress: Callable[[dict, bool], None] | None = None,
    timeout_s: float | None = None,
    max_attempts: int = 3,
    faults: FaultPlan | None = None,
) -> CampaignResult:
    """Run every request of ``spec`` that the store cannot already answer.

    Requests whose registry plan is infeasible are stored as ``"failed"``
    records (error type ``InfeasiblePlan``) without ever reaching a worker.
    "Infeasible" is analytic -- the point violates the parallel schedule's
    ``p*S >= mn + mk + nk`` precondition, not a crash prediction.  Keys a
    concurrent campaign on the same store holds a lease on are awaited, not
    re-executed.  At the end the store is compacted when its stale
    (superseded or torn) lines exceed ``max(live records, 32)``, which bounds
    file growth under ``resume=False`` / ``retry_failures=True`` rerun loops.

    Parameters
    ----------
    spec:
        A :class:`SweepSpec` (expanded here) or an explicit request list.
    store:
        A :class:`ResultStore`, a directory path for one, or ``None`` for the
        persistent default store at :data:`DEFAULT_STORE_PATH` under the
        current working directory (shared -- and resumed -- across
        invocations run from the same directory).
    jobs:
        Worker-process count (>= 1); ``1`` runs in-process (no pool) unless
        a deadline or fault plan forces supervised isolation.
    resume:
        When true (default), requests whose key is already stored are served
        from the store.  When false, every request re-executes and
        overwrites its record (appending a superseding line).
    retry_failures:
        The simulator is deterministic, so ``"failed"`` records are cached
        like successes by default.  Set true to re-execute stored failures
        (e.g. after an environment-induced crash such as ``MemoryError``)
        while still serving successful records from cache.
    progress:
        Optional callback invoked as ``progress(record, from_cache)`` after
        every request resolves, in expansion order for cached entries and in
        completion order for executed ones (whose records are already in the
        store: a batch is appended first, then reported record by record).
    timeout_s:
        Per-run wall-clock deadline in seconds (> 0).  A run past its
        deadline is SIGKILLed and treated as a retryable ``RunTimeout``
        attempt failure.  Setting a deadline forces supervised worker
        processes even at ``jobs=1``.
    max_attempts:
        Attempts per run (>= 1) for failures in :data:`RETRYABLE_ERRORS`;
        ``1`` never retries.  Other failures are quarantined after one.
    faults:
        A deterministic :class:`~repro.sweeps.faults.FaultPlan` injected
        into workers and the store (chaos testing only).  Forces supervised
        isolation; never alters run keys or ok-record contents.

    Raises ``ValueError`` for a bad ``jobs``, ``max_attempts`` or
    ``timeout_s`` before anything touches the filesystem.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
    if timeout_s is not None and not timeout_s > 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
    if isinstance(spec, SweepSpec):
        requests = spec.expand()
    else:
        requests = list(spec)
    if store is None or isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store if store is not None else DEFAULT_STORE_PATH, faults=faults)
    elif faults is not None and store.faults is None:
        store.faults = faults

    start = time.perf_counter()
    # Deduplicate by key (identical requests collapse onto one execution and
    # onto one cached/executed count).
    pending: dict[str, RunRequest] = {}
    cached = 0
    considered: set[str] = set()
    for request in requests:
        key = request.key
        if key in considered:
            continue
        considered.add(key)
        if resume and key in store:
            record = store.get(key)
            if retry_failures and record.get("status") == "failed":
                pending[key] = request
                continue
            cached += 1
            if progress is not None:
                progress(record, True)
            continue
        pending[key] = request

    registry = MetricsRegistry()

    def _put(records: list[dict]) -> None:
        # One locked append per batch (a chunk's final records), then the
        # progress callback per record: everything it reports is on disk.
        store.put_many(records)
        registry.counter("sweeps.store.appends").inc()
        if progress is not None:
            for record in records:
                progress(record, False)

    pruned_records: list[dict] = []
    executable: dict[str, RunRequest] = {}
    for key, request in pending.items():
        run_plan = plan_request(request)
        if run_plan is None or run_plan.feasible:
            executable[key] = request
            continue
        pruned_records.append(_failed_record(request, "InfeasiblePlan", run_plan.reason))
    if pruned_records:
        _put(pruned_records)
    pruned = len(pruned_records)

    # -- lease coordination with concurrent campaigns ------------------------
    owner = f"{os.getpid()}-{os.urandom(4).hex()}"
    granted = store.acquire_leases(executable.keys(), owner, ttl_s=LEASE_TTL_S) if executable else set()
    deferred_keys = set(executable) - granted

    def renew(keys: list[str]) -> None:
        store.renew_leases(keys, owner, ttl_s=LEASE_TTL_S)

    isolate = jobs > 1 or timeout_s is not None or faults is not None
    stats = _ExecStats()

    def _execute(keys: set[str]) -> None:
        # Without a reason to isolate, the supervisor's in-process slot
        # (jobs=0) executes the batch: same retry loop, no worker process.
        _Supervisor(
            [request for key, request in executable.items() if key in keys],
            jobs if isolate else 0, _put, max_attempts, timeout_s, faults, renew,
            registry, stats,
        ).run()

    deferred_resolved = 0
    restore_sigterm = _install_sigterm_as_interrupt()
    try:
        try:
            _execute(granted)
        finally:
            if granted:
                store.release_leases(granted, owner)

        # -- wait on keys a concurrent campaign is executing -----------------
        lease_wait_start = time.perf_counter() if deferred_keys else None
        if deferred_keys:
            registry.counter("sweeps.lease.deferred").inc(len(deferred_keys))
        while deferred_keys:
            store.refresh()
            found = {key for key in deferred_keys if key in store}
            for key in found:
                if progress is not None:
                    progress(store.get(key), True)
            deferred_keys -= found
            deferred_resolved += len(found)
            if not deferred_keys:
                break
            # Reclaim keys whose campaign died (their leases lapsed).
            reclaimed = store.acquire_leases(deferred_keys, owner, ttl_s=LEASE_TTL_S)
            if reclaimed:
                registry.counter("sweeps.lease.reclaimed").inc(len(reclaimed))
                _LOG.info(
                    "reclaimed %d lapsed lease(s) from a dead campaign: %s",
                    len(reclaimed), ", ".join(sorted(reclaimed)[:4]),
                )
                try:
                    _execute(reclaimed)
                finally:
                    store.release_leases(reclaimed, owner)
                deferred_keys -= reclaimed
                continue
            time.sleep(0.05)
        if lease_wait_start is not None:
            registry.histogram("sweeps.lease.wait_s").observe(
                time.perf_counter() - lease_wait_start
            )
    finally:
        restore_sigterm()

    if store.stale_lines > max(len(store), 32):
        store.compact()

    records = []
    seen: set[str] = set()
    for request in requests:
        key = request.key
        if key in seen:
            continue
        seen.add(key)
        record = store.get(key)
        if record is None:  # pragma: no cover - defensive; put() always lands
            raise RuntimeError(f"campaign finished but key {key} is missing from the store")
        records.append(record)

    elapsed_s = time.perf_counter() - start
    registry.gauge("sweeps.campaign.executed").set(stats.executed)
    registry.gauge("sweeps.campaign.cached").set(cached)
    registry.gauge("sweeps.campaign.pruned").set(pruned)
    registry.gauge("sweeps.campaign.deferred").set(deferred_resolved)
    registry.gauge("sweeps.campaign.elapsed_s").set(round(elapsed_s, 6))
    metrics = registry.snapshot()
    _write_metrics_sidecar(store, metrics)

    return CampaignResult(
        records=records,
        executed=stats.executed,
        cached=cached,
        failed=sum(1 for r in records if r.get("status") == "failed"),
        elapsed_s=elapsed_s,
        pruned=pruned,
        store_path=str(store.path),
        retried=stats.retried,
        quarantined=stats.quarantined,
        deferred=deferred_resolved,
        stale_lines=store.stale_lines,
        metrics=metrics,
    )


def _write_metrics_sidecar(store: ResultStore, metrics: dict) -> None:
    """Persist the campaign's metrics snapshot beside the result store.

    Written atomically (temp file + rename) so a concurrent reader never
    sees a torn document; best-effort -- a read-only store directory must
    not fail the campaign whose records already landed.
    """
    try:
        directory = Path(store.path)
        tmp = directory / (METRICS_SIDECAR + ".tmp")
        tmp.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, directory / METRICS_SIDECAR)
    except OSError as exc:  # pragma: no cover - filesystem-dependent
        _LOG.warning("could not write %s: %s", METRICS_SIDECAR, exc)
