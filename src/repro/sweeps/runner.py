"""Campaign runner: a sweep's runs, in process or over a stdlib process pool.

The runner is the layer between "one harness run" and "a paper figure": it
expands a :class:`~repro.sweeps.spec.SweepSpec` (or takes explicit
:class:`~repro.sweeps.spec.RunRequest` lists), skips every run whose key the
:class:`~repro.sweeps.store.ResultStore` already holds (``resume``), stores
the runs whose plan is infeasible as ``"failed"`` records without running
them, and executes the rest in *chunks*: lists of runs executed in order,
whose records reach the store in one locked append per chunk.  A run
executes through :func:`repro.experiments.harness.run_algorithm_safe`, and
whatever it raises becomes a ``"failed"`` record carrying the error's type,
message and traceback tail, so one bad point never aborts the campaign.

``jobs=1`` is an in-process loop over the chunks: nothing is spawned.
``jobs>1`` hands the same chunks to a
:class:`concurrent.futures.ProcessPoolExecutor`, created after the pruning
pass has planned every request, so workers forked from the campaign inherit
the schedules those plans memoized.  A worker that dies (SIGKILL, an
out-of-memory kill, a segfault) breaks the pool: every run not yet stored is
stored as a ``WorkerCrash`` failure, and ``retry_failures=True`` re-runs
them.  ``KeyboardInterrupt`` and SIGTERM cancel the queued chunks, store the
chunks that finished, and re-raise.

Determinism: records are reported in expansion order regardless of
completion order, and every stored value is a pure function of the run's
parameters, so a 2-job campaign stores the bytes a serial one does.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.algorithms import get_algorithm
from repro.experiments.harness import RunFailure, RunReport, run_algorithm_safe, traceback_tail
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import active_tracer
from repro.sweeps.spec import RunRequest, SweepSpec
from repro.sweeps.store import (
    ResultStore,
    failure_to_record,
    record_to_run,
    run_to_record,
)

_LOG = get_logger("sweeps")

#: Filename of the campaign-metrics sidecar written beside the result store.
#: Metrics live here -- never inside records, which stay pure functions of
#: the run parameters.
METRICS_SIDECAR = "campaign_metrics.json"

#: Default store directory, relative to the current working directory.
DEFAULT_STORE_PATH = ".sweep-cache"

#: Most runs one chunk carries: an interrupted or crashed campaign loses at
#: most this many finished runs per worker.
MAX_CHUNK_RUNS = 32


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    #: Records in expansion order (cached and fresh alike).
    records: list[dict]
    #: Number of runs executed by this invocation (ok or failed; pruned runs
    #: never executed).
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
    #: Store lines a compaction would drop, as of campaign end (see
    #: :attr:`~repro.sweeps.store.ResultStore.stale_lines`).
    stale_lines: int = 0
    #: Snapshot of the campaign's :class:`~repro.obs.metrics.MetricsRegistry`
    #: (worker spawns/deaths, chunks, store appends, per-run latency
    #: histogram).  Also persisted as ``campaign_metrics.json`` beside the
    #: store; never part of any run record.
    metrics: dict | None = None
    _runs: list[RunReport] | None = field(default=None, repr=False)

    @property
    def ok_records(self) -> list[dict]:
        return [r for r in self.records if r.get("status") == "ok"]

    @property
    def failed_records(self) -> list[dict]:
        return [r for r in self.records if r.get("status") == "failed"]

    def runs(self) -> list[RunReport]:
        """The successful runs as :class:`RunReport` objects (cached), each
        equal to the :func:`~repro.experiments.harness.run_algorithm` run its
        record stores."""
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
        if self.pruned:
            parts.append(f"pruned={self.pruned}")
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
            "elapsed_s": round(self.elapsed_s, 6),
            "stale_lines": self.stale_lines,
            "store_path": self.store_path,
            "metrics": self.metrics,
        }
        if include_records:
            doc["records"] = self.records
        return doc


def execute_request(request: RunRequest) -> dict:
    """Execute one request and return its store record (harness failures
    come back as ``"failed"`` records)."""
    outcome = run_algorithm_safe(
        request.algorithm,
        request.scenario,
        seed=request.seed,
        verify=request.verify,
        mode=request.mode,
        shards=request.shards,
        plane_dtype=request.plane_dtype,
    )
    if isinstance(outcome, RunReport):
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


def _failed_record(request: RunRequest, error_type: str, message: str, tail: str = "") -> dict:
    """The ``"failed"`` store record of a run that was pruned, raised or lost."""
    failure = RunFailure(
        algorithm=request.algorithm,
        scenario=request.scenario,
        mode=request.mode,
        error_type=error_type,
        error_message=message,
        traceback_tail=tail,
    )
    return failure_to_record(failure, request.key, seed=request.seed)


def _run_chunk(requests: list[RunRequest]) -> list[tuple[dict, float]]:
    """Execute a chunk in order: each run's record and its wall seconds.

    Never raises for a run: an exception that escapes the harness's own
    capture is recorded with its traceback tail, in a worker process as in
    the campaign's own.
    """
    outcomes = []
    for request in requests:
        start = time.perf_counter()
        try:
            record = execute_request(request)
        except Exception as exc:  # noqa: BLE001 - one bad point must not end the chunk
            record = _failed_record(request, type(exc).__name__, str(exc), traceback_tail())
        outcomes.append((record, time.perf_counter() - start))
    return outcomes


def _init_worker() -> None:
    """Pool workers leave interrupts to the campaign: a Ctrl-C reaches the
    whole process group, and the campaign cancels and drains cooperatively."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _chunks(requests: list[RunRequest], jobs: int) -> list[list[RunRequest]]:
    """Split the runs into chunks of ``ceil(runs / (4 * jobs))``, at most
    :data:`MAX_CHUNK_RUNS`: four chunks per worker balance uneven runs."""
    size = max(1, min(MAX_CHUNK_RUNS, -(-len(requests) // (4 * jobs))))
    return [requests[start:start + size] for start in range(0, len(requests), size)]


def _install_sigterm_as_interrupt():
    """Route SIGTERM through KeyboardInterrupt while a campaign executes.

    Returns an undo callable.  Outside the main thread (or where signals are
    unavailable) this is a no-op -- only KeyboardInterrupt then cancels.
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


def _execute_pool(chunks: list[list[RunRequest]], jobs: int,
                  store_chunk: Callable[..., None], metrics: MetricsRegistry) -> None:
    """Run ``chunks`` over ``jobs`` pool workers, storing each as it finishes.

    A broken pool stores the runs of every chunk it lost as ``WorkerCrash``
    failures.  An interrupt cancels the queued chunks, waits for the running
    ones, stores every finished chunk and re-raises.
    """
    workers = min(jobs, len(chunks))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context(),
                               initializer=_init_worker)
    metrics.counter("sweeps.workers.spawns").inc(workers)
    pending: dict = {}
    broken = False
    try:
        pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = pending.pop(future)
                try:
                    outcomes = future.result()
                except BrokenProcessPool as exc:
                    broken = True
                    message = f"worker process died before the chunk finished ({exc})"
                    outcomes = [(_failed_record(request, "WorkerCrash", message), None)
                                for request in chunk]
                store_chunk(outcomes)
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        # Stored unreported: the interrupt may have come from ``progress``.
        for future in pending:
            if future.done() and not future.cancelled() and future.exception() is None:
                store_chunk(future.result(), report=False)
        raise
    finally:
        pool.shutdown(wait=True)
        if broken:
            metrics.counter("sweeps.workers.deaths").inc()
            _LOG.warning("a campaign worker died; its unfinished runs are stored as WorkerCrash")


def run_campaign(
    spec: SweepSpec | Sequence[RunRequest],
    store: ResultStore | str | None = None,
    jobs: int = 1,
    resume: bool = True,
    retry_failures: bool = False,
    progress: Callable[[dict, bool], None] | None = None,
) -> CampaignResult:
    """Run every request of ``spec`` that the store cannot already answer.

    Requests whose registry plan is infeasible are stored as ``"failed"``
    records (error type ``InfeasiblePlan``) without ever running.
    "Infeasible" is analytic -- the point violates the parallel schedule's
    ``p*S >= mn + mk + nk`` precondition, not a crash prediction.  At the
    end the store is compacted when its stale (superseded or torn) lines
    exceed ``max(live records, 32)``, which bounds file growth under
    ``resume=False`` / ``retry_failures=True`` rerun loops.

    The pruning pass plans every request before any worker starts, and a
    plan memoizes the schedule arrays its runs read (see
    :meth:`~repro.algorithms.AlgorithmSpec.plan`), so workers forked after
    it inherit them and recompute none.  Only that speed-up needs the
    ``fork`` start method: under ``spawn`` or ``forkserver`` a worker
    inherits nothing, builds the same schedules itself and stores the same
    records.

    Two campaigns may share one store.  Nothing keeps them from both running
    a key, but appends are locked, records are deterministic and the last
    write wins, so the store ends up holding the bytes either would store.

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
        Worker-process count (>= 1); ``1`` runs in-process and spawns
        nothing.
    resume:
        When true (default), requests whose key is already stored are served
        from the store.  When false, every request re-executes and
        overwrites its record (appending a superseding line).
    retry_failures:
        The simulator is deterministic, so ``"failed"`` records are cached
        like successes by default.  Set true to re-execute stored failures
        (e.g. a ``WorkerCrash`` or a ``MemoryError``) while still serving
        successful records from cache.
    progress:
        Optional callback invoked as ``progress(record, from_cache)`` after
        every request resolves, in expansion order for cached entries and in
        completion order for executed ones (whose records are already in the
        store: a chunk is appended first, then reported record by record).

    Raises ``ValueError`` for a bad ``jobs`` before anything touches the
    filesystem.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if isinstance(spec, SweepSpec):
        requests = spec.expand()
    else:
        requests = list(spec)
    if store is None or isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store if store is not None else DEFAULT_STORE_PATH)

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
    tracer = active_tracer()
    executed = 0

    def _put(records: list[dict], report: bool = True) -> None:
        # One locked append per batch, then the progress callback per
        # record: everything it reports is on disk.
        store.put_many(records)
        registry.counter("sweeps.store.appends").inc()
        if report and progress is not None:
            for record in records:
                progress(record, False)

    def _store_chunk(outcomes: list[tuple[dict, float | None]], report: bool = True) -> None:
        nonlocal executed
        executed += len(outcomes)
        latency = registry.histogram("sweeps.run.latency_s")
        for record, seconds in outcomes:
            registry.counter(f"sweeps.runs.{record['status']}").inc()
            if seconds is not None:
                latency.observe(seconds)
        registry.counter("sweeps.dispatch.chunks").inc()
        if tracer is not None:
            busy_ns = int(sum(seconds or 0.0 for _, seconds in outcomes) * 1e9)
            tracer.complete(f"chunk:{len(outcomes)} runs", "campaign", tracer.now_ns() - busy_ns,
                            busy_ns, track="campaign")
        _put([record for record, _ in outcomes], report)

    pruned_records: list[dict] = []
    executable: list[RunRequest] = []
    for request in pending.values():
        run_plan = plan_request(request)
        if run_plan is None or run_plan.feasible:
            executable.append(request)
            continue
        pruned_records.append(_failed_record(request, "InfeasiblePlan", run_plan.reason))
    if pruned_records:
        _put(pruned_records)

    chunks = _chunks(executable, jobs)
    restore_sigterm = _install_sigterm_as_interrupt()
    try:
        if jobs == 1:
            for chunk in chunks:
                _store_chunk(_run_chunk(chunk))
        elif chunks:
            _execute_pool(chunks, jobs, _store_chunk, registry)
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
        records.append(store.get(key))

    elapsed_s = time.perf_counter() - start
    registry.gauge("sweeps.campaign.executed").set(executed)
    registry.gauge("sweeps.campaign.cached").set(cached)
    registry.gauge("sweeps.campaign.pruned").set(len(pruned_records))
    registry.gauge("sweeps.campaign.elapsed_s").set(round(elapsed_s, 6))
    metrics = registry.snapshot()
    _write_metrics_sidecar(store, metrics)

    return CampaignResult(
        records=records,
        executed=executed,
        cached=cached,
        failed=sum(1 for r in records if r.get("status") == "failed"),
        elapsed_s=elapsed_s,
        pruned=len(pruned_records),
        store_path=str(store.path),
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
