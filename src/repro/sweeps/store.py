"""Content-addressed, resumable, crash-hardened on-disk store for campaigns.

Every completed (or failed) run is one JSON object appended to
``results.jsonl`` inside the store directory, addressed by its
:func:`run_key` -- a SHA-256 digest of the canonical JSON encoding of every
code-relevant parameter of the run (see the package docstring in
:mod:`repro.sweeps` for the exact contract).

Hardening (fault-tolerant campaign execution):

* **Crash-safe appends.**  Each record is one line; a batch of them
  (:meth:`ResultStore.put_many`, one campaign chunk's records) is written in
  one write under an inter-process ``flock`` on ``store.lock`` and flushed
  before the lock drops; ``fsync="always"`` additionally fsyncs every append
  (pay per-append latency for power-loss durability).  A writer killed
  mid-append leaves at most one torn line, which reload skips -- including
  torn lines that cut a multibyte UTF-8 character (the file is parsed as
  bytes, per line).
* **Concurrent campaigns.**  The same lock serializes appends and
  compaction across processes, and a lease file (``leases.json``) lets
  concurrent campaigns sharing the store claim in-progress keys so no key
  executes twice (:meth:`ResultStore.acquire_leases` /
  :meth:`renew_leases` / :meth:`release_leases`; leases expire after their
  TTL so a crashed campaign cannot wedge the keys it held).
* **Integrity tooling.**  :meth:`ResultStore.verify` reports torn,
  duplicate (stale) and schema-drifted lines without modifying the file;
  :meth:`ResultStore.compact` atomically rewrites the file keeping the last
  record per key (``repro store verify`` / ``repro store compact``).  The
  :attr:`ResultStore.stale_lines` counter tracks how many lines compaction
  would drop, which is what keeps ``resume=False`` / ``retry_failures=True``
  reruns from growing the file without bound.
* **Deterministic write faults.**  A :class:`~repro.sweeps.faults.FaultPlan`
  attached via ``faults=`` makes :meth:`~ResultStore.put_many` tear or
  duplicate specific keys' lines, inside a batch too -- the chaos harness's
  store-side injection point.  Faults
  never change record *contents*, only the bytes around them.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

try:  # file locking is POSIX-only; the store degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.experiments.harness import AlgorithmRun, RunFailure
from repro.sweeps.faults import FaultPlan
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

#: Version of the key/record schema.  Bump to invalidate every cached result
#: after a change that alters what the simulator measures for the same
#: parameters (counters semantics, scenario derivation, ...).
#: v2: the campaign runner prunes analytically infeasible points (aggregate
#: memory below the section 6.3 precondition) into ``InfeasiblePlan`` failure
#: records instead of executing them, so pre-registry stores could disagree
#: with fresh runs on those points.
#: v3: ``plane_dtype`` joined the identity (a float32 product and its
#: verification outcome are not interchangeable with a float64 run's);
#: shard count remains an execution policy and stays out of the key.
KEY_VERSION = 3

#: Name of the append-only record file inside a store directory.
RESULTS_FILENAME = "results.jsonl"
#: Inter-process lock file guarding appends, compaction and the lease file.
LOCK_FILENAME = "store.lock"
#: Lease file: in-progress key claims of concurrent campaigns.
LEASES_FILENAME = "leases.json"


# ---------------------------------------------------------------------------
# Canonical (de)serialization of scenarios and runs
# ---------------------------------------------------------------------------
def shape_to_dict(shape: ProblemShape) -> dict:
    return {"m": shape.m, "n": shape.n, "k": shape.k, "family": shape.family}


def shape_from_dict(data: Mapping) -> ProblemShape:
    return ProblemShape(m=data["m"], n=data["n"], k=data["k"], family=data["family"])


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "name": scenario.name,
        "shape": shape_to_dict(scenario.shape),
        "p": scenario.p,
        "memory_words": scenario.memory_words,
        "regime": scenario.regime,
    }


def scenario_from_dict(data: Mapping) -> Scenario:
    return Scenario(
        name=data["name"],
        shape=shape_from_dict(data["shape"]),
        p=data["p"],
        memory_words=data["memory_words"],
        regime=data["regime"],
    )


def run_key(
    algorithm: str,
    scenario: Scenario,
    mode: str = "volume",
    seed: int = 0,
    verify: bool = True,
    plane_dtype: str = "float64",
) -> str:
    """The content address of one run: SHA-256 over its canonical JSON identity.

    Only code-relevant parameters participate -- the algorithm name, the full
    scenario (shape, p, memory, regime, name), the transport mode, the input
    seed, the verification flag, the numeric plane dtype and
    :data:`KEY_VERSION`.  Python's randomized ``hash()`` is never involved,
    so keys are stable across processes and interpreter restarts (asserted
    by ``tests/test_sweeps_store.py``).  Execution policy never
    participates: attempt counts, retry/timeout settings, fault injection
    and the plane engine's shard count all address the same key (see the
    contract in :mod:`repro.sweeps`).
    """
    identity = {
        "key_version": KEY_VERSION,
        "algorithm": algorithm,
        "scenario": scenario_to_dict(scenario),
        "mode": mode,
        "seed": seed,
        "verify": bool(verify),
        "plane_dtype": str(plane_dtype),
    }
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: AlgorithmRun fields stored under ``metrics`` (everything except the
#: identity fields, which live at the top level of the record).
_METRIC_FIELDS = (
    "correct",
    "verified",
    "mean_words_per_rank",
    "mean_received_per_rank",
    "max_words_per_rank",
    "max_received_per_rank",
    "max_flops_per_rank",
    "total_flops",
    "rounds",
    "input_words_per_rank",
    "output_words_per_rank",
    "max_messages_per_rank",
)


def run_to_record(run: AlgorithmRun, key: str, seed: int = 0) -> dict:
    """Serialize a successful run into a store record.

    Successful records are pure functions of the run's parameters -- no
    durations, attempt counts or fault metadata ever land here, which is
    what makes faulted and fault-free campaigns produce byte-identical
    ok-records (the chaos invariant).
    """
    return {
        "key": key,
        "status": "ok",
        "algorithm": run.algorithm,
        "scenario": scenario_to_dict(run.scenario),
        "mode": run.mode,
        "seed": seed,
        "metrics": {field_name: getattr(run, field_name) for field_name in _METRIC_FIELDS},
    }


def failure_to_record(failure: RunFailure, key: str, seed: int = 0) -> dict:
    """Serialize a captured per-run failure into a store record.

    Unlike ok-records, failure records carry the execution taxonomy
    (attempts, duration, exit signal, traceback tail, retryability): a
    quarantined run's record is the campaign's forensic evidence.
    """
    return {
        "key": key,
        "status": "failed",
        "algorithm": failure.algorithm,
        "scenario": scenario_to_dict(failure.scenario),
        "mode": failure.mode,
        "seed": seed,
        "error": {
            "type": failure.error_type,
            "message": failure.error_message,
            "attempts": failure.attempts,
            "duration_s": failure.duration_s,
            "exit_signal": failure.exit_signal,
            "traceback_tail": failure.traceback_tail,
            "retryable": failure.retryable,
        },
    }


def record_to_run(record: Mapping) -> AlgorithmRun:
    """Rebuild the :class:`AlgorithmRun` of an ``"ok"`` record."""
    if record.get("status") != "ok":
        raise ValueError(f"record {record.get('key')} is not a successful run")
    return AlgorithmRun(
        algorithm=record["algorithm"],
        scenario=scenario_from_dict(record["scenario"]),
        mode=record["mode"],
        **record["metrics"],
    )


# ---------------------------------------------------------------------------
# Line-level parsing (shared by reload, verify and compact)
# ---------------------------------------------------------------------------
def _parse_record_line(raw: bytes):
    """Decode one file line into (record, issue): exactly one of the two is None.

    Parsing happens on *bytes* so a line torn inside a multibyte UTF-8
    character is reported as torn instead of blowing up the whole reload
    with ``UnicodeDecodeError``.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None, "torn"
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None, "torn"
    if not isinstance(record, dict) or not isinstance(record.get("key"), str):
        return None, "schema"
    return record, None


def _record_schema_issue(record: Mapping) -> str | None:
    """A human-readable schema-drift reason, or None for a well-formed record."""
    status = record.get("status")
    if status not in ("ok", "failed"):
        return f"unknown status {status!r}"
    if status == "ok" and not isinstance(record.get("metrics"), dict):
        return "ok record without metrics"
    if status == "failed" and not isinstance(record.get("error"), dict):
        return "failed record without error"
    return None


@dataclass
class StoreVerifyReport:
    """What :meth:`ResultStore.verify` found, line by line."""

    path: str
    total_lines: int = 0
    live_records: int = 0
    ok_records: int = 0
    failed_records: int = 0
    #: Lines that do not decode to a keyed JSON object (torn appends).
    torn_lines: int = 0
    #: Well-formed lines superseded by a later record with the same key.
    duplicate_lines: int = 0
    #: Keyed records violating the record schema (status/metrics/error shape).
    drifted_lines: int = 0
    #: Keys currently leased by live campaigns.
    live_leases: int = 0
    #: First few issues as ``"line N: reason"`` strings.
    issues: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No torn, duplicate or drifted lines (``store compact`` restores this)."""
        return self.torn_lines == 0 and self.duplicate_lines == 0 and self.drifted_lines == 0

    def summary(self) -> str:
        state = "clean" if self.clean else "DIRTY"
        return (
            f"{self.path}: {state} -- {self.live_records} live records "
            f"({self.ok_records} ok, {self.failed_records} failed) in "
            f"{self.total_lines} lines; {self.torn_lines} torn, "
            f"{self.duplicate_lines} duplicate, {self.drifted_lines} drifted; "
            f"{self.live_leases} live leases"
        )

    def to_dict(self) -> dict:
        """JSON-serializable report (``repro store verify --json``)."""
        return {
            "path": self.path,
            "clean": self.clean,
            "total_lines": self.total_lines,
            "live_records": self.live_records,
            "ok_records": self.ok_records,
            "failed_records": self.failed_records,
            "torn_lines": self.torn_lines,
            "duplicate_lines": self.duplicate_lines,
            "drifted_lines": self.drifted_lines,
            "live_leases": self.live_leases,
            "issues": list(self.issues),
        }


# ---------------------------------------------------------------------------
# The store itself
# ---------------------------------------------------------------------------
class ResultStore:
    """Append-only JSON-lines store of run records, indexed by run key.

    The in-memory index is loaded once at construction; :meth:`put_many`
    (and :meth:`put`, its one-record case) updates both the index and the
    file (locked append + flush), so a store object stays consistent with the
    directory it wraps.  Reopening -- or :meth:`refresh`-ing -- the same
    directory in another process sees every fully written record.

    ``fsync="always"`` fsyncs every append (power-loss durability at
    per-append latency cost); the default ``"flush"`` flushes to the OS only,
    which is already process-crash-safe.  ``faults`` attaches a deterministic
    :class:`~repro.sweeps.faults.FaultPlan` whose store-side faults
    :meth:`put_many` injects (chaos testing only).
    """

    def __init__(self, path: str | Path, fsync: str = "flush", faults: FaultPlan | None = None):
        if fsync not in ("flush", "always"):
            raise ValueError(f"fsync policy must be 'flush' or 'always', got {fsync!r}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.faults = faults
        self._records: dict[str, dict] = {}
        #: Lines in the file that a compaction would drop: superseded
        #: duplicates plus torn debris (including injected ones).
        self.stale_lines = 0
        self._load()

    @property
    def results_file(self) -> Path:
        return self.path / RESULTS_FILENAME

    @property
    def lock_file(self) -> Path:
        return self.path / LOCK_FILENAME

    @property
    def leases_file(self) -> Path:
        return self.path / LEASES_FILENAME

    # -- locking ------------------------------------------------------------
    @contextmanager
    def _locked(self):
        """Hold the store's inter-process lock (no-op where flock is absent)."""
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with self.lock_file.open("a+b") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- loading ------------------------------------------------------------
    def _load(self) -> None:
        self._records = {}
        self.stale_lines = 0
        if not self.results_file.exists():
            return
        data = self.results_file.read_bytes()
        for raw in data.split(b"\n"):
            if not raw.strip():
                continue
            record, issue = _parse_record_line(raw)
            if record is None:
                # A campaign killed mid-append leaves a torn line; that run
                # simply reruns on resume.  Torn debris is stale by definition.
                self.stale_lines += 1
                continue
            if record["key"] in self._records:
                self.stale_lines += 1
            self._records[record["key"]] = record

    def refresh(self) -> None:
        """Re-read the file, picking up records appended by other processes."""
        self._load()

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> dict | None:
        return self._records.get(key)

    # -- writing ------------------------------------------------------------
    def put(self, record: Mapping) -> None:
        """Append one record (a dict with a ``"key"``) and index it: the
        one-record case of :meth:`put_many`."""
        self.put_many((record,))

    def put_many(self, records: Iterable[Mapping]) -> None:
        """Append records (dicts with a ``"key"``) in one write and index them.

        The append happens under the inter-process lock as a single
        write-and-flush, so concurrent campaigns interleave whole batches of
        lines, not bytes.  With an attached fault plan, each key's scheduled
        store fault (torn / duplicate append) is injected here, record by
        record -- the record content itself is never altered.
        """
        records = [dict(record) for record in records]
        if not records:
            return
        payload = []
        for record in records:
            key = record.get("key")
            if key is None:
                raise ValueError("record must carry its run key under 'key'")
            line = json.dumps(record, sort_keys=True).encode("utf-8")
            fault = self.faults.store_fault(key) if self.faults is not None else None
            if fault == "torn":
                # A writer killed mid-append, then the retry lands the full
                # record: torn debris followed by the real line.
                payload.append(line[: max(1, len(line) // 2)] + b"\n")
            payload.append(line + b"\n")
            if fault == "duplicate":
                payload.append(line + b"\n")
        with self._locked():
            # Open inside the lock: a concurrent compaction swaps the file by
            # rename, and an append handle opened before the swap would write
            # to the dead inode.
            with self.results_file.open("ab") as handle:
                handle.write(b"".join(payload))
                handle.flush()
                if self.fsync == "always":
                    os.fsync(handle.fileno())
        # Injected debris and duplicates are the lines beyond one per record.
        self.stale_lines += len(payload) - len(records)
        for record in records:
            if record["key"] in self._records:
                self.stale_lines += 1
            self._records[record["key"]] = record

    def records(self) -> list[dict]:
        """All indexed records (last write per key wins), in file order."""
        return list(self._records.values())

    # -- integrity tooling --------------------------------------------------
    def verify(self, max_issues: int = 20) -> StoreVerifyReport:
        """Scan the file for torn / duplicate / schema-drifted lines.

        Read-only: the report says whether a compaction is needed
        (``duplicate_lines``), whether writers were killed mid-append
        (``torn_lines``) and whether foreign or drifted records snuck in
        (``drifted_lines``).  ``clean`` requires none of the three.
        """
        report = StoreVerifyReport(path=str(self.path))
        last_line_for_key: dict[str, int] = {}
        ok_for_key: dict[str, bool] = {}
        if self.results_file.exists():
            lineno = 0
            for raw in self.results_file.read_bytes().split(b"\n"):
                if not raw.strip():
                    continue
                lineno += 1
                report.total_lines += 1
                record, issue = _parse_record_line(raw)
                if record is None:
                    report.torn_lines += 1 if issue == "torn" else 0
                    report.drifted_lines += 1 if issue == "schema" else 0
                    if len(report.issues) < max_issues:
                        report.issues.append(f"line {lineno}: {issue} line")
                    continue
                drift = _record_schema_issue(record)
                if drift is not None:
                    report.drifted_lines += 1
                    if len(report.issues) < max_issues:
                        report.issues.append(f"line {lineno}: {drift}")
                    continue
                key = record["key"]
                if key in last_line_for_key:
                    report.duplicate_lines += 1
                    if len(report.issues) < max_issues:
                        report.issues.append(
                            f"line {last_line_for_key[key]}: superseded by line {lineno} (key {key[:12]}...)"
                        )
                last_line_for_key[key] = lineno
                ok_for_key[key] = record.get("status") == "ok"
        report.live_records = len(last_line_for_key)
        report.ok_records = sum(1 for ok in ok_for_key.values() if ok)
        report.failed_records = report.live_records - report.ok_records
        report.live_leases = len(self.live_leases())
        return report

    def compact(self) -> int:
        """Atomically rewrite the file keeping the last record per key.

        Drops torn debris and superseded duplicates; returns the number of
        lines removed.  Runs under the inter-process lock and swaps the new
        file in by rename, so concurrent appends (which also take the lock
        and reopen the file per put) never land on a dead inode.
        """
        with self._locked():
            records: dict[str, dict] = {}
            dropped = 0
            if self.results_file.exists():
                for raw in self.results_file.read_bytes().split(b"\n"):
                    if not raw.strip():
                        continue
                    record, _ = _parse_record_line(raw)
                    if record is None:
                        dropped += 1
                        continue
                    if record["key"] in records:
                        dropped += 1
                    records[record["key"]] = record
            tmp = self.results_file.with_suffix(".jsonl.tmp")
            with tmp.open("wb") as handle:
                for record in records.values():
                    handle.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(self.results_file)
            self._records = records
            self.stale_lines = 0
        return dropped

    # -- leases -------------------------------------------------------------
    def _read_leases(self) -> dict:
        if not self.leases_file.exists():
            return {}
        try:
            leases = json.loads(self.leases_file.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return {}
        return leases if isinstance(leases, dict) else {}

    def _write_leases(self, leases: dict) -> None:
        tmp = self.leases_file.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(leases, sort_keys=True), encoding="utf-8")
        tmp.replace(self.leases_file)

    def acquire_leases(self, keys, owner: str, ttl_s: float = 15.0) -> set[str]:
        """Claim every key not currently leased by a live other owner.

        Returns the granted subset.  A campaign executes only the keys it
        holds leases for; keys leased elsewhere are *deferred* -- the other
        campaign is executing them, and its records will appear in the store
        (or its leases will lapse after ``ttl_s`` if it died, at which point
        they can be re-acquired).  Already-stored keys never need a lease.
        """
        now = time.time()
        granted: set[str] = set()
        with self._locked():
            leases = {
                key: lease for key, lease in self._read_leases().items()
                if isinstance(lease, dict) and lease.get("expires", 0) > now
            }
            for key in keys:
                held = leases.get(key)
                if held is None or held.get("owner") == owner:
                    leases[key] = {"owner": owner, "expires": now + ttl_s}
                    granted.add(key)
            self._write_leases(leases)
        return granted

    def renew_leases(self, keys, owner: str, ttl_s: float = 15.0) -> None:
        """Heartbeat: push the expiry of our own leases forward."""
        now = time.time()
        with self._locked():
            leases = self._read_leases()
            for key in keys:
                held = leases.get(key)
                if held is not None and held.get("owner") == owner:
                    leases[key] = {"owner": owner, "expires": now + ttl_s}
            self._write_leases(leases)

    def release_leases(self, keys, owner: str) -> None:
        """Drop our own leases (other owners' claims are never touched)."""
        with self._locked():
            leases = self._read_leases()
            for key in keys:
                held = leases.get(key)
                if held is not None and held.get("owner") == owner:
                    del leases[key]
            self._write_leases(leases)

    def live_leases(self) -> dict[str, str]:
        """Currently unexpired leases as ``{key: owner}`` (snapshot)."""
        now = time.time()
        return {
            key: lease.get("owner", "")
            for key, lease in self._read_leases().items()
            if isinstance(lease, dict) and lease.get("expires", 0) > now
        }
