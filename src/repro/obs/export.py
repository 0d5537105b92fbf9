"""Trace exporters: Chrome trace-event JSON (Perfetto) and a JSONL event log.

The Chrome format is the object form -- ``{"traceEvents": [...]}`` -- with
``ph="X"`` complete events (``ts``/``dur`` in microseconds) and ``ph="i"``
instants, one thread lane per tracer *track* (``sim`` for machine rounds,
``run`` for harness runs, ``campaign`` for a sweep's chunks).  Load the
file at https://ui.perfetto.dev or ``chrome://tracing``.

:func:`validate_chrome_trace` is the schema check the test suite runs over
exported documents, so a format drift fails fast instead of producing a file
Perfetto silently refuses.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.trace import Tracer

#: Stable thread-lane order for the known tracks (unknown tracks follow).
_TRACK_ORDER = ("campaign", "run", "sim", "gemm")


def _track_ids(tracer: Tracer) -> dict[str, int]:
    tracks = {event[5] for event in tracer.events}
    ordered = [t for t in _TRACK_ORDER if t in tracks]
    ordered += sorted(tracks - set(ordered))
    return {track: tid + 1 for tid, track in enumerate(ordered)}


def chrome_trace_document(tracer: Tracer, other_data: dict | None = None) -> dict:
    """The tracer's events as a Chrome trace-event JSON object."""
    tids = _track_ids(tracer)
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "repro"}},
    ]
    for track, tid in tids.items():
        events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                       "args": {"name": track}})
    for name, cat, ts_ns, dur_ns, args, track in tracer.events:
        event = {
            "name": name,
            "cat": cat,
            "pid": 1,
            "tid": tids[track],
            "ts": ts_ns / 1000.0,
        }
        if dur_ns is None:
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = dur_ns / 1000.0
        if args:
            event["args"] = args
        events.append(event)
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    other = dict(tracer.meta)
    if other_data:
        other.update(other_data)
    if other:
        document["otherData"] = other
    return document


def write_chrome_trace(path, tracer: Tracer, other_data: dict | None = None) -> Path:
    """Write the Chrome trace-event JSON to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace_document(tracer, other_data)) + "\n")
    return path


def write_event_log(path, tracer: Tracer) -> Path:
    """Write the raw events as JSONL (one object per line, ns timestamps)."""
    path = Path(path)
    with path.open("w") as handle:
        for name, cat, ts_ns, dur_ns, args, track in tracer.events:
            record = {"name": name, "cat": cat, "ts_ns": ts_ns, "track": track}
            if dur_ns is not None:
                record["dur_ns"] = dur_ns
            if args:
                record["args"] = args
            handle.write(json.dumps(record) + "\n")
    return path


def validate_chrome_trace(document) -> list[str]:
    """Schema-check a Chrome trace document; returns issues ([] when valid).

    Checks the subset of the trace-event format Perfetto requires to load
    the file: a ``traceEvents`` list of objects, each with a string ``name``
    and ``ph``, numeric non-negative ``ts``, integer ``pid``/``tid``, and a
    numeric non-negative ``dur`` on every complete (``"X"``) event.
    """
    issues: list[str] = []
    if not isinstance(document, dict):
        return [f"document is {type(document).__name__}, not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document has no traceEvents list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            issues.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str):
            issues.append(f"{where}: missing string 'name'")
        ph = event.get("ph")
        if not isinstance(ph, str) or not ph:
            issues.append(f"{where}: missing phase 'ph'")
            continue
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                issues.append(f"{where}: missing integer {key!r}")
        if ph == "M":
            continue  # metadata events carry no timestamp
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            issues.append(f"{where}: bad timestamp {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                issues.append(f"{where}: complete event with bad dur {dur!r}")
        if len(issues) >= 20:
            issues.append("... (truncated)")
            break
    return issues
