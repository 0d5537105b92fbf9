"""Low-overhead execution tracing: spans and instants on a process-local sink.

The tracer is *off by default*: :func:`active_tracer` returns ``None`` and
every instrumentation site in the simulator / harness / sweep engine guards
with ``if tracer is not None`` -- one attribute load and an identity check,
which is what keeps the disabled-tracer overhead negligible (the ledger's
``obs.trace_overhead_frac`` measures the enabled cost;
``benchmarks/ledger/README.md``).

When enabled (:func:`enable_tracing` / the :func:`tracing` context manager),
instrumented code records **events** -- ``(name, cat, ts_ns, dur_ns, args,
track)`` tuples on a monotonic clock relative to the tracer's creation.  A
``dur_ns`` of ``None`` marks an instant; anything else is a complete span.
Events are exported through :mod:`repro.obs.export` as Chrome trace-event
JSON (loadable in Perfetto / ``chrome://tracing``) or a JSONL event log.

Zero perturbation is a hard guarantee, not a goal: every hook only *reads*
simulator state (counter-matrix row sums at round boundaries, peak resident
words), so communication counters are byte-identical traced vs untraced --
``tests/test_obs_trace.py`` proves it across all four transports and every
registered algorithm.

:class:`MachineTrace` is the per-machine accumulator the simulator attaches
at construction when tracing is active: it aggregates one round's hop count,
collective kinds and payload deliveries, and emits one ``"round"`` span per
round (every round of a round class included) carrying the round's posted
words, flops and resident-words high-water.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Append-only event sink with a span/instant API.

    Timestamps are ``time.perf_counter_ns`` deltas relative to construction;
    events are plain tuples to keep the traced-path cost at one append.
    ``meta`` is free-form run context exporters copy into the trace file's
    ``otherData``.
    """

    __slots__ = ("events", "meta", "_t0")

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.meta: dict = {}
        self._t0 = time.perf_counter_ns()

    def now_ns(self) -> int:
        """Nanoseconds since this tracer was created (monotonic)."""
        return time.perf_counter_ns() - self._t0

    def complete(self, name: str, cat: str, start_ns: int, dur_ns: int,
                 args: dict | None = None, track: str = "sim") -> None:
        """Record a finished span of ``dur_ns`` starting at ``start_ns``."""
        self.events.append((name, cat, start_ns, dur_ns, args, track))

    def instant(self, name: str, cat: str = "event",
                args: dict | None = None, track: str = "sim") -> None:
        """Record a point-in-time event."""
        self.events.append((name, cat, self.now_ns(), None, args, track))

    @contextmanager
    def span(self, name: str, cat: str = "span",
             args: dict | None = None, track: str = "sim"):
        """Context manager recording the enclosed block as one complete span."""
        start = self.now_ns()
        try:
            yield self
        finally:
            self.complete(name, cat, start, self.now_ns() - start, args, track)

    def spans(self, cat: str | None = None) -> list[tuple]:
        """The recorded complete spans (``dur_ns`` not None), newest last."""
        return [e for e in self.events
                if e[3] is not None and (cat is None or e[1] == cat)]

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# process-local activation
# ---------------------------------------------------------------------------
_ACTIVE: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The enabled tracer, or ``None`` (the common case: tracing is off)."""
    return _ACTIVE


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the process-wide active tracer.

    Instrumented objects capture the active tracer *at construction* (e.g.
    :class:`~repro.machine.simulator.DistributedMachine`), so enable tracing
    before building the machine whose rounds you want to see.
    """
    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable_tracing() -> Tracer | None:
    """Deactivate tracing; returns the tracer that was active, if any."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


@contextmanager
def tracing(tracer: Tracer | None = None):
    """``with tracing() as tracer:`` -- enable for a block, always disable."""
    active = enable_tracing(tracer)
    try:
        yield active
    finally:
        disable_tracing()


# ---------------------------------------------------------------------------
# per-machine round accumulator
# ---------------------------------------------------------------------------
class MachineTrace:
    """Aggregates one simulated machine's activity into per-round spans.

    Attached by :class:`~repro.machine.simulator.DistributedMachine` when a
    tracer is active; ``None`` otherwise.  All inputs are *read-only* views
    of machine state: words/flops come from counter-matrix row sums at round
    boundaries, never from separate bookkeeping that could drift.  The matrix
    is read through the counters object, which applies its log of per-hop
    increments first.
    """

    __slots__ = (
        "tracer", "mode", "rounds", "hops", "deliveries", "delivered_words",
        "_counters", "_round_start_ns", "_words0", "_flops0",
        "_round_hops", "_collectives",
    )

    def __init__(self, tracer: Tracer, counters, mode: str) -> None:
        self.tracer = tracer
        self.mode = mode
        self._counters = counters  # a CommCounters; ``.data`` is the matrix
        self.rounds = 0
        self.hops = 0
        self.deliveries = 0
        self.delivered_words = 0
        self._round_hops = 0
        self._collectives: dict[str, int] = {}
        self._words0 = counters.total_words_sent
        self._flops0 = counters.total_flops
        self._round_start_ns = tracer.now_ns()

    # -- per-event notifications (guarded call sites keep these tiny) -------
    def hop(self) -> None:
        """One point-to-point transfer went through ``machine.send``."""
        self._round_hops += 1

    def hops_batch(self, n: int) -> None:
        """``n`` transfers were posted in one batched ``post_transfers``."""
        self._round_hops += int(n)

    def collective(self, kind: str, q: int) -> None:
        """A collective of ``kind`` ran over a ``q``-rank communicator."""
        key = f"{kind}[{q}]"
        self._collectives[key] = self._collectives.get(key, 0) + 1

    def delivery(self, words: int) -> None:
        """The transport materialized one payload delivery of ``words`` words."""
        self.deliveries += 1
        self.delivered_words += int(words)

    # -- round boundaries ----------------------------------------------------
    def _dirty(self) -> bool:
        """Any traced activity since the last round span was emitted?"""
        return (
            self._round_hops > 0
            or bool(self._collectives)
            or self._counters.total_words_sent != self._words0
            or self._counters.total_flops != self._flops0
        )

    def commit_round(self, peak_resident_words: int) -> None:
        """Round boundary for algorithms that commit without ``log_round``.

        SUMMA and Cannon end each panel round (the boundary they hand the
        grid core) with ``machine.commit_round()`` alone, while COSMA labels its rounds via
        ``log_round`` first; emitting here only when activity accumulated
        since the last span keeps both paths at exactly one span per round.
        """
        if self._dirty():
            self.end_round("round", peak_resident_words)

    def end_round(self, label: str, peak_resident_words: int) -> None:
        """Close the current round: emit one span, reset per-round state.

        Called from ``machine.log_round`` and (through :meth:`commit_round`)
        ``machine.commit_round``, so a traced run emits at least one span
        per counted round.
        """
        now = self.tracer.now_ns()
        words = self._counters.total_words_sent
        flops = self._counters.total_flops
        args = {
            "label": label,
            "round": self.rounds,
            "mode": self.mode,
            "words_posted": words - self._words0,
            "flops": flops - self._flops0,
            "hops": self._round_hops,
            "resident_peak_words": int(peak_resident_words),
        }
        if self._collectives:
            args["collectives"] = dict(self._collectives)
        self.tracer.complete("round", "round", self._round_start_ns,
                             now - self._round_start_ns, args)
        self.rounds += 1
        self.hops += self._round_hops
        self._round_hops = 0
        self._collectives = {}
        self._words0 = words
        self._flops0 = flops
        self._round_start_ns = now
