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

Zero perturbation holds by construction: an engine posts its counters
through the same machine calls traced or not, and a span is built from the
delta a call posts, so communication counters are byte-identical traced vs
untraced (``tests/test_obs_trace.py`` checks it across both modes and every
registered algorithm).

:class:`MachineTrace` is what the simulator attaches at construction when
tracing is active: every posting call of the machine emits through it one
``"round"`` span per round class it posts -- a label, the first round, the
multiplicity (how many identical rounds the span stands for), the words,
flops and hops of one of those rounds and the resident-words high-water.  A
closed-form delta or a transfer list is one class of one round; the grid
family's panel exchange, posted as one sum, spans each of its round classes
(:func:`repro.core.cosma.post_fiber_exchange`).  Expanded by its
multiplicity, a span is its rounds one by one.
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
# per-machine round spans
# ---------------------------------------------------------------------------
class MachineTrace:
    """One simulated machine's round spans.

    Attached by :class:`~repro.machine.simulator.DistributedMachine` when a
    tracer is active; ``None`` otherwise.  The machine calls :meth:`span`
    from its posting calls with what the posted delta holds, so a span is
    never a diff of the counter matrix and holds no state between postings
    but the round cursor: ``rounds``, the rounds spanned so far, is the next
    span's first round.
    """

    __slots__ = ("tracer", "mode", "rounds", "_round_start_ns")

    def __init__(self, tracer: Tracer, mode: str) -> None:
        self.tracer = tracer
        self.mode = mode
        self.rounds = 0
        self._round_start_ns = tracer.now_ns()

    def span(self, label: str, multiplicity: int, words: int, flops: int, hops: int,
             peak_resident_words: int) -> None:
        """Emit one ``"round"`` span for ``multiplicity`` identical rounds,
        each posting ``words`` words, ``flops`` flops and ``hops`` messages.
        The span runs from the previous one's end to now."""
        now = self.tracer.now_ns()
        args = {
            "label": label,
            "first_round": self.rounds,
            "multiplicity": int(multiplicity),
            "mode": self.mode,
            "words_posted": int(words),
            "flops": int(flops),
            "hops": int(hops),
            "resident_peak_words": int(peak_resident_words),
        }
        self.tracer.complete("round", "round", self._round_start_ns,
                             now - self._round_start_ns, args)
        self.rounds += int(multiplicity)
        self._round_start_ns = now
