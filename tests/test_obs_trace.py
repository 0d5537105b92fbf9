"""Telemetry layer: zero-perturbation tracing of the simulated machine.

The hard guarantee under test: a traced run posts its counters through the
same calls as an untraced one, so the communication-counter matrix is
byte-identical traced vs untraced in every mode the harness runs and for
every registered algorithm, and the golden sweep rows do not move.  On top of
that, the exported Chrome trace validates against the trace-event schema,
the round spans (one per round class a posting call posts, with its
multiplicity) account for every posted word, flop and message, and
plane-mode GEMM time is split from counter-accounting time.
"""

import json
from contextlib import nullcontext

import numpy as np
import pytest

import repro.extensions.allgather  # noqa: F401 - registers AllGather1D
from repro.algorithms import get_algorithm, registered_algorithms
from repro.api import multiply
from repro.experiments.harness import _execute
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, ShapeToken
from repro.obs import (
    Tracer,
    active_tracer,
    chrome_trace_document,
    disable_tracing,
    enable_tracing,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_log,
)
from repro.sweeps import SweepSpec, tidy_rows
from repro.sweeps.runner import execute_request
from repro.workloads.scaling import limited_memory_sweep


def _counter_bytes(machines: list, algorithm: str, mode: str, traced: bool) -> bytes:
    """Run one (algorithm, mode) point through the harness and return the raw
    counter matrix (``machines``: the ``harness_machines`` fixture)."""
    scenario = limited_memory_sweep("square", [4], 2048)[0]
    with tracing() if traced else nullcontext():
        _execute(
            get_algorithm(algorithm), scenario, None, *scenario.shape.random_matrices(seed=0),
            mode=mode, span="run", verify=False, shards=1, plane_dtype="float64",
        )
    return machines[-1].counters.data.tobytes()


class TestZeroPerturbation:
    #: Every mode the harness accepts: the two retired per-hop spellings run
    #: as ``plane``.
    @pytest.mark.parametrize("mode", ("legacy", "zerocopy") + MODES)
    @pytest.mark.parametrize("algorithm", registered_algorithms())
    def test_counters_byte_identical_traced_vs_untraced(self, algorithm, mode, harness_machines):
        assert _counter_bytes(harness_machines, algorithm, mode, traced=False) == \
            _counter_bytes(harness_machines, algorithm, mode, traced=True)

    def test_golden_sweep_rows_unmoved_by_tracing(self):
        spec = SweepSpec(
            name="obs-golden",
            algorithms=registered_algorithms(),
            families=("square",),
            regimes=("limited",),
            p_values=(4, 16),
            memory_words=2048,
            mode="volume",
            seed=0,
        )
        untraced = tidy_rows([execute_request(r) for r in spec.expand()])
        with tracing():
            traced = tidy_rows([execute_request(r) for r in spec.expand()])
        assert json.dumps(traced, sort_keys=True) == json.dumps(untraced, sort_keys=True)


class TestTracerApi:
    def test_off_by_default_and_context_managed(self):
        assert active_tracer() is None
        with tracing() as tracer:
            assert active_tracer() is tracer
        assert active_tracer() is None

    def test_enable_disable_roundtrip(self):
        tracer = enable_tracing()
        try:
            assert active_tracer() is tracer
        finally:
            assert disable_tracing() is tracer
        assert active_tracer() is None

    def test_span_and_instant_events(self):
        tracer = Tracer()
        with tracer.span("outer", cat="phase", args={"x": 1}):
            tracer.instant("tick", args={"y": 2})
        assert len(tracer) == 2
        [instant] = [e for e in tracer.events if e[3] is None]
        assert instant[0] == "tick"
        [span] = tracer.spans()
        name, cat, ts, dur, args, track = span
        assert (name, cat, args) == ("outer", "phase", {"x": 1})
        assert ts >= 0 and dur >= 0

    def test_spans_filter_by_category(self):
        tracer = Tracer()
        tracer.complete("a", "one", 0, 5)
        tracer.complete("b", "two", 5, 5)
        assert [e[0] for e in tracer.spans("two")] == ["b"]

    def test_machine_attaches_trace_only_when_active(self):
        machine = DistributedMachine(4, memory_words=1024)
        assert machine.trace is None
        with tracing():
            traced_machine = DistributedMachine(4, memory_words=1024)
            assert traced_machine.trace is not None


class TestRoundSpans:
    def test_one_span_per_round_with_counter_deltas(self):
        with tracing() as tracer:
            report = multiply(
                ShapeToken((256, 256)), ShapeToken((256, 256)), 16, 16384,
                mode="volume",
            )
        rounds = [event[4] for event in tracer.spans("round")]
        assert len(rounds) >= 1
        total_words = sum(args["words_posted"] * args["multiplicity"] for args in rounds)
        assert total_words == report.total_communicated_words
        assert sum(args["flops"] * args["multiplicity"] for args in rounds) == report.total_flops
        for args in rounds:
            assert args["mode"] == "volume"
            assert args["hops"] >= 0 and args["resident_peak_words"] >= 0
            assert args["multiplicity"] >= 1
        # Each span's first round is where the previous one's rounds end.
        firsts = np.cumsum([0] + [args["multiplicity"] for args in rounds])
        assert [args["first_round"] for args in rounds] == firsts[:-1].tolist()

    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("family", ["square", "largeK"])
    @pytest.mark.parametrize("algorithm", registered_algorithms())
    def test_every_posted_word_is_in_a_span(self, algorithm, family, mode, held):
        """The round spans, each per-round value times its multiplicity, add
        up to the words sent, flops and messages the run posted, on a fresh
        machine and on one that already holds counters."""
        scenario = limited_memory_sweep(family, [16], 2048)[0]
        shape = scenario.shape
        a, b = ((ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n)))
                if mode == "volume" else shape.random_matrices(seed=0))
        with tracing() as tracer:
            machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words,
                                         mode=mode)
            counters = machine.counters
            if held:
                counters.data[...] = np.random.default_rng(0).integers(0, 1000, counters.data.shape)
            before = counters.total_words_sent, counters.total_flops, counters.total_messages
            get_algorithm(algorithm).run(a, b, scenario, machine)
        posted = (counters.total_words_sent - before[0], counters.total_flops - before[1],
                  counters.total_messages - before[2])
        spans = [event[4] for event in tracer.spans("round")]
        assert tuple(sum(span[key] * span["multiplicity"] for span in spans)
                     for key in ("words_posted", "flops", "hops")) == posted
        assert min(posted) > 0

    def test_plane_mode_splits_gemm_from_accounting(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
        with tracing() as tracer:
            report = multiply(a, b, 16, 8192, mode="plane")
        assert report.correct
        [accounting] = tracer.spans("phase")
        [gemm] = tracer.spans("gemm")
        assert accounting[0] == "cosma-counter-accounting"
        assert gemm[0] == "cosma-plane-gemm"
        assert gemm[5] == "gemm"  # its own track in the exported trace
        [run_span] = tracer.spans("run")
        assert run_span[0] == "multiply:COSMA"


class TestExport:
    def _traced_run(self):
        with tracing() as tracer:
            multiply(
                ShapeToken((128, 128)), ShapeToken((128, 128)), 16, 4096,
                mode="volume",
            )
        return tracer

    def test_chrome_document_validates(self):
        tracer = self._traced_run()
        document = chrome_trace_document(tracer)
        assert validate_chrome_trace(document) == []
        assert document["traceEvents"], "trace must not be empty"
        phases = {e["ph"] for e in document["traceEvents"]}
        assert "X" in phases and "M" in phases

    def test_validator_flags_malformed_events(self):
        document = {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": -1}]}
        issues = validate_chrome_trace(document)
        assert issues, "negative ts / missing name must be reported"

    def test_written_files_round_trip(self, tmp_path):
        tracer = self._traced_run()
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        write_chrome_trace(trace_path, tracer)
        write_event_log(events_path, tracer)
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        lines = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert len(lines) == len(tracer.events)
        assert all("name" in line and "ts_ns" in line for line in lines)
