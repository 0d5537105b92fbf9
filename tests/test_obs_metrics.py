"""Telemetry layer: metrics primitives, campaign metrics, progress, logging.

The registry is plain in-process bookkeeping; the interesting contracts are
(1) snapshots are JSON-serializable dicts with exact count/sum/min/max, (2)
``run_campaign`` populates the campaign metrics and persists them both in
``CampaignResult.metrics`` and the ``campaign_metrics.json`` sidecar beside
the store -- never inside the result records themselves -- and (3) the
progress heartbeat and ``repro`` logger configuration behave on plain
streams (CI logs) as well as TTYs.
"""

import io
import json
import logging

import pytest

from repro.obs.log import configure_logging, get_logger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.progress import CampaignProgress
from repro.sweeps import METRICS_SIDECAR, SweepSpec
from repro.sweeps.runner import run_campaign


@pytest.fixture
def spec() -> SweepSpec:
    return SweepSpec(name="obs-metrics", algorithms=("COSMA", "CARMA"),
                     families=("square",), regimes=("limited",),
                     p_values=(4, 9), memory_words=1024, mode="volume")


class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(3)
        assert counter.snapshot() == {"type": "counter", "value": 4}
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_maximum(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.set(2)
        assert gauge.snapshot() == {"type": "gauge", "value": 2, "max": 5}

    def test_histogram_cumulative_buckets(self):
        histogram = Histogram(buckets=(1.0, 10.0))
        for value in (0.5, 0.7, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(56.2)
        assert (snap["min"], snap["max"]) == (0.5, 50.0)
        # Cumulative: <=1.0 holds 2, <=10.0 holds 3, +Inf holds all 4.
        assert snap["buckets"] == {"1.0": 2, "10.0": 3, "+Inf": 4}

    def test_histogram_bucket_edges_are_upper_bounds(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(1.0)
        assert histogram.snapshot()["buckets"]["1.0"] == 1

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        registry = MetricsRegistry()
        counter = registry.counter("runs.ok")
        assert registry.counter("runs.ok") is counter
        with pytest.raises(TypeError):
            registry.gauge("runs.ok")

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(3)
        registry.histogram("h").observe(0.2)
        snap = registry.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert {m["type"] for m in snap.values()} == {"counter", "gauge", "histogram"}


class TestCampaignMetrics:
    def test_serial_campaign_populates_metrics(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        metrics = result.metrics
        assert metrics is not None
        assert metrics["sweeps.runs.ok"]["value"] == result.executed == 4
        assert metrics["sweeps.run.latency_s"]["count"] == 4
        assert metrics["sweeps.campaign.executed"]["value"] == 4
        assert metrics["sweeps.campaign.cached"]["value"] == 0
        assert metrics["sweeps.campaign.elapsed_s"]["value"] >= 0

    def test_metrics_sidecar_matches_result(self, tmp_path, spec):
        store_path = tmp_path / "store"
        result = run_campaign(spec, store=store_path, jobs=1)
        sidecar = json.loads((store_path / METRICS_SIDECAR).read_text())
        assert sidecar == result.metrics

    def test_campaign_metrics_stay_out_of_records(self, tmp_path, spec):
        """Records stay pure functions of run parameters: the campaign's
        registry never leaks into them."""
        serial = run_campaign(spec, store=tmp_path / "serial", jobs=1)
        supervised = run_campaign(spec, store=tmp_path / "pool", jobs=2)
        assert serial.records == supervised.records
        for record in serial.records:
            assert not any(k.startswith("sweeps.") for k in record["metrics"])

    def test_cached_rerun_reports_no_executions(self, tmp_path, spec):
        store_path = tmp_path / "store"
        run_campaign(spec, store=store_path, jobs=1)
        warm = run_campaign(spec, store=store_path, jobs=1)
        assert warm.metrics["sweeps.campaign.cached"]["value"] == 4
        assert warm.metrics["sweeps.campaign.executed"]["value"] == 0
        assert "sweeps.runs.ok" not in warm.metrics

    def test_supervised_campaign_counts_worker_spawns(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=2)
        metrics = result.metrics
        assert metrics["sweeps.workers.spawns"]["value"] >= 2
        assert metrics["sweeps.runs.ok"]["value"] == 4
        assert metrics["sweeps.run.latency_s"]["count"] == 4

    def test_to_dict_carries_metrics(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        payload = result.to_dict(include_records=False)
        assert payload["metrics"] == result.metrics
        assert "records" not in payload
        assert payload["executed"] == 4

    def test_summary_line_mentions_counts(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        line = result.summary_line()
        assert "ok=4" in line and "executed=4" in line and "cached=0" in line


class TestCampaignProgress:
    def _progress(self, total=4, **kwargs) -> tuple[CampaignProgress, io.StringIO]:
        stream = io.StringIO()  # not a TTY: plain line mode
        kwargs.setdefault("interval_s", 0.0)
        return CampaignProgress(total, stream=stream, **kwargs), stream

    def test_counts_ok_cached_and_failed(self):
        progress, stream = self._progress(total=4)
        progress({"status": "ok"}, False)
        progress({"status": "ok"}, True)
        progress({"status": "failed", "error": {"type": "RuntimeError"}}, False)
        progress({"status": "failed", "error": {"type": "RuntimeError"}}, True)
        progress.close()
        assert (progress.ok, progress.cached, progress.failed) == (2, 2, 1)
        lines = stream.getvalue().splitlines()
        assert lines, "plain streams must receive heartbeat lines"
        assert "4/4" in lines[-1] and "failed=1" in lines[-1]

    def test_line_contains_eta_mid_campaign_and_store(self):
        progress, _ = self._progress(total=4, store_path="runs/store")
        progress({"status": "ok"}, False)
        line = progress.line()
        assert "1/4" in line and "eta=" in line and "store=runs/store" in line

    def test_plain_stream_rate_limited(self):
        stream = io.StringIO()
        progress = CampaignProgress(100, stream=stream, interval_s=3600.0)
        for _ in range(10):
            progress({"status": "ok"}, False)
        # First callback emits (last_emit starts at 0); the rest are muted.
        assert stream.getvalue().count("\n") == 1

    def test_runs_as_run_campaign_callback(self, tmp_path, spec):
        progress, stream = self._progress(total=len(spec.expand()))
        result = run_campaign(spec, store=tmp_path / "store", jobs=1,
                              progress=progress)
        progress.close()
        assert progress.done == len(result.records) == 4
        assert "4/4 ok=4" in stream.getvalue()


class TestLogging:
    def test_get_logger_hierarchy(self):
        assert get_logger().name == "repro"
        assert get_logger("sweeps").name == "repro.sweeps"
        assert get_logger("sweeps").parent.name == "repro"

    def test_configure_is_idempotent(self):
        logger = configure_logging("info")
        handlers_before = list(logger.handlers)
        configure_logging("debug")
        assert list(logger.handlers) == handlers_before
        assert logger.level == logging.DEBUG
        configure_logging("warning")  # restore the CLI default

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")

    def test_messages_reach_configured_stream(self):
        stream = io.StringIO()
        logger = configure_logging("info", stream=stream)
        try:
            get_logger("sweeps").info("respawned worker %d", 3)
            assert "INFO repro.sweeps: respawned worker 3" in stream.getvalue()
        finally:
            configure_logging("warning")
            assert logger.level == logging.WARNING
