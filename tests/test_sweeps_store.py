"""Tests for the content-addressed result store: caching, resume, stability."""

import json
import subprocess
import sys

import pytest

from repro.experiments.harness import run_algorithm
from repro.sweeps.runner import run_campaign
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import (
    KEY_VERSION,
    ResultStore,
    record_to_run,
    run_key,
    run_to_record,
)
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape


@pytest.fixture
def scenario() -> Scenario:
    return Scenario(name="square-limited-p4", shape=square_shape(24), p=4,
                    memory_words=1024, regime="limited")


@pytest.fixture
def spec() -> SweepSpec:
    return SweepSpec(name="store-test", algorithms=("COSMA", "CARMA"),
                     families=("square",), regimes=("limited",),
                     p_values=(4, 9), memory_words=1024, mode="volume")


class TestRunKey:
    def test_deterministic_within_process(self, scenario):
        assert run_key("COSMA", scenario, "volume") == run_key("COSMA", scenario, "volume")

    def test_sensitive_to_parameters(self, scenario):
        base = run_key("COSMA", scenario, "volume", seed=0, verify=True)
        other_scenario = Scenario(name=scenario.name, shape=square_shape(25), p=scenario.p,
                                  memory_words=scenario.memory_words, regime=scenario.regime)
        assert run_key("CARMA", scenario, "volume") != base
        assert run_key("COSMA", other_scenario, "volume") != base
        assert run_key("COSMA", scenario, "plane") != base
        assert run_key("COSMA", scenario, "volume", seed=1) != base
        assert run_key("COSMA", scenario, "volume", verify=False) != base

    def test_stable_across_processes(self, scenario):
        """Keys must not involve Python's per-process randomized hash()."""
        script = (
            "from repro.sweeps.store import run_key\n"
            "from repro.workloads.scaling import Scenario\n"
            "from repro.workloads.shapes import square_shape\n"
            "s = Scenario(name='square-limited-p4', shape=square_shape(24), p=4,"
            " memory_words=1024, regime='limited')\n"
            "print(run_key('COSMA', s, 'volume'))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == run_key("COSMA", scenario, "volume")

    def test_key_version_participates(self, scenario, monkeypatch):
        base = run_key("COSMA", scenario, "volume")
        monkeypatch.setattr("repro.sweeps.store.KEY_VERSION", KEY_VERSION + 1)
        assert run_key("COSMA", scenario, "volume") != base


class TestRecordRoundtrip:
    def test_run_record_roundtrip_is_exact(self, scenario):
        run = run_algorithm("COSMA", scenario, mode="volume")
        key = run_key("COSMA", scenario, "volume")
        # JSON floats round-trip exactly (shortest-repr), so the rebuilt run
        # must equal the original field for field.
        clone = record_to_run(json.loads(json.dumps(run_to_record(run, key))))
        assert clone == run

    def test_record_to_run_rejects_failures(self, scenario):
        with pytest.raises(ValueError):
            record_to_run({"key": "k", "status": "failed"})


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert "missing" not in store
        assert store.get("missing") is None
        store.put({"key": "abc", "status": "ok", "payload": 1})
        assert "abc" in store
        assert store.get("abc")["payload"] == 1
        assert len(store) == 1

    def test_reload_from_disk(self, tmp_path):
        path = tmp_path / "store"
        ResultStore(path).put({"key": "abc", "status": "ok"})
        assert "abc" in ResultStore(path)

    def test_last_write_wins(self, tmp_path):
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "abc", "value": 1})
        store.put({"key": "abc", "value": 2})
        assert store.get("abc")["value"] == 2
        assert ResultStore(path).get("abc")["value"] == 2

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "good", "value": 1})
        with store.results_file.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "val')  # killed mid-append
        reloaded = ResultStore(path)
        assert "good" in reloaded
        assert "torn" not in reloaded

    def test_record_without_key_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store").put({"status": "ok"})


class TestResume:
    def test_second_campaign_is_all_cache(self, tmp_path, spec):
        store_path = tmp_path / "store"
        cold = run_campaign(spec, store=store_path, jobs=1)
        assert (cold.executed, cold.cached) == (4, 0)
        warm = run_campaign(spec, store=store_path, jobs=1)
        assert (warm.executed, warm.cached) == (0, 4)
        assert [r["key"] for r in warm.records] == [r["key"] for r in cold.records]

    def test_interrupted_campaign_resumes_missing_keys_only(self, tmp_path, spec):
        """Kill mid-campaign (simulated by dropping records), rerun, and
        assert only the missing keys execute."""
        store_path = tmp_path / "store"
        full = run_campaign(spec, store=store_path, jobs=1)
        lines = store_path.joinpath("results.jsonl").read_text().splitlines()
        assert len(lines) == 4
        # Keep only the first run's record plus a torn partial write.
        store_path.joinpath("results.jsonl").write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = run_campaign(spec, store=store_path, jobs=1)
        assert (resumed.executed, resumed.cached) == (3, 1)
        assert [r["key"] for r in resumed.records] == [r["key"] for r in full.records]
        assert resumed.records == full.records

    def test_no_resume_reexecutes_everything(self, tmp_path, spec):
        store_path = tmp_path / "store"
        run_campaign(spec, store=store_path, jobs=1)
        forced = run_campaign(spec, store=store_path, jobs=1, resume=False)
        assert (forced.executed, forced.cached) == (4, 0)


def _append_records(path, worker_id, count):
    """Child-process body for the concurrent-append test (fork-safe)."""
    store = ResultStore(path)
    for i in range(count):
        store.put({"key": f"w{worker_id}-r{i}", "status": "ok", "metrics": {},
                   "worker": worker_id, "payload": "x" * 200})


class TestTornWriteRecovery:
    """Satellite: torn-write edge cases the naive text-mode loader mishandled."""

    def test_truncation_mid_multibyte_utf8_char(self, tmp_path):
        """A line cut inside a multibyte UTF-8 character must be skipped as
        torn, not crash the whole reload with UnicodeDecodeError."""
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "good", "value": 1})
        line = json.dumps({"key": "torn", "name": "café-sweep"}, ensure_ascii=False)
        encoded = line.encode("utf-8")
        cut = encoded.index(b"\xc3") + 1  # mid 'é' (0xC3 0xA9)
        assert b"\xc3" in encoded
        with store.results_file.open("ab") as handle:
            handle.write(encoded[:cut])
        reloaded = ResultStore(path)
        assert "good" in reloaded and "torn" not in reloaded
        assert reloaded.stale_lines == 1
        report = reloaded.verify()
        assert report.torn_lines == 1 and not report.clean

    def test_truncation_inside_final_brace(self, tmp_path):
        """Dropping only the closing '}' leaves a valid JSON *prefix* that
        must still parse as torn, not as a record."""
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "good", "value": 1})
        line = json.dumps({"key": "almost", "value": 2})
        assert line.endswith("}")
        with store.results_file.open("a", encoding="utf-8") as handle:
            handle.write(line[:-1])
        reloaded = ResultStore(path)
        assert "good" in reloaded and "almost" not in reloaded
        assert reloaded.verify().torn_lines == 1

    def test_concurrent_appends_interleave_whole_lines(self, tmp_path):
        """Satellite: processes appending under the lock never tear each
        other's lines."""
        import multiprocessing

        path = tmp_path / "store"
        workers = [
            multiprocessing.Process(target=_append_records, args=(path, w, 25))
            for w in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        store = ResultStore(path)
        assert len(store) == 100
        report = store.verify()
        assert report.clean, report.summary()
        assert report.total_lines == 100


class TestVerifyCompact:
    def test_verify_counts_duplicates_and_drift(self, tmp_path):
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "a", "status": "ok", "metrics": {}})
        store.put({"key": "a", "status": "ok", "metrics": {}})  # superseded line
        with store.results_file.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": "weird", "status": "???"}) + "\n")
            handle.write(json.dumps(["not", "a", "record"]) + "\n")
        report = store.verify()
        assert report.duplicate_lines == 1
        assert report.drifted_lines == 2
        assert not report.clean
        assert any("superseded" in issue for issue in report.issues)

    def test_compact_drops_stale_lines_and_keeps_last_record(self, tmp_path):
        path = tmp_path / "store"
        store = ResultStore(path)
        store.put({"key": "a", "status": "ok", "metrics": {}, "v": 1})
        store.put({"key": "a", "status": "ok", "metrics": {}, "v": 2})
        store.put({"key": "b", "status": "ok", "metrics": {}})
        with store.results_file.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "torn-li')
        store.refresh()
        assert store.stale_lines == 2
        dropped = store.compact()
        assert dropped == 2
        assert store.stale_lines == 0
        assert store.get("a")["v"] == 2 and "b" in store
        reloaded = ResultStore(path)
        assert reloaded.verify().clean
        assert len(reloaded) == 2

    def test_put_is_the_one_record_batch(self, tmp_path):
        """Record by record or in one batch: the same bytes and the same index."""
        records = [{"key": f"k{i % 8}", "status": "ok", "metrics": {"i": i}} for i in range(12)]
        single = ResultStore(tmp_path / "single")
        for record in records:
            single.put(record)
        batch = ResultStore(tmp_path / "batch")
        batch.put_many(records)
        assert single.results_file.read_bytes() == batch.results_file.read_bytes()
        assert single.records() == batch.records() == ResultStore(tmp_path / "batch").records()
        assert single.stale_lines == batch.stale_lines == 4  # four keys written twice
        batch.put_many([])  # an empty batch writes nothing
        assert single.results_file.read_bytes() == batch.results_file.read_bytes()

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store", fsync="sometimes")
        always = ResultStore(tmp_path / "store2", fsync="always")
        always.put({"key": "a", "status": "ok", "metrics": {}})
        assert ResultStore(tmp_path / "store2").get("a") is not None


class TestStoreGrowth:
    """Satellite: resume=False reruns grow the file; stale_lines + compact
    keep the growth bounded and visible."""

    def test_stale_lines_surface_in_campaign_result(self, tmp_path, spec):
        store_path = tmp_path / "store"
        first = run_campaign(spec, store=store_path, jobs=1)
        assert first.stale_lines == 0
        # Both reruns stay under the compaction threshold, max(live, 32).
        rerun = run_campaign(spec, store=store_path, jobs=1, resume=False)
        assert rerun.stale_lines == 4  # every rerun superseded one line
        again = run_campaign(spec, store=store_path, jobs=1, resume=False)
        assert again.stale_lines == 8

    def test_auto_compact_bounds_rerun_growth(self, tmp_path, spec):
        store_path = tmp_path / "store"
        result = run_campaign(spec, store=store_path, jobs=1)
        # Threshold is max(live, 32): drive stale past it with reruns.
        for _ in range(9):
            result = run_campaign(spec, store=store_path, jobs=1, resume=False)
        assert result.stale_lines == 0  # compaction fired and reset the counter
        lines = store_path.joinpath("results.jsonl").read_bytes().count(b"\n")
        assert lines == 4
        assert ResultStore(store_path).verify().clean
