"""Tests for the campaign runner: parallel determinism and failure capture."""

import multiprocessing

import pytest

from repro.algorithms import AlgorithmSpec, get_algorithm, register, unregister
from repro.experiments.harness import RunFailure, RunReport, run_algorithm_safe
from repro.sweeps.aggregate import rows_to_json, scenario_summary_table, tidy_rows
from repro.sweeps.runner import run_campaign
from repro.sweeps.spec import SweepSpec, spec_from_scenarios
from repro.sweeps.store import ResultStore, record_to_run
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape


@pytest.fixture
def spec() -> SweepSpec:
    return SweepSpec(
        name="runner-test",
        algorithms=("COSMA", "ScaLAPACK", "CTF", "CARMA"),
        families=("square", "largeK"),
        regimes=("limited",),
        p_values=(4, 9),
        memory_words=1024,
        mode="volume",
    )


def _explode(a, b, scenario, machine):
    raise RuntimeError(f"boom on {scenario.name}")


@pytest.fixture
def exploding_algorithm():
    register(AlgorithmSpec(name="Explode", runner=_explode))
    yield "Explode"
    unregister("Explode")


class TestDeterminism:
    def test_parallel_rows_byte_identical_to_serial(self, tmp_path, spec):
        """A 2-job campaign must aggregate exactly like the serial one."""
        serial = run_campaign(spec, store=tmp_path / "serial", jobs=1)
        parallel = run_campaign(spec, store=tmp_path / "parallel", jobs=2)
        assert serial.executed == parallel.executed == len(spec.expand())
        assert rows_to_json(tidy_rows(serial.records)) == rows_to_json(tidy_rows(parallel.records))

    def test_records_follow_expansion_order(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=2)
        expected = [request.key for request in spec.expand()]
        assert [record["key"] for record in result.records] == expected

    def test_parallel_campaign_resumes_serial_store(self, tmp_path, spec):
        store_path = tmp_path / "store"
        run_campaign(spec, store=store_path, jobs=1)
        warm = run_campaign(spec, store=store_path, jobs=2)
        assert (warm.executed, warm.cached) == (0, len(spec.expand()))


class TestCampaignResult:
    def test_runs_rebuild_algorithm_runs(self, tmp_path, spec):
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        runs = result.runs()
        assert len(runs) == len(spec.expand())
        assert all(isinstance(run, RunReport) for run in runs)
        assert runs == [record_to_run(record) for record in result.records]

    def test_progress_callback_sees_every_record(self, tmp_path, spec):
        seen: list[tuple[str, bool]] = []
        run_campaign(spec, store=tmp_path / "store", jobs=1,
                     progress=lambda record, cached: seen.append((record["key"], cached)))
        assert len(seen) == len(spec.expand())
        assert all(not cached for _, cached in seen)
        seen.clear()
        run_campaign(spec, store=tmp_path / "store", jobs=1,
                     progress=lambda record, cached: seen.append((record["key"], cached)))
        assert all(cached for _, cached in seen)

    def test_jobs_must_be_positive(self, tmp_path, spec):
        with pytest.raises(ValueError):
            run_campaign(spec, store=tmp_path / "store", jobs=0)

    @pytest.mark.parametrize("bad", [{"jobs": 0}], ids=["jobs"])
    def test_bad_inputs_rejected_before_the_store_exists(self, tmp_path, spec, bad):
        with pytest.raises(ValueError):
            run_campaign(spec, store=tmp_path / "store", **bad)
        assert not (tmp_path / "store").exists()

    def test_duplicate_requests_counted_once(self, tmp_path):
        dup = SweepSpec(name="dup", algorithms=("COSMA", "COSMA"), families=("square",),
                        regimes=("limited",), p_values=(4,), memory_words=1024, mode="volume")
        store_path = tmp_path / "store"
        cold = run_campaign(dup, store=store_path, jobs=1)
        assert (cold.executed, cold.cached, len(cold.records)) == (1, 0, 1)
        warm = run_campaign(dup, store=store_path, jobs=1)
        assert (warm.executed, warm.cached, len(warm.records)) == (0, 1, 1)


class TestFailureCapture:
    def test_run_algorithm_safe_returns_structured_failure(self, exploding_algorithm):
        scenario = Scenario(name="s", shape=square_shape(16), p=4, memory_words=1024, regime="strong")
        outcome = run_algorithm_safe(exploding_algorithm, scenario, mode="volume")
        assert isinstance(outcome, RunFailure)
        assert outcome.error_type == "RuntimeError"
        assert "boom on s" in outcome.error_message
        assert not outcome.correct

    def test_run_algorithm_safe_still_rejects_unknown_names(self):
        scenario = Scenario(name="s", shape=square_shape(16), p=4, memory_words=1024, regime="strong")
        with pytest.raises(KeyError):
            run_algorithm_safe("MAGMA", scenario)

    def test_campaign_persists_failures_and_completes(self, tmp_path, exploding_algorithm):
        scenarios = [Scenario(name=f"s{p}", shape=square_shape(16), p=p,
                              memory_words=1024, regime="strong") for p in (2, 4)]
        spec = spec_from_scenarios(scenarios, algorithms=("COSMA", exploding_algorithm), mode="volume")
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert result.executed == 4
        assert result.failed == 2
        assert len(result.ok_records) == 2
        for record in result.failed_records:
            assert record["error"]["type"] == "RuntimeError"

        rows = tidy_rows(result.records)
        failed_rows = [row for row in rows if row["status"] == "failed"]
        assert len(failed_rows) == 2
        assert all(row["error_type"] == "RuntimeError" for row in failed_rows)
        assert "failed" in scenario_summary_table(rows)

        # Failed records are cached too: the rerun executes nothing.
        warm = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert (warm.executed, warm.cached, warm.failed) == (0, 4, 2)

    def test_retry_failures_reexecutes_only_failed_records(self, tmp_path, exploding_algorithm):
        scenarios = [Scenario(name=f"s{p}", shape=square_shape(16), p=p,
                              memory_words=1024, regime="strong") for p in (2, 4)]
        spec = spec_from_scenarios(scenarios, algorithms=("COSMA", exploding_algorithm), mode="volume")
        run_campaign(spec, store=tmp_path / "store", jobs=1)
        # The environment recovers: the algorithm stops exploding.
        register(AlgorithmSpec(name=exploding_algorithm, runner=get_algorithm("COSMA").runner),
                 replace=True)
        retried = run_campaign(spec, store=tmp_path / "store", jobs=1, retry_failures=True)
        assert (retried.executed, retried.cached, retried.failed) == (2, 2, 0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the test-registered algorithms")
@pytest.mark.usefixtures("no_stray_workers")
class TestInProcessSlot:
    """``jobs=1`` is an in-process loop over the chunks that a pool campaign
    hands its workers: the same records, without a process."""

    SCENARIOS = [Scenario(name=f"s{p}", shape=square_shape(16), p=p,
                          memory_words=1024, regime="strong") for p in (2, 4)]

    @staticmethod
    def _assert_same_outcome(in_process, pooled):
        assert rows_to_json(tidy_rows(in_process.records)) == rows_to_json(tidy_rows(pooled.records))
        assert in_process.records == pooled.records
        assert in_process.executed == pooled.executed

    def test_no_process_is_spawned(self, tmp_path, spec, monkeypatch):
        import repro.sweeps.runner as runner

        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 must not spawn")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_pool)
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert result.executed == len(spec.expand())
        assert result.metrics.get("sweeps.workers.spawns", {"value": 0})["value"] == 0

    def test_deterministic_failure_matches_supervised(self, tmp_path, exploding_algorithm):
        """A raising run ends in a stored ``"failed"`` record with its
        traceback tail, in process and in a pool worker alike."""
        spec = spec_from_scenarios(self.SCENARIOS, algorithms=("COSMA", exploding_algorithm),
                                   mode="volume")
        in_process = run_campaign(spec, store=tmp_path / "in-process", jobs=1)
        pooled = run_campaign(spec, store=tmp_path / "pooled", jobs=2)
        self._assert_same_outcome(in_process, pooled)
        assert in_process.failed == 2
        assert pooled.metrics["sweeps.workers.spawns"]["value"] == 2
        for store in ("in-process", "pooled"):
            reloaded = ResultStore(tmp_path / store)
            for record in in_process.failed_records:
                error = reloaded.get(record["key"])["error"]
                assert error["type"] == "RuntimeError"
                assert error["message"].startswith("boom on s")
                assert "raise RuntimeError" in error["traceback_tail"]

    def test_exception_escaping_execute_request_is_quarantined(self, tmp_path, monkeypatch):
        """Not a captured harness failure: an exception escaping
        ``execute_request`` is stored as a ``"failed"`` record with its
        traceback tail, in process and in a pool worker alike."""
        import repro.sweeps.runner as runner

        def broken(request):
            raise KeyError(f"registry lost {request.algorithm}")

        monkeypatch.setattr(runner, "execute_request", broken)
        spec = spec_from_scenarios(self.SCENARIOS[:1], algorithms=("COSMA",), mode="volume")
        in_process = run_campaign(spec, store=tmp_path / "in-process", jobs=1)
        pooled = run_campaign(spec, store=tmp_path / "pooled", jobs=2)
        self._assert_same_outcome(in_process, pooled)
        error = in_process.failed_records[0]["error"]
        assert error["type"] == "KeyError"
        assert "registry lost COSMA" in error["traceback_tail"]


def _metric(result, name: str, field: str = "value"):
    return result.metrics.get(name, {field: 0})[field]


@pytest.mark.usefixtures("no_stray_workers")
class TestChunkedDispatch:
    """Runs go in chunks of ``ceil(runs / (4 * jobs))``, at most 32, and a
    chunk's records reach the store in one append."""

    def test_volume_campaign_dispatches_and_appends_per_chunk(self, tmp_path):
        spec = SweepSpec(
            name="chunks", algorithms=("COSMA", "ScaLAPACK", "CTF", "CARMA"),
            families=("square", "largeK"), regimes=("limited",),
            p_values=(4, 9, 16, 25, 36), memory_words=1024, mode="volume",
        )
        serial = run_campaign(spec, store=tmp_path / "serial", jobs=1)
        chunked = run_campaign(spec, store=tmp_path / "chunked", jobs=2)
        runs = chunked.executed
        assert runs == len(spec.expand()) == 40
        # 40 runs: chunks of 10 in process, of 5 over two workers.
        assert _metric(serial, "sweeps.dispatch.chunks") == _metric(serial, "sweeps.store.appends") == 4
        assert _metric(chunked, "sweeps.dispatch.chunks") == _metric(chunked, "sweeps.store.appends") == 8
        assert _metric(chunked, "sweeps.run.latency_s", "count") == runs
        assert chunked.records == serial.records
        assert (tmp_path / "chunked" / "results.jsonl").read_bytes().count(b"\n") == runs

    def test_chunks_hold_at_most_32_runs(self):
        from repro.sweeps.runner import MAX_CHUNK_RUNS, _chunks

        requests = list(range(1000))
        for jobs in (1, 2, 3):
            chunks = _chunks(requests, jobs)
            assert [run for chunk in chunks for run in chunk] == requests
            assert max(map(len, chunks)) == MAX_CHUNK_RUNS == 32
        assert [len(chunk) for chunk in _chunks(requests[:10], 2)] == [2, 2, 2, 2, 2]
