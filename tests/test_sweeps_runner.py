"""Tests for the campaign runner: parallel determinism and failure capture."""

import json
import multiprocessing
import os
import signal
import sys

import pytest

from repro.algorithms import AlgorithmSpec, get_algorithm, register, unregister
from repro.experiments.harness import AlgorithmRun, RunFailure, run_algorithm_safe
from repro.sweeps.aggregate import rows_to_json, runs_from_records, scenario_summary_table, tidy_rows
from repro.sweeps import runner
from repro.sweeps.runner import RETRYABLE_ERRORS, backoff, run_campaign
from repro.sweeps.spec import SweepSpec, spec_from_scenarios
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


#: Marker directory of :func:`_flaky`; set per campaign by the tests and
#: inherited by forked workers.
_FLAKY_MARKERS = None


def _flaky(a, b, scenario, machine):
    """Fail a scenario's first attempt -- in whichever process -- then run COSMA."""
    try:
        (_FLAKY_MARKERS / scenario.name).touch(exist_ok=False)
    except FileExistsError:
        return get_algorithm("COSMA").runner(a, b, scenario, machine)
    raise OSError(f"flaked on {scenario.name}")


@pytest.fixture
def flaky_algorithm():
    register(AlgorithmSpec(name="Flaky", runner=_flaky))
    yield "Flaky"
    unregister("Flaky")


#: The one core count on which :func:`_kill_on_p9` SIGKILLs its process.
_DOOMED_P = 9


def _kill_on_p9(a, b, scenario, machine):
    """SIGKILL the worker running the ``p = 9`` scenario; run COSMA elsewhere."""
    if scenario.p == _DOOMED_P:
        if multiprocessing.parent_process() is None:
            raise RuntimeError("refusing to SIGKILL the campaign's own process")
        os.kill(os.getpid(), signal.SIGKILL)
    return get_algorithm("COSMA").runner(a, b, scenario, machine)


@pytest.fixture
def killer_algorithm():
    register(AlgorithmSpec(name="Killer", runner=_kill_on_p9))
    yield "Killer"
    unregister("Killer")


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
        assert all(isinstance(run, AlgorithmRun) for run in runs)
        assert runs_from_records(result.records) == runs

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

    @pytest.mark.parametrize("bad", [{"jobs": 0}, {"max_attempts": 0}, {"timeout_s": 0.0},
                                     {"timeout_s": -1.0}, {"timeout_s": float("nan")}],
                             ids=["jobs", "max_attempts", "timeout_zero", "timeout_negative", "timeout_nan"])
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


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(runner, "BACKOFF_S", 0.1)
        monkeypatch.setattr(runner, "MAX_BACKOFF_S", 0.3)
        monkeypatch.setattr(runner, "JITTER_S", 0.05)
        first = [backoff("some-key", attempt) for attempt in (1, 2, 3, 4)]
        second = [backoff("some-key", attempt) for attempt in (1, 2, 3, 4)]
        assert first == second  # SHA-256 jitter, not random
        assert 0.1 <= first[0] <= 0.15
        assert 0.2 <= first[1] <= 0.25  # doubles per attempt
        assert all(0.3 <= delay <= 0.3 + 0.05 for delay in first[2:])  # capped
        assert backoff("other-key", 1) != first[0]

    def test_classification(self, tmp_path, spec):
        assert {"TransientFault", "WorkerCrash", "RunTimeout"} <= set(RETRYABLE_ERRORS)
        assert "RuntimeError" not in RETRYABLE_ERRORS
        assert "InfeasiblePlan" not in RETRYABLE_ERRORS
        with pytest.raises(ValueError):
            run_campaign(spec, store=tmp_path / "store", max_attempts=0)

    def test_deterministic_failures_quarantine_without_retry(self, tmp_path, exploding_algorithm):
        """A RuntimeError is not retryable: one attempt, full taxonomy."""
        scenarios = [Scenario(name="s2", shape=square_shape(16), p=2,
                              memory_words=1024, regime="strong")]
        spec = spec_from_scenarios(scenarios, algorithms=(exploding_algorithm,), mode="volume")
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert (result.retried, result.quarantined) == (0, 1)
        error = result.failed_records[0]["error"]
        assert error["type"] == "RuntimeError"
        assert error["attempts"] == 1
        assert error["retryable"] is False
        assert error["exit_signal"] is None


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the test-registered algorithms")
class TestInProcessSlot:
    """``jobs=1`` is the supervisor's in-process slot: the records of a
    supervised campaign, from the same retry loop, without a process."""

    SCENARIOS = [Scenario(name=f"s{p}", shape=square_shape(16), p=p,
                          memory_words=1024, regime="strong") for p in (2, 4)]

    @staticmethod
    def _failures_without_duration(result):
        failures = [dict(record, error=dict(record["error"])) for record in result.failed_records]
        for record in failures:
            assert record["error"].pop("duration_s") >= 0.0
        return failures

    def _assert_same_outcome(self, in_process, supervised):
        assert rows_to_json(tidy_rows(in_process.records)) == rows_to_json(tidy_rows(supervised.records))
        assert self._failures_without_duration(in_process) == self._failures_without_duration(supervised)
        assert in_process.ok_records == supervised.ok_records
        assert (in_process.executed, in_process.retried, in_process.quarantined) == (
            supervised.executed, supervised.retried, supervised.quarantined)

    def test_no_process_is_spawned(self, tmp_path, spec, monkeypatch):
        import repro.sweeps.runner as runner

        def no_worker(*args, **kwargs):
            raise AssertionError("jobs=1 without deadline or fault plan must not spawn")

        monkeypatch.setattr(runner, "Worker", no_worker)
        result = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert result.executed == len(spec.expand())
        assert result.metrics.get("sweeps.workers.spawns", {"value": 0})["value"] == 0

    def test_deterministic_failure_matches_supervised(self, tmp_path, exploding_algorithm):
        spec = spec_from_scenarios(self.SCENARIOS, algorithms=("COSMA", exploding_algorithm),
                                   mode="volume")
        in_process = run_campaign(spec, store=tmp_path / "in-process", jobs=1)
        supervised = run_campaign(spec, store=tmp_path / "supervised", jobs=2)
        self._assert_same_outcome(in_process, supervised)
        assert (in_process.failed, in_process.retried) == (2, 0)
        assert supervised.metrics["sweeps.workers.spawns"]["value"] >= 2

    @pytest.mark.parametrize("max_attempts", [3, 1], ids=["recovers", "exhausts"])
    def test_transient_failure_matches_supervised(self, tmp_path, flaky_algorithm, monkeypatch,
                                                  fast_retry, max_attempts):
        spec = spec_from_scenarios(self.SCENARIOS, algorithms=("COSMA", flaky_algorithm),
                                   mode="volume")
        results = []
        for jobs in (1, 2):
            markers = tmp_path / f"markers-{jobs}"
            markers.mkdir()
            monkeypatch.setattr(sys.modules[__name__], "_FLAKY_MARKERS", markers)
            results.append(run_campaign(spec, store=tmp_path / f"store-{jobs}", jobs=jobs,
                                        max_attempts=max_attempts))
        in_process, supervised = results
        self._assert_same_outcome(in_process, supervised)
        if max_attempts == 1:
            assert (in_process.failed, in_process.retried) == (2, 0)
            error = in_process.failed_records[0]["error"]
            assert (error["type"], error["attempts"], error["retryable"]) == ("OSError", 1, True)
        else:
            assert (in_process.failed, in_process.retried) == (0, 2)

    def test_exception_escaping_execute_request_is_quarantined(self, tmp_path, monkeypatch):
        """Not a captured harness failure: the supervised ``"raised"`` path,
        in-process too (the two executors cannot differ)."""
        import repro.sweeps.runner as runner

        def broken(request):
            raise KeyError(f"registry lost {request.algorithm}")

        monkeypatch.setattr(runner, "execute_request", broken)
        spec = spec_from_scenarios(self.SCENARIOS[:1], algorithms=("COSMA",), mode="volume")
        in_process = run_campaign(spec, store=tmp_path / "in-process", jobs=1)
        supervised = run_campaign(spec, store=tmp_path / "supervised", jobs=2)
        self._assert_same_outcome(in_process, supervised)
        error = in_process.failed_records[0]["error"]
        assert (error["type"], error["attempts"], error["retryable"]) == ("KeyError", 1, False)
        assert "registry lost COSMA" in error["traceback_tail"]


def _metric(result, name: str, field: str = "value"):
    return result.metrics.get(name, {field: 0})[field]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the test-registered algorithms")
class TestChunkedDispatch:
    """Workers take chunks of runs; a chunk's records reach the store in one
    append; deadlines, numeric runs and suspects go alone."""

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
        chunks = _metric(chunked, "sweeps.dispatch.chunks")
        assert chunks < runs and _metric(chunked, "sweeps.store.appends") < runs
        assert _metric(chunked, "sweeps.dispatch.chunk_runs", "count") == chunks
        assert _metric(chunked, "sweeps.dispatch.chunk_runs", "sum") == runs
        assert _metric(chunked, "sweeps.run.latency_s", "count") == runs
        # The in-process slot still dispatches and appends run by run.
        assert _metric(serial, "sweeps.dispatch.chunks") == _metric(serial, "sweeps.store.appends") == runs
        assert chunked.records == serial.records
        assert (tmp_path / "chunked" / "results.jsonl").read_bytes().count(b"\n") == runs

    @pytest.mark.parametrize("mode, timeout_s", [("plane", None), ("volume", 60.0)],
                             ids=["numeric", "deadline"])
    def test_numeric_runs_and_deadlines_go_alone(self, tmp_path, mode, timeout_s):
        spec = SweepSpec(name="alone", algorithms=("COSMA", "ScaLAPACK"),
                         p_values=(4, 9, 16), memory_words=1024, mode=mode)
        result = run_campaign(spec, store=tmp_path / "store", jobs=2, timeout_s=timeout_s)
        assert result.executed == len(spec.expand()) == 6 and result.failed == 0
        assert _metric(result, "sweeps.dispatch.chunks") == result.executed
        assert _metric(result, "sweeps.dispatch.chunk_runs", "max") == 1

    @pytest.mark.parametrize("mode", ["volume", "plane"])
    def test_death_in_a_chunk_is_charged_to_the_killer_alone(self, tmp_path, killer_algorithm,
                                                            fast_retry, mode):
        """No fault plan: a registered runner SIGKILLs its worker on one
        scenario, as the kernel's OOM killer would.  In ``volume`` mode its
        chunk-mates are requeued uncharged and finish, and the killer, now a
        suspect dispatched alone, exhausts its attempts; a ``plane`` run goes
        alone from the start, so every death is one of its attempts."""
        spec = SweepSpec(name="killer", algorithms=("COSMA", "ScaLAPACK", killer_algorithm),
                         p_values=(4, _DOOMED_P, 16, 25), memory_words=1024, mode=mode)
        requests = spec.expand()
        [doomed] = [r.key for r in requests
                    if r.algorithm == killer_algorithm and r.scenario.p == _DOOMED_P]
        attempts = 3
        result = run_campaign(spec, store=tmp_path / "chunked", jobs=2, max_attempts=attempts)
        assert len(requests) == result.executed == 12
        assert [r["key"] for r in result.failed_records] == [doomed]
        error = result.failed_records[0]["error"]
        assert error["type"] == "WorkerCrash"
        assert error["attempts"] == attempts
        assert error["exit_signal"] == int(signal.SIGKILL)
        # In volume mode, one death under a multi-run chunk (charged to no
        # run), then one per attempt of the killer alone.
        assert _metric(result, "sweeps.workers.deaths") == attempts + (mode == "volume")
        assert result.retried == attempts - 1

        survivors = [r for r in requests if r.key != doomed]
        serial = run_campaign(survivors, store=tmp_path / "serial", jobs=1)
        assert json.dumps(result.ok_records, sort_keys=True) == json.dumps(
            serial.ok_records, sort_keys=True)
