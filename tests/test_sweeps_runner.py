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
from repro.sweeps.runner import NO_RETRY, RetryPolicy, predicted_working_set_words, run_campaign
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
    def test_backoff_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, backoff_s=0.1, backoff_factor=2.0,
                             max_backoff_s=0.3, jitter_s=0.05)
        first = [policy.backoff("some-key", attempt) for attempt in (1, 2, 3, 4)]
        second = [policy.backoff("some-key", attempt) for attempt in (1, 2, 3, 4)]
        assert first == second  # SHA-256 jitter, not random
        assert all(0.1 <= first[0] <= 0.15 for _ in [0])
        assert all(delay <= 0.3 + 0.05 for delay in first)
        assert policy.backoff("other-key", 1) != first[0]

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable("TransientFault")
        assert policy.is_retryable("WorkerCrash")
        assert policy.is_retryable("RunTimeout")
        assert not policy.is_retryable("RuntimeError")
        assert not policy.is_retryable("InfeasiblePlan")
        assert RetryPolicy(retry_all=True).is_retryable("RuntimeError")
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

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


class TestMemoryBudget:
    def test_oversized_runs_refused_with_structured_record(self, tmp_path, spec):
        requests = spec.expand()
        budgets = sorted({predicted_working_set_words(r) for r in requests})
        assert len(budgets) > 1, "the grid must span several working-set sizes"
        budget = budgets[0]  # only the smallest runs fit
        result = run_campaign(spec, store=tmp_path / "store", jobs=1,
                              memory_budget_words=budget)
        assert result.refused > 0
        assert result.executed + result.refused == len(requests)
        refused = [r for r in result.records
                   if r["status"] == "failed" and r["error"]["type"] == "MemoryBudgetExceeded"]
        assert len(refused) == result.refused
        assert all(not r["error"]["retryable"] for r in refused)

    def test_oversized_but_fitting_runs_serialize_not_refuse(self, tmp_path, spec):
        """Runs over budget/jobs but under budget execute (one at a time)
        and still produce records byte-identical to a serial campaign."""
        requests = spec.expand()
        budget = max(predicted_working_set_words(r) for r in requests)
        baseline = run_campaign(spec, store=tmp_path / "clean", jobs=1)
        gated = run_campaign(spec, store=tmp_path / "gated", jobs=2,
                             memory_budget_words=budget)
        assert gated.refused == 0
        assert gated.executed == len(requests)
        assert rows_to_json(tidy_rows(gated.records)) == rows_to_json(tidy_rows(baseline.records))

    def test_budget_refusals_are_cached(self, tmp_path, spec):
        requests = spec.expand()
        budget = min(predicted_working_set_words(r) for r in requests)
        run_campaign(spec, store=tmp_path / "store", jobs=1, memory_budget_words=budget)
        # Rerun without the budget: refused records re-execute only via
        # retry_failures (they are ordinary failed records).
        warm = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert warm.executed == 0
        healed = run_campaign(spec, store=tmp_path / "store", jobs=1, retry_failures=True)
        assert healed.failed == 0
        assert healed.executed > 0


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

    @pytest.mark.parametrize("policy", [RetryPolicy(backoff_s=0.01, jitter_s=0.005), NO_RETRY],
                             ids=["recovers", "exhausts"])
    def test_transient_failure_matches_supervised(self, tmp_path, flaky_algorithm, monkeypatch,
                                                  policy):
        spec = spec_from_scenarios(self.SCENARIOS, algorithms=("COSMA", flaky_algorithm),
                                   mode="volume")
        results = []
        for jobs in (1, 2):
            markers = tmp_path / f"markers-{jobs}"
            markers.mkdir()
            monkeypatch.setattr(sys.modules[__name__], "_FLAKY_MARKERS", markers)
            results.append(run_campaign(spec, store=tmp_path / f"store-{jobs}", jobs=jobs,
                                        retry=policy))
        in_process, supervised = results
        self._assert_same_outcome(in_process, supervised)
        if policy is NO_RETRY:
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

    FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.01, jitter_s=0.005)

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

    def test_death_in_a_chunk_is_charged_to_the_killer_alone(self, tmp_path, killer_algorithm):
        """No fault plan: a registered runner SIGKILLs its worker on one
        scenario.  Its chunk-mates are requeued uncharged and finish; the
        killer, now a suspect dispatched alone, exhausts its attempts."""
        spec = SweepSpec(name="killer", algorithms=("COSMA", "ScaLAPACK", killer_algorithm),
                         p_values=(4, _DOOMED_P, 16, 25), memory_words=1024, mode="volume")
        requests = spec.expand()
        [doomed] = [r.key for r in requests
                    if r.algorithm == killer_algorithm and r.scenario.p == _DOOMED_P]
        result = run_campaign(spec, store=tmp_path / "chunked", jobs=2, retry=self.FAST_RETRY)
        assert len(requests) == result.executed == 12
        assert [r["key"] for r in result.failed_records] == [doomed]
        error = result.failed_records[0]["error"]
        assert error["type"] == "WorkerCrash"
        assert error["attempts"] == self.FAST_RETRY.max_attempts
        assert error["exit_signal"] == int(signal.SIGKILL)
        # One death under a multi-run chunk (charged to no run), then one per
        # attempt of the killer alone.
        assert _metric(result, "sweeps.workers.deaths") == self.FAST_RETRY.max_attempts + 1
        assert result.retried == self.FAST_RETRY.max_attempts - 1

        survivors = [r for r in requests if r.key != doomed]
        serial = run_campaign(survivors, store=tmp_path / "serial", jobs=1)
        assert json.dumps(result.ok_records, sort_keys=True) == json.dumps(
            serial.ok_records, sort_keys=True)
