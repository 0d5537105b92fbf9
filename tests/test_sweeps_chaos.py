"""Deterministic chaos suite: campaigns under injected faults (``make chaos``).

The headline invariant (ISSUE 6 / ROADMAP fault-tolerance): with a seeded
:class:`~repro.sweeps.faults.FaultPlan` injecting worker crashes, deadline
trips, transient errors and torn/duplicated store writes at >= 20% of runs,
``run_campaign`` completes without hanging, every exhausted run is a
structured quarantined record, and the surviving ok-records are
byte-identical to a fault-free campaign over the same spec.

When ``REPRO_CHAOS_REPORT`` is set, the chaos tests write a JSON quarantine
report there *before* asserting, so CI can upload the evidence when the
invariant breaks.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.sweeps import runner
from repro.sweeps.faults import FaultPlan, TransientFault
from repro.sweeps.runner import run_campaign
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import ResultStore

#: Attempts per run in these campaigns (the default).
MAX_ATTEMPTS = 3


@pytest.fixture(autouse=True)
def _fast_retry(fast_retry):
    """Every campaign here retries on the fast backoff (same semantics)."""


@pytest.fixture
def spec() -> SweepSpec:
    return SweepSpec(
        name="chaos-test",
        algorithms=("COSMA", "ScaLAPACK", "CTF"),
        families=("square",),
        regimes=("limited",),
        p_values=(4, 9, 16, 25),
        memory_words=1024,
        mode="volume",
    )


def _ok_bytes(records) -> str:
    return json.dumps(
        [r for r in records if r.get("status") == "ok"], sort_keys=True,
    )


def _write_chaos_report(records, result) -> None:
    """Persist the quarantine report for CI artifact upload (before asserts)."""
    path = os.environ.get("REPRO_CHAOS_REPORT")
    if not path:
        return
    report = {
        "executed": result.executed,
        "retried": result.retried,
        "quarantined": result.quarantined,
        "metrics": result.metrics,
        "failed_records": [
            {"key": r["key"], "error": r["error"]}
            for r in records
            if r.get("status") == "failed"
        ],
    }
    existing = []
    report_file = Path(path)
    if report_file.exists():
        existing = json.loads(report_file.read_text())
    existing.append(report)
    report_file.write_text(json.dumps(existing, indent=2))


class TestFaultPlanDeterminism:
    def test_decisions_are_pure_functions_of_seed_and_key(self):
        plan = FaultPlan(seed=7, crash_rate=0.2, hang_rate=0.2, transient_rate=0.2,
                         torn_write_rate=0.2, duplicate_write_rate=0.2)
        keys = [f"key-{i}" for i in range(50)]
        first = [(plan.worker_fault(k), plan.store_fault(k)) for k in keys]
        second = [(plan.worker_fault(k), plan.store_fault(k)) for k in keys]
        assert first == second
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_rates_roughly_respected(self):
        plan = FaultPlan(seed=0, crash_rate=0.5)
        keys = [f"key-{i}" for i in range(400)]
        fraction = plan.faulted_fraction(keys)
        assert 0.35 < fraction < 0.65

    def test_faults_stop_after_faulted_attempts(self):
        plan = FaultPlan(seed=0, transient_rate=1.0, faulted_attempts=2)
        assert plan.worker_fault("k", 1) == "transient"
        assert plan.worker_fault("k", 2) == "transient"
        assert plan.worker_fault("k", 3) is None
        with pytest.raises(TransientFault):
            plan.inject("k", 1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=0.7, hang_rate=0.7)


class TestChaosInvariant:
    def test_faulted_campaign_converges_to_fault_free_records(self, tmp_path, spec):
        """The headline chaos invariant (acceptance criterion 3)."""
        baseline = run_campaign(spec, store=tmp_path / "clean", jobs=1)
        plan = FaultPlan(
            seed=3, crash_rate=0.12, hang_rate=0.08, transient_rate=0.12,
            torn_write_rate=0.08, duplicate_write_rate=0.08, hang_s=8.0,
        )
        keys = [request.key for request in spec.expand()]
        assert plan.faulted_fraction(keys) >= 0.2, "chaos run must fault >= 20% of runs"

        chaos_store = ResultStore(tmp_path / "chaos")
        result = run_campaign(
            spec, store=chaos_store, jobs=2, timeout_s=1.0,
            faults=plan,
        )
        _write_chaos_report(result.records, result)

        # Faults fire on the first attempt only, so every run converges: no
        # quarantine, and the ok-records are byte-identical to fault-free.
        assert result.executed == len(keys)
        assert result.quarantined == 0 and result.failed == 0
        assert result.retried > 0, "the plan must actually have injected worker faults"
        assert _ok_bytes(result.records) == _ok_bytes(baseline.records)

        # Store-side faults left torn/duplicate debris; compaction restores
        # a clean file without changing any record.
        report = chaos_store.verify()
        assert report.torn_lines + report.duplicate_lines > 0
        before = {key: chaos_store.get(key) for key in chaos_store.keys()}
        dropped = chaos_store.compact()
        assert dropped > 0
        after_verify = chaos_store.verify()
        assert after_verify.clean and after_verify.live_records == len(keys)
        assert {key: chaos_store.get(key) for key in chaos_store.keys()} == before

    def test_sigkilled_worker_quarantined_with_taxonomy(self, tmp_path, spec):
        """Acceptance criterion 4: SIGKILL mid-run neither hangs the campaign
        nor loses other workers' records; the exhausted run's record carries
        attempts / exit_signal."""
        baseline = run_campaign(spec, store=tmp_path / "clean", jobs=1)
        plan = FaultPlan(seed=3, crash_rate=0.3, faulted_attempts=99)
        keys = [request.key for request in spec.expand()]
        doomed = {key for key in keys if plan.worker_fault(key) == "crash"}
        assert doomed, "seed must doom at least one run"

        result = run_campaign(
            spec, store=tmp_path / "chaos", jobs=2, faults=plan,
        )
        _write_chaos_report(result.records, result)

        assert result.quarantined == len(doomed)
        for record in result.records:
            if record["key"] not in doomed:
                continue
            error = record["error"]
            assert record["status"] == "failed"
            assert error["type"] == "WorkerCrash"
            assert error["attempts"] == MAX_ATTEMPTS
            assert error["exit_signal"] == int(signal.SIGKILL)
            assert error["retryable"] is True
            assert error["duration_s"] >= 0.0
        # Every non-doomed run survived, byte-identical to fault-free.
        surviving = [r for r in baseline.records if r["key"] not in doomed]
        assert _ok_bytes(result.records) == _ok_bytes(surviving)

    def test_deadline_trip_recovers_on_retry(self, tmp_path):
        spec = SweepSpec(name="hang-test", algorithms=("COSMA",),
                         p_values=(4, 9, 16, 25), memory_words=1024)
        plan = FaultPlan(seed=0, hang_rate=1.0, hang_s=30.0)
        result = run_campaign(
            spec, store=tmp_path / "store", jobs=2, timeout_s=0.5,
            faults=plan,
        )
        assert result.failed == 0
        assert result.retried == len(spec.expand())

    def test_transient_faults_recover_in_process_too(self, tmp_path):
        """jobs=1 without a deadline still executes supervised when a fault
        plan is attached, and transient errors retry to success."""
        spec = SweepSpec(name="transient-test", algorithms=("COSMA",),
                         p_values=(4, 9), memory_words=1024)
        plan = FaultPlan(seed=0, transient_rate=1.0)
        result = run_campaign(
            spec, store=tmp_path / "store", jobs=1, faults=plan,
        )
        assert result.failed == 0
        assert result.retried == len(spec.expand())


class TestConcurrentCampaigns:
    def test_two_campaigns_one_store_no_duplicate_execution(self, tmp_path, spec):
        """Acceptance criterion 5: concurrent campaigns sharing one store
        split the keys via leases; verify reports the store clean."""
        script = (
            "import json, sys\n"
            "from repro.sweeps.runner import run_campaign\n"
            "from repro.sweeps.spec import SweepSpec\n"
            "spec = SweepSpec(name='chaos-test', algorithms=('COSMA', 'ScaLAPACK', 'CTF'),"
            " families=('square',), regimes=('limited',), p_values=(4, 9, 16, 25),"
            " memory_words=1024, mode='volume')\n"
            "result = run_campaign(spec, store=sys.argv[1], jobs=2)\n"
            "print(json.dumps({'executed': result.executed, 'cached': result.cached,"
            " 'deferred': result.deferred, 'failed': result.failed}))\n"
        )
        store_path = tmp_path / "shared"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(store_path)],
                stdout=subprocess.PIPE, text=True, env=env,
            )
            for _ in range(2)
        ]
        outcomes = []
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out
            outcomes.append(json.loads(out.strip().splitlines()[-1]))

        total = len(spec.expand())
        executed = sum(o["executed"] for o in outcomes)
        resolved = sum(o["executed"] + o["cached"] + o["deferred"] for o in outcomes)
        assert executed <= total, "leased keys must never execute twice"
        assert resolved == 2 * total
        assert all(o["failed"] == 0 for o in outcomes)

        store = ResultStore(store_path)
        report = store.verify()
        assert report.clean, report.summary()
        assert report.live_records == total
        assert store.live_leases() == {}

    def test_lapsed_lease_is_reclaimed(self, tmp_path, monkeypatch):
        """A crashed campaign's leases expire; a later campaign takes over."""
        monkeypatch.setattr(runner, "LEASE_TTL_S", 0.5)
        spec = SweepSpec(name="lease-test", algorithms=("COSMA",),
                         p_values=(4, 9), memory_words=1024)
        store = ResultStore(tmp_path / "store")
        keys = [request.key for request in spec.expand()]
        granted = store.acquire_leases(keys, owner="ghost-campaign", ttl_s=0.5)
        assert granted == set(keys)
        result = run_campaign(spec, store=store, jobs=1)
        assert result.executed + result.deferred == len(keys)
        assert result.failed == 0
        assert store.live_leases() == {}


class TestCancellation:
    def test_interrupt_mid_campaign_drains_and_reraises(self, tmp_path, spec):
        """Satellite: an interrupt during the jobs>1 branch must persist
        already-finished records to the store and re-raise."""
        seen = []

        def interrupt_after_three(record, from_cache):
            seen.append(record)
            if len(seen) == 3:
                raise KeyboardInterrupt

        store = ResultStore(tmp_path / "store")
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store=store, jobs=2, progress=interrupt_after_three)
        # Every record reported before the interrupt is durably stored --
        # reloading from disk (not the in-memory index) must see them all.
        reloaded = ResultStore(tmp_path / "store")
        for record in seen:
            assert reloaded.get(record["key"]) == record
        assert reloaded.verify().torn_lines == 0
        # The campaign's leases were released on the way out.
        assert store.live_leases() == {}
        # And the interrupted campaign resumes instead of starting over.
        resumed = run_campaign(spec, store=store, jobs=2)
        assert resumed.cached >= len(seen)
        assert resumed.cached + resumed.executed == len(spec.expand())

    def test_sigterm_drains_to_store_and_exits(self, tmp_path):
        """SIGTERM behaves like KeyboardInterrupt: drain, release, re-raise."""
        script = (
            "import sys\n"
            "from repro.sweeps.faults import FaultPlan\n"
            "from repro.sweeps.runner import run_campaign\n"
            "from repro.sweeps.spec import SweepSpec\n"
            "spec = SweepSpec(name='term-test', algorithms=('COSMA', 'ScaLAPACK'),"
            " p_values=(4, 9, 16, 25), memory_words=1024)\n"
            "plan = FaultPlan(seed=0, hang_rate=1.0, hang_s=0.4, faulted_attempts=99)\n"
            "print('READY', flush=True)\n"
            "try:\n"
            "    run_campaign(spec, store=sys.argv[1], jobs=2, faults=plan)\n"
            "except KeyboardInterrupt:\n"
            "    sys.exit(17)\n"
            "sys.exit(0)\n"
        )
        store_path = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(store_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        assert proc.stdout.readline().strip() == "READY"
        results_file = store_path / "results.jsonl"
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if results_file.exists() and results_file.read_bytes().count(b"\n") >= 2:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            pytest.fail("campaign never stored its first records")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 17, "SIGTERM must re-raise after draining"
        store = ResultStore(store_path)
        assert len(store) >= 2
        assert store.verify().torn_lines == 0
        assert store.live_leases() == {}
