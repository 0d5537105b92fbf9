"""Campaigns under crashes and interrupts: a dying worker, Ctrl-C, SIGTERM.

None of these may hang a campaign or lose what it stored.  A run whose
worker is SIGKILLed (as the kernel's out-of-memory killer would kill it) ends
the campaign with that run stored as a ``WorkerCrash`` failure; an interrupt
stores every finished chunk before it re-raises; two campaigns sharing one
store end with the records a serial campaign stores; and no worker process
outlives ``run_campaign``.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.algorithms import AlgorithmSpec, get_algorithm, register, unregister
from repro.sweeps.runner import run_campaign
from repro.sweeps.spec import SweepSpec
from repro.sweeps.store import ResultStore

pytestmark = pytest.mark.usefixtures("no_stray_workers")

_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the test-registered algorithm")
class TestWorkerCrash:
    def test_sigkilled_worker_ends_the_campaign_as_worker_crash(self, tmp_path, killer_algorithm):
        """No hang: the killed run is stored as ``WorkerCrash``, so is every
        run the broken pool lost, and every record stored before the death
        is the serial campaign's, byte for byte."""
        spec = SweepSpec(name="killer", algorithms=("COSMA", "ScaLAPACK", killer_algorithm),
                         p_values=(4, _DOOMED_P, 16, 25), memory_words=1024, mode="volume")
        requests = spec.expand()
        [doomed] = [r.key for r in requests
                    if r.algorithm == killer_algorithm and r.scenario.p == _DOOMED_P]
        result = run_campaign(spec, store=tmp_path / "pool", jobs=2)
        assert result.executed == len(requests) == 12
        crashed = {r["key"] for r in result.failed_records}
        assert doomed in crashed
        assert all(r["error"]["type"] == "WorkerCrash" for r in result.failed_records)
        assert result.metrics["sweeps.workers.deaths"]["value"] == 1

        serial = run_campaign([r for r in requests if r.key != doomed], store=tmp_path / "serial",
                              jobs=1)
        serial_bytes = {r["key"]: json.dumps(r, sort_keys=True) for r in serial.records}
        stored = ResultStore(tmp_path / "pool")
        assert stored.verify().torn_lines == 0
        for record in result.ok_records:
            assert json.dumps(stored.get(record["key"]), sort_keys=True) == serial_bytes[record["key"]]

        # The environment recovers: retry_failures re-runs exactly the lost runs.
        register(AlgorithmSpec(name=killer_algorithm, runner=get_algorithm("COSMA").runner),
                 replace=True)
        retried = run_campaign(spec, store=tmp_path / "pool", jobs=2, retry_failures=True)
        assert (retried.executed, retried.failed) == (len(crashed), 0)


def _check_worker_signals(a, b, scenario, machine):
    """Run COSMA, in a process that leaves Ctrl-C and SIGTERM to the campaign."""
    if (signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)) != (
            signal.SIG_IGN, signal.SIG_DFL):
        raise RuntimeError("a pool worker would take the campaign's interrupt")
    return get_algorithm("COSMA").runner(a, b, scenario, machine)


def _slow_cosma(a, b, scenario, machine):
    time.sleep(0.05)
    return get_algorithm("COSMA").runner(a, b, scenario, machine)


class TestCancellation:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the test-registered algorithm")
    def test_pool_workers_leave_interrupts_to_the_campaign(self, tmp_path):
        """A Ctrl-C reaches the whole process group: workers ignore it (and
        die on SIGTERM), so the campaign alone cancels and drains."""
        register(AlgorithmSpec(name="SignalCheck", runner=_check_worker_signals))
        try:
            spec = SweepSpec(name="signals", algorithms=("SignalCheck",), p_values=(4, 9, 16, 25),
                             memory_words=1024, mode="volume")
            result = run_campaign(spec, store=tmp_path / "store", jobs=2)
        finally:
            unregister("SignalCheck")
        assert (result.executed, result.failed) == (4, 0)

    def test_interrupt_mid_campaign_drains_and_reraises(self, tmp_path, spec):
        """An interrupt during a pool campaign stores the finished chunks and
        re-raises; the campaign then resumes from what it stored."""
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
        resumed = run_campaign(spec, store=store, jobs=2)
        assert resumed.cached >= len(seen)
        assert resumed.cached + resumed.executed == len(spec.expand())

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers must inherit the test-registered algorithm")
    def test_interrupt_stores_the_chunks_that_finish_while_it_waits(self, tmp_path):
        """The interrupt waits for the running chunks, so it stores them too:
        interrupted at the first report, the store holds more than that."""
        register(AlgorithmSpec(name="Slow", runner=_slow_cosma))
        try:
            spec = SweepSpec(name="slow", algorithms=("Slow",), p_values=(4, 9, 16, 25),
                             memory_words=1024, mode="volume")
            seen = []

            def interrupt_at_once(record, from_cache):
                seen.append(record)
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store=tmp_path / "store", jobs=2, progress=interrupt_at_once)
        finally:
            unregister("Slow")
        assert len(seen) == 1
        assert len(ResultStore(tmp_path / "store")) >= 2

    def test_interrupt_in_process_keeps_reported_records_and_resumes(self, tmp_path, spec):
        seen = []

        def interrupt_after_five(record, from_cache):
            seen.append(record)
            if len(seen) == 5:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store=tmp_path / "store", jobs=1, progress=interrupt_after_five)
        reloaded = ResultStore(tmp_path / "store")
        assert all(reloaded.get(record["key"]) == record for record in seen)
        resumed = run_campaign(spec, store=tmp_path / "store", jobs=1)
        assert resumed.cached >= len(seen)
        assert resumed.cached + resumed.executed == len(spec.expand())
        assert resumed.records == run_campaign(spec, store=tmp_path / "fresh", jobs=1).records

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="workers must inherit the script-registered algorithm")
    def test_sigterm_drains_to_store_and_exits(self, tmp_path):
        """SIGTERM behaves like KeyboardInterrupt: drain, re-raise, and leave
        no worker behind."""
        script = (
            "import multiprocessing, sys, time\n"
            "from repro.algorithms import AlgorithmSpec, get_algorithm, register\n"
            "from repro.sweeps.runner import run_campaign\n"
            "from repro.sweeps.spec import SweepSpec\n"
            "def slow(a, b, scenario, machine):\n"
            "    time.sleep(0.2)\n"
            "    return get_algorithm('COSMA').runner(a, b, scenario, machine)\n"
            "multiprocessing.set_start_method('fork')\n"
            "register(AlgorithmSpec(name='Slow', runner=slow))\n"
            "spec = SweepSpec(name='term-test', algorithms=('COSMA', 'Slow'),"
            " p_values=(4, 9, 16, 25), memory_words=1024)\n"
            "print('READY', flush=True)\n"
            "try:\n"
            "    run_campaign(spec, store=sys.argv[1], jobs=2)\n"
            "except KeyboardInterrupt:\n"
            "    sys.exit(18 if multiprocessing.active_children() else 17)\n"
            "sys.exit(0)\n"
        )
        store_path = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(store_path)],
            stdout=subprocess.PIPE, text=True, env=_ENV,
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
        assert proc.wait(timeout=30) == 17, "SIGTERM must re-raise after draining, workers gone"
        store = ResultStore(store_path)
        assert len(store) >= 2
        assert store.verify().clean


class TestSharedStore:
    def test_two_campaigns_one_store_end_with_the_serial_records(self, tmp_path, spec):
        """Nothing claims a key: two campaigns on one store may both run it.
        Appends are locked and records deterministic, so no line tears and
        the last write is the serial campaign's record."""
        script = (
            "import json, sys\n"
            "from repro.sweeps.runner import run_campaign\n"
            "from repro.sweeps.spec import SweepSpec\n"
            "spec = SweepSpec(name='chaos-test', algorithms=('COSMA', 'ScaLAPACK', 'CTF'),"
            " families=('square',), regimes=('limited',), p_values=(4, 9, 16, 25),"
            " memory_words=1024, mode='volume')\n"
            "result = run_campaign(spec, store=sys.argv[1], jobs=2)\n"
            "print(json.dumps({'executed': result.executed, 'cached': result.cached,"
            " 'failed': result.failed}))\n"
        )
        store_path = tmp_path / "shared"
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(store_path)],
                             stdout=subprocess.PIPE, text=True, env=_ENV)
            for _ in range(2)
        ]
        total = len(spec.expand())
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0, out
            outcome = json.loads(out.strip().splitlines()[-1])
            assert outcome["executed"] + outcome["cached"] == total and outcome["failed"] == 0

        store = ResultStore(store_path)
        report = store.verify()
        assert report.torn_lines == report.drifted_lines == 0
        assert report.live_records == total
        serial = run_campaign(spec, store=tmp_path / "serial", jobs=1)
        assert [store.get(r["key"]) for r in serial.records] == serial.records
