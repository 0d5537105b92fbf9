"""``shards`` is accepted and not read: every product is computed in process.

A run at any shard count starts no worker process, through every entry
point (``run_algorithm``, ``repro.multiply``, a registered runner on a bare
machine), and so a script without a ``__main__`` guard may ask for
``shards=2`` under the ``spawn`` start method.
"""

import multiprocessing.process
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms import get_algorithm
from repro.experiments.harness import run_algorithm
from repro.machine.simulator import DistributedMachine
from repro.workloads.scaling import limited_memory_sweep

SCENARIO = limited_memory_sweep("square", [9], 2048)[0]
SHARDS = 2


@pytest.fixture
def no_process_start(monkeypatch, no_stray_workers):
    """Fail on any ``Process.start`` in the test."""
    # A pool cached by an earlier test would serve a run without starting a
    # process; drop it, so a run that uses one must start its workers.
    shard = sys.modules.get("repro.machine.shard")
    if shard is not None:
        shard.evict_pool(SHARDS)

    def refuse(process):
        raise AssertionError(f"a shards={SHARDS} run started a process: {process!r}")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)


@pytest.mark.usefixtures("no_process_start")
class TestNoProcess:
    @pytest.mark.parametrize("plane_dtype", ["float64", "float32"])
    def test_run_algorithm(self, plane_dtype):
        run = run_algorithm("COSMA", SCENARIO, mode="plane", shards=SHARDS, plane_dtype=plane_dtype)
        assert run.verified and run.correct

    def test_multiply(self):
        a, b = SCENARIO.shape.random_matrices(seed=0)
        report = repro.multiply(a, b, SCENARIO.p, SCENARIO.memory_words, shards=SHARDS)
        assert report.correct
        assert np.array_equal(report.matrix,
                              repro.multiply(a, b, SCENARIO.p, SCENARIO.memory_words).matrix)

    def test_bare_runner(self):
        a, b = SCENARIO.shape.random_matrices(seed=0)
        machine = DistributedMachine(SCENARIO.p, memory_words=SCENARIO.memory_words,
                                     mode="plane", shards=SHARDS)
        product = get_algorithm("COSMA").runner(a, b, SCENARIO, machine)
        assert np.allclose(product, a @ b)


#: No ``if __name__ == "__main__":`` guard: a spawned child re-runs all of it.
_UNGUARDED = """
import multiprocessing

import numpy as np

import repro

multiprocessing.set_start_method("spawn", force=True)
a = np.arange(32 * 16, dtype=np.float64).reshape(32, 16) / 7
b = np.ones((16, 24))
report = repro.multiply(a, b, 4, 4096, shards=2)
assert report.correct and np.allclose(report.matrix, a @ b)
print("verified")
"""


def test_an_unguarded_spawn_script_runs_sharded(tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    completed = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "verified"
