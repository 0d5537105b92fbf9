"""A run reuses what its plan built, exactly and within bounds.

The schedule arrays a run would derive from a memoized object are computed
once, beside it: a CARMA table's owner messages
(:func:`repro.baselines.carma.carma_messages`) and a grid-family
decomposition's block sides, ownership widths, owned words and whole-exchange
sums (the cached properties of
:class:`~repro.core.decomposition.CosmaDecomposition`).  Held here:

* the arrays are read-only, so no run can corrupt a later one;
* a run on a warm plan memo and a run after :func:`plan_cache_clear` count
  the same bytes, for every registered algorithm in both modes;
* :func:`plan_cache_clear` leaves no derived array behind;
* in a campaign the plan pass computes them and no run does again: each
  CARMA point calls ``_owner_words`` three times, all under its planner, and
  each grid-family decomposition sums its whole exchange once, in the
  in-process slot and in forked workers;
* correctness does not rest on fork: spawned workers, which inherit nothing,
  store the same records.
"""

import dataclasses
import gc
import multiprocessing
import os
import sys
import weakref

import numpy as np
import pytest
from test_theorem2_chain import _decomposition

import repro.extensions.allgather  # noqa: F401 - registers AllGather1D
from repro.algorithms import get_algorithm, plan_cache_clear, registered_algorithms
from repro.baselines import cuboid
from repro.baselines.carma import carma_messages, carma_table, usable_ranks
from repro.baselines.summa import summa_decomposition
from repro.core.decomposition import CosmaDecomposition, _decompose, build_decomposition
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken
from repro.sweeps import SweepSpec, run_campaign
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

GRID240 = SweepSpec(
    name="grid240", algorithms=("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"),
    families=("square", "largeK", "largeM", "flat"), regimes=("limited", "extra"),
    p_values=(16, 64, 144, 256, 576, 1024), memory_words=2048, mode="volume", seed=0,
)
SQ1024 = Scenario(name="square-paper-p1024", shape=square_shape(4096), p=1024,
                  memory_words=101_000, regime="limited")


def _derived_arrays(decomposition: CosmaDecomposition) -> list[np.ndarray]:
    return [*decomposition.extents, *decomposition.owned_widths, decomposition.c_block_words,
            *decomposition.owned_words, *decomposition.exchange_totals]


class TestReadOnly:
    def test_boundary_and_derived_arrays_reject_writes(self):
        decomposition = build_decomposition(60, 50, 40, 24, 4096)
        for array in (decomposition.i_bounds, decomposition.j_bounds, decomposition.k_bounds,
                      decomposition.a_bounds, decomposition.b_bounds,
                      *_derived_arrays(decomposition)):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    def test_carma_messages_reject_writes(self):
        for triple in carma_messages(30, 20, 50, 16):
            for array in triple:
                with pytest.raises(ValueError, match="read-only"):
                    array += 1

    def test_replace_yields_a_fresh_object_with_nothing_cached(self):
        """The mutations of ``test_plane_ownership``: copied bounds through
        ``dataclasses.replace`` derive their own arrays."""
        decomposition = summa_decomposition(40, 30, 20, 6, 4096)
        held_before = decomposition.exchange_totals[0].copy()
        bounds = decomposition.a_bounds.copy()
        bounds[0, -1] = bounds[0, -2]
        mutated = dataclasses.replace(decomposition, a_bounds=bounds)
        assert mutated == decomposition and "exchange_totals" not in vars(mutated)
        assert mutated.exchange_totals[0].sum() < held_before.sum()
        np.testing.assert_array_equal(decomposition.exchange_totals[0], held_before)


def _observed(name: str, scenario: Scenario, mode: str) -> tuple:
    """Counter bytes, resident peak and busiest rank's rounds of one run."""
    shape = scenario.shape
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode=mode)
    if mode == "volume":
        a, b = ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n))
    else:
        a, b = shape.random_matrices(seed=0)
    get_algorithm(name).run(a, b, scenario, machine)
    return machine.counters.data.tobytes(), machine.peak_resident_words, machine.counters.max_rounds()


@pytest.mark.parametrize("mode", ["volume", "plane"])
def test_warm_and_cleared_memos_count_the_same_bytes(mode):
    """Every registered algorithm on a sample of grid240 (one point per
    family, regime and core count, algorithms in turn) and, in ``volume``,
    on sq1024: cold (the memo cleared), warm (planned first) and warm again
    (a second run on the same memo) agree byte for byte."""
    names = registered_algorithms()
    requests = GRID240.expand()[::len(GRID240.algorithms)]
    points = [(names[index % len(names)], request.scenario) for index, request in enumerate(requests)]
    if mode == "volume":
        points += [(name, SQ1024) for name in names]
    for name, scenario in points:
        plan_cache_clear()
        cold = _observed(name, scenario, mode)
        plan_cache_clear()
        get_algorithm(name).plan(scenario)
        warm = _observed(name, scenario, mode)
        assert cold == warm == _observed(name, scenario, mode), (name, scenario.name)


def test_plan_cache_clear_leaves_no_derived_array_behind():
    plan_cache_clear()
    scenario = GRID240.expand()[0].scenario
    shape, p, s = scenario.shape, scenario.p, scenario.memory_words
    for name in ("COSMA", "ScaLAPACK", "CARMA"):
        get_algorithm(name).plan(scenario)
    usable = usable_ranks(shape.m, shape.n, shape.k, p)
    summa = summa_decomposition(shape.m, shape.n, shape.k, p, s)
    held = [summa, *_derived_arrays(summa), carma_table(shape.m, shape.n, shape.k, usable),
            *(array for triple in carma_messages(shape.m, shape.n, shape.k, usable) for array in triple)]
    refs = [weakref.ref(obj) for obj in held]
    del held, summa
    plan_cache_clear()
    gc.collect()
    assert [ref for ref in refs if ref() is not None] == []
    assert (_decompose.cache_info().currsize, carma_table.cache_info().currsize,
            carma_messages.cache_info().currsize) == (0, 0, 0)


@pytest.fixture
def computations(monkeypatch, tmp_path):
    """Every ``_owner_words`` call and every whole-exchange ``exchange_sums``
    call, in this process and in any worker forked from it, as lines
    ``pid kind key`` of one append-only log; returns a reader of it."""
    log = tmp_path / "computations.log"
    owner_words, exchange_sums = cuboid._owner_words, CosmaDecomposition.exchange_sums

    def record(kind: str, key) -> None:
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {kind} {key}\n")

    def counting_owner_words(ranks, rows, cols):
        frame, planning = sys._getframe(1), False
        while frame is not None and not planning:
            planning, frame = frame.f_code.co_name == "_plan_carma", frame.f_back
        record("owner_words", "plan" if planning else "run")
        return owner_words(ranks, rows, cols)

    def counting_exchange_sums(decomposition, first=0, stop=None):
        if stop is None:
            record("exchange", id(decomposition))
        return exchange_sums(decomposition, first, stop)

    monkeypatch.setattr(cuboid, "_owner_words", counting_owner_words)
    monkeypatch.setattr(CosmaDecomposition, "exchange_sums", counting_exchange_sums)

    def read() -> list[tuple[int, str, str]]:
        if not log.exists():
            return []
        return [(int(pid), kind, key) for pid, kind, key in
                (line.split(" ", 2) for line in log.read_text().splitlines())]
    return read


@pytest.mark.parametrize("jobs", [1, 2], ids=["in-process", "forked"])
def test_a_campaign_computes_each_schedule_array_once(computations, tmp_path, monkeypatch, jobs):
    """The plan pass before any run (or fork) computes the messages and the
    sums; no run, in the supervisor's slot or in a forked worker, repeats it."""
    real_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: real_context("fork"))
    spec = dataclasses.replace(GRID240, p_values=(16, 144, 1024))
    plan_cache_clear()
    result = run_campaign(spec, store=tmp_path / "store", jobs=jobs)
    assert result.executed == len(spec.expand()) == 120 and result.failed == 0
    if jobs > 1:
        assert result.metrics["sweeps.workers.spawns"]["value"] == 2
    calls = computations()
    carma_points = sum(request.algorithm == "CARMA" for request in spec.expand())
    assert [kind for pid, kind, _ in calls if kind == "owner_words"] == ["owner_words"] * 3 * carma_points
    assert {(pid, key) for pid, kind, key in calls if kind == "owner_words"} == {(os.getpid(), "plan")}
    # The memo's entries (COSMA's and CTF's may be equal objects, each summed).
    decompositions = {str(id(_decomposition(request.algorithm, request.scenario)))
                      for request in spec.expand() if request.algorithm != "CARMA"}
    assert sorted(key for pid, kind, key in calls if kind == "exchange") == sorted(decompositions)
    assert {pid for pid, _, _ in calls} == {os.getpid()}


def test_spawned_workers_store_the_records_forked_ones_do(tmp_path, monkeypatch):
    """A 12-run campaign under ``spawn`` (nothing inherited: each worker
    builds its own schedules) stores exactly the records of the default
    start method's."""
    spec = SweepSpec(name="spawn", algorithms=("COSMA", "ScaLAPACK", "CTF", "CARMA"),
                     families=("square", "largeK", "flat"), regimes=("limited",),
                     p_values=(16,), memory_words=2048, mode="volume", seed=0)
    assert len(spec.expand()) == 12
    default = run_campaign(spec, store=tmp_path / "default", jobs=2)
    real_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: real_context("spawn"))
    spawned = run_campaign(spec, store=tmp_path / "spawn", jobs=2)
    assert spawned.executed == default.executed == 12 and spawned.failed == 0
    assert spawned.records == default.records
