"""Compression-parity tests: ``compress_rounds`` must never change a counter.

Steady-state round compression (:class:`repro.machine.counters.RoundCompressor`)
replays cached counter deltas instead of re-executing structurally identical
rounds.  Its whole contract is that this is invisible in the results: for
every registered algorithm, under every transport mode, the per-rank
:class:`~repro.machine.counters.RankCounters` (including the incremental
``round_start_words`` bookkeeping) must be byte-identical with and without
compression.  A property-based layer (hypothesis) varies the scenario grid
beyond the hand-picked points.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm, registered_algorithms
from repro.experiments.harness import run_algorithm
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, ShapeToken
from repro.workloads.scaling import (
    Scenario,
    extra_memory_sweep,
    limited_memory_sweep,
)
from repro.workloads.shapes import square_shape

settings.register_profile("repro-compression", max_examples=25, deadline=None)


def _per_rank_counters(name, scenario, mode, compress_rounds):
    machine = DistributedMachine(
        scenario.p, memory_words=scenario.memory_words, mode=mode,
        compress_rounds=compress_rounds,
    )
    if mode == "volume":
        a = ShapeToken((scenario.shape.m, scenario.shape.k))
        b = ShapeToken((scenario.shape.k, scenario.shape.n))
    else:
        a, b = scenario.shape.random_matrices(seed=0)
    get_algorithm(name).runner(a, b, scenario, machine)
    return [rank.counters.copy() for rank in machine.ranks], machine


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(registered_algorithms()))
def test_compression_parity_every_algorithm_every_transport(name, mode):
    """compress_rounds=True/False produce identical CommCounters everywhere."""
    scenario = limited_memory_sweep("square", [16], 2048)[0]
    reference, _ = _per_rank_counters(name, scenario, mode, compress_rounds=False)
    compressed, machine = _per_rank_counters(name, scenario, mode, compress_rounds=True)
    assert compressed == reference, f"{name} counters diverge under compression in {mode} mode"
    if mode != "volume":
        # Compression is a counters-only optimization; with real payloads the
        # flag must be inert.
        assert machine.compressor is None


def test_compression_actually_replays_rounds():
    """The steady state must hit the delta cache, not just trivially match."""
    scenario = limited_memory_sweep("square", [64], 2048)[0]
    _, machine = _per_rank_counters("Cannon", scenario, "volume", compress_rounds=True)
    assert machine.compressor is not None
    assert machine.compressor.replayed_rounds > 0
    assert machine.compressor.executed_rounds < machine.compressor.replayed_rounds + 4


def test_paper_scale_fingerprints_compress_cosma():
    """COSMA's round classes must repeat across chunk offsets.

    A long local-k run (many single-step chunks per ownership slice) is the
    paper-scale steady state in miniature: almost every round must replay a
    class delta.  The batched engine does that with the flag on or off and
    reports it through the compressor's tallies when there is one.
    """
    scenario = Scenario(
        name="compress-probe-p64", shape=square_shape(1024), p=64,
        memory_words=4096, regime="limited",
    )
    reference, _ = _per_rank_counters("COSMA", scenario, "volume", compress_rounds=False)
    compressed, machine = _per_rank_counters("COSMA", scenario, "volume", compress_rounds=True)
    assert compressed == reference
    compressor = machine.compressor
    assert compressor.replayed_rounds > 10 * compressor.executed_rounds


@settings(settings.get_profile("repro-compression"))
@given(
    name=st.sampled_from(sorted(registered_algorithms())),
    family=st.sampled_from(["square", "largeK", "largeM"]),
    regime=st.sampled_from(["limited", "extra"]),
    p=st.sampled_from([4, 9, 16, 25, 36]),
    memory_words=st.sampled_from([1024, 2048, 4096]),
)
def test_compression_parity_property(name, family, regime, p, memory_words):
    sweep_fn = limited_memory_sweep if regime == "limited" else extra_memory_sweep
    scenario = sweep_fn(family, [p], memory_words)[0]
    reference, _ = _per_rank_counters(name, scenario, "volume", compress_rounds=False)
    compressed, _ = _per_rank_counters(name, scenario, "volume", compress_rounds=True)
    assert compressed == reference, (
        f"{name} on {scenario.name}: counters diverge under compression"
    )


@settings(settings.get_profile("repro-compression"))
@given(
    name=st.sampled_from(sorted(registered_algorithms())),
    p=st.sampled_from([4, 16, 36]),
)
def test_compressed_harness_runs_conserve_words(name, p):
    """The harness-level plumbing keeps the conservation assertion intact."""
    scenario = limited_memory_sweep("square", [p], 2048)[0]
    run = run_algorithm(name, scenario, mode="volume", compress_rounds=True)
    baseline = run_algorithm(name, scenario, mode="volume", compress_rounds=False)
    assert run == baseline
