"""COSMA's batched engine posts each distinct round once (round classes).

The engine's contract is that nobody can tell: raw counter bytes, round
volumes, the resident peak and the per-round spans equal the per-hop
``legacy`` loop's, with one-sided gets or tree broadcasts, on a fresh machine
or one that already holds counters, traced or not, ``compress_rounds`` on or
off.  The plane-mode product comes from one GEMM into a single C sheet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import get_algorithm
from repro.core.cosma import cosma_multiply
from repro.core.grid import ProcessorGrid
from repro.experiments.harness import run_algorithm
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken, allclose_tolerances
from repro.obs import tracing
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape


def _run(m, n, k, grid, idle, memory_words, mode, use_rma=False, runs=1,
         compress_rounds=False, plane_dtype="float64", shards=1):
    """``runs`` COSMA multiplications on one machine; the machine and the last result."""
    p = grid.p_used + idle
    machine = DistributedMachine(
        p, memory_words=memory_words, mode=mode, compress_rounds=compress_rounds,
        plane_dtype=plane_dtype, shards=shards,
    )
    if mode == "volume":
        a, b = ShapeToken((m, k)), ShapeToken((k, n))
    else:
        rng = np.random.default_rng(0)
        a, b = rng.random((m, k)), rng.random((k, n))
    for _ in range(runs):
        result = cosma_multiply(a, b, p, memory_words, machine=machine, grid=grid,
                                use_rma=use_rma)
    return machine, result


def _observables(machine, result):
    return (
        machine.counters.matrix.data.tobytes(),
        result.num_rounds,
        result.round_volumes,
        result.peak_resident_words,
    )


@st.composite
def problems(draw):
    """``(m, n, k, grid, idle ranks, S)`` with every awkward schedule shape.

    Grids are drawn, not fitted, so pm = 1, pn = 1 and pk = 1 all occur; k is
    rarely a multiple of pk (uneven layers: the short ones run out of rounds
    before the long ones); S decides the step size, from one outer product per
    round (many rounds, a last partial chunk) to the whole layer in one.
    """
    pm, pn, pk = (draw(st.integers(1, 4)) for _ in range(3))
    m = draw(st.integers(pm, 24))
    n = draw(st.integers(pn, 24))
    k = draw(st.integers(pk, 60))
    lm, ln = -(-m // pm), -(-n // pn)
    step = draw(st.integers(1, -(-k // pk)))
    return (m, n, k, ProcessorGrid(pm, pn, pk), draw(st.integers(0, 2)),
            lm * ln + step * (lm + ln) + draw(st.integers(0, lm + ln - 1)))


@settings(max_examples=60, deadline=None)
@given(problem=problems(), use_rma=st.booleans())
def test_volume_run_equals_the_per_hop_loop(problem, use_rma):
    reference = _observables(*_run(*problem, mode="legacy", use_rma=use_rma))
    assert _observables(*_run(*problem, mode="volume", use_rma=use_rma)) == reference


@pytest.mark.parametrize("use_rma", [False, True])
def test_machine_entered_with_counters(use_rma):
    """Two runs on one machine: deltas land on top of what is already there."""
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    reference = _observables(*_run(*problem, mode="legacy", use_rma=use_rma, runs=2))
    assert _observables(*_run(*problem, mode="volume", use_rma=use_rma, runs=2)) == reference


def _round_spans(problem, mode, **options):
    with tracing() as tracer:
        _run(*problem, mode=mode, **options)
    return [
        {key: args[key] for key in ("label", "words_posted", "flops", "hops")}
        for _name, _cat, _start, _dur, args, _track in tracer.spans("round")
    ]


@pytest.mark.parametrize("use_rma", [False, True])
def test_traced_spans_equal_the_per_hop_loops(use_rma):
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    reference = _round_spans(problem, "legacy", use_rma=use_rma)
    assert len(reference) > 5
    assert _round_spans(problem, "volume", use_rma=use_rma) == reference
    assert _round_spans(problem, "volume", use_rma=use_rma, compress_rounds=True) == reference


def test_compress_rounds_changes_nothing():
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    plain_machine, plain = _run(*problem, mode="volume")
    machine, compressed = _run(*problem, mode="volume", compress_rounds=True)
    assert _observables(machine, compressed) == _observables(plain_machine, plain)
    assert machine.round_log == plain_machine.round_log
    # The tallies come from the class counts: every round is one or the other.
    tallies = machine.compressor
    assert tallies.executed_rounds + tallies.replayed_rounds == compressed.num_rounds
    assert 0 < tallies.executed_rounds < compressed.num_rounds


def test_top_of_the_strong_scaling_range():
    """COSMA 16384^3 on p=16384, S=101000: values captured at the parent (2.2-2.6 s there)."""
    scenario = Scenario(name="square-paper-p16384", shape=square_shape(16384), p=16384,
                        memory_words=101_000, regime="limited")
    assert get_algorithm("COSMA").plan(scenario).grid == (47, 58, 6)
    run = run_algorithm("COSMA", scenario, mode="volume")
    assert run.mean_words_per_rank == 3538944.0
    assert run.max_words_per_rank == 3692763
    assert run.rounds == 3717
    assert run.total_flops == 8797435199488


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("plane_dtype", ["float64", "float32"])
def test_plane_product_from_the_single_sheet(plane_dtype, shards):
    m, n, k = 37, 29, 83
    machine, result = _run(m, n, k, ProcessorGrid(2, 3, 3), 0, 4000, mode="plane",
                           plane_dtype=plane_dtype, shards=shards)
    assert machine.get_plane("cosma.C").data.shape == (1, m, n)
    assert result.matrix.dtype == np.dtype(plane_dtype)
    rng = np.random.default_rng(0)
    expected = rng.random((m, k)) @ rng.random((k, n))
    rtol, atol_unit = allclose_tolerances(result.matrix.dtype)
    assert np.allclose(result.matrix, expected, rtol=rtol, atol=atol_unit * k)
    reference = _observables(*_run(m, n, k, ProcessorGrid(2, 3, 3), 0, 4000, mode="legacy"))
    assert _observables(machine, result) == reference
