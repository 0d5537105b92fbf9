"""Resident words: the engines' posted ledger against the per-hop stores.

The per-hop reference (``tests/oracle``) keeps every block in a rank's store
and moves that rank's resident words with every block it stores; the engines
post the same sizes as whole-machine array expressions and store nothing.
For every built-in algorithm, on drawn grids (idle ranks, grid dimensions of
1, uneven splits, a second run on the same machine), the two must agree on
everything memory accounting reports: the resident peak, what
``check_memory()`` returns after the run, and -- with ``enforce_memory`` --
whether a budget of exactly the peak passes and one word less raises, naming
the rank that first reached the peak.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import HopMachine, cuboid, grid

from repro.baselines.cannon import cannon_decomposition, cannon_multiply
from repro.baselines.carma import carma_multiply, carma_table, usable_ranks
from repro.baselines.grid25d import grid25d_decomposition, grid25d_multiply
from repro.baselines.summa import summa_decomposition, summa_multiply
from repro.core.cosma import cosma_multiply
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.machine.simulator import DistributedMachine, LocalMemoryExceededError
from repro.machine.transport import ShapeToken


@st.composite
def cases(draw):
    """``(label, p, (m, n, k), run, reference)``: ``run(a, b, machine)`` executes
    one multiplication on an engine, ``reference(a, b, hop_machine)`` the same
    one on the per-hop reference."""
    name = draw(st.sampled_from(["COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"]))
    idle = draw(st.integers(0, 2))
    if name in ("CARMA", "Cannon"):
        p = draw(st.integers(1, 18))  # CARMA uses a power of two, Cannon a square: the rest idle
        m, n, k = (draw(st.integers(1, 20)) for _ in range(3))
        if name == "CARMA":
            table = carma_table(m, n, k, usable_ranks(m, n, k, p))
            return (f"CARMA p={p}", p, (m, n, k),
                    lambda a, b, machine: carma_multiply(a, b, p, machine=machine),
                    lambda a, b, machine: cuboid.cuboid(machine, table, a, b))
        decomposition = cannon_decomposition(m, n, k, p, 1 << 20)
        return (f"Cannon p={p}", p, (m, n, k),
                lambda a, b, machine: cannon_multiply(a, b, p, machine=machine),
                lambda a, b, machine: grid.cannon(machine, decomposition, a, b))
    pm, pn, pk = (draw(st.integers(1, 4)) for _ in range(3))
    m = draw(st.integers(pm, 24))
    n = draw(st.integers(pn, 24))
    k = draw(st.integers(pk, 48))
    lm, ln = -(-m // pm), -(-n // pn)
    # S decides the step / panel width: from one outer product per round to all of k.
    memory = lm * ln + draw(st.integers(1, -(-k // pk))) * (lm + ln)
    if name == "COSMA":
        cosma_grid = ProcessorGrid(pm, pn, pk)
        p = cosma_grid.p_used + idle
        use_rma = draw(st.booleans())
        decomposition = build_decomposition(m, n, k, p, memory, grid=cosma_grid)
        return (f"COSMA {cosma_grid.as_tuple()} S={memory} rma={use_rma}", p, (m, n, k),
                lambda a, b, machine: cosma_multiply(
                    a, b, p, memory, machine=machine, grid=cosma_grid, use_rma=use_rma),
                lambda a, b, machine: grid.cosma(machine, decomposition, a, b, use_rma))
    if name == "ScaLAPACK":
        p = pm * pn + idle
        decomposition = summa_decomposition(m, n, k, p, memory, grid=(pm, pn))
        return (f"ScaLAPACK {(pm, pn)} S={memory}", p, (m, n, k),
                lambda a, b, machine: summa_multiply(
                    a, b, p, machine=machine, memory_words=memory, grid=(pm, pn)),
                lambda a, b, machine: grid.panels(machine, decomposition, a, b, "tree"))
    p = pm * pn * pk + idle
    decomposition = grid25d_decomposition(m, n, k, p, memory, grid=(pm, pn, pk))
    return (f"CTF {(pm, pn, pk)}", p, (m, n, k),
            lambda a, b, machine: grid25d_multiply(
                a, b, p, memory, machine=machine, grid=(pm, pn, pk)),
            lambda a, b, machine: grid.grid25d(machine, decomposition, a, b))


def _inputs(mode, m, n, k):
    if mode == "volume":
        return ShapeToken((m, k)), ShapeToken((k, n))
    rng = np.random.default_rng(0)
    return rng.random((m, k)), rng.random((k, n))


def _memory_report(case, mode, runs, budget=None):
    """``(peak, final check_memory(), error message)`` of ``runs`` engine runs on one machine."""
    _label, p, (m, n, k), run, _reference = case
    machine = DistributedMachine(
        p, memory_words=budget or (1 << 40), enforce_memory=bool(budget), mode=mode)
    a, b = _inputs(mode, m, n, k)
    error = None
    try:
        for _ in range(runs):
            run(a, b, machine)
    except LocalMemoryExceededError as exc:
        error = str(exc)
    machine.enforce_memory = False
    return machine.peak_resident_words, machine.check_memory(), error


def _reference_report(case, runs):
    """The per-hop reference's ``(peak, final check_memory(), rank that first
    held the peak)`` after ``runs`` runs on one hop machine."""
    _label, p, (m, n, k), _run, reference = case
    machine = HopMachine(p)
    first_at_peak = []

    def check_memory():
        worst = max(machine.resident)
        if worst > machine.peak_resident_words:
            first_at_peak[:] = [machine.resident.index(worst)]
            machine.peak_resident_words = worst
        return worst

    machine.check_memory = check_memory
    a, b = _inputs("plane", m, n, k)
    for _ in range(runs):
        reference(a, b, machine)
    return machine.peak_resident_words, check_memory(), first_at_peak[0] if first_at_peak else None


@settings(max_examples=120, deadline=None)
@given(case=cases(), runs=st.integers(1, 2), mode=st.sampled_from(["volume", "plane"]))
def test_batched_engines_report_the_per_hop_memory(case, runs, mode):
    peak, final, offender = _reference_report(case, runs)
    assert final > 0
    assert _memory_report(case, mode, runs) == (peak, final, None)
    if peak == 0:  # a 1 x 1 Cannon grid finishes before its first check
        return

    assert _memory_report(case, mode, runs, budget=peak) == (peak, final, None)
    if peak > 1:
        tight = _memory_report(case, mode, runs, budget=peak - 1)
        assert tight[2] == (f"rank {offender} holds {peak} words which exceeds "
                            f"the local memory S={peak - 1}")


def test_idle_ranks_hold_nothing():
    """Cannon on p=7 uses a 2 x 2 grid: ranks 4-6 stay at zero resident words."""
    machine = DistributedMachine(7, mode="volume")
    cannon_multiply(ShapeToken((6, 6)), ShapeToken((6, 6)), 7, machine=machine)
    q = math.isqrt(7)
    assert [machine.rank(r).resident_words() > 0 for r in range(7)] == [True] * (q * q) + [False] * 3
