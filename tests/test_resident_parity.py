"""Resident words: the batched engines' posted ledger against the per-hop stores.

The per-hop executors keep every block in a rank's store and ``Rank.put``
moves the machine's resident-words vector one rank at a time; the batched
engines post the same sizes as whole-machine array expressions and store
nothing.  For every built-in algorithm, on drawn grids (idle ranks, grid
dimensions of 1, uneven splits, a second run on the same machine), the two
must agree on everything memory accounting reports: the resident peak, what
``check_memory()`` returns after the run, and -- with ``enforce_memory`` --
whether a budget of exactly the peak passes and one word less raises, naming
the same rank with the same message.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.cannon import cannon_multiply
from repro.baselines.carma import carma_multiply
from repro.baselines.grid25d import grid25d_multiply
from repro.baselines.summa import summa_multiply
from repro.core.cosma import cosma_multiply
from repro.core.grid import ProcessorGrid
from repro.machine.simulator import DistributedMachine, LocalMemoryExceededError
from repro.machine.transport import ShapeToken


@st.composite
def cases(draw):
    """``(label, p, (m, n, k), run)``; ``run(a, b, machine)`` executes one multiplication."""
    name = draw(st.sampled_from(["COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"]))
    idle = draw(st.integers(0, 2))
    if name in ("CARMA", "Cannon"):
        p = draw(st.integers(1, 18))  # CARMA uses a power of two, Cannon a square: the rest idle
        m, n, k = (draw(st.integers(1, 20)) for _ in range(3))
        multiply = carma_multiply if name == "CARMA" else cannon_multiply
        return f"{name} p={p}", p, (m, n, k), lambda a, b, machine: multiply(a, b, p, machine=machine)
    pm, pn, pk = (draw(st.integers(1, 4)) for _ in range(3))
    m = draw(st.integers(pm, 24))
    n = draw(st.integers(pn, 24))
    k = draw(st.integers(pk, 48))
    lm, ln = -(-m // pm), -(-n // pn)
    # S decides the step / panel width: from one outer product per round to all of k.
    memory = lm * ln + draw(st.integers(1, -(-k // pk))) * (lm + ln)
    if name == "COSMA":
        grid = ProcessorGrid(pm, pn, pk)
        p = grid.p_used + idle
        use_rma = draw(st.booleans())
        return (f"COSMA {grid.as_tuple()} S={memory} rma={use_rma}", p, (m, n, k),
                lambda a, b, machine: cosma_multiply(
                    a, b, p, memory, machine=machine, grid=grid, use_rma=use_rma))
    if name == "ScaLAPACK":
        p = pm * pn + idle
        return (f"ScaLAPACK {(pm, pn)} S={memory}", p, (m, n, k),
                lambda a, b, machine: summa_multiply(
                    a, b, p, machine=machine, memory_words=memory, grid=(pm, pn)))
    p = pm * pn * pk + idle
    return (f"CTF {(pm, pn, pk)}", p, (m, n, k),
            lambda a, b, machine: grid25d_multiply(
                a, b, p, memory, machine=machine, grid=(pm, pn, pk)))


def _memory_report(case, mode, runs, budget=None):
    """``(peak, final check_memory(), error message)`` of ``runs`` runs on one machine."""
    _label, p, (m, n, k), run = case
    machine = DistributedMachine(
        p, memory_words=budget or (1 << 40), enforce_memory=bool(budget), mode=mode)
    if mode == "volume":
        a, b = ShapeToken((m, k)), ShapeToken((k, n))
    else:
        rng = np.random.default_rng(0)
        a, b = rng.random((m, k)), rng.random((k, n))
    error = None
    try:
        for _ in range(runs):
            run(a, b, machine)
    except LocalMemoryExceededError as exc:
        error = str(exc)
    machine.enforce_memory = False
    return machine.peak_resident_words, machine.check_memory(), error


@settings(max_examples=120, deadline=None)
@given(case=cases(), runs=st.integers(1, 2), mode=st.sampled_from(["volume", "plane"]))
def test_batched_engines_report_the_per_hop_memory(case, runs, mode):
    reference = _memory_report(case, "legacy", runs)
    peak, final, error = reference
    assert error is None and final > 0
    assert _memory_report(case, mode, runs) == reference
    if peak == 0:  # a 1 x 1 Cannon grid finishes before its first check
        return

    fits = _memory_report(case, "legacy", runs, budget=peak)
    assert fits == reference
    assert _memory_report(case, mode, runs, budget=peak) == fits
    if peak > 1:
        tight = _memory_report(case, "legacy", runs, budget=peak - 1)
        assert tight[2] is not None and f"S={peak - 1}" in tight[2]
        assert _memory_report(case, mode, runs, budget=peak - 1) == tight


def test_idle_ranks_hold_nothing():
    """Cannon on p=7 uses a 2 x 2 grid: ranks 4-6 stay at zero resident words."""
    machine = DistributedMachine(7, mode="volume")
    cannon_multiply(ShapeToken((6, 6)), ShapeToken((6, 6)), 7, machine=machine)
    q = math.isqrt(7)
    assert [rank.resident_words() > 0 for rank in machine.ranks] == [True] * (q * q) + [False] * 3
