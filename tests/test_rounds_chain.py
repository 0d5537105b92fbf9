"""Rounds as one checked chain: a plan's rounds are what its run counts.

The latency twin of ``tests/test_theorem2_chain.py``.  ``Plan.rounds`` is the
busiest rank's counted ``ROUNDS`` (the run's ``rounds``), derived without
running an engine, and the closed forms it is the maximum of hold rank for
rank (idle ranks 0):

* the grid family (COSMA, ScaLAPACK, CTF, Cannon):
  :func:`repro.core.cosma.counted_rounds` with the runner's exchange kind
  (binomial trees, a star of direct sends, a ring), which reads each
  (layer, owner) slice's chunk count and the fan-out rule the engine reads
  too (so the per-hop parity suites, not this chain, catch a wrong rule) --
  plus the k-fiber reduction, and Cannon's skew: two rounds on every rank of
  its grid;
* CARMA: :func:`repro.baselines.cuboid.counted_rounds`, one round per
  (owner, receiver) message of its domain table;
* ``AllGather1D``: ``q - 1`` ring steps on each of its ``q`` ranks.

``AlgorithmSpec.cost`` prices those rounds (``CostPrediction.latency_rounds``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_theorem2_chain import CORE_FIVE, _counters, _decomposition, _scenario, problems

import repro.extensions.allgather  # noqa: F401 - registers AllGather1D
from repro.algorithms import get_algorithm, registered_algorithms
from repro.baselines import cuboid
from repro.baselines.carma import carma_table, usable_ranks
from repro.core.cosma import counted_rounds
from repro.machine.counters import ROUNDS
from repro.sweeps import SweepSpec
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

#: The exchange kind each grid-family runner passes its engine.
EXCHANGE = {"COSMA": "tree", "ScaLAPACK": "tree", "CTF": "gather", "Cannon": "ring"}


def closed_form(name, scenario, run_plan):
    """Every rank's counted rounds in closed form, idle ranks 0."""
    shape = scenario.shape
    if name in EXCHANGE:
        used = counted_rounds(_decomposition(name, scenario), EXCHANGE[name])
        if name == "Cannon":
            used = used + 2  # the skew: a round per shift, A's and B's
    elif name == "CARMA":
        usable = usable_ranks(shape.m, shape.n, shape.k, scenario.p)
        used = cuboid.counted_rounds(carma_table(shape.m, shape.n, shape.k, usable))
    else:
        assert name == "AllGather1D", f"{name} has no closed form here"
        q = run_plan.processors_used
        used = np.full(q, q - 1)
    rounds = np.zeros(scenario.p, dtype=np.int64)
    rounds[: len(used)] = used
    return rounds


def assert_rounds_are_plan(name, scenario):
    """A ``volume`` run's ROUNDS are the closed form rank for rank, and the
    plan's rounds (and the cost prediction's) are the busiest rank's."""
    run_plan = get_algorithm(name).plan(scenario)
    counters = _counters(name, scenario, run_plan)
    np.testing.assert_array_equal(counters.data[ROUNDS], closed_form(name, scenario, run_plan),
                                  err_msg=name)
    assert run_plan.rounds == counters.max_rounds(), name
    assert get_algorithm(name).cost(scenario).latency_rounds == run_plan.rounds, name


@settings(max_examples=30, deadline=None)
@given(problem=problems())
@example(problem=(97, 61, 43, 13, 2048))   # primes: ragged everywhere
@example(problem=(30, 20, 1, 6, 200))      # k = 1: one layer, one step
@example(problem=(2, 3, 1, 16, 16))        # p > mnk: idle ranks, padded Cannon
@example(problem=(8, 8, 8, 16, 12))        # p S = footprint exactly
@example(problem=(7, 7, 40, 1, 1000))      # one rank: no round at all
def test_plan_rounds_are_the_count(problem):
    scenario = _scenario(*problem)
    for name in registered_algorithms():
        assert_rounds_are_plan(name, scenario)


def test_grid240():
    """Every algorithm on every ``grid240`` point (S = 2048, p = 16 .. 1024)."""
    spec = SweepSpec(
        name="grid240", algorithms=registered_algorithms(),
        families=("square", "largeK", "largeM", "flat"), regimes=("limited", "extra"),
        p_values=(16, 64, 144, 256, 576, 1024), memory_words=2048, mode="volume", seed=0,
    )
    requests = spec.expand()
    assert len(requests) == 48 * len(registered_algorithms())
    for request in requests:
        assert_rounds_are_plan(request.algorithm, request.scenario)


@pytest.mark.parametrize("side, p", [(4096, 1024), (8192, 4096), (16384, 16384), (32768, 65536)])
def test_paper_scale(side, p):
    """The paper-scale volume points (S = 101,000) of ``scripts/identity_pairs.py``:
    the five and ``AllGather1D`` at 4096^3 on p = 1024 and at p = 16384 and
    65536, the grid family at 8192^3 on p = 4096.  (``AllGather1D``'s ring
    of q (q - 1) messages, 10^9 at p = 65536, is posted in closed form.)"""
    scenario = Scenario(name=f"square-paper-p{p}", shape=square_shape(side), p=p,
                        memory_words=101_000, regime="limited")
    names = ("COSMA", "ScaLAPACK", "CTF") if p == 4096 else CORE_FIVE + ("AllGather1D",)
    for name in names:
        assert_rounds_are_plan(name, scenario)


def test_paper_scale_rounds():
    """4096^3 on p = 1024, S = 101,000: the rounds the paper-scale plans
    count.  Table 3's latency formulas read 4911 (COSMA), 40960 (ScaLAPACK
    and Cannon), 78 (CTF) and 41 (CARMA) here, and the scheduled steps 683,
    13, 32, 1 and 10."""
    scenario = Scenario(name="square-paper-p1024", shape=square_shape(4096), p=1024,
                        memory_words=101_000, regime="limited")
    rounds = {name: get_algorithm(name).plan(scenario).rounds
              for name in ("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon")}
    assert rounds == {"COSMA": 2535, "ScaLAPACK": 176, "CTF": 62, "CARMA": 29, "Cannon": 64}
