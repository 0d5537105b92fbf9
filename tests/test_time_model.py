"""The time model prices what a run counted.

:func:`repro.experiments.perf_model.time_breakdown` is the one price of a
run: ``gamma * max_flops_per_rank`` to compute, ``alpha * rounds +
beta * max_words_per_rank / 2`` to communicate, and the two overlapped by
a pipeline of ``rounds`` even rounds.  These tests hold it to the counted
rounds (not the messages, and not a default plan's rounds) and to a
per-round pipeline written out here.
"""

import math

import pytest
from test_sweeps_golden import reference_spec

from repro.api import multiply
from repro.experiments.perf_model import percent_of_peak, simulated_time, time_breakdown
from repro.machine import ShapeToken
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec
from repro.sweeps import run_campaign

#: A machine whose words cost nothing: its communication time is all latency.
LATENCY_ONLY = MachineSpec(name="latency-only", network_bandwidth_words_per_s=math.inf)


def pipelined(comm, comp, rounds):
    """Double buffering over ``rounds`` even rounds: the first fetch, then
    each later fetch alongside the previous round's multiplication, then the
    last multiplication."""
    rounds = max(1, rounds)
    fetch, work = comm / rounds, comp / rounds
    total = fetch
    for _ in range(rounds - 1):
        total += max(fetch, work)
    return total + work


def test_latency_is_the_rounds_the_run_counted():
    """2000 x 2000 x 500 on p = 97 with no idle ranks runs grid (1, 97, 1)
    for 206 rounds (the default delta's grid would take 31), and 206
    latencies are what its communication costs."""
    report = multiply(ShapeToken((2000, 500)), ShapeToken((500, 2000)), processors=97,
                      memory_words=200_000, max_idle_fraction=0.0)
    assert (report.grid, report.rounds) == ((1, 97, 1), 206)
    spec = PIZ_DAINT_LIKE
    expected = spec.network_latency_s * 206 + spec.beta_s_per_word * report.max_words_per_rank / 2
    assert time_breakdown(report).communication == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    result = run_campaign(reference_spec(), store=tmp_path_factory.mktemp("store"), jobs=1)
    return result.runs()


def test_every_golden_run_prices_its_rounds(golden_runs):
    """Over the golden campaign, for every algorithm: the latency is alpha per
    counted round, and the overlapped total is the per-round pipeline."""
    assert {run.algorithm for run in golden_runs} == {"COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"}
    for run in golden_runs:
        latency = time_breakdown(run, LATENCY_ONLY).communication
        assert latency == pytest.approx(LATENCY_ONLY.network_latency_s * run.rounds, rel=1e-12, abs=0)
        breakdown = time_breakdown(run)
        expected = pipelined(breakdown.communication, breakdown.computation, run.rounds)
        assert breakdown.total_with_overlap == pytest.approx(expected, rel=1e-12, abs=0)
        assert simulated_time(run) == breakdown.total_with_overlap
        assert 0 < percent_of_peak(run) <= 100


def test_rounds_and_messages_on_the_golden_runs(golden_runs):
    """Why the price reads rounds, not messages / 2: the busiest rank sends
    or receives one message per round, except Cannon's, whose every round
    is a shift that sends one message and receives one."""
    for run in golden_runs:
        per_round = 2 if run.algorithm == "Cannon" else 1
        assert run.max_messages_per_rank == per_round * run.rounds, run.algorithm
