"""Tall-and-skinny multiplication from the RPA application (section 8).

The paper's flagship real-world workload computes the random phase
approximation (RPA) energy of water molecules: for ``w`` molecules the
matrices have ``m = n = 136 w`` and ``k = 228 w^2`` -- extremely
"tall-and-skinny" inputs for which fixed 2D decompositions communicate
catastrophically more than necessary.

This example reproduces that comparison at simulator scale: it runs COSMA and
the ScaLAPACK-style 2D baseline on a scaled-down RPA shape and reports the
communication volumes and simulated runtimes.

Run with::

    python examples/rpa_tall_skinny.py
"""

from __future__ import annotations

import numpy as np

from repro import multiply
from repro.experiments.perf_model import simulated_time
from repro.experiments.harness import run_algorithm
from repro.machine.topology import MachineSpec
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import rpa_water_shape


def main() -> None:
    # w = 128 molecules in the paper (k = 3.7 million); scale down so that the
    # pure-Python simulator finishes in seconds while keeping k >> m = n.
    shape = rpa_water_shape(molecules=4, scale=0.25)
    processors = 16
    memory_words = 1 << 15

    print("RPA tall-and-skinny example")
    print("---------------------------")
    print(f"shape: m = n = {shape.m}, k = {shape.k}  (family: {shape.family})")
    print(f"processors: {processors}, memory/rank: {memory_words} words\n")

    scenario = Scenario(
        name="rpa-example", shape=shape, p=processors, memory_words=memory_words, regime="strong"
    )
    spec = MachineSpec(name="bandwidth-bound", network_latency_s=0.0)

    rows = []
    for algorithm in ("COSMA", "ScaLAPACK", "CTF", "CARMA"):
        run = run_algorithm(algorithm, scenario, seed=0)
        rows.append(
            (
                algorithm,
                run.mean_received_per_rank,
                simulated_time(run, spec, overlap=True) * 1e3,
                "ok" if run.correct else "WRONG",
            )
        )

    print(f"{'algorithm':<12} {'words recv/rank':>16} {'sim. time [ms]':>15}  verified")
    for name, volume, time_ms, status in rows:
        print(f"{name:<12} {volume:>16,.0f} {time_ms:>15.3f}  {status}")

    cosma_volume = rows[0][1]
    scalapack_volume = rows[1][1]
    print(
        f"\nCOSMA moves {scalapack_volume / max(cosma_volume, 1):.1f}x less data per rank than the"
        " 2D (ScaLAPACK-style) decomposition on this shape."
    )

    # The same algorithms on your own matrices, through the library's front door:
    rng = np.random.default_rng(1)
    a = rng.standard_normal((shape.m, shape.k))
    b = rng.standard_normal((shape.k, shape.n))
    cosma = multiply(a, b, processors, memory_words)
    summa = multiply(a, b, processors, memory_words, algorithm="ScaLAPACK")
    assert cosma.correct and summa.correct and np.allclose(cosma.matrix, summa.matrix)
    print(f"COSMA grid: {cosma.grid}, SUMMA grid: {summa.grid} (note the k-parallelism)")


if __name__ == "__main__":
    main()
