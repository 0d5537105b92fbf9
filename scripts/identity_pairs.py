#!/usr/bin/env python3
"""Is the working tree observably identical to a base revision?

    python scripts/identity_pairs.py --base <rev>        (make identity BASE=<rev>)

Extracts ``<rev>`` with :func:`ledger_pairs.extract`, then runs *this* file's
:func:`observe` once against each tree's ``src/`` (a child process per side,
so neither import state nor memoized plans leak across).  ``observe`` drives
every registered algorithm over the ``grid240`` campaign points and a fixed
list of awkward points -- pm, pn or pk = 1, idle ranks, k smaller than the
grid side, a partial last chunk, layers that run out of rounds early,
``use_rma``, cuboids whose projections overlap partially, a hand-written
tiling with shuffled ranks and an empty range, Cannon with idle ranks and
padded blocks and on one rank, and the registry's extension ``AllGather1D``
-- traced and untraced, one and two runs per machine.  The awkward points and
the ``grid240`` points run in both modes (``volume`` and ``plane``), the
paper-scale ``volume_requests`` points and every algorithm at p = 16384 and
p = 65536 (``xl``) in ``volume`` mode only (their plane products would need
gigabytes).  What it records per run: each counter row's length, total and digest (``counters.<field>``,
one observable per row of the counter matrix), ``peak_resident_words``, the
final ``check_memory()``, COSMA's ``num_rounds`` (its decomposition's
``num_steps``), the round spans' totals -- words, flops and hops, each span's
per-round value times its multiplicity (a span without one stands for one
round) -- and the product's bytes (every mode but ``volume``).  The totals
read the same whether a revision spans every round or each round class once;
the per-round detail is held against the per-hop reference by the test
suite.

A registered point runs through the registry's runner.  An awkward point
builds its decomposition (grid, panel width, ``use_rma``, tiling) and calls
the engine on it; on a tree from before the engines were called directly (no
``cosma_run``), it calls the wrapper that ran the same decomposition there.

Prints one line per point -- equal, or which observables differ, in how many
of the point's runs and by how much in the first of them -- and exits 1 on
any difference.  An observable that only one side records anywhere (a counter
row one revision has and the other does not) is listed once, at the end, and
is not a difference.  The ``xl/`` and ``volume_requests/`` lines also carry each
side's wall seconds for the point's single untraced run (the call as the
registry makes it, COSMA's grid search included): a speed-up reads next to the
proof that nothing observable moved.  Every point with a product also carries
each side's largest ``max |C - A @ B|`` over its runs, so a product whose sums
are associated differently reads as "digests differ" next to both sides'
errors.  Seconds and errors are never compared.  The point
sets are restated here from public ``repro`` functions: nothing is imported
from, or written under, ``benchmarks/ledger/``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ledger_pairs import REPO, extract

MODES = ("volume", "plane")
#: Points whose wall seconds are printed, and the variant they are read from.
TIMED_PREFIXES = ("xl/", "volume_requests/")
TIMED_VARIANT = "volume untraced x1"
#: The round spans' per-round values whose totals are recorded.
SPAN_TOTALS = ("words_posted", "flops", "hops")


# ---------------------------------------------------------------------------
# the points: (label, multiply(a, b, machine), (m, n, k), p, S, modes, rounds)
# ``rounds()`` is COSMA's round count, read after the runs; ``None`` otherwise.
# ---------------------------------------------------------------------------
def _registry_point(prefix, name, scenario, modes=MODES):
    from repro.algorithms import cosma_idle_fraction, get_algorithm
    from repro.core.decomposition import build_decomposition

    shape = scenario.shape
    rounds = None
    if name == "COSMA":
        @functools.cache
        def rounds():
            return build_decomposition(
                shape.m, shape.n, shape.k, scenario.p, scenario.memory_words,
                max_idle_fraction=cosma_idle_fraction(scenario.p)).num_steps

    def multiply(a, b, machine):
        return get_algorithm(name).run(a, b, scenario, machine)

    return (f"{prefix}/{name}/{scenario.name}", multiply, (shape.m, shape.n, shape.k),
            scenario.p, scenario.memory_words, modes, rounds)


def _campaign_points():
    """The ledger's ``grid240`` spec and its ``volume_requests``, restated, and
    every algorithm two and three octaves above them."""
    from repro.algorithms import registered_algorithms
    from repro.sweeps import SweepSpec
    from repro.workloads.scaling import Scenario
    from repro.workloads.shapes import square_shape

    grid240 = SweepSpec(
        name="grid240", algorithms=registered_algorithms(),
        families=("square", "largeK", "largeM", "flat"), regimes=("limited", "extra"),
        p_values=(16, 64, 144, 256, 576, 1024), memory_words=2048, mode="volume", seed=0,
    )
    points = [_registry_point("grid240", r.algorithm, r.scenario) for r in grid240.expand()]
    grid_family = ("COSMA", "ScaLAPACK", "CTF")
    for prefix, side, p, names in (
        ("volume_requests", 4096, 1024, registered_algorithms()),
        ("volume_requests", 8192, 4096, grid_family),
        # Beyond the ledger: where per-rank arrays (and, once, hop arrays) are largest.
        ("xl", 16384, 16384, registered_algorithms()),
        ("xl", 32768, 65536, registered_algorithms()),
    ):
        scenario = Scenario(name=f"square-paper-p{p}", shape=square_shape(side), p=p,
                            memory_words=101_000, regime="limited")
        points += [_registry_point(prefix, name, scenario, modes=("volume",)) for name in names]
    return points


def _engines():
    """The engines the registered runners call, or ``None`` on a tree from
    before they were called directly."""
    try:
        from repro.baselines import cannon, cuboid, grid25d, summa
        from repro.core import cosma
        return {"COSMA": cosma.cosma_run, "ScaLAPACK": summa.run_panels,
                "CTF": grid25d.grid25d_run, "Cannon": cannon.cannon_run,
                "cuboid": cuboid.cuboid_run}
    except AttributeError:
        return None


def _wrappers():
    """The per-algorithm wrappers an older tree ran these decompositions with."""
    from repro.baselines.cannon import cannon_multiply
    from repro.baselines.cuboid import cuboid_multiply
    from repro.baselines.grid25d import grid25d_multiply
    from repro.baselines.summa import summa_multiply
    from repro.core.cosma import cosma_multiply
    return {"COSMA": cosma_multiply, "ScaLAPACK": summa_multiply, "CTF": grid25d_multiply,
            "Cannon": cannon_multiply, "cuboid": cuboid_multiply}


def _awkward_points():
    from repro.algorithms import registered_algorithms
    from repro.baselines.cannon import cannon_decomposition
    from repro.baselines.cuboid import CuboidDomain
    from repro.baselines.grid25d import grid25d_decomposition
    from repro.baselines.summa import summa_decomposition
    from repro.core.decomposition import build_decomposition
    from repro.core.grid import ProcessorGrid
    from repro.workloads.scaling import Scenario
    from repro.workloads.shapes import ProblemShape

    points = []
    engines = _engines()
    wrappers = _wrappers() if engines is None else None

    def cosma(why, m, n, k, grid, idle, memory_words, use_rma=False):
        p = grid[0] * grid[1] * grid[2] + idle
        decomposition = build_decomposition(m, n, k, p, memory_words, grid=ProcessorGrid(*grid))
        if engines is None:
            def multiply(a, b, machine):
                return wrappers["COSMA"](a, b, p, memory_words, machine=machine,
                                         grid=ProcessorGrid(*grid), use_rma=use_rma)
        else:
            def multiply(a, b, machine):
                return engines["COSMA"](machine, a, b, decomposition, use_rma)
        points.append((f"awkward/COSMA/{why}", multiply, (m, n, k), p, memory_words, MODES,
                       lambda: decomposition.num_steps))

    def summa(why, m, n, k, grid, panel_width, idle):
        p = grid[0] * grid[1] + idle
        decomposition = summa_decomposition(m, n, k, p, 1 << 20, grid, panel_width)
        if engines is None:
            def multiply(a, b, machine):
                return wrappers["ScaLAPACK"](a, b, p, machine=machine, grid=grid,
                                             panel_width=panel_width)
        else:
            def multiply(a, b, machine):
                return engines["ScaLAPACK"](machine, a, b, decomposition, "tree")
        points.append((f"awkward/ScaLAPACK/{why}", multiply, (m, n, k), p, 1 << 20, MODES, None))

    def grid25d(why, m, n, k, grid, idle):
        p = grid[0] * grid[1] * grid[2] + idle
        decomposition = grid25d_decomposition(m, n, k, p, 4096, grid)
        if engines is None:
            def multiply(a, b, machine):
                return wrappers["CTF"](a, b, p, 4096, machine=machine, grid=grid)
        else:
            def multiply(a, b, machine):
                return engines["CTF"](machine, a, b, decomposition)
        points.append((f"awkward/CTF/{why}", multiply, (m, n, k), p, 4096, MODES, None))

    for use_rma in (False, True):
        tag = "-rma" if use_rma else ""
        cosma(f"uneven-layers-partial-chunk{tag}", 13, 11, 47, (2, 3, 3), 1, 55, use_rma)
        cosma(f"pm1{tag}", 9, 14, 31, (1, 4, 2), 0, 80, use_rma)
        cosma(f"pn1{tag}", 9, 14, 31, (4, 1, 2), 2, 80, use_rma)
        cosma(f"pk1{tag}", 13, 11, 47, (2, 3, 1), 0, 60, use_rma)
        cosma(f"k-below-grid-side{tag}", 7, 5, 2, (3, 4, 1), 0, 40, use_rma)
        cosma(f"one-round{tag}", 13, 11, 47, (2, 3, 3), 0, 4000, use_rma)
    summa("one-column-panels", 13, 11, 47, (2, 3), 1, 0)
    summa("panel-wider-than-slice-idle", 13, 11, 47, (2, 3), 30, 1)
    summa("partial-last-panel-idle", 13, 11, 47, (2, 3), 5, 2)
    summa("panel-wider-than-k", 13, 11, 47, (2, 3), 50, 0)
    summa("pm1", 9, 14, 31, (1, 4), 3, 0)
    summa("pn1", 9, 14, 31, (4, 1), 3, 1)
    summa("k-below-grid-side", 7, 5, 2, (3, 4), 1, 0)
    grid25d("empty-slices", 100, 90, 7, (3, 3, 3), 0)
    grid25d("uneven-layers-idle", 13, 11, 47, (2, 2, 3), 2)
    grid25d("c1", 13, 11, 47, (3, 3, 1), 0)
    grid25d("q1", 13, 11, 47, (1, 1, 4), 1)
    grid25d("k-below-c", 6, 6, 2, (2, 2, 3), 0)
    def registered(name, m, n, k, p):
        scenario = Scenario(name=f"{m}x{n}x{k}-p{p}", shape=ProblemShape(m=m, n=n, k=k),
                            p=p, memory_words=512, regime="limited")
        points.append(_registry_point("awkward", name, scenario, modes=MODES))

    # The cuboid executor and Cannon take no grid: odd shapes, idle ranks.
    # AllGather1D joins them here (only here: it registers on import).
    import repro.extensions.allgather  # noqa: F401
    for name in registered_algorithms():
        for dims in ((13, 11, 7, 11), (5, 3, 2, 8), (12, 12, 12, 1)):
            registered(name, *dims)
    # CARMA where halved odd ranges make projections overlap partially (with
    # idle ranks at p = 144), and with fewer multiplications than ranks.
    for dims in ((73, 73, 73, 16), (158, 158, 9, 144), (3, 2, 2, 64)):
        registered("CARMA", *dims)
    # A hand-written tiling: ranks listed out of order, an empty j range, a rank gap.
    tiling = [CuboidDomain(3, (0, 5), (0, 4), (0, 3)), CuboidDomain(0, (5, 9), (0, 4), (0, 3)),
              CuboidDomain(2, (0, 5), (4, 4), (0, 3)), CuboidDomain(1, (0, 9), (4, 7), (0, 3)),
              CuboidDomain(5, (0, 9), (0, 7), (3, 6))]
    if engines is None:
        def tiled(a, b, machine):
            return wrappers["cuboid"](a, b, tiling, machine=machine)
    else:
        def tiled(a, b, machine):
            return engines["cuboid"](machine, a, b, tiling)
    points.append(("awkward/cuboid/shuffled-ranks-empty-range", tiled, (9, 7, 6), 7, 1 << 20,
                   MODES, None))
    for why, p in (("idle-padded", 11), ("q1", 3)):
        decomposition = cannon_decomposition(13, 11, 7, p, 1 << 20)
        if engines is None:
            def multiply(a, b, machine, p=p):
                return wrappers["Cannon"](a, b, p, machine=machine)
        else:
            def multiply(a, b, machine, decomposition=decomposition):
                return engines["Cannon"](machine, a, b, decomposition)
        points.append((f"awkward/Cannon/{why}", multiply, (13, 11, 7), p, 1 << 20, MODES, None))
    return points


# ---------------------------------------------------------------------------
# one side: run every point, print one JSON object per run
# ---------------------------------------------------------------------------
def _digest(value) -> str:
    data = value if isinstance(value, bytes) else json.dumps(value, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:20]


def _observe_run(multiply, dims, p, memory_words, mode, traced, runs,
                 rounds=None) -> tuple[dict, float, float | None]:
    """What the run left behind, the wall seconds of its ``multiply`` calls and
    the product's ``max |C - A @ B|`` (``None`` in ``volume`` mode)."""
    import numpy as np

    from repro.machine.counters import COUNTER_FIELDS
    from repro.machine.simulator import DistributedMachine
    from repro.machine.transport import ShapeToken
    from repro.obs import disable_tracing, enable_tracing

    m, n, k = dims
    if mode == "volume":
        a, b = ShapeToken((m, k)), ShapeToken((k, n))
    else:
        rng = np.random.default_rng(0)
        a, b = rng.random((m, k)), rng.random((k, n))
    tracer = enable_tracing() if traced else None
    try:
        machine = DistributedMachine(p, memory_words=memory_words, mode=mode)
        start = time.perf_counter()
        for _ in range(runs):
            result = multiply(a, b, machine)
        seconds = time.perf_counter() - start
        if hasattr(machine.trace, "commit_round"):  # a revision whose harness flushed
            machine.trace.commit_round(machine.peak_resident_words)
    finally:
        disable_tracing()
    data = getattr(machine.counters, "data", None)
    if data is None:  # revisions whose matrix sits behind ``counters.matrix``
        data = machine.counters.matrix.data
    observed = {}
    for field, row in zip(COUNTER_FIELDS, data):
        observed[f"counters.{field}"] = [len(row), int(row.sum()), _digest(row.tobytes())]
    observed["peak_resident_words"] = machine.peak_resident_words
    observed["check_memory"] = machine.check_memory()
    if rounds is not None:
        observed["num_rounds"] = rounds()
    if tracer is not None:
        spans = [args for _name, _cat, _start, _dur, args, _track in tracer.spans("round")]
        for key in SPAN_TOTALS:
            observed[f"spans.{key}"] = sum(span[key] * span.get("multiplicity", 1) for span in spans)
    error = None
    if mode != "volume":
        matrix = getattr(result, "matrix", result)
        observed["product"] = _digest(np.ascontiguousarray(matrix).tobytes())
        error = float(np.abs(matrix - a @ b).max(initial=0.0))
    return observed, seconds, error


def observe() -> None:
    """Run every point in every variant against the ``repro`` on ``sys.path``."""
    for label, multiply, dims, p, memory_words, modes, rounds in (
            _campaign_points() + _awkward_points()):
        for mode in modes:
            for traced in (False, True):
                for runs in (1, 2):
                    variant = f"{mode} {'traced' if traced else 'untraced'} x{runs}"
                    observed, seconds, error = _observe_run(
                        multiply, dims, p, memory_words, mode, traced, runs, rounds)
                    print(json.dumps({"point": label, "variant": variant, "observed": observed,
                                      "seconds": seconds, "error": error}), flush=True)


# ---------------------------------------------------------------------------
# both sides, compared
# ---------------------------------------------------------------------------
def _observations(tree: Path) -> tuple[dict[str, dict[str, dict]], dict[str, float], dict[str, float]]:
    """``{point: {variant: observed}}``, ``{timed point: seconds}`` and
    ``{point: largest max |C - A @ B| of its runs}``, from a child process
    importing ``tree/src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(REPO / "scripts")]))
    done = subprocess.run(
        [sys.executable, "-c", "import identity_pairs; identity_pairs.observe()"],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    points: dict[str, dict[str, dict]] = {}
    seconds: dict[str, float] = {}
    errors: dict[str, float] = {}
    for line in done.stdout.splitlines():
        record = json.loads(line)
        point = record["point"]
        points.setdefault(point, {})[record["variant"]] = record["observed"]
        if record["variant"] == TIMED_VARIANT and point.startswith(TIMED_PREFIXES):
            seconds[point] = record["seconds"]
        if record["error"] is not None:
            errors[point] = max(errors.get(point, 0.0), record["error"])
    return points, seconds, errors


def _moved(base, change) -> str:
    """How an observable moved: by how many entries or by how much in total,
    when it is a number or a ``[length, total, digest]`` summary."""
    if isinstance(base, list) and isinstance(change, list):
        if base[0] != change[0]:
            return f"{change[0] - base[0]:+d} entries"
        base, change = base[1], change[1]
    if isinstance(base, int) and isinstance(change, int):
        return f"total {change - base:+d}" if base != change else "same total, other entries"
    return "digests differ"


def _recorded(side: dict) -> set[str]:
    """Every observable name one side records at some point."""
    return {name for variants in side.values() for observed in variants.values()
            for name in observed}


def report(base: dict, change: dict, base_seconds: dict, change_seconds: dict,
           base_errors: dict, change_errors: dict) -> int:
    differing_points = 0
    observations = 0
    base_only, tree_only = _recorded(base) - _recorded(change), _recorded(change) - _recorded(base)
    for point in sorted(set(base) | set(change)):
        variants = sorted(set(base.get(point, {})) | set(change.get(point, {})))
        findings: dict[str, list[str]] = {}
        for variant in variants:
            ours = change.get(point, {}).get(variant, {})
            theirs = base.get(point, {}).get(variant, {})
            for name in sorted((set(ours) | set(theirs)) - base_only - tree_only):
                observations += 1
                if ours.get(name) != theirs.get(name):
                    findings.setdefault(name, []).append(
                        f"{variant}: {_moved(theirs.get(name), ours.get(name))}")
        notes = ""
        if point in base_seconds and point in change_seconds:
            notes = f"  base {base_seconds[point]:.3f} s, tree {change_seconds[point]:.3f} s"
        if point in base_errors and point in change_errors:
            notes += (f"  max |C - A @ B| base {base_errors[point]:.1e},"
                       f" tree {change_errors[point]:.1e}")
        if not findings:
            print(f"{point:<58} equal ({len(variants)} runs){notes}")
            continue
        differing_points += 1
        print(f"{point:<58} DIFFERENT{notes}")
        for name, where in findings.items():
            print(f"    {name:<28} in {len(where)}/{len(variants)} runs; first {where[0]}")
    for side, names in (("base", base_only), ("tree", tree_only)):
        if names:
            print(f"recorded by the {side} only (not compared): {', '.join(sorted(names))}")
    print(f"{len(set(base) | set(change))} points, {observations} observations, "
          f"{differing_points} points differ")
    return 1 if differing_points else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="identity-base-") as scratch:
        base_tree = Path(scratch)
        extract(args.base, base_tree)
        (base, base_seconds, base_errors), (change, change_seconds, change_errors) = (
            _observations(base_tree), _observations(REPO))
        return report(base, change, base_seconds, change_seconds, base_errors, change_errors)


if __name__ == "__main__":
    raise SystemExit(main())
