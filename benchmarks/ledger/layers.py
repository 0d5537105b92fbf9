"""The layer pass: one workload's work staged as separate calls into each module.

Every layer is measured from outside.  A pass calls the public functions of
``repro.*`` one at a time, each inside a span of the ledger's own
:class:`Recorder`; the program gets no new span site.  A span whose name is a
per-layer metric of unit ``s`` *is* that metric (its self time); the few
counts and ratios are computed next to the call they describe.  One op per
pass is staged under a ``ledger.staged_op`` root so that
``ledger.unattributed_frac`` says how much of ``op_s`` the stages fail to name,
and the staged result must equal the timed op's (simulated words, ``correct``)
or the pass fails.  Each pass also runs the op once under the program's
existing ``repro.obs.tracing()`` where the metric list reads program spans.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

from workloads import (
    CAMPAIGN_JOBS,
    CLI_LAUNCHES,
    PER_LAYER,
    SHARDS,
    campaign_words,
    fresh_store,
    layer_stem,
    small,
    sq1024,
    sq4096,
)


class LayerPassFailed(Exception):
    """A staged result disagreed with the timed op, or a stage could not run."""


class Recorder:
    """In-memory span recorder: name, start, end, parent span, op id.

    Disabled (``enabled=False``) it records nothing, which is how the
    end-to-end run keeps tracing off.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": op}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def _children_seconds(self, index: int) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] == index)

    def self_seconds(self, name: str) -> float:
        """Summed self time (duration minus child spans) of the spans called ``name``."""
        return sum(
            s["end"] - s["start"] - self._children_seconds(i)
            for i, s in enumerate(self.spans) if s["name"] == name
        )

    def staged_seconds(self, root_name: str) -> float:
        """Time the children of the ``root_name`` span cover."""
        return sum(self._children_seconds(i) for i, s in enumerate(self.spans) if s["name"] == root_name)


def _cli_median(argv: list[str], launches: int) -> float:
    """Median wall-clock of ``launches`` fresh ``python <argv>`` processes."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], stdout=subprocess.DEVNULL, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LayerPassFailed(message)


def _unattributed(rec: Recorder, op_s: float) -> float:
    return (op_s - rec.staged_seconds("ledger.staged_op")) / op_s


# ---------------------------------------------------------------------------
# numeric_paper / numeric_sharded
# ---------------------------------------------------------------------------
def _staged_numeric_op(wl, rec: Recorder, reference, run_span: str, allclose_span: str, sim_words: float):
    """``run_algorithm``'s steps as separate calls; returns (machine, plan, product)."""
    import numpy as np
    from repro.algorithms import get_algorithm
    from repro.machine import DistributedMachine
    from repro.machine.transport import allclose_tolerances

    scenario = wl.scenario
    spec = get_algorithm("COSMA")
    with rec.span("ledger.staged_op", op="staged"):
        with rec.span("workloads.random_matrices_cached"):
            a, b = scenario.shape.random_matrices(seed=wl.seed)
        with rec.span("machine.construct_s"):
            machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, **wl.run_options)
        with rec.span("algorithms.plan_warm"):
            plan = spec.plan(scenario)
        with rec.span(run_span):
            product = spec.run(a, b, scenario, machine, grid=plan.grid)
        with rec.span(allclose_span):
            rtol, atol_unit = allclose_tolerances(product.dtype)
            correct = bool(np.allclose(product, reference, rtol=rtol, atol=atol_unit * scenario.shape.k))
        with rec.span("machine.counters_summary"):
            machine.counters.assert_conservation()
            words = machine.counters.mean_words_per_rank()
    _require(correct, "staged product failed verification against A @ B")
    _require(words == sim_words, f"staged op moved {words} words per rank, timed op {sim_words}")
    return machine, plan, product


def numeric_paper(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    import numpy as np
    from repro.algorithms import cosma_idle_fraction, get_algorithm, plan_cache_clear
    from repro.core import build_decomposition
    from repro.machine import DistributedMachine, ShapeToken
    from repro.obs import tracing

    scenario = wl.scenario
    shape = scenario.shape
    spec = get_algorithm("COSMA")
    a, b = shape.random_matrices(seed=wl.seed)
    with rec.span("experiments.verify_reference_s"):
        reference = a @ b
    machine, plan, product = _staged_numeric_op(
        wl, rec, reference, "core.cosma_plane_s", "experiments.verify_allclose_s", sim_words)
    machine.clear_planes()
    del machine

    with rec.span("algorithms.plan_cold_s"):
        plan_cache_clear()
        spec.plan(scenario)
    with rec.span("core.build_decomposition_s"):
        build_decomposition(shape.m, shape.n, shape.k, scenario.p, scenario.memory_words,
                            max_idle_fraction=cosma_idle_fraction(scenario.p))
    volume_machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="volume")
    with rec.span("core.cosma_volume_s"):
        spec.run(ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n)), scenario,
                 volume_machine, grid=plan.grid)
    _require(volume_machine.counters.mean_words_per_rank() == sim_words,
             "volume and plane modes disagree on words per rank")

    plane_machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="plane")
    with rec.span("machine.plane_alloc_s"):
        plane = plane_machine.new_plane("ledger.C", (plan.grid[2], shape.m, shape.n))
    with rec.span("machine.reduce_slots_s"):
        plane.reduce_slots()
    plane_machine.clear_planes()
    del plane
    with rec.span("machine.gemm_ref_s"):
        np.matmul(a, b, out=product)

    with tracing() as tracer:
        wl.op()
    program = {name: dur_ns / 1e9 for name, _cat, _start, dur_ns, _args, _track in tracer.spans()}
    _require({"cosma-plane-gemm", "cosma-counter-accounting"} <= set(program),
             f"program spans missing from the traced op: {sorted(program)}")

    numerics = rec.self_seconds("core.cosma_plane_s") - rec.self_seconds("core.cosma_volume_s")
    return {
        "core.cosma_numerics_s": numerics,
        "machine.gemm_efficiency": rec.self_seconds("machine.gemm_ref_s") / numerics,
        "obs.cosma_gemm_span_s": program["cosma-plane-gemm"],
        "obs.cosma_accounting_span_s": program["cosma-counter-accounting"],
        "ledger.unattributed_frac": _unattributed(rec, op_s),
    }


def numeric_sharded(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    import numpy as np
    from repro.machine.shard import available_shards, evict_pool, get_pool

    _require(not wl.unavailable, str(wl.unavailable))
    a, b = wl.scenario.shape.random_matrices(seed=wl.seed)
    with rec.span("machine.shard_spawn_s"):
        evict_pool(SHARDS)
        pool = get_pool(SHARDS)
        # Process.start() returns before the workers have imported numpy; the
        # spawn is over when they answer their first message.
        pool.share_zeros("ledger.ready", (1, 1), np.float32)
        pool.release()
    a32, b32 = a.astype(np.float32), b.astype(np.float32)
    with rec.span("machine.shard_share_s"):
        pool.share("ledger.A", a32)
        pool.share("ledger.B", b32)
        pool.release()
    del a32, b32

    # One-row job on shard 0, empty stripes elsewhere: the pipes and the
    # wait loop, with no arithmetic to speak of.
    pool.share("ledger.a", np.ones((1, 1), dtype=np.float32))
    pool.share("ledger.b", np.ones((1, 1), dtype=np.float32))
    pool.share_zeros("ledger.out", (1, 1), np.float32)
    job = {"a": "ledger.a", "b": "ledger.b", "out": "ledger.out"}
    specs = [{**job, "rows": [0, 1 if shard == 0 else 0]} for shard in range(SHARDS)]
    roundtrips = []
    for _ in range(200):
        start = time.perf_counter()
        pool.run("gemm_rows", specs)
        roundtrips.append(time.perf_counter() - start)
    pool.release()

    with rec.span("experiments.verify_reference"):
        reference = a @ b
    wl.op()  # the timed ops ran on warm workers; so must the staged one
    _staged_numeric_op(wl, rec, reference, "core.cosma_sharded_s", "experiments.verify_allclose_f32_s", sim_words)
    return {
        "machine.shard_roundtrip_us": statistics.median(roundtrips) * 1e6,
        "machine.shards_effective": available_shards(SHARDS)[0],
        "ledger.unattributed_frac": _unattributed(rec, op_s),
    }


# ---------------------------------------------------------------------------
# volume_paper
# ---------------------------------------------------------------------------
def _volume_span(request) -> str:
    suffix = "_volume_s" if request.scenario.p == 1024 else "_volume_xl_s"
    return layer_stem(request.algorithm) + suffix


def volume_paper(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    import numpy as np
    from repro.algorithms import cosma_idle_fraction
    from repro.core import build_decomposition, fit_ranks
    from repro.experiments.harness import run_algorithm
    from repro.machine import DistributedMachine
    from repro.obs import tracing

    runs = {}
    with rec.span("ledger.staged_op", op="staged"):
        for request in wl.requests:
            with rec.span(_volume_span(request)):
                runs[_volume_span(request)] = run_algorithm(
                    request.algorithm, request.scenario, mode="volume", seed=request.seed)
    staged_words = sum(run.mean_words_per_rank for run in runs.values())
    _require(staged_words == sim_words, f"staged runs moved {staged_words} words per rank, campaign {sim_words}")
    cosma = runs["core.cosma_volume_s"]

    xl = sq4096()
    delta = cosma_idle_fraction(xl.p)
    with rec.span("core.fit_ranks_s"):
        fit_ranks(xl.shape.m, xl.shape.n, xl.shape.k, xl.p, max_idle_fraction=delta,
                  memory_words=xl.memory_words)
    with rec.span("core.build_decomposition_s"):
        build_decomposition(xl.shape.m, xl.shape.n, xl.shape.k, xl.p, xl.memory_words,
                            max_idle_fraction=delta)
    with rec.span("machine.construct_s"):
        machine = DistributedMachine(xl.p, memory_words=xl.memory_words, mode="volume")
        for rank_id in range(xl.p):
            machine.rank(rank_id)
    rng = np.random.default_rng(0)
    srcs = rng.integers(0, xl.p, size=100_000)
    dsts = (srcs + rng.integers(1, xl.p, size=100_000)) % xl.p
    start = time.perf_counter()
    machine.post_transfers(srcs, dsts, 1)
    post_transfers_s = time.perf_counter() - start

    paper = sq1024()
    with rec.span("machine.compress_replay_s"):
        compressed = run_algorithm("COSMA", paper, mode="volume", compress_rounds=True)
    _require(compressed.mean_words_per_rank == cosma.mean_words_per_rank,
             "round compression changed words per rank")

    untraced, traced = [], []
    for _ in range(3):
        start = time.perf_counter()
        run_algorithm("COSMA", paper, mode="volume")
        untraced.append(time.perf_counter() - start)
        with tracing() as tracer:
            start = time.perf_counter()
            run_algorithm("COSMA", paper, mode="volume")
            traced.append(time.perf_counter() - start)
    untraced_s = statistics.median(untraced)

    shape = paper.shape
    return {
        "machine.post_transfers_us": post_transfers_s * 1e6,
        "machine.us_per_round": rec.self_seconds("core.cosma_volume_s") / cosma.rounds * 1e6,
        "machine.sim_rounds": cosma.rounds,
        "machine.sim_flops": cosma.total_flops,
        "obs.trace_overhead_frac": (statistics.median(traced) - untraced_s) / untraced_s,
        "obs.round_spans": len(tracer.spans("round")),
        "cli.import_s": _cli_median(["-c", "import repro"], CLI_LAUNCHES["import"]),
        "cli.multiply_volume_s": _cli_median(
            ["-m", "repro", "multiply", "--m", str(shape.m), "--n", str(shape.n), "--k", str(shape.k),
             "--processors", str(paper.p), "--memory", str(paper.memory_words), "--mode", "volume"],
            CLI_LAUNCHES["multiply"]),
        "ledger.unattributed_frac": _unattributed(rec, op_s),
    }


# ---------------------------------------------------------------------------
# perhop_default
# ---------------------------------------------------------------------------
def perhop_default(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    staged_words = 0.0
    with rec.span("ledger.staged_op", op="staged"):
        for scenario in wl.scenarios:
            for algorithm in wl.algorithms:
                name = layer_stem(algorithm) + ("_legacy_s" if scenario.p == 1024 else "_legacy.small256")
                with rec.span(name):
                    staged_words += wl.multiply(algorithm, scenario)
    _require(staged_words == sim_words, f"staged multiplies moved {staged_words} words per rank, op {sim_words}")

    small1024 = small(1024)
    for algorithm in wl.algorithms:
        for mode, suffix in (("zerocopy", "zerocopy_s"), ("plane", "plane_small_s")):
            with rec.span(f"{layer_stem(algorithm)}_{suffix}"):
                wl.multiply(algorithm, small1024, mode=mode)
    side = str(small1024.shape.m)
    return {
        "cli.multiply_default_s": _cli_median(
            ["-m", "repro", "multiply", "--m", side, "--n", side, "--k", side,
             "--processors", str(small1024.p), "--memory", str(small1024.memory_words)],
            CLI_LAUNCHES["multiply"]),
        "ledger.unattributed_frac": _unattributed(rec, op_s),
    }


# ---------------------------------------------------------------------------
# campaign_cold
# ---------------------------------------------------------------------------
def _metric_value(metrics: dict, name: str) -> float:
    return metrics.get(name, {}).get("value", 0)


def campaign_cold(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    from repro.algorithms import get_algorithm, plan_cache_clear
    from repro.sweeps import ResultStore, run_campaign, tidy_rows

    with rec.span("sweeps.expand_s"):
        requests = wl.spec.expand()
        keys = {request.key for request in requests}
    _require(len(keys) == wl.runs, f"{len(keys)} distinct run keys for {wl.runs} requests")
    with rec.span("algorithms.plan_campaign_s"):
        plan_cache_clear()
        for request in requests:
            get_algorithm(request.algorithm).plan(request.scenario)

    with fresh_store(work_dir) as store:
        with rec.span("sweeps.serial_campaign_s"):
            serial = run_campaign(wl.spec, store=store, jobs=1)
    _require(campaign_words(serial, wl.runs) == sim_words, "serial and parallel campaigns disagree on words")

    with fresh_store(work_dir) as store:
        parallel = run_campaign(wl.spec, store=store, jobs=CAMPAIGN_JOBS)
        _require(campaign_words(parallel, wl.runs) == sim_words, "repeated campaign moved different words")
        with rec.span("sweeps.warm_campaign_s"):
            warm = run_campaign(wl.spec, store=store, jobs=CAMPAIGN_JOBS)
        _require(warm.cached == wl.runs and warm.executed == 0,
                 f"warm campaign executed {warm.executed} runs, cached {warm.cached}")
        with rec.span("sweeps.store_load_s"):
            loaded = ResultStore(store.path).records()
        _require(len(loaded) == wl.runs, f"reopened store holds {len(loaded)} records")
    metrics = parallel.metrics
    deaths = _metric_value(metrics, "sweeps.workers.deaths")
    retries = _metric_value(metrics, "sweeps.runs.retried")
    _require(deaths == 0 and retries == 0, f"campaign saw {deaths} worker deaths and {retries} retries")

    puts = []
    with fresh_store(work_dir) as store:
        for record in parallel.records:
            start = time.perf_counter()
            store.put(record)
            puts.append(time.perf_counter() - start)
    with rec.span("sweeps.tidy_rows_s"):
        rows = tidy_rows(parallel.records)
    _require(len(rows) == wl.runs, f"tidy_rows returned {len(rows)} rows")

    spec_file = work_dir / "grid240.json"
    spec_file.write_text(json.dumps(wl.spec.to_dict()))
    cli_sweep_s = _cli_median(
        ["-m", "repro", "sweep", "--spec", str(spec_file), "--jobs", str(CAMPAIGN_JOBS),
         "--no-progress", "--no-resume", "--out", str(work_dir / "cli-store")],
        CLI_LAUNCHES["sweep"])

    latency_sum_s = metrics["sweeps.run.latency_s"]["sum"]
    serial_s = rec.self_seconds("sweeps.serial_campaign_s")
    named_s = (rec.self_seconds("sweeps.expand_s") + rec.self_seconds("algorithms.plan_campaign_s")
               + latency_sum_s / CAMPAIGN_JOBS)
    return {
        "sweeps.parallel_speedup": serial_s / op_s,
        "sweeps.run_latency_sum_s": latency_sum_s,
        "sweeps.pool_overhead_s": op_s - latency_sum_s / CAMPAIGN_JOBS,
        "sweeps.worker_spawns": _metric_value(metrics, "sweeps.workers.spawns"),
        "sweeps.worker_deaths": deaths,
        "sweeps.retries": retries,
        "sweeps.store_put_us": statistics.median(puts) * 1e6,
        "cli.sweep_s": cli_sweep_s,
        "ledger.unattributed_frac": (op_s - named_s) / op_s,
    }


LAYER_PASSES = {
    "numeric_paper": numeric_paper,
    "numeric_sharded": numeric_sharded,
    "volume_paper": volume_paper,
    "perhop_default": perhop_default,
    "campaign_cold": campaign_cold,
}


def run_layer_pass(wl, rec: Recorder, op_s: float, sim_words: float, work_dir) -> dict:
    """Every per-layer metric: this workload's measured, every other one 0."""
    computed = LAYER_PASSES[wl.name](wl, rec, op_s, sim_words, work_dir)
    metrics = {}
    for layer in PER_LAYER:
        if wl.name not in layer.workloads:
            metrics[layer.name] = 0.0
        elif layer.name in computed:
            metrics[layer.name] = computed[layer.name]
        else:
            _require(any(s["name"] == layer.name for s in rec.spans), f"no span recorded for {layer.name}")
            metrics[layer.name] = rec.self_seconds(layer.name)
    return metrics
