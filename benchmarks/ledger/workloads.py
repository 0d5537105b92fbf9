"""Single home of the ledger's scenarios, op counts, launch counts and metric tables.

Everything the benchmark measures is declared here and nowhere else:

* :data:`END_TO_END` / :data:`PER_LAYER` -- the metric tables ``BENCHMARK.json``
  mirrors (``test_ledger_schema.py`` keeps the two in step);
* :data:`WORKLOADS` -- the five workloads, each a small class with a
  ``setup`` (fills every cache and runs the untimed warm-up op) and an ``op``
  (one closed-loop operation; returns the simulated words per rank it moved);
* the scenario builders (``sq1024`` ...) both passes share.

There is no environment-variable switch and no smoke scale: the numbers mean
one thing.  Importing this module starts nothing and imports neither numpy
nor ``repro`` (the orchestrator and the schema test read only the tables);
the program is imported inside the functions that call it.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: Seconds one run measures (``BENCHMARK.json`` ``run_seconds``).  The timed
#: region runs ops in pairs until this much time has passed.
RUN_SECONDS = 10

#: Ops come in pairs, so the median never sits on one side of a two-mode
#: alternation; at least this many run whatever ``--seconds`` says (a
#: ``--trace 1`` run does exactly this many).
MIN_OPS = 2

#: Fresh-interpreter launches per ``cli.*`` layer metric (the median is
#: reported).  ``sweep`` is one launch because each costs a whole campaign.
CLI_LAUNCHES = {"import": 5, "multiply": 5, "sweep": 1}

#: glibc malloc settings every workload process (and therefore its sweep
#: workers, shard workers and CLI launches) runs under: never hand freed
#: blocks back to the kernel.  Without them the 768 MiB C stack of
#: ``numeric_paper`` is mmapped and unmapped on every op and per-op times
#: alternate between two modes (measured on the reference box: 1.9 s and
#: 6.6 s, op after op, in every process) because re-faulting fresh pages
#: through this VM's hypervisor costs 2-15 s per GiB.  See README.md.
CHILD_MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
}


# ---------------------------------------------------------------------------
# metric tables
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float
    meaning: str


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: The ``repro`` module whose public functions the staged call enters.
    module: str
    #: The end-to-end metric this layer metric should move ...
    moves: str
    #: ... on these workloads, which are also the ones whose layer pass
    #: measures it.  Every other workload's traced run reports it as 0: the
    #: staged call is not on that workload's path.
    workloads: tuple[str, ...]
    meaning: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("op_s", "s", "lower", 0.25,
             "host seconds per op: median of the per-op wall-clock times of the timed region (even op count)"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "host seconds from the start of the workload process to the start of the timed region: "
             "imports, input generation, reference product, pool spawn, warm-up op"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "max ru_maxrss of the workload process and its reaped children after the timed region, pools shut down"),
    EndToEnd("ok_frac", "frac", "higher", 1e-9,
             "1 - fail_frac: ops that neither raised, nor returned correct=False, nor lost a campaign run, "
             "over ops attempted; any decrease is a regression"),
    EndToEnd("sim_words_per_rank", "words", "lower", 1e-9,
             "simulated statistic: sum over the op's runs of mean words per rank (the paper's Table 4 quantity); "
             "repeats exactly, so any increase is a regression"),
)

_NP, _NS, _VP, _PH, _CC = (
    "numeric_paper", "numeric_sharded", "volume_paper", "perhop_default", "campaign_cold",
)
_ALL = (_NP, _NS, _VP, _PH, _CC)


def layer_stem(algorithm: str) -> str:
    """``core.cosma`` / ``baselines.<alg>``: the module an algorithm's engine lives in."""
    return f"{'core' if algorithm == 'COSMA' else 'baselines'}.{algorithm.lower()}"


def _perhop_layers() -> list[Layer]:
    layers = []
    for algorithm in ("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"):
        for mode, note in (
            ("legacy", "the transport the op uses"),
            ("zerocopy", "comparator: is this transport measurably distinct from legacy"),
            ("plane_small", "comparator: the batched engine on the same point"),
        ):
            stem = layer_stem(algorithm)
            layers.append(Layer(
                f"{stem}_{mode}_s", "s", "lower", stem.split(".")[0], "op_s", (_PH,),
                f"repro.multiply({algorithm}, mode={mode.split('_')[0]}) on small1024; {note}",
            ))
    return layers


PER_LAYER: tuple[Layer, ...] = (
    # -- numeric_paper ------------------------------------------------------
    Layer("workloads.random_matrices_s", "s", "lower", "workloads", "setup_s", (_NP,),
          "first random_matrices(seed) of the 4096^2 pair in the process"),
    Layer("experiments.verify_reference_s", "s", "lower", "experiments", "setup_s", (_NP,),
          "the float64 A @ B the verification compares against (freshly allocated result)"),
    Layer("experiments.verify_allclose_s", "s", "lower", "experiments", "op_s", (_NP,),
          "np.allclose(product, reference) at allclose_tolerances(float64)"),
    Layer("experiments.run_cold_s", "s", "lower", "experiments", "setup_s", (_NP,),
          "first run_algorithm of the process: empty plan memo and reference cache (this is the warm-up op)"),
    Layer("algorithms.plan_cold_s", "s", "lower", "algorithms", "setup_s", (_NP,),
          "plan_cache_clear() then spec.plan(scenario)"),
    Layer("core.build_decomposition_s", "s", "lower", "core", "setup_s", (_NP, _VP),
          "build_decomposition at the workload's largest scenario (sq1024 / sq4096); memoized behind plan"),
    Layer("machine.construct_s", "s", "lower", "machine", "op_s", (_NP, _VP),
          "DistributedMachine(p, mode=...) (numeric_paper: p=1024 plane; volume_paper: p=4096, touching every rank)"),
    Layer("core.cosma_plane_s", "s", "lower", "core", "op_s", (_NP,),
          "spec.run in plane mode: accounting loop, k-layer GEMMs, C reduction"),
    Layer("core.cosma_volume_s", "s", "lower", "core", "op_s", (_NP, _VP),
          "COSMA on sq1024 in volume mode: the identical accounting loop with no numerics"),
    Layer("core.cosma_numerics_s", "s", "lower", "core", "op_s", (_NP,),
          "cosma_plane_s - cosma_volume_s: plane allocation, GEMMs and reduction"),
    Layer("machine.plane_alloc_s", "s", "lower", "machine", "op_s", (_NP,),
          "machine.new_plane of the (pk, m, n) C stack"),
    Layer("machine.reduce_slots_s", "s", "lower", "machine", "op_s", (_NP,),
          "PayloadPlane.reduce_slots over the C stack"),
    Layer("machine.gemm_ref_s", "s", "lower", "machine", "op_s", (_NP,),
          "one in-process np.matmul(A, B, out=...) of the same flops: the peak, measured in the same run"),
    Layer("machine.gemm_efficiency", "ratio", "higher", "machine", "op_s", (_NP,),
          "gemm_ref_s / cosma_numerics_s (base: the engine's numerics)"),
    Layer("obs.cosma_gemm_span_s", "s", "lower", "obs", "op_s", (_NP,),
          "the program's own cosma-plane-gemm span under repro.obs.tracing(); cross-check of cosma_numerics_s"),
    Layer("obs.cosma_accounting_span_s", "s", "lower", "obs", "op_s", (_NP,),
          "the program's own cosma-counter-accounting span; cross-check of cosma_volume_s"),
    Layer("ledger.unattributed_frac", "frac", "lower", "ledger", "op_s", _ALL,
          "(op_s - sum of the staged calls of one op) / op_s: what the layer pass cannot name"),
    # -- numeric_sharded ----------------------------------------------------
    Layer("machine.shard_spawn_s", "s", "lower", "machine", "setup_s", (_NS,),
          "evict_pool(2) then get_pool(2): spawn two shard workers"),
    Layer("machine.shard_share_s", "s", "lower", "machine", "op_s", (_NS,),
          "pool.share of float32 A and B, then release"),
    Layer("machine.shard_roundtrip_us", "us", "lower", "machine", "op_s", (_NS,),
          "median of one-row GEMM jobs through pool.run: pure IPC"),
    Layer("core.cosma_sharded_s", "s", "lower", "core", "op_s", (_NS,),
          "spec.run in plane mode with shards=2, float32"),
    Layer("experiments.verify_allclose_f32_s", "s", "lower", "experiments", "op_s", (_NS,),
          "np.allclose at allclose_tolerances(float32)"),
    Layer("machine.shards_effective", "count", "higher", "machine", "op_s", (_NS,),
          "available_shards(2): worker processes the box grants"),
    # -- volume_paper -------------------------------------------------------
    Layer("core.cosma_volume_xl_s", "s", "lower", "core", "op_s", (_VP,),
          "COSMA on sq4096 in volume mode"),
    Layer("baselines.scalapack_volume_s", "s", "lower", "baselines", "op_s", (_VP,),
          "run_algorithm(ScaLAPACK, sq1024, volume)"),
    Layer("baselines.ctf_volume_s", "s", "lower", "baselines", "op_s", (_VP,),
          "run_algorithm(CTF, sq1024, volume)"),
    Layer("baselines.carma_volume_s", "s", "lower", "baselines", "op_s", (_VP,),
          "run_algorithm(CARMA, sq1024, volume)"),
    Layer("baselines.cannon_volume_s", "s", "lower", "baselines", "op_s", (_VP,),
          "run_algorithm(Cannon, sq1024, volume)"),
    Layer("core.fit_ranks_s", "s", "lower", "core", "setup_s", (_VP,),
          "fit_ranks at sq4096; memoized behind plan"),
    Layer("machine.post_transfers_us", "us", "lower", "machine", "op_s", (_VP,),
          "one post_transfers call of 10^5 hops on a p=4096 machine"),
    Layer("machine.us_per_round", "us", "lower", "machine", "op_s", (_VP,),
          "cosma_volume_s / simulated rounds: host time per simulated event"),
    Layer("machine.compress_replay_s", "s", "lower", "machine", "op_s", (_VP,),
          "COSMA sq1024 with compress_rounds=True; on no workload's path, reported so the knob's worth is known"),
    Layer("machine.sim_rounds", "count", "lower", "machine", "sim_words_per_rank", (_VP,),
          "simulated rounds of COSMA on sq1024 (exact)"),
    Layer("machine.sim_flops", "count", "lower", "machine", "sim_words_per_rank", (_VP,),
          "simulated flops of COSMA on sq1024 (exact)"),
    Layer("obs.trace_overhead_frac", "frac", "lower", "obs", "op_s", (_VP,),
          "(traced - untraced) / untraced for COSMA sq1024 volume (base: untraced)"),
    Layer("obs.round_spans", "count", "lower", "obs", "op_s", (_VP,),
          "round spans the program emits for that traced run"),
    Layer("cli.import_s", "s", "lower", "cli", "setup_s", (_VP,),
          "fresh python -c 'import repro', median of CLI_LAUNCHES['import']"),
    Layer("cli.multiply_volume_s", "s", "lower", "cli", "op_s", (_VP,),
          "fresh python -m repro multiply --mode volume on sq1024, median of CLI_LAUNCHES['multiply']"),
    # -- perhop_default -----------------------------------------------------
    *_perhop_layers(),
    Layer("cli.multiply_default_s", "s", "lower", "cli", "op_s", (_PH,),
          "fresh python -m repro multiply (default mode, COSMA) on small1024, median of CLI_LAUNCHES['multiply']"),
    # -- campaign_cold ------------------------------------------------------
    Layer("sweeps.expand_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "SweepSpec.expand() plus every request's run key"),
    Layer("algorithms.plan_campaign_s", "s", "lower", "algorithms", "op_s", (_CC,),
          "spec.plan over the 240 requests with the memo cleared"),
    Layer("sweeps.serial_campaign_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "the same campaign with jobs=1 and a fresh store"),
    Layer("sweeps.parallel_speedup", "ratio", "higher", "sweeps", "op_s", (_CC,),
          "serial_campaign_s / op_s (base: serial)"),
    Layer("sweeps.run_latency_sum_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "sum of the sweeps.run.latency_s histogram of one jobs=2 campaign"),
    Layer("sweeps.pool_overhead_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "op_s - run_latency_sum_s / jobs: spawn, IPC, leases, store"),
    Layer("sweeps.worker_spawns", "count", "lower", "sweeps", "op_s", (_CC,),
          "worker processes spawned by that campaign"),
    Layer("sweeps.worker_deaths", "count", "lower", "sweeps", "ok_frac", (_CC,),
          "worker deaths in that campaign; must be 0"),
    Layer("sweeps.retries", "count", "lower", "sweeps", "ok_frac", (_CC,),
          "retried runs in that campaign; must be 0"),
    Layer("sweeps.store_put_us", "us", "lower", "sweeps", "op_s", (_CC,),
          "median ResultStore.put of the 240 records into a fresh store"),
    Layer("sweeps.store_load_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "open that store and read records()"),
    Layer("sweeps.warm_campaign_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "rerun against the populated store: every run cached"),
    Layer("sweeps.tidy_rows_s", "s", "lower", "sweeps", "op_s", (_CC,),
          "tidy_rows over the 240 records"),
    Layer("cli.sweep_s", "s", "lower", "cli", "op_s", (_CC,),
          "fresh python -m repro sweep --spec ... --jobs 2 --no-progress, median of CLI_LAUNCHES['sweep']"),
)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
#: Per-rank memory of the paper-scale points (words): aggregate memory is
#: about twice the input footprint, the paper's limited-memory regime.
PAPER_MEMORY_WORDS = 101_000
#: Side of the numeric inputs: 4096 x 4096 float64 is 128 MiB per matrix.
PAPER_SIDE = 4096
SMALL_SIDE = 768
CAMPAIGN_JOBS = 2
SHARDS = 2


def sq1024():
    """Square 4096^3 on p=1024, S=101000: the committed paper-scale point."""
    from repro.workloads.scaling import Scenario
    from repro.workloads.shapes import square_shape

    return Scenario(name="square-paper-p1024", shape=square_shape(PAPER_SIDE), p=1024,
                    memory_words=PAPER_MEMORY_WORDS, regime="limited")


def sq4096():
    """Square 8192^3 on p=4096, S=101000."""
    from repro.workloads.scaling import Scenario
    from repro.workloads.shapes import square_shape

    return Scenario(name="square-paper-p4096", shape=square_shape(2 * PAPER_SIDE), p=4096,
                    memory_words=PAPER_MEMORY_WORDS, regime="limited")


def small(p: int):
    """``small256`` / ``small1024``: 768^3 at fixed aggregate memory."""
    from repro.workloads.scaling import strong_scaling_sweep
    from repro.workloads.shapes import square_shape

    return strong_scaling_sweep(square_shape(SMALL_SIDE), (p,))[0]


def grid240(seed: int):
    """5 algorithms x 4 families x 2 regimes x 6 core counts, volume mode."""
    from repro.algorithms import registered_algorithms
    from repro.sweeps import SweepSpec

    return SweepSpec(
        name="grid240", algorithms=registered_algorithms(),
        families=("square", "largeK", "largeM", "flat"), regimes=("limited", "extra"),
        p_values=(16, 64, 144, 256, 576, 1024), memory_words=2048, mode="volume", seed=seed,
    )


def volume_requests(seed: int) -> list:
    """Every registered algorithm on sq1024, plus COSMA/ScaLAPACK/CTF on sq4096.

    CARMA and Cannon at p=4096 are left out: the issue measured 13-21 s and 2 s for
    them, more than a whole run may take.
    """
    from repro.algorithms import registered_algorithms
    from repro.sweeps import RunRequest

    return (
        [RunRequest(alg, sq1024(), mode="volume", seed=seed) for alg in registered_algorithms()]
        + [RunRequest(alg, sq4096(), mode="volume", seed=seed) for alg in ("COSMA", "ScaLAPACK", "CTF")]
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class OpFailed(Exception):
    """One op did not produce a correct result; the message is the reason."""


@contextmanager
def fresh_store(work_dir: Path):
    """A new, empty ``ResultStore`` inside the benchmark's work directory."""
    from repro.sweeps import ResultStore

    with tempfile.TemporaryDirectory(dir=work_dir, prefix="store-") as path:
        yield ResultStore(path)


def campaign_words(result, requested: int) -> float:
    """Check a campaign ran everything it was asked to; return its simulated words."""
    if result.failed:
        first = result.failed_records[0]
        raise OpFailed(f"{result.failed} campaign runs failed; first: "
                       f"{first.get('error_type')}: {first.get('error_message')}")
    if result.executed != requested:
        raise OpFailed(f"campaign executed {result.executed} runs, {requested} requested")
    return sum(run.mean_words_per_rank for run in result.runs())


class Workload:
    """One closed-loop workload: ``setup`` once, then ``op`` back to back."""

    name = ""
    why = ""
    #: MiB of heap the workload process touches before set-up (a little more
    #: than the workload's peak RSS; what it never uses is subtracted from
    #: ``peak_rss_mb`` again).  See ``worker.prefault``.
    prefault_mb = 0

    def spawn_pools(self) -> None:
        """Start the program's persistent worker pools, if the workload has any.

        Runs before the heap is pre-faulted: a spawned child's ``ru_maxrss``
        starts at its parent's RSS, so a pool started later would report the
        pre-faulted heap as its own peak.
        """

    def setup(self, seed: int, work_dir: Path, rec) -> None:
        raise NotImplementedError

    def op(self) -> float:
        """Run one operation; return its simulated words per rank."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Shut down whatever the program keeps alive, so children are reaped."""


class NumericPaper(Workload):
    name = _NP
    why = ("the roadmap's headline verified run (COSMA, 4096^3, p=1024, plane mode, in process): "
           "GEMM, C reduction, plane allocation and allclose do nearly all the work")
    prefault_mb = 1800
    run_options = {"mode": "plane"}

    def setup(self, seed, work_dir, rec):
        self.scenario = sq1024()
        self.seed = seed
        with rec.span("workloads.random_matrices_s"):
            self.scenario.shape.random_matrices(seed=seed)
        with rec.span("experiments.run_cold_s"):
            self.op()

    def op(self):
        from repro.experiments.harness import run_algorithm

        run = run_algorithm("COSMA", self.scenario, seed=self.seed, **self.run_options)
        if not (run.verified and run.correct):
            raise OpFailed("product failed verification against A @ B")
        return run.mean_words_per_rank


class NumericSharded(NumericPaper):
    name = _NS
    why = ("the same scenario through the shared-memory ShardPool (shards=2, float32, single C sheet): "
           "a gain for the in-process engine that costs the sharded one shows here")
    prefault_mb = 1300
    run_options = {"mode": "plane", "shards": SHARDS, "plane_dtype": "float32"}

    def spawn_pools(self):
        from repro.machine.shard import available_shards, get_pool

        self.unavailable = None
        effective, reason = available_shards(SHARDS)
        if effective < SHARDS:
            self.unavailable = f"box grants {effective} shard(s): {reason}"
        else:
            get_pool(SHARDS)

    def setup(self, seed, work_dir, rec):
        if not self.unavailable:
            super().setup(seed, work_dir, rec)

    def op(self):
        if self.unavailable:
            raise OpFailed(self.unavailable)
        return super().op()

    def teardown(self):
        from repro.machine.shard import evict_pool

        evict_pool(SHARDS)


class VolumePaper(Workload):
    name = _VP
    why = ("repro sweep at paper scale through the in-process serial path (jobs=1): counter posting, "
           "schedule construction and per-rank Python objects do all the work, BLAS none")
    prefault_mb = 500

    def setup(self, seed, work_dir, rec):
        self.work_dir = work_dir
        self.requests = volume_requests(seed)
        self.op()

    def op(self):
        from repro.sweeps import run_campaign

        with fresh_store(self.work_dir) as store:
            result = run_campaign(self.requests, store=store, jobs=1)
        return campaign_words(result, len(self.requests))


class PerhopDefault(Workload):
    name = _PH
    why = ("what a library user gets without flags: repro.multiply in the default per-hop legacy mode, "
           "every registered algorithm at p=256 and p=1024; bypassed by every batched-engine optimisation")
    prefault_mb = 260

    def setup(self, seed, work_dir, rec):
        import numpy as np
        from repro.algorithms import registered_algorithms
        from repro.machine.transport import allclose_tolerances

        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((SMALL_SIDE, SMALL_SIDE))
        self.b = rng.standard_normal((SMALL_SIDE, SMALL_SIDE))
        self.reference = self.a @ self.b
        rtol, atol_unit = allclose_tolerances(np.float64)
        self.tolerances = {"rtol": rtol, "atol": atol_unit * SMALL_SIDE}
        self.scenarios = (small(256), small(1024))
        self.algorithms = registered_algorithms()
        self.op()

    def multiply(self, algorithm: str, scenario, mode: str = "legacy") -> float:
        """One verified ``repro.multiply``; returns its mean words per rank."""
        import numpy as np
        import repro

        report = repro.multiply(self.a, self.b, scenario.p, scenario.memory_words,
                                algorithm=algorithm, mode=mode)
        if not (report.correct and np.allclose(report.matrix, self.reference, **self.tolerances)):
            raise OpFailed(f"{algorithm} on {scenario.name} ({mode}) failed verification against A @ B")
        return report.mean_words_per_rank

    def op(self):
        return sum(self.multiply(algorithm, scenario)
                   for scenario in self.scenarios for algorithm in self.algorithms)


class CampaignCold(Workload):
    name = _CC
    why = ("240 runs of ~30 ms over two worker processes into a fresh store: worker spawn, pipe IPC, "
           "lease/store appends and planning are a large share, the engines a small one")
    # No pre-fault: every op spawns two workers, and ``spawn_pools`` says why
    # the parent's heap must then stay its natural size (about 50 MiB).

    def setup(self, seed, work_dir, rec):
        self.work_dir = work_dir
        self.spec = grid240(seed)
        self.runs = len(self.spec.expand())
        self.op()

    def op(self):
        from repro.sweeps import run_campaign

        with fresh_store(self.work_dir) as store:
            result = run_campaign(self.spec, store=store, jobs=CAMPAIGN_JOBS)
        return campaign_words(result, self.runs)


WORKLOADS: tuple[type[Workload], ...] = (
    NumericPaper, NumericSharded, VolumePaper, PerhopDefault, CampaignCold,
)


def get_workload(name: str) -> Workload:
    for cls in WORKLOADS:
        if cls.name == name:
            return cls()
    raise KeyError(f"unknown workload {name!r}; known: {[cls.name for cls in WORKLOADS]}")
