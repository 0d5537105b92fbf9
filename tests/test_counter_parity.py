"""Counter- and numeric-parity regression tests for the execution modes.

The whole point of the fast-path transports is that the *numbers the paper
reports* -- words, messages, rounds, the input/output split -- are a function
of payload shapes only.  Every algorithm must therefore produce byte-identical
per-rank counters (every cell of the counter matrix) under legacy, zerocopy,
plane and volume transports on every scenario; the numeric modes (legacy,
zerocopy, plane) must additionally agree on the product itself -- the plane
engine's stacked GEMMs associate sums differently, so its products are
``np.allclose`` to the reference rather than bitwise equal.
"""

import numpy as np
import pytest

from repro.algorithms import AlgorithmSpec, get_algorithm, register, registered_algorithms, unregister
from repro.experiments.harness import run_algorithm
from repro.machine.counters import WORDS_SENT, ConservationError
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, NUMERIC_MODES, ShapeToken
from repro.workloads.scaling import (
    Scenario,
    extra_memory_sweep,
    limited_memory_sweep,
    strong_scaling_sweep,
)
from repro.workloads.shapes import square_shape


def _run_mode(name: str, scenario: Scenario, mode: str):
    """Per-rank counters, the product, and the peak footprint of one run."""
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode=mode)
    if mode == "volume":
        a, b = ShapeToken((scenario.shape.m, scenario.shape.k)), ShapeToken(
            (scenario.shape.k, scenario.shape.n)
        )
    else:
        a, b = scenario.shape.random_matrices(seed=0)
    product = get_algorithm(name).runner(a, b, scenario, machine)
    counters = machine.counters.data.tolist()
    return counters, product, machine.peak_resident_words


def _per_rank_counters(name: str, scenario: Scenario, mode: str):
    return _run_mode(name, scenario, mode)[0]


SCENARIO_GRID = (
    limited_memory_sweep("square", [4, 9], 2048)
    + limited_memory_sweep("largeK", [4], 2048)
    + extra_memory_sweep("square", [16], 2048)
    + strong_scaling_sweep(square_shape(48), [8])
)


@pytest.mark.parametrize("name", sorted(registered_algorithms()))
@pytest.mark.parametrize("scenario", SCENARIO_GRID, ids=lambda s: s.name)
def test_counters_identical_across_modes(name, scenario):
    reference = _per_rank_counters(name, scenario, "legacy")
    assert any(reference[WORDS_SENT]), "scenario moved no data at all"
    for mode in MODES[1:]:
        counters = _per_rank_counters(name, scenario, mode)
        assert counters == reference, f"{name} counters diverge in {mode} mode"


@pytest.mark.parametrize("name", sorted(registered_algorithms()))
@pytest.mark.parametrize("scenario", SCENARIO_GRID, ids=lambda s: s.name)
def test_numeric_modes_agree_with_reference_product(name, scenario):
    """Every numeric mode's product must match A @ B; counters stay identical.

    This is the plane engine's core contract: full result verification with
    counters byte-for-byte equal to the per-hop reference execution.
    """
    a, b = scenario.shape.random_matrices(seed=0)
    expected = a @ b
    reference_counters, reference_product, reference_peak = _run_mode(
        name, scenario, "legacy"
    )
    assert np.allclose(reference_product, expected, atol=1e-8 * scenario.shape.k)
    for mode in NUMERIC_MODES[1:]:
        counters, product, peak = _run_mode(name, scenario, mode)
        assert np.allclose(product, expected, atol=1e-8 * scenario.shape.k), (
            f"{name} product diverges from A @ B in {mode} mode"
        )
        assert np.allclose(product, reference_product, atol=1e-8 * scenario.shape.k), (
            f"{name} product diverges from the legacy product in {mode} mode"
        )
        assert counters == reference_counters
        assert peak == reference_peak, f"{name} peak footprint diverges in {mode} mode"


@pytest.mark.parametrize("mode", MODES)
def test_harness_runs_and_conserves_in_every_mode(mode):
    scenario = limited_memory_sweep("square", [4], 2048)[0]
    run = run_algorithm("COSMA", scenario, mode=mode)
    assert run.mode == mode
    assert run.correct
    assert run.verified == (mode != "volume")
    assert run.mean_words_per_rank > 0


def test_volume_mode_flops_match_legacy():
    scenario = limited_memory_sweep("square", [9], 2048)[0]
    legacy = run_algorithm("COSMA", scenario, mode="legacy")
    volume = run_algorithm("COSMA", scenario, mode="volume")
    assert volume.total_flops == legacy.total_flops
    assert volume.max_flops_per_rank == legacy.max_flops_per_rank


class TestConservationAssertion:
    """The harness must refuse runs whose sent/received totals disagree."""

    def test_harness_raises_on_unbalanced_counters(self):
        def leaky(a, b, scenario, machine):
            machine.counters.data[WORDS_SENT, 0] += 5  # sent but never received
            return a @ b if not isinstance(a, ShapeToken) else a

        register(AlgorithmSpec(name="_leaky", runner=leaky))
        try:
            scenario = limited_memory_sweep("square", [4], 2048)[0]
            with pytest.raises(ConservationError):
                run_algorithm("_leaky", scenario, verify=False)
        finally:
            unregister("_leaky")

    def test_harness_passes_balanced_runs(self):
        scenario = limited_memory_sweep("square", [4], 2048)[0]
        run = run_algorithm("COSMA", scenario)
        assert run.correct


class TestPlaneEngine:
    """Plane-mode specifics: registered planes, verified harness runs."""

    def test_cosma_registers_operand_planes(self):
        scenario = limited_memory_sweep("square", [9], 2048)[0]
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane"
        )
        a, b = scenario.shape.random_matrices(seed=0)
        product = get_algorithm("COSMA").runner(a, b, scenario, machine)
        assert set(machine.planes) == {"cosma.A", "cosma.B", "cosma.C"}
        # The C plane is one sheet and the product is that sheet, not a copy.
        c_plane = machine.planes["cosma.C"]
        assert c_plane.data.shape == (1, scenario.shape.m, scenario.shape.n)
        assert np.shares_memory(product, c_plane.data)

    def test_plane_harness_run_is_verified(self):
        scenario = limited_memory_sweep("square", [9], 2048)[0]
        run = run_algorithm("COSMA", scenario, mode="plane")
        assert run.mode == "plane"
        assert run.verified and run.correct
        volume = run_algorithm("COSMA", scenario, mode="volume")
        assert run.mean_words_per_rank == volume.mean_words_per_rank
        assert run.total_flops == volume.total_flops

    def test_plane_machine_reuse_accumulates_like_other_modes(self):
        """A second run on the same plane-mode machine supersedes its planes."""
        scenario = limited_memory_sweep("square", [4], 2048)[0]
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane"
        )
        a, b = scenario.shape.random_matrices(seed=0)
        get_algorithm("COSMA").runner(a, b, scenario, machine)
        once = machine.counters.total_words_sent
        product = get_algorithm("COSMA").runner(a, b, scenario, machine)
        assert machine.counters.total_words_sent == 2 * once
        assert np.allclose(product, a @ b, atol=1e-8 * scenario.shape.k)

    def test_unported_algorithm_falls_back_transparently(self):
        """An extension registered without a plane path must run unchanged."""
        import repro.extensions.allgather  # noqa: F401 - self-registers

        scenario = limited_memory_sweep("square", [4], 4096)[0]
        legacy = run_algorithm("AllGather1D", scenario, mode="legacy")
        plane = run_algorithm("AllGather1D", scenario, mode="plane")
        assert plane.correct and plane.verified
        assert plane.mean_words_per_rank == legacy.mean_words_per_rank
        assert plane.rounds == legacy.rounds


class TestShardedPlane:
    """Sharded plane engine: counters byte-identical, products allclose.

    Sharding is an execution policy -- the parent posts every counter on the
    counter matrix before any worker
    runs, so any shard count (including uneven splits of the participant
    axis) must reproduce the unsharded counters byte-for-byte and a product
    ``np.allclose`` to both the unsharded plane product and ``A @ B``.
    """

    SCENARIO = limited_memory_sweep("square", [9], 2048)[0]

    def _run_sharded(self, name, scenario, shards, plane_dtype="float64"):
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane",
            shards=shards, plane_dtype=plane_dtype,
        )
        a, b = scenario.shape.random_matrices(seed=0)
        product = get_algorithm(name).runner(a, b, scenario, machine)
        counters = machine.counters.data.tolist()
        return counters, product, machine.peak_resident_words

    def test_shards_one_is_bit_identical_to_plane_engine(self):
        """``shards=1`` must be the exact in-process engine, not a near miss."""
        counters, product, peak = self._run_sharded("COSMA", self.SCENARIO, 1)
        reference_counters, reference_product, reference_peak = _run_mode(
            "COSMA", self.SCENARIO, "plane"
        )
        assert np.array_equal(product, reference_product)  # bitwise
        assert counters == reference_counters
        assert peak == reference_peak

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_sharded_parity_for_every_planar_algorithm(self, name, shards):
        scenario = self.SCENARIO
        reference_counters, reference_product, reference_peak = _run_mode(
            name, scenario, "plane"
        )
        counters, product, peak = self._run_sharded(name, scenario, shards)
        a, b = scenario.shape.random_matrices(seed=0)
        tol = 1e-8 * scenario.shape.k
        assert np.allclose(product, a @ b, atol=tol), (
            f"{name} sharded ({shards}) product diverges from A @ B"
        )
        assert np.allclose(product, reference_product, atol=tol), (
            f"{name} sharded ({shards}) product diverges from the unsharded plane"
        )
        assert counters == reference_counters, (
            f"{name} counters drift under shards={shards}"
        )
        assert peak == reference_peak

    def test_uneven_split_covers_every_row(self):
        """7 shards over a 48-row output forces uneven stripes; no row may drop."""
        from repro.utils.intmath import split_offsets

        offsets = split_offsets(48, 7)
        assert offsets[0] == (0, 7) and offsets[-1] == (42, 48)
        assert [hi - lo for lo, hi in offsets] == [7, 7, 7, 7, 7, 7, 6]
        covered = sorted(r for lo, hi in offsets for r in range(lo, hi))
        assert covered == list(range(48))

    def test_sigkilled_worker_surfaces_structured_error(self):
        """A SIGKILLed shard worker must raise ShardWorkerError, never hang."""
        import os
        import signal

        from repro.machine.shard import ShardPool, ShardWorkerError

        pool = ShardPool(2)
        try:
            pool.share_zeros("a", (4, 4), np.float64)
            pool.share_zeros("b", (4, 4), np.float64)
            pool.share_zeros("out", (4, 4), np.float64)
            victim = pool._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            specs = [
                {"a": "a", "b": "b", "out": "out", "rows": [lo, hi]}
                for lo, hi in ((0, 2), (2, 4))
            ]
            with pytest.raises(ShardWorkerError) as excinfo:
                pool.run("gemm_rows", specs)
            assert excinfo.value.shard == 1
            assert excinfo.value.exitcode == -signal.SIGKILL
            assert pool.broken
            with pytest.raises(ShardWorkerError):
                pool.run("gemm_rows", specs)  # poisoned pools refuse work
        finally:
            pool.shutdown()

    def test_kernel_exception_surfaces_structured_error(self):
        from repro.machine.shard import ShardPool, ShardWorkerError

        pool = ShardPool(2)
        try:
            pool.share_zeros("a", (4, 4), np.float64)
            with pytest.raises(ShardWorkerError, match="KeyError"):
                # spec references a segment that was never shared
                pool.run("gemm_rows", [
                    {"a": "a", "b": "missing", "out": "a", "rows": [0, 2]},
                    {"a": "a", "b": "missing", "out": "a", "rows": [2, 4]},
                ])
        finally:
            pool.shutdown()


class TestPlaneDtype:
    """The opt-in float32 plane dtype, end to end."""

    SCENARIO = limited_memory_sweep("square", [9], 2048)[0]

    def test_float32_plane_never_roundtrips_through_float64(self):
        """A float32 input must flow into the planes without a float64 copy."""
        scenario = self.SCENARIO
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane",
            plane_dtype="float32",
        )
        a, b = scenario.shape.random_matrices(seed=0)
        a32 = np.ascontiguousarray(a, dtype=np.float32)
        b32 = np.ascontiguousarray(b, dtype=np.float32)
        product = get_algorithm("COSMA").runner(a32, b32, scenario, machine)
        assert product.dtype == np.float32
        a_plane = machine.planes["cosma.A"]
        assert a_plane.data.dtype == np.float32
        # Shared memory proves no dtype conversion (a float64 round-trip
        # would have allocated a new buffer).
        assert np.shares_memory(a_plane.data, a32)
        assert machine.planes["cosma.C"].data.dtype == np.float32

    def test_local_multiply_keeps_float32_operands_float32(self):
        machine = DistributedMachine(2, memory_words=4096, plane_dtype="float32")
        a = np.ones((4, 3), dtype=np.float32)
        b = np.ones((3, 5), dtype=np.float32)
        assert machine.local_multiply(0, a, b).dtype == np.float32
        # Mixed operands still normalize to the float64 reference path.
        assert machine.local_multiply(0, a, b.astype(np.float64)).dtype == np.float64

    @pytest.mark.parametrize("shards", [1, 2])
    def test_float32_counters_match_float64(self, shards):
        """Words are elements, not bytes: counters are dtype-independent."""
        scenario = self.SCENARIO
        runs = {}
        for dtype in ("float64", "float32"):
            machine = DistributedMachine(
                scenario.p, memory_words=scenario.memory_words, mode="plane",
                shards=shards, plane_dtype=dtype,
            )
            a, b = scenario.shape.random_matrices(seed=0)
            product = get_algorithm("COSMA").runner(a, b, scenario, machine)
            runs[dtype] = (machine.counters.data.tolist(), product)
        assert runs["float32"][0] == runs["float64"][0]
        assert np.allclose(
            runs["float32"][1], runs["float64"][1],
            rtol=1e-4, atol=1e-6 * scenario.shape.k,
        )

    def test_harness_verifies_float32_at_relative_tolerance(self):
        run = run_algorithm("COSMA", self.SCENARIO, mode="plane", plane_dtype="float32")
        assert run.verified and run.correct

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_every_engine_returns_a_verified_float32_product(self, name):
        """float32 means one thing: float32 operands, GEMMs and product, float32 tolerances."""
        scenario = self.SCENARIO
        run = run_algorithm(name, scenario, mode="plane", plane_dtype="float32")
        assert run.verified and run.correct
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane",
            plane_dtype="float32",
        )
        a, b = scenario.shape.random_matrices(seed=0)
        assert get_algorithm(name).runner(a, b, scenario, machine).dtype == np.float32

    def test_unknown_plane_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported plane dtype"):
            DistributedMachine(2, memory_words=4096, plane_dtype="int32")


def test_volume_mode_reaches_scales_legacy_cannot():
    """A quick paper-direction scale check kept small enough for CI: p = 256.

    (The full p = 1024, 4096^3 demonstration is the ledger's ``volume_paper``
    workload, ``benchmarks/ledger/``.)
    """
    scenario = Scenario(
        name="square-volume-p256",
        shape=square_shape(512),
        p=256,
        memory_words=8192,
        regime="limited",
    )
    run = run_algorithm("COSMA", scenario, mode="volume")
    assert run.total_flops >= 2 * 512**3
    assert run.mean_words_per_rank > 0
