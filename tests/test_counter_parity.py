"""Counter- and numeric-parity regression tests: every engine against its
per-hop reference.

The numbers the paper reports -- words, messages, rounds, the input/output
split, flops -- are a function of the schedule, and every registered
algorithm runs its schedule as one batched engine in both modes.  The per-hop
reference of ``tests/oracle`` runs the same schedule hop by hop.  On every
scenario, each engine must reproduce it cell for cell (the whole counter
matrix) and in its resident peak, in ``plane`` and ``volume`` mode, and the
``plane`` product must match ``A @ B`` and the reference's product -- with
``np.allclose``, since the engines' GEMMs associate sums differently.
"""

import numpy as np
import oracle
import pytest

from repro.algorithms import AlgorithmSpec, get_algorithm, register, registered_algorithms, unregister
from repro.core import cosma
from repro.experiments.harness import run_algorithm
from repro.machine.counters import WORDS_SENT, ConservationError
from repro.machine.shard import ShardPool
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, GemmProduct, ShapeToken
from repro.workloads.scaling import (
    Scenario,
    extra_memory_sweep,
    limited_memory_sweep,
    strong_scaling_sweep,
)
from repro.workloads.shapes import ProblemShape, square_shape

#: The retired per-hop transports' names, which the harness still runs as
#: ``plane`` (the frozen ledger passes them).
RETIRED_MODES = ("legacy", "zerocopy")

#: The built-ins and the registry's extension example, which registers on
#: import (here, inside the tests, so other modules' parameters do not see it).
PARITY_ALGORITHMS = sorted(registered_algorithms()) + ["AllGather1D"]


def _spec(name: str) -> AlgorithmSpec:
    import repro.extensions.allgather  # noqa: F401 - registers AllGather1D

    return get_algorithm(name)


def _run_mode(name: str, scenario: Scenario, mode: str):
    """Per-rank counters, the product, and the peak footprint of one run."""
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode=mode)
    if mode == "volume":
        a, b = ShapeToken((scenario.shape.m, scenario.shape.k)), ShapeToken(
            (scenario.shape.k, scenario.shape.n)
        )
    else:
        a, b = scenario.shape.random_matrices(seed=0)
    product = _spec(name).runner(a, b, scenario, machine)
    counters = machine.counters.data.tolist()
    return counters, product, machine.peak_resident_words


def _run_oracle(name: str, scenario: Scenario):
    """The per-hop reference's counters, product and peak on the same inputs."""
    machine, product = oracle.run(name, scenario, *scenario.shape.random_matrices(seed=0))
    return machine.counters.data.tolist(), product, machine.peak_resident_words


#: An odd-sided CARMA point whose tiling is staggered: the recursion cuts k
#: first (7 + 8), then the two halves differently, so A / B / C projections
#: overlap partially (only the lowest covering rank owns a shared element)
#: and output blocks of one k-half straddle those of the other.
STAGGERED_CARMA = Scenario(
    name="odd-13x7x15-p8", shape=ProblemShape(13, 7, 15), p=8, memory_words=4096, regime="custom",
)

SCENARIO_GRID = (
    limited_memory_sweep("square", [4, 9], 2048)
    + limited_memory_sweep("largeK", [4], 2048)
    + extra_memory_sweep("square", [16], 2048)
    + strong_scaling_sweep(square_shape(48), [8])
    + [STAGGERED_CARMA]
)


@pytest.mark.parametrize("name", PARITY_ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIO_GRID, ids=lambda s: s.name)
def test_counters_identical_across_modes(name, scenario):
    reference, _, reference_peak = _run_oracle(name, scenario)
    assert any(reference[WORDS_SENT]), "scenario moved no data at all"
    for mode in MODES:
        counters, _, peak = _run_mode(name, scenario, mode)
        assert counters == reference, f"{name} counters diverge from the per-hop run in {mode} mode"
        assert peak == reference_peak, f"{name} peak footprint diverges in {mode} mode"


@pytest.mark.parametrize("name", PARITY_ALGORITHMS)
@pytest.mark.parametrize("scenario", SCENARIO_GRID, ids=lambda s: s.name)
def test_numeric_modes_agree_with_reference_product(name, scenario):
    """The plane product must match A @ B and the per-hop product; counters
    and peak stay the reference's.

    This is the plane engine's core contract: full result verification with
    counters byte-for-byte equal to the per-hop reference execution.
    """
    a, b = scenario.shape.random_matrices(seed=0)
    expected = a @ b
    reference_counters, reference_product, reference_peak = _run_oracle(name, scenario)
    assert np.allclose(reference_product, expected, atol=1e-8 * scenario.shape.k)
    counters, product, peak = _run_mode(name, scenario, "plane")
    assert np.allclose(product, expected, atol=1e-8 * scenario.shape.k), (
        f"{name} product diverges from A @ B in plane mode"
    )
    assert np.allclose(product, reference_product, atol=1e-8 * scenario.shape.k), (
        f"{name} product diverges from the per-hop product in plane mode"
    )
    assert counters == reference_counters
    assert peak == reference_peak, f"{name} peak footprint diverges in plane mode"


@pytest.mark.parametrize("mode", MODES + RETIRED_MODES)
def test_harness_runs_and_conserves_in_every_mode(mode):
    """Every mode the harness accepts, the two retired spellings included:
    those run as ``plane`` and the run says so."""
    scenario = limited_memory_sweep("square", [4], 2048)[0]
    run = run_algorithm("COSMA", scenario, mode=mode)
    assert run.mode == ("plane" if mode in RETIRED_MODES else mode)
    assert run.correct
    assert run.verified == (mode != "volume")
    assert run.mean_words_per_rank > 0


def test_volume_mode_flops_match_legacy():
    """A volume run counts the per-hop reference's flops."""
    scenario = limited_memory_sweep("square", [9], 2048)[0]
    reference, _ = oracle.run("COSMA", scenario, *scenario.shape.random_matrices(seed=0))
    volume = run_algorithm("COSMA", scenario, mode="volume")
    assert volume.total_flops == reference.counters.total_flops
    assert volume.max_flops_per_rank == reference.counters.max_flops_per_rank()


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

    def test_cosma_product_is_its_c_sheet(self):
        scenario = limited_memory_sweep("square", [9], 2048)[0]
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane"
        )
        a, b = scenario.shape.random_matrices(seed=0)
        product = get_algorithm("COSMA").runner(a, b, scenario, machine)
        # No plane: the GEMM box reads A and B as they are.
        assert not machine.planes
        assert isinstance(product, GemmProduct)
        assert product.shape == (scenario.shape.m, scenario.shape.n)
        assert product.a is a and product.b is b
        # One box, the whole of C over all of k, computed only when asked.
        (m, k), n = a.shape, b.shape[1]
        assert product.boxes.tolist() == [[0, m, 0, n, 0, k]]
        assert np.allclose(np.asarray(product), a @ b)

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
        """The registry's extension example runs like the built-ins: its
        engine counts its per-hop reference's ring, and a retired mode name
        runs it as ``plane``."""
        _spec("AllGather1D")
        scenario = limited_memory_sweep("square", [4], 4096)[0]
        reference, _ = oracle.run("AllGather1D", scenario, *scenario.shape.random_matrices(seed=0))
        plane = run_algorithm("AllGather1D", scenario, mode="plane")
        assert plane.correct and plane.verified
        assert plane.mean_words_per_rank == reference.counters.mean_words_per_rank()
        assert plane.rounds == reference.counters.max_rounds()
        retired = run_algorithm("AllGather1D", scenario, mode="legacy")
        assert (retired.mode, retired.mean_words_per_rank) == ("plane", plane.mean_words_per_rank)


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

    def test_float32_plane_never_roundtrips_through_float64(self, monkeypatch):
        """A float32 input must flow into the planes, or sharded into the
        pool's segments, without a float64 copy."""
        scenario = self.SCENARIO
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane",
            plane_dtype="float32",
        )
        a, b = scenario.shape.random_matrices(seed=0)
        a32 = np.ascontiguousarray(a, dtype=np.float32)
        b32 = np.ascontiguousarray(b, dtype=np.float32)
        operands = []
        layer_product = cosma.layer_product

        def recording_product(machine, decomposition, a_matrix, b_matrix):
            operands.extend((a_matrix, b_matrix))
            return layer_product(machine, decomposition, a_matrix, b_matrix)

        monkeypatch.setattr(cosma, "layer_product", recording_product)
        product = get_algorithm("COSMA").runner(a32, b32, scenario, machine)
        assert product.dtype == np.float32
        assert product.shape == (scenario.shape.m, scenario.shape.n)
        # Shared memory proves no dtype conversion (a float64 round-trip
        # would have allocated a new buffer).
        assert np.shares_memory(operands[0], a32) and np.shares_memory(operands[1], b32)
        assert not machine.planes
        assert product.a.dtype == product.b.dtype == np.asarray(product).dtype == np.float32

        # shards=2: the caller's float32 arrays themselves reach the pool,
        # which fills float32 segments from them; no plane exists.
        shared = {}
        share = ShardPool.share

        def recording_share(pool, tag, array, dtype=None):
            view = share(pool, tag, array, dtype=dtype)
            shared[tag] = (array, view.dtype)
            return view

        monkeypatch.setattr(ShardPool, "share", recording_share)
        machine = DistributedMachine(
            scenario.p, memory_words=scenario.memory_words, mode="plane",
            shards=2, plane_dtype="float32",
        )
        product = get_algorithm("COSMA").runner(a32, b32, scenario, machine)
        assert product.dtype == np.float32
        assert product.shape == (scenario.shape.m, scenario.shape.n)
        # The product is the dense copy of the pool's output segment.
        assert not machine.planes and type(product) is np.ndarray
        for tag, operand in (("cosma.A", a32), ("cosma.B", b32)):
            array, dtype = shared[tag]
            assert np.shares_memory(array, operand) and dtype == np.float32

    def test_local_multiply_keeps_float32_operands_float32(self):
        """The per-hop reference's local multiply keeps float32 float32; a
        mixed pair computes in float64."""
        machine = oracle.HopMachine(2)
        a = np.ones((4, 3), dtype=np.float32)
        b = np.ones((3, 5), dtype=np.float32)
        assert machine.multiply(0, a, b).dtype == np.float32
        assert machine.multiply(0, a, b.astype(np.float64)).dtype == np.float64

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
