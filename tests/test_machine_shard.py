"""The shard pool's segment lifecycle: reuse, the one-run bound, no leaks.

No engine runs on the pool: every COSMA product is computed in process,
whatever ``shards`` says.  The benchmark ledger's ``numeric_sharded``
workload still spawns, feeds and times the pool directly, so its contracts
are held here, driven as that workload drives it (``pool.share`` and
``pool.run("gemm_rows", ...)``).  The pool casts a caller's operand straight
into its shared-memory segment; ``release`` parks the segments by tag and the
next share of a tag of the same byte size reuses its segment, so a repeated
product creates no segment at all.  A share of another size unlinks the
tag's old segment (and the workers unmap it) before the new one is filled,
so no moment holds more than one segment per tag, and nothing the pool
created survives ``evict_pool`` or a SIGKILL-poisoned pool.
"""

import os
import signal
import tracemalloc
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.machine import transport
from repro.machine.shard import ShardPool, ShardWorkerError, evict_pool, get_pool
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, allclose_tolerances, row_stripes
from repro.workloads.scaling import limited_memory_sweep, strong_scaling_sweep
from repro.workloads.shapes import square_shape

SHARDS = 2


@pytest.fixture
def created(monkeypatch) -> list[str]:
    """Names of the shared-memory segments created in this process, in order."""
    names: list[str] = []
    original = shared_memory.SharedMemory

    class Counting(original):
        def __init__(self, name=None, create=False, size=0):
            super().__init__(name=name, create=create, size=size)
            if create:
                names.append(self.name)

    monkeypatch.setattr(shared_memory, "SharedMemory", Counting)
    return names


def _live(names) -> list[str]:
    """Which of ``names`` still exist under ``/dev/shm``."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return [name for name in names if os.path.exists(os.path.join("/dev/shm", name))]


def _unlinked_but_mapped(pids) -> list[str]:
    """Pool segments some process in ``pids`` still maps after their unlink."""
    if not os.path.isdir("/proc/self"):
        pytest.skip("no /proc on this platform")
    lines = []
    for pid in pids:
        with open(f"/proc/{pid}/maps") as maps:
            lines += [line for line in maps if "/psm_" in line and "(deleted)" in line]
    return lines


def _gemm_specs(rows: int) -> list[dict]:
    half = rows // 2
    return [{"a": "a", "b": "b", "out": "out", "rows": edges} for edges in ([0, half], [half, rows])]


def _pool_product(pool, scenario, specs=None) -> np.ndarray:
    """``A @ B`` of ``scenario`` on ``pool``: both operands and a zeroed
    output shared by tag, one row stripe per worker (or ``specs``), the
    output copied out before ``release`` parks the segments."""
    a, b = scenario.shape.random_matrices(seed=0)
    pool.share("a", a)
    pool.share("b", b)
    out = pool.share_zeros("out", (a.shape[0], b.shape[1]), np.float64)
    pool.run("gemm_rows", _gemm_specs(a.shape[0]) if specs is None else specs)
    product = out.copy()
    pool.release()
    return product


def _correct(product, scenario) -> bool:
    a, b = scenario.shape.random_matrices(seed=0)
    return np.allclose(product, a @ b, atol=1e-8 * scenario.shape.k)


class TestSegmentReuse:
    SMALL = limited_memory_sweep("square", [9], 2048)[0]
    LARGE = strong_scaling_sweep(square_shape(48), [8])[0]

    @staticmethod
    def _run_bytes(scenario) -> int:
        """Bytes of one pool product's segments: A, B and the product."""
        shape = scenario.shape
        return 8 * (shape.m * shape.k + shape.k * shape.n + shape.m * shape.n)

    def test_a_repeated_run_creates_no_segment(self, created):
        evict_pool(SHARDS)  # no segment parked by an earlier test
        pool = get_pool(SHARDS)
        try:
            assert _correct(_pool_product(pool, self.SMALL), self.SMALL)
            first = len(created)
            assert _correct(_pool_product(pool, self.SMALL), self.SMALL)
            assert first == 3  # A, B and the product
            assert len(created) == first
        finally:
            evict_pool(SHARDS)
        assert _live(created) == []

    def test_alternating_shapes_hold_one_segment_per_tag(self, created):
        """Checked after every message exchange of every run, not only between runs."""
        evict_pool(SHARDS)
        pool = get_pool(SHARDS)
        bound = max(self._run_bytes(self.SMALL), self._run_bytes(self.LARGE))
        pids = [os.getpid()] + [worker.process.pid for worker in pool._workers]
        checks = []
        exchange = pool._exchange

        def checked_exchange(messages):
            replies = exchange(messages)
            live = _live(created)
            assert sum(os.stat(os.path.join("/dev/shm", name)).st_size for name in live) <= bound
            assert _unlinked_but_mapped(pids) == []
            checks.append(len(live))
            return replies

        pool._exchange = checked_exchange
        try:
            for scenario in [self.SMALL, self.LARGE] * 3:
                assert _correct(_pool_product(pool, scenario), scenario)
                assert sum(shm.size for shm in pool._parked.values()) == self._run_bytes(scenario)
                assert sorted(_live(created)) == sorted(shm.name for shm in pool._parked.values())
        finally:
            evict_pool(SHARDS)
        assert len(checks) >= 6 * 4 and max(checks) == 3
        assert len(created) == 6 * 3 and _live(created) == []

    def test_a_reused_zero_segment_is_zero(self, created):
        pool = ShardPool(SHARDS)
        try:
            pool.share("a", np.ones((4, 3)))
            pool.share("b", np.ones((3, 4)))
            pool.share_zeros("out", (4, 4), np.float64)
            pool.run("gemm_rows", _gemm_specs(4))
            pool.release()
            out = pool.share_zeros("out", (4, 4), np.float64)
            assert len(created) == 3  # the product's segment came back
            assert not out.any()
        finally:
            pool.shutdown()

    def test_a_transposed_operand_shares_and_multiplies(self, rng):
        a = rng.standard_normal((5, 6)).T  # (6, 5), not contiguous
        b = rng.standard_normal((5, 4))
        pool = ShardPool(SHARDS)
        try:
            assert np.array_equal(pool.share("a", a), a)
            pool.share("b", b)
            out = pool.share_zeros("out", (6, 4), np.float64)
            pool.run("gemm_rows", _gemm_specs(6))
            assert np.allclose(out, a @ b)
        finally:
            pool.shutdown()

    def test_a_transposed_operand_runs_sharded_cosma(self, rng):
        scenario = self.SMALL
        shape = scenario.shape
        a = rng.standard_normal((shape.k, shape.m)).T
        b = rng.standard_normal((shape.n, shape.k)).T
        machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="plane",
                                     shards=SHARDS)
        product = get_algorithm("COSMA").runner(a, b, scenario, machine)
        assert np.allclose(product, a @ b)


def _operand(kind: str, rng, rows: int, cols: int) -> np.ndarray:
    """A float64, small-int64 or transposed (non-contiguous) float64 operand."""
    if kind == "int64":
        return rng.integers(-4, 5, (rows, cols))
    if kind == "transposed":
        return rng.standard_normal((cols, rows)).T
    return rng.standard_normal((rows, cols))


class TestOperandCast:
    """The pool casts the caller's operands into their segments; a
    ``shards=2`` run casts once, in process, as every run does."""

    SMALL = limited_memory_sweep("square", [9], 2048)[0]
    KINDS = ("float64", "int64", "transposed")

    @pytest.mark.parametrize("kind", KINDS)
    def test_share_casts_like_asarray(self, kind, rng):
        x = _operand(kind, rng, 6, 5)
        if kind == "int64":
            x = x << 40  # beyond float32's 24-bit mantissa: the cast rounds
        pool = ShardPool(SHARDS)
        try:
            view = pool.share("x", x, dtype=np.float32)
            expected = np.asarray(x, dtype=np.float32)
            assert view.dtype == np.float32 and view.shape == expected.shape
            assert view.tobytes() == expected.tobytes()
        finally:
            pool.shutdown()

    @pytest.mark.parametrize("kind", KINDS)
    def test_sharded_float32_run_matches_in_process(self, kind, rng):
        scenario = self.SMALL
        shape = scenario.shape
        a = _operand(kind, rng, shape.m, shape.k)
        b = _operand(kind, rng, shape.k, shape.n)
        runs = {}
        for shards in (1, SHARDS):
            machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words,
                                         mode="plane", shards=shards, plane_dtype="float32")
            product = get_algorithm("COSMA").runner(a, b, scenario, machine)
            runs[shards] = (machine.counters.data.tobytes(), product)
        (counters, in_process), (sharded_counters, sharded) = runs[1], runs[SHARDS]
        assert sharded_counters == counters
        assert sharded.dtype == in_process.dtype == np.float32
        rtol, atol_unit = allclose_tolerances(np.float32)
        assert np.allclose(sharded, in_process, rtol=rtol, atol=atol_unit * shape.k)

    def test_an_inner_dimension_mismatch_raises_one_message(self):
        a, b = np.ones((4, 3)), np.ones((5, 4))
        scenario = strong_scaling_sweep(square_shape(4), [4])[0]
        messages = []
        for shards in (1, SHARDS):
            machine = DistributedMachine(4, memory_words=4096, mode="plane", shards=shards,
                                         plane_dtype="float32")
            with pytest.raises(ValueError) as raised:
                get_algorithm("COSMA").runner(a, b, scenario, machine)
            messages.append(str(raised.value))
        assert messages == ["inner dimensions do not match: (4, 3) x (5, 4)"] * 2

    def test_a_float32_run_from_float64_allocates_only_its_product(self, monkeypatch):
        """Under tracemalloc, a warm float32 run from float64 inputs at
        ``shards=2``, walked in row stripes as a verified run walks it,
        allocates its two float32 operand casts and one stripe: no dense C."""
        monkeypatch.setattr(transport, "STRIPE_ROWS", 64)
        scenario = strong_scaling_sweep(square_shape(512), [16])[0]
        a, b = scenario.shape.random_matrices(seed=0)

        def run():
            machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words,
                                         mode="plane", shards=SHARDS, plane_dtype="float32")
            product = get_algorithm("COSMA").runner(a, b, scenario, machine)
            for _ in row_stripes(product):
                pass
            return product

        run()  # memoize the plan outside the trace
        tracemalloc.start()
        try:
            product = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(product, GemmProduct) and product.dtype == np.float32
        casts = a.astype(np.float32).nbytes + b.astype(np.float32).nbytes
        stripe = 64 * scenario.shape.n * 4
        dense = scenario.shape.m * scenario.shape.n * 4
        assert casts + stripe <= peak <= 1.05 * (casts + stripe) < casts + dense

    def test_an_uncovered_stripe_fails_on_a_reused_segment(self, created):
        """The reused output segment is zero-filled: the previous product
        must not cover for a stripe no worker wrote."""
        scenario = self.SMALL
        m = scenario.shape.m
        evict_pool(SHARDS)
        pool = get_pool(SHARDS)
        try:
            assert _correct(_pool_product(pool, scenario), scenario)  # parks the right product
            first_stripe_only = [{**spec, "rows": [spec["rows"][0]] * 2} if index else spec
                                 for index, spec in enumerate(_gemm_specs(m))]
            product = _pool_product(pool, scenario, first_stripe_only)
            assert len(created) == 3  # the second product reused every segment
            assert not product[m // 2:].any()
            assert not _correct(product, scenario)
        finally:
            evict_pool(SHARDS)


class TestSegmentTeardown:
    def test_a_released_tag_is_unknown_to_the_workers(self):
        pool = ShardPool(SHARDS)
        try:
            pool.share("a", np.ones((4, 4)))
            pool.share("b", np.ones((4, 4)))
            pool.share_zeros("out", (4, 4), np.float64)
            pool.run("gemm_rows", _gemm_specs(4))
            pool.release()
            with pytest.raises(ShardWorkerError, match="KeyError"):
                pool.run("gemm_rows", _gemm_specs(4))
        finally:
            pool.shutdown()

    def test_a_poisoned_pool_leaves_no_segment(self, created):
        pool = ShardPool(SHARDS)
        try:
            pool.share_zeros("a", (4, 4), np.float64)
            pool.share_zeros("b", (4, 4), np.float64)
            pool.share_zeros("c", (2, 2), np.float64)
            pool.release()  # all three parked
            pool.share_zeros("a", (6, 4), np.float64)  # replaces the parked a
            pool.share_zeros("b", (4, 4), np.float64)  # reuses the parked b
            pool.share_zeros("out", (6, 4), np.float64)
            assert len(created) == 5 and list(pool._parked) == ["c"]
            victim = pool._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)
            with pytest.raises(ShardWorkerError):
                pool.run("gemm_rows", _gemm_specs(6))
            assert pool.broken
            assert _live(created) == []
        finally:
            pool.shutdown()

    def test_evict_pool_leaves_no_parked_segment(self, created):
        pool = get_pool(SHARDS)
        pool.share_zeros("a", (4, 4), np.float64)
        pool.release()
        assert len(pool._parked) == 1
        evict_pool(SHARDS)
        assert created and _live(created) == []
