"""Persistent shard-worker pool for the plane engine's numeric execution.

The plane transport executes a whole machine's batched GEMMs in-process.
This module shards one of them -- COSMA's single-sheet plane GEMM
(:mod:`repro.core.cosma` ``_sharded_gemm``) -- across a pool of worker
*processes* over ``multiprocessing.shared_memory``; ScaLAPACK, CTF, CARMA
and Cannon run their numerics in process whatever ``shards`` says:

* the parent casts each operand into a shared segment once per run
  (:meth:`ShardPool.share`), straight from the caller's array: one pass, no
  private converted copy in the parent; every job message carries only
  ``(job id, kernel name, slice spec)``, never an array payload (zero-copy
  handoff);
* segments outlive their run: :meth:`ShardPool.release` parks them by tag,
  and the next run's ``share`` of a tag takes the parked segment when its
  byte size matches instead of creating (and first-touching) a fresh one;
  when it does not match, the old segment is unlinked (and unmapped by the
  workers) before the new one is filled, so the pool holds at most one
  segment per tag.  Only repeated runs of the same sizes in one process
  gain; between runs the parked segments stay in ``/dev/shm`` until the
  next run, :func:`evict_pool` or interpreter exit;
* each worker maps a segment once, by name, and keeps the mapping until the
  parent reports the segment unlinked; tags (the names kernels read) are per
  run, so a released tag is unknown to the workers;
* each worker owns one contiguous stripe of the leading axis
  (:func:`repro.utils.intmath.split_offsets`) and runs a named kernel from :data:`KERNELS` over
  its stripe, writing results straight into the shared output segment,
  which is zero-filled even when reused; the caller takes one copy of it;
* BLAS threading inside each worker is pinned via environment variables at
  spawn time (``OPENBLAS_NUM_THREADS`` et al. read at import), so ``shards``
  workers split the machine's cores instead of oversubscribing them.

Counter accounting never enters this module: all counters stay in the parent
in its :class:`~repro.machine.counters.CommCounters` matrix, which is what
makes counters byte-identical across shard counts by construction.

Supervision is SIGKILL-safe: workers are :class:`repro.utils.workers.Worker`
processes (the primitive the campaign supervisor uses too), and the parent
collects replies with :func:`~repro.utils.workers.wait_any`, which watches
each worker's pipe *and* its process sentinel; a worker that dies without
replying surfaces a structured :class:`ShardWorkerError` (never a hang), and
the broken pool unlinks every segment it holds, parked ones included
(:func:`get_pool` replaces it).

``shards=1`` callers must not construct a pool at all -- the in-process
engine is the provable baseline (:func:`available_shards` reports whether a
multi-shard pool is even worth building on this host).
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.utils.workers import Worker, WorkerDied, wait_any

#: Environment variables that pin the BLAS/OpenMP thread count in a freshly
#: spawned interpreter (read at numpy import, hence set before spawn).
_BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ShardWorkerError(RuntimeError):
    """A shard worker failed: crashed/killed mid-job, or raised in a kernel.

    Attributes
    ----------
    shard:
        Index of the failing worker.
    exitcode:
        The dead process's exit code (``None`` when the worker survived but
        its kernel raised).
    """

    def __init__(self, message: str, shard: int, exitcode: int | None = None) -> None:
        super().__init__(message)
        self.shard = int(shard)
        self.exitcode = exitcode


def available_shards(requested: int) -> tuple[int, str | None]:
    """Effective shard count for this host, with a skip reason when reduced.

    Returns ``(effective, None)`` when a multi-process pool makes sense, or
    ``(1, reason)`` when the host cannot profit from one (single core) or
    cannot run one (no usable ``shared_memory``).  Callers that received an
    *explicit* shard count should honor it regardless -- this helper only
    governs defaults (the benchmark's recorded-fallback path).
    """
    requested = int(requested)
    if requested <= 1:
        return 1, None
    cpus = os.cpu_count() or 1
    if cpus < 2:
        return 1, f"cpu_count={cpus}"
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=8)
        probe.close()
        probe.unlink()
    except Exception as exc:  # pragma: no cover - platform-specific
        return 1, f"shared_memory unavailable: {type(exc).__name__}: {exc}"
    return min(requested, cpus), None


# ----------------------------------------------------------------------
# kernels (resolved by name inside the worker -- specs stay picklable)
# ----------------------------------------------------------------------

def _kernel_gemm_rows(segments: dict[str, np.ndarray], spec: dict) -> None:
    """``out[r0:r1, c0:c1] = a[r0:r1, k0:k1] @ b[k0:k1, c0:c1]`` over this
    shard's row stripe (``cols`` and ``k`` default to all of them; with
    ``add`` set the product is added to ``out`` instead).

    Fuses the per-slot GEMM and the k-reduction of the unsharded plane path:
    each shard computes its stripe of the *final* product directly, so no
    ``(slots, m, n)`` intermediate stack is ever materialized.
    """
    r0, r1 = (int(edge) for edge in spec["rows"])
    if r0 >= r1:
        return
    a = segments[spec["a"]]
    b = segments[spec["b"]]
    out = segments[spec["out"]]
    cols = slice(*spec.get("cols", (None, None)))
    k = slice(*spec.get("k", (None, None)))
    target = out[r0:r1, cols]
    if spec.get("add"):
        target += a[r0:r1, k] @ b[k, cols]
    else:
        np.matmul(a[r0:r1, k], b[k, cols], out=target)


#: Named kernels a worker may be asked to run.  Workers resolve the name in
#: their own interpreter, so job messages stay tiny and picklable.
KERNELS = {
    "gemm_rows": _kernel_gemm_rows,
}


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

def _worker_main(conn, shard_index: int) -> None:  # pragma: no cover - subprocess
    """Shard worker loop: map each segment once, then run slice-spec jobs."""
    from multiprocessing import resource_tracker, shared_memory

    # The parent owns every segment's lifetime.  Spawned workers share the
    # parent's resource-tracker process, and Python < 3.13 has no
    # ``SharedMemory(track=False)``: an attach would re-register the name
    # and the tracker would try to unlink it again at exit.  Suppress
    # shared-memory registration for this worker (it only ever attaches).
    _original_register = resource_tracker.register

    def _register(name, rtype):
        if rtype != "shared_memory":
            _original_register(name, rtype)

    resource_tracker.register = _register

    #: segment name -> SharedMemory, mapped on first attach, closed on unlink
    mappings: dict[str, shared_memory.SharedMemory] = {}
    #: tag -> this run's view of its segment
    views: dict[str, np.ndarray] = {}

    def _unmap(names) -> None:
        for name in names:
            shm = mappings.pop(name, None)
            if shm is None:
                continue
            try:
                shm.close()
            except BufferError:
                pass

    try:
        while True:
            message = conn.recv()
            op = message[0]
            if op == "attach":
                _, tag, shm_name, shape, dtype_name, replaced = message
                _unmap(replaced)
                shm = mappings.get(shm_name)
                if shm is None:
                    shm = mappings[shm_name] = shared_memory.SharedMemory(name=shm_name)
                views[tag] = np.ndarray(tuple(shape), dtype=np.dtype(dtype_name), buffer=shm.buf)
                conn.send(("ok", None, {}))
            elif op == "run":
                _, job_id, kernel_name, spec = message
                try:
                    start = time.perf_counter()
                    KERNELS[kernel_name](views, spec)
                    seconds = time.perf_counter() - start
                    conn.send(("ok", job_id, {"seconds": seconds}))
                except Exception as exc:
                    tail = traceback.format_exc(limit=4)
                    conn.send(("error", job_id, type(exc).__name__, str(exc), tail))
            elif op == "release":
                views.clear()
                conn.send(("ok", None, {}))
            elif op == "stop":
                conn.send(("ok", None, {}))
                return  # the finally clause unmaps everything
            else:
                conn.send(("error", None, "ValueError", f"unknown op {op!r}", ""))
    except (EOFError, KeyboardInterrupt):
        pass
    finally:
        views.clear()
        _unmap(list(mappings))
        conn.close()


# ----------------------------------------------------------------------
# parent-side pool
# ----------------------------------------------------------------------

@contextmanager
def _pinned_blas_env(threads_per_shard: int):
    """Temporarily pin BLAS thread env vars while spawning workers.

    Spawned interpreters re-import numpy and read these variables during
    BLAS initialization, so the pin applies per-worker without touching the
    parent's already-initialized BLAS.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_ENV_VARS}
    os.environ.update({name: str(threads_per_shard) for name in _BLAS_ENV_VARS})
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


class ShardPool:
    """A persistent pool of shard workers over shared-memory segments.

    Lifecycle: construct (spawns workers) -> :meth:`share` operands ->
    :meth:`run` jobs (any number of rounds) -> :meth:`release` the run ->
    repeat share/run/release -> :meth:`shutdown`.  ``release`` parks the
    run's segments for the next run to reuse; views returned by ``share``
    are valid until then.  A worker death at any point raises
    :class:`ShardWorkerError` and poisons the pool (:attr:`broken`);
    poisoned pools refuse further work and hold no segment.
    """

    def __init__(self, shards: int, blas_threads: int | None = None) -> None:
        import multiprocessing as mp

        if int(shards) < 2:
            raise ValueError("ShardPool needs shards >= 2; shards=1 is the in-process engine")
        self.shards = int(shards)
        self.broken = False
        self._job_counter = 0
        #: tag -> (SharedMemory, parent ndarray view) of the current run
        self._segments: dict[str, tuple] = {}
        #: tag -> the released segment the tag's next share may reuse
        self._parked: dict = {}
        if blas_threads is None:
            blas_threads = max(1, (os.cpu_count() or 1) // self.shards)
        self.blas_threads = int(blas_threads)
        context = mp.get_context("spawn")
        with _pinned_blas_env(self.blas_threads):
            self._workers = [
                Worker(context, _worker_main, (index,), name=f"repro-shard-{index}")
                for index in range(self.shards)
            ]

    # -- supervision ------------------------------------------------------
    def _exchange(self, messages: Sequence) -> list:
        """Send ``messages[i]`` to worker ``i``; gather one reply from each.

        SIGKILL-safe: a worker that died before or after taking its message
        poisons the pool and raises :class:`ShardWorkerError`.
        """
        if self.broken:
            raise ShardWorkerError("pool is broken; build a new one", shard=-1)
        for index, (worker, message) in enumerate(zip(self._workers, messages)):
            try:
                worker.send(message)
            except WorkerDied as death:
                # The worker died before we could even hand it the job.
                self._fail(index, death)
        replies: list = [None] * self.shards
        pending = set(self._workers)
        while pending:
            for worker, reply in wait_any(pending):
                index = self._workers.index(worker)
                if isinstance(reply, WorkerDied):
                    # Died mid-job (crash or SIGKILL) without replying.
                    self._fail(index, reply)
                replies[index] = reply
                pending.discard(worker)
        return replies

    def _fail(self, index: int, death: WorkerDied) -> None:
        self._terminate()
        raise ShardWorkerError(
            f"shard worker {index}/{self.shards} died with exit code {death.exitcode} "
            "before replying (crashed or killed); pool discarded",
            shard=index,
            exitcode=death.exitcode,
        )

    # -- shared segments --------------------------------------------------
    def share(self, tag: str, array: np.ndarray, dtype=None) -> np.ndarray:
        """Cast ``array`` into a shared segment attached on every worker.

        The segment holds ``dtype`` (default: the array's own) and is filled
        by one casting assignment: a float64 or a non-contiguous ``array``
        reaches a float32 segment without a private converted copy first.
        Returns the parent-side view of the segment, valid until
        :meth:`release`.  The pool owns the segment (and the only long-lived
        references to its buffer), so it can close and unlink it without
        ``BufferError``.
        """
        array = np.asarray(array)
        dtype = array.dtype if dtype is None else np.dtype(dtype)
        return self._create(tag, array.shape, dtype, fill=array)

    def share_zeros(self, tag: str, shape: Sequence[int], dtype) -> np.ndarray:
        """A zero-initialized shared segment attached on every worker."""
        return self._create(tag, tuple(int(e) for e in shape), np.dtype(dtype))

    def _create(self, tag, shape, dtype, fill=None) -> np.ndarray:
        from multiprocessing import shared_memory

        if tag in self._segments:
            raise ValueError(f"segment {tag!r} already shared; release() first")
        nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
        shm = self._parked.pop(tag, None)
        replaced = []
        if shm is not None and shm.size != nbytes:
            # Unlink the tag's old segment before its successor exists, and
            # have the workers unmap it before the successor is filled: a
            # tag never holds more than one segment's pages.
            replaced = [shm.name]
            _unlink([shm])
            shm = None
        if shm is None:
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        self._segments[tag] = (shm, view)
        self._exchange(
            [("attach", tag, shm.name, tuple(shape), np.dtype(dtype).name, replaced)] * self.shards
        )
        if fill is None:
            view.fill(0)
        else:
            view[...] = fill
        return view

    def release(self) -> None:
        """End the run: forget its tags and park its segments by tag.

        The next run's ``share`` of a tag takes the parked segment when the
        byte size matches and replaces it otherwise, so the pool holds at
        most one segment per tag.
        """
        if not self._segments:
            return
        self._parked.update((tag, shm) for tag, (shm, _view) in self._segments.items())
        self._segments.clear()
        if not self.broken:
            self._exchange([("release",)] * self.shards)

    # -- jobs -------------------------------------------------------------
    def run(self, kernel: str, specs: Sequence[dict]) -> list[dict]:
        """Run one slice-spec job per shard; return each worker's info dict.

        ``specs[i]`` goes to worker ``i`` (one message of a few hundred
        bytes -- arrays travel only through the shared segments).  Raises
        :class:`ShardWorkerError` if any worker dies or its kernel raises.
        """
        if len(specs) != self.shards:
            raise ValueError(f"need {self.shards} specs, got {len(specs)}")
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; known: {tuple(KERNELS)}")
        self._job_counter += 1
        job_id = self._job_counter
        replies = self._exchange([("run", job_id, kernel, spec) for spec in specs])
        infos = []
        for index, reply in enumerate(replies):
            if reply[0] == "error":
                _, _, type_name, text, tail = reply
                self._terminate()
                raise ShardWorkerError(
                    f"shard worker {index} kernel {kernel!r} raised "
                    f"{type_name}: {text}\n{tail}",
                    shard=index,
                )
            infos.append(reply[2])
        return infos

    # -- teardown ---------------------------------------------------------
    def _terminate(self) -> None:
        """Poison the pool: kill every worker at once, destroy all segments."""
        self.broken = True
        for worker in self._workers:
            worker.kill()
        self._destroy_segments()

    def _destroy_segments(self) -> None:
        """Unlink the current run's segments and the parked ones."""
        segments = [shm for shm, _view in self._segments.values()] + list(self._parked.values())
        self._segments.clear()
        self._parked.clear()
        _unlink(segments)

    def shutdown(self) -> None:
        """Stop every worker and destroy all segments (idempotent)."""
        self.broken = True
        for worker in self._workers:
            worker.stop(("stop",), timeout=2.0)
        self._destroy_segments()


def _unlink(segments) -> None:
    """Close and unlink ``segments`` (the parent created every one)."""
    for shm in segments:
        # A caller still holding a view of the segment makes close() raise
        # BufferError; unlink the name regardless so the segment cannot leak
        # past the last mapping.
        try:
            shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# module-level pool cache (pools are expensive to spawn; reuse per count)
# ----------------------------------------------------------------------

_POOLS: dict[int, ShardPool] = {}


def get_pool(shards: int) -> ShardPool:
    """The cached persistent pool for ``shards`` workers (spawned on demand)."""
    pool = _POOLS.get(int(shards))
    if pool is not None and not pool.broken:
        return pool
    pool = ShardPool(int(shards))
    _POOLS[int(shards)] = pool
    return pool


def evict_pool(shards: int) -> None:
    """Drop (and shut down) the cached pool for ``shards``, if any."""
    pool = _POOLS.pop(int(shards), None)
    if pool is not None:
        pool.shutdown()


@atexit.register
def _shutdown_all_pools() -> None:  # pragma: no cover - interpreter teardown
    for shards in list(_POOLS):
        try:
            evict_pool(shards)
        except Exception:
            pass
