"""One workload process: set-up, timed region, memory reading, layer pass.

``run.py`` starts this script once per workload (so ``peak_rss_mb`` is per
workload) and reads the JSON document it leaves in ``--result``.  The main
guard matters: ``ShardPool`` and the sweep supervisor use the spawn start
method, which re-imports this file in every worker they start.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import Recorder, run_layer_pass
from workloads import CHILD_MALLOC_ENV, MIN_OPS, PAPER_SIDE, get_workload

#: Byte the pre-faulted heap is filled with; what still holds it at the end
#: was never handed to the program.
POISON = 0xA5


def _blas_threads() -> int | str:
    """Thread count of the BLAS numpy loaded, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = set(re.findall(r"/\S*(?:openblas|mkl_rt|blis)\S*\.so\S*", maps.read()))
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _last_level_cache() -> str:
    sizes = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"))
    return sizes[-1].read_text().strip() if sizes else "unknown"


def fingerprint() -> dict:
    """What two result documents must share before their times are compared."""
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "last_level_cache": _last_level_cache(),
        "numeric_matrix_bytes": PAPER_SIDE * PAPER_SIDE * 8,
        "malloc_env": {name: os.environ.get(name) for name in CHILD_MALLOC_ENV},
    }


def prefault(megabytes: int) -> int:
    """Touch ``megabytes`` of heap, free it, and return where it was.

    This VM hands free guest pages back to its hypervisor within seconds, and
    the first touch of a page that is not backed costs 2-15 s per GiB
    (README.md).  Under ``CHILD_MALLOC_ENV`` the freed block stays in the
    process, so every later allocation of the workload lands on pages that
    are already there and ``setup_s`` times the program, not the hypervisor.
    """
    import numpy as np

    block = np.full(megabytes << 20, POISON, dtype=np.uint8)
    address = block.ctypes.data
    del block
    return address


def untouched_prefault_bytes(address: int, size: int) -> int:
    """Bytes at the top of the pre-faulted block the program never used.

    glibc carves allocations off the front of the heap's free top, so what
    the workload never needed is the block's tail, still holding
    :data:`POISON`.  ``peak_rss_mb`` subtracts it; otherwise pre-faulting
    would put a floor under the metric.  Returns 0 (no correction) unless
    the whole block is still mapped heap.
    """
    import ctypes

    import numpy as np

    # The heap shows as several [heap] lines once numpy's madvise calls have
    # split it; the block must lie inside their union or it is not read.
    with open("/proc/self/maps") as maps:
        pieces = sorted((int(lo, 16), int(hi, 16)) for lo, hi in
                        re.findall(r"^([0-9a-f]+)-([0-9a-f]+) rw.. .*\[heap\]$", maps.read(), re.MULTILINE))
    covered = address
    for lo, hi in pieces:
        if lo <= covered < hi:
            covered = hi
    if covered < address + size:
        return 0
    view = np.frombuffer((ctypes.c_ubyte * size).from_address(address), dtype=np.uint8)
    # Small steps: the comparison's own temporary lands at the front of the
    # untouched tail, so the answer is short by at most about two steps.
    step = 1 << 20
    for stop in range(size, 0, -step):
        start = max(0, stop - step)
        touched = np.flatnonzero(view[start:stop] != POISON)
        if touched.size:
            return size - (start + int(touched[-1]) + 1)
    return size


def _timed_region(wl, seconds: float) -> tuple[list[float], list[float], list[str]]:
    """Ops back to back, in pairs, for ``seconds`` (at least ``MIN_OPS``)."""
    op_times: list[float] = []
    words: list[float] = []
    reasons: list[str] = []
    region_start = time.perf_counter()
    # A failing workload is not measured for longer than its minimum.
    while len(op_times) < MIN_OPS or (not reasons and time.perf_counter() - region_start < seconds):
        for _ in range(2):
            start = time.perf_counter()
            try:
                words.append(wl.op())
            except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
                reasons.append(f"{type(exc).__name__}: {exc}")
            op_times.append(time.perf_counter() - start)
    return op_times, words, reasons


def run_workload(args: argparse.Namespace) -> dict:
    import_start = time.perf_counter()
    import numpy  # noqa: F401 - timed: users pay these imports too
    import repro  # noqa: F401

    import_s = time.perf_counter() - import_start
    work_dir = Path(args.work)
    wl = get_workload(args.workload)
    rec = Recorder(enabled=bool(args.layers))
    reasons: list[str] = []
    prefault_s, prefault_address = 0.0, None
    try:
        wl.spawn_pools()
        prefault_start = time.perf_counter()
        prefault_address = prefault(wl.prefault_mb)
        prefault_s = time.perf_counter() - prefault_start
        wl.setup(args.seed, work_dir, rec)
    except Exception as exc:  # noqa: BLE001 - reported; the ops then fail for the same reason
        reasons.append(f"set-up: {type(exc).__name__}: {exc}")
    setup_s = time.monotonic() - args.spawned_at - prefault_s

    op_times, words, op_reasons = _timed_region(wl, args.seconds)
    reasons += op_reasons
    failed = len(op_reasons)
    if len(set(words)) > 1:
        reasons.append(f"simulated words per rank differ between ops: {sorted(set(words))}")
        failed = len(op_times)
    sim_words = words[0] if words else 0.0

    wl.teardown()
    untouched_mb = 0.0
    if prefault_address is not None:
        untouched_mb = untouched_prefault_bytes(prefault_address, wl.prefault_mb << 20) / (1 << 20)
    peak_rss_mb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - untouched_mb,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    op_s = statistics.median(op_times)
    document = {
        "workload": wl.name,
        "seed": args.seed,
        "attempted": len(op_times),
        "failed": failed,
        "reasons": reasons,
        "end_to_end": {
            "op_s": op_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / len(op_times),
            "sim_words_per_rank": sim_words,
        },
        "info": {
            "import_s": import_s,
            "prefault_s": prefault_s,
            "prefault_untouched_mb": untouched_mb,
            "op_times_s": op_times,
        },
        "per_layer": None,
        "spans": [],
        "fingerprint": fingerprint(),
    }
    if args.layers:
        try:
            if failed:
                raise RuntimeError("the timed ops failed; nothing to stage against")
            document["per_layer"] = run_layer_pass(wl, rec, op_s, sim_words, work_dir)
        except Exception as exc:  # noqa: BLE001 - reported as an incorrect run
            reasons.append(f"layer pass: {type(exc).__name__}: {exc}")
        finally:
            wl.teardown()
        document["spans"] = rec.spans
    document["correct"] = not reasons
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed region; 0 runs the workload's minimum op count")
    parser.add_argument("--layers", type=int, choices=(0, 1), required=True,
                        help="1 records spans and runs the layer pass after the timed region")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the orchestrator just before it started this process")
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--result", required=True, help="file the result document is written to")
    args = parser.parse_args(argv)
    document = run_workload(args)
    Path(args.result).write_text(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
