"""Layered performance ledger: five workloads, end to end and layer by layer.

    python benchmarks/ledger/run.py                      # every workload, both passes
    python benchmarks/ledger/run.py --workload NAME      # one workload, both passes
    python benchmarks/ledger/run.py --compare A.json B.json

Each workload runs in its own child process (``worker.py``), closed loop, one
client: set-up with one untimed warm-up op, then ops back to back for
``--seconds``.  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs the workload's minimum op count and then the layer
pass; leaving ``--trace`` out does both in one process.  Every metric is
printed by name with its unit, outputs are checked (verification against
``A @ B``, word conservation, campaign run counts), ``--out`` writes one JSON
document with the environment fingerprint, and with ``--workload`` the last
line of standard output is the one-object summary ``BENCHMARK.json``'s
contract asks for.  README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import CHILD_MALLOC_ENV, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

LEDGER_DIR = Path(__file__).resolve().parent
SOURCE_DIR = LEDGER_DIR.parents[1] / "src"
#: Scratch space for result stores, spec files and result documents; inside
#: the checkout because the benchmark may write nowhere else.
WORK_ROOT = LEDGER_DIR / ".work"
#: A workload process that outlives this is killed with everything it started.
CHILD_TIMEOUT_S = 170


def run_workload(cls, seed: int, seconds: float, layers: bool, work_dir: Path) -> dict:
    """Run one workload in a child process; return its result document."""
    result_file = work_dir / f"{cls.name}.json"
    env = dict(os.environ, **CHILD_MALLOC_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE_DIR), env.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, str(LEDGER_DIR / "worker.py"), "--workload", cls.name, "--seed", str(seed),
         "--seconds", str(seconds), "--layers", str(int(layers)), "--work", str(work_dir),
         "--result", str(result_file), "--spawned-at", repr(time.monotonic())],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child leads its own session: whatever it started goes with it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0 or not result_file.exists():
        raise RuntimeError(f"workload {cls.name} process " + (
            f"exceeded {CHILD_TIMEOUT_S} s" if code is None else f"exited with code {code}"))
    return json.loads(result_file.read_text())


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def print_document(document: dict) -> None:
    name = document["workload"]
    info = document["info"]
    op_times = info["op_times_s"]
    q1, _, q3 = statistics.quantiles(op_times, n=4)
    print(f"== {name}: {document['attempted']} ops attempted, {document['failed']} failed, "
          f"correct={document['correct']}")
    for reason in document["reasons"]:
        print(f"   ! {reason}")
    for metric in END_TO_END:
        print(f"   {metric.name:<28} {document['end_to_end'][metric.name]:>16.6f} {metric.unit}")
    print(f"   {'fail_frac':<28} {document['failed'] / document['attempted']:>16.6f} frac")
    print(f"   per-op: median {document['end_to_end']['op_s']:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
          f"mean {statistics.fmean(op_times):.4f} s over {len(op_times)} ops; "
          f"imports {info['import_s']:.3f} s; heap pre-fault {info['prefault_s']:.3f} s "
          f"(in no metric), {info['prefault_untouched_mb']:.0f} MiB of it never used")
    if document["per_layer"] is not None:
        for layer in PER_LAYER:
            if name in layer.workloads:
                print(f"   {layer.name:<36} {document['per_layer'][layer.name]:>16.6f} {layer.unit:<6}"
                      f" -> {layer.moves}")


def summary_line(document: dict, trace: int) -> str:
    """The one-object result the benchmark contract reads from the last line."""
    if trace:
        values = document["per_layer"] or {layer.name: 0.0 for layer in PER_LAYER}
        metrics = {layer.name: {"value": values[layer.name], "unit": layer.unit} for layer in PER_LAYER}
    else:
        metrics = {metric.name: {"value": document["end_to_end"][metric.name], "unit": metric.unit}
                   for metric in END_TO_END}
    return json.dumps({
        "correct": document["correct"], "attempted": document["attempted"],
        "failed": document["failed"], "metrics": metrics,
    })


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Print each (workload, end-to-end metric) of B against A; refuse unlike boxes."""
    first, second = (json.loads(Path(path).read_text()) for path in (path_a, path_b))
    if first["fingerprint"] != second["fingerprint"]:
        print("refusing to compare: the environment fingerprints differ")
        for key in sorted(set(first["fingerprint"]) | set(second["fingerprint"])):
            a, b = first["fingerprint"].get(key), second["fingerprint"].get(key)
            if a != b:
                print(f"   {key}: {a!r} != {b!r}")
        return 2
    worse = 0
    print(f"{'workload':<16} {'metric':<20} {'A':>16} {'B':>16} {'change':>9}  verdict")
    for name in first["workloads"]:
        if name not in second["workloads"]:
            print(f"{name:<16} missing from {path_b}")
            worse += 1
            continue
        for metric in END_TO_END:
            a = first["workloads"][name]["end_to_end"][metric.name]
            b = second["workloads"][name]["end_to_end"][metric.name]
            change = (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
            worsening = change if metric.better == "lower" else -change
            verdict = ("worse" if worsening > metric.bound
                       else "better" if worsening < -metric.bound else "within bound")
            worse += verdict == "worse"
            print(f"{name:<16} {metric.name:<20} {a:>16.6f} {b:>16.6f} {change:>+9.2%}  "
                  f"{verdict} (bound {metric.bound:g})")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    names = [cls.name for cls in WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="drives the generated input matrices only")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="length of the timed region")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only; default: both")
    parser.add_argument("--out", help="write the result document (metrics, spans, fingerprint) to this file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result documents instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SOURCE_DIR / "repro").is_dir():
        print(f"cannot find the program: {SOURCE_DIR / 'repro'} is not a directory", file=sys.stderr)
        return 2

    layers = args.trace != 0
    seconds = 0.0 if args.trace == 1 else args.seconds
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    documents = {}
    try:
        for cls in WORKLOADS:
            if args.workload in (None, cls.name):
                documents[cls.name] = run_workload(cls, args.seed, seconds, layers, work_dir)
                print_document(documents[cls.name])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    fingerprints = [document.pop("fingerprint") for document in documents.values()]
    print("environment: " + json.dumps(fingerprints[0]))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"fingerprint": fingerprints[0], "seed": args.seed, "seconds": args.seconds,
             "workloads": documents}, indent=1) + "\n")
    if args.workload:
        print(summary_line(documents[args.workload], args.trace or 0))
    return 0 if all(document["correct"] for document in documents.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
