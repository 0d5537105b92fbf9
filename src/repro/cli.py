"""Command-line interface.

Exposes the library's main entry points without writing any Python::

    python -m repro multiply --m 256 --n 320 --k 192 --processors 16 --memory 16384
    python -m repro multiply --m 256 --n 256 --k 256 --processors 16 --memory 16384 --algorithm CARMA
    python -m repro plan     --m 4096 --n 4096 --k 4096 --processors 1024 --memory 65536 --algorithm CTF
    python -m repro plan     --m 4096 --n 4096 --k 4096 --processors 65 --memory 1000000
    python -m repro sweep    --families square --regimes limited --processors 4 16 36 --mode plane
    python -m repro sweep    --families square largeK --regimes limited extra --processors 4 16 36 64 --jobs 4
    python -m repro bounds   --m 4096 --n 4096 --k 4096 --processors 512 --memory 65536
    python -m repro sequential --size 32 --memory 64 128 256
    python -m repro store verify  --store .sweep-cache
    python -m repro store compact --store .sweep-cache
    python -m repro multiply --processors 16 --mode plane --trace trace.json --trace-events events.jsonl

Algorithm names (and their choice lists) come from the algorithm registry
(:mod:`repro.algorithms`); aliases like ``SUMMA`` or ``2.5D`` are accepted
anywhere an algorithm is named.

Each subcommand prints a plain-text report; exit code 0 means every executed
multiplication verified against numpy.  ``store verify`` has a documented
exit-code contract: 0 = store is clean, 1 = store holds torn / duplicate /
drifted lines, 2 = no store at the given path.

Observability: the global ``--log-level`` flag configures the ``repro``
logger hierarchy; ``multiply`` and ``sweep`` accept ``--trace FILE`` (write a
Perfetto-loadable Chrome trace of the run: one ``round`` span per round
class, with its label, first round, multiplicity and one round's words,
flops and hops), ``--trace-events FILE`` (write the
raw span/event stream as JSON lines; either flag turns tracing on) and
``--profile [N]`` (cProfile the command and print the top N cumulative
entries).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.algorithms import InfeasiblePlan, Plan, algorithm_choices, algorithm_specs, registered_algorithms
from repro.api import lower_bound_parallel, lower_bound_sequential, multiply, plan
from repro.experiments.report import format_table
from repro.machine.transport import MODES, PLANE_DTYPES, ShapeToken
from repro.obs import (
    LOG_LEVELS,
    CampaignProgress,
    configure_logging,
    tracing,
    write_chrome_trace,
    write_event_log,
)
from repro.pebbling.mmm_bounds import schedule_io
from repro.pebbling.mmm_schedule import optimal_tile_sizes
from repro.sequential import tiled_multiply
from repro.sweeps import ResultStore, SweepSpec, run_campaign, scenario_summary_table, tidy_rows
from repro.sweeps.runner import DEFAULT_STORE_PATH
from repro.sweeps.spec import FAMILIES, REGIMES
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape


def _add_multiply_args(p_mult: argparse.ArgumentParser) -> None:
    p_mult.add_argument("--m", type=int, default=256)
    p_mult.add_argument("--n", type=int, default=256)
    p_mult.add_argument("--k", type=int, default=256)
    p_mult.add_argument("--processors", type=int, default=16)
    p_mult.add_argument("--memory", type=int, default=16384, help="words of local memory per processor")
    p_mult.add_argument("--seed", type=int, default=0)
    p_mult.add_argument("--algorithm", choices=algorithm_choices(), default="COSMA")
    p_mult.add_argument(
        "--mode", choices=list(MODES), default="plane",
        help=(
            "payload transport; 'plane' runs verified numerics, "
            "'volume' counts communication only (no numerics)"
        ),
    )
    p_mult.add_argument(
        "--shards", type=int, default=1,
        help=(
            "shard COSMA's plane GEMM across this many worker processes over "
            "shared memory (other algorithms run in process; counters are "
            "byte-identical across shard counts; 1 = in-process engine)"
        ),
    )
    p_mult.add_argument(
        "--plane-dtype", choices=list(PLANE_DTYPES), default="float64",
        help=(
            "element dtype for numeric payloads; float32 halves memory and "
            "speeds up GEMMs, verified at relative tolerance"
        ),
    )


def _add_instrumentation_flags(p: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--trace-events`` / ``--profile``, shared by the multiply
    and sweep commands."""
    p.add_argument(
        "--trace", default=None, metavar="TRACE.json",
        help="run with tracing enabled and write a Chrome trace (open in ui.perfetto.dev): "
             "one round span per round class (label, first round, multiplicity, and one "
             "round's words, flops and hops)",
    )
    p.add_argument(
        "--trace-events", default=None, metavar="EVENTS.jsonl",
        help="run with tracing enabled and write the raw span/event stream as JSON lines",
    )
    p.add_argument(
        "--profile", type=int, nargs="?", const=25, default=None, metavar="N",
        help="cProfile the command and print the top N cumulative entries (default 25)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="COSMA reproduction: communication-optimal matrix multiplication on a simulated machine",
    )
    parser.add_argument(
        "--log-level", choices=list(LOG_LEVELS), default="warning",
        help="threshold for the 'repro' logger hierarchy on stderr (default: warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mult = sub.add_parser("multiply", help="run one algorithm on random matrices and report its communication")
    _add_multiply_args(p_mult)
    _add_instrumentation_flags(p_mult)

    p_plan = sub.add_parser("plan", help="plan a run (grid / rounds / predicted words) without executing it")
    p_plan.add_argument("--m", type=int, required=True)
    p_plan.add_argument("--n", type=int, required=True)
    p_plan.add_argument("--k", type=int, required=True)
    p_plan.add_argument("--processors", type=int, required=True)
    p_plan.add_argument("--memory", type=int, required=True)
    p_plan.add_argument("--algorithm", choices=algorithm_choices(), default="COSMA")

    p_sweep = sub.add_parser(
        "sweep",
        help="run a cached, parallel scenario campaign (the sweep engine)",
    )
    _add_sweep_args(p_sweep)
    _add_instrumentation_flags(p_sweep)

    p_bounds = sub.add_parser("bounds", help="print the analytic lower bounds and per-algorithm costs")
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--k", type=int, required=True)
    p_bounds.add_argument("--processors", type=int, required=True)
    p_bounds.add_argument("--memory", type=int, required=True)

    p_seq = sub.add_parser("sequential", help="measure sequential I/O of the tiled kernel vs the bound")
    p_seq.add_argument("--size", type=int, default=32, help="m = n = k")
    p_seq.add_argument("--memory", type=int, nargs="+", default=[64, 128, 256])
    p_seq.add_argument("--seed", type=int, default=0)

    p_store = sub.add_parser("store", help="inspect and maintain a sweep result store")
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_verify = store_sub.add_parser(
        "verify",
        help="scan the store for torn, duplicate and schema-drifted lines (read-only)",
        description=(
            "Scan a result store without modifying it.  Exit codes: "
            "0 = clean, 1 = dirty (torn / duplicate / drifted lines; "
            "'repro store compact' restores cleanliness), 2 = no store at "
            "the given path."
        ),
    )
    p_verify.add_argument(
        "--store", default=DEFAULT_STORE_PATH,
        help=f"result-store directory (default: {DEFAULT_STORE_PATH})",
    )
    p_verify.add_argument(
        "--json", action="store_true",
        help="print the verify report as a JSON document instead of prose",
    )
    p_compact = store_sub.add_parser(
        "compact", help="atomically rewrite the store keeping the last record per key",
    )
    p_compact.add_argument(
        "--store", default=DEFAULT_STORE_PATH,
        help=f"result-store directory (default: {DEFAULT_STORE_PATH})",
    )

    return parser


def _positive(cast: type) -> Callable[[str], float]:
    """An argparse ``type`` parsing with ``cast`` and rejecting values <= 0
    (argparse reports either as "invalid positive <cast> value")."""
    def parse(text: str) -> float:
        value = cast(text)
        if not value > 0:
            raise ValueError(text)
        return value
    parse.__name__ = f"positive {cast.__name__}"
    return parse


def _add_sweep_args(p_sweep: argparse.ArgumentParser) -> None:
    # Campaign flags default to None so _cmd_sweep can tell "explicitly
    # passed" from "defaulted" (a --spec file replaces all of them); the real
    # defaults live in _SWEEP_FLAG_DEFAULTS.
    p_sweep.add_argument("--families", nargs="+", choices=list(FAMILIES), default=None)
    p_sweep.add_argument("--regimes", nargs="+", choices=list(REGIMES), default=None)
    p_sweep.add_argument("--processors", type=int, nargs="+", default=None)
    p_sweep.add_argument("--memory", type=int, default=None, help="words of local memory per processor (default: 2048)")
    p_sweep.add_argument("--algorithms", nargs="+", choices=algorithm_choices(), default=None)
    p_sweep.add_argument(
        "--mode", choices=list(MODES), default=None,
        help="payload transport; 'volume' (default) simulates counters only and scales to paper-size grids",
    )
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=_positive(int), default=1, help="worker processes (1 = in-process)")
    p_sweep.add_argument(
        "--out", default=DEFAULT_STORE_PATH,
        help=f"result-store directory (default: {DEFAULT_STORE_PATH}); delete it to invalidate the cache",
    )
    p_sweep.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="re-execute every point even if its key is already stored",
    )
    p_sweep.add_argument(
        "--retry-failures", action="store_true",
        help="re-execute cached 'failed' records (successes still come from cache)",
    )
    p_sweep.add_argument(
        "--spec", default=None, metavar="SPEC.json",
        help=(
            "load the whole campaign (grid, algorithms, mode, seed) from a "
            "SweepSpec JSON file; combining it with campaign flags is an error"
        ),
    )
    p_sweep.add_argument("--full-table", action="store_true", help="print the full tidy table, not the per-scenario summary")
    p_sweep.add_argument(
        "--json", action="store_true",
        help="print the campaign result (summary, metrics, records) as one JSON document",
    )
    p_sweep.add_argument(
        "--no-progress", dest="show_progress", action="store_false",
        help="disable the live campaign heartbeat on stderr",
    )


def _cmd_multiply(args: argparse.Namespace) -> int:
    if args.mode == "volume":
        # Counters-only: no run reads the values, so generate none.
        a, b = ShapeToken((args.m, args.k)), ShapeToken((args.k, args.n))
    else:
        rng = np.random.default_rng(args.seed)
        a = rng.standard_normal((args.m, args.k))
        b = rng.standard_normal((args.k, args.n))
    try:
        result = multiply(
            a, b, processors=args.processors, memory_words=args.memory,
            algorithm=args.algorithm, mode=args.mode,
            shards=args.shards, plane_dtype=args.plane_dtype,
        )
    except InfeasiblePlan as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(f"problem              : C({args.m}x{args.n}) = A({args.m}x{args.k}) B({args.k}x{args.n})")
    print(f"algorithm            : {result.algorithm}")
    print(f"processor grid       : {result.grid} ({result.processors_used}/{args.processors} used)")
    print(f"rounds               : {result.rounds}")
    print(f"words received/rank  : {result.mean_received_per_rank:,.0f} (mean over p)")
    _print_theorem2(result.plan)
    if not result.verified:
        print("verified against numpy: SKIPPED (volume mode: counters-only payloads)")
        return 0
    print(f"verified against numpy: {'OK' if result.correct else 'MISMATCH'}")
    return 0 if result.correct else 1


def _cmd_plan(args: argparse.Namespace) -> int:
    run_plan = plan(
        args.m, args.n, args.k, processors=args.processors,
        memory_words=args.memory, algorithm=args.algorithm,
    )
    print(f"algorithm            : {run_plan.algorithm}")
    print(f"feasible             : {'yes' if run_plan.feasible else 'no'}")
    if not run_plan.feasible:
        print(f"reason               : {run_plan.reason}")
        return 1
    print(f"fitted grid          : {run_plan.grid}")
    print(f"ranks used/available : {run_plan.processors_used}/{args.processors}")
    print(f"idle ranks           : {args.processors - run_plan.processors_used}")
    print(f"rounds (busiest rank): {run_plan.rounds}")
    print(f"predicted words/rank : {run_plan.predicted_words_per_rank:,.0f} "
          "(received, mean over p; exact for COSMA/ScaLAPACK/CTF/Cannon)")
    _print_theorem2(run_plan)
    return 0


def _print_theorem2(run_plan: Plan) -> None:
    """The busiest local domain's I/O against Theorem 2, the ratio of the two."""
    domain = run_plan.domain_io_words
    print(f"busiest domain I/O   : {'unknown' if domain is None else f'{domain:,}'}")
    print(f"Theorem 2 bound      : {run_plan.lower_bound_per_rank:,.0f}")
    print(f"optimality ratio     : {run_plan.optimality_ratio:.3f} (busiest domain I/O / Theorem 2 bound)")


def _cmd_bounds(args: argparse.Namespace) -> int:
    m, n, k, p, s = args.m, args.n, args.k, args.processors, args.memory
    rows = [
        ["sequential lower bound (Theorem 1)", lower_bound_sequential(m, n, k, s)],
        ["sequential feasible schedule", schedule_io(m, n, k, *optimal_tile_sizes(s))],
        ["parallel lower bound (Theorem 2)", lower_bound_parallel(m, n, k, p, s)],
    ]
    # One cost row per registered algorithm that has a Table 3 model.
    scenario = Scenario(name="bounds", shape=ProblemShape(m=m, n=n, k=k, family="cli"),
                        p=p, memory_words=s, regime="cli")
    for spec in algorithm_specs():
        cost = spec.cost(scenario)
        if cost is None:
            continue
        label = spec.name + (f" ({', '.join(spec.aliases)})" if spec.aliases else "")
        rows.append([f"{label} cost", cost.io_words_per_rank])
    print(format_table(["quantity", "words per processor"], rows))
    return 0


#: Campaign flags a --spec file fully replaces, with their effective defaults
#: (the parser deliberately defaults them all to None, see _build_parser).
_SWEEP_FLAG_DEFAULTS = {
    "families": ("square",),
    "regimes": ("limited",),
    "processors": (4, 16, 36, 64),
    "memory": 2048,
    "algorithms": registered_algorithms(),
    "mode": "volume",
    "seed": 0,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    passed = {name: getattr(args, name) for name in _SWEEP_FLAG_DEFAULTS
              if getattr(args, name) is not None}
    if args.spec is not None:
        if passed:
            # A spec file defines the whole campaign; silently ignoring
            # explicit flags (e.g. --mode plane) would mislead the user.
            flags = " ".join(f"--{name}" for name in passed)
            print(f"error: --spec replaces the campaign flags; drop {flags}", file=sys.stderr)
            return 2
        spec = SweepSpec.from_dict(json.loads(Path(args.spec).read_text()))
    else:
        values = dict(_SWEEP_FLAG_DEFAULTS, **passed)
        spec = SweepSpec(
            name="cli-sweep",
            algorithms=tuple(values["algorithms"]),
            families=tuple(values["families"]),
            regimes=tuple(values["regimes"]),
            p_values=tuple(values["processors"]),
            memory_words=values["memory"],
            mode=values["mode"],
            seed=values["seed"],
        )
    total = len(spec.expand())
    if not args.json:
        print(
            f"campaign '{spec.name}': {total} runs "
            f"({len(spec.scenarios())} scenarios x {len(spec.algorithms)} algorithms, "
            f"mode={spec.mode}, jobs={args.jobs}, store={args.out})"
        )
    heartbeat = CampaignProgress(total, store_path=args.out) if args.show_progress else None
    try:
        result = run_campaign(
            spec, store=args.out, jobs=args.jobs, resume=args.resume,
            retry_failures=args.retry_failures, progress=heartbeat,
        )
    finally:
        if heartbeat is not None:
            heartbeat.close()
    rows = tidy_rows(result.records)
    exit_code = 0 if result.failed == 0 and all(row.get("correct", True) for row in rows) else 1
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return exit_code
    print(result.summary_line())
    if result.stale_lines:
        print(f"store holds {result.stale_lines} stale lines; run 'repro store compact' to drop them")
    if args.full_table:
        from repro.sweeps import campaign_table

        print(campaign_table(rows))
    else:
        print(scenario_summary_table(rows))
    for row in rows:
        if row["status"] == "failed":
            print(f"FAILED {row['scenario']} {row['algorithm']}: {row['error_type']}: {row['error_message']}")
    if spec.mode == "volume":
        print("\nnumerical verification skipped (volume mode: counters-only payloads)")
    return exit_code


def _cmd_sequential(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    n = args.size
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    rows = []
    ok = True
    for s in args.memory:
        run = tiled_multiply(a, b, memory_words=s)
        ok = ok and bool(np.allclose(run.matrix, a @ b))
        bound = lower_bound_sequential(n, n, n, s)
        rows.append([s, f"{run.schedule.a}x{run.schedule.b}", round(bound), run.io, round(run.io / bound, 3)])
    print(format_table(["S", "tile", "lower bound", "measured I/O", "ratio"], rows))
    print(f"\nnumerics verified: {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _cmd_store(args: argparse.Namespace) -> int:
    """Exit codes: 0 = clean store, 1 = dirty store, 2 = no store at the path."""
    store_dir = Path(args.store)
    if not (store_dir / "results.jsonl").exists() and not store_dir.exists():
        print(f"error: no result store at {store_dir}", file=sys.stderr)
        return 2
    store = ResultStore(store_dir)
    if args.store_command == "verify":
        report = store.verify()
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.summary())
            for issue in report.issues:
                print(f"  {issue}")
        return 0 if report.clean else 1
    dropped = store.compact()
    report = store.verify()
    print(f"dropped {dropped} stale lines; {report.summary()}")
    return 0 if report.clean else 1


def _profiled(handler: Callable[[argparse.Namespace], int], top_n: int):
    def run(args: argparse.Namespace) -> int:
        profiler = cProfile.Profile()
        code = profiler.runcall(handler, args)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(top_n)
        return code
    return run


_COMMANDS = {
    "multiply": _cmd_multiply,
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "bounds": _cmd_bounds,
    "sequential": _cmd_sequential,
    "store": _cmd_store,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.log_level)
    handler = _COMMANDS[args.command]
    profile_n = getattr(args, "profile", None)
    if profile_n is not None:
        handler = _profiled(handler, profile_n)
    trace_path = getattr(args, "trace", None)
    events_path = getattr(args, "trace_events", None)
    if trace_path is None and events_path is None:
        return handler(args)
    with tracing() as tracer:
        code = handler(args)
    # Notices go to stderr so 'sweep --json' keeps machine-readable stdout.
    if trace_path is not None:
        write_chrome_trace(trace_path, tracer)
        print(
            f"wrote Chrome trace ({len(tracer.events)} events) to {trace_path}; "
            "open in ui.perfetto.dev",
            file=sys.stderr,
        )
    if events_path is not None:
        write_event_log(events_path, tracer)
        print(f"wrote event log to {events_path}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
