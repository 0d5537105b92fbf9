#!/usr/bin/env python3
"""Paired parent/change runs of one ledger workload.

    python scripts/ledger_pairs.py --base <rev> --workload campaign_cold -n 10

Extracts ``<rev>`` into a temporary directory (``git archive``: the ledger
needs the committed files, not a checkout, and nothing is left registered in
``.git`` if the script is killed), then runs ``benchmarks/ledger/run.py
--workload W --trace 0`` on that tree and on the working tree, ``n`` pairs,
alternating which side goes first.  Each side runs its *own* copy of the
ledger, as the PR driver does.  Prints, per end-to-end metric, each side's
q1 / median / q3 and how many pairs the working tree won (in the direction
``BENCHMARK.json`` calls better), then ends with one verdict per metric,
read against that metric's ``bound`` in ``BENCHMARK.json``:

* ``gain``: the change won at least nine tenths of the pairs and the medians
  are further apart than the base's inter-quartile range (the rule a gain is
  claimed by, choosing-metrics section 8);
* ``unresolved``: either side's inter-quartile range, relative to the base
  median, is wider than the bound -- the runs spread too widely to tell;
* ``worse than bound``: the change's median is worse than the base's by more
  than the bound, relative to the base median;
* ``within bound``: none of these.

It only calls the ledger; it never edits it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEDGER = Path("benchmarks") / "ledger" / "run.py"


def extract(rev: str, target: Path) -> None:
    """The committed files of ``rev``, unpacked into ``target``."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def run_once(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One ledger run of ``workload`` in ``tree``; its end-to-end metrics."""
    done = subprocess.run(
        [sys.executable, str(LEDGER), "--workload", workload, "--trace", "0",
         "--seed", str(seed)],
        cwd=tree, check=True, capture_output=True, text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} was incorrect in {tree}: {result}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(theirs: list[float], ours: list[float], wins: int, sign: int, bound: float) -> str:
    """``gain``, ``unresolved``, ``worse than bound`` or ``within bound``
    (see the module docstring); ``sign`` is -1 where higher is better."""
    (b_q1, b_median, b_q3), (c_q1, c_median, c_q3) = quartiles(theirs), quartiles(ours)
    if wins >= 0.9 * len(ours) and sign * (b_median - c_median) > b_q3 - b_q1:
        return "gain"
    scale = abs(b_median) or 1.0
    if max(b_q3 - b_q1, c_q3 - c_q1) > bound * scale:
        return "unresolved"
    if sign * (c_median - b_median) > bound * scale:
        return "worse than bound"
    return "within bound"


def report(base: list[dict[str, float]], change: list[dict[str, float]]) -> None:
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    higher_is_better = {m["name"] for m in manifest["end_to_end"] if m["better"] == "higher"}
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    verdicts = {}
    print(f"{'metric':<20}{'side':<8}{'q1':>18}{'median':>18}{'q3':>18}   change wins")
    for name in base[0]:
        ours = [run[name] for run in change]
        theirs = [run[name] for run in base]
        sign = -1 if name in higher_is_better else 1
        wins = sum(sign * o < sign * t for o, t in zip(ours, theirs))
        verdicts[name] = verdict(theirs, ours, wins, sign, bounds[name])
        ties = sum(o == t for o, t in zip(ours, theirs))
        for side, values in (("base", theirs), ("change", ours)):
            q1, median, q3 = quartiles(values)
            tail = f"   {wins}/{len(ours)} ({ties} ties)" if side == "change" else ""
            print(f"{name:<20}{side:<8}{q1:>18.4f}{median:>18.4f}{q3:>18.4f}{tail}")
        (b_q1, b_median, b_q3), (_, c_median, _) = quartiles(theirs), quartiles(ours)
        if b_median:
            print(f"{'':<20}median {100 * (c_median - b_median) / b_median:+.1f}% of base; "
                  f"base IQR {b_q3 - b_q1:.4f}, medians {abs(c_median - b_median):.4f} apart")
    print()
    for name, word in verdicts.items():
        print(f"{name:<20}{word} (bound {bounds[name]:g})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True, help="ledger workload name")
    parser.add_argument("-n", "--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ledger-base-") as scratch:
        base_tree = Path(scratch)
        extract(args.base, base_tree)
        base_runs: list[dict[str, float]] = []
        change_runs: list[dict[str, float]] = []
        for pair in range(args.pairs):
            order = [(base_tree, base_runs), (REPO, change_runs)]
            if pair % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run_once(tree, args.workload, args.seed))
            print(f"pair {pair + 1}/{args.pairs}: base op_s {base_runs[-1]['op_s']:.4f}  "
                  f"change op_s {change_runs[-1]['op_s']:.4f}", flush=True)
        report(base_runs, change_runs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
