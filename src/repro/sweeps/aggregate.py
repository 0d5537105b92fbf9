"""Aggregation: stored campaign records -> tidy rows.

Each ``"ok"`` record becomes one tidy row carrying (a) the scenario identity,
(b) the simulator-measured counters, (c) the runtime and %-of-peak that
:mod:`repro.experiments.perf_model` prices from those counters, and (d) the
algorithm's Table 3 I/O formula (``AlgorithmSpec.io_cost``) plus the
measured/predicted I/O ratio.  Failed records become rows with a ``status``
of ``"failed"`` and the error attached, so campaign reports never silently
drop points.

Rows contain only values that are pure functions of the run parameters (no
timestamps, no durations), which is what makes serial and parallel campaigns
aggregate byte-identically -- asserted by ``tests/test_sweeps_runner.py``.
The successful records rebuild into
:class:`~repro.experiments.harness.RunReport` lists for the figure
machinery (:mod:`repro.experiments.report`) through
:meth:`~repro.sweeps.runner.CampaignResult.runs`.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.algorithms import get_algorithm
from repro.experiments.perf_model import percent_of_peak, simulated_time
from repro.experiments.report import format_table
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec
from repro.sweeps.store import _METRIC_FIELDS, record_to_run, scenario_from_dict

#: Column order of a tidy row (kept explicit so tables render stably).
TIDY_COLUMNS = (
    "scenario",
    "family",
    "regime",
    "p",
    "m",
    "n",
    "k",
    "memory_words",
    "algorithm",
    "mode",
    "status",
    "correct",
    "mean_words_per_rank",
    "mean_received_per_rank",
    "max_words_per_rank",
    "rounds",
    "max_messages_per_rank",
    "total_flops",
    "simulated_time_s",
    "percent_of_peak",
    "predicted_io_words_per_rank",
    "io_vs_predicted",
    "error_type",
    "error_message",
)
#: The columns an ``"ok"`` row copies by name from the run its record rebuilds.
_RUN_COLUMNS = tuple(column for column in TIDY_COLUMNS if column in _METRIC_FIELDS)


def tidy_rows(records: Iterable[Mapping], spec: MachineSpec = PIZ_DAINT_LIKE) -> list[dict]:
    """Price campaign records and join them with Table 3 into tidy, sortable rows."""
    rows: list[dict] = []
    for record in records:
        scenario = scenario_from_dict(record["scenario"])
        shape = scenario.shape
        row: dict = {
            "scenario": scenario.name,
            "family": shape.family,
            "regime": scenario.regime,
            "p": scenario.p,
            "m": shape.m,
            "n": shape.n,
            "k": shape.k,
            "memory_words": scenario.memory_words,
            "algorithm": record["algorithm"],
            "mode": record["mode"],
            "status": record.get("status", "ok"),
        }
        try:
            io_cost = get_algorithm(record["algorithm"]).io_cost
        except KeyError:
            # Unregistered algorithms still aggregate, like those without
            # Table 3 formulas; they just carry no predicted columns.
            io_cost = None
        predicted = None
        if io_cost is not None:
            predicted = float(io_cost(shape.m, shape.n, shape.k, scenario.p, scenario.memory_words))
            row["predicted_io_words_per_rank"] = predicted
        if row["status"] == "ok":
            run = record_to_run(record)
            row.update((column, getattr(run, column)) for column in _RUN_COLUMNS)
            row["simulated_time_s"] = simulated_time(run, spec)
            row["percent_of_peak"] = percent_of_peak(run, spec)
            if predicted is not None and predicted > 0:
                row["io_vs_predicted"] = run.mean_received_per_rank / predicted
        else:
            error = record.get("error", {})
            row["error_type"] = error.get("type")
            row["error_message"] = error.get("message")
        rows.append(row)
    rows.sort(key=_row_sort_key)
    return rows


def _row_sort_key(row: Mapping) -> tuple:
    return (row["family"], row["regime"], row["p"], row["m"], row["n"], row["k"],
            row["scenario"], row["algorithm"], row["mode"])


def rows_to_json(rows: Sequence[Mapping]) -> str:
    """Canonical JSON of tidy rows (the byte-identity contract of the tests)."""
    return json.dumps(list(rows), sort_keys=True, separators=(",", ":"))


def campaign_table(
    rows: Sequence[Mapping],
    columns: Sequence[str] = (
        "scenario", "p", "algorithm", "mean_received_per_rank",
        "predicted_io_words_per_rank", "io_vs_predicted", "simulated_time_s", "status",
    ),
) -> str:
    """Render tidy rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    body = [[row.get(column, "") for column in columns] for row in rows]
    return format_table(list(columns), body)


def scenario_summary_table(rows: Sequence[Mapping]) -> str:
    """One line per scenario: words/rank per algorithm plus the fastest pick
    (by the ``simulated_time_s`` the rows were aggregated with)."""
    by_scenario: dict[str, list[Mapping]] = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], []).append(row)
    algorithms = sorted({row["algorithm"] for row in rows})
    headers = ["scenario", "p"] + [f"{a} words/rank" for a in algorithms] + ["fastest (simulated)"]
    body = []
    for name in sorted(by_scenario, key=lambda s: (by_scenario[s][0]["family"],
                                                   by_scenario[s][0]["regime"],
                                                   by_scenario[s][0]["p"])):
        group = by_scenario[name]
        line: list[object] = [name, group[0]["p"]]
        ok_rows = {row["algorithm"]: row for row in group if row["status"] == "ok"}
        for algorithm in algorithms:
            row = ok_rows.get(algorithm)
            line.append(round(row["mean_received_per_rank"]) if row else "failed")
        if ok_rows:
            fastest = min(ok_rows.values(), key=lambda row: row["simulated_time_s"])
            line.append(fastest["algorithm"])
        else:
            line.append("-")
        body.append(line)
    return format_table(headers, body)
