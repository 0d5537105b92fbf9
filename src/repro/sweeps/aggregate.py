"""Aggregation: stored campaign records -> tidy rows joined with the models.

Each ``"ok"`` record becomes one tidy row carrying (a) the scenario identity,
(b) the simulator-measured counters, (c) the alpha-beta-gamma runtime and
%-of-peak from :mod:`repro.experiments.perf_model`, and (d) the analytic
prediction of ``AlgorithmSpec.cost`` (the Table 3 I/O formula, the plan's
counted rounds) plus the measured/predicted I/O ratio.  Failed records become rows with a ``status``
of ``"failed"`` and the error attached, so campaign reports never silently
drop points.

Rows contain only values that are pure functions of the run parameters (no
timestamps, no durations), which is what makes serial and parallel campaigns
aggregate byte-identically -- asserted by ``tests/test_sweeps_runner.py``.
The successful rows are also convertible back into
:class:`~repro.experiments.harness.AlgorithmRun` lists for the existing
figure machinery (:mod:`repro.experiments.report`).
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

from repro.algorithms import get_algorithm
from repro.experiments.harness import AlgorithmRun
from repro.experiments.perf_model import analytic_time, percent_of_peak, simulated_time
from repro.experiments.report import format_table
from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec
from repro.sweeps.store import record_to_run, scenario_from_dict

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
    "predicted_latency_rounds",
    "analytic_time_s",
    "io_vs_predicted",
    "error_type",
    "error_message",
)


def tidy_rows(
    records: Iterable[Mapping],
    spec: MachineSpec = PIZ_DAINT_LIKE,
    overlap: bool = True,
) -> list[dict]:
    """Join campaign records with both models into tidy, sortable rows."""
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
            prediction = get_algorithm(record["algorithm"]).cost(scenario)
        except KeyError:
            # Unregistered algorithms still aggregate, like those without
            # Table 3 formulas; they just carry no analytic columns.
            prediction = None
        if prediction is not None:
            row["predicted_io_words_per_rank"] = prediction.io_words_per_rank
            row["predicted_latency_rounds"] = prediction.latency_rounds
            row["analytic_time_s"] = analytic_time(prediction, spec=spec)
        if row["status"] == "ok":
            run = record_to_run(record)
            row["correct"] = run.correct
            row["mean_words_per_rank"] = run.mean_words_per_rank
            row["mean_received_per_rank"] = run.mean_received_per_rank
            row["max_words_per_rank"] = run.max_words_per_rank
            row["rounds"] = run.rounds
            row["max_messages_per_rank"] = run.max_messages_per_rank
            row["total_flops"] = run.total_flops
            row["simulated_time_s"] = simulated_time(run, spec, overlap=overlap)
            row["percent_of_peak"] = percent_of_peak(run, spec, overlap=overlap)
            if prediction is not None and prediction.io_words_per_rank > 0:
                row["io_vs_predicted"] = run.mean_received_per_rank / prediction.io_words_per_rank
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


def runs_from_records(records: Iterable[Mapping]) -> list[AlgorithmRun]:
    """The successful records as :class:`AlgorithmRun` objects, record order."""
    return [record_to_run(r) for r in records if r.get("status") == "ok"]


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
