"""``BENCHMARK.json`` and the harness's declared tables say the same thing.

Collected by the tier-1 suite; runs no workload.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import workloads

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_manifest_has_exactly_the_contract_keys():
    assert set(MANIFEST) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert MANIFEST["paths"] == ["benchmarks/ledger"]
    assert MANIFEST["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert MANIFEST["run_seconds"] == workloads.RUN_SECONDS
    assert isinstance(MANIFEST["run_seconds"], int) and 1 <= MANIFEST["run_seconds"] <= 60


def test_names_units_and_counts_are_within_the_contract():
    assert 2 <= len(MANIFEST["workloads"]) <= 8
    assert 1 <= len(MANIFEST["end_to_end"]) <= 16
    assert 1 <= len(MANIFEST["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in MANIFEST[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for entry in MANIFEST["workloads"]:
        assert set(entry) == {"name", "why"} and len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in MANIFEST["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"} and 0 < entry["bound"] <= 0.25
    for entry in MANIFEST["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(entry for entry in MANIFEST["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(entry["bound"] for entry in MANIFEST["end_to_end"])


def test_manifest_is_produced_exactly_once_by_the_declared_tables():
    assert MANIFEST["workloads"] == [{"name": cls.name, "why": cls.why} for cls in workloads.WORKLOADS]
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in workloads.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": layer.name, "unit": layer.unit, "better": layer.better} for layer in workloads.PER_LAYER
    ]


def test_every_layer_metric_points_at_an_end_to_end_metric_and_workload_that_exist():
    end_to_end = {metric.name for metric in workloads.END_TO_END}
    known = {cls.name for cls in workloads.WORKLOADS}
    modules = {"workloads", "experiments", "algorithms", "core", "baselines", "machine", "sweeps", "obs", "cli",
               "ledger"}
    for layer in workloads.PER_LAYER:
        assert layer.moves in end_to_end, layer.name
        assert layer.workloads and set(layer.workloads) <= known, layer.name
        assert layer.module in modules and layer.name.startswith(layer.module + "."), layer.name
    for cls in workloads.WORKLOADS:
        assert any(cls.name in layer.workloads for layer in workloads.PER_LAYER), cls.name
    assert workloads.MIN_OPS >= 2 and workloads.MIN_OPS % 2 == 0, "op counts stay even"
