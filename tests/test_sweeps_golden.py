"""Golden regression: registry-path counters must match the pre-registry values.

``tests/data/golden_sweep_rows.json`` holds the ``tidy_rows`` of the PR 2
reference campaign (square / limited, p in {4, 16, 36, 64}, 2048 words, all
five algorithms, volume mode, seed 0) captured *before* the algorithm
registry existed.  The refactor contract is byte-identical aggregation: any
drift in counters, predictions or run keys fails here first.  One declared
regeneration since: ``predicted_latency_rounds`` became the plan's counted
rounds (equal to every row's ``rounds``) in place of Table 3's latency
formulas, and ``analytic_time_s``, which prices it, moved with it; every
other column kept its bytes.
"""

import json
from pathlib import Path

import pytest

from repro.sweeps import SweepSpec, run_campaign, tidy_rows
from repro.sweeps.runner import execute_request
from repro.sweeps.spec import spec_from_scenarios
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_sweep_rows.json"


def reference_spec() -> SweepSpec:
    return SweepSpec(
        name="golden",
        algorithms=("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"),
        families=("square",),
        regimes=("limited",),
        p_values=(4, 16, 36, 64),
        memory_words=2048,
        mode="volume",
        seed=0,
    )


class TestGoldenRows:
    def test_tidy_rows_byte_identical_to_pre_registry_snapshot(self):
        rows = tidy_rows([execute_request(r) for r in reference_spec().expand()])
        golden = json.loads(GOLDEN_PATH.read_text())
        assert json.dumps(rows, sort_keys=True) == json.dumps(golden, sort_keys=True)

    def test_campaign_path_matches_snapshot_too(self, tmp_path):
        result = run_campaign(reference_spec(), store=tmp_path / "store", jobs=1)
        rows = tidy_rows(result.records)
        golden = json.loads(GOLDEN_PATH.read_text())
        assert json.dumps(rows, sort_keys=True) == json.dumps(golden, sort_keys=True)
        assert result.pruned == 0  # every reference point is feasible


class TestPlanPruning:
    @pytest.fixture
    def mixed_spec(self):
        feasible = Scenario(name="ok", shape=square_shape(16), p=4,
                            memory_words=1024, regime="limited")
        # 3 * 64^2 = 12288 words of footprint, 2 * 64 = 128 aggregate: no
        # parallel schedule can hold the inputs (section 6.3).
        infeasible = Scenario(name="too-small", shape=square_shape(64), p=2,
                              memory_words=64, regime="limited")
        return spec_from_scenarios([feasible, infeasible], algorithms=("COSMA",),
                                   mode="volume")

    def test_infeasible_points_are_pruned_not_executed(self, tmp_path, mixed_spec):
        result = run_campaign(mixed_spec, store=tmp_path / "store", jobs=1)
        assert result.pruned == 1
        assert result.executed == 1  # pruned points never reach a worker
        assert result.failed == 1
        [failed] = result.failed_records
        assert failed["error"]["type"] == "InfeasiblePlan"
        assert "footprint" in failed["error"]["message"]

    def test_pruned_records_are_cached_like_failures(self, tmp_path, mixed_spec):
        run_campaign(mixed_spec, store=tmp_path / "store", jobs=1)
        warm = run_campaign(mixed_spec, store=tmp_path / "store", jobs=1)
        assert (warm.executed, warm.cached, warm.pruned) == (0, 2, 0)
