"""Read-old fixture: store records of ``KEY_VERSION`` 3, as written before
``RunReport`` became the one run result (commit 3c7116e).

``tests/data/store_v3.jsonl`` is the ``results.jsonl`` of one serial campaign
over :func:`fixture_requests`: the golden spec's 20 volume runs, one small
verified ``plane`` run and one point whose plan is infeasible (stored as an
``InfeasiblePlan`` failure).  It pins the record bytes, so a change to the run
result's fields or to the store's encoding fails here, and it is the read-old
path a future ``KEY_VERSION`` bump keeps tested.
"""

import json
from pathlib import Path

import pytest
from test_sweeps_golden import GOLDEN_PATH, reference_spec

from repro.algorithms import InfeasiblePlan
from repro.experiments.harness import run_algorithm
from repro.sweeps import RunRequest, run_campaign, tidy_rows
from repro.sweeps.store import KEY_VERSION, RESULTS_FILENAME, record_to_run
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

FIXTURE_PATH = Path(__file__).parent / "data" / "store_v3.jsonl"


def fixture_requests() -> list[RunRequest]:
    plane = RunRequest("COSMA", Scenario(name="v3-plane", shape=square_shape(16), p=4,
                                         memory_words=1024, regime="limited"), mode="plane")
    # 3 * 64^2 words of footprint, 2 * 64 of aggregate memory (section 6.3).
    infeasible = RunRequest("COSMA", Scenario(name="v3-infeasible", shape=square_shape(64), p=2,
                                              memory_words=64, regime="limited"), mode="volume")
    return [*reference_spec().expand(), plane, infeasible]


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    lines = FIXTURE_PATH.read_bytes().splitlines()
    return {record["key"]: record for record in map(json.loads, lines)}


def test_fixture_is_key_version_3(records):
    assert KEY_VERSION == 3
    assert set(records) == {request.key for request in fixture_requests()}


def test_fresh_campaign_writes_the_fixture_bytes(tmp_path):
    run_campaign(fixture_requests(), store=tmp_path / "store", jobs=1)
    assert (tmp_path / "store" / RESULTS_FILENAME).read_bytes() == FIXTURE_PATH.read_bytes()


def test_rebuilt_runs_equal_fresh_runs(records):
    for request in fixture_requests():
        record = records[request.key]
        arguments = dict(seed=request.seed, verify=request.verify, mode=request.mode)
        if record["status"] == "failed":
            assert record["error"]["type"] == "InfeasiblePlan"
            with pytest.raises(InfeasiblePlan):
                run_algorithm(request.algorithm, request.scenario, **arguments)
            continue
        assert record_to_run(record) == run_algorithm(request.algorithm, request.scenario, **arguments)


def test_golden_records_aggregate_to_the_golden_rows(records):
    golden_records = [records[request.key] for request in reference_spec().expand()]
    rows = tidy_rows(golden_records)
    golden = json.loads(GOLDEN_PATH.read_text())
    assert json.dumps(rows, sort_keys=True) == json.dumps(golden, sort_keys=True)
