"""Tests for the experiment harness, performance model and reports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import register_algorithm, registered_algorithms, unregister
from repro.api import multiply
from repro.experiments import harness
from repro.experiments.harness import (
    DEFAULT_ALGORITHMS,
    group_by_scenario,
    run_algorithm,
    run_scenario,
)
from repro.experiments.perf_model import percent_of_peak, simulated_time, time_breakdown
from repro.experiments.report import (
    breakdown_rows,
    format_table,
    geometric_mean,
    performance_distribution,
    performance_series,
    runtime_series,
    table4_rows,
    table4_text,
    volume_series,
    volume_table,
)
from repro.machine.counters import COUNTER_FIELDS, CommCounters
from repro.machine.topology import laptop_spec
from repro.machine.transport import allclose_tolerances
from repro.sweeps.store import run_to_record
from repro.workloads.scaling import Scenario, strong_scaling_sweep
from repro.workloads.shapes import square_shape


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(
        name="square-strong-p4",
        shape=square_shape(24),
        p=4,
        memory_words=4096,
        regime="strong",
    )


@pytest.fixture(scope="module")
def small_runs(small_scenario):
    return run_scenario(small_scenario, algorithms=DEFAULT_ALGORITHMS, seed=1)


class TestHarness:
    def test_registry_contains_paper_targets(self):
        assert {"COSMA", "ScaLAPACK", "CTF", "CARMA"} <= set(registered_algorithms())

    def test_unknown_algorithm_rejected(self, small_scenario):
        with pytest.raises(KeyError):
            run_algorithm("MAGMA", small_scenario)

    def test_all_algorithms_correct(self, small_runs):
        for name, run in small_runs.items():
            assert run.correct, f"{name} produced a wrong product"

    def test_metrics_populated(self, small_runs):
        for run in small_runs.values():
            assert run.mean_words_per_rank >= 0
            assert run.max_words_per_rank >= run.mean_words_per_rank * 0.99
            assert run.total_flops > 0
            assert run.rounds >= 0

    def test_cosma_not_worse_than_others(self, small_runs):
        cosma = small_runs["COSMA"].mean_received_per_rank
        for name, run in small_runs.items():
            if name == "COSMA":
                continue
            assert cosma <= run.mean_received_per_rank * 1.3

    @pytest.mark.parametrize("name", sorted(registered_algorithms()))
    def test_retired_compress_rounds_keyword_is_accepted_and_ignored(self, name, small_scenario):
        # Kept for the frozen ledger layer that still passes it (see run_algorithm).
        assert run_algorithm(name, small_scenario, mode="volume", compress_rounds=True) == \
            run_algorithm(name, small_scenario, mode="volume")

    @pytest.mark.parametrize("field", COUNTER_FIELDS)
    def test_every_counter_row_moves_a_stored_aggregate(self, field, small_scenario, monkeypatch):
        """The counter matrix keeps no row that a run record cannot show: 10^6
        at rank 0 of any row changes something ``run_algorithm`` stores."""
        row = COUNTER_FIELDS.index(field)

        def stored(offset):
            class OffsetMachine(harness.DistributedMachine):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    self.counters.data[row, 0] += offset

            monkeypatch.setattr(harness, "DistributedMachine", OffsetMachine)
            run = run_algorithm("COSMA", small_scenario, mode="volume")
            metrics = run_to_record(run, key="k")["metrics"]
            return {name: value for name, value in metrics.items() if name not in ("correct", "verified")}

        # One sent (or received) word more than received (or sent) is the point.
        monkeypatch.setattr(CommCounters, "assert_conservation", lambda self: None)
        zeroed = stored(0)
        moved = stored(10**6)
        assert [name for name in zeroed if moved[name] != zeroed[name]], field

    def test_group_by_scenario(self):
        scenarios = strong_scaling_sweep(square_shape(16), [2, 4], memory_words=4096)
        runs = [run_algorithm(name, scenario, verify=False)
                for scenario in scenarios for name in ("COSMA", "CARMA")]
        grouped = group_by_scenario(runs)
        assert len(grouped) == 2
        for by_algo in grouped.values():
            assert set(by_algo) == {"COSMA", "CARMA"}


class TestVerification:
    """``_execute`` compares product and reference in row blocks; the verdict
    is the whole-array ``np.allclose``'s for every input."""

    N, K = 7, 5
    M = harness._VERIFY_BLOCK_BYTES // (N * 8) + 44  # two blocks, the second one partial

    @pytest.mark.parametrize("flaw", [
        lambda c: c,
        lambda c: c + 1e-9,                                      # inside the tolerance
        lambda c: c + 1e-3 * (np.arange(len(c)) == 3)[:, None],       # first block
        lambda c: c + 1e-3 * (np.arange(len(c)) == len(c) - 1)[:, None],  # last row of the partial block
        lambda c: np.where(np.arange(len(c))[:, None] == len(c) - 1, np.nan, c),
        lambda c: c[:1],                                         # broadcasts against the reference
        lambda c: c[:, :1],
        lambda c: np.where(np.arange(len(c))[:, None] == len(c) - 1, np.inf, c),
        lambda c: c.astype(np.float32),                          # float32 product, float64 reference
        lambda c: (c + 1e-3 * (np.arange(len(c)) == len(c) - 1)[:, None]).astype(np.float32),
    ])
    def test_row_block_verdict_is_the_whole_array_verdict(self, flaw, rng):
        a, b = rng.standard_normal((self.M, self.K)), rng.standard_normal((self.K, self.N))

        @register_algorithm("_tmp-flawed")
        def flawed(a_matrix, b_matrix, scenario, machine):
            return flaw(np.asarray(a_matrix) @ np.asarray(b_matrix))

        try:
            report = multiply(a, b, processors=1, memory_words=1 << 20, algorithm="_tmp-flawed")
        finally:
            unregister("_tmp-flawed")
        assert report.verified
        product = flaw(a @ b)
        rtol, atol_unit = allclose_tolerances(product.dtype)
        assert report.correct == bool(np.allclose(product, a @ b, rtol=rtol, atol=atol_unit * self.K))

    #: Columns that make a float64 reference block exactly two rows.
    WIDE = harness._VERIFY_BLOCK_BYTES // 16

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from(["float64", "float32"]),
        rows=st.sampled_from([1, 5, 7]),  # one row; partial last blocks
        block=st.sampled_from(["first", "middle", "remainder"]),
        flaw=st.sampled_from(["none", "nan", "+inf", "-inf", "off", "edge"]),
        in_reference=st.booleans(),
        scale=st.floats(0.5, 2.0),  # an "off" element's distance, in tolerances
        ulps=st.integers(-3, 3),  # an "edge" element's distance from the tolerance
    )
    def test_the_fused_check_is_allclose(self, seed, dtype, rows, block, flaw, in_reference,
                                         scale, ulps):
        """``harness._allclose`` returns whole-array ``np.allclose``'s verdict
        for a float64 or float32 product against a float64 reference, with one
        element broken in the first, a middle or the last (partial) block: a
        NaN or an infinity in either, or a product element some tolerances
        off, or a few ulps either side of the tolerance itself."""
        rng = np.random.default_rng(seed)
        expected = rng.standard_normal((rows, self.WIDE))
        rtol, atol_unit = allclose_tolerances(dtype)
        rtol, atol = float(rtol), float(atol_unit * self.K)
        product = (expected * (1 + rtol / 4 * rng.uniform(-1, 1, expected.shape))).astype(dtype)
        row = {"first": 0, "middle": 2, "remainder": rows - 1}[block] % rows
        col = int(rng.integers(self.WIDE))
        tolerance = atol + rtol * abs(expected[row, col])
        if flaw == "off":
            product[row, col] = expected[row, col] + scale * tolerance
        elif flaw == "edge":
            edge = expected[row, col] + tolerance
            product[row, col] = edge + ulps * np.spacing(edge)
        elif flaw != "none":
            value = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[flaw]
            (expected if in_reference else product)[row, col] = value
        assert harness._allclose(product, expected, rtol, atol) == bool(
            np.allclose(product, expected, rtol=rtol, atol=atol))

    def test_an_infinite_reference_matched_by_the_product_verifies(self):
        """``isclose`` accepts ``inf == inf``: a block the fused check cannot
        pass is decided by ``np.allclose``."""
        expected = np.ones((3, self.WIDE))
        expected[2, 5] = np.inf
        assert harness._allclose(expected.copy(), expected, 1e-5, 1e-8)
        product = expected.copy()
        product[2, 5] = 1.0
        assert not harness._allclose(product, expected, 1e-5, 1e-8)

    def test_unbroadcastable_product_still_raises(self, rng):
        a, b = rng.standard_normal((self.M, self.K)), rng.standard_normal((self.K, self.N))

        @register_algorithm("_tmp-flawed")
        def flawed(a_matrix, b_matrix, scenario, machine):
            return np.zeros((self.M + 1, self.N))

        try:
            with pytest.raises(ValueError, match="broadcast"):
                multiply(a, b, processors=1, memory_words=1 << 20, algorithm="_tmp-flawed")
        finally:
            unregister("_tmp-flawed")


class TestPerfModel:
    def test_time_positive(self, small_runs):
        for run in small_runs.values():
            assert simulated_time(run) > 0

    def test_overlap_not_slower(self, small_runs):
        for run in small_runs.values():
            breakdown = time_breakdown(run)
            assert simulated_time(run) == breakdown.total_with_overlap <= breakdown.total_no_overlap

    def test_percent_of_peak_in_range(self, small_runs):
        for run in small_runs.values():
            pct = percent_of_peak(run)
            assert 0 < pct <= 100.0

    def test_breakdown_components_sum(self, small_runs):
        for run in small_runs.values():
            breakdown = time_breakdown(run)
            assert breakdown.total_no_overlap == pytest.approx(
                breakdown.computation + breakdown.communication
            )
            assert 0 <= breakdown.communication_fraction <= 1

    def test_spec_affects_time(self, small_runs):
        run = small_runs["COSMA"]
        fast = laptop_spec()
        assert simulated_time(run, fast) != simulated_time(run)


class TestReports:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])

    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_volume_series_sorted_by_p(self, small_runs):
        series = volume_series(small_runs.values())
        for points in series.values():
            ps = [p for p, _ in points]
            assert ps == sorted(ps)

    def test_volume_table_contains_algorithms(self, small_runs):
        text = volume_table(small_runs.values())
        for name in DEFAULT_ALGORITHMS:
            assert name in text

    def test_performance_series_values_bounded(self, small_runs):
        series = performance_series(small_runs.values())
        for points in series.values():
            for _, pct in points:
                assert 0 < pct <= 100

    def test_runtime_series_positive(self, small_runs):
        series = runtime_series(small_runs.values())
        for points in series.values():
            for _, t in points:
                assert t > 0

    def test_performance_distribution_summary(self, small_runs):
        summary = performance_distribution(small_runs.values())
        for stats in summary.values():
            assert stats["min"] <= stats["geomean"] * (1 + 1e-12)
            assert stats["geomean"] <= stats["max"] * (1 + 1e-12)

    def test_table4_rows_have_speedups(self, small_runs):
        rows = table4_rows({"square-strong": list(small_runs.values())})
        assert len(rows) == 1
        row = rows[0]
        assert "speedup_min" in row
        assert row["speedup_min"] <= row["speedup_max"]
        assert not math.isnan(row["speedup_geomean"])

    def test_table4_text_renders(self, small_runs):
        text = table4_text({"square-strong": list(small_runs.values())})
        assert "benchmark" in text
        assert "square-strong" in text

    def test_table4_empty(self):
        assert table4_text({}) == "(no runs)"

    def test_breakdown_rows(self, small_runs):
        rows = breakdown_rows(small_runs.values())
        assert len(rows) == len(small_runs)
        for row in rows:
            assert row["total_no_overlap_s"] >= row["total_with_overlap_s"] - 1e-12
