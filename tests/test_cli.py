"""Tests for the command-line interface."""

import argparse
import json

import numpy as np
import pytest

from repro.cli import _build_parser, main
from repro.sequential import tiled_multiply


class TestMultiplyCommand:
    def test_runs_and_verifies(self, capsys):
        code = main(["multiply", "--m", "32", "--n", "24", "--k", "16", "--processors", "4", "--memory", "2048"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified against numpy: OK" in out
        assert "processor grid" in out

    def test_reports_bound(self, capsys):
        main(["multiply", "--m", "16", "--n", "16", "--k", "16", "--processors", "2", "--memory", "1024"])
        out = capsys.readouterr().out
        assert "Theorem 2 bound" in out


class TestRegistryDrivenCli:
    """The registry feeds every algorithm choice list (multiply/plan/sweep)."""

    def test_multiply_with_alternative_algorithm(self, capsys):
        code = main(["multiply", "--m", "32", "--n", "32", "--k", "32",
                     "--processors", "4", "--memory", "4096", "--algorithm", "CARMA"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm            : CARMA" in out
        assert "verified against numpy: OK" in out

    def test_multiply_accepts_alias_and_prints_canonical_name(self, capsys):
        code = main(["multiply", "--m", "24", "--n", "24", "--k", "24",
                     "--processors", "4", "--memory", "2048", "--algorithm", "SUMMA"])
        out = capsys.readouterr().out
        assert code == 0
        assert "algorithm            : ScaLAPACK" in out

    def test_multiply_volume_mode_skips_verification(self, capsys):
        code = main(["multiply", "--m", "64", "--n", "64", "--k", "64",
                     "--processors", "16", "--memory", "2048", "--mode", "volume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SKIPPED" in out

    def test_plan_reports_grid_without_executing(self, capsys):
        code = main(["plan", "--m", "4096", "--n", "4096", "--k", "4096",
                     "--processors", "1024", "--memory", "65536"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible             : yes" in out
        assert "fitted grid" in out
        assert "predicted words/rank" in out

    def test_plan_words_are_the_runs_count(self, capsys):
        """At a ragged point `repro plan` prints the words `repro multiply
        --mode volume` counts, and both say what the ratio divides."""
        point = ["--m", "97", "--n", "61", "--k", "43", "--processors", "12",
                 "--memory", "4096", "--algorithm", "ScaLAPACK"]

        def field(out, label):
            line = next(line for line in out.splitlines() if line.startswith(label))
            return line.split(":", 1)[1].split()[0]

        assert main(["plan", *point]) == 0
        planned = capsys.readouterr().out
        assert main(["multiply", *point, "--mode", "volume"]) == 0
        counted = capsys.readouterr().out
        assert field(planned, "predicted words/rank") == field(counted, "words received/rank") == "1,351"
        for out in (planned, counted):
            assert field(out, "busiest domain I/O") == "2,503"
            assert "(busiest domain I/O / Theorem 2 bound)" in out

    def test_plan_flags_infeasible_points(self, capsys):
        code = main(["plan", "--m", "512", "--n", "512", "--k", "512",
                     "--processors", "2", "--memory", "64"])
        out = capsys.readouterr().out
        assert code == 1
        assert "feasible             : no" in out
        assert "footprint" in out

    def test_compare_rejects_unknown_algorithm(self, capsys):
        # Comparing algorithms now goes through the single-algorithm commands
        # and ``sweep``; each rejects a name the registry does not know.
        for command in ("multiply", "plan"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--processors", "4", "--algorithm", "MAGMA"])
            assert excinfo.value.code == 2
            assert "invalid choice: 'MAGMA'" in capsys.readouterr().err

    def test_sweep_rejects_unknown_algorithm(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--processors", "4", "--algorithms", "MAGMA",
                  "--out", str(tmp_path / "store")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'MAGMA'" in capsys.readouterr().err

    def test_sweep_accepts_alias(self, capsys, tmp_path):
        code = main(["sweep", "--families", "square", "--regimes", "limited",
                     "--processors", "4", "--memory", "1024",
                     "--algorithms", "COSMA", "SUMMA", "--mode", "plane",
                     "--out", str(tmp_path / "store"), "--no-progress"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ScaLAPACK words/rank" in out


class TestSweepCommand:
    def test_verified_limited_regime(self, capsys, tmp_path):
        code = main(["sweep", "--families", "square", "--regimes", "limited",
                     "--processors", "4", "9", "--memory", "1024", "--mode", "plane",
                     "--out", str(tmp_path / "store"), "--no-progress"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed=0" in out
        assert "COSMA words/rank" in out and "fastest (simulated)" in out
        assert "verification skipped" not in out

    def test_subset_of_algorithms(self, capsys, tmp_path):
        code = main([
            "sweep", "--families", "largeK", "--regimes", "extra",
            "--processors", "4", "--memory", "1024", "--mode", "plane",
            "--algorithms", "COSMA", "CARMA",
            "--out", str(tmp_path / "store"), "--no-progress",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "CARMA" in out
        assert "ScaLAPACK" not in out

    def test_strong_regime(self, capsys, tmp_path):
        code = main(["sweep", "--families", "square", "--regimes", "strong",
                     "--processors", "16", "--algorithms", "COSMA", "ScaLAPACK",
                     "--out", str(tmp_path / "store"), "--no-progress"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failed=0 executed=2" in out
        assert "square-strong-p16" in out

    def test_small_campaign_and_cached_rerun(self, capsys, tmp_path):
        argv = [
            "sweep", "--families", "square", "--regimes", "limited",
            "--processors", "4", "9", "--algorithms", "COSMA", "CARMA",
            "--mode", "volume", "--jobs", "1", "--out", str(tmp_path / "store"),
        ]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "failed=0 executed=4 cached=0" in out
        assert "COSMA words/rank" in out
        assert "volume mode" in out

        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert "failed=0 executed=0 cached=4" in out

    def test_parallel_jobs(self, capsys, tmp_path):
        code = main([
            "sweep", "--families", "square", "--regimes", "limited",
            "--processors", "4", "--algorithms", "COSMA",
            "--jobs", "2", "--out", str(tmp_path / "store"),
        ])
        assert code == 0
        assert "failed=0 executed=1 cached=0" in capsys.readouterr().out

    def test_spec_file(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "from-file",
            "algorithms": ["COSMA"],
            "families": ["square"],
            "regimes": ["limited"],
            "p_values": [4],
            "memory_words": 1024,
            "mode": "volume",
        }))
        code = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign 'from-file': 1 runs" in out

    def test_spec_conflicts_with_campaign_flags(self, capsys, tmp_path):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"name": "x", "algorithms": ["COSMA"],
                                         "p_values": [4], "mode": "volume"}))
        code = main(["sweep", "--spec", str(spec_path), "--mode", "plane",
                     "--out", str(tmp_path / "store")])
        err = capsys.readouterr().err
        assert code == 2
        assert "--spec replaces the campaign flags" in err
        assert "--mode" in err

    def test_full_table(self, capsys, tmp_path):
        code = main([
            "sweep", "--families", "square", "--regimes", "limited",
            "--processors", "4", "--algorithms", "COSMA",
            "--out", str(tmp_path / "store"), "--full-table",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted_io_words_per_rank" in out


class TestBoundsCommand:
    def test_prints_all_rows(self, capsys):
        code = main(["bounds", "--m", "256", "--n", "256", "--k", "256", "--processors", "16", "--memory", "4096"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("Theorem 1", "Theorem 2", "2D", "2.5D", "CARMA", "COSMA"):
            assert label in out

    @pytest.mark.parametrize("m,n,k,s", [(8, 8, 8, 20), (10, 7, 5, 31)])
    def test_feasible_row_is_what_tiled_multiply_counts(self, capsys, m, n, k, s):
        # (10, 7, 5) at S = 31 takes ragged 4 x 6 tiles.
        code = main(["bounds", "--m", str(m), "--n", str(n), "--k", str(k),
                     "--processors", "4", "--memory", str(s)])
        out = capsys.readouterr().out
        assert code == 0
        (row,) = [line for line in out.splitlines() if line.startswith("sequential feasible schedule")]
        rng = np.random.default_rng(0)
        run = tiled_multiply(rng.standard_normal((m, k)), rng.standard_normal((k, n)), s)
        assert int(row.split()[-1]) == run.io


class TestPlanGridFitting:
    """``plan`` prints COSMA's FitRanks grid (section 7.1) and its idle ranks."""

    def test_figure5_case(self, capsys):
        # Figure 5: with memory to spare, 4096^3 on p = 65 idles one rank to
        # reach the cubic 4 x 4 x 4 grid.
        code = main(["plan", "--m", "4096", "--n", "4096", "--k", "4096",
                     "--processors", "65", "--memory", str(1 << 24)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted grid          : (4, 4, 4)" in out
        assert "idle ranks           : 1" in out

    def test_memory_aware(self, capsys):
        # Less memory than a cubic domain needs: the grid flattens in k.
        code = main(["plan", "--m", "4096", "--n", "4096", "--k", "4096",
                     "--processors", "65", "--memory", "1000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fitted grid          : (4, 8, 2)" in out
        assert "idle ranks           : 1" in out


class TestSequentialCommand:
    def test_reports_ratio(self, capsys):
        code = main(["sequential", "--size", "16", "--memory", "32", "64"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lower bound" in out
        assert "numerics verified: OK" in out


class TestParser:
    def test_subcommand_set_is_pinned(self):
        (subcommands,) = [action for action in _build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction)]
        assert set(subcommands.choices) == {"multiply", "plan", "sweep", "bounds", "sequential", "store"}

    @pytest.mark.parametrize("command", ["compare", "grid", "trace"])
    def test_retired_subcommands_exit_2(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--processors", "4"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["bounds", "--m", "8"])


class TestStoreCommand:
    def _populate(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["sweep", "--families", "square", "--regimes", "limited",
              "--processors", "4", "--algorithms", "COSMA", "--out", store])
        capsys.readouterr()
        return store

    def test_verify_clean_store(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        assert main(["store", "verify", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "1 live records" in out

    def test_verify_flags_dirty_store_and_compact_heals_it(self, capsys, tmp_path):
        store = self._populate(tmp_path, capsys)
        results = tmp_path / "store" / "results.jsonl"
        line = results.read_text().splitlines()[0]
        with results.open("a") as handle:
            handle.write(line + "\n")        # duplicate
            handle.write(line[: len(line) // 2])  # torn
        assert main(["store", "verify", "--store", store]) == 1
        out = capsys.readouterr().out
        assert "DIRTY" in out
        assert main(["store", "compact", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "dropped 2 stale lines" in out
        assert main(["store", "verify", "--store", store]) == 0

    def test_missing_store_is_an_error(self, capsys, tmp_path):
        assert main(["store", "verify", "--store", str(tmp_path / "absent")]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--jobs", "0"), ("--jobs", "-2"),
    ])
    def test_sweep_rejects_non_positive_values_as_usage_errors(self, capsys, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--processors", "4", "--out", str(tmp_path / "store"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid positive" in err and "Traceback" not in err
        assert not (tmp_path / "store").exists()
