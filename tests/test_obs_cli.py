"""Telemetry layer: the CLI surface (trace subcommand, flags, structured output).

Contracts under test: ``multiply|sweep --trace FILE --trace-events FILE``
write a Perfetto-loadable Chrome trace and a JSONL event log while keeping
``--json`` stdout machine-readable (all notices go to stderr); either flag
alone turns tracing on; ``--profile`` reports to stderr; and
``store verify`` honours its documented exit-code contract (0 clean, 1
dirty, 2 no store) with a ``--json`` structured report.
"""

import json

import pytest

from repro.cli import main
from repro.obs import validate_chrome_trace
from repro.obs.trace import active_tracer


def _multiply_args(*extra: str) -> list[str]:
    return ["--m", "32", "--n", "32", "--k", "32",
            "--processors", "4", "--memory", "4096", *extra]


def _sweep_args(store, *extra: str) -> list[str]:
    return ["--families", "square", "--regimes", "limited",
            "--processors", "4", "--memory", "1024",
            "--algorithms", "COSMA", "--out", str(store),
            "--no-progress", *extra]


class TestTraceFlags:
    def test_traced_multiply_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        events_path = tmp_path / "events.jsonl"
        code = main(["multiply", *_multiply_args("--trace", str(trace_path),
                                                 "--trace-events", str(events_path))])
        assert code == 0
        document = json.loads(trace_path.read_text())
        assert validate_chrome_trace(document) == []
        names = {e.get("name") for e in document["traceEvents"]}
        assert "round" in names and "multiply:COSMA" in names
        events = [json.loads(line) for line in
                  events_path.read_text().splitlines()]
        assert any(e["name"] == "round" for e in events)
        err = capsys.readouterr().err
        assert "wrote Chrome trace" in err and str(trace_path) in err

    def test_traced_sweep_json_stdout_stays_machine_readable(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code = main(["sweep", *_sweep_args(tmp_path / "store", "--json",
                                           "--trace", str(trace_path))])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)  # notices must not corrupt stdout
        assert payload["executed"] == 1
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []

    def test_tracer_deactivated_after_command(self, tmp_path):
        main(["multiply", *_multiply_args("--trace", str(tmp_path / "t.json"))])
        assert active_tracer() is None

    def test_event_log_alone_turns_tracing_on(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(["sweep", *_sweep_args(tmp_path / "store",
                                           "--trace-events", str(events_path))])
        assert code == 0
        names = {json.loads(line)["name"] for line in events_path.read_text().splitlines()}
        assert "round" in names and "run:COSMA" in names
        err = capsys.readouterr().err
        assert "wrote event log" in err and "Chrome trace" not in err


class TestInlineFlags:
    def test_multiply_trace_flag(self, tmp_path, capsys):
        trace_path = tmp_path / "inline.json"
        code = main(["multiply", *_multiply_args("--trace", str(trace_path))])
        assert code == 0
        assert validate_chrome_trace(json.loads(trace_path.read_text())) == []
        assert "wrote Chrome trace" in capsys.readouterr().err

    def test_multiply_profile_flag_reports_to_stderr(self, capsys):
        code = main(["multiply", *_multiply_args("--profile", "5")])
        captured = capsys.readouterr()
        assert code == 0
        assert "cumulative" in captured.err  # pstats table, not stdout
        assert "verified against numpy: OK" in captured.out

    def test_sweep_json_includes_metrics_and_summary_fields(self, tmp_path, capsys):
        code = main(["sweep", *_sweep_args(tmp_path / "store", "--json")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["executed"] == 1 and payload["failed"] == 0
        assert payload["metrics"]["sweeps.runs.ok"]["value"] == 1
        assert payload["records"][0]["status"] == "ok"

    def test_sweep_summary_line_by_default(self, tmp_path, capsys):
        code = main(["sweep", *_sweep_args(tmp_path / "store")])
        assert code == 0
        assert "campaign: 1 records ok=1" in capsys.readouterr().out

    def test_unknown_log_level_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--log-level", "loud", "multiply", *_multiply_args()])
        assert excinfo.value.code == 2


class TestStoreVerifyContract:
    def test_clean_store_exits_zero_with_json_report(self, tmp_path, capsys):
        store = tmp_path / "store"
        main(["sweep", *_sweep_args(store)])
        capsys.readouterr()
        code = main(["store", "verify", "--store", str(store), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["clean"] is True
        assert report["ok_records"] == 1 and report["issues"] == []

    def test_dirty_store_exits_one(self, tmp_path, capsys):
        store = tmp_path / "store"
        main(["sweep", *_sweep_args(store)])
        results = store / "results.jsonl"
        line = results.read_text()
        results.write_text(line + line[: len(line) // 2])  # torn tail
        capsys.readouterr()
        code = main(["store", "verify", "--store", str(store), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert report["clean"] is False and report["torn_lines"] == 1

    def test_missing_store_exits_two(self, tmp_path, capsys):
        code = main(["store", "verify", "--store", str(tmp_path / "absent")])
        assert code == 2
