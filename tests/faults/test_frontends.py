"""Resilience metrics, the fault-rate sweep, and the fault-aware
front-ends: HTML report section, query service, and CLI."""

import json

import pytest

from repro.faults import CrashFault, FaultSchedule, fault_rate_sweep
from repro.service import QueryService


@pytest.fixture(scope="module")
def sweep_points(fast_config):
    return fault_rate_sweep(
        strategies=("SE",),
        crash_rates=(0.0, 0.05),
        recovery="restart",
        duration=30.0,
        rate=0.1,
        machine_size=16,
        seed=2,
        repair_time=5.0,
        cardinality=500,
        config=fast_config,
    )


class TestResiliencePoint:
    def test_sweep_covers_the_grid(self, sweep_points):
        assert [(p.strategy, p.crash_rate) for p in sweep_points] == [
            ("SE", 0.0), ("SE", 0.05)
        ]
        for point in sweep_points:
            assert point.recovery == "restart"
            assert point.offered >= point.completed
            assert point.goodput >= 0

    def test_zero_rate_cell_is_fault_free(self, sweep_points):
        clean = sweep_points[0]
        assert clean.faults_injected == 0
        assert clean.retries == 0
        assert clean.wasted_seconds == 0
        assert clean.mttr is None

    def test_rows_are_jsonl_ready(self, sweep_points):
        for point in sweep_points:
            row = point.row()
            assert row["strategy"] == "SE"
            assert json.loads(json.dumps(row)) == row

    def test_row_round_trips_the_point(self, sweep_points):
        for point in sweep_points:
            assert type(point)(**point.row()) == point

    def test_unknown_strategy_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            fault_rate_sweep(
                strategies=("NOPE",), crash_rates=(0.0,), duration=5.0
            )


class TestReportSection:
    def test_resilience_html_renders(self, sweep_points):
        from repro.report import render_report, resilience_html

        html = resilience_html(sweep_points)
        assert "<svg" in html
        assert "Goodput versus crash rate" in html
        assert "restart" in html
        document = render_report({}, resilience_points=sweep_points)
        assert "resilience under crash-stop faults" in document

    def test_report_omits_section_without_points(self):
        from repro.report import render_report

        assert "resilience" not in render_report({})


class TestQueryService:
    REQUEST = {
        "op": "workload", "shape": "wide_bushy", "rate": 0.1,
        "duration": 30, "cardinality": 500, "machine_size": 16,
        "strategy": "SE",
    }

    def test_workload_accepts_fault_payload(self):
        faults = FaultSchedule(
            crashes=(CrashFault(processor=1, at=2.0, repair_at=8.0),)
        )
        response = QueryService().handle({
            **self.REQUEST,
            "faults": faults.to_payload(), "recovery": "restart",
        })
        assert response["ok"], response
        assert response["resilience"]["faults_injected"] == 1

    def test_fault_free_response_has_no_resilience_block(self):
        response = QueryService().handle(dict(self.REQUEST))
        assert response["ok"]
        assert "resilience" not in response

    def test_bad_fault_payload_is_an_error(self):
        response = QueryService().handle({
            **self.REQUEST, "faults": {"bogus": []},
        })
        assert not response["ok"]
        assert "fault schedule" in response["error"]


class TestCli:
    def test_faults_subcommand_prints_the_table(self, capsys, tmp_path):
        from repro.cli import main

        jsonl = tmp_path / "resilience.jsonl"
        code = main([
            "faults", "--strategies", "SE", "--crash-rates", "0,0.05",
            "--duration", "20", "--rate", "0.1", "--machine-size", "16",
            "--cardinality", "500", "--repair-time", "5",
            "--jsonl", str(jsonl),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "goodput" in out
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [(r["strategy"], r["crash_rate"]) for r in rows] == [
            ("SE", 0.0), ("SE", 0.05)
        ]

    def test_workload_crash_rate_flag(self, capsys):
        from repro.cli import main

        code = main([
            "workload", "--rate", "0.1", "--duration", "20",
            "--machine-size", "16", "--cardinality", "500",
            "--crash-rate", "0.05", "--repair-time", "5",
            "--recovery", "restart", "--seed", "3",
        ])
        assert code == 0
