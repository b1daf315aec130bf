"""The command-line interface."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSimulate:
    def test_basic(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--shape", "wide_bushy",
            "--cardinality", "1000", "--strategy", "SE", "--processors", "16",
        )
        assert code == 0
        assert "SE@16p" in out
        assert "response" in out

    def test_with_diagram(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--cardinality", "500", "--processors", "12",
            "--diagram", "--width", "30",
        )
        assert code == 0
        assert "|" in out

    def test_deadline_abort_exits_nonzero(self, capsys):
        code, out = run_cli(
            capsys, "simulate", "--cardinality", "500", "--processors", "12",
            "--deadline", "0.001",
        )
        assert code == 1
        assert "aborted at t=0.001s: deadline" in out

    def test_with_skew(self, capsys):
        _, uniform = run_cli(
            capsys, "simulate", "--cardinality", "1000", "--processors", "16"
        )
        _, skewed = run_cli(
            capsys, "simulate", "--cardinality", "1000", "--processors", "16",
            "--skew", "1.0",
        )
        assert uniform != skewed


class TestPerf:
    def test_smoke_bench_covers_the_overlapped_path(self, capsys):
        """The bench must exercise the path that serves traffic — several
        queries in flight, each fast-pathed on its own processor share —
        not only single occupancy, or its profile never shows what
        overlapped serving costs; ``--no-fast-path`` must still drive
        the same overlap through the classic loop."""
        import re

        def bench(*flags):
            code, out = run_cli(
                capsys, "perf", "--smoke", "--cardinality", "600", *flags
            )
            assert code == 0
            loops = re.search(
                r"8-query closed loop, (\d+) fast-pathed, (\d+)-query open "
                r"loop with up to (\d+) in flight, (\d+) fast-pathed",
                out,
            )
            assert loops and int(loops.group(3)) > 1
            hosted, rollbacks, ties = (
                int(re.search(rf"'{name}': (\d+)", out).group(1))
                for name in ("hosted_runs", "hosted_rollbacks", "tie_declines")
            )
            closed, _queries, _peak, fast = map(int, loops.groups())
            return out, closed, fast, hosted, rollbacks, ties

        out, closed, fast, hosted, rollbacks, ties = bench()
        assert closed == 8  # single occupancy: every epoch fast-paths
        assert fast > 0
        # Every attempted epoch commits, rolls back or declines a tie.
        assert hosted == 8 + fast + rollbacks + ties
        runs, splices = (
            int(re.search(rf"'sibling_{name}': (\d+)", out).group(1))
            for name in ("runs", "splices")
        )
        assert 0 < splices <= runs  # attempts printed beside useful outcomes
        # Hit cost gets a line of its own: the solo rerun, all hits.
        assert re.search(
            r"\nperf warm cache: [\d.]+ms wall .* 4 hits\)\n$", out
        )
        _out, closed, fast, hosted, _rollbacks, _ties = bench("--no-fast-path")
        assert closed == fast == hosted == 0


class TestPlan:
    def test_xra_output(self, capsys):
        code, out = run_cli(
            capsys, "plan", "--shape", "right_linear",
            "--strategy", "RD", "--processors", "18",
        )
        assert code == 0
        assert out.startswith("xra strategy=RD processors=18")
        assert "join[simple,build=left]" in out


class TestSweep:
    def test_table_and_plot(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--shape", "left_linear", "--cardinality", "500",
            "--min-processors", "10", "--processors", "20", "--step", "10",
        )
        assert code == 0
        assert "procs" in out
        assert "legend" in out
        assert "best:" in out

    def test_claims_flag(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "--shape", "left_linear", "--cardinality", "500",
            "--min-processors", "10", "--processors", "20", "--step", "10",
            "--claims",
        )
        assert code == 0
        assert "[PASS]" in out or "[FAIL]" in out


class TestDiagram:
    def test_default_example_tree(self, capsys):
        code, out = run_cli(capsys, "diagram", "--strategy", "SP")
        assert code == 0
        assert "SP on 10 processors" in out


class TestAdvise:
    def test_wide_bushy_gets_se(self, capsys):
        code, out = run_cli(
            capsys, "advise", "--shape", "wide_bushy",
            "--cardinality", "40000", "--processors", "80",
        )
        assert code == 0
        assert out.startswith("SE")

    def test_disk_bound_gets_sp(self, capsys):
        code, out = run_cli(
            capsys, "advise", "--shape", "right_bushy",
            "--cardinality", "40000", "--processors", "80", "--disk-bound",
        )
        assert code == 0
        assert out.startswith("SP")


class TestMemory:
    def test_fp_40k_floor(self, capsys):
        code, out = run_cli(
            capsys, "memory", "--shape", "wide_bushy",
            "--cardinality", "40000", "--strategy", "FP", "--processors", "30",
        )
        assert code == 0
        assert "fits" in out
        assert "30 nodes" in out


class TestOptimize:
    def test_guidelines_mode(self, capsys):
        code, out = run_cli(
            capsys, "optimize", "--relations", "6", "--cardinality", "1000",
            "--processors", "12", "--guidelines",
        )
        assert code == 0
        assert "phase 1" in out and "phase 2" in out


class TestWorkload:
    ARGS = (
        "workload", "--shape", "wide_bushy", "--cardinality", "200",
        "--relations", "4", "--strategy", "SE", "--machine-size", "8",
        "--arrivals", "poisson", "--rate", "0.05", "--duration", "60",
        "--seed", "1",
    )

    def test_open_loop_writes_jsonl(self, capsys, tmp_path):
        jsonl = tmp_path / "w.jsonl"
        code, out = run_cli(capsys, *self.ARGS, "--jsonl", str(jsonl))
        assert code == 0
        assert "exclusive@8p" in out
        assert str(jsonl) in out
        assert jsonl.read_text().count("\n") >= 1

    def test_repeat_runs_byte_identical(self, capsys, tmp_path):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, *self.ARGS, "--jsonl", str(first), "--quiet")
        run_cli(capsys, *self.ARGS, "--jsonl", str(second), "--quiet")
        assert first.read_bytes() == second.read_bytes()

    def test_closed_loop(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, "workload", "--shape", "left_linear",
            "--cardinality", "200", "--relations", "4", "--strategy", "SP",
            "--machine-size", "8", "--arrivals", "closed", "--clients", "2",
            "--queries-per-client", "2", "--think", "1.0",
            "--jsonl", str(tmp_path / "c.jsonl"),
        )
        assert code == 0
        assert "4/4 completed" in out

    def test_quiet_suppresses_summary(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self.ARGS, "--jsonl", str(tmp_path / "q.jsonl"),
            "--quiet",
        )
        assert code == 0
        assert out == ""

    def test_deadline_and_shed(self, capsys, tmp_path):
        """The README overload quick-start: a deadlined workload with
        deadline-aware shedding reports lifecycle activity."""
        code, out = run_cli(
            capsys, *self.ARGS, "--deadline", "0.5",
            "--shed", "deadline_aware", "--jsonl", str(tmp_path / "d.jsonl"),
        )
        assert code == 0
        assert "lifecycle:" in out

    def test_deadline_identity(self, capsys, tmp_path):
        """A generous --deadline leaves the JSONL byte-identical."""
        plain, bounded = tmp_path / "p.jsonl", tmp_path / "b.jsonl"
        run_cli(capsys, *self.ARGS, "--jsonl", str(plain), "--quiet")
        run_cli(capsys, *self.ARGS, "--deadline", "1e9",
                "--jsonl", str(bounded), "--quiet")
        assert plain.read_bytes() == bounded.read_bytes()


class TestServe:
    def test_requests_file(self, capsys, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            '{"op": "query", "shape": "left_linear", "strategy": "SP", '
            '"processors": 10, "cardinality": 500}\n'
            '{"op": "bogus"}\n'
        )
        code, out = run_cli(
            capsys, "serve", "--requests", str(requests), "--quiet"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert '"ok": true' in lines[0]
        assert '"ok": false' in lines[1]


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            main([])

    def test_negative_cardinality_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--cardinality", "-5"])
        assert excinfo.value.code == 2
        assert "must be non-negative, got -5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, bad", [
        (("workload", "--crash-rate", "inf"), "got inf"),
        (("workload", "--rate", "inf"), "got inf"),
        (("workload", "--crash-rate", "-1"), "got -1.0"),
        (("workload", "--crash-rate", "nan"), "got nan"),
        (("cluster", "--shard-crash-rate", "-1"), "got -1.0"),
    ])
    def test_bad_rate_is_one_error_line(self, capsys, tmp_path, argv, bad):
        """A rate the parser accepts but the program rejects exits 2
        with one stderr line; a negative or NaN fault rate is not
        silently run fault-free."""
        code = main([*argv, "--duration", "5",
                     "--jsonl", str(tmp_path / "x.jsonl")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro: error: ")
        assert bad in lines[0]
        assert "Traceback" not in captured.err


class TestWorkloadSchedulers:
    ARGS = TestWorkload.ARGS

    def test_fifo_scheduler_is_byte_identical(self, capsys, tmp_path):
        plain, named = tmp_path / "p.jsonl", tmp_path / "f.jsonl"
        run_cli(capsys, *self.ARGS, "--jsonl", str(plain), "--quiet")
        run_cli(capsys, *self.ARGS, "--scheduler", "fifo",
                "--jsonl", str(named), "--quiet")
        assert plain.read_bytes() == named.read_bytes()

    def test_scheduler_reported_in_summary(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self.ARGS, "--scheduler", "edf",
            "--jsonl", str(tmp_path / "e.jsonl"),
        )
        assert code == 0
        assert "scheduler edf" in out

    def test_tenants_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "tenants.json"
        spec.write_text(
            '{"tenants": [{"name": "a", "rate": 0.2},'
            ' {"name": "b", "rate": 0.2, "weight": 2.0}]}'
        )
        code, out = run_cli(
            capsys, *self.ARGS, "--scheduler", "wfq",
            "--tenants", str(spec), "--jsonl", str(tmp_path / "t.jsonl"),
        )
        assert code == 0
        assert "scheduler wfq" in out
        assert "tenants:" in out

    def test_pool_size_and_cost_accepted(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self.ARGS, "--scheduler", "wfq", "--pool-size", "4",
            "--scheduling-cost", "0.01",
            "--jsonl", str(tmp_path / "k.jsonl"), "--quiet",
        )
        assert code == 0

    def test_pool_size_without_scheduler_errors(self, capsys, tmp_path):
        code = main([*self.ARGS, "--pool-size", "4",
                     "--jsonl", str(tmp_path / "x.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: pool_size needs a scheduler")


class TestCluster:
    ARGS = (
        "cluster", "--shape", "wide_bushy", "--cardinality", "200",
        "--relations", "4", "--strategy", "SE", "--machine-size", "8",
        "--shards", "2", "--rate", "0.05", "--duration", "60",
        "--seed", "1",
    )

    def test_writes_jsonl_and_summary(self, capsys, tmp_path):
        jsonl = tmp_path / "c.jsonl"
        code, out = run_cli(capsys, *self.ARGS, "--jsonl", str(jsonl))
        assert code == 0
        assert "cluster 2x8p" in out
        assert jsonl.read_text().count("\n") >= 1

    def test_out_is_an_alias_for_jsonl(self, capsys, tmp_path):
        jsonl = tmp_path / "alias.jsonl"
        code, _ = run_cli(capsys, *self.ARGS, "--out", str(jsonl), "--quiet")
        assert code == 0
        assert jsonl.exists()

    def test_record_then_replay_is_byte_identical(self, capsys, tmp_path):
        """Satellite: --record freezes the exact stream; --trace replay
        of that file reproduces the run bit for bit."""
        trace = tmp_path / "t.json"
        recorded = tmp_path / "rec.jsonl"
        replayed = tmp_path / "rep.jsonl"
        run_cli(capsys, *self.ARGS, "--record", str(trace),
                "--jsonl", str(recorded), "--quiet")
        run_cli(capsys, *self.ARGS, "--trace", str(trace),
                "--jsonl", str(replayed), "--quiet")
        assert recorded.read_bytes() == replayed.read_bytes()

    def test_workers_do_not_change_the_bytes(self, capsys, tmp_path):
        serial, pooled = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        run_cli(capsys, *self.ARGS, "--jsonl", str(serial), "--quiet")
        run_cli(capsys, *self.ARGS, "--workers", "2",
                "--jsonl", str(pooled), "--quiet")
        assert serial.read_bytes() == pooled.read_bytes()

    def test_autoscale_flags_accepted(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self.ARGS, "--autoscale", "reactive",
            "--scale-max", "16", "--scale-cooldown", "2.0",
            "--jsonl", str(tmp_path / "a.jsonl"),
        )
        assert code == 0


class TestClusterResilience:
    ARGS = TestCluster.ARGS

    def test_shard_faults_print_the_resilience_line(self, capsys, tmp_path):
        code, out = run_cli(
            capsys, *self.ARGS, "--shard-crash-rate", "0.05",
            "--shard-repair-time", "20", "--retry-budget", "2",
            "--jsonl", str(tmp_path / "r.jsonl"),
        )
        assert code == 0
        assert "resilience:" in out

    def test_engine_faults_accepted_on_the_prerouted_path(
        self, capsys, tmp_path
    ):
        code, out = run_cli(
            capsys, *self.ARGS, "--crash-rate", "0.01",
            "--repair-time", "10", "--recovery", "restart",
            "--jsonl", str(tmp_path / "f.jsonl"),
        )
        assert code == 0
        assert "resilience:" not in out

    def test_hedge_breaker_throttle_flags_accepted(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, *self.ARGS, "--hedge", "95", "--breaker", "--throttle",
            "--jsonl", str(tmp_path / "h.jsonl"), "--quiet",
        )
        assert code == 0

    def test_no_failover_baseline_flag(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, *self.ARGS, "--shard-crash-rate", "0.05",
            "--no-failover", "--jsonl", str(tmp_path / "b.jsonl"), "--quiet",
        )
        assert code == 0

    def test_resilient_workers_do_not_change_the_bytes(
        self, capsys, tmp_path
    ):
        serial, pooled = tmp_path / "s.jsonl", tmp_path / "p.jsonl"
        flags = ("--shard-crash-rate", "0.05", "--retry-budget", "2")
        run_cli(capsys, *self.ARGS, *flags, "--jsonl", str(serial), "--quiet")
        run_cli(capsys, *self.ARGS, *flags, "--workers", "2",
                "--jsonl", str(pooled), "--quiet")
        assert serial.read_bytes() == pooled.read_bytes()


class TestChaos:
    ARGS = (
        "chaos", "--shapes", "2x8", "--crash-rates", "0.1",
        "--queries", "8", "--rate", "1.0", "--horizon", "20",
        "--repair-time", "8", "--seed", "5",
    )

    def test_clean_campaign_exits_zero(self, capsys, tmp_path):
        out_path = tmp_path / "campaign.json"
        code, out = run_cli(
            capsys, *self.ARGS, "--out", str(out_path),
            "--fixtures", str(tmp_path / "fixtures"),
        )
        assert code == 0
        assert "all invariants held" in out
        import json

        payload = json.loads(out_path.read_text())
        assert payload["violations"] == []
        assert len(payload["reports"]) == 1


class TestVersionFlag:
    def test_version_exits_zero(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestDefaultArtifactLocation:
    """Satellite: CLI artifacts land under benchmarks/results/ by
    default — never loose files in the repository root."""

    def run_in(self, tmp_path, monkeypatch, capsys, *argv):
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        return [p for p in tmp_path.iterdir() if p.is_file()]

    def test_workload_default_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        loose = self.run_in(
            tmp_path, monkeypatch, capsys,
            "workload", "--shape", "wide_bushy", "--cardinality", "200",
            "--relations", "4", "--strategy", "SE", "--machine-size", "8",
            "--rate", "0.05", "--duration", "60", "--quiet",
        )
        assert loose == []
        results = tmp_path / "benchmarks" / "results"
        assert list(results.glob("workload_*.jsonl"))

    def test_cluster_default_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        loose = self.run_in(
            tmp_path, monkeypatch, capsys,
            "cluster", "--shape", "wide_bushy", "--cardinality", "200",
            "--relations", "4", "--strategy", "SE", "--machine-size", "8",
            "--shards", "2", "--rate", "0.05", "--duration", "60", "--quiet",
        )
        assert loose == []
        results = tmp_path / "benchmarks" / "results"
        assert list(results.glob("cluster_2x_hash_static.jsonl"))

    def test_resilient_cluster_default_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        loose = self.run_in(
            tmp_path, monkeypatch, capsys,
            "cluster", "--shape", "wide_bushy", "--cardinality", "200",
            "--relations", "4", "--strategy", "SE", "--machine-size", "8",
            "--shards", "2", "--rate", "0.05", "--duration", "60",
            "--retry-budget", "2", "--quiet",
        )
        assert loose == []
        results = tmp_path / "benchmarks" / "results"
        assert list(results.glob("cluster_2x_hash_static.jsonl"))

    def test_chaos_defaults_under_results(
        self, tmp_path, monkeypatch, capsys
    ):
        loose = self.run_in(
            tmp_path, monkeypatch, capsys,
            "chaos", "--shapes", "2x8", "--crash-rates", "0",
            "--queries", "4", "--rate", "1.0", "--horizon", "10",
            "--quiet",
        )
        assert loose == []
        results = tmp_path / "benchmarks" / "results"
        assert (results / "chaos_campaign.json").exists()
