"""Tests for the command-line interface and ASCII plot helpers."""

import pytest

from repro.analysis.plots import bar_chart, hbar, line_plot
from repro.cli import build_parser, main


class TestPlots:
    def test_hbar_scales(self):
        assert hbar(5, 10, width=10) == "#####"
        assert hbar(10, 10, width=10) == "#" * 10
        assert hbar(20, 10, width=10) == "#" * 10   # clamped

    def test_hbar_zero_max(self):
        assert hbar(5, 0) == ""

    def test_bar_chart_contains_labels_and_values(self):
        text = bar_chart({"a": 1.0, "bb": 2.0}, title="T")
        assert text.startswith("T")
        assert "a " in text and "bb" in text
        assert "2.00" in text

    def test_bar_chart_baseline_tick(self):
        text = bar_chart({"x": 2.0}, baseline=1.0, width=10)
        assert "|" in text

    def test_line_plot_axes(self):
        text = line_plot([1, 2, 3], {"s": [1.0, 2.0, 3.0]})
        assert "+" in text and "*" in text
        assert "s" in text.splitlines()[-1]


class TestParser:
    def test_all_commands_present(self):
        p = build_parser()
        for cmd in (["list"], ["run", "VADD", "Baseline"],
                    ["sweep", "KMN"], ["table", "1"], ["figure", "5"],
                    ["overhead"]):
            args = p.parse_args(cmd)
            assert callable(args.fn)

    def test_scale_choices(self):
        p = build_parser()
        with pytest.raises(SystemExit):
            p.parse_args(["--scale", "huge", "list"])

    def test_overrides_parsed(self):
        p = build_parser()
        a = p.parse_args(["--sms", "128", "--nsu-mhz", "175",
                          "--ro-cache", "4096",
                          "--target-policy", "optimal", "list"])
        assert a.sms == 128
        assert a.nsu_mhz == 175.0
        assert a.ro_cache == 4096
        assert a.target_policy == "optimal"

    def test_store_flags_parsed(self):
        p = build_parser()
        a = p.parse_args(["--store", "/tmp/x", "--parallel", "4",
                          "store", "ls"])
        assert a.store == "/tmp/x"
        assert a.parallel == 4
        assert a.action == "ls"
        b = p.parse_args(["--no-store", "run", "VADD", "Baseline",
                          "--metrics", "out.jsonl"])
        assert b.no_store and b.metrics == "out.jsonl"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "VADD" in out and "NDP(Dyn)_Cache" in out

    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "29,23" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "64 SMs" in capsys.readouterr().out

    def test_table_bad_number(self):
        assert main(["table", "9"]) == 2

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        assert "2.84 KB" in capsys.readouterr().out

    def test_figure5(self, capsys):
        assert main(["figure", "5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_figure_bad_number(self):
        assert main(["--scale", "ci", "figure", "99"]) == 2

    def test_run_command_ci(self, capsys):
        assert main(["--scale", "ci", "run", "VADD", "Baseline"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out and "energy" in out


class TestStoreCommands:
    @pytest.fixture(autouse=True)
    def _no_env_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)

    def test_store_requires_configuration(self, capsys):
        assert main(["store", "ls"]) == 2
        assert "no store configured" in capsys.readouterr().err

    def test_run_populates_then_hits_store(self, tmp_path, capsys):
        argv = ["--scale", "ci", "--store", str(tmp_path),
                "run", "VADD", "Baseline"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "[store] hit" not in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "[store] hit" in second
        # Identical summaries whichever path produced the result.
        assert first.splitlines()[-12:] == second.splitlines()[-12:]

    def test_store_ls_and_clear(self, tmp_path, capsys):
        main(["--scale", "ci", "--store", str(tmp_path),
              "run", "VADD", "Baseline"])
        capsys.readouterr()
        assert main(["--store", str(tmp_path), "store", "ls"]) == 0
        out = capsys.readouterr().out
        assert "VADD" in out and "1 entries" in out
        assert main(["--store", str(tmp_path), "store", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_no_store_bypasses_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        main(["--scale", "ci", "run", "VADD", "Baseline"])
        capsys.readouterr()
        assert main(["--scale", "ci", "--no-store",
                     "run", "VADD", "Baseline"]) == 0
        assert "[store] hit" not in capsys.readouterr().out

    def test_run_metrics_export(self, tmp_path, capsys):
        out_path = tmp_path / "m.jsonl"
        assert main(["--scale", "ci", "run", "VADD", "NDP(Dyn)",
                     "--metrics", str(out_path)]) == 0
        assert "metrics records" in capsys.readouterr().out
        import json

        recs = [json.loads(x) for x in out_path.read_text().splitlines()]
        assert recs[0]["kind"] == "meta"
        assert recs[-1]["kind"] == "summary"
        assert "packets.CMD" in recs[-1]["counters"]
        assert "stall.dependency" in recs[-1]["counters"]


class TestLintCommand:
    def test_flags_parse(self):
        p = build_parser()
        a = p.parse_args(["lint", "src/repro", "--format", "json",
                          "--rules", "DET001,DET004"])
        assert callable(a.fn)
        assert a.paths == ["src/repro"]
        assert a.format == "json"
        assert a.rules == "DET001,DET004"

    def test_audit_flag_on_run_sweep_chaos(self):
        p = build_parser()
        for cmd in (["run", "VADD", "Baseline", "--audit"],
                    ["sweep", "KMN", "--audit"], ["chaos", "--audit"]):
            assert p.parse_args(cmd).audit
        assert not p.parse_args(["run", "VADD", "Baseline"]).audit

    def test_lint_shipped_tree_is_clean(self, capsys):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        assert main(["lint", str(root / "src" / "repro")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_reports_violation_as_json(self, tmp_path, capsys):
        import json
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n"
                       "    s = {1, 2}\n"
                       "    for x in s:\n"
                       "        print(x)\n")
        assert main(["lint", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["error"] == 1
        assert payload["findings"][0]["rule"] == "DET001"

    def test_lint_missing_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "path"
        assert main(["lint", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_lint_unknown_rule_exits_2(self, capsys):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        assert main(["lint", str(root / "src" / "repro"),
                     "--rules", "DET001,DET01"]) == 2
        err = capsys.readouterr().err
        assert "DET01;" in err and "PERF001" in err

    @pytest.mark.parametrize("rules", [",", " , ", ""])
    def test_lint_rules_naming_no_id_exits_2(self, rules, capsys):
        import pathlib
        root = pathlib.Path(__file__).resolve().parent.parent
        assert main(["lint", str(root / "src" / "repro"),
                     "--rules", rules]) == 2
        captured = capsys.readouterr()
        assert "no rule id given" in captured.err and "PERF001" in captured.err
        assert "clean" not in captured.out

    def test_run_audit_flag_end_to_end(self, capsys):
        assert main(["--scale", "ci", "--no-store",
                     "run", "VADD", "Baseline", "--audit"]) == 0
        assert "cycles" in capsys.readouterr().out


class TestRecoveryBounds:
    """A recovery bound of zero or below exits 2 with the policy's
    message, instead of running with a default in its place (or, for a
    zero ACK deadline, hanging)."""

    BAD = [("--ack-timeout", "0", "ack_timeout"),
           ("--mshr-timeout", "0", "'mshr'"),
           ("--max-retries", "-1", "max_retries")]

    @pytest.mark.parametrize("flag,value,named", BAD)
    def test_run_rejects_bound(self, flag, value, named, capsys):
        assert main(["--scale", "ci", "--no-store", "run", "VADD",
                     "NDP(Dyn)", "--faults", "rdf-drop", flag, value]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,named", BAD)
    def test_chaos_rejects_bound(self, flag, value, named, capsys):
        assert main(["--scale", "ci", "--no-store", "--workloads", "VADD",
                     "chaos", "--rates", "0.05", "--configs", "NDP(Dyn)",
                     flag, value]) == 2
        assert named in capsys.readouterr().err


class TestBestSoFarPlot:
    def test_renders_curve_title_and_final_best(self):
        from repro.analysis.plots import best_so_far_plot

        records = [
            {"kind": "explore-meta", "fitness": "cycles",
             "agent": "random", "seed": 3},
            {"kind": "evaluation", "fitness": 900.0},
            {"kind": "evaluation", "fitness": None},   # fatal: skipped
            {"kind": "evaluation", "fitness": 700.0},
            {"kind": "evaluation", "fitness": 800.0},
        ]
        text = best_so_far_plot(records)
        assert "best-so-far" in text and "evaluation" in text
        assert "random agent" in text and "seed 3" in text
        assert "final best 700" in text
        assert "(from 900 at evaluation 1)" in text

    def test_no_plottable_records_raises(self):
        from repro.analysis.plots import best_so_far_plot

        with pytest.raises(ValueError, match="nothing to plot"):
            best_so_far_plot([{"kind": "explore-meta"}])
        with pytest.raises(ValueError, match="nothing to plot"):
            best_so_far_plot([{"kind": "evaluation", "fitness": None}])

    def test_explore_plot_end_to_end(self, tmp_path, capsys):
        rc = main(["--scale", "ci", "--no-store", "explore", "VADD",
                   "--space", "tiny", "--agent", "random",
                   "--generations", "1", "--population", "2",
                   "--max-cycles", "5000000",
                   "--out", str(tmp_path / "xo"), "--plot"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "best-so-far" in out
        assert "final best" in out


class TestServeCLI:
    def test_serve_flags_parsed(self):
        p = build_parser()
        args = p.parse_args(["serve"])
        assert args.port == 8787
        assert args.rate == 0.0 and args.hot_set == 64
        args = p.parse_args(["serve", "--port", "0",
                             "--rate", "2.5", "--hot-set", "8",
                             "--queue-depth", "32"])
        assert args.port == 0
        assert args.rate == 2.5 and args.hot_set == 8
        assert args.queue_depth == 32

    def test_loadtest_flags_parsed(self):
        p = build_parser()
        args = p.parse_args(["loadtest"])
        assert args.url == "http://127.0.0.1:8787"
        assert args.clients == 8 and args.duplicates == 0.5
        assert args.workload == "VADD" and args.config == "Baseline"
        assert not args.expect_rejections
        args = p.parse_args(["loadtest", "--clients", "4",
                             "--mix", "run,sweep", "--expect-rejections"])
        assert args.clients == 4 and args.mix == "run,sweep"
        assert args.expect_rejections

    def test_explore_plot_flag_parsed(self):
        args = build_parser().parse_args(["explore", "VADD", "--plot"])
        assert args.plot
        assert not build_parser().parse_args(["explore", "VADD"]).plot

    def test_run_unknown_workload_exits_2(self, capsys):
        rc = main(["--scale", "ci", "--no-store", "run", "NOPE", "Baseline"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_loadtest_against_dead_daemon_exits_2(self, capsys):
        rc = main(["loadtest", "--url", "http://127.0.0.1:9",
                   "--clients", "1", "--requests", "1"])
        assert rc == 2
        assert "loadtest failed" in capsys.readouterr().err
