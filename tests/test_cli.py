"""Tests for the repro-broadcast CLI."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestBounds:
    def test_bounds_output(self, capsys):
        assert main(["bounds", "-n", "16"]) == 0
        out = capsys.readouterr().out
        assert "new_linear" in out
        assert "38" in out  # upper_bound(16)


class TestFigure1:
    def test_figure1_table(self, capsys):
        assert main(["figure1", "--ns", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "crossover" in out


class TestSimulate:
    def test_simulate_cyclic(self, capsys):
        assert main(["simulate", "-n", "8", "--adversary", "cyclic"]) == 0
        out = capsys.readouterr().out
        assert "t*=10" in out  # LB formula at n=8

    def test_simulate_unknown_adversary(self, capsys):
        assert main(["simulate", "-n", "6", "--adversary", "nope"]) == 2
        assert "unknown adversary" in capsys.readouterr().err

    def test_simulate_writes_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "t.json"
        code = main(
            [
                "simulate",
                "-n",
                "6",
                "--adversary",
                "static-path",
                "--trace",
                str(trace_file),
            ]
        )
        assert code == 0
        assert trace_file.exists()
        from repro.engine.trace import Trace, replay_trace

        assert replay_trace(Trace.load(trace_file))


class TestSweepExactLemmas:
    def test_sweep_fast(self, capsys):
        assert main(["sweep", "--ns", "5", "6", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "sandwich" in out.lower()

    def test_sweep_engines_print_identical_tables(self, capsys):
        tables = []
        for engine in ("sequential", "batch", "sharded"):
            assert main(["sweep", "--ns", "5", "6", "--fast", "--engine", engine]) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1] == tables[2]

    def test_simulate_batch_engine(self, capsys):
        assert main(["simulate", "-n", "8", "--engine", "batch"]) == 0
        out = capsys.readouterr().out
        assert "t*=10" in out  # identical decision to the sequential engine
        assert "engine: batch" in out

    def test_workers_warning_on_non_sharded_engine(self, capsys):
        assert main(
            ["sweep", "--ns", "5", "--fast", "--engine", "batch", "--workers", "4"]
        ) == 0
        assert "--workers 4 is ignored" in capsys.readouterr().err

    def test_exact_small(self, capsys):
        assert main(["exact", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "t*(T_3) = 2 exactly" in out

    def test_exact_with_sequence(self, capsys):
        assert main(["exact", "-n", "3", "--show-sequence"]) == 0
        out = capsys.readouterr().out
        assert "round 1" in out

    def test_lemmas_clean(self, capsys):
        assert main(["lemmas", "-n", "5", "--trials", "10"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out


class TestCacheCommands:
    def test_cache_compact_shrinks_and_reports(self, tmp_path, capsys):
        from repro.service.cache import ResultCache

        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        for i in range(4):
            cache.store("same", "task", {"t_star": i})  # 3 dead lines
        assert main(["cache", "compact", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out and "1 live entries" in out
        assert ResultCache(path=path).lookup("same") == {"t_star": 3}

    def test_cache_stats_reports_compactions(self, tmp_path, capsys):
        from repro.service.cache import ResultCache

        path = tmp_path / "cache.jsonl"
        ResultCache(path=path).store("a", "task", {"t_star": 1})
        assert main(["cache", "stats", "--path", str(path)]) == 0
        out = capsys.readouterr().out
        assert "compactions" in out and "file_bytes" in out
