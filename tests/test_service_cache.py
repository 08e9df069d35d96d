"""Result cache: exact round-trips, LRU/persistence/versioning, cached sweeps.

The acceptance property pinned here: **cached results are provably
trustworthy** -- for every adversary in the portfolio, on both backends,
a cache-hit ``RunReport`` serializes byte-identically to a fresh
recomputation, and stale-version entries are rejected at load instead of
served.
"""

from __future__ import annotations

import json

import pytest

from repro.core.backend import use_backend
from repro.engine.executor import BatchExecutor, SequentialExecutor, ShardedExecutor
from repro.errors import CacheError
from repro.service.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    report_from_doc,
    report_to_doc,
)
from repro.service.scheduler import JobScheduler
from repro.service.specs import portfolio_handles, spec_digest, to_run_spec
from repro.service.tasks import TaskGraphRunner, sweep_graph

#: Every portfolio family, with small-n-safe params.
PORTFOLIO = [
    ("static-path", {}),
    ("alternating-path", {"period": 2}),
    ("rotating-path", {"shift": 2}),
    ("sorted-path", {"ascending": False}),
    ("two-phase-flip", {}),
    ("zeiner-style", {}),
    ("runner", {}),
    ("cyclic", {}),
    ("random-tree", {}),
    ("greedy", {}),
    ("beam", {"depth": 1, "width": 3}),
    ("k-leaf", {"k": 2}),
    ("k-inner", {"k": 2}),
]


class TestReportRoundTrip:
    @pytest.mark.parametrize("backend", ["dense", "bitset"])
    def test_cache_hit_is_byte_identical_to_fresh_recomputation(self, backend, rng):
        """The headline acceptance: portfolio x backends, randomized n/seed."""
        executor = SequentialExecutor()
        cache = ResultCache()
        for adversary, params in PORTFOLIO:
            n = int(rng.integers(5, 14))
            seed = int(rng.integers(0, 100))
            raw = {
                "adversary": adversary,
                "params": params,
                "n": n,
                "seed": seed,
                "backend": backend,
            }
            digest = spec_digest(raw)
            fresh = executor.run(to_run_spec(raw))
            cache.store_report(digest, fresh)
            hit = cache.lookup_report(digest, backend=backend)
            assert hit is not None
            # byte-identical: the canonical serializations match exactly
            assert json.dumps(report_to_doc(hit), sort_keys=True) == json.dumps(
                report_to_doc(fresh), sort_keys=True
            ), f"{adversary}@{backend}: cache hit diverged from fresh run"
            # and against a *second* fresh recomputation (determinism)
            again = executor.run(to_run_spec(raw))
            assert json.dumps(report_to_doc(hit), sort_keys=True) == json.dumps(
                report_to_doc(again), sort_keys=True
            )
            assert hit.final_state == fresh.final_state
            assert hit.broadcasters == fresh.broadcasters
            assert hit.t_star == fresh.t_star

    def test_instrumented_reports_are_not_cacheable(self):
        from repro.engine.executor import RunSpec

        report = SequentialExecutor().run(
            RunSpec(
                adversary=to_run_spec({"adversary": "runner", "n": 6}).adversary,
                n=6,
                instrumentation="history",
            )
        )
        with pytest.raises(CacheError, match="uninstrumented"):
            report_to_doc(report)

    def test_malformed_doc_rejected(self):
        with pytest.raises(CacheError, match="malformed run-report"):
            report_from_doc({"n": 4, "reach_bits": "zz"})


class TestCacheMechanics:
    def test_lru_eviction_and_counters(self):
        cache = ResultCache(capacity=3)
        for i in range(4):
            cache.store(f"d{i}", "task", {"t_star": i})
        assert len(cache) == 3
        assert "d0" not in cache  # least recently used fell out
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["stores"] == 4
        # a hit refreshes recency: d1 survives the next eviction
        assert cache.lookup("d1") == {"t_star": 1}
        cache.store("d4", "task", {"t_star": 4})
        assert "d1" in cache and "d2" not in cache

    def test_kind_mismatch_is_a_miss(self):
        cache = ResultCache()
        cache.store("d", "task", {"t_star": 1})
        assert cache.lookup("d", kind="run") is None
        assert cache.stats()["misses"] == 1

    def test_byte_budget_evicts_lru_first(self):
        """Satellite: ResultCache(max_bytes=...) alongside the entry LRU."""
        cache = ResultCache(max_bytes=200)
        payload = {"blob": "x" * 50}  # ~60 accounted bytes + digest
        for i in range(4):
            cache.store(f"byte{i}", "task", dict(payload))
        stats = cache.stats()
        assert stats["max_bytes"] == 200
        assert 0 < stats["bytes"] <= 200
        assert stats["evictions"] >= 1
        assert "byte0" not in cache  # oldest fell to the byte budget
        assert "byte3" in cache

    def test_byte_accounting_tracks_inserts_and_evictions(self):
        cache = ResultCache()
        assert cache.stats()["bytes"] == 0
        cache.store("a", "task", {"t_star": 1})
        one = cache.stats()["bytes"]
        assert one > 0
        cache.store("b", "task", {"t_star": 2})
        assert cache.stats()["bytes"] > one
        # Overwriting re-accounts instead of double-counting.
        cache.store("a", "task", {"t_star": 1})
        cache.store("a", "task", {"t_star": 1})
        two = cache.stats()["bytes"]
        cache.clear()
        assert cache.stats()["bytes"] == 0 and two > 0

    def test_oversized_entry_still_lands(self):
        """An entry bigger than the whole budget must not silently vanish."""
        cache = ResultCache(max_bytes=16)
        cache.store("huge", "task", {"blob": "y" * 500})
        assert "huge" in cache
        assert cache.lookup("huge") == {"blob": "y" * 500}
        # The next store evicts the oversized one, not itself.
        cache.store("tiny", "task", {"t_star": 1})
        assert "tiny" in cache and "huge" not in cache

    def test_byte_budget_validation(self):
        with pytest.raises(CacheError, match="max_bytes"):
            ResultCache(max_bytes=0)

    def test_eviction_below_threshold_keeps_file_history(self, tmp_path):
        path = tmp_path / "budget.jsonl"
        cache = ResultCache(path=path, max_bytes=150)
        for i in range(3):
            cache.store(f"k{i}", "task", {"blob": "z" * 40})
        assert len(cache) < 3  # memory tier trimmed
        assert cache.stats()["compactions"] == 0
        reopened = ResultCache(path=path)
        assert len(reopened) == 3  # the file kept the full history

    def test_eviction_past_threshold_auto_compacts(self, tmp_path):
        """Once evictions orphan a full budget of file bytes, compact."""
        path = tmp_path / "budget.jsonl"
        cache = ResultCache(path=path, max_bytes=150)
        for i in range(12):
            cache.store(f"k{i}", "task", {"blob": "z" * 40})
        assert cache.stats()["compactions"] >= 1
        reopened = ResultCache(path=path)
        # The rewritten file holds exactly the live set at compaction
        # time (plus any appends after it) -- not the full history.
        assert len(reopened) < 12
        for i in range(12):
            if f"k{i}" in cache:
                assert reopened.lookup(f"k{i}") == cache.lookup(f"k{i}")

    def test_compact_shrinks_file_and_reload_is_byte_identical(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        for i in range(6):
            cache.store(f"k{i}", "task", {"t_star": i})
        for i in range(6):  # overwrites: 6 dead lines in the file
            cache.store(f"k{i}", "task", {"t_star": i * 10})
        report = cache.compact()
        assert report["after_bytes"] < report["before_bytes"]
        assert report["entries"] == 6
        reopened = ResultCache(path=path)
        assert len(reopened) == 6
        for i in range(6):
            assert reopened.lookup(f"k{i}") == {"t_star": i * 10}
        # Compacting an already-compact file is a no-op byte-wise.
        again = cache.compact()
        assert again["after_bytes"] == report["after_bytes"]
        assert cache.stats()["compactions"] == 2

    def test_compact_requires_persistence_path(self):
        with pytest.raises(CacheError, match="persistence path"):
            ResultCache().compact()

    def test_torn_final_line_repaired_on_open(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        cache.store("a", "task", {"t_star": 1})
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"digest": "b", "form')  # SIGKILL mid-append
        reopened = ResultCache(path=path)
        assert reopened.lookup("a") == {"t_star": 1}
        assert "b" not in reopened
        # The repair truncated the fragment, so new appends replay clean.
        reopened.store("c", "task", {"t_star": 3})
        assert ResultCache(path=path).lookup("c") == {"t_star": 3}

    def test_persistence_round_trip_later_lines_win(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = ResultCache(path=path)
        first.store("a", "task", {"t_star": 1})
        first.store("b", "task", {"t_star": 2})
        first.store("a", "task", {"t_star": 3})  # overwrite appends
        reopened = ResultCache(path=path)
        assert reopened.lookup("a") == {"t_star": 3}
        assert reopened.lookup("b") == {"t_star": 2}
        assert reopened.stats()["loaded_from_disk"] == 3

    def test_stale_version_entries_rejected_not_served(self, tmp_path):
        """A cache written by a different format version must miss."""
        path = tmp_path / "cache.jsonl"
        stale = {
            "format_version": CACHE_FORMAT_VERSION + 1,
            "digest": "d-stale",
            "kind": "task",
            "payload": {"t_star": 99},
        }
        good = {
            "format_version": CACHE_FORMAT_VERSION,
            "digest": "d-good",
            "kind": "task",
            "payload": {"t_star": 5},
        }
        path.write_text(json.dumps(stale) + "\n" + json.dumps(good) + "\n")
        cache = ResultCache(path=path)
        assert cache.lookup("d-stale") is None  # rejected, not served
        assert cache.lookup("d-good") == {"t_star": 5}
        assert cache.stats()["stale_rejected"] == 1

    def test_pre_v2_sweep_cell_file_loads_as_stale(self, tmp_path):
        """A version-1 file (with the retired t*-only sweep-cell kind) must
        open without error and serve neither of its lines."""
        path = tmp_path / "cache.jsonl"
        lines = [
            {"digest": "d-cell", "format_version": 1, "kind": "cell",
             "payload": {"t_star": 7}},
            {"digest": "d-run", "format_version": 1, "kind": "run",
             "payload": {"t_star": 7}},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        cache = ResultCache(path=path)
        assert cache.stats()["stale_rejected"] == 2
        assert cache.lookup("d-cell") is None and cache.lookup("d-run") is None
        assert len(cache) == 0

    def test_corrupt_line_raises(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(CacheError, match="not valid JSON"):
            ResultCache(path=path)

    def test_clear_truncates_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path=path)
        cache.store("a", "task", {"t_star": 1})
        cache.clear()
        assert len(cache) == 0
        assert path.read_text() == ""
        assert len(ResultCache(path=path)) == 0


def _portfolio_graph(handles, ns):
    """The task graph ``repro-broadcast sweep`` runs for these handles."""
    return sweep_graph(
        {
            "adversaries": [
                {"label": label, "adversary": h.adversary, "params": h.params}
                for label, h in handles.items()
            ],
            "ns": ns,
        }
    )


class TestCachedSweeps:
    """Sweeps run as task graphs: every grid cell is a ``run`` task, so an
    enlarged grid computes only its new cells and stays bit-identical to
    a cold ``Executor.sweep``."""

    @pytest.mark.parametrize("executor_cls", [SequentialExecutor, BatchExecutor])
    def test_warm_sweep_bit_identical_and_incremental(self, executor_cls):
        executor = executor_cls()
        handles = portfolio_handles(include_search=False)
        runner = TaskGraphRunner(executor=executor, cache=ResultCache())
        graph, out = _portfolio_graph(handles, [6, 8])
        small = runner.run(graph)
        assert json.dumps(small.result(out)) == executor.sweep(handles, [6, 8]).to_json()
        assert small.stats["runs_computed"] == 2 * len(handles)
        # enlarging the grid computes only the new n=10 column
        cold_big = executor.sweep(handles, [6, 8, 10]).to_json()
        graph, out = _portfolio_graph(handles, [6, 8, 10])
        big = runner.run(graph)
        assert json.dumps(big.result(out)) == cold_big
        assert big.stats["runs_computed"] == len(handles)
        # a fully-warm rerun computes nothing
        rerun = runner.run(graph)
        assert rerun.stats["computed"] == 0
        assert json.dumps(rerun.result(out)) == cold_big

    def test_sharded_executor_uses_the_cache_in_the_parent(self):
        handles = portfolio_handles(include_search=False)
        sharded = ShardedExecutor(workers=2)
        cold = sharded.sweep(handles, [6, 8]).to_json()
        runner = TaskGraphRunner(executor=sharded, cache=ResultCache())
        graph, out = _portfolio_graph(handles, [6, 8])
        warm = runner.run(graph)
        assert json.dumps(warm.result(out)) == cold
        rerun = runner.run(graph)
        assert rerun.stats["runs_computed"] == 0
        assert json.dumps(rerun.result(out)) == cold

    def test_cache_respects_backend_in_the_cell_address(self):
        """Cells are addressed per backend name: no cross-backend serving."""
        handles = {"Rot": portfolio_handles()["RotatingPath"]}
        runner = TaskGraphRunner(cache=ResultCache())
        for backend in ("dense", "bitset"):
            with use_backend(backend):
                graph, _ = _portfolio_graph(handles, [8])
                assert runner.run(graph).stats["runs_computed"] == 1

    def test_cli_sweep_warms_service_runs(self, tmp_path, capsys):
        """Across surfaces: a CLI ``sweep --cache`` cell is a cached run."""
        from repro.cli import main

        path = tmp_path / "cache.jsonl"
        assert main(["sweep", "--ns", "6", "--fast", "--cache", str(path)]) == 0
        with JobScheduler(cache=ResultCache(path=path)) as scheduler:
            job = scheduler.submit_run(
                {"adversary": "rotating-path", "params": {"shift": 1}, "n": 6}
            )
            assert job.status == "done" and job.cached is True
        assert "runs computed: 10" in capsys.readouterr().err
