"""Job scheduler: lifecycle, dedup, batching, and failure isolation.

The failure-path satellite lives here: a spec whose adversary raises
mid-run must mark *only its own job* ``failed`` (with the error message
recorded) while the other jobs in the same batch dispatch still complete.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.adversaries.base import Adversary
from repro.engine.executor import BatchExecutor
from repro.errors import ServiceError, SpecError
from repro.service.cache import ResultCache
from repro.service.scheduler import JobScheduler
from repro.service.specs import (
    ParamSpec,
    canonical_sweep_spec,
    register_adversary,
    spec_digest,
    unregister_adversary,
)
from repro.trees.generators import path


class FailingAdversary(Adversary):
    """Plays the identity path until ``fail_at``, then raises."""

    def __init__(self, n: int, fail_at: int = 3) -> None:
        self._tree = path(n)
        self._fail_at = fail_at
        self.name = "FailingTest"
        super().__init__()

    def next_tree(self, state, round_index):
        if round_index >= self._fail_at:
            raise RuntimeError(f"synthetic failure at round {round_index}")
        return self._tree


class SlowPathAdversary(Adversary):
    """Identity path with an artificial per-round stall (dedup tests)."""

    def __init__(self, n: int, delay_ms: int = 20) -> None:
        self._tree = path(n)
        self._delay = delay_ms / 1000.0
        self.name = "SlowTest"
        super().__init__()

    def next_tree(self, state, round_index):
        time.sleep(self._delay)
        return self._tree


@pytest.fixture
def test_adversaries():
    register_adversary(
        "failing-test",
        FailingAdversary,
        params={"fail_at": ParamSpec("int", 3)},
        description="test-only: raises mid-run",
    )
    register_adversary(
        "slow-test",
        SlowPathAdversary,
        params={"delay_ms": ParamSpec("int", 20)},
        description="test-only: stalls each round",
    )
    yield
    unregister_adversary("failing-test")
    unregister_adversary("slow-test")


def test_submit_run_completes_with_correct_result():
    with JobScheduler() as scheduler:
        job = scheduler.submit_run({"adversary": "static-path", "n": 12})
        job = scheduler.wait(job.job_id, timeout=30)
        assert job.status == "done"
        assert job.result["t_star"] == 11
        assert job.cached is False
        assert job.digest == spec_digest({"adversary": "static-path", "n": 12})


def test_second_submit_hits_the_cache():
    with JobScheduler() as scheduler:
        first = scheduler.submit_run({"adversary": "runner", "n": 10})
        first = scheduler.wait(first.job_id, timeout=30)
        second = scheduler.submit_run({"adversary": "runner", "n": 10, "seed": 0})
        assert second.status == "done"
        assert second.cached is True
        assert second.job_id != first.job_id
        assert second.result == first.result
        assert scheduler.metrics()["computations"] == 1


def test_inflight_dedup_returns_the_same_job(test_adversaries):
    with JobScheduler() as scheduler:
        spec = {"adversary": "slow-test", "n": 8}
        first = scheduler.submit_run(spec)
        second = scheduler.submit_run(dict(spec))  # identical digest, new dict
        assert second.job_id == first.job_id
        metrics = scheduler.metrics()
        assert metrics["dedup_inflight"] == 1
        done = scheduler.wait(first.job_id, timeout=30)
        assert done.status == "done"
        assert scheduler.metrics()["computations"] == 1


def test_compatible_queued_runs_batch_into_one_dispatch():
    scheduler = JobScheduler()  # not started: submissions pile up queued
    jobs = [
        scheduler.submit_run({"adversary": "rotating-path", "n": 10, "params": {"shift": s}})
        for s in (1, 2, 3, 4)
    ]
    assert all(job.status == "queued" for job in jobs)
    with scheduler:
        for job in jobs:
            assert scheduler.wait(job.job_id, timeout=30).status == "done"
    metrics = scheduler.metrics()
    assert metrics["dispatches"] == 1  # one BatchExecutor.run_many for all 4
    assert metrics["computations"] == 4


def test_failed_spec_fails_alone_batch_neighbours_complete(test_adversaries):
    """The satellite: mid-run failure isolates to its own job."""
    scheduler = JobScheduler()
    good_a = scheduler.submit_run({"adversary": "static-path", "n": 9})
    bad = scheduler.submit_run(
        {"adversary": "failing-test", "n": 9, "params": {"fail_at": 4}}
    )
    good_b = scheduler.submit_run({"adversary": "rotating-path", "n": 9})
    # all three share (n, backend, cap): they form one batch dispatch
    with scheduler:
        good_a = scheduler.wait(good_a.job_id, timeout=30)
        bad = scheduler.wait(bad.job_id, timeout=30)
        good_b = scheduler.wait(good_b.job_id, timeout=30)
    assert good_a.status == "done" and good_a.result["t_star"] == 8
    assert good_b.status == "done" and good_b.result["t_star"] == 8
    assert bad.status == "failed"
    assert bad.result is None
    assert "synthetic failure at round 4" in bad.error
    metrics = scheduler.metrics()
    assert metrics["jobs"]["failed"] == 1
    assert metrics["jobs"]["done"] == 2
    assert metrics["failures"] == 1
    # a failure is not cached: resubmitting re-attempts (and fails again)
    retry = scheduler.submit_run(
        {"adversary": "failing-test", "n": 9, "params": {"fail_at": 4}}
    )
    assert retry.status in ("queued", "running", "failed")


def test_sweep_job_and_cell_cache_warmup():
    cache = ResultCache()
    with JobScheduler(cache=cache) as scheduler:
        sweep = {"adversaries": ["static-path", "rotating-path"], "ns": [6, 8]}
        job = scheduler.wait(scheduler.submit_sweep(sweep).job_id, timeout=30)
        assert job.status == "done"
        assert len(job.result["points"]) == 4
        # 4 run cells, the sweep-agg task and the job's own sweep entry
        assert cache.stats()["entries"] == 6
        assert cache.lookup(job.digest, kind="sweep") == job.result
        # a run submit matching a warmed cell is a cache hit, and an
        # identical sweep is O(1)
        run = scheduler.submit_run({"adversary": "rotating-path", "n": 8})
        assert run.status == "done" and run.cached is True
        again = scheduler.submit_sweep(
            {"ns": [8, 6], "adversaries": ["rotating-path", "static-path"]}
        )
        assert again.status == "done" and again.cached is True
        assert again.result == job.result


#: A small grid with a non-default param and an explicit backend.
WARM_SWEEP = {
    "adversaries": ["static-path", {"adversary": "rotating-path", "params": {"shift": 2}}],
    "ns": [6, 9],
    "backend": "bitset",
}


def _grid_runs(sweep):
    return [
        {"adversary": row["adversary"], "params": row["params"], "n": n, "backend": "bitset"}
        for n in sweep["ns"]
        for row in canonical_sweep_spec(sweep)["adversaries"]
    ]


class CountingExecutor(BatchExecutor):
    """Counts the run specs that reach the executor."""

    def __init__(self):
        super().__init__()
        self.specs_run = 0

    def run_many(self, specs):
        self.specs_run += len(specs)
        return super().run_many(specs)


def test_sweep_cells_are_warm_run_submissions():
    """Sweep first: every cell is then a cached ``/v1/runs`` answer."""
    with JobScheduler(cache=ResultCache()) as scheduler:
        job = scheduler.wait(scheduler.submit_sweep(WARM_SWEEP).job_id, timeout=30)
        assert job.status == "done"
        t_stars = [p["t_star"] for p in job.result["points"]]
        runs = [scheduler.submit_run(spec) for spec in _grid_runs(WARM_SWEEP)]
        assert all(run.status == "done" and run.cached for run in runs)
        assert [run.result["t_star"] for run in runs] == t_stars


def test_runs_first_sweep_computes_no_runs():
    """Runs first: the matching sweep is served from the run entries."""
    executor = CountingExecutor()
    with JobScheduler(executor=executor, cache=ResultCache()) as scheduler:
        for spec in _grid_runs(WARM_SWEEP):
            assert scheduler.wait(scheduler.submit_run(spec).job_id).status == "done"
        computed = executor.specs_run
        assert computed == 4
        job = scheduler.wait(scheduler.submit_sweep(WARM_SWEEP).job_id, timeout=30)
        assert job.status == "done" and len(job.result["points"]) == 4
        assert executor.specs_run == computed


def test_failing_sweep_cell_fails_the_job_and_caches_healthy_cells(test_adversaries):
    with JobScheduler(cache=ResultCache()) as scheduler:
        sweep = {
            "adversaries": [
                "static-path",
                {"adversary": "failing-test", "params": {"fail_at": 3}},
            ],
            "ns": [6, 8],
            "backend": "bitset",
        }
        job = scheduler.wait(scheduler.submit_sweep(sweep).job_id, timeout=30)
        assert job.status == "failed"
        assert job.error == "RuntimeError: synthetic failure at round 3"
        for n in (6, 8):
            run = scheduler.submit_run(
                {"adversary": "static-path", "n": n, "backend": "bitset"}
            )
            assert run.status == "done" and run.cached is True
            assert run.result["t_star"] == n - 1


def test_overlapping_sweep_only_computes_new_cells():
    cache = ResultCache()
    with JobScheduler(cache=cache) as scheduler:
        first = scheduler.wait(
            scheduler.submit_sweep(
                {"adversaries": ["static-path"], "ns": [6, 8]}
            ).job_id,
            timeout=30,
        )
        assert first.status == "done"
        hits_before = cache.stats()["hits"]
        bigger = scheduler.wait(
            scheduler.submit_sweep(
                {"adversaries": ["static-path"], "ns": [6, 8, 10]}
            ).job_id,
            timeout=30,
        )
        assert bigger.status == "done"
        assert cache.stats()["hits"] >= hits_before + 2  # 6 and 8 were warm
        assert [p["t_star"] for p in bigger.result["points"]] == [5, 7, 9]


def test_concurrent_submitters_compute_each_digest_once(test_adversaries):
    """Scheduler-level version of the concurrency acceptance check."""
    specs = [
        {"adversary": "slow-test", "n": 7, "params": {"delay_ms": 10}},
        {"adversary": "slow-test", "n": 8, "params": {"delay_ms": 10}},
        {"adversary": "static-path", "n": 13},
        {"adversary": "rotating-path", "n": 13, "params": {"shift": 2}},
    ]
    with JobScheduler(workers=2) as scheduler:
        job_ids = []
        lock = threading.Lock()

        def submitter(offset: int) -> None:
            for spec in specs[offset:] + specs[:offset]:
                job = scheduler.submit_run(dict(spec))
                with lock:
                    job_ids.append(job.job_id)

        threads = [
            threading.Thread(target=submitter, args=(i % len(specs),))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job_id in set(job_ids):
            assert scheduler.wait(job_id, timeout=60).status == "done"
        metrics = scheduler.metrics()
    assert metrics["submitted"] == 8 * len(specs)
    assert metrics["computations"] == len(specs)  # exactly one per digest


def test_finished_job_retention_is_bounded():
    """A long-lived scheduler must not leak terminal job records."""
    with JobScheduler(max_finished_jobs=3) as scheduler:
        jobs = [
            scheduler.wait(
                scheduler.submit_run({"adversary": "static-path", "n": n}).job_id,
                timeout=30,
            )
            for n in (5, 6, 7, 8, 9)
        ]
        with pytest.raises(ServiceError, match="unknown job id"):
            scheduler.job(jobs[0].job_id)  # oldest evicted past the bound
        assert scheduler.job(jobs[-1].job_id).status == "done"
        # evicted jobs' results stay reachable through the cache
        again = scheduler.submit_run({"adversary": "static-path", "n": 5})
        assert again.cached is True and again.result == jobs[0].result


def test_errors_and_introspection():
    scheduler = JobScheduler()
    with pytest.raises(ServiceError, match="unknown job id"):
        scheduler.job("job-zzz")
    with pytest.raises(SpecError):
        scheduler.submit_run({"adversary": "static-path"})  # missing n
    with pytest.raises(ServiceError, match="workers"):
        JobScheduler(workers=0)
    job = scheduler.submit_run({"adversary": "static-path", "n": 6})
    with pytest.raises(ServiceError, match="still"):
        scheduler.wait(job.job_id, timeout=0.05)  # never started
