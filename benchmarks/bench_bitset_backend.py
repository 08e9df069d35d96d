"""Backend ablation: dense boolean matrices vs word-packed bitsets.

The tentpole claim quantified: a full broadcast run (compose + completion
check per round) through the ``bitset`` backend must beat ``dense`` by at
least 4x at n = 1024 (measured ~65x on the reference container, because a
round touches ``n * n/64`` words instead of ``n * n`` bools).  Also
benchmarked: the batched multi-run engine against B sequential runs, the
batched candidate-scoring kernel behind the greedy searcher, and the
sharded multiprocess sweep engine against the sequential sweep (>= 2x
wall-clock at n = 256 with 4 workers on a >= 4-core host).
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np
import pytest

from repro.adversaries.greedy import GreedyDelayAdversary
from repro.analysis.sweep import sweep_adversaries
from repro.analysis.tables import format_table
from repro.core.backend import get_backend
from repro.core.broadcast import run_sequence
from repro.engine.batch import BatchRunner, run_sequences_batch
from repro.engine.shard import usable_cpus
from repro.trees.generators import path, random_tree

BACKENDS = ("dense", "bitset")


def _static_path_run(n: int, backend: str):
    trees = [path(n)] * (n - 1)
    return run_sequence(trees, n=n, backend=backend)


def _time(fn, repeats: int = 2):
    """(best seconds, last result) over ``repeats`` calls."""
    best, result = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [64, 256])
def test_full_run_kernel(benchmark, n, backend):
    """Per-backend timing of a full static-path broadcast run."""
    result = benchmark(lambda: _static_path_run(n, backend))
    assert result.t_star == n - 1


@pytest.mark.table
@pytest.mark.parametrize("n", [64, 256, 1024])
def test_backend_speedup_table(n, report_sink):
    """Dense vs bitset on a full run; asserts the >= 4x bar at n = 1024."""
    times = {}
    for backend in BACKENDS:
        times[backend], result = _time(lambda b=backend: _static_path_run(n, b))
        assert result.t_star == n - 1
    speedup = times["dense"] / times["bitset"]
    rows = [
        (n, f"{times['dense'] * 1e3:.2f}", f"{times['bitset'] * 1e3:.2f}",
         f"{speedup:.1f}x"),
    ]
    table = format_table(
        ["n", "dense ms", "bitset ms", "speedup"],
        rows,
        title=f"Full broadcast run, n={n}",
    )
    print(table)
    report_sink.append(table)
    if n >= 1024:
        assert speedup >= 4.0, (
            f"bitset backend must be >= 4x dense at n={n}, got {speedup:.1f}x"
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [64, 256])
def test_batch_vs_sequential(benchmark, n, backend):
    """B=32 random-sequence runs: one BatchRunner vs a per-run loop."""
    rng = np.random.default_rng(0)
    seqs = [
        [random_tree(n, rng) for _ in range(2 * n)] for _ in range(32)
    ]
    batched = benchmark(lambda: run_sequences_batch(seqs, n=n, backend=backend))
    sequential = [
        run_sequence(s, n=n, backend=backend).t_star for s in seqs
    ]
    assert batched == sequential


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [64, 128])
def test_greedy_batched_scoring(benchmark, n, backend):
    """One greedy round (pool scoring via the batched kernel)."""
    bk = get_backend(backend)
    adv = GreedyDelayAdversary(n, seed=0)
    from repro.core.state import BroadcastState

    state = BroadcastState.initial(n, backend=bk)
    rng = np.random.default_rng(1)
    for _ in range(n // 2):
        state.apply_tree_inplace(random_tree(n, rng))
    tree = benchmark(lambda: adv.next_tree(state, 1))
    assert tree.n == n


def _sweep_grid(n: int):
    """A multi-adversary grid heavy enough to amortize worker startup.

    Eight independent greedy searchers (distinct pools via distinct
    seeds): each one is seconds of work at n = 256, every point is
    embarrassingly parallel, and 8 points over 4 workers balance into
    two full waves, keeping the ideal ceiling at 4x while making pool
    startup a small fraction of the measured window.
    """
    return {
        f"GreedyDelay[s{seed}]": partial(GreedyDelayAdversary, seed=seed)
        for seed in range(8)
    }, [n]


@pytest.mark.table
@pytest.mark.parametrize("n", [32, 256])
def test_sharded_sweep_speedup(n, report_sink):
    """Sharded (4 workers) vs sequential sweep: identical points, and
    >= 2x wall-clock at n >= 256 when the host has >= 4 usable cores."""
    workers = 4
    factories, ns = _sweep_grid(n)
    # Best-of-2 on both sides: a one-shot wall-clock sample on a shared
    # CI runner is too noisy to gate on (pool startup included each time).
    t_seq, seq = _time(lambda: sweep_adversaries(factories, ns), repeats=2)
    t_shard, sharded = _time(
        lambda: sweep_adversaries(factories, ns, workers=workers), repeats=2
    )
    assert sharded == seq, "sharded sweep must be bit-identical to sequential"
    speedup = t_seq / t_shard
    table = format_table(
        ["n", "points", "sequential s", f"{workers} workers s", "speedup"],
        [(n, len(seq.points), f"{t_seq:.2f}", f"{t_shard:.2f}", f"{speedup:.1f}x")],
        title=f"Sharded vs sequential sweep, n={n}",
    )
    print(table)
    report_sink.append(table)
    cpus = usable_cpus()
    if n >= 256:
        if cpus < workers:
            pytest.skip(
                f"speedup bar needs >= {workers} usable cores, host has {cpus}"
            )
        assert speedup >= 2.0, (
            f"sharded sweep must be >= 2x sequential at n={n} with "
            f"{workers} workers, got {speedup:.1f}x"
        )


@pytest.mark.table
def test_batch_runner_smoke(report_sink):
    """Tiny end-to-end batch: stacked tensors track t* for every run."""
    n, B = 16, 8
    rng = np.random.default_rng(2)
    runner = BatchRunner(n, B, backend="bitset")
    seqs = [[random_tree(n, rng) for _ in range(3 * n)] for _ in range(B)]
    for i in range(3 * n):
        if runner.all_complete:
            break
        runner.step([s[i] for s in seqs])
    assert runner.all_complete
    rows = [(b, runner.t_star(b), len(runner.broadcasters(b))) for b in range(B)]
    table = format_table(
        ["run", "t*", "#broadcasters"], rows, title="BatchRunner smoke (n=16, B=8)"
    )
    print(table)
    report_sink.append(table)
