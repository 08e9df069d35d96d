"""Static-schedule squaring benchmark: the t* repeated-squaring search.

Persisted into ``benchmarks/BENCH_kernels.json`` (same merge-by-key
convention as ``BENCH_load.json``, plus a ``machine`` block from
:func:`repro.core.kernels.machine_info`):

* ``tstar_*`` -- completion search on the static path (t* = n - 1):
  repeated-squaring fast path vs the compiled round-by-round loop
  (``use_squaring=False``).  The acceptance number: >= 10x at n >= 1024
  (t* = 1023 >= 512), with identical t*.
* ``batch_compose_*`` -- microseconds per
  :meth:`~repro.core.backend.MatrixBackend.batch_compose_inplace` call on
  both backends at ``(B, n)`` = (7, 256) and (7, 512), the lockstep
  kernel of :class:`~repro.engine.executor.BatchExecutor` at the
  ``sweep`` workload's sizes (n = 64 is the smoke cell).  Each cell first
  checks the batch kernel against ``B`` single-run
  ``compose_with_tree_inplace`` calls.

The n = 4096 cell is additionally gated behind ``REPRO_BENCH_FULL=1``
so the default tier-1 run stays fast; CI's bench-smoke deselects every
big-n id via ``-k`` and only exercises the n = 64 smoke cell.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q                   # small cells
    REPRO_BENCH_FULL=1 PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q  # full grid
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable

import pytest

import numpy as np

from repro.adversaries.paths import StaticPathAdversary
from repro.core import kernels as K
from repro.core.backend import get_backend
from repro.engine.executor import RunSpec, SequentialExecutor
from repro.trees.generators import random_tree

RESULTS_PATH = Path(__file__).with_name("BENCH_kernels.json")

FULL = os.environ.get("REPRO_BENCH_FULL", "") not in ("", "0")

TSTAR_NS = [64, 1024, 4096]

#: ``(B, n)`` of the batch-compose cells; B = 7 is the size of one
#: ``sweep`` lockstep group (its seven non-static families).
BATCH_CELLS = [(7, 64), (7, 256), (7, 512)]


def _require(n: int) -> None:
    if n >= 4096 and not FULL:
        pytest.skip("n=4096 cells run only under REPRO_BENCH_FULL=1")


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _persist(key: str, payload: dict) -> None:
    try:
        existing = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing[key] = payload
    existing["machine"] = K.machine_info()
    RESULTS_PATH.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


@pytest.mark.table
@pytest.mark.parametrize("n", TSTAR_NS)
def test_tstar_squaring_search(n, report_sink):
    """Squaring vs the compiled loop on the static path; persist + assert."""
    _require(n)
    repeats = 2 if n >= 4096 else 3

    def run(use_squaring: bool):
        spec = RunSpec(adversary=StaticPathAdversary(n), n=n, backend="bitset")
        return SequentialExecutor(use_squaring=use_squaring).run(spec)

    fast = run(True)
    slow = run(False)
    assert fast.t_star == slow.t_star == n - 1
    assert fast.final_state.key() == slow.final_state.key()

    t_fast = _best_of(lambda: run(True), repeats)
    t_slow = _best_of(lambda: run(False), repeats)
    speedup = t_slow / t_fast if t_fast > 0 else float("inf")
    doc = {
        "n": n,
        "t_star": fast.t_star,
        "seconds": {"squaring": round(t_fast, 6), "loop": round(t_slow, 6)},
        "speedup": round(speedup, 2),
    }
    report_sink.append(
        f"[kernels] tstar n={n}: squaring={t_fast:.4f}s loop={t_slow:.4f}s "
        f"speedup={speedup:.1f}x"
    )
    if n >= 1024:  # t* = n - 1 >= 512: the acceptance regime
        doc["acceptance_min_speedup"] = 10.0
        assert speedup >= 10.0, doc
    _persist(f"tstar_n{n}", doc)


@pytest.mark.table
@pytest.mark.parametrize("backend_name", ["dense", "bitset"])
@pytest.mark.parametrize("batch,n", BATCH_CELLS)
def test_batch_compose(backend_name, batch, n, report_sink):
    """One lockstep batch compose, checked against per-run composes; persist."""
    backend = get_backend(backend_name)
    rng = np.random.default_rng(n)
    parents = np.stack(
        [random_tree(n, rng).parent_array_numpy() for _ in range(batch)]
    )
    # A mid-run state (one random round), so no row is trivially full.
    bmat = backend.identity_batch(batch, n)
    backend.batch_compose_inplace(bmat, parents[::-1])
    want = [backend.copy(backend.slice_run(bmat, b)) for b in range(batch)]
    backend.batch_compose_inplace(bmat, parents)
    for b in range(batch):
        backend.compose_with_tree_inplace(want[b], parents[b])
        assert backend.equal(backend.slice_run(bmat, b), want[b]), b

    repeats = 200 if n <= 256 else 100
    seconds = _best_of(lambda: backend.batch_compose_inplace(bmat, parents), repeats)
    us = round(seconds * 1e6, 2)
    report_sink.append(
        f"[kernels] batch_compose {backend_name} B={batch} n={n}: {us:.1f} us"
    )
    _persist(
        f"batch_compose_{backend_name}_B{batch}_n{n}",
        {"backend": backend_name, "B": batch, "n": n, "us_per_compose": us},
    )


def test_results_file_is_well_formed():
    """Whatever cells exist on disk must parse and carry the schema."""
    if not RESULTS_PATH.exists():
        pytest.skip("BENCH_kernels.json not generated yet")
    doc = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    assert isinstance(doc, dict) and doc
    assert "machine" in doc
    assert {"platform", "numpy", "cpus"} <= set(doc["machine"])
    for key, cell in doc.items():
        if key.startswith("tstar_"):
            assert cell["seconds"]["squaring"] > 0, key
        if key.startswith("batch_compose_"):
            assert cell["us_per_compose"] > 0, key
