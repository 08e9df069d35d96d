"""Decision benchmark: arc-endpoint vs matrix scoring of the cyclic pool.

Times one round's decision of
:class:`~repro.adversaries.zeiner.CyclicFamilyAdversary` (default
``m_stride``, bitset backend) two ways on identical states:

* ``arc`` -- read the rows' arcs and score the whole pool from their
  endpoints (:mod:`repro.adversaries.arc_scorer`), then build the chosen
  parent array: the adversary's path;
* ``matrix`` -- compose every candidate against the state
  (:func:`repro.engine.batch.score_parents_quadratic`, the fallback path),
  fed the pool in slices so the ``(C, n)`` parent matrix never has to fit
  at once.  Building the slices is not timed.

The states are the adversary's own run: every round for ``n <= 64``; at
larger ``n`` the arc scorer is timed on a prefix of the run and the matrix
scorer on a few of those rounds (one matrix round costs minutes at
``n = 1024``).  Both scorers must pick the same candidate.  Results merge
into ``benchmarks/BENCH_decision.json`` (one ``n*`` cell per size, plus a
``machine`` block from :func:`repro.core.kernels.machine_info`).  CI's
bench-smoke deselects the n >= 256 ids via ``-k``.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_decision.py -q -s
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.adversaries.arc_scorer import row_arcs, select
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core import kernels as K
from repro.core.state import BroadcastState
from repro.engine.batch import score_parents_quadratic

RESULTS_PATH = Path(__file__).with_name("BENCH_decision.json")

NS = [32, 64, 256, 1024]

#: n -> (arc-timed rounds, matrix-timed rounds); ``None`` = every round.
ROUNDS = {32: (None, None), 64: (None, None), 256: (None, 3), 1024: (16, 1)}

#: Candidates per matrix-scorer slice.
SLICE = 1 << 12

#: The arc scorer must beat the matrix scorer by this much from n = 64 on.
MIN_SPEEDUP = 3.0


def _matrix_decision(state: BroadcastState, pool) -> tuple:
    """``(chosen index, seconds)`` of the matrix scorer over the whole pool."""
    best = None
    elapsed = 0.0
    for lo in range(0, len(pool), SLICE):
        parents = pool.parent_matrix(np.arange(lo, min(len(pool), lo + SLICE)))
        t0 = time.perf_counter()
        scores = score_parents_quadratic(state, parents)
        i = min(range(len(scores)), key=scores.__getitem__)
        elapsed += time.perf_counter() - t0
        if best is None or scores[i] < best[0]:
            best = (scores[i], lo + i)
    return best[1], elapsed


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


def _spread(items: list, k: Optional[int]) -> list:
    if k is None or k >= len(items):
        return items
    picks = np.linspace(0, len(items) - 1, k + 2)[1:-1].round().astype(int)
    return [items[i] for i in picks]


@pytest.mark.table
@pytest.mark.parametrize("n", NS)
def test_decision_scorers(n, report_sink):
    """Per-round decision time of both scorers on the adversary's states."""
    arc_rounds, matrix_rounds = ROUNDS[n]
    adv = CyclicFamilyAdversary(n)
    pool = adv.pool
    state = BroadcastState.initial(n, backend="bitset")
    # Warm-up, untimed: first calls pay one-off numpy and allocator costs.
    select(pool, *row_arcs(state.reach_matrix_view()))
    score_parents_quadratic(state, pool.parent_matrix(np.arange(1)))
    played = []  # (state before the round, arc choice, arc seconds)
    while not state.is_broadcast_complete():
        if arc_rounds is not None and len(played) >= arc_rounds:
            break
        before = state.copy()
        t0 = time.perf_counter()
        chosen = select(pool, *row_arcs(state.reach_matrix_view()))
        parents = pool.parents(chosen)
        played.append((before, chosen, time.perf_counter() - t0))
        state.apply_parents_inplace(parents)

    matrix_s = []
    for before, chosen, _ in _spread(played, matrix_rounds):
        matrix_choice, seconds = _matrix_decision(before, pool)
        assert matrix_choice == chosen, (n, before.round_index)
        matrix_s.append(seconds)

    arc_ms = 1000 * statistics.mean(s for *_, s in played)
    matrix_ms = 1000 * statistics.mean(matrix_s)
    speedup = matrix_ms / arc_ms
    doc = {
        "n": n,
        "backend": "bitset",
        "m_stride": pool.m_stride,
        "candidates": len(pool),
        "t_star": state.round_index if state.is_broadcast_complete() else None,
        "arc": {"rounds": len(played), "ms_per_round": round(arc_ms, 4)},
        "matrix": {"rounds": len(matrix_s), "ms_per_round": round(matrix_ms, 4)},
        "speedup": round(speedup, 2),
        "same_choice": True,
    }
    report_sink.append(
        f"[decision] n={n} C={len(pool)}: arc={arc_ms:.3f} ms/round "
        f"matrix={matrix_ms:.3f} ms/round speedup={speedup:.1f}x"
    )
    if n >= 64:
        doc["acceptance_min_speedup"] = MIN_SPEEDUP
        assert speedup >= MIN_SPEEDUP, doc
    _persist(f"n{n}", doc)


def test_results_file_is_well_formed():
    """Whatever cells exist on disk must parse and carry the schema."""
    if not RESULTS_PATH.exists():
        pytest.skip("BENCH_decision.json not generated yet")
    doc = json.loads(RESULTS_PATH.read_text(encoding="utf-8"))
    assert isinstance(doc, dict) and doc
    assert {"platform", "numpy", "cpus"} <= set(doc["machine"])
    cells = {key: cell for key, cell in doc.items() if key.startswith("n")}
    assert cells
    for key, cell in cells.items():
        assert cell["same_choice"] is True, key
        assert cell["arc"]["ms_per_round"] > 0, key
        assert cell["matrix"]["ms_per_round"] > 0, key
        if "acceptance_min_speedup" in cell:
            assert cell["speedup"] >= cell["acceptance_min_speedup"], key
