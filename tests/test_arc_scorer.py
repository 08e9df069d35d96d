"""The arc-endpoint scorer against the matrix scorer it replaces.

:mod:`repro.adversaries.arc_scorer` scores the whole cyclic chain-fan pool
from the rows' arc endpoints.  Every test here compares it with
:func:`repro.engine.batch.score_parents_quadratic`, which composes each
candidate against the state, in the small-scope exhaustive style: all
candidates, all reachable states of the adversary's own runs, and *every*
interval-structured state for ``n <= 4``.

The adversary ladder checks every state for every ``n <= 33`` on both
backends, and on bitset for the witness sizes 40, 48, 56, 64 (the
default ``m_stride`` is 2 at 64) and for 63, the largest stride-1 pool.
Every ``n`` in ``2..64`` on both backends would cost about six minutes on
a 2-CPU x86_64 host, most of it in the matrix scorer, so the other sizes
above 33 are not in the suite.  The arc scorer itself never sees the
backend; only :func:`row_arcs` reads the backend's reach matrix.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.adversaries.arc_scorer import ChainFanPool, row_arcs, score_arcs, select
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core.backend import use_backend
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.engine.batch import score_parents_quadratic
from repro.trees.generators import random_tree

BACKENDS = ("dense", "bitset")
LADDER = [(backend, n) for n in range(2, 34) for backend in BACKENDS] + [
    ("bitset", n) for n in (40, 48, 56, 63, 64)
]
WITNESS_NS = (32, 40, 48, 56, 64)


def _historical_pool(n: int, m_stride: int) -> np.ndarray:
    """The family as the tuple-set generation loop used to build it."""
    seen = set()
    out = []
    for s in range(n):
        for step in (1, -1):
            order = [(s + step * i) % n for i in range(n)]
            moves = [(n - 1, s)]
            for m in range(1, n - 1, m_stride):
                moves += [(m, s), (m, order[m])]
            for m, anchor in moves:
                parents = [anchor] * n
                parents[s] = s
                for a, b in zip(order[: m + 1], order[1 : m + 1]):
                    parents[b] = a
                if tuple(parents) not in seen:
                    seen.add(tuple(parents))
                    out.append(parents)
    return np.asarray(out, dtype=np.int64)


def _assert_matches_matrix(state: BroadcastState, pool: ChainFanPool, matrix) -> int:
    """Arc scores equal the matrix scores for every candidate; returns the choice.

    ``matrix`` is ``pool.parent_matrix()``, built once by the caller.
    """
    arcs = row_arcs(state.reach_matrix_view())
    assert arcs is not None
    counts, sumsq = score_arcs(pool, *arcs)
    tuples = score_parents_quadratic(state, matrix)
    assert counts.tolist() == [t[0] for t in tuples]
    assert sumsq.tolist() == [t[1] for t in tuples]
    chosen = select(pool, *arcs)
    assert chosen == min(range(len(tuples)), key=tuples.__getitem__)
    return chosen


def _arc_state(n: int, arcs, backend: str) -> BroadcastState:
    rows = [frozenset((a + i) % n for i in range(length)) for a, length in arcs]
    return BroadcastState.from_rows(rows, backend=backend)


def _arcs_through(n: int, x: int):
    """Every ``(start, length)`` arc containing node ``x`` (one full arc)."""
    yield (0, n)
    for length in range(1, n):
        for offset in range(length):
            yield ((x - offset) % n, length)


class TestPool:
    @pytest.mark.parametrize("m_stride", [1, 2, 3, 5])
    def test_metadata_pool_is_the_historical_pool(self, m_stride):
        for n in range(2, 41):
            pool = ChainFanPool.build(n, m_stride)
            expected = _historical_pool(n, m_stride)
            assert len(pool) == len(expected), n
            assert np.array_equal(pool.parent_matrix(), expected), n

    def test_single_candidate_parents(self):
        pool = ChainFanPool.build(9, 2)
        matrix = pool.parent_matrix()
        for i in range(len(pool)):
            assert np.array_equal(pool.parents(i), matrix[i])

    def test_adversary_parent_matrix_is_the_pool(self):
        adv = CyclicFamilyAdversary(12, m_stride=3)
        assert np.array_equal(
            adv._candidate_parent_matrix(), _historical_pool(12, 3)
        )


class TestRowArcs:
    def test_reads_starts_and_lengths(self):
        state = _arc_state(6, [(5, 3), (1, 1), (0, 6), (2, 4), (4, 1), (3, 3)], "dense")
        starts, lengths = row_arcs(state.reach_matrix_view())
        assert starts.tolist() == [5, 1, 0, 2, 4, 3]
        assert lengths.tolist() == [3, 1, 6, 4, 1, 3]

    def test_non_interval_row_is_rejected(self):
        state = BroadcastState.from_rows([{0, 2}, {1}, {2}, {3}])
        assert row_arcs(state.reach_matrix_view()) is None


class TestAdversaryStates:
    """Every state the adversary reaches: all candidates scored equal."""

    @pytest.mark.parametrize("backend,n", LADDER)
    def test_default_stride_ladder(self, backend, n):
        with use_backend(backend):
            adv = CyclicFamilyAdversary(n)
            matrix = adv.pool.parent_matrix()
            state = BroadcastState.initial(n)
            while not state.is_broadcast_complete():
                chosen = _assert_matches_matrix(state, adv.pool, matrix)
                played = adv.next_tree(state, state.round_index + 1)
                assert list(played.parents) == matrix[chosen].tolist()
                state.apply_parents_inplace(matrix[chosen])
            assert (adv.arc_rounds, adv.fallback_rounds) == (state.round_index, 0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("m_stride", [2, 3])
    def test_strided_pools(self, backend, m_stride):
        with use_backend(backend):
            for n in range(2, 21):
                pool = ChainFanPool.build(n, m_stride)
                matrix = pool.parent_matrix()
                state = BroadcastState.initial(n)
                while not state.is_broadcast_complete():
                    chosen = _assert_matches_matrix(state, pool, matrix)
                    state.apply_parents_inplace(matrix[chosen])


class TestIntervalStates:
    """Interval-structured states the adversary may never reach."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_interval_state(self, backend, n):
        pool = ChainFanPool.build(n, 1)
        matrix = pool.parent_matrix()
        per_row = [list(_arcs_through(n, x)) for x in range(n)]
        for arcs in itertools.product(*per_row):
            _assert_matches_matrix(_arc_state(n, arcs, backend), pool, matrix)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_random_interval_states(self, backend):
        rng = np.random.default_rng(2022)
        for n in range(5, 41):
            for _ in range(3):
                arcs = []
                for x in range(n):
                    if rng.random() < 0.05:
                        arcs.append((0, n))
                        continue
                    length = int(rng.integers(1, n))
                    arcs.append(((x - int(rng.integers(0, length))) % n, length))
                pool = ChainFanPool.build(n, int(rng.integers(1, 4)))
                _assert_matches_matrix(_arc_state(n, arcs, backend), pool, pool.parent_matrix())


class TestFallback:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_interval_state_takes_the_matrix_path(self, backend):
        from test_golden_tstar import _reference_next_tree

        n = 11
        rng = np.random.default_rng(7)
        with use_backend(backend):
            adv = CyclicFamilyAdversary(n)
            state = BroadcastState.initial(n)
            for _ in range(3):
                state = state.apply_tree(random_tree(n, rng))
            assert row_arcs(state.reach_matrix_view()) is None
            chosen = adv.next_tree(state, 4)
            assert (adv.arc_rounds, adv.fallback_rounds) == (0, 1)
            assert chosen.parents == _reference_next_tree(adv, state).parents

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_witness_ladder_never_falls_back(self, backend):
        with use_backend(backend):
            for n in WITNESS_NS:
                adv = CyclicFamilyAdversary(n)
                result = run_adversary(adv, n)
                assert adv.fallback_rounds == 0, n
                assert adv.arc_rounds == result.t_star, n
