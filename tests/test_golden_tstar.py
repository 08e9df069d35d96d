"""Golden regression: exact t* of the paper's named constructions.

``tests/fixtures/golden_tstar.json`` pins the broadcast times measured on
the seed (dense) implementation for the static path (t* = n - 1,
Section 2), the Zeiner-style two-phase heuristic, the cyclic chain-fan
family (the Theorem 3.1 lower-bound witness, t* = ceil((3n-1)/2) - 2),
and the cyclic nonsplit reduction of [9]/[1].  Both backends must
reproduce every recorded value bit-for-bit; any drift is a correctness
regression, not noise.

The n = 20 and n = 24 entries were recorded with the historical
per-candidate cyclic scorer and are now reproduced by the arc-endpoint
scorer (:mod:`repro.adversaries.arc_scorer`), with the batched pool
scorer (:func:`repro.engine.batch.score_parents_quadratic`) as its
fallback on non-interval states;
:class:`TestBatchedCyclicScorerDecisions` additionally pins *decision*
equality -- same chosen tree each round, not just the same t* -- against
a per-candidate reference loop, on random (fallback) states and on full
runs (arc path).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.adversaries.nonsplit import NonsplitAdversary, broadcast_time_nonsplit
from repro.adversaries.paths import StaticPathAdversary
from repro.adversaries.zeiner import (
    CyclicFamilyAdversary,
    ZeinerStyleAdversary,
    quadratic_potential_score,
)
from repro.core.backend import use_backend
from repro.core.broadcast import run_adversary
from repro.core.state import BroadcastState
from repro.trees.generators import random_tree
from repro.trees.rooted_tree import RootedTree

FIXTURE = Path(__file__).parent / "fixtures" / "golden_tstar.json"
GOLDEN = json.loads(FIXTURE.read_text())

BACKENDS = ["dense", "bitset"]
NS = sorted(int(n) for n in GOLDEN["static_path"])

CONSTRUCTIONS = {
    "static_path": lambda n, backend: run_adversary(
        StaticPathAdversary(n), n, backend=backend
    ).t_star,
    "zeiner_style": lambda n, backend: run_adversary(
        ZeinerStyleAdversary(n), n, backend=backend
    ).t_star,
    "cyclic_family": lambda n, backend: run_adversary(
        CyclicFamilyAdversary(n), n, backend=backend
    ).t_star,
}


def test_fixture_is_well_formed():
    assert set(GOLDEN) == set(CONSTRUCTIONS) | {"nonsplit_cyclic"}
    for name, values in GOLDEN.items():
        assert sorted(int(n) for n in values) == NS, name


def test_fixture_matches_paper_formulas():
    """The recorded values themselves satisfy the paper's closed forms."""
    for n in NS:
        assert GOLDEN["static_path"][str(n)] == n - 1
        assert GOLDEN["cyclic_family"][str(n)] == math.ceil((3 * n - 1) / 2) - 2


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_reproduce_golden(backend, name):
    run = CONSTRUCTIONS[name]
    for n in NS:
        assert run(n, backend) == GOLDEN[name][str(n)], (name, n, backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_nonsplit_reduction_reproduces_golden(backend):
    with use_backend(backend):
        for n in NS:
            t, state = broadcast_time_nonsplit(
                NonsplitAdversary(n, mode="cyclic"), n
            )
            assert state.backend.name == backend
            assert t == GOLDEN["nonsplit_cyclic"][str(n)], (n, backend)


def _reference_next_tree(adv: CyclicFamilyAdversary, state: BroadcastState):
    """The historical per-candidate scoring loop, kept as the oracle."""
    reach = state.reach_matrix_view()
    best, best_score = None, None
    for parent in adv._candidate_parent_matrix():
        s = quadratic_potential_score(reach, parent, state.n)
        if best_score is None or s < best_score:
            best, best_score = parent, s
    return RootedTree([int(p) for p in best])


class TestBatchedCyclicScorerDecisions:
    """Batched pool scoring picks the SAME tree as the per-candidate loop."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [4, 7, 12, 17])
    def test_decision_equality_on_random_states(self, backend, n):
        rng = np.random.default_rng(n * 1009)
        with use_backend(backend):
            adv = CyclicFamilyAdversary(n)
            for trial in range(8):
                state = BroadcastState.initial(n)
                for _ in range(int(rng.integers(0, 2 * n))):
                    nxt = state.apply_tree(random_tree(n, rng))
                    if nxt.is_broadcast_complete():
                        break
                    state = nxt
                chosen = adv.next_tree(state, 1)
                oracle = _reference_next_tree(adv, state)
                assert chosen.parents == oracle.parents, (backend, n, trial)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_run_decision_trace(self, backend):
        """Round-by-round: both scorers drive the identical trajectory."""
        n = 10
        with use_backend(backend):
            adv = CyclicFamilyAdversary(n)
            state = BroadcastState.initial(n)
            rounds = 0
            while not state.is_broadcast_complete():
                rounds += 1
                tree = adv.next_tree(state, rounds)
                assert tree.parents == _reference_next_tree(adv, state).parents
                state.apply_tree_inplace(tree)
            assert rounds == GOLDEN["cyclic_family"][str(n)]

    def test_stride_subsampling_keeps_decisions(self):
        """Strided pools (the large-n config) keep their decisions too.

        Subsampled pools are a legitimately weaker adversary (t* below
        the formula), so the pinned property is decision equality with
        the per-candidate oracle over a full run, not the formula value.
        """
        n, stride = 16, 3
        adv = CyclicFamilyAdversary(n, m_stride=stride)
        state = BroadcastState.initial(n)
        while not state.is_broadcast_complete():
            tree = adv.next_tree(state, state.round_index + 1)
            assert tree.parents == _reference_next_tree(adv, state).parents
            state.apply_tree_inplace(tree)
        assert state.round_index == run_adversary(
            CyclicFamilyAdversary(n, m_stride=stride), n
        ).t_star


class TestSquaringReproducesGolden:
    """The repeated-squaring search lands on the same golden t* values.

    The static-path rows of the fixture are reproduced three ways: the
    squaring fast path (the default), the compiled round-by-round loop
    (``use_squaring=False``), and the uncompiled loop
    (``use_compiled=False``) -- all three must agree with the recorded
    ``n - 1`` on both backends, byte-identical final states included.
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", NS)
    def test_static_path_squaring_matches_golden(self, backend, n):
        from repro.engine.executor import RunSpec, SequentialExecutor

        golden = GOLDEN["static_path"][str(n)]
        spec = RunSpec(adversary=StaticPathAdversary(n), n=n, backend=backend)
        squared = SequentialExecutor().run(spec)
        looped = SequentialExecutor(use_squaring=False).run(spec)
        uncompiled = SequentialExecutor(use_compiled=False).run(spec)
        assert squared.t_star == looped.t_star == uncompiled.t_star == golden
        assert squared.compiled
        assert squared.final_state.key() == looped.final_state.key()
        assert squared.final_state.key() == uncompiled.final_state.key()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", NS)
    def test_random_static_tree_squaring_vs_loop(self, backend, n):
        from repro.adversaries.oblivious import StaticTreeAdversary
        from repro.engine.executor import RunSpec, SequentialExecutor

        adv = StaticTreeAdversary(random_tree(n, np.random.default_rng(n)))
        spec = RunSpec(adversary=adv, n=n, backend=backend)
        squared = SequentialExecutor().run(spec)
        looped = SequentialExecutor(use_squaring=False).run(spec)
        assert squared.t_star == looped.t_star
        assert squared.broadcasters == looped.broadcasters
        assert squared.final_state.key() == looped.final_state.key()
