"""Lower-bound adversaries: the cyclic chain-fan construction and friends.

The ``⌈(3n−1)/2⌉ − 2`` lower bound of Theorem 3.1 is due to Zeiner,
Schwarz, Schmid [14] via an explicit adversary (published separately in
Discrete Applied Mathematics 255, 2019, not restated in the brief
announcement we reproduce).  This module supplies executable adversaries
that *witness* the bound:

* :class:`CyclicFamilyAdversary` -- the reproduction's main result on the
  lower-bound side.  Playing greedily (quadratic-potential score) over the
  family of *rotated cyclic paths* and *cyclic chain-fan trees*, it keeps
  every reach set a cyclic interval and, with the full family
  (``m_stride=1``), achieves **exactly** ``⌈(3n−1)/2⌉ − 2`` for every
  ``n`` we test, matching both the known lower-bound formula and the
  exact game values computed by :mod:`repro.adversaries.exact` for
  ``n <= 5`` (where ``t*(T_n)`` equals the formula).  How it was found: we solved the game exactly for small
  ``n``, observed that optimal play keeps reach sets as cyclic intervals
  and plays chains-with-fans, and closed the family under rotation and
  direction.  The default ``m_stride`` subsamples chain lengths from
  ``n = 64`` on, a weaker adversary (``t* = 93`` instead of 94 at
  ``n = 64``).

* :class:`ZeinerStyleAdversary`, :class:`RunnerAdversary` -- simpler
  two-phase/path heuristics kept as baselines (they only reach ``n - 1``;
  their failure is itself informative and benchmarked in E8).

* :func:`best_known_adversary` -- portfolio driver returning the strongest
  measured adversary for a given ``n``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversaries.arc_scorer import ChainFanPool, row_arcs, select
from repro.adversaries.base import Adversary
from repro.adversaries.paths import (
    AlternatingPathAdversary,
    RotatingPathAdversary,
    SortedPathAdversary,
    StaticPathAdversary,
    TwoPhaseFlipAdversary,
)
from repro.core.broadcast import BroadcastResult, run_adversary
from repro.core.state import BroadcastState
from repro.errors import AdversaryError
from repro.trees.generators import chain_fan, path_from_order, rotated_path
from repro.trees.rooted_tree import RootedTree


def quadratic_potential_score(
    reach: np.ndarray, parent: np.ndarray, n: int
) -> Tuple[int, int, int]:
    """Score a candidate move; lexicographically lower is better.

    ``(new broadcasters, sum of squared reach sizes, max reach size)``:
    never finish if avoidable, then keep knowledge balanced (the convex
    penalty makes informing the already-informed expensive), then suppress
    the leader.  This is the score under which greedy play over *all*
    trees reproduces the exact game values for ``n <= 6``.
    """
    new = reach | reach[:, parent]
    rows = new.sum(axis=1)
    return (
        int((rows == n).sum()),
        int((rows.astype(np.int64) ** 2).sum()),
        int(rows.max()),
    )


class CyclicFamilyAdversary(Adversary):
    """Greedy adversary over the cyclic chain-fan family.

    Candidate moves, for every start node ``s``:

    * the rotated forward and backward cyclic paths at ``s``;
    * for every chain length ``m`` (subsampled by ``m_stride`` for large
      ``n``): the chain-fan trees in both directions with the fan at the
      root and at the chain tail.

    Each round the candidate minimizing
    :func:`quadratic_potential_score` is played.  Reach sets then remain
    cyclic intervals throughout the run, and the achieved broadcast time
    equals the Theorem 3.1 lower-bound formula on every size we have
    checked (see EXPERIMENTS.md, E2/E3).

    The whole ``O(n²/m_stride)``-candidate pool is scored per round from
    the rows' arc endpoints (:mod:`repro.adversaries.arc_scorer`) in
    ``O(n²)`` -- no composition per candidate -- and the parent array is
    built for the chosen candidate only.  A state whose rows are not all
    cyclic intervals falls back to blocked batched compositions
    (:func:`repro.engine.batch.score_parents_quadratic`).  Both paths are
    decision-equal to the historical per-candidate dense loop (ties break
    to the earliest candidate in pool order); ``arc_rounds`` and
    ``fallback_rounds`` count which one decided each round.
    ``m_stride`` defaults to ``max(1, n // 32)``: 1 up to 63 nodes,
    scaling up beyond.
    """

    def __init__(self, n: int, m_stride: Optional[int] = None) -> None:
        if n < 2:
            raise AdversaryError("CyclicFamilyAdversary needs n >= 2")
        self._n = n
        if m_stride is None:
            m_stride = max(1, n // 32)
        if m_stride < 1:
            raise AdversaryError(f"m_stride must be >= 1, got {m_stride}")
        self._m_stride = m_stride
        #: The candidate family as metadata (parent arrays on demand).
        self.pool = ChainFanPool.build(n, m_stride)
        self._cands: Optional[np.ndarray] = None
        #: Rounds decided by the arc scorer / by the matrix fallback
        #: since construction.
        self.arc_rounds = 0
        self.fallback_rounds = 0
        self.name = f"CyclicFamily[stride={m_stride}]"
        super().__init__()

    def _candidate_parent_matrix(self) -> np.ndarray:
        """All candidate moves as one stacked ``(C, n)`` parent matrix.

        In pool order and cached; only the matrix fallback needs it.
        """
        if self._cands is None:
            self._cands = self.pool.parent_matrix()
        return self._cands

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        from repro.engine.batch import score_parents_quadratic

        if state.n != self._n:
            raise AdversaryError(
                f"adversary built for n={self._n}, driven with n={state.n}"
            )
        arcs = row_arcs(state.reach_matrix_view())
        if arcs is not None:
            self.arc_rounds += 1
            parents = self.pool.parents(select(self.pool, *arcs))
        else:
            self.fallback_rounds += 1
            candidates = self._candidate_parent_matrix()
            scores = score_parents_quadratic(state, candidates)
            # min() keeps the first of tied minima, matching the historical
            # per-candidate loop's strict-improvement tie-breaking.
            parents = candidates[min(range(len(scores)), key=scores.__getitem__)]
        return RootedTree([int(p) for p in parents])


class ZeinerStyleAdversary(Adversary):
    """Two-phase heuristic baseline: static path, then sorted re-rooting.

    Phase 1 (rounds ``1 .. ceil(n/2) - 1``) holds the identity path,
    building the staggered interval structure ``R_i = [i, i + t]``.
    Phase 2 re-roots adaptively: the path is ordered by reach size
    ascending, pushing nodes close to finishing to the leaf end where
    their reach sets align with path suffixes (the stallable sets of
    Lemma S).

    Measured: this only achieves ``n - 1`` -- staying inside *linear*
    path orders is not enough, which is why
    :class:`CyclicFamilyAdversary` works over *cyclic* rotations with
    fan-outs instead.  Kept as an instructive baseline (benchmark E8).
    """

    def __init__(self, n: int, phase1_rounds: Optional[int] = None) -> None:
        self._n = n
        if phase1_rounds is None:
            phase1_rounds = max(math.ceil(n / 2) - 1, 0)
        self._phase1 = phase1_rounds
        self._static = StaticPathAdversary(n)
        self.name = f"ZeinerStyle[p1={self._phase1}]"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        if round_index <= self._phase1:
            return self._static.next_tree(state, round_index)
        rows = state.reach_sizes()
        order = sorted(range(self._n), key=lambda v: (rows[v], v))
        return path_from_order(order)


class RunnerAdversary(Adversary):
    """Keep the least-heard-of node ("runner") at the root.

    Lemma R forces the root to gain every round; this heuristic hands the
    root slot to the node the fewest processes have reached, so the forced
    gain lands on the least advanced node.  The rest of the path is
    ordered by reach ascending.  Baseline: achieves ``n - 1``.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self.name = "Runner"
        super().__init__()

    def next_tree(self, state: BroadcastState, round_index: int) -> RootedTree:
        rows = state.reach_sizes()
        cols = state.heard_of_sizes()
        runner = min(range(self._n), key=lambda v: (cols[v], rows[v], v))
        rest = [v for v in range(self._n) if v != runner]
        rest.sort(key=lambda v: (rows[v], v))
        return path_from_order([runner] + rest)


def portfolio(n: int, include_search: bool = True, seed: int = 0) -> List[Adversary]:
    """The standard adversary portfolio used by benchmarks and sweeps.

    Always contains the oblivious and constructive strategies (including
    the lower-bound-matching :class:`CyclicFamilyAdversary`);
    ``include_search`` adds the pool-based greedy/beam searchers.
    """
    from repro.adversaries.beam import BeamSearchAdversary
    from repro.adversaries.greedy import GreedyDelayAdversary
    from repro.adversaries.oblivious import RandomTreeAdversary

    advs: List[Adversary] = [
        StaticPathAdversary(n),
        AlternatingPathAdversary(n, period=1),
        RotatingPathAdversary(n, shift=1),
        SortedPathAdversary(n, ascending=True),
        SortedPathAdversary(n, ascending=False),
        TwoPhaseFlipAdversary(n, alpha=0.5),
        ZeinerStyleAdversary(n),
        RunnerAdversary(n),
        CyclicFamilyAdversary(n),
        RandomTreeAdversary(n, seed=seed),
    ]
    if include_search:
        advs.append(GreedyDelayAdversary(n, seed=seed))
        advs.append(BeamSearchAdversary(n, depth=2, width=6, seed=seed))
    return advs


def best_known_adversary(
    n: int,
    include_search: bool = True,
    seed: int = 0,
) -> Tuple[Adversary, BroadcastResult, Dict[str, int]]:
    """Run the portfolio and return the strongest adversary for ``n``.

    Returns
    -------
    (adversary, result, leaderboard)
        The adversary achieving the largest ``t*``, its full run result,
        and a name -> t* leaderboard over the whole portfolio.
    """
    best_adv: Optional[Adversary] = None
    best_result: Optional[BroadcastResult] = None
    leaderboard: Dict[str, int] = {}
    for adv in portfolio(n, include_search=include_search, seed=seed):
        result = run_adversary(adv, n)
        assert result.t_star is not None  # run_adversary enforces the n² cap
        leaderboard[adv.name] = result.t_star
        if best_result is None or result.t_star > best_result.t_star:
            best_adv, best_result = adv, result
    assert best_adv is not None and best_result is not None
    return best_adv, best_result, leaderboard
