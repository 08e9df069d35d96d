"""Adversary strategies for the dynamic-rooted-tree broadcast game.

The adversary of Definition 2.3 picks one rooted tree per round to maximize
the broadcast time ``t*``.  This package implements the full spectrum:

* :mod:`~repro.adversaries.base` -- the :class:`Adversary` ABC and sequence
  adapters;
* :mod:`~repro.adversaries.oblivious` -- adversaries that ignore the state
  (static tree, round-robin, random);
* :mod:`~repro.adversaries.paths` -- path-based strategies, including the
  two-phase flip families;
* :mod:`~repro.adversaries.zeiner` -- explicit lower-bound constructions in
  the spirit of Zeiner-Schwarz-Schmid [14];
* :mod:`~repro.adversaries.arc_scorer` -- scores the cyclic chain-fan pool
  from reach-set arc endpoints, ``O(n²)`` per round;
* :mod:`~repro.adversaries.pool` -- candidate-tree pool builders for search;
* :mod:`~repro.adversaries.greedy` -- one-step greedy minimax over a pool;
* :mod:`~repro.adversaries.beam` -- multi-step beam search;
* :mod:`~repro.adversaries.exact` -- exhaustive game solver (exact
  ``t*(T_n)`` for small ``n``);
* :mod:`~repro.adversaries.restricted` -- the k-leaf / k-inner-node
  restricted settings of Figure 1;
* :mod:`~repro.adversaries.nonsplit` -- the nonsplit-graph adversary pool
  of the related work [9].
"""

from repro.adversaries.base import (
    Adversary,
    FunctionAdversary,
    SequenceAdversary,
)
from repro.adversaries.oblivious import (
    RandomTreeAdversary,
    RoundRobinAdversary,
    StaticTreeAdversary,
)
from repro.adversaries.paths import (
    AlternatingPathAdversary,
    SortedPathAdversary,
    StaticPathAdversary,
    TwoPhaseFlipAdversary,
)
from repro.adversaries.zeiner import (
    CyclicFamilyAdversary,
    RunnerAdversary,
    ZeinerStyleAdversary,
    best_known_adversary,
    quadratic_potential_score,
)
from repro.adversaries.pool import CandidatePool, PoolConfig
from repro.adversaries.greedy import (
    ExhaustiveGreedyAdversary,
    GreedyDelayAdversary,
    score_tree,
)
from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.exact import ExactGameSolver, ExactResult, exact_broadcast_time
from repro.adversaries.restricted import (
    KInnerAdversary,
    KLeafAdversary,
)
from repro.adversaries.nonsplit import NonsplitAdversary, random_nonsplit_graph
from repro.adversaries.annealing import AnnealingResult, anneal_sequence
from repro.adversaries.interval_game import (
    ArcState,
    arc_game_optimal_sequence,
    arc_game_value,
    validate_abstraction,
)

__all__ = [
    "Adversary",
    "SequenceAdversary",
    "FunctionAdversary",
    "StaticTreeAdversary",
    "RoundRobinAdversary",
    "RandomTreeAdversary",
    "StaticPathAdversary",
    "AlternatingPathAdversary",
    "SortedPathAdversary",
    "TwoPhaseFlipAdversary",
    "ZeinerStyleAdversary",
    "RunnerAdversary",
    "CyclicFamilyAdversary",
    "best_known_adversary",
    "quadratic_potential_score",
    "CandidatePool",
    "PoolConfig",
    "GreedyDelayAdversary",
    "ExhaustiveGreedyAdversary",
    "score_tree",
    "BeamSearchAdversary",
    "ExactGameSolver",
    "ExactResult",
    "exact_broadcast_time",
    "KLeafAdversary",
    "KInnerAdversary",
    "NonsplitAdversary",
    "random_nonsplit_graph",
    "AnnealingResult",
    "anneal_sequence",
    "ArcState",
    "arc_game_value",
    "arc_game_optimal_sequence",
    "validate_abstraction",
]
