"""BatchRunner: batched runs must agree element-wise with sequential runs.

Covers explicit sequences (ragged, B=1, n=1), adaptive adversaries
(greedy/beam scoring included), multi-seed sweeps, truncation semantics,
and the stacked-tensor bookkeeping itself -- on both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.greedy import GreedyDelayAdversary
from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.paths import StaticPathAdversary
from repro.core.broadcast import broadcast_time_sequence, run_adversary, run_sequence
from repro.core.state import BroadcastState
from repro.engine.batch import BatchRunner, run_sequences_batch
from repro.engine.runner import run_adversaries_batch, run_multi_seed
from repro.errors import AdversaryError, DimensionMismatchError, SimulationError
from repro.trees.generators import path, random_tree, star
from repro.trees.rooted_tree import RootedTree

BACKENDS = ["dense", "bitset"]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_sequences_batch_matches_sequential(backend, n):
    rng = np.random.default_rng(n)
    seqs = [
        [random_tree(n, rng) for _ in range(int(rng.integers(0, 3 * n + 1)))]
        for _ in range(9)
    ]
    got = run_sequences_batch(seqs, n=n, backend=backend)
    want = [broadcast_time_sequence(s, n=n) for s in seqs]
    assert got == want


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_of_one(backend):
    """B=1 degenerates to a plain sequential run."""
    n = 6
    seq = [path(n)] * (n - 1)
    assert run_sequences_batch([seq], n=n, backend=backend) == [n - 1]
    runner = BatchRunner(n, 1, backend=backend)
    for tree in seq:
        runner.step([tree])
    assert runner.t_star(0) == n - 1
    assert runner.broadcasters(0) == (0,)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_node_universe(backend):
    """n=1: the identity already broadcasts; semantics match run_sequence."""
    tree = RootedTree([0])
    assert run_sequences_batch([[tree]], n=1, backend=backend) == [
        broadcast_time_sequence([tree], n=1)
    ]
    assert run_sequences_batch([[]], n=1, backend=backend) == [
        broadcast_time_sequence([], n=1)
    ]
    runner = BatchRunner(1, 3, backend=backend)
    assert runner.all_complete
    assert runner.t_stars() == [0, 0, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_ragged_padding_is_noop(backend):
    """Short sequences are padded with no-op rounds that change nothing."""
    n = 5
    long = [path(n)] * (n - 1)
    short = [path(n)]
    got = run_sequences_batch([long, short, []], n=n, backend=backend)
    assert got == [n - 1, None, None]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "factory",
    [
        lambda n, s: RandomTreeAdversary(n, seed=s),
        lambda n, s: GreedyDelayAdversary(n, seed=s),
        lambda n, s: BeamSearchAdversary(n, depth=2, width=3, seed=s),
    ],
    ids=["random", "greedy", "beam"],
)
def test_adversaries_batch_matches_sequential(backend, factory):
    """Adaptive batched runs agree run-by-run with sequential drivers."""
    n = 7
    advs_batch = [factory(n, s) for s in range(4)]
    advs_seq = [factory(n, s) for s in range(4)]
    batched = run_adversaries_batch(advs_batch, n, backend=backend)
    for b, adv in enumerate(advs_seq):
        ref = run_adversary(adv, n, backend=backend)
        assert batched[b].t_star == ref.t_star
        assert batched[b].broadcasters == ref.broadcasters
        assert batched[b].final_state == ref.final_state


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_multi_seed(backend):
    n = 6
    results = run_multi_seed(
        lambda s: RandomTreeAdversary(n, seed=s), n, seeds=[0, 1, 2], backend=backend
    )
    for s, res in zip([0, 1, 2], results):
        ref = run_adversary(RandomTreeAdversary(n, seed=s), n, backend=backend)
        assert res.t_star == ref.t_star


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_rounds_truncation(backend):
    """An explicit cap yields t_star=None for unfinished runs, no raise."""
    n = 8
    results = run_adversaries_batch(
        [StaticPathAdversary(n), StaticPathAdversary(n)],
        n,
        max_rounds=2,
        backend=backend,
    )
    assert [r.t_star for r in results] == [None, None]
    assert all(r.broadcasters == () for r in results)
    assert all(r.final_state.round_index == 2 for r in results)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_completion_keeps_matrices_frozen(backend):
    """A finished run keeps its t* state even when handed real trees."""
    n = 5
    runner = BatchRunner(n, 2, backend=backend)
    long_seq = [path(n)] * (n - 1)
    runner.step([star(n), long_seq[0]])  # the star completes in one round
    assert runner.t_star(0) == 1 and runner.t_star(1) is None
    frozen = runner.state(0)
    assert frozen.round_index == 1
    rng = np.random.default_rng(0)
    for tree in long_seq[1:]:
        runner.step([random_tree(n, rng), tree])
    assert runner.t_star(0) == 1
    assert runner.state(0) == frozen
    assert runner.state_view(0) == frozen
    assert runner.t_star(1) == n - 1
    assert runner.all_complete


def _finish_at(n: int, t: int) -> list:
    """A tree sequence whose t* is ``t`` (paths, then a star at round t)."""
    return [path(n)] * (t - 1) + [star(n)]


def _assert_runner_matches(runner, refs):
    """Every per-run accessor equals the sequential reference state."""
    want_t = [ref.t_star for ref in refs]
    assert runner.t_stars() == want_t
    assert list(runner.completed()) == [t is not None for t in want_t]
    assert runner.live_runs() == [b for b, t in enumerate(want_t) if t is None]
    assert runner.all_complete == all(t is not None for t in want_t)
    sizes = runner.reach_sizes()
    for b, ref in enumerate(refs):
        state = ref.final_state
        assert runner.state(b) == state, b
        assert runner.state_view(b) == state, b
        assert runner.broadcasters(b) == state.broadcasters(), b
        assert (sizes[b] == state.reach_sizes()).all(), b


@pytest.mark.parametrize("backend", BACKENDS)
def test_runs_retire_in_scrambled_order(backend):
    """Runs finish out of index order, several per round, one never.

    After every round each accessor must equal the sequential engine on
    the run's own prefix; finished runs are handed real trees throughout.
    """
    n, rounds = 8, 6
    finish = [4, 1, None, 2, 4, 1, 3]  # run 2 stays live to the last round
    seqs = [
        [path(n)] * rounds if t is None else _finish_at(n, t) for t in finish
    ]
    rng = np.random.default_rng(3)
    runner = BatchRunner(n, len(seqs), backend=backend)
    for r in range(rounds):
        runner.step(
            [seq[r] if r < len(seq) else random_tree(n, rng) for seq in seqs]
        )
        refs = [run_sequence(seq[: r + 1], n=n, backend=backend) for seq in seqs]
        _assert_runner_matches(runner, refs)
    assert runner.t_stars() == finish
    assert runner.live_runs() == [2]
    assert runner.round_index == rounds
    assert runner.state(2).round_index == rounds


@pytest.mark.parametrize("backend", BACKENDS)
def test_all_runs_retire_in_round_one(backend):
    """A batch that completes at once keeps its t* states and counts rounds."""
    n = 6
    runner = BatchRunner(n, 3, backend=backend)
    runner.step([star(n)] * 3)
    assert runner.all_complete and runner.live_runs() == []
    ref = run_sequence([star(n)], n=n, backend=backend)
    runner.step([path(n), path(n), None])  # nothing left to compose
    assert runner.round_index == 2
    assert runner.t_stars() == [1, 1, 1]
    _assert_runner_matches(runner, [ref] * 3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sequences_longer_than_t_star(backend):
    """Trees after a run's t* do not move its recorded t*."""
    n = 7
    rng = np.random.default_rng(11)
    tail = [random_tree(n, rng) for _ in range(2 * n)]
    seqs = [_finish_at(n, t) + tail for t in (3, 1, 5, 2)]
    seqs.append([path(n)] * (n + 3))
    got = run_sequences_batch(seqs, n=n, backend=backend)
    assert got == [3, 1, 5, 2, n - 1]
    assert got == [broadcast_time_sequence(s, n=n) for s in seqs]


@pytest.mark.parametrize("backend", BACKENDS)
def test_state_copy_and_view(backend):
    n = 6
    runner = BatchRunner(n, 2, backend=backend)
    runner.step([path(n), path(n)])
    copy = runner.state(0)
    view = runner.state_view(0)
    assert copy == view.copy()
    runner.step([path(n), path(n)])
    # The copy is independent of subsequent steps; the view tracks them.
    assert copy.edge_count() < runner.state(0).edge_count()
    assert runner.state_view(0).edge_count() == runner.state(0).edge_count()


def test_empty_batch_returns_empty():
    """No adversaries / no seeds degenerates to [] like the sequential loop."""
    assert run_adversaries_batch([], 5) == []
    assert run_multi_seed(lambda s: RandomTreeAdversary(5, seed=s), 5, seeds=[]) == []


def test_wrong_sized_tree_raises_adversary_error():
    """The batched driver mirrors run_adversary's error type."""

    class WrongSize:
        name = "wrong-size"

        def reset(self):
            pass

        def next_tree(self, state, round_index):
            return path(state.n + 1)

    with pytest.raises(AdversaryError, match="tree over 6 nodes in a game over 5"):
        run_adversaries_batch([WrongSize()], 5)


def test_invalid_arguments():
    with pytest.raises(SimulationError):
        BatchRunner(4, 0)
    runner = BatchRunner(4, 2)
    with pytest.raises(DimensionMismatchError):
        runner.step([path(4)])  # wrong batch size
    with pytest.raises(DimensionMismatchError):
        runner.step([path(4), path(5)])  # wrong tree size
    with pytest.raises(DimensionMismatchError):
        runner.step_parents(np.zeros((2, 5), dtype=np.int64))
    assert run_sequences_batch([], n=4) == []
    with pytest.raises(SimulationError):
        run_sequences_batch([[], []])  # n unknown
