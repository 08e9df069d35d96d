"""Cross-backend equivalence: dense and bitset must be indistinguishable.

The central correctness net for the bitset backend: randomized tree
sequences (seeded, n up to 128) must produce identical broadcast times,
broadcaster sets, reach/heard-of counts, matrices, and keys under both
backends, and the search adversaries must make identical decisions.
``N_VALUES x CASES_PER_N`` gives the randomized cross-backend case count
(asserted >= 200 below).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversaries.beam import BeamSearchAdversary
from repro.adversaries.greedy import GreedyDelayAdversary, score_tree
from repro.adversaries.zeiner import CyclicFamilyAdversary
from repro.core.backend import get_backend
from repro.core.bitset import WORD_BITS
from repro.core.broadcast import run_adversary, run_sequence
from repro.core.product import product_of_trees
from repro.core.state import BroadcastState
from repro.engine.batch import score_candidates
from repro.trees.generators import random_tree
from repro.trees.rooted_tree import RootedTree

#: Node counts straddling every packing boundary (1 bit .. 2 words).
N_VALUES = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33,
    63, 64, 65, 96, 127, 128,
]
CASES_PER_N = 10

DENSE = get_backend("dense")
BITSET = get_backend("bitset")


def test_case_count_meets_bar():
    """The randomized cross-backend sweep below covers >= 200 cases."""
    assert len(N_VALUES) * CASES_PER_N >= 200


def _random_sequence(n: int, rng: np.random.Generator):
    rounds = int(rng.integers(1, 3 * n + 2))
    return [random_tree(n, rng) for _ in range(rounds)]


@pytest.mark.parametrize("n", N_VALUES)
def test_random_sequences_agree(n):
    """t*, broadcasters, counts, and matrices agree on random sequences."""
    for seed in range(CASES_PER_N):
        rng = np.random.default_rng(1000 * n + seed)
        trees = _random_sequence(n, rng)
        dense = run_sequence(trees, n=n, stop_at_broadcast=False, backend="dense")
        packed = run_sequence(trees, n=n, stop_at_broadcast=False, backend="bitset")
        assert dense.t_star == packed.t_star
        assert dense.broadcasters == packed.broadcasters
        ds, ps = dense.final_state, packed.final_state
        assert (ds.reach_sizes() == ps.reach_sizes()).all()
        assert (ds.heard_of_sizes() == ps.heard_of_sizes()).all()
        assert ds.edge_count() == ps.edge_count()
        assert (ds.reach_matrix == ps.reach_matrix).all()
        assert ds.key() == ps.key()
        assert ds == ps


@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, 40, 65])
def test_stepwise_queries_agree(n):
    """Every per-round query agrees while a run is in flight."""
    rng = np.random.default_rng(n)
    d = BroadcastState.initial(n, backend="dense")
    b = BroadcastState.initial(n, backend="bitset")
    for _ in range(n + 2):
        tree = random_tree(n, rng)
        d.apply_tree_inplace(tree)
        b.apply_tree_inplace(tree)
        assert d.is_broadcast_complete() == b.is_broadcast_complete()
        assert d.broadcasters() == b.broadcasters()
        assert d.edge_count() == b.edge_count()
        x = int(rng.integers(n))
        assert d.reach_set(x) == b.reach_set(x)
        assert d.heard_of_set(x) == b.heard_of_set(x)
        assert d.missing(x) == b.missing(x)
        probe = random_tree(n, rng)
        assert (d.gains_under(probe) == b.gains_under(probe)).all()
        assert d.would_stall(probe) == b.would_stall(probe)
        assert (d.reach_matrix_view() == b.reach_matrix_view()).all()


@pytest.mark.parametrize("n", [2, 4, 8, 19, 33, 80])
def test_dense_roundtrip(n):
    """from_dense/to_dense is exact for arbitrary reflexive matrices."""
    rng = np.random.default_rng(n)
    a = rng.random((n, n)) < 0.35
    np.fill_diagonal(a, True)
    packed = BITSET.from_dense(a)
    assert (BITSET.to_dense(packed) == a).all()
    assert BITSET.matrix_key(packed) == DENSE.matrix_key(a.copy())
    assert (BITSET.full_rows(packed) == a.all(axis=1)).all()


@pytest.mark.parametrize("n", [3, 6, 12, 20])
def test_product_of_trees_agrees(n):
    rng = np.random.default_rng(n)
    trees = [random_tree(n, rng) for _ in range(n - 1)]
    assert (
        product_of_trees(trees, backend="dense")
        == product_of_trees(trees, backend="bitset")
    ).all()


@pytest.mark.parametrize("n", [4, 7, 12, 24])
@pytest.mark.parametrize(
    "factory",
    [
        lambda n: GreedyDelayAdversary(n, seed=3),
        lambda n: BeamSearchAdversary(n, depth=2, width=4, seed=3),
        lambda n: CyclicFamilyAdversary(n),
    ],
    ids=["greedy", "beam", "cyclic-family"],
)
def test_adversaries_play_identically(n, factory):
    """Search adversaries pick the same trees and t* on both backends."""
    dense = run_adversary(factory(n), n, keep_trees=True, backend="dense")
    packed = run_adversary(factory(n), n, keep_trees=True, backend="bitset")
    assert dense.t_star == packed.t_star
    assert dense.broadcasters == packed.broadcasters
    assert dense.trees == packed.trees


@pytest.mark.parametrize("n", [2, 5, 11, 30, 70])
def test_batched_scoring_matches_reference(n):
    """score_candidates == score_tree, per candidate, on both backends."""
    rng = np.random.default_rng(n)
    for backend in ("dense", "bitset"):
        state = BroadcastState.initial(n, backend=backend)
        for _ in range(n // 2 + 1):
            state.apply_tree_inplace(random_tree(n, rng))
        candidates = [random_tree(n, rng) for _ in range(8)]
        assert score_candidates(state, candidates) == [
            score_tree(state, t) for t in candidates
        ]


def _padding_is_zero(packed: np.ndarray, n: int) -> bool:
    """True iff bits ``n .. 64*words-1`` of every packed row are zero."""
    spare = packed.shape[-1] * WORD_BITS - n
    if spare == 0:
        return True
    used = np.uint64((1 << (WORD_BITS - spare)) - 1)
    return not (packed[..., -1] & ~used).any()


@pytest.mark.parametrize("backend_name", ["dense", "bitset"])
@pytest.mark.parametrize("batch", [1, 2, 7])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_batch_compose_matches_per_run_compose(backend_name, batch, n):
    """batch_compose_inplace == compose_with_tree_inplace run by run.

    Three rounds, so later rounds compose into non-identity states; every
    third (run, round) pair plays the no-op parent row.  The n values
    straddle the 64-bit word boundaries of the bitset layout.
    """
    backend = get_backend(backend_name)
    rng = np.random.default_rng(1000 * n + batch)
    noop = np.arange(n, dtype=np.int64)
    bmat = backend.identity_batch(batch, n)
    runs = [backend.identity(n) for _ in range(batch)]
    for r in range(3):
        parents = np.stack(
            [
                noop if (b + r) % 3 == 0 else random_tree(n, rng).parent_array_numpy()
                for b in range(batch)
            ]
        )
        assert backend.batch_compose_inplace(bmat, parents) is bmat
        for b in range(batch):
            backend.compose_with_tree_inplace(runs[b], parents[b])
            assert backend.equal(backend.slice_run(bmat, b), runs[b]), (r, b)
        if backend_name == "bitset":
            assert _padding_is_zero(bmat, n)


@pytest.mark.parametrize("backend_name", ["dense", "bitset"])
def test_batch_compose_updates_a_non_contiguous_batch_in_place(backend_name):
    """A strided batch (every other run of a larger tensor) is updated in place.

    A kernel that reshaped the batch and OR-ed into the reshape would
    write into a copy and silently drop the update.
    """
    backend = get_backend(backend_name)
    n = 65
    rng = np.random.default_rng(5)
    full = backend.identity_batch(6, n)
    warm = np.stack([random_tree(n, rng).parent_array_numpy() for _ in range(6)])
    backend.batch_compose_inplace(full, warm)
    batch = full[::2]
    assert not batch.flags.c_contiguous
    parents = np.stack([random_tree(n, rng).parent_array_numpy() for _ in range(3)])
    want = [
        backend.compose_with_tree(backend.slice_run(batch, b), parents[b])
        for b in range(3)
    ]
    skipped = [backend.copy(backend.slice_run(full, b)) for b in (1, 3, 5)]
    backend.batch_compose_inplace(batch, parents)
    for b in range(3):
        assert backend.equal(backend.slice_run(full, 2 * b), want[b]), b
    for b, before in zip((1, 3, 5), skipped):
        assert backend.equal(backend.slice_run(full, b), before), b


@given(data=st.data(), n=st.integers(min_value=1, max_value=70))
@settings(max_examples=60, deadline=None)
def test_compose_property(data, n):
    """Property: one composition step agrees for arbitrary matrix + tree."""
    bits = data.draw(
        st.lists(
            st.lists(st.booleans(), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    a = np.array(bits, dtype=np.bool_)
    np.fill_diagonal(a, True)
    seed = data.draw(st.integers(min_value=0, max_value=2**31))
    tree = random_tree(n, np.random.default_rng(seed))
    parent = tree.parent_array_numpy()
    want = a | a[:, parent]
    got = BITSET.to_dense(BITSET.compose_with_tree(BITSET.from_dense(a), parent))
    assert (got == want).all()


def test_backend_conversion_between_states():
    state = BroadcastState.initial(9, backend="dense")
    rng = np.random.default_rng(0)
    for _ in range(4):
        state.apply_tree_inplace(random_tree(9, rng))
    other = state.with_backend("bitset")
    assert other.backend is BITSET
    assert other == state
    assert (other.reach_matrix == state.reach_matrix).all()
