"""Sharded runs must be bit-identical to sequential, any worker count.

The contract of :class:`repro.engine.executor.ShardedExecutor` is strict:
partitioning a spec list over a ``spawn`` process pool is a pure
scheduling decision -- every :class:`SweepPoint` and every
:class:`BroadcastResult` (t*, broadcasters, final matrix) must equal the
sequential path element-wise for worker counts {1, 2, 7}, including
uneven shards (grid size not divisible by the worker count), B=1 shards,
and the n=1 degenerate game.  Sweeps reach it through
``sweep_adversaries(..., workers=w)`` and
``get_executor("sharded", workers=w).sweep(...)``; multi-seed grids are
``run_many`` over seeded specs.  Worker processes are real (spawned), so
these tests also pin spawn-safety of the payloads and backend-name
propagation across the process boundary.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.adversaries.oblivious import RandomTreeAdversary
from repro.adversaries.paths import StaticPathAdversary
from repro.analysis.sweep import sweep_adversaries, sweep_n
from repro.core.backend import use_backend
from repro.engine.executor import RunSpec, ShardedExecutor, get_executor
from repro.engine.runner import run_multi_seed
from repro.engine.shard import default_sweep_factories, split_shards
from repro.errors import SimulationError

#: Worker counts exercised everywhere: inline, even split, more workers
#: than some shards can fill (uneven shards).
WORKER_COUNTS = [1, 2, 7]

#: A cheap deterministic + seeded-random factory mix (all picklable).
FACTORIES = {
    "StaticPath": StaticPathAdversary,
    "RandomTree": partial(RandomTreeAdversary, seed=0),
}


def _sharded_sweep(workers, factories, ns, **kwargs):
    return get_executor("sharded", workers=workers).sweep(factories, ns, **kwargs)


def _sharded_multi_seed(workers, n, seeds):
    """:func:`run_multi_seed` over ``RandomTreeAdversary`` as seeded specs
    through a sharded ``run_many``."""
    specs = [
        RunSpec(adversary=partial(RandomTreeAdversary, seed=seed), n=n, seed=seed)
        for seed in seeds
    ]
    reports = ShardedExecutor(workers=workers).run_many(specs)
    return [report.to_broadcast_result() for report in reports]


def _states_equal(a, b) -> bool:
    return (
        a.t_star == b.t_star
        and a.broadcasters == b.broadcasters
        and a.final_state == b.final_state
    )


class TestSplitShards:
    def test_balanced_contiguous(self):
        assert split_shards(list(range(7)), 3) == [[0, 1, 2], [3, 4], [5, 6]]

    def test_more_shards_than_items(self):
        assert split_shards([1, 2], 7) == [[1], [2]]

    def test_empty(self):
        assert split_shards([], 4) == []

    def test_concatenation_preserves_order(self):
        items = list(range(23))
        for shards in (1, 2, 5, 7, 23, 40):
            parts = split_shards(items, shards)
            assert [x for part in parts for x in part] == items


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sequential(self):
        return sweep_adversaries(FACTORIES, [1, 4, 5, 6, 8])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_sweep(self, workers, sequential):
        assert _sharded_sweep(workers, FACTORIES, [1, 4, 5, 6, 8]) == sequential

    def test_uneven_grid_seven_workers(self):
        # 5 grid points over 7 workers: five B=1 shards, two empty (dropped).
        facs = {"StaticPath": StaticPathAdversary}
        ns = [2, 3, 4, 5, 6]
        seq = sweep_adversaries(facs, ns)
        assert _sharded_sweep(7, facs, ns) == seq
        assert sweep_adversaries(facs, ns, workers=7) == seq

    def test_single_point_grid(self):
        # B=1 total: degenerates to the inline path but must still agree.
        facs = {"StaticPath": StaticPathAdversary}
        seq = sweep_adversaries(facs, [6])
        for workers in WORKER_COUNTS:
            assert _sharded_sweep(workers, facs, [6]) == seq

    def test_n_equals_one(self):
        # The degenerate game is complete at round 0 before any tree.
        facs = {"StaticPath": StaticPathAdversary}
        seq = sweep_adversaries(facs, [1, 2])
        assert seq.points[0].t_star == 0
        assert _sharded_sweep(2, facs, [1, 2]) == seq

    def test_empty_grid(self):
        assert _sharded_sweep(2, FACTORIES, []) == sweep_adversaries(FACTORIES, [])
        assert _sharded_sweep(2, {}, [4, 5]).points == []

    def test_max_rounds_truncation_matches(self):
        # Truncated points are dropped identically on both paths.
        seq = sweep_adversaries(FACTORIES, [4, 8], max_rounds=5)
        assert _sharded_sweep(2, FACTORIES, [4, 8], max_rounds=5) == seq

    def test_sweep_adversaries_workers_kwarg(self):
        seq = sweep_adversaries(FACTORIES, [4, 6])
        for workers in WORKER_COUNTS:
            got = sweep_adversaries(FACTORIES, [4, 6], workers=workers)
            assert got == seq
            assert got.to_json() == seq.to_json()

    def test_sweep_n_sharded(self):
        seq = sweep_n(StaticPathAdversary, [2, 4, 6], name="sp", workers=2)
        assert [(p.adversary, p.n, p.t_star) for p in seq.points] == [
            ("sp", 2, 1),
            ("sp", 4, 3),
            ("sp", 6, 5),
        ]


class TestMultiSeedEquivalence:
    SEEDS = [3, 1, 4, 1, 5, 9, 2, 6]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_bit_identical_results(self, workers):
        seq = run_multi_seed(partial(RandomTreeAdversary, 9), 9, self.SEEDS)
        got = _sharded_multi_seed(workers, 9, self.SEEDS)
        assert len(got) == len(seq)
        assert all(_states_equal(a, b) for a, b in zip(seq, got))

    def test_single_seed(self):
        seq = run_multi_seed(partial(RandomTreeAdversary, 7), 7, [42])
        got = _sharded_multi_seed(2, 7, [42])
        assert _states_equal(seq[0], got[0])

    def test_empty_seeds(self):
        assert _sharded_multi_seed(2, 5, []) == []

    def test_backend_propagates_to_workers(self):
        with use_backend("bitset"):
            got = _sharded_multi_seed(2, 8, self.SEEDS[:4])
        seq = run_multi_seed(
            partial(RandomTreeAdversary, 8), 8, self.SEEDS[:4], backend="bitset"
        )
        assert all(g.final_state.backend.name == "bitset" for g in got)
        assert all(_states_equal(a, b) for a, b in zip(seq, got))


class TestValidationAndSafety:
    def test_workers_must_be_positive(self):
        with pytest.raises(SimulationError, match="workers"):
            ShardedExecutor(workers=0)

    def test_unknown_mp_context(self):
        with pytest.raises(SimulationError, match="mp_context"):
            ShardedExecutor(workers=2, mp_context="threads")

    def test_unpicklable_factory_fails_loudly(self):
        facs = {"lambda": lambda n: StaticPathAdversary(n)}
        with pytest.raises(SimulationError, match="picklable"):
            ShardedExecutor(workers=2).run_many(
                [RunSpec(adversary=facs["lambda"], n=n) for n in (4, 5)]
            )
        # A sharded library sweep raises the same error.
        with pytest.raises(SimulationError, match="picklable"):
            sweep_adversaries(facs, [4, 5], workers=2)

    def test_unpicklable_factory_fine_inline(self):
        # workers=1 never crosses a process boundary; closures are allowed.
        got = _sharded_sweep(1, {"lambda": lambda n: StaticPathAdversary(n)}, [4, 5])
        assert [p.t_star for p in got.points] == [3, 4]

    def test_default_factories_are_picklable(self):
        import pickle

        for name, factory in default_sweep_factories().items():
            pickle.dumps(factory), name

    def test_default_factories_mirror_portfolio(self):
        from repro.adversaries.zeiner import portfolio

        facs = default_sweep_factories(include_search=True, seed=0)
        built = [factory(6) for factory in facs.values()]
        names = [adv.name for adv in built]
        assert names == [adv.name for adv in portfolio(6, include_search=True)]
