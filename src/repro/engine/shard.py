"""Worker-pool helpers behind :class:`repro.engine.executor.ShardedExecutor`.

:func:`split_shards` partitions a spec list into contiguous balanced
shards, :func:`resolve_pool_config` validates the pool settings and
:func:`pool_map` runs a shard worker over the payloads (inline for one
worker).  :func:`default_sweep_factories` is the standard adversary
portfolio as picklable factories, so a sharded sweep can ship it across
the ``spawn`` boundary.  Why sharded results are bit-identical to the
sequential path for any worker count is set out on
:class:`~repro.engine.executor.ShardedExecutor`.
"""

from __future__ import annotations

import os
import pickle
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.types import AdversaryProtocol

#: Start methods accepted by :class:`~repro.engine.executor.ShardedExecutor`.
MP_CONTEXTS = ("spawn", "fork", "forkserver")


def usable_cpus() -> int:
    """CPUs this process may actually run on.

    Respects CPU affinity / cgroup pinning where the platform exposes it
    (``os.cpu_count()`` reports the host's cores even inside a container
    pinned to a few of them, which would oversubscribe the pool).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def split_shards(items: Sequence, shards: int) -> List[List]:
    """Partition ``items`` into ``shards`` contiguous, balanced chunks.

    The first ``len(items) % shards`` chunks get one extra item
    (``np.array_split`` semantics); empty chunks are dropped.  Contiguity
    keeps same-``n`` grid points together so workers can batch them.
    """
    items = list(items)
    shards = max(1, min(shards, len(items)))
    base, extra = divmod(len(items), shards)
    out, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(items[start : start + size])
        start += size
    return out


def resolve_pool_config(
    workers: Optional[int], mp_context: str
) -> Tuple[int, str]:
    """Validate a worker-pool configuration; returns ``(workers, mp_context)``.

    ``None`` workers defaults to :func:`usable_cpus` (affinity-aware).
    """
    if workers is None:
        workers = usable_cpus()
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if mp_context not in MP_CONTEXTS:
        raise SimulationError(
            f"mp_context must be one of {MP_CONTEXTS}, got {mp_context!r}"
        )
    return int(workers), mp_context


def pool_map(
    worker: Callable, payloads: List[Tuple], workers: int, mp_context: str
) -> List[List]:
    """Run ``worker`` over shard payloads, pooled when it pays off.

    Inline (no pool, no pickling requirement) when ``workers == 1`` or
    there is at most one payload; otherwise every payload is
    pickle-checked up front so a non-picklable factory fails with an
    actionable message instead of a deep pool traceback.
    """
    if workers == 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    for payload in payloads:
        try:
            pickle.dumps(payload)
        except Exception as exc:
            raise SimulationError(
                "shard payloads must be picklable for workers > 1 "
                "(factories must be module-level callables, classes, or "
                "functools.partial over them -- not lambdas/closures); "
                f"pickling failed with: {exc}"
            ) from exc
    import multiprocessing as mp

    ctx = mp.get_context(mp_context)
    with ctx.Pool(processes=min(workers, len(payloads))) as pool:
        return pool.map(worker, payloads)


def default_sweep_factories(
    include_search: bool = True, seed: int = 0
) -> Dict[str, Callable[[int], AdversaryProtocol]]:
    """The standard portfolio as spawn-safe (picklable) factories.

    Mirrors :func:`repro.adversaries.zeiner.portfolio` -- same adversaries
    in the same order -- but as a name -> ``n -> adversary`` map built
    from classes and :func:`functools.partial` so it can cross a
    ``spawn`` process boundary.
    """
    from repro.adversaries.beam import BeamSearchAdversary
    from repro.adversaries.greedy import GreedyDelayAdversary
    from repro.adversaries.oblivious import RandomTreeAdversary
    from repro.adversaries.paths import (
        AlternatingPathAdversary,
        RotatingPathAdversary,
        SortedPathAdversary,
        StaticPathAdversary,
        TwoPhaseFlipAdversary,
    )
    from repro.adversaries.zeiner import (
        CyclicFamilyAdversary,
        RunnerAdversary,
        ZeinerStyleAdversary,
    )

    factories: Dict[str, Callable[[int], AdversaryProtocol]] = {
        "StaticPath": StaticPathAdversary,
        "AlternatingPath": partial(AlternatingPathAdversary, period=1),
        "RotatingPath": partial(RotatingPathAdversary, shift=1),
        "SortedPath[asc]": partial(SortedPathAdversary, ascending=True),
        "SortedPath[desc]": partial(SortedPathAdversary, ascending=False),
        "TwoPhaseFlip": partial(TwoPhaseFlipAdversary, alpha=0.5),
        "ZeinerStyle": ZeinerStyleAdversary,
        "Runner": RunnerAdversary,
        "CyclicFamily": CyclicFamilyAdversary,
        "RandomTree": partial(RandomTreeAdversary, seed=seed),
    }
    if include_search:
        factories["GreedyDelay"] = partial(GreedyDelayAdversary, seed=seed)
        factories["BeamSearch"] = partial(
            BeamSearchAdversary, depth=2, width=6, seed=seed
        )
    return factories


__all__ = [
    "MP_CONTEXTS",
    "default_sweep_factories",
    "pool_map",
    "resolve_pool_config",
    "split_shards",
    "usable_cpus",
]
