"""Unified execution layer: one ``RunSpec`` in, one ``RunReport`` out.

Every way to drive a broadcast run (``core.broadcast.run_adversary``,
the instrumented ``engine.runner.run_engine``, the batched
``engine.runner``/``engine.batch`` path, sweeps, experiments and the
service) is a facade over this layer, so there is one loop, one round-cap
policy and one result shape:

* :class:`RunSpec` -- the full description of one run: adversary (instance
  or ``n -> adversary`` factory), ``n``, seed, ``max_rounds``, backend, and
  instrumentation level;
* :class:`Executor` -- the protocol: ``run(spec)``, ``run_many(specs)``,
  and ``sweep(factories, ns)``, all returning :class:`RunReport` /
  :class:`~repro.analysis.sweep.SweepResult`.  ``sweep`` never caches: a
  cached sweep is a task graph (:func:`repro.service.tasks.sweep_graph`)
  whose run cells reach the executor through ``run_many_settled``;
* :class:`SequentialExecutor` -- one run at a time, supports every
  instrumentation level (history snapshots, replayable traces + metrics);
* :class:`BatchExecutor` -- groups compatible specs and advances them in
  lockstep through one :class:`~repro.engine.batch.BatchRunner` per group
  (vectorized compose + completion checks over the runs not yet complete);
* :class:`ShardedExecutor` -- partitions the spec list across a
  ``multiprocessing`` pool, each worker running a :class:`BatchExecutor`
  shard; results merge back in spec order.  It is the only multiprocess
  engine: a sharded sweep is the base :meth:`Executor.sweep` over its
  ``run_many``.

All three are decision-equivalent by construction: every run observes only
the state its own moves produced, and the round-cap policy is resolved in
exactly one place (:func:`repro.core.bounds.resolve_round_cap`).

Compiled-schedule fast path
---------------------------
Oblivious adversaries (fixed sequences, static/rotating/alternating paths,
round-robins) implement
:meth:`~repro.adversaries.base.Adversary.compile_schedule`: the whole run
as one packed ``(rounds, n)`` parent array, memoized by canonical tree
form in :mod:`repro.trees.compile`.  Executors then drive the backend
compose kernels / :meth:`~repro.engine.batch.BatchRunner.step_parents`
directly, skipping per-round :class:`RootedTree` construction and
validation in the hot loop -- bit-identical to the uncompiled path (the
schedule rows *are* the trees' parent arrays) and ~10x faster for
schedules that would otherwise rebuild a tree every round.  Horizons grow
by doubling up to the round cap, so an ``n²`` cap never materializes an
``n²``-row array for a run that finishes in ``O(n)`` rounds.

This layer is where future async/GPU executors plug in: implement
``run_many`` against :class:`RunSpec`/:class:`RunReport` and every sweep,
benchmark, and CLI entry point picks it up through
:func:`get_executor`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.backend import BackendLike, get_backend
from repro.core.bounds import resolve_round_cap
from repro.core.broadcast import BroadcastResult, RoundSnapshot
from repro.core.kernels import static_completion_search
from repro.core.state import BroadcastState
from repro.engine.batch import BatchRunner
from repro.engine.events import RoundRecord
from repro.engine.metrics import MetricsCollector, RunMetrics
from repro.engine.trace import Trace, TraceRecorder
from repro.errors import AdversaryError, SimulationError
from repro.obs import profile as _profile
from repro.obs import trace as _obs_trace
from repro.trees.rooted_tree import RootedTree
from repro.types import AdversaryProtocol, validate_node_count

if TYPE_CHECKING:  # runtime import stays lazy (analysis.sweep imports us back)
    from repro.analysis.sweep import SweepResult

#: Accepted ``RunSpec.instrumentation`` levels, cheapest first.
INSTRUMENTATION_LEVELS = ("none", "history", "trace")

#: Names :func:`get_executor` resolves, in registry order.
EXECUTOR_NAMES = ("sequential", "batch", "sharded")

#: An adversary instance, or a picklable ``n -> adversary`` factory.
AdversarySpec = Union[AdversaryProtocol, Callable[[int], AdversaryProtocol]]


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one broadcast run.

    Attributes
    ----------
    adversary:
        An adversary instance (reset before the run) or a callable
        ``factory(n) -> adversary`` (required for sharded execution,
        where the spec crosses a process boundary).
    n:
        Number of processes.
    seed:
        Metadata recorded into traces/reports; the adversary's own RNG
        seeding is the factory's job.
    max_rounds:
        Explicit round cap: truncates quietly (``t_star=None``).  ``None``
        means the trivial ``n²`` bound, where exceeding it *raises*
        (see :func:`repro.core.bounds.resolve_round_cap`).
    backend:
        Matrix backend name or instance (``None`` = process default).
    instrumentation:
        ``"none"`` (fastest, compiled fast path eligible), ``"history"``
        (per-round :class:`RoundSnapshot` list), or ``"trace"``
        (replayable :class:`Trace` + :class:`RunMetrics`).
    keep_trees:
        Record the played trees on the report (forces the uncompiled
        loop).
    name:
        Display name for sweep tables; defaults to the adversary's own.
    """

    adversary: AdversarySpec
    n: int
    seed: Optional[int] = None
    max_rounds: Optional[int] = None
    backend: BackendLike = None
    instrumentation: str = "none"
    keep_trees: bool = False
    name: Optional[str] = None

    def __post_init__(self) -> None:
        validate_node_count(self.n)
        if self.instrumentation not in INSTRUMENTATION_LEVELS:
            raise SimulationError(
                f"instrumentation must be one of {INSTRUMENTATION_LEVELS}, "
                f"got {self.instrumentation!r}"
            )

    def make_adversary(self) -> AdversaryProtocol:
        """Instantiate (factories) or reset (instances) the adversary."""
        adv = self.adversary
        if isinstance(adv, type) or not hasattr(adv, "next_tree"):
            adv = adv(self.n)
        adv.reset()
        return adv

    def round_cap(self) -> Tuple[int, bool]:
        """The shared ``(cap, explicit)`` round-cap policy for this run."""
        return resolve_round_cap(self.n, self.max_rounds)

    def display_name(self, adversary: Optional[AdversaryProtocol] = None) -> str:
        """Label for tables/traces: explicit ``name``, else the adversary's."""
        if self.name is not None:
            return self.name
        target = adversary if adversary is not None else self.adversary
        return getattr(target, "name", type(target).__name__)


@dataclass
class RunReport:
    """The uniform outcome every executor returns.

    ``history``/``trees`` are populated per the spec's instrumentation
    level and ``keep_trees`` flag; ``trace``/``metrics`` only at the
    ``"trace"`` level.  ``compiled`` is True when the compiled
    parent-schedule fast path drove the entire run.

    ``timings`` is populated only while :mod:`repro.obs.profile` is
    enabled: ``{"decision_s", "kernel_s"}`` -- adversary think time vs
    backend compose time (batched executors attribute the group totals
    to every report in the group).  It is deliberately *not* part of the
    cached document (:func:`repro.service.cache.report_to_doc`): cache
    hits must stay byte-identical to fresh recomputation, and wall-clock
    is not content.
    """

    t_star: Optional[int]
    n: int
    rounds: int
    adversary_name: str
    broadcasters: Tuple[int, ...]
    final_state: BroadcastState
    seed: Optional[int] = None
    history: List[RoundSnapshot] = field(default_factory=list)
    trees: List[RootedTree] = field(default_factory=list)
    trace: Optional[Trace] = None
    metrics: Optional[RunMetrics] = None
    compiled: bool = False
    executor: str = "sequential"
    timings: Optional[Dict[str, float]] = None

    @property
    def completed(self) -> bool:
        """True iff broadcast finished within the allotted rounds."""
        return self.t_star is not None

    def normalized_time(self) -> Optional[float]:
        """``t*/n`` -- the constant the paper's bounds are about."""
        if self.t_star is None:
            return None
        return self.t_star / self.n

    def to_broadcast_result(self) -> BroadcastResult:
        """Down-convert to the legacy :class:`BroadcastResult` shape."""
        return BroadcastResult(
            t_star=self.t_star,
            n=self.n,
            broadcasters=self.broadcasters,
            final_state=self.final_state,
            history=self.history,
            trees=self.trees,
        )


def _validated_tree(tree: object, n: int) -> RootedTree:
    """The adversary-output checks every uncompiled loop shares."""
    if not isinstance(tree, RootedTree):
        raise AdversaryError(
            f"adversary returned {type(tree).__name__}, expected RootedTree"
        )
    if tree.n != n:
        raise AdversaryError(
            f"adversary returned a tree over {tree.n} nodes in a game over {n}"
        )
    return tree


def _validated_row(row: np.ndarray, n: int) -> np.ndarray:
    """Shape-check a parent row produced by a ``next_parents`` override."""
    row = np.asarray(row, dtype=np.int64)
    if row.shape != (n,):
        raise AdversaryError(
            f"adversary returned a parent row of shape {row.shape}, "
            f"expected ({n},)"
        )
    return row


def _parents_hook(adv: AdversaryProtocol):
    """``adv.next_parents`` when genuinely overridden, else ``None``.

    The base-class implementation just routes through ``next_tree``, so
    engines prefer the validated tree path unless the adversary supplies
    a real row-producing override (the streaming analog of
    ``compile_schedule`` for adaptive strategies).
    """
    from repro.adversaries.base import Adversary

    fn = getattr(type(adv), "next_parents", None)
    if fn is None or fn is Adversary.next_parents:
        return None
    return adv.next_parents


def _static_parent_row(adv: AdversaryProtocol, n: int) -> Optional[np.ndarray]:
    """The adversary's static-schedule parent row, shape-checked, or ``None``."""
    fn = getattr(adv, "compile_static_row", None)
    if fn is None:
        return None
    row = fn(n)
    if row is None:
        return None
    row = np.asarray(row, dtype=np.int64)
    if row.shape != (n,):
        return None
    return row


def _static_report(
    spec: RunSpec,
    name: str,
    row: np.ndarray,
    n: int,
    cap: int,
    explicit: bool,
    executor_name: str,
) -> RunReport:
    """One static-schedule run via the repeated-squaring t* search.

    Byte-identical to the round-by-round loop (the search composes the
    exact same parent row) with identical cap semantics: a non-explicit
    cap raises, an explicit one truncates with the state after exactly
    ``cap`` rounds.
    """
    backend = get_backend(spec.backend)
    t_star, mat, rounds = static_completion_search(backend, row, n, cap)
    if t_star is None and not explicit:
        raise _cap_error([name], cap)
    state = BroadcastState._wrap(mat, n, rounds, backend)
    return RunReport(
        t_star=t_star,
        n=n,
        rounds=rounds,
        adversary_name=name,
        broadcasters=state.broadcasters() if t_star is not None else (),
        final_state=state,
        seed=spec.seed,
        compiled=True,
        executor=executor_name,
    )


def _cap_error(names: Sequence[str], cap: int) -> AdversaryError:
    label = repr(list(names) if len(names) != 1 else names[0])
    return AdversaryError(
        f"adversary {label} did not allow broadcast within the trivial bound "
        f"n² = {cap}; rooted trees guarantee termination, so the adversary "
        "produced illegal round graphs"
    )


class _ScheduleCursor:
    """Serve compiled parent rows, growing the horizon by doubling.

    ``row(t)`` returns the round-``t`` row, recompiling at a doubled
    horizon when ``t`` runs past the current one (memoized schedules make
    that cheap), or ``None`` if the adversary stops compiling -- the
    executor then falls back to ``next_tree`` mid-run, which is sound
    because :meth:`~repro.adversaries.base.Adversary.compile_schedule`'s
    contract restricts it to round-index-pure strategies.
    """

    __slots__ = ("_adv", "_n", "_cap", "_horizon", "_rows")

    #: Smallest initial horizon; real runs of legal adversaries at small
    #: ``n`` finish within ``2n + 2`` rounds only rarely, but doubling
    #: keeps the total compile work within 2x of the final horizon anyway.
    MIN_HORIZON = 16

    def __init__(self, adv: AdversaryProtocol, n: int, cap: int, horizon: int, rows: np.ndarray) -> None:
        self._adv = adv
        self._n = n
        self._cap = cap
        self._horizon = horizon
        self._rows = rows

    @classmethod
    def try_compile(
        cls, adv: AdversaryProtocol, n: int, cap: int
    ) -> Optional["_ScheduleCursor"]:
        """A cursor over ``adv``'s compiled schedule, or ``None``."""
        compile_fn = getattr(adv, "compile_schedule", None)
        if compile_fn is None:
            return None
        horizon = min(cap, max(2 * n + 2, cls.MIN_HORIZON))
        rows = compile_fn(n, horizon)
        if rows is None:
            return None
        rows = np.asarray(rows)
        if rows.shape != (horizon, n):
            return None
        return cls(adv, n, cap, horizon, rows)

    def row(self, t: int) -> Optional[np.ndarray]:
        """Parent row for 1-based round ``t`` (``None`` = fall back)."""
        while t > self._horizon:
            if self._horizon >= self._cap:
                return None
            horizon = min(self._cap, self._horizon * 2)
            rows = self._adv.compile_schedule(self._n, horizon)
            if rows is None:
                return None
            rows = np.asarray(rows)
            if rows.shape != (horizon, self._n):
                return None
            self._horizon = horizon
            self._rows = rows
        return self._rows[t - 1]


class Executor:
    """Protocol every execution engine implements.

    ``run`` executes one spec, ``run_many`` a list (results in spec
    order), ``sweep`` measures a ``{name: factory} x ns`` grid into a
    :class:`~repro.analysis.sweep.SweepResult`.  Implementations must be
    decision-equivalent: identical ``t_star`` / broadcaster results for
    identical specs.
    """

    #: Registry name used by :func:`get_executor` and the CLI ``--engine``.
    name: str = "abstract"

    def run(self, spec: RunSpec) -> RunReport:
        """Execute one run."""
        return self.run_many([spec])[0]

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunReport]:
        """Execute many runs; reports are returned in spec order."""
        raise NotImplementedError

    def run_many_settled(
        self, specs: Sequence[RunSpec]
    ) -> List[Union[RunReport, Exception]]:
        """``run_many`` with per-spec failure isolation.

        The whole list is dispatched through :meth:`run_many` first (one
        batched/sharded call -- the fast path); if that raises, each spec
        is retried individually so exactly the offending specs settle to
        their exception while the rest still produce reports.  Results
        are in spec order; callers dispatching independent work units
        (the service scheduler, task-graph execution) use this so one bad
        adversary cannot fail its batch neighbours.
        """
        with _obs_trace.span("executor", executor=self.name, specs=len(specs)):
            try:
                return list(self.run_many(specs))
            except Exception:
                settled: List[Union[RunReport, Exception]] = []
                for spec in specs:
                    try:
                        settled.append(self.run(spec))
                    except Exception as exc:
                        settled.append(exc)
                return settled

    def sweep(
        self,
        adversary_factories: Dict[str, Callable[[int], AdversaryProtocol]],
        ns: Sequence[int],
        max_rounds: Optional[int] = None,
        backend: BackendLike = None,
    ) -> "SweepResult":
        """Measure ``t*`` for every (factory, n) grid point, ``n``-major.

        Points truncated by an explicit ``max_rounds`` are dropped, same
        as :func:`repro.analysis.sweep.sweep_adversaries`.  Uncached,
        for arbitrary factories; see the module docstring for cached
        sweeps.
        """
        from repro.analysis.sweep import SweepResult, make_sweep_point

        specs = [
            RunSpec(
                adversary=factory,
                n=n,
                max_rounds=max_rounds,
                backend=backend,
                name=name,
            )
            for n in ns
            for name, factory in adversary_factories.items()
        ]
        points = [
            make_sweep_point(spec.name, spec.n, report.t_star)
            for spec, report in zip(specs, self.run_many(specs))
        ]
        return SweepResult(points=[p for p in points if p is not None])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SequentialExecutor(Executor):
    """One run at a time; the only executor with full instrumentation.

    ``use_compiled=False`` disables the compiled-schedule fast path
    (ablation benchmarks and the bit-identity tests use this to pin the
    two paths against each other).  ``use_squaring`` (default: follows
    ``use_compiled``) separately gates the repeated-squaring t* search
    for static schedules, so benchmarks can pin squaring against the
    compiled round-by-round loop.
    """

    name = "sequential"

    def __init__(
        self, use_compiled: bool = True, use_squaring: Optional[bool] = None
    ) -> None:
        self._use_compiled = use_compiled
        self._use_squaring = use_compiled if use_squaring is None else use_squaring

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunReport]:
        return [self.run(spec) for spec in specs]

    def run(self, spec: RunSpec) -> RunReport:
        with _obs_trace.span("run", executor=self.name, n=spec.n) as sp:
            report = self._run(spec)
            sp.set_attrs(
                adversary=report.adversary_name,
                t_star=report.t_star,
                rounds=report.rounds,
                compiled=report.compiled,
            )
            if report.timings is not None:
                sp.set_attrs(
                    decision_s=round(report.timings["decision_s"], 6),
                    kernel_s=round(report.timings["kernel_s"], 6),
                )
            return report

    def _run(self, spec: RunSpec) -> RunReport:
        adv = spec.make_adversary()
        n = spec.n
        cap, explicit = spec.round_cap()
        name = spec.display_name(adv)
        level = spec.instrumentation
        want_stats = level in ("history", "trace")
        if level == "none" and not spec.keep_trees and self._use_squaring:
            row = _static_parent_row(adv, n)
            if row is not None:
                # Squaring is one long kernel call; its time shows up as
                # the "squaring" kernel row, not a decision/kernel split.
                return _static_report(spec, name, row, n, cap, explicit, self.name)
        recorder = TraceRecorder(n, name, seed=spec.seed) if level == "trace" else None
        collector = MetricsCollector(n) if level == "trace" else None
        history: List[RoundSnapshot] = []
        played: List[RootedTree] = []
        state = BroadcastState.initial(n, backend=spec.backend)
        cursor = None
        parents_fn = None
        if level == "none" and not spec.keep_trees:
            if self._use_compiled:
                cursor = _ScheduleCursor.try_compile(adv, n, cap)
            parents_fn = _parents_hook(adv)
        compiled = cursor is not None
        # Phase split (profiling only): decision = adversary / schedule
        # calls, kernel = backend composes.  The `if measure` guards keep
        # the disabled loop clock-free.
        measure = _profile.enabled()
        now = time.perf_counter
        dec_s = 0.0
        ker_s = 0.0
        t = 0
        while not state.is_broadcast_complete():
            if t >= cap:
                if explicit:
                    break
                raise _cap_error([name], cap)
            t += 1
            if cursor is not None:
                p0 = now() if measure else 0.0
                row = cursor.row(t)
                if measure:
                    dec_s += now() - p0
                if row is not None:
                    p0 = now() if measure else 0.0
                    state.apply_parents_inplace(row)
                    if measure:
                        ker_s += now() - p0
                    continue
                # Horizon stopped compiling; finish on the generic loop.
                cursor = None
                compiled = False
            if parents_fn is not None:
                p0 = now() if measure else 0.0
                row = _validated_row(parents_fn(state, t), n)
                if measure:
                    dec_s += now() - p0
                    p0 = now()
                state.apply_parents_inplace(row)
                if measure:
                    ker_s += now() - p0
                continue
            p0 = now() if measure else 0.0
            tree = _validated_tree(adv.next_tree(state, t), n)
            if measure:
                dec_s += now() - p0
            before_edges = state.edge_count() if want_stats else 0
            p0 = now() if measure else 0.0
            state.apply_tree_inplace(tree)
            if measure:
                ker_s += now() - p0
            if spec.keep_trees:
                played.append(tree)
            if want_stats:
                sizes = state.reach_sizes()
                stats = dict(
                    round_index=t,
                    new_edges=state.edge_count() - before_edges,
                    max_reach=int(sizes.max()),
                    min_reach=int(sizes.min()),
                    broadcaster_count=len(state.broadcasters()),
                )
                if level == "history":
                    history.append(RoundSnapshot(tree=tree, **stats))
                else:
                    record = RoundRecord(parents=tree.parents, **stats)
                    recorder.record_round(record)
                    collector.observe_round(record, tree)
        t_star = t if state.is_broadcast_complete() else None
        timings = None
        if measure:
            timings = {"decision_s": dec_s, "kernel_s": ker_s}
            _profile.record_phases(self.name, dec_s, ker_s)
        return RunReport(
            t_star=t_star,
            n=n,
            rounds=state.round_index,
            adversary_name=name,
            broadcasters=state.broadcasters() if t_star is not None else (),
            final_state=state,
            seed=spec.seed,
            history=history,
            trees=played,
            trace=recorder.finish(t_star) if recorder is not None else None,
            metrics=collector.finish(t_star) if collector is not None else None,
            compiled=compiled,
            executor=self.name,
            timings=timings,
        )


class BatchExecutor(Executor):
    """Advance compatible specs in lockstep through one batched tensor.

    Specs are grouped by ``(n, backend, max_rounds)`` (order within the
    result list is preserved regardless); each group becomes one
    :class:`~repro.engine.batch.BatchRunner` whose per-round composition
    and completion checks run as single vectorized kernels.  A run leaves
    the lockstep loop in the round it completes: the runner drops it from
    the stacked tensor, and its adversary is never queried again.
    Element-wise decision-equivalent to :class:`SequentialExecutor`: every
    adversary observes a zero-copy view of exactly the state its own moves
    produced.

    Specs requesting instrumentation (or ``keep_trees``) fall back to a
    :class:`SequentialExecutor` run -- per-round statistics are inherently
    per-run work, and correctness beats batching for the handful of
    instrumented runs.
    """

    name = "batch"

    def __init__(
        self, use_compiled: bool = True, use_squaring: Optional[bool] = None
    ) -> None:
        self._use_compiled = use_compiled
        self._use_squaring = use_compiled if use_squaring is None else use_squaring
        self._sequential = SequentialExecutor(
            use_compiled=use_compiled, use_squaring=use_squaring
        )

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunReport]:
        reports: List[Optional[RunReport]] = [None] * len(specs)
        groups: Dict[Tuple, List[int]] = {}
        for i, spec in enumerate(specs):
            if spec.instrumentation != "none" or spec.keep_trees:
                reports[i] = self._sequential.run(spec)
                continue
            backend = get_backend(spec.backend)
            groups.setdefault((spec.n, id(backend), spec.max_rounds), []).append(i)
        for indices in groups.values():
            for i, report in zip(indices, self._run_group([specs[i] for i in indices])):
                reports[i] = report
        return reports  # every index was filled by a group or the fallback

    def _run_group(self, group: Sequence[RunSpec]) -> List[RunReport]:
        n = group[0].n
        backend = get_backend(group[0].backend)
        cap, explicit = group[0].round_cap()
        all_advs = [spec.make_adversary() for spec in group]
        all_names = [spec.display_name(adv) for spec, adv in zip(group, all_advs)]
        results: List[Optional[RunReport]] = [None] * len(group)
        lockstep: List[int] = []
        for idx, adv in enumerate(all_advs):
            row = _static_parent_row(adv, n) if self._use_squaring else None
            if row is not None:
                # Static schedules skip the lockstep loop entirely: the
                # squaring search finishes in O(log t*) compositions.
                results[idx] = _static_report(
                    group[idx], all_names[idx], row, n, cap, explicit, self.name
                )
            else:
                lockstep.append(idx)
        if not lockstep:
            return results
        group = [group[i] for i in lockstep]
        advs = [all_advs[i] for i in lockstep]
        names = [all_names[i] for i in lockstep]
        cursors: List[Optional[_ScheduleCursor]] = [
            _ScheduleCursor.try_compile(adv, n, cap) if self._use_compiled else None
            for adv in advs
        ]
        hooks = [_parents_hook(adv) for adv in advs]
        compiled = [cursor is not None for cursor in cursors]
        runner = BatchRunner(n, len(group), backend=backend)
        # Only live runs' rows are written; the runner reads no others.
        parents = np.empty((len(group), n), dtype=np.int64)
        # Phase split (profiling only): decision = the per-run adversary
        # loop, kernel = the batched lockstep compose.  The group totals
        # are attributed to every report in the group -- the batch shares
        # one kernel call per round, so a per-run split does not exist.
        measure = _profile.enabled()
        now = time.perf_counter
        dec_s = 0.0
        ker_s = 0.0
        with _obs_trace.span(
            "run_group", executor=self.name, n=n, runs=len(group)
        ) as sp:
            while not runner.all_complete:
                if runner.round_index >= cap:
                    if explicit:
                        break
                    stuck = [names[b] for b in runner.live_runs()]
                    raise AdversaryError(
                        f"adversaries {stuck!r} exceeded the trivial n² cap ({cap})"
                    )
                t = runner.round_index + 1
                p0 = now() if measure else 0.0
                for b in runner.live_runs():
                    cursor = cursors[b]
                    if cursor is not None:
                        row = cursor.row(t)
                        if row is not None:
                            parents[b] = row
                            continue
                        cursors[b] = None
                        compiled[b] = False
                    if hooks[b] is not None:
                        parents[b] = _validated_row(
                            hooks[b](runner.state_view(b), t), n
                        )
                        continue
                    tree = _validated_tree(
                        advs[b].next_tree(runner.state_view(b), t), n
                    )
                    parents[b] = tree.parent_array_numpy()
                if measure:
                    dec_s += now() - p0
                    p0 = now()
                runner.step_parents(parents)
                if measure:
                    ker_s += now() - p0
            sp.set_attrs(rounds=runner.round_index)
            if measure:
                sp.set_attrs(
                    decision_s=round(dec_s, 6), kernel_s=round(ker_s, 6)
                )
        timings = None
        if measure:
            timings = {"decision_s": dec_s, "kernel_s": ker_s}
            _profile.record_phases(self.name, dec_s, ker_s)
        for b, (idx, spec) in enumerate(zip(lockstep, group)):
            t_star = runner.t_star(b)
            final = runner.state(b)
            results[idx] = RunReport(
                t_star=t_star,
                n=n,
                rounds=final.round_index,
                adversary_name=names[b],
                broadcasters=runner.broadcasters(b) if t_star is not None else (),
                final_state=final,
                seed=spec.seed,
                compiled=compiled[b],
                executor=self.name,
                timings=timings,
            )
        return results


def _spec_shard_worker(payload: Tuple) -> List[Tuple[int, RunReport]]:
    """Run one shard of specs through a fresh :class:`BatchExecutor`.

    The payload is ``(indices, specs)`` or ``(indices, specs, obs_doc)``;
    the optional third element re-establishes observability in the spawn
    worker (sink path, profiling flag, and the parent's trace context, so
    the shard's spans join the caller's trace tree).
    """
    indices, specs = payload[0], payload[1]
    ctx = None
    if len(payload) > 2 and payload[2] is not None:
        obs_doc = payload[2]
        sink = obs_doc.get("sink")
        if sink and not _obs_trace.enabled():
            _obs_trace.enable(sink)
        if obs_doc.get("profile") and not _profile.enabled():
            _profile.enable()
        ctx = _obs_trace.TraceContext.from_doc(obs_doc.get("ctx"))
    with _obs_trace.context(ctx):
        with _obs_trace.span("shard", specs=len(specs)):
            return list(zip(indices, BatchExecutor().run_many(specs)))


class ShardedExecutor(Executor):
    """Partition spec lists across a ``multiprocessing`` worker pool.

    The spec list is cut into contiguous balanced shards
    (:func:`repro.engine.shard.split_shards`); each worker runs its shard
    through one :class:`BatchExecutor` and the parent merges the reports
    back into spec order.  Sweeps use the base :meth:`Executor.sweep`, so
    a sharded sweep is ``run_many`` over the ``n``-major grid.

    Determinism: results are element-wise identical to
    :class:`BatchExecutor` (hence :class:`SequentialExecutor`) for any
    worker count, by construction:

    * every spec is an independent run -- its adversary observes only the
      state its own moves produced, whether it shares a batch with 0 or
      100 neighbours, so shard composition cannot influence any outcome;
    * per-run RNG comes from the spec's own factory (its seed / node
      count), never from shared pool state;
    * each spec's backend is resolved to a *name* in the parent and
      re-resolved inside the worker, so ``use_backend(...)`` /
      ``--backend`` selections survive the ``spawn`` boundary (child
      processes do not inherit in-process defaults);
    * shard outputs carry their spec indices and are merged by index.

    Spawn safety: the default ``mp_context`` is ``"spawn"`` -- the
    strictest start method (and the only one on Windows/macOS): workers
    import everything fresh, so specs must be picklable for
    ``workers > 1``.  Module-level functions, classes and
    :func:`functools.partial` over them are; closures and lambdas are not
    (:func:`repro.engine.shard.default_sweep_factories` is a picklable
    portfolio).  ``workers=1``, or a single shard's worth of specs, runs
    inline through one :class:`BatchExecutor` (no pool, no pickling
    requirement).  The caller's trace context crosses the boundary in the
    shard payload, so worker spans join the caller's trace tree.
    """

    name = "sharded"

    def __init__(
        self,
        workers: Optional[int] = None,
        backend: BackendLike = None,
        mp_context: str = "spawn",
    ) -> None:
        from repro.engine.shard import resolve_pool_config

        self._workers, self._mp_context = resolve_pool_config(workers, mp_context)
        self._backend = backend

    @property
    def workers(self) -> int:
        """Maximum number of worker processes."""
        return self._workers

    def _prepare(self, spec: RunSpec) -> RunSpec:
        """Resolve the spec's backend to a spawn-safe *name*."""
        backend = spec.backend if spec.backend is not None else self._backend
        return replace(spec, backend=get_backend(backend).name)

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunReport]:
        from repro.engine.shard import pool_map, split_shards

        if not specs:
            return []
        indexed = list(enumerate(self._prepare(spec) for spec in specs))
        # Observability crosses the spawn boundary explicitly: workers get
        # the sink path + profiling flag + current trace context in the
        # payload (env inheritance also works, but programmatic enable()
        # -- e.g. `serve --trace` -- never touches the environment).
        ctx = _obs_trace.current_context()
        obs_doc = None
        if ctx is not None or _obs_trace.enabled() or _profile.enabled():
            obs_doc = {
                "ctx": ctx.to_doc() if ctx is not None else None,
                "sink": _obs_trace.sink_path(),
                "profile": _profile.enabled(),
            }
        payloads = []
        for shard in split_shards(indexed, self._workers):
            shard_payload = ([i for i, _ in shard], [s for _, s in shard])
            if obs_doc is not None:
                shard_payload = shard_payload + (obs_doc,)
            payloads.append(shard_payload)
        merged: List[Tuple[int, RunReport]] = []
        for shard_out in pool_map(
            _spec_shard_worker, payloads, self._workers, self._mp_context
        ):
            merged.extend(shard_out)
        merged.sort(key=lambda pair: pair[0])
        return [report for _, report in merged]


def get_executor(
    spec: Union[str, Executor, None] = None,
    workers: Optional[int] = None,
    backend: BackendLike = None,
    mp_context: str = "spawn",
) -> Executor:
    """Resolve an executor from a name (``--engine``) or pass one through.

    ``workers``/``backend``/``mp_context`` only apply when constructing a
    :class:`ShardedExecutor`; ``None`` defaults to ``"sequential"``.
    """
    if isinstance(spec, Executor):
        return spec
    name = spec if spec is not None else "sequential"
    if name == "sequential":
        return SequentialExecutor()
    if name == "batch":
        return BatchExecutor()
    if name == "sharded":
        return ShardedExecutor(workers=workers, backend=backend, mp_context=mp_context)
    raise SimulationError(
        f"unknown executor {name!r}; available: {EXECUTOR_NAMES}"
    )


__all__ = [
    "EXECUTOR_NAMES",
    "INSTRUMENTATION_LEVELS",
    "RunSpec",
    "RunReport",
    "Executor",
    "SequentialExecutor",
    "BatchExecutor",
    "ShardedExecutor",
    "get_executor",
]
