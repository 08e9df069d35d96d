"""Task API v2: dependency-aware, content-addressed task graphs.

Every unit of work the service can perform -- a single broadcast run, a
sweep cell, a sweep aggregation, a paper experiment E1..E8 -- is a typed,
versioned :class:`TaskSpec`::

    {"kind": "run", "payload": {"adversary": "cyclic", "n": 12}}
    {"kind": "experiment", "payload": {"experiment": "E2"},
     "inputs": [<digest>, <digest>, ...]}

A task declares its *inputs* as the content digests of upstream tasks, so
a :class:`TaskGraph` is a DAG by construction (a task can only reference
tasks added before it).  The digest of a task covers its kind, canonical
payload, and input digests -- two tasks that describe the same
computation over the same upstream results share an address, whatever
graph they appear in.  ``run``-kind tasks with no inputs deliberately
share their digest with :func:`repro.service.specs.spec_digest`, so task
results, ``POST /v1/runs`` submissions, and scheduler jobs all hit the
same cache entries.

Three registries make the module extensible without touching the engine:

* **task kinds** (:func:`register_task_kind`) -- each kind names a pure
  compute function ``(payload, input_docs) -> result_doc`` plus the codec
  its results are stored under.  The ``"run"`` kind is special: the
  runner batches every ready run task into one
  :meth:`~repro.engine.executor.Executor.run_many_settled` dispatch, so
  run grids ride the vectorized/sharded executors;
* **codecs** (:func:`register_codec`) -- named ``encode``/``decode``
  pairs mapping rich result objects (run reports, sweep results,
  experiment tables) to the JSON documents the cache stores;
* **the adversary spec registry** (:mod:`repro.service.specs`) -- run
  payloads are canonical run specs, validated there.

Execution (:class:`TaskGraphRunner`) proceeds in waves of ready tasks:
cache-probe first (a warm graph computes nothing), then one batched
executor dispatch for the runnable ``run`` tasks, then the pure compute
kinds.  A failing task fails alone; its transitive dependents are marked
``poisoned`` and never execute, while independent branches complete.  A
shared :class:`TaskInflight` registry dedups computation per digest
across concurrently-executing graphs.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.engine.executor import Executor, get_executor
from repro.errors import TaskError
from repro.obs import trace as _trace
from repro.service.cache import ResultCache, report_from_doc, report_to_doc
from repro.service.specs import (
    canonical_json,
    canonical_run_spec,
    canonical_sweep_spec,
    spec_digest,
    sweep_handles,
    to_run_spec,
)

#: Version prefix baked into every non-run task digest; bump when task
#: canonicalization or any builtin kind's semantics change.
TASK_VERSION = 1

#: Node states a task moves through inside a graph run.  ``poisoned``
#: marks tasks skipped because an upstream dependency failed;
#: ``pruned`` marks tasks skipped because they lie outside the
#: transitive input cone of the requested outputs (never started, not
#: an error).
TASK_STATES = ("pending", "running", "done", "failed", "poisoned", "pruned")


# ----------------------------------------------------------------------
# Codec registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Codec:
    """A named ``result object <-> JSON document`` pair."""

    name: str
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]


_CODECS: Dict[str, Codec] = {}


def register_codec(
    name: str,
    encode: Callable[[Any], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Any],
) -> Codec:
    """Register (or replace) a result codec under a stable name."""
    if not name or not isinstance(name, str):
        raise TaskError(f"codec name must be a non-empty string, got {name!r}")
    codec = Codec(name=name, encode=encode, decode=decode)
    _CODECS[name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec; :class:`TaskError` on unknown names."""
    try:
        return _CODECS[name]
    except KeyError:
        raise TaskError(
            f"unknown codec {name!r}; registered: {sorted(_CODECS)}"
        ) from None


# ----------------------------------------------------------------------
# Task-kind registry
# ----------------------------------------------------------------------

#: ``canonicalize(payload, n_inputs) -> canonical payload`` -- validates a
#: raw payload (inputs arity included) and returns its canonical form.
Canonicalizer = Callable[[Mapping[str, Any], int], Dict[str, Any]]

#: ``compute(payload, input_docs) -> result document``.  Must be pure:
#: deterministic in (payload, inputs), no observable side effects -- that
#: is what makes task results content-addressable.
ComputeFn = Callable[[Dict[str, Any], List[Dict[str, Any]]], Dict[str, Any]]


@dataclass(frozen=True)
class TaskKindEntry:
    """One registered task kind: canonicalizer + compute + result codec."""

    name: str
    canonicalize: Canonicalizer
    compute: Optional[ComputeFn]  # None => executor-dispatched ("run")
    codec: str = "json"
    description: str = ""


_KINDS: Dict[str, TaskKindEntry] = {}


def register_task_kind(
    name: str,
    compute: Optional[ComputeFn],
    canonicalize: Optional[Canonicalizer] = None,
    codec: str = "json",
    description: str = "",
) -> TaskKindEntry:
    """Register a task kind.

    ``compute`` is a pure ``(payload, input_docs) -> result_doc``
    function (``None`` only for the built-in executor-dispatched
    ``"run"`` kind).  ``canonicalize`` validates and normalizes raw
    payloads (default: JSON-normalize with sorted keys); ``codec`` names
    a registered result codec.  Re-registering a name replaces the entry
    (tests inject failing kinds this way).
    """
    if not name or not isinstance(name, str):
        raise TaskError(f"task kind must be a non-empty string, got {name!r}")
    entry = TaskKindEntry(
        name=name,
        canonicalize=canonicalize if canonicalize is not None else _canonical_payload,
        compute=compute,
        codec=codec,
        description=description,
    )
    _KINDS[name] = entry
    return entry


def unregister_task_kind(name: str) -> None:
    """Remove a registered kind (tests clean up injected entries)."""
    _KINDS.pop(name, None)


def get_task_kind(name: str) -> TaskKindEntry:
    """Look up a registered kind; :class:`TaskError` on unknown names."""
    try:
        return _KINDS[name]
    except KeyError:
        raise TaskError(
            f"unknown task kind {name!r}; registered: {sorted(_KINDS)}"
        ) from None


def task_kind_names() -> Tuple[str, ...]:
    """All registered task kinds, sorted."""
    return tuple(sorted(_KINDS))


def describe_task_kinds() -> Dict[str, Dict[str, Any]]:
    """A JSON-ready description of every kind (served by ``/v1/specs``)."""
    return {
        name: {"codec": entry.codec, "description": entry.description}
        for name, entry in sorted(_KINDS.items())
    }


# ----------------------------------------------------------------------
# TaskSpec + digests
# ----------------------------------------------------------------------


def _canonical_payload(raw: Mapping[str, Any], n_inputs: int = 0) -> Dict[str, Any]:
    """JSON-normalize a payload: sorted keys, tuples -> lists, JSON types only."""
    if not isinstance(raw, Mapping):
        raise TaskError(f"task payload must be a JSON object, got {type(raw).__name__}")
    try:
        return json.loads(canonical_json(dict(raw)))
    except (TypeError, ValueError) as exc:
        raise TaskError(f"task payload is not JSON-representable: {exc}") from exc


@dataclass(frozen=True)
class TaskSpec:
    """One typed, content-addressed unit of work.

    ``payload`` is the kind's canonical document; ``inputs`` are the
    digests of upstream tasks whose result documents are fed to the
    kind's compute function, in order.  Build through
    :func:`canonical_task` / :meth:`TaskGraph.add` so the payload is
    always canonical and the digest well-defined.
    """

    kind: str
    payload: Mapping[str, Any]
    inputs: Tuple[str, ...] = ()

    @property
    def digest(self) -> str:
        return task_digest(self)

    def to_doc(self) -> Dict[str, Any]:
        """The JSON document form (inputs as digest strings)."""
        return {
            "kind": self.kind,
            "payload": dict(self.payload),
            "inputs": list(self.inputs),
        }


def canonical_task(raw: Mapping[str, Any]) -> TaskSpec:
    """Validate a raw task document and return its canonical TaskSpec.

    ``inputs`` entries must already be digest strings here; index
    references are resolved by :meth:`TaskGraph.from_doc`.
    """
    if not isinstance(raw, Mapping):
        raise TaskError(f"task must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {"kind", "payload", "inputs"}
    if unknown:
        raise TaskError(f"unknown task keys {sorted(unknown)}")
    kind = raw.get("kind")
    if not isinstance(kind, str):
        raise TaskError(f"task 'kind' must be a string, got {kind!r}")
    entry = get_task_kind(kind)
    inputs_raw = raw.get("inputs", ())
    if not isinstance(inputs_raw, (list, tuple)):
        raise TaskError(f"task 'inputs' must be a list, got {inputs_raw!r}")
    inputs: List[str] = []
    for ref in inputs_raw:
        if not isinstance(ref, str) or not ref:
            raise TaskError(
                f"task input references must be digest strings, got {ref!r}"
            )
        inputs.append(ref)
    payload = entry.canonicalize(raw.get("payload", {}), len(inputs))
    return TaskSpec(kind=entry.name, payload=payload, inputs=tuple(inputs))


def task_digest(task: TaskSpec) -> str:
    """The content address of a task.

    A no-input ``run`` task *is* a run spec, so it reuses
    :func:`~repro.service.specs.spec_digest` -- task results, plain run
    submissions, and scheduler dedup all share one address space.  Every
    other shape hashes the canonical ``(kind, payload, inputs)`` document
    under the :data:`TASK_VERSION` prefix.
    """
    if task.kind == "run" and not task.inputs:
        return spec_digest(task.payload)
    doc = {
        "kind": task.kind,
        "payload": dict(task.payload),
        "inputs": list(task.inputs),
    }
    preimage = f"repro-task-v{TASK_VERSION}:{canonical_json(doc)}"
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# TaskGraph
# ----------------------------------------------------------------------


class TaskGraph:
    """An insertion-ordered DAG of tasks, keyed by content digest.

    :meth:`add` requires every input to reference a task already in the
    graph, so insertion order is a topological order and cycles cannot be
    constructed.  Adding an identical task twice is a no-op returning the
    same digest (grids naturally dedup shared cells).
    """

    def __init__(self) -> None:
        self._tasks: Dict[str, TaskSpec] = {}
        self._order: List[str] = []

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, digest: str) -> bool:
        return digest in self._tasks

    def __getitem__(self, digest: str) -> TaskSpec:
        return self._tasks[digest]

    @property
    def order(self) -> Tuple[str, ...]:
        """Digests in insertion (= topological) order."""
        return tuple(self._order)

    def add(self, raw: Union[TaskSpec, Mapping[str, Any]]) -> str:
        """Canonicalize and insert one task; returns its digest.

        Hand-built :class:`TaskSpec` instances are re-canonicalized too:
        digests only ever exist for validated canonical documents.
        """
        task = canonical_task(raw.to_doc() if isinstance(raw, TaskSpec) else raw)
        missing = [ref for ref in task.inputs if ref not in self._tasks]
        if missing:
            raise TaskError(
                f"task inputs {missing} are not in the graph; add upstream "
                "tasks first (graphs are DAGs by construction)"
            )
        digest = task.digest
        if digest not in self._tasks:
            self._tasks[digest] = task
            self._order.append(digest)
        return digest

    def add_run(self, run_spec: Mapping[str, Any]) -> str:
        """Convenience: add one ``run``-kind task from a raw run spec."""
        return self.add({"kind": "run", "payload": dict(run_spec)})

    def sinks(self) -> Tuple[str, ...]:
        """Digests no other task consumes (the default graph outputs)."""
        consumed = {ref for task in self._tasks.values() for ref in task.inputs}
        return tuple(d for d in self._order if d not in consumed)

    def dependents(self) -> Dict[str, List[str]]:
        """Digest -> direct downstream digests (for failure poisoning)."""
        out: Dict[str, List[str]] = {d: [] for d in self._order}
        for digest, task in self._tasks.items():
            for ref in task.inputs:
                out[ref].append(digest)
        return out

    def to_doc(self) -> Dict[str, Any]:
        """The canonical JSON document (tasks in topological order)."""
        return {
            "version": TASK_VERSION,
            "tasks": [self._tasks[d].to_doc() for d in self._order],
        }

    @classmethod
    def from_doc(
        cls, raw: Mapping[str, Any]
    ) -> Tuple["TaskGraph", Tuple[str, ...]]:
        """Parse a submitted graph document; returns ``(graph, outputs)``.

        ``tasks`` entries may reference inputs either by digest or by the
        integer index of an earlier task in the list (clients then never
        need to compute digests themselves); ``outputs`` (optional, same
        reference forms) defaults to the graph's sinks.
        """
        if not isinstance(raw, Mapping):
            raise TaskError(f"graph must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {"version", "tasks", "outputs"}
        if unknown:
            raise TaskError(f"unknown graph keys {sorted(unknown)}")
        version = raw.get("version", TASK_VERSION)
        if version != TASK_VERSION:
            raise TaskError(
                f"task graph version {version!r} is not supported "
                f"(expected {TASK_VERSION})"
            )
        tasks = raw.get("tasks")
        if not isinstance(tasks, (list, tuple)) or not tasks:
            raise TaskError("'tasks' must be a non-empty list")
        graph = cls()
        by_index: List[str] = []

        def resolve(ref: Any, where: str) -> str:
            if isinstance(ref, bool):
                raise TaskError(f"{where}: reference must be an index or digest")
            if isinstance(ref, int):
                if not 0 <= ref < len(by_index):
                    raise TaskError(
                        f"{where}: index {ref} does not reference an earlier task"
                    )
                return by_index[ref]
            if isinstance(ref, str) and ref:
                return ref
            raise TaskError(f"{where}: reference must be an index or digest, got {ref!r}")

        for i, entry in enumerate(tasks):
            if not isinstance(entry, Mapping):
                raise TaskError(f"task {i} must be a JSON object")
            entry = dict(entry)
            entry["inputs"] = [
                resolve(ref, f"task {i} input") for ref in entry.get("inputs", ())
            ]
            by_index.append(graph.add(entry))
        outputs_raw = raw.get("outputs")
        if outputs_raw is None:
            outputs = graph.sinks()
        else:
            if not isinstance(outputs_raw, (list, tuple)) or not outputs_raw:
                raise TaskError("'outputs' must be a non-empty list when given")
            outputs = tuple(resolve(ref, "output") for ref in outputs_raw)
            missing = [d for d in outputs if d not in graph]
            if missing:
                raise TaskError(f"outputs {missing} are not tasks in the graph")
        return graph, outputs


def graph_digest(graph: TaskGraph, outputs: Sequence[str]) -> str:
    """The content address of a whole graph submission (outputs included)."""
    doc = graph.to_doc()
    doc["outputs"] = list(outputs)
    preimage = f"repro-graph-v{TASK_VERSION}:{canonical_json(doc)}"
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cross-graph in-flight dedup
# ----------------------------------------------------------------------


def initial_statuses(graph: TaskGraph) -> Dict[str, Dict[str, Any]]:
    """The pre-execution per-node status map (one shape for every surface).

    Both :meth:`TaskGraphRunner.run` and the scheduler's pre-dispatch
    snapshot (``GET /v1/tasks/<id>`` before the worker picks the job up)
    build their node documents here, so the wire shape stays
    single-sourced.
    """
    return {
        d: {
            "kind": graph[d].kind,
            "status": "pending",
            "cached": False,
            "error": None,
        }
        for d in graph.order
    }


class TaskInflight:
    """Per-digest claims so concurrent graphs compute each task once.

    ``claim`` returns ``None`` when the caller now owns the digest (it
    must call ``release`` when the result is cached -- success *or*
    failure), or the owner's event to wait on otherwise.  After the wait
    the caller re-probes the cache; a miss (the owner failed) means it
    should claim again and compute itself.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: Dict[str, threading.Event] = {}

    def claim(self, digest: str) -> Optional[threading.Event]:
        with self._lock:
            event = self._events.get(digest)
            if event is not None:
                return event
            self._events[digest] = threading.Event()
            return None

    def release(self, digest: str) -> None:
        with self._lock:
            event = self._events.pop(digest, None)
        if event is not None:
            event.set()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


@dataclass
class GraphRun:
    """The outcome of one :meth:`TaskGraphRunner.run`.

    ``statuses`` maps every digest to its node document (``kind``,
    ``status``, ``cached``, ``error``); ``results`` holds the result
    documents of every ``done`` task; ``stats`` counts work actually
    performed (``runs_computed`` is the number the warm-cache acceptance
    asserts is zero).
    """

    statuses: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    results: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff every task reached ``done`` (or was pruned away)."""
        return all(
            s["status"] in ("done", "pruned") for s in self.statuses.values()
        )

    def result(self, digest: str) -> Dict[str, Any]:
        """The result document of one task; raises if it did not finish."""
        if digest not in self.results:
            status = self.statuses.get(digest, {"status": "unknown"})
            raise TaskError(
                f"task {digest[:16]}... has no result "
                f"(status={status['status']!r}, error={status.get('error')!r})"
            )
        return self.results[digest]

    def decoded(self, graph: TaskGraph, digest: str) -> Any:
        """The decoded result object, through the kind's registered codec."""
        return get_codec(get_task_kind(graph[digest].kind).codec).decode(
            self.result(digest)
        )


class TaskGraphRunner:
    """Execute task graphs over one executor and one result cache.

    Parameters
    ----------
    executor:
        Executor name or instance dispatching ``run``-kind tasks (every
        ready run task goes out in a single
        :meth:`~repro.engine.executor.Executor.run_many_settled` call,
        so grids batch/shard exactly like service run jobs).
    cache:
        Optional :class:`ResultCache`; when set, every task probes it
        before computing and stores its result after -- a warm graph
        performs zero computations.
    inflight:
        Optional shared :class:`TaskInflight` for cross-graph dedup (the
        scheduler passes its own); omitted = this runner dedups only
        within a graph (by digest, which the graph already guarantees).
    on_update:
        Optional ``(digest, node_doc)`` callback fired on every node
        state change (the scheduler mirrors these into the job document
        served by ``GET /v1/tasks/<id>``).
    foreign_wait_timeout:
        Upper bound (seconds) on each wait for a task another graph is
        computing.  An owner that vanished without releasing its claim
        (a worker torn down mid-stop, a crashed thread) must not hang
        this graph forever: after the timeout the stale claim is broken
        and the task recomputed here (content-addressed, so a racing
        duplicate computation is byte-identical, never wrong).
    """

    def __init__(
        self,
        executor: Any = None,
        cache: Optional[ResultCache] = None,
        inflight: Optional[TaskInflight] = None,
        on_update: Optional[Callable[[str, Dict[str, Any]], None]] = None,
        foreign_wait_timeout: float = 10.0,
    ) -> None:
        self._executor: Executor = get_executor(executor)
        self._cache = cache
        self._inflight = inflight
        self._on_update = on_update
        self._foreign_wait_timeout = foreign_wait_timeout

    # -- cache plumbing -------------------------------------------------

    def _cache_probe(self, task: TaskSpec, digest: str) -> Optional[Dict[str, Any]]:
        if self._cache is None:
            return None
        if task.kind == "run":
            return self._cache.lookup(digest, kind="run")
        entry = self._cache.lookup(digest, kind="task")
        if entry is None or entry.get("task_kind") != task.kind:
            return None
        doc = entry.get("doc")
        return doc if isinstance(doc, dict) else None

    def _cache_store(self, task: TaskSpec, digest: str, doc: Dict[str, Any]) -> None:
        if self._cache is None:
            return
        if task.kind == "run":
            self._cache.store(digest, "run", doc)
        else:
            self._cache.store(digest, "task", {"task_kind": task.kind, "doc": doc})

    # -- run ------------------------------------------------------------

    def run(
        self, graph: TaskGraph, outputs: Optional[Sequence[str]] = None
    ) -> GraphRun:
        """Execute the graph; returns per-node statuses, results, stats.

        ``outputs`` (when given) restricts execution to the transitive
        *input cone* of the requested digests: tasks nothing requested
        depends on are marked ``pruned`` and never probed, claimed, or
        computed.  The cone is transitively closed over inputs, so a
        pruned task is never an input of an executed one.  Requesting
        the graph's sinks (the submission default) covers every node --
        all tasks feed some sink -- so default submissions behave
        exactly as before; ``outputs=None`` runs everything.
        """
        run = GraphRun(
            statuses=initial_statuses(graph),
            stats={
                "tasks": len(graph),
                "cached": 0,
                "computed": 0,
                "runs_computed": 0,
                "failed": 0,
                "poisoned": 0,
                "pruned": 0,
            },
        )
        pending = list(graph.order)
        blocked: set = set()  # failed or poisoned

        def mark(digest: str, **changes: Any) -> None:
            run.statuses[digest].update(changes)
            if self._on_update is not None:
                self._on_update(digest, dict(run.statuses[digest]))

        if outputs is not None:
            cone: set = set()
            frontier = [d for d in outputs if d in graph]
            while frontier:
                digest = frontier.pop()
                if digest in cone:
                    continue
                cone.add(digest)
                frontier.extend(graph[digest].inputs)
            for digest in pending:
                if digest not in cone:
                    run.stats["pruned"] += 1
                    mark(digest, status="pruned")
            pending = [d for d in pending if d in cone]

        def finish_ok(digest: str, doc: Dict[str, Any], cached: bool) -> None:
            run.results[digest] = doc
            if cached:
                run.stats["cached"] += 1
            else:
                run.stats["computed"] += 1
                if graph[digest].kind == "run":
                    run.stats["runs_computed"] += 1
            mark(digest, status="done", cached=cached)

        def finish_failed(digest: str, error: str) -> None:
            run.stats["failed"] += 1
            blocked.add(digest)
            mark(digest, status="failed", error=error)

        dependents = graph.dependents()  # immutable during the run

        def poison_downstream() -> None:
            frontier = list(blocked)
            while frontier:
                for child in dependents[frontier.pop()]:
                    if child in blocked or child not in pending:
                        continue
                    if run.statuses[child]["status"] != "pending":
                        continue
                    blocked.add(child)
                    run.stats["poisoned"] += 1
                    mark(child, status="poisoned", error="upstream task failed")
                    frontier.append(child)
            pending[:] = [d for d in pending if d not in blocked]

        while pending:
            ready = [
                d
                for d in pending
                if all(ref in run.results for ref in graph[d].inputs)
            ]
            if not ready:
                break  # everything left waits on failed/poisoned inputs
            self._run_wave(graph, ready, run.results, finish_ok, finish_failed, mark)
            pending = [d for d in pending if d not in run.results and d not in blocked]
            poison_downstream()
        return run

    def _run_wave(
        self,
        graph: TaskGraph,
        ready: List[str],
        results: Dict[str, Dict[str, Any]],
        finish_ok: Callable[[str, Dict[str, Any], bool], None],
        finish_failed: Callable[[str, str], None],
        mark: Callable[..., None],
    ) -> None:
        """Execute one wave of ready tasks: probe, claim, batch, compute."""
        owned_runs: List[str] = []
        owned_other: List[str] = []
        foreign: List[Tuple[str, threading.Event]] = []
        for digest in ready:
            task = graph[digest]
            doc = self._cache_probe(task, digest)
            if doc is not None:
                finish_ok(digest, doc, True)
                continue
            if self._inflight is not None:
                event = self._inflight.claim(digest)
                if event is not None:
                    foreign.append((digest, event))
                    continue
            (owned_runs if task.kind == "run" else owned_other).append(digest)

        # Every owned claim must be released even if something unexpected
        # escapes below (cache I/O, a codec bug): a leaked claim would
        # block every other graph sharing the digest forever.
        unreleased = set(owned_runs) | set(owned_other)

        def release(digest: str) -> None:
            if self._inflight is not None:
                self._inflight.release(digest)
            unreleased.discard(digest)

        try:
            # One batched dispatch for every runnable run task in the wave.
            if owned_runs:
                for digest in owned_runs:
                    mark(digest, status="running")
                specs = [to_run_spec(graph[d].payload) for d in owned_runs]
                # One "node" span covers the whole batched dispatch (the
                # wave's run tasks share a single executor call).
                with _trace.span("node", kind="run", tasks=len(owned_runs)):
                    settled = self._executor.run_many_settled(specs)
                for digest, outcome in zip(owned_runs, settled):
                    if isinstance(outcome, Exception):
                        finish_failed(
                            digest, f"{type(outcome).__name__}: {outcome}"
                        )
                    else:
                        doc = report_to_doc(outcome)
                        self._cache_store(graph[digest], digest, doc)
                        finish_ok(digest, doc, False)
                    release(digest)

            # Pure compute kinds, in topological order within the wave.
            for digest in owned_other:
                task = graph[digest]
                mark(digest, status="running")
                try:
                    inputs = [dict(results[ref]) for ref in task.inputs]
                    with _trace.span("node", kind=task.kind, digest=digest[:16]):
                        doc = get_task_kind(task.kind).compute(
                            dict(task.payload), inputs
                        )
                    if not isinstance(doc, dict):
                        raise TaskError(
                            f"task kind {task.kind!r} compute returned "
                            f"{type(doc).__name__}, expected a JSON object"
                        )
                except Exception as exc:
                    finish_failed(digest, f"{type(exc).__name__}: {exc}")
                else:
                    self._cache_store(task, digest, doc)
                    finish_ok(digest, doc, False)
                finally:
                    release(digest)
        finally:
            for digest in list(unreleased):
                if self._inflight is not None:
                    self._inflight.release(digest)

        # Digests another graph is computing: wait (bounded -- a dead
        # owner must not hang us), then re-probe; if the owner failed,
        # claim and compute ourselves next wave.
        for digest, event in foreign:
            mark(digest, status="running")
            released = event.wait(timeout=self._foreign_wait_timeout)
            doc = self._cache_probe(graph[digest], digest)
            if doc is not None:
                finish_ok(digest, doc, True)
                continue
            if not released and self._inflight is not None:
                # The owner held its claim past the timeout with nothing
                # cached: assume it died without releasing and break the
                # claim, so the next wave claims and computes here.  If
                # the owner is merely slow, the worst case is one
                # duplicate computation of a content-addressed task.
                self._inflight.release(digest)
            mark(digest, status="pending")
        # (Un-resolved foreign digests stay pending and are retried.)


def run_graph(
    graph: TaskGraph,
    outputs: Optional[Sequence[str]] = None,
    executor: Any = None,
    cache: Optional[ResultCache] = None,
) -> GraphRun:
    """Convenience: execute a graph with a fresh runner."""
    return TaskGraphRunner(executor=executor, cache=cache).run(graph, outputs)


# ----------------------------------------------------------------------
# Sweeps as task graphs
# ----------------------------------------------------------------------


def sweep_graph(raw_sweep_spec: Mapping[str, Any]) -> Tuple[TaskGraph, str]:
    """Decompose a sweep spec into run-cell tasks + one aggregation task.

    Returns ``(graph, output_digest)`` where the output is a
    ``sweep-agg`` task producing the serialized
    :class:`~repro.analysis.sweep.SweepResult`, cells truncated by
    ``max_rounds`` dropped.  Points are n-major in the caller's row and
    ``ns`` order, not the canonical spec's sorted order:
    ``SweepResult.best_per_n`` keeps the first maximum, so row order
    decides ties.  Every cell is a no-input ``run`` task, so it shares
    its cache entry with ``/v1/runs`` and with every other graph or
    sweep that measures the same cell.
    """
    spec = canonical_sweep_spec(raw_sweep_spec)
    handles = sweep_handles(raw_sweep_spec)
    graph = TaskGraph()
    cells: List[Dict[str, Any]] = []
    inputs: List[str] = []
    for n in raw_sweep_spec["ns"]:
        for label, handle in handles.items():
            digest = graph.add_run(
                {
                    "adversary": handle.adversary,
                    "params": handle.params,
                    "n": n,
                    "seed": handle.seed,
                    "max_rounds": spec["max_rounds"],
                    "backend": spec["backend"],
                }
            )
            cells.append({"label": label, "n": n})
            inputs.append(digest)
    output = graph.add(
        {
            "kind": "sweep-agg",
            "payload": {"cells": cells},
            "inputs": inputs,
        }
    )
    return graph, output


# ----------------------------------------------------------------------
# Built-in codecs and kinds
# ----------------------------------------------------------------------


def _identity_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    return doc


def _decode_sweep(doc: Dict[str, Any]) -> Any:
    from repro.analysis.sweep import SweepResult

    return SweepResult.from_doc(doc)


def _encode_sweep(result: Any) -> Dict[str, Any]:
    return result.to_doc()


def _decode_table(doc: Dict[str, Any]) -> Any:
    from repro.experiments.registry import table_from_doc

    return table_from_doc(doc)


def _encode_table(table: Any) -> Dict[str, Any]:
    from repro.experiments.registry import table_to_doc

    return table_to_doc(table)


def _canonical_run_payload(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    if n_inputs:
        raise TaskError("'run' tasks take no inputs")
    try:
        return canonical_run_spec(raw)
    except TaskError:
        raise
    except Exception as exc:  # SpecError and friends, re-labelled per task
        raise TaskError(str(exc)) from exc


def _int_field(
    payload: Mapping[str, Any], key: str, minimum: int = 1, default: Any = ...
) -> int:
    value = payload.get(key, default)
    if value is ...:
        raise TaskError(f"payload is missing {key!r}")
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise TaskError(f"{key!r} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _canonical_sweep_agg(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    cells = payload.get("cells")
    if not isinstance(cells, list) or len(cells) != n_inputs:
        raise TaskError(
            "'sweep-agg' payload must carry one {label, n} cell per input "
            f"(got {len(cells) if isinstance(cells, list) else cells!r} cells "
            f"for {n_inputs} inputs)"
        )
    for cell in cells:
        if not isinstance(cell, dict) or set(cell) != {"label", "n"}:
            raise TaskError(f"sweep-agg cells must be {{label, n}} objects, got {cell!r}")
        if not isinstance(cell["label"], str) or not cell["label"]:
            raise TaskError(f"sweep-agg cell label must be a string, got {cell!r}")
        _int_field(cell, "n")
    return payload


def _compute_sweep_agg(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.analysis.sweep import SweepResult, make_sweep_point

    points = []
    for cell, doc in zip(payload["cells"], inputs):
        point = make_sweep_point(cell["label"], cell["n"], doc.get("t_star"))
        if point is not None:
            points.append(point)
    return SweepResult(points=points).to_doc()


def _canonical_bounds(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"n"}:
        raise TaskError(f"'bounds' payload accepts only 'n', got {sorted(payload)}")
    return {"n": _int_field(payload, "n")}


def _compute_bounds(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.core import bounds as B

    n = payload["n"]
    return {
        "n": n,
        "trivial": B.trivial_upper_bound(n),
        "nlogn": B.nlogn_upper_bound(n),
        "loglog": B.fugger_nowak_winkler_upper_bound(n),
        "new": B.upper_bound(n),
        "lower": B.lower_bound(n),
    }


def _canonical_exact(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"n", "max_states"}:
        raise TaskError(
            f"'exact-solve' payload accepts 'n' and 'max_states', got {sorted(payload)}"
        )
    doc = {"n": _int_field(payload, "n")}
    if "max_states" in payload:
        doc["max_states"] = _int_field(payload, "max_states")
    return doc


def _compute_exact(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.adversaries.exact import ExactGameSolver

    kwargs = {}
    if "max_states" in payload:
        kwargs["max_states"] = payload["max_states"]
    result = ExactGameSolver(payload["n"], **kwargs).solve()
    return {
        "n": payload["n"],
        "t_star": int(result.t_star),
        "states_explored": int(result.states_explored),
    }


_GOSSIP_FAMILIES = ("adversarial-path", "random-tree")


def _canonical_gossip(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"n", "family", "seed", "max_rounds"}:
        raise TaskError(f"unknown 'gossip' payload keys in {sorted(payload)}")
    family = payload.get("family")
    if family not in _GOSSIP_FAMILIES:
        raise TaskError(
            f"'gossip' family must be one of {_GOSSIP_FAMILIES}, got {family!r}"
        )
    doc = {
        "n": _int_field(payload, "n"),
        "family": family,
        "seed": _int_field(payload, "seed", minimum=0, default=0),
    }
    max_rounds = payload.get("max_rounds")
    if max_rounds is not None:
        doc["max_rounds"] = _int_field(payload, "max_rounds")
    else:
        doc["max_rounds"] = None
    return doc


def _compute_gossip(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.adversaries.oblivious import RandomTreeAdversary, StaticTreeAdversary
    from repro.gossip.gossip import gossip_time_adversary
    from repro.trees.generators import path

    n = payload["n"]
    if payload["family"] == "adversarial-path":
        adversary = StaticTreeAdversary(path(n))
    else:
        adversary = RandomTreeAdversary(n, seed=payload["seed"])
    result = gossip_time_adversary(adversary, n, max_rounds=payload["max_rounds"])
    return {
        "n": n,
        "broadcast_time": result.broadcast_time,
        "gossip_time": result.gossip_time,
    }


def _canonical_nonsplit(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"ns", "graph_seed", "rng_seed"}:
        raise TaskError(f"unknown 'nonsplit-bridge' payload keys in {sorted(payload)}")
    ns = payload.get("ns")
    if not isinstance(ns, list) or not ns:
        raise TaskError("'nonsplit-bridge' payload needs a non-empty 'ns' list")
    for value in ns:
        if isinstance(value, bool) or not isinstance(value, int) or value < 2:
            raise TaskError(f"'ns' entries must be integers >= 2, got {value!r}")
    return {
        "ns": [int(v) for v in ns],
        "graph_seed": _int_field(payload, "graph_seed", minimum=0, default=1),
        "rng_seed": _int_field(payload, "rng_seed", minimum=0, default=0),
    }


def _compute_nonsplit(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    import numpy as np

    from repro.adversaries.nonsplit import (
        NonsplitAdversary,
        broadcast_time_nonsplit,
        cyclic_nonsplit_graph,
        nonsplit_radius,
    )
    from repro.gossip.consensus import blocks_are_nonsplit
    from repro.trees.generators import random_tree

    # One RNG stream runs across the whole ns list: each n draws its
    # witness trees where the previous n stopped, so the rows depend on
    # each other -- which is why this is a single task rather than a
    # per-n grid.
    rng = np.random.default_rng(payload["rng_seed"])
    rows = []
    for n in payload["ns"]:
        radius = nonsplit_radius(cyclic_nonsplit_graph(n))
        t, _ = broadcast_time_nonsplit(
            NonsplitAdversary(n, seed=payload["graph_seed"]), n
        )
        trees = [random_tree(n, rng) for _ in range(n - 1)]
        rows.append(
            {
                "n": n,
                "radius": int(radius),
                "t_star": int(t),
                "lemma_nonsplit": bool(blocks_are_nonsplit(trees, n)),
            }
        )
    return {"rows": rows}


def _canonical_arc_game(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"n", "solver_limit"}:
        raise TaskError(f"unknown 'arc-game' payload keys in {sorted(payload)}")
    return {
        "n": _int_field(payload, "n"),
        "solver_limit": _int_field(payload, "solver_limit", default=6),
    }


def _compute_arc_game(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.adversaries.interval_game import arc_game_value

    n = payload["n"]
    # The restricted game's value is n-1 (the exact solver finds it for
    # every n it reaches); beyond ``solver_limit`` the exponential solve
    # is skipped and that value reported.
    value = arc_game_value(n) if n <= payload["solver_limit"] else n - 1
    return {"n": n, "value": int(value)}


def _canonical_anneal(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    payload = _canonical_payload(raw)
    if set(payload) - {"n", "iterations", "seed"}:
        raise TaskError(f"unknown 'anneal' payload keys in {sorted(payload)}")
    return {
        "n": _int_field(payload, "n", minimum=2),
        "iterations": _int_field(payload, "iterations", default=400),
        "seed": _int_field(payload, "seed", minimum=0, default=0),
    }


def _compute_anneal(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.adversaries.annealing import anneal_sequence

    result = anneal_sequence(
        payload["n"], iterations=payload["iterations"], seed=payload["seed"]
    )
    return {"n": payload["n"], "best_t_star": int(result.best_t_star)}


def _canonical_experiment(raw: Mapping[str, Any], n_inputs: int) -> Dict[str, Any]:
    from repro.experiments.registry import get_experiment, known_experiment_ids

    payload = _canonical_payload(raw)
    if set(payload) - {"experiment"}:
        raise TaskError(
            f"'experiment' payload accepts only 'experiment', got {sorted(payload)}"
        )
    eid = payload.get("experiment")
    if eid not in known_experiment_ids():
        raise TaskError(
            f"unknown experiment {eid!r}; known: {sorted(known_experiment_ids())}"
        )
    # Aggregations are positional folds over the declared unit grid; the
    # wrong arity must be rejected here, not fabricate a truncated table.
    expected = len(get_experiment(eid).units())
    if n_inputs != expected:
        raise TaskError(
            f"experiment {eid} aggregates exactly {expected} unit inputs "
            f"(its declared grid), got {n_inputs}"
        )
    return {"experiment": eid}


def _compute_experiment(
    payload: Dict[str, Any], inputs: List[Dict[str, Any]]
) -> Dict[str, Any]:
    from repro.experiments.registry import get_experiment, table_to_doc

    spec = get_experiment(payload["experiment"])
    return table_to_doc(spec.aggregate(inputs))


def _register_builtins() -> None:
    register_codec("json", _identity_doc, _identity_doc)
    register_codec("run-report", report_to_doc, report_from_doc)
    register_codec("sweep-result", _encode_sweep, _decode_sweep)
    register_codec("experiment-table", _encode_table, _decode_table)

    register_task_kind(
        "run",
        compute=None,
        canonicalize=_canonical_run_payload,
        codec="run-report",
        description="one broadcast run (canonical run spec); executor-dispatched",
    )
    register_task_kind(
        "sweep-agg",
        compute=_compute_sweep_agg,
        canonicalize=_canonical_sweep_agg,
        codec="sweep-result",
        description="fold run-cell inputs into a SweepResult grid",
    )
    register_task_kind(
        "bounds",
        compute=_compute_bounds,
        canonicalize=_canonical_bounds,
        description="every Figure 1 bound formula at one n",
    )
    register_task_kind(
        "exact-solve",
        compute=_compute_exact,
        canonicalize=_canonical_exact,
        description="exhaustive game solve (small n): exact t* + states",
    )
    register_task_kind(
        "gossip",
        compute=_compute_gossip,
        canonicalize=_canonical_gossip,
        description="gossip completion time for one adversary family",
    )
    register_task_kind(
        "nonsplit-bridge",
        compute=_compute_nonsplit,
        canonicalize=_canonical_nonsplit,
        description="nonsplit radius/broadcast/lemma rows over an ns list",
    )
    register_task_kind(
        "arc-game",
        compute=_compute_arc_game,
        canonicalize=_canonical_arc_game,
        description="restricted rotated-paths game value (solver or proved)",
    )
    register_task_kind(
        "anneal",
        compute=_compute_anneal,
        canonicalize=_canonical_anneal,
        description="simulated-annealing best t* over tree sequences",
    )
    register_task_kind(
        "experiment",
        compute=_compute_experiment,
        canonicalize=_canonical_experiment,
        codec="experiment-table",
        description="pure aggregation of one E1..E8 experiment's inputs",
    )


_register_builtins()


__all__ = [
    "TASK_STATES",
    "TASK_VERSION",
    "Codec",
    "GraphRun",
    "TaskGraph",
    "TaskGraphRunner",
    "TaskInflight",
    "TaskKindEntry",
    "TaskSpec",
    "canonical_task",
    "describe_task_kinds",
    "get_codec",
    "get_task_kind",
    "graph_digest",
    "initial_statuses",
    "register_codec",
    "register_task_kind",
    "run_graph",
    "sweep_graph",
    "task_digest",
    "task_kind_names",
    "unregister_task_kind",
]
