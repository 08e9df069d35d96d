"""Thread-based job scheduler: queue, dedup, batch dispatch, failure isolation.

:class:`JobScheduler` turns the executor stack into a long-lived service
core.  Submissions are declarative specs (:mod:`repro.service.specs`) or
whole task graphs (:mod:`repro.service.tasks`); each becomes a
:class:`Job` with the usual lifecycle
``queued -> running -> done | failed``.

Task-graph jobs (``kind="graph"``) are scheduled topologically: ready
``run`` tasks batch through the executor, pure compute kinds run in
dependency order, per-node statuses are mirrored live onto the job
(``GET /v1/tasks/<id>``), a failing task poisons only its downstream
tasks, and a shared :class:`~repro.service.tasks.TaskInflight` registry
dedups each task digest across concurrently-running graphs.  Sweep jobs
(``kind="sweep"``) run the same way, as the graph
:func:`~repro.service.tasks.sweep_graph` builds: one ``run`` task per
grid cell, so every cell shares its cache entry with ``/v1/runs``.

Three properties make it a *service* rather than a loop:

* **content-addressed dedup** -- a submit whose digest matches a cached
  result completes instantly (``cached=True``); one matching an in-flight
  job returns *that* job instead of enqueueing a duplicate.  Under any
  number of concurrent submitters, each unique digest is computed exactly
  once (the ``computations`` counter is the proof the HTTP ``/metrics``
  endpoint exposes);
* **batched dispatch** -- the worker drains every queued run job it can
  see and groups the compatible ones (same ``n``/backend/round cap) into
  a single :meth:`Executor.run_many` call, so a burst of submissions
  rides the vectorized :class:`~repro.engine.executor.BatchExecutor`
  kernels instead of running one-by-one;
* **failure isolation** -- if a batched dispatch raises, the batch is
  retried spec-by-spec on a sequential executor so exactly the offending
  jobs fail (error message recorded on the job) while the rest of the
  batch still completes.

The scheduler owns worker *threads*, not processes: executor dispatch is
numpy-heavy (releases the GIL) or process-sharded (the ``sharded``
executor brings its own pool), so threads are the right concurrency
currency at this layer.

With a :class:`~repro.service.journal.JobJournal` attached the scheduler
is also *durable*: every submission (full spec payload) and every state
transition is journaled, :meth:`JobScheduler.stop` drains in-flight jobs
to ``interrupted`` instead of losing them, and
:meth:`JobScheduler.recover` replays the journal on startup --
re-resolving completed jobs from the content-addressed cache and
re-enqueueing the unfinished frontier, so a killed server resumes task
graphs with zero recomputation of cached work.
"""

from __future__ import annotations

import itertools
import re
import secrets
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.engine.executor import Executor, get_executor
from repro.errors import ServiceError
from repro.obs import trace as _trace
from repro.obs.metrics import CounterMap, Registry
from repro.service.cache import ResultCache, report_to_doc
from repro.service.journal import JobJournal, JournalEntry
from repro.service.specs import (
    canonical_run_spec,
    canonical_sweep_spec,
    spec_digest,
    to_run_spec,
)
from repro.service.tasks import (
    TaskGraph,
    TaskGraphRunner,
    TaskInflight,
    graph_digest,
    initial_statuses,
    sweep_graph,
)
from repro.service.tenancy import DEFAULT_TENANT, TenantRegistry

#: The job lifecycle; ``done``/``failed`` are terminal.  ``interrupted``
#: marks jobs a stopping scheduler drained mid-run: they are journaled as
#: unfinished and re-enqueued by :meth:`JobScheduler.recover` (new
#: process) or :meth:`JobScheduler.start` (same process).
JOB_STATES = ("queued", "running", "interrupted", "done", "failed")


@dataclass
class Job:
    """One submitted spec and its lifecycle state.

    ``result`` holds the serialized outcome once ``done``: a run-report
    document (:func:`repro.service.cache.report_to_doc`) for run jobs, a
    serialized :class:`~repro.analysis.sweep.SweepResult` document for
    sweep jobs, and a ``{"tasks", "outputs", "stats"}`` document for
    task-graph jobs.  ``cached=True`` marks jobs answered straight from
    the result cache without computing anything.  Graph jobs additionally
    carry ``nodes`` -- the live per-task status map mirrored into
    ``GET /v1/tasks/<id>`` while the graph executes.
    """

    job_id: str
    kind: str  # "run" | "sweep" | "graph"
    digest: str
    spec: Dict[str, Any]
    status: str = "queued"
    cached: bool = False
    tenant: str = DEFAULT_TENANT
    error: Optional[str] = None
    result: Optional[Dict[str, Any]] = field(default=None, repr=False)
    nodes: Optional[Dict[str, Dict[str, Any]]] = field(default=None, repr=False)
    #: Trace context captured at submit time (``TraceContext.to_doc()``):
    #: workers re-activate it around dispatch so the job's spans join the
    #: submitting request's trace tree.  ``None`` when no trace was
    #: active and no ``traceparent`` header arrived.
    trace: Optional[Dict[str, str]] = field(default=None, repr=False)
    #: Monotonic update counter: bumped on every status or per-node
    #: change.  Long-poll watchers (``GET /v1/tasks/<id>?watch=<v>``)
    #: block until it moves past the version they already saw.
    version: int = 0

    @property
    def finished(self) -> bool:
        """True in a terminal state (``done`` or ``failed``)."""
        return self.status in ("done", "failed")

    def to_doc(self, include_result: bool = True) -> Dict[str, Any]:
        """JSON document the HTTP API serves for this job."""
        doc = {
            "job_id": self.job_id,
            "kind": self.kind,
            "digest": self.digest,
            "spec": self.spec,
            "status": self.status,
            "cached": self.cached,
            "tenant": self.tenant,
            "error": self.error,
            "version": self.version,
        }
        if self.trace is not None:
            doc["trace_id"] = self.trace.get("trace_id")
        if self.nodes is not None:
            doc["tasks"] = {d: dict(node) for d, node in self.nodes.items()}
        if include_result:
            doc["result"] = self.result
        return doc


class JobScheduler:
    """Job queue + dedup + batching over one executor and one result cache.

    Parameters
    ----------
    executor:
        Executor name or instance used for dispatch (default ``"batch"``,
        which groups compatible specs into lockstep tensors).
    cache:
        Shared :class:`~repro.service.cache.ResultCache`; a fresh
        memory-only cache is created when omitted.
    workers:
        Worker *threads* draining the queue (default 1; batching, not
        thread count, is the throughput lever).
    max_batch:
        Upper bound on jobs per dispatch group.
    max_finished_jobs:
        How many terminal (``done``/``failed``) job records to retain for
        ``GET /v1/runs/<id>`` polling; the oldest are evicted past it, so
        a long-lived server's memory stays bounded (results themselves
        live on in the LRU/persistent cache).  An evicted id answers
        "unknown job" -- clients are expected to poll promptly.
    journal:
        Optional :class:`~repro.service.journal.JobJournal` (or a path to
        open one at).  When set, every submission and state transition is
        journaled, and :meth:`recover` replays the file on startup:
        terminal jobs re-resolve from the result cache, the unfinished
        frontier re-enqueues.  Pair it with a *persistent* cache so a
        resumed task graph recomputes only its never-finished nodes.
    tenancy:
        Optional :class:`~repro.service.tenancy.TenantRegistry`.  When
        set, submissions are checked against the submitting tenant's
        byte/job quotas (:class:`~repro.errors.QuotaExceededError` -> 429)
        and every job's cache bytes are charged to its tenant's account,
        reported under ``/metrics`` ``tenants``.  Shared digests stay
        deduplicated in the cache; accounting is per-tenant use.
    watch_grace:
        Seconds after its last long-poll during which a terminal job is
        exempt from retention eviction, so an active watcher's next
        ``?watch=`` poll still finds the finished job instead of a 404.
    registry:
        Optional :class:`~repro.obs.metrics.Registry` the scheduler's
        counters register into (the server passes its own so one
        ``/metrics?format=prometheus`` scrape covers both layers); a
        private registry is created when omitted.
    """

    def __init__(
        self,
        executor: Any = "batch",
        cache: Optional[ResultCache] = None,
        workers: int = 1,
        max_batch: int = 64,
        max_finished_jobs: int = 4096,
        journal: Optional[Union[JobJournal, str, Path]] = None,
        tenancy: Optional[TenantRegistry] = None,
        watch_grace: float = 120.0,
        registry: Optional[Registry] = None,
        fleet: Optional[Any] = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if max_finished_jobs < 1:
            raise ServiceError(
                f"max_finished_jobs must be >= 1, got {max_finished_jobs}"
            )
        self._executor: Executor = get_executor(executor)
        self.cache = cache if cache is not None else ResultCache()
        self._task_inflight = TaskInflight()
        self._max_batch = max_batch
        self._workers = workers
        self._cv = threading.Condition()
        self._jobs: Dict[str, Job] = {}
        self._queue: List[str] = []  # job_ids, FIFO
        self._inflight: Dict[str, str] = {}  # digest -> job_id
        self._finished: "deque[str]" = deque()  # terminal job_ids, oldest first
        self._max_finished = max_finished_jobs
        self._ids = itertools.count(1)
        # Counters live in the typed registry (shared with the HTTP layer
        # when the server passes its own) but keep the legacy dict keys on
        # /metrics via CounterMap.to_dict().
        self.registry = registry if registry is not None else Registry()
        self._counters = CounterMap(
            self.registry,
            "repro_scheduler",
            (
                "submitted",
                "dedup_inflight",
                "computations",
                "dispatches",
                "failures",
                "recovered_jobs",
            ),
            help="Scheduler lifecycle counter",
        )
        self._submitted_by_tenant = self.registry.counter(
            "repro_jobs_submitted_by_tenant_total",
            "Jobs submitted, labelled by tenant",
            labelnames=("tenant",),
        )
        self._threads: List[threading.Thread] = []
        self._stopping = False
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self._journal: Optional[JobJournal] = journal
        self._recovered = False
        self.tenancy = tenancy
        # The distributed WorkQueue when the server runs with the fleet
        # enabled; referenced only for metrics and lease recovery (the
        # executor wrapping happens in ServiceServer).
        self._fleet = fleet
        # Long-poll watcher bookkeeping: active watcher counts, the
        # monotonic deadline until which a recently-watched job must
        # survive retention, and terminal jobs whose eviction was
        # deferred because a watcher was (recently) attached.
        self._watch_grace = max(0.0, watch_grace)
        self._watching: Dict[str, int] = {}
        self._watched_until: Dict[str, float] = {}
        self._watch_deferred: Set[str] = set()
        # Tenants sharing each in-flight digest (the submitter plus any
        # deduped duplicates): all of them are charged when it finishes.
        self._tenant_waiters: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "JobScheduler":
        """Spin up the worker threads (idempotent).

        Jobs a previous :meth:`stop` drained to ``interrupted`` (same
        process) are re-enqueued first, so a stop/start cycle resumes
        them exactly like a journal recovery would across processes.
        """
        with self._cv:
            if self._threads:
                return self
            self._stopping = False
            for job in self._jobs.values():
                if job.status == "interrupted":
                    job.status = "queued"
                    job.version += 1
                    self._queue.append(job.job_id)
                    self._journal_state(job.job_id, "queued")
            for i in range(self._workers):
                t = threading.Thread(
                    target=self._worker_loop, name=f"repro-scheduler-{i}", daemon=True
                )
                t.start()
                self._threads.append(t)
            self._cv.notify_all()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain the workers; unfinished jobs stay recoverable.

        Idempotent under concurrent callers (``POST /v1/shutdown`` racing
        SIGTERM): the thread list is swapped out under the lock, so only
        one caller joins, and the drain below only touches jobs still
        ``running``.  After the workers are joined, any job a worker
        still held (a dispatch that outlived ``timeout``, or a worker
        stopped between taking and finishing a group) is marked
        ``interrupted`` -- in memory *and* in the journal -- so its
        failure record is never silently lost and a restart re-enqueues
        it.  Queued jobs stay queued (their journaled state already says
        so).
        """
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
            threads, self._threads = self._threads, []
        for t in threads:
            t.join(timeout=timeout)
        with self._cv:
            for job in self._jobs.values():
                if job.status == "running":
                    job.status = "interrupted"
                    job.version += 1
                    self._journal_state(job.job_id, "interrupted")
            self._cv.notify_all()

    def __enter__(self) -> "JobScheduler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    @property
    def journal(self) -> Optional[JobJournal]:
        """The attached job journal, if any (read-only)."""
        return self._journal

    def _journal_submit(self, job: Job) -> None:
        if self._journal is not None:
            self._journal.record_submit(
                job.job_id,
                job.kind,
                job.digest,
                dict(job.spec),
                tenant=job.tenant,
                trace_id=(job.trace or {}).get("trace_id"),
            )

    def _journal_state(self, job_id: str, status: str, error: Optional[str] = None) -> None:
        if self._journal is not None:
            self._journal.record_state(job_id, status, error=error)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _submit(
        self,
        kind: str,
        spec: Dict[str, Any],
        digest: str,
        nodes: Optional[Dict[str, Dict[str, Any]]] = None,
        tenant: str = DEFAULT_TENANT,
    ) -> Job:
        if self.tenancy is not None:
            # Quota gate before any state changes: an over-quota tenant's
            # submission must not enqueue, dedup, or touch the cache.
            self.tenancy.check_quota(tenant)
        # Captured outside the lock: the submitting thread's active trace
        # context (the request span, or an incoming traceparent header).
        ctx = _trace.current_context()
        with self._cv:
            self._counters.inc("submitted")
            self._submitted_by_tenant.inc(tenant=tenant)
            # In-flight dedup first: it must win over a cache probe so the
            # dedup path never skews hit/miss counters.
            existing = self._inflight.get(digest)
            if existing is not None:
                self._counters.inc("dedup_inflight")
                if self.tenancy is not None:
                    # The duplicate submitter shares the in-flight job but
                    # is accounted (and later charged) as its own use.
                    self.tenancy.on_submit(tenant)
                    self._tenant_waiters.setdefault(digest, set()).add(tenant)
                return self._jobs[existing]
            job = Job(
                job_id=f"job-{next(self._ids):06d}",
                kind=kind,
                digest=digest,
                spec=spec,
                tenant=tenant,
                trace=ctx.to_doc() if ctx is not None else None,
            )
            cached = self.cache.lookup(digest, kind=kind)
            if cached is not None:
                job.status = "done"
                job.cached = True
                job.result = cached
                if nodes is not None:  # graph jobs: statuses from the cached run
                    job.nodes = {
                        d: dict(node)
                        for d, node in cached.get("tasks", {}).items()
                    }
                self._jobs[job.job_id] = job
                self._retire(job)
                self._journal_submit(job)
                self._journal_state(job.job_id, "done")
                if self.tenancy is not None:
                    self.tenancy.on_cached(
                        tenant, digest, self.cache.entry_nbytes(digest) or 0
                    )
                self._cv.notify_all()
                return job
            # Node statuses must exist before the job is visible to a
            # worker: an on_update firing against nodes=None would be lost.
            job.nodes = nodes
            self._jobs[job.job_id] = job
            self._inflight[digest] = job.job_id
            self._queue.append(job.job_id)
            self._journal_submit(job)
            if self.tenancy is not None:
                self.tenancy.on_submit(tenant)
                self._tenant_waiters.setdefault(digest, set()).add(tenant)
            self._cv.notify_all()
            return job

    def submit_run(
        self, raw_spec: Dict[str, Any], tenant: str = DEFAULT_TENANT
    ) -> Job:
        """Submit one run spec; returns the (possibly pre-existing) job."""
        spec = canonical_run_spec(raw_spec)
        return self._submit("run", spec, spec_digest(spec), tenant=tenant)

    def submit_sweep(
        self, raw_spec: Dict[str, Any], tenant: str = DEFAULT_TENANT
    ) -> Job:
        """Submit one sweep spec; it runs as a task graph of run cells."""
        spec = canonical_sweep_spec(raw_spec)
        return self._submit("sweep", spec, spec_digest(spec), tenant=tenant)

    def submit_tasks(
        self, raw: Dict[str, Any], tenant: str = DEFAULT_TENANT
    ) -> Job:
        """Submit a task graph; returns the (possibly pre-existing) job.

        ``raw`` is a graph document: ``{"tasks": [...], "outputs":
        [...]}`` with inputs referenced by digest or by earlier-task
        index (see :meth:`repro.service.tasks.TaskGraph.from_doc`).
        Raises :class:`~repro.errors.TaskError` on malformed graphs --
        a digest never exists for an invalid graph.
        """
        graph, outputs = TaskGraph.from_doc(raw)
        spec = graph.to_doc()
        spec["outputs"] = list(outputs)
        return self._submit(
            "graph",
            spec,
            graph_digest(graph, outputs),
            nodes=initial_statuses(graph),
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Job:
        """Look up a job by id; :class:`ServiceError` on unknown ids."""
        with self._cv:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job id {job_id!r}") from None

    def wait(self, job_id: str, timeout: Optional[float] = 30.0) -> Job:
        """Block until the job reaches a terminal state (or time out)."""
        job = self.job(job_id)
        with self._cv:
            if not self._cv.wait_for(lambda: job.finished, timeout=timeout):
                raise ServiceError(
                    f"job {job_id} still {job.status!r} after {timeout}s"
                )
        return job

    def wait_for_update(
        self, job_id: str, version: int = -1, timeout: Optional[float] = 30.0
    ) -> Job:
        """Long-poll: block until the job moves past ``version``.

        Returns as soon as ``job.version != version`` (any status or
        per-node transition bumps it) or the job is already terminal;
        otherwise returns the unchanged job after ``timeout``.  Pass the
        ``version`` from the last document you saw (``-1`` to get the
        current state immediately) -- this is the push-update primitive
        behind ``GET /v1/tasks/<id>?watch=<version>``.

        Watching also *pins* the job against retention eviction: while a
        watcher is attached -- and for ``watch_grace`` seconds after the
        last one detaches -- a terminal job cannot be retired, so a
        long-poller's next request finds the final document instead of
        an "unknown job id" 404.
        """
        with self._cv:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise ServiceError(f"unknown job id {job_id!r}") from None
            self._watching[job_id] = self._watching.get(job_id, 0) + 1
            try:
                self._cv.wait_for(
                    lambda: job.finished or job.version != version, timeout=timeout
                )
            finally:
                remaining = self._watching[job_id] - 1
                if remaining:
                    self._watching[job_id] = remaining
                else:
                    del self._watching[job_id]
                self._watched_until[job_id] = time.monotonic() + self._watch_grace
        return job

    def metrics(self) -> Dict[str, Any]:
        """Counter snapshot: jobs by state, scheduler counters, cache stats.

        Consistency contract: each top-level block is a consistent
        snapshot under its *owner's* lock -- ``jobs``/``queue_depth``/
        ``inflight``/``journal_bytes`` under the scheduler lock, the
        lifecycle counters under their per-instrument locks, ``cache``
        under the cache's lock, ``tenants`` under the tenant registry's
        -- but no lock is held across blocks, so blocks may be mutually
        stale by whatever completed between their snapshots.  That is
        deliberate: ``/metrics`` must never serialize against dispatch,
        and cross-block arithmetic (e.g. ``submitted - jobs.done``) is
        only ever approximate on a live server.
        """
        with self._cv:
            by_state = {state: 0 for state in JOB_STATES}
            for job in self._jobs.values():
                by_state[job.status] += 1
            doc = {
                "jobs": by_state,
                "queue_depth": len(self._queue),
                "inflight": len(self._inflight),
                "journal_bytes": 0 if self._journal is None else self._journal.nbytes,
            }
        doc.update(self._counters.to_dict())
        doc["cache"] = self.cache.stats()
        if self.tenancy is not None:
            doc["tenants"] = self.tenancy.metrics()
        if self._fleet is not None:
            doc["fleet"] = self._fleet.metrics()
        return doc

    def queue_depth(self) -> int:
        """How many jobs are queued right now (the backpressure signal)."""
        with self._cv:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> int:
        """Replay the journal; returns how many jobs were re-enqueued.

        Idempotent, and a no-op without a journal.  For every journaled
        job (in submission order):

        * ``done`` -- re-resolved from the content-addressed result
          cache; a hit restores the job (``cached=True``) without any
          computation.  A miss (the cache file was lost or trimmed) puts
          the job back on the queue instead -- recovery must never
          fabricate results;
        * ``failed`` -- restored with its recorded error (the failure
          record survives the restart);
        * ``queued`` / ``running`` / ``interrupted`` -- the unfinished
          frontier: re-enqueued for the workers, counted in the
          ``recovered_jobs`` metric.  Graph jobs rebuild their per-node
          status maps from the journaled graph document; node results
          computed before the crash hit the persistent cache during the
          re-dispatch, so only never-finished nodes recompute.

        The job-id counter advances past every replayed id, so new
        submissions never collide with recovered ones.
        """
        if self._journal is None:
            return 0
        with self._cv:
            if self._recovered:
                return 0
            self._recovered = True
        if self._fleet is not None:
            # Leases granted but never completed before the crash: the
            # remote work can no longer land (the queue restarts empty),
            # so count what the restart cost the fleet.
            self._fleet.recover(self._journal)
        entries = self._journal.replay()
        recovered = 0
        max_seen = 0
        with self._cv:
            for entry in entries.values():
                match = re.fullmatch(r"job-(\d+)", entry.job_id)
                if match:
                    max_seen = max(max_seen, int(match.group(1)))
                if entry.job_id in self._jobs:
                    continue
                if self._restore(entry):
                    recovered += 1
            if max_seen:
                self._ids = itertools.count(max_seen + 1)
            self._counters.inc("recovered_jobs", recovered)
            self._cv.notify_all()
        return recovered

    def _restore(self, entry: JournalEntry) -> bool:
        """Under the lock: rebuild one journaled job.  True if re-enqueued."""
        job = Job(
            job_id=entry.job_id,
            kind=entry.kind,
            digest=entry.digest,
            spec=entry.spec,
            tenant=entry.tenant,
            # The journal persists only the trace id; a fresh span id keeps
            # the restored job's spans in the original request's trace
            # (they surface as a new root -- the pre-crash spans are gone).
            trace=(
                {"trace_id": entry.trace_id, "span_id": secrets.token_hex(8)}
                if entry.trace_id
                else None
            ),
        )
        if entry.status == "failed":
            job.status = "failed"
            job.error = entry.error or "failed before restart (journal)"
            self._jobs[job.job_id] = job
            self._retire(job)
            return False
        if entry.status == "done":
            cached = self.cache.lookup(entry.digest, kind=entry.kind)
            if cached is not None:
                job.status = "done"
                job.cached = True
                job.result = cached
                if job.kind == "graph":
                    job.nodes = {
                        d: dict(node) for d, node in cached.get("tasks", {}).items()
                    }
                self._jobs[job.job_id] = job
                self._retire(job)
                return False
            # The result is gone (cache trimmed/lost): fall through and
            # recompute rather than serve a "done" job with no result.
        # The unfinished frontier (queued/running/interrupted, or a done
        # job whose result vanished): re-enqueue under the original id.
        if entry.digest in self._inflight:
            # A duplicate digest (possible only when an older completed
            # job's cache entry was evicted and the spec was resubmitted)
            # is already queued; restoring a second queued copy would
            # wait forever.  Skip it -- its id answers "unknown job".
            return False
        if entry.kind == "graph":
            try:
                graph, _ = TaskGraph.from_doc(entry.spec)
            except Exception as exc:
                job.status = "failed"
                job.error = f"unrecoverable graph spec: {type(exc).__name__}: {exc}"
                self._jobs[job.job_id] = job
                self._retire(job)
                self._journal_state(job.job_id, "failed", error=job.error)
                return False
            job.nodes = initial_statuses(graph)
        self._jobs[job.job_id] = job
        self._inflight[job.digest] = job.job_id
        self._queue.append(job.job_id)
        self._journal_state(job.job_id, "queued")
        return True

    # ------------------------------------------------------------------
    # Worker
    # ------------------------------------------------------------------

    def _take_group(self) -> List[Job]:
        """Under the lock: pop the next compatible dispatch group.

        The head of the queue fixes the group shape: sweep and graph
        jobs run alone; a run job pulls every other queued run job that
        shares its ``(n, backend, max_rounds)`` (up to ``max_batch``),
        which is exactly the grouping
        :class:`~repro.engine.executor.BatchExecutor` vectorizes.
        """
        head = self._jobs[self._queue.pop(0)]
        head.status = "running"
        head.version += 1
        self._journal_state(head.job_id, "running")
        if head.kind != "run":
            return [head]
        signature = (head.spec["n"], head.spec["backend"], head.spec["max_rounds"])
        group = [head]
        remaining: List[str] = []
        for job_id in self._queue:
            job = self._jobs[job_id]
            if (
                len(group) < self._max_batch
                and job.kind == "run"
                and (job.spec["n"], job.spec["backend"], job.spec["max_rounds"])
                == signature
            ):
                job.status = "running"
                job.version += 1
                self._journal_state(job.job_id, "running")
                group.append(job)
            else:
                remaining.append(job_id)
        self._queue = remaining
        self._cv.notify_all()  # queued -> running is watchable too
        return group

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                self._cv.wait_for(lambda: self._queue or self._stopping)
                if self._stopping:
                    return
                group = self._take_group()
            head = group[0]
            try:
                # Re-activate the submitting request's trace context on
                # this worker thread: the job span (and everything the
                # dispatch opens beneath it) joins the request's tree.
                with _trace.context(_trace.TraceContext.from_doc(head.trace)):
                    with _trace.span(
                        "job", job_id=head.job_id, kind=head.kind, jobs=len(group)
                    ):
                        if head.kind == "sweep":
                            self._dispatch_sweep(head)
                        elif head.kind == "graph":
                            self._dispatch_graph(head)
                        else:
                            self._dispatch_runs(group)
            except Exception as exc:  # a worker thread must never die
                for job in group:
                    if not job.finished:
                        self._finish(job, None, f"{type(exc).__name__}: {exc}")

    def _retire(self, job: Job) -> None:
        """Under the lock: record a terminal job, evicting the oldest past
        the retention bound (results stay reachable through the cache).

        Jobs with an attached long-poll watcher -- or watched within the
        last ``watch_grace`` seconds -- are deferred instead of evicted,
        so an active watcher's next poll still finds the terminal
        document; deferred jobs are re-examined on later retirements and
        dropped once their grace expires.
        """
        now = time.monotonic()
        for job_id in list(self._watch_deferred):
            if (
                self._watching.get(job_id, 0) == 0
                and self._watched_until.get(job_id, 0.0) <= now
            ):
                self._watch_deferred.discard(job_id)
                self._watched_until.pop(job_id, None)
                self._jobs.pop(job_id, None)
        self._finished.append(job.job_id)
        while len(self._finished) > self._max_finished:
            victim = self._finished.popleft()
            if (
                self._watching.get(victim, 0) > 0
                or self._watched_until.get(victim, 0.0) > now
            ):
                self._watch_deferred.add(victim)
                continue
            self._watched_until.pop(victim, None)
            self._jobs.pop(victim, None)

    def _finish(self, job: Job, result: Optional[Dict[str, Any]], error: Optional[str]) -> None:
        """Publish a terminal state; cache success before releasing dedup."""
        if error is None:
            # Store before dropping the in-flight claim so a concurrent
            # submit always sees either the claim or the cached result --
            # never a gap where it would recompute.
            self.cache.store(job.digest, job.kind, result)
        with self._cv:
            job.result = result
            job.error = error
            job.status = "done" if error is None else "failed"
            job.version += 1
            if error is not None:
                self._counters.inc("failures")
            self._inflight.pop(job.digest, None)
            self._retire(job)
            self._journal_state(job.job_id, job.status, error=error)
            if self.tenancy is not None:
                nbytes = self.cache.entry_nbytes(job.digest) or 0
                waiters = self._tenant_waiters.pop(job.digest, {job.tenant})
                for tenant in waiters:
                    self.tenancy.on_finish(
                        tenant, job.digest, nbytes, failed=error is not None
                    )
            self._cv.notify_all()

    def _dispatch_runs(self, group: List[Job]) -> None:
        specs = [to_run_spec(job.spec) for job in group]
        with self._cv:
            self._counters.inc("dispatches")
        # One bad adversary must not fail its batch neighbours: the
        # settled dispatch retries spec-by-spec on failure so exactly the
        # offending jobs record errors while the rest complete.
        for job, outcome in zip(group, self._executor.run_many_settled(specs)):
            if isinstance(outcome, Exception):
                self._finish(job, None, f"{type(outcome).__name__}: {outcome}")
            else:
                with self._cv:
                    self._counters.inc("computations")
                self._finish(job, report_to_doc(outcome), None)

    def _dispatch_graph(self, job: Job) -> None:
        with self._cv:
            self._counters.inc("dispatches")
        graph, _ = TaskGraph.from_doc(job.spec)
        outputs = job.spec["outputs"]

        def on_update(digest: str, node: Dict[str, Any]) -> None:
            with self._cv:
                if job.nodes is not None:
                    job.nodes[digest] = node
                    job.version += 1
                    # Wake long-poll watchers on every node transition,
                    # not just terminal job states.
                    self._cv.notify_all()

        runner = TaskGraphRunner(
            executor=self._executor,
            cache=self.cache,
            inflight=self._task_inflight,
            on_update=on_update,
        )
        run = runner.run(graph, outputs)
        result = {
            "tasks": run.statuses,
            "outputs": {d: run.results.get(d) for d in outputs},
            "stats": run.stats,
        }
        missing = [d for d in outputs if d not in run.results]
        if missing:
            errors = {
                d[:16]: run.statuses[d].get("error") or run.statuses[d]["status"]
                for d in missing
            }
            # The partial result still carries per-node statuses; only
            # successful graphs are cached (``_finish`` skips on error).
            self._finish(job, result, f"graph outputs did not complete: {errors}")
            return
        with self._cv:
            self._counters.inc("computations")
        self._finish(job, result, None)

    def _dispatch_sweep(self, job: Job) -> None:
        with self._cv:
            self._counters.inc("dispatches")
        graph, output = sweep_graph(job.spec)
        run = TaskGraphRunner(
            executor=self._executor, cache=self.cache, inflight=self._task_inflight
        ).run(graph, [output])
        if output not in run.results:
            # Healthy cells are cached already; the job reports the first
            # failed cell's error.
            error = next(
                node["error"] for node in run.statuses.values() if node["status"] == "failed"
            )
            self._finish(job, None, error)
            return
        with self._cv:
            self._counters.inc("computations")
        self._finish(job, run.results[output], None)


__all__ = ["JOB_STATES", "Job", "JobScheduler"]
