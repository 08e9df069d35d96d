"""Pull-based distributed work queue + fleet executor.

This module is the server half of the distributed worker fleet
(:mod:`repro.service.worker` is the other half).  The design is the
classic lease-based pull queue used by production schedulers:

* :class:`WorkQueue` holds content-addressed *work items* -- canonical
  run specs keyed by :func:`repro.service.specs.spec_digest`.  Remote
  workers **claim** a batch of ready items (``POST /v1/work:claim``)
  and receive a lease id with a TTL; they renew via ``work:heartbeat``
  and land encoded :func:`~repro.service.cache.report_to_doc` results
  via ``work:complete``.  A lease whose deadline passes is *expired*:
  its outstanding items re-enter the ready set, so a SIGKILL'd worker
  costs only its in-flight batch.  A ``work:complete`` for an expired
  lease is dropped and counted (``late_completions``) -- landing is
  exactly-once per digest because results are keyed by content address
  and only live leases may land them.
* :class:`FleetExecutor` plugs the queue into the existing
  ``run_many`` / ``run_many_settled`` executor seam, so
  :class:`~repro.service.tasks.TaskGraphRunner` and the job scheduler
  dispatch to the fleet transparently.  Specs that carry a declarative
  :class:`~repro.service.specs.SpecHandle` are offered to the queue;
  anything a remote worker has not claimed within ``claim_deadline``
  seconds (immediately, when no worker has been seen recently) is
  withdrawn and executed by the local fallback executor -- a server
  with zero workers still completes every job at local speed.

Byte-identity is preserved by construction: both the remote worker and
the local fallback execute ``to_run_spec(payload)`` of the *same*
canonical spec, so the encoded result document is identical no matter
who computed it, how often the lease expired, or how many workers
raced.  Work items carry the submitting request's ``traceparent``
header, so worker spans attach to the same trace as the request that
created the work (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.executor import Executor, get_executor
from repro.errors import CacheError, LeaseExpiredError, ServiceError
from repro.obs import trace as _trace
from repro.service.cache import ResultCache, report_from_doc, report_to_doc
from repro.service.specs import spec_digest, to_run_spec

__all__ = ["WorkQueue", "FleetExecutor", "DEFAULT_LEASE_TTL"]

#: Default seconds a lease stays valid between heartbeats.
DEFAULT_LEASE_TTL = 15.0

#: A work item outcome: ``("ok", doc)`` or ``("error", message)``.
Outcome = tuple


class _WorkItem:
    """One offered digest and its lifecycle state.

    ``state`` is one of ``"ready"`` (claimable), ``"leased"`` (a worker
    holds it), ``"local"`` (withdrawn for fallback execution) or
    ``"resolved"`` (``outcome`` is set).  ``refs`` counts concurrent
    :meth:`WorkQueue.offer` callers waiting on the digest so the item
    is garbage-collected when the last waiter forgets it.
    """

    __slots__ = (
        "digest",
        "payload",
        "traceparent",
        "engine",
        "state",
        "outcome",
        "refs",
        "requeues",
        "stranded",
        "ready_since",
    )

    def __init__(
        self,
        digest: str,
        payload: Dict[str, Any],
        traceparent: Optional[str],
        engine: str,
        now: float,
    ) -> None:
        self.digest = digest
        self.payload = payload
        self.traceparent = traceparent
        self.engine = engine
        self.state = "ready"
        self.outcome: Optional[Outcome] = None
        self.refs = 1
        self.requeues = 0
        self.stranded = False
        self.ready_since = now


class _Lease:
    """A worker's claim over a batch of digests, valid until ``deadline``."""

    __slots__ = ("lease_id", "worker", "digests", "deadline", "ttl")

    def __init__(
        self, lease_id: str, worker: str, digests: List[str], deadline: float, ttl: float
    ) -> None:
        self.lease_id = lease_id
        self.worker = worker
        self.digests = list(digests)
        self.deadline = deadline
        self.ttl = ttl


def _worker_stats() -> Dict[str, Any]:
    return {
        "claims": 0,
        "items": 0,
        "completed": 0,
        "failed": 0,
        "lease_expiries": 0,
        "last_seen": 0.0,
    }


class WorkQueue:
    """Leased pull queue mapping spec digests to ready run payloads.

    All methods are thread-safe; one condition variable guards the
    whole structure (item dwell times are seconds, not microseconds,
    so a single lock is nowhere near contention).  ``clock`` is
    injectable (monotonic seconds) so lease expiry is testable with a
    virtual clock.

    Parameters
    ----------
    cache:
        Shared :class:`ResultCache`; validated remote results are
        stored under their digest as ``kind="run"`` entries, the same
        address ``/v1/runs`` uses, so fleet results are warm for every
        later submitter.
    lease_ttl:
        Seconds a lease survives without a heartbeat.
    max_requeues:
        After this many expiry-driven requeues an item is marked
        *stranded* and withdrawn to local fallback at the next
        opportunity regardless of the claim deadline (a poison batch
        must not ping-pong between crashing workers forever).
    journal:
        Optional :class:`repro.service.journal.JobJournal`; lease
        grant / complete / expire transitions are recorded so restart
        recovery can account for remote work that was in flight.
    """

    def __init__(
        self,
        cache: ResultCache,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_requeues: int = 3,
        journal: Optional[Any] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl!r}")
        self.cache = cache
        self.lease_ttl = float(lease_ttl)
        self.max_requeues = int(max_requeues)
        self._journal = journal
        self._clock = clock
        self._cv = threading.Condition()
        self._items: Dict[str, _WorkItem] = {}
        self._ready: "OrderedDict[str, None]" = OrderedDict()
        self._leases: Dict[str, _Lease] = {}
        self._workers: Dict[str, Dict[str, Any]] = {}
        self._lease_count = 0
        self.counters: Dict[str, int] = {
            "offered": 0,
            "claims": 0,
            "claimed_items": 0,
            "completions_ok": 0,
            "completions_err": 0,
            "lease_expiries": 0,
            "reclaimed": 0,
            "late_completions": 0,
            "invalid_results": 0,
            "local_fallbacks": 0,
            "stranded": 0,
            "recovered_lost_leases": 0,
        }

    # -- journal hooks -------------------------------------------------

    def _journal_lease(
        self, lease_id: str, worker: str, status: str, digests: Optional[List[str]] = None
    ) -> None:
        if self._journal is not None:
            self._journal.record_lease(lease_id, worker, status, digests=digests)

    def recover(self, journal: Any) -> int:
        """Account for leases that were live when the server died.

        Called from scheduler recovery: every journaled lease that was
        granted but never completed/expired represents remote work
        whose results can no longer land (the queue restarts empty, so
        any late ``work:complete`` is dropped).  Returns the number of
        such lost leases and folds them into the metrics so an
        operator can see what a restart cost.
        """
        lost = 0
        for rec in journal.replay_leases().values():
            if rec.get("status") != "granted":
                continue
            lost += 1
            with self._cv:
                stats = self._workers.setdefault(str(rec.get("worker")), _worker_stats())
                stats["lease_expiries"] += 1
        with self._cv:
            self.counters["recovered_lost_leases"] += lost
            self.counters["lease_expiries"] += lost
        return lost

    # -- producer side (FleetExecutor) ---------------------------------

    def offer(
        self, entries: Sequence[Dict[str, Any]], engine: str = "batch"
    ) -> None:
        """Make ``entries`` claimable (``{"digest","payload","traceparent"}``).

        Digests already present gain a waiter reference instead of a
        duplicate item -- concurrent graphs offering the same cell
        share one execution, same as the scheduler's in-flight dedup.
        """
        with self._cv:
            now = self._clock()
            for entry in entries:
                digest = entry["digest"]
                item = self._items.get(digest)
                if item is not None:
                    item.refs += 1
                    continue
                item = _WorkItem(
                    digest, entry["payload"], entry.get("traceparent"), engine, now
                )
                self._items[digest] = item
                self._ready[digest] = None
                self.counters["offered"] += 1
            self._cv.notify_all()

    def collect(self, digests: Iterable[str], timeout: float = 0.0) -> Dict[str, Outcome]:
        """Resolved outcomes among ``digests``; blocks up to ``timeout``.

        Returns as soon as at least one of the digests is resolved (or
        immediately with everything already resolved); an empty dict
        means the timeout passed with nothing new.
        """
        wanted = list(digests)
        deadline = self._clock() + max(0.0, timeout)
        with self._cv:
            while True:
                self._sweep(self._clock())
                found = {}
                for digest in wanted:
                    item = self._items.get(digest)
                    if item is not None and item.state == "resolved":
                        found[digest] = item.outcome
                remaining = deadline - self._clock()
                if found or remaining <= 0:
                    return found
                self._cv.wait(min(remaining, self.lease_ttl / 4.0, 0.25))

    def withdraw_for_local(
        self, digests: Iterable[str], max_age: float
    ) -> List[str]:
        """Atomically move stale ready items to local execution.

        An item qualifies when it is still ``"ready"`` (never claimed,
        or reclaimed after expiry) and either stranded, or has sat
        ready for at least ``max_age`` seconds (``max_age <= 0``
        withdraws every ready item -- the zero-worker fast path).  The
        caller owns the returned digests and must
        :meth:`resolve_local` each of them.
        """
        out: List[str] = []
        with self._cv:
            now = self._clock()
            self._sweep(now)
            for digest in digests:
                item = self._items.get(digest)
                if item is None or item.state != "ready":
                    continue
                if item.stranded or max_age <= 0 or now - item.ready_since >= max_age:
                    item.state = "local"
                    self._ready.pop(digest, None)
                    out.append(digest)
            if out:
                self.counters["local_fallbacks"] += len(out)
        return out

    def resolve_local(self, digest: str, outcome: Outcome) -> None:
        """Land a locally-computed outcome for a withdrawn item."""
        with self._cv:
            item = self._items.get(digest)
            if item is not None and item.state != "resolved":
                item.outcome = outcome
                item.state = "resolved"
            self._cv.notify_all()

    def forget(self, digests: Iterable[str]) -> None:
        """Drop one waiter reference; unreferenced items are GC'd.

        Items still leased simply disappear from the index -- a later
        ``work:complete`` for them lands nothing but is not an error
        (the lease check still governs accounting).
        """
        with self._cv:
            for digest in digests:
                item = self._items.get(digest)
                if item is None:
                    continue
                item.refs -= 1
                if item.refs <= 0:
                    self._items.pop(digest, None)
                    self._ready.pop(digest, None)

    def has_active_workers(self, window: float = 30.0) -> bool:
        """True when any worker claimed/heartbeat within ``window`` seconds."""
        with self._cv:
            now = self._clock()
            return any(
                now - stats["last_seen"] <= window for stats in self._workers.values()
            )

    # -- worker side (HTTP handlers) -----------------------------------

    def claim(self, worker: str, limit: int = 1, wait: float = 0.0) -> Dict[str, Any]:
        """Claim up to ``limit`` ready items under a fresh lease.

        Blocks up to ``wait`` seconds for work to appear (bounded
        long-poll).  An empty claim returns ``{"lease_id": None,
        "ttl": ttl, "items": []}`` -- no lease is minted for nothing.
        """
        worker = str(worker)
        limit = max(1, int(limit))
        deadline = self._clock() + max(0.0, min(float(wait), 60.0))
        with self._cv:
            stats = self._workers.setdefault(worker, _worker_stats())
            while True:
                now = self._clock()
                self._sweep(now)
                stats["last_seen"] = now
                if self._ready:
                    break
                remaining = deadline - now
                if remaining <= 0:
                    return {"lease_id": None, "ttl": self.lease_ttl, "items": []}
                self._cv.wait(min(remaining, 0.25))
            granted: List[str] = []
            items: List[Dict[str, Any]] = []
            while self._ready and len(granted) < limit:
                digest, _ = self._ready.popitem(last=False)
                item = self._items[digest]
                item.state = "leased"
                granted.append(digest)
                items.append(
                    {
                        "digest": digest,
                        "kind": "run",
                        "payload": item.payload,
                        "traceparent": item.traceparent,
                        "engine": item.engine,
                    }
                )
            self._lease_count += 1
            lease_id = f"lease-{self._lease_count:06d}-{secrets.token_hex(4)}"
            self._leases[lease_id] = _Lease(
                lease_id, worker, granted, self._clock() + self.lease_ttl, self.lease_ttl
            )
            stats["claims"] += 1
            stats["items"] += len(granted)
            self.counters["claims"] += 1
            self.counters["claimed_items"] += len(granted)
            self._journal_lease(lease_id, worker, "granted", digests=granted)
            return {"lease_id": lease_id, "ttl": self.lease_ttl, "items": items}

    def heartbeat(self, worker: str, lease_id: str) -> Dict[str, Any]:
        """Renew a lease; raises :class:`LeaseExpiredError` if reclaimed."""
        with self._cv:
            now = self._clock()
            self._sweep(now)
            stats = self._workers.setdefault(str(worker), _worker_stats())
            stats["last_seen"] = now
            lease = self._leases.get(str(lease_id))
            if lease is None or lease.worker != str(worker):
                raise LeaseExpiredError(
                    f"lease {lease_id!r} is unknown or expired; abandon the batch"
                )
            lease.deadline = now + lease.ttl
            return {"lease_id": lease.lease_id, "ttl": lease.ttl}

    def complete(
        self, worker: str, lease_id: str, results: Sequence[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Land a batch of worker results under a live lease.

        Each result is ``{"digest", "ok", "doc"|"error"}``.  A dead
        lease drops the whole batch (counted as ``late_completions``)
        -- the items were reclaimed and someone else owns them.  A
        live lease lands ``ok`` docs into the shared cache after
        validating they decode (:func:`report_from_doc`); a doc that
        does not decode is requeued rather than trusted.  ``ok=False``
        results settle the item to its error outcome, matching the
        one-attempt semantics of local execution.
        """
        worker = str(worker)
        with self._cv:
            now = self._clock()
            self._sweep(now)
            stats = self._workers.setdefault(worker, _worker_stats())
            stats["last_seen"] = now
            lease = self._leases.pop(str(lease_id), None)
            if lease is None or lease.worker != worker:
                self.counters["late_completions"] += len(results)
                return {"accepted": 0, "dropped": len(results), "late": True}
            leased = set(lease.digests)
            accepted = 0
            dropped = 0
            for result in results:
                digest = str(result.get("digest"))
                if digest not in leased:
                    dropped += 1
                    self.counters["invalid_results"] += 1
                    continue
                leased.discard(digest)
                item = self._items.get(digest)
                if result.get("ok"):
                    doc = result.get("doc")
                    try:
                        report_from_doc(dict(doc))
                    except (CacheError, TypeError):
                        dropped += 1
                        self.counters["invalid_results"] += 1
                        self._requeue(item, now)
                        continue
                    self.cache.store(digest, "run", doc)
                    outcome: Outcome = ("ok", doc)
                    accepted += 1
                    stats["completed"] += 1
                    self.counters["completions_ok"] += 1
                else:
                    outcome = ("error", str(result.get("error") or "worker error"))
                    accepted += 1
                    stats["failed"] += 1
                    self.counters["completions_err"] += 1
                if item is not None and item.state != "resolved":
                    item.outcome = outcome
                    item.state = "resolved"
            # Items the worker claimed but did not report go back to ready.
            for digest in leased:
                self._requeue(self._items.get(digest), now)
            self._journal_lease(lease.lease_id, worker, "completed")
            self._cv.notify_all()
            return {"accepted": accepted, "dropped": dropped, "late": False}

    # -- internals -----------------------------------------------------

    def _requeue(self, item: Optional[_WorkItem], now: float) -> None:
        """Return a leased item to the ready set (caller holds the lock)."""
        if item is None or item.state != "leased":
            return
        item.requeues += 1
        if item.requeues > self.max_requeues and not item.stranded:
            item.stranded = True
            self.counters["stranded"] += 1
        item.state = "ready"
        item.ready_since = now
        self._ready[item.digest] = None
        self.counters["reclaimed"] += 1

    def _sweep(self, now: float) -> None:
        """Expire overdue leases and reclaim their items (lock held)."""
        expired = [l for l in self._leases.values() if l.deadline < now]
        for lease in expired:
            del self._leases[lease.lease_id]
            stats = self._workers.setdefault(lease.worker, _worker_stats())
            stats["lease_expiries"] += 1
            self.counters["lease_expiries"] += 1
            for digest in lease.digests:
                item = self._items.get(digest)
                if item is not None and item.state == "leased":
                    self._requeue(item, now)
            self._journal_lease(lease.lease_id, lease.worker, "expired")
        if expired:
            self._cv.notify_all()

    def metrics(self) -> Dict[str, Any]:
        """Counters, per-worker registry and queue gauges for ``/metrics``."""
        with self._cv:
            now = self._clock()
            self._sweep(now)
            workers = {
                name: {
                    "claims": stats["claims"],
                    "items": stats["items"],
                    "completed": stats["completed"],
                    "failed": stats["failed"],
                    "lease_expiries": stats["lease_expiries"],
                    "last_seen_age_s": round(max(0.0, now - stats["last_seen"]), 3),
                }
                for name, stats in sorted(self._workers.items())
            }
            return {
                "counters": dict(self.counters),
                "workers": workers,
                "ready": len(self._ready),
                "leased": sum(
                    1 for item in self._items.values() if item.state == "leased"
                ),
                "leases": len(self._leases),
                "items": len(self._items),
                "lease_ttl_s": self.lease_ttl,
            }


class FleetExecutor(Executor):
    """Executor that farms addressable specs out to the worker fleet.

    Implements the :class:`repro.engine.executor.Executor` protocol
    (``run`` / ``run_many`` / ``run_many_settled`` / ``sweep``), so the
    scheduler and :class:`TaskGraphRunner` need no fleet-specific code
    paths.  Specs whose adversary is a declarative
    :class:`~repro.service.specs.SpecHandle` (uninstrumented, no kept
    trees -- the cacheable shape) are offered to the :class:`WorkQueue`
    under their canonical ``spec_digest``; everything else runs on the
    local ``fallback`` executor directly.

    Offered work that no worker claims within ``claim_deadline``
    seconds is withdrawn and executed locally -- and when no worker has
    been seen within ``worker_window`` seconds the deadline collapses
    to zero, so a fleetless server never waits at all.  Both sides
    execute ``to_run_spec`` of the same canonical payload, which is
    what makes fleet execution byte-identical to local execution.
    """

    name = "fleet"

    def __init__(
        self,
        queue: WorkQueue,
        fallback: Union[str, Any] = "batch",
        claim_deadline: float = 2.0,
        poll: float = 0.05,
        worker_window: float = 30.0,
    ) -> None:
        self.queue = queue
        self.fallback = (
            get_executor(fallback) if isinstance(fallback, str) else fallback
        )
        self.claim_deadline = float(claim_deadline)
        self.poll = float(poll)
        self.worker_window = float(worker_window)
        # Sharded fallback shards through BatchExecutor workers, so its
        # reports carry executor="batch"; the hint keeps remote docs
        # byte-identical to what the fallback would produce.
        self.engine_hint = {"sharded": "batch"}.get(
            self.fallback.name, self.fallback.name
        )

    # The Executor protocol (``run`` and ``sweep`` are inherited; sweep
    # jobs reach the fleet as task-graph run cells) ---------------------

    def run_many(self, specs: Sequence[Any]) -> List[Any]:
        settled = self.run_many_settled(specs)
        for result in settled:
            if isinstance(result, Exception):
                raise result
        return settled

    def run_many_settled(self, specs: Sequence[Any]) -> List[Any]:
        with _trace.span("executor", executor=self.name, specs=len(specs)):
            return self._dispatch(list(specs))

    def __repr__(self) -> str:
        return f"FleetExecutor(fallback={self.fallback!r})"

    # Internals ----------------------------------------------------------

    @staticmethod
    def _payload_for(spec: Any) -> Optional[Dict[str, Any]]:
        """The canonical run spec for ``spec``, or None if not addressable."""
        if getattr(spec, "instrumentation", "none") != "none" or getattr(
            spec, "keep_trees", False
        ):
            return None
        handle = spec.adversary
        if not hasattr(handle, "cell_spec"):
            return None
        try:
            return handle.cell_spec(spec.n, spec.max_rounds, spec.backend)
        except Exception:
            return None

    def _dispatch(self, specs: List[Any]) -> List[Any]:
        results: List[Any] = [None] * len(specs)
        remote_idx: Dict[str, List[int]] = {}
        payloads: Dict[str, Dict[str, Any]] = {}
        local_idx: List[int] = []
        for i, spec in enumerate(specs):
            payload = self._payload_for(spec)
            if payload is None:
                local_idx.append(i)
            else:
                digest = spec_digest(payload)
                remote_idx.setdefault(digest, []).append(i)
                payloads.setdefault(digest, payload)
        if local_idx:
            settled = self.fallback.run_many_settled([specs[i] for i in local_idx])
            for i, result in zip(local_idx, settled):
                results[i] = result
        if not remote_idx:
            return results
        ctx = _trace.current_context()
        header = ctx.to_header() if ctx is not None else None
        self.queue.offer(
            [
                {"digest": digest, "payload": payloads[digest], "traceparent": header}
                for digest in remote_idx
            ],
            engine=self.engine_hint,
        )
        pending = set(remote_idx)
        try:
            while pending:
                for digest, outcome in self.queue.collect(
                    pending, timeout=self.poll
                ).items():
                    self._land(digest, outcome, remote_idx, specs, results)
                    pending.discard(digest)
                if not pending:
                    break
                max_age = (
                    self.claim_deadline
                    if self.queue.has_active_workers(self.worker_window)
                    else 0.0
                )
                withdrawn = self.queue.withdraw_for_local(sorted(pending), max_age)
                if not withdrawn:
                    continue
                # Execute exactly what a worker would have: the RunSpec
                # rebuilt from the canonical payload.
                local_specs = [to_run_spec(payloads[d]) for d in withdrawn]
                settled = self.fallback.run_many_settled(local_specs)
                for digest, result in zip(withdrawn, settled):
                    if isinstance(result, Exception):
                        outcome = ("error", f"{type(result).__name__}: {result}")
                    else:
                        try:
                            outcome = ("ok", report_to_doc(result))
                        except CacheError as exc:
                            outcome = ("error", f"CacheError: {exc}")
                    self.queue.resolve_local(digest, outcome)
                    self._land(digest, outcome, remote_idx, specs, results)
                    pending.discard(digest)
        finally:
            self.queue.forget(list(remote_idx))
        return results

    @staticmethod
    def _land(
        digest: str,
        outcome: Outcome,
        remote_idx: Dict[str, List[int]],
        specs: List[Any],
        results: List[Any],
    ) -> None:
        for i in remote_idx[digest]:
            if outcome[0] == "ok":
                results[i] = report_from_doc(dict(outcome[1]), backend=specs[i].backend)
            else:
                results[i] = ServiceError(str(outcome[1]))
