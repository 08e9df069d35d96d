"""Simulation-as-a-service: the serving layer over the executor stack.

PR 3 left one seam for new front-ends -- :class:`~repro.engine.executor.RunSpec`
in, :class:`~repro.engine.executor.RunReport` out via
:func:`~repro.engine.executor.get_executor`.  This package is the first
front-end that actually *serves* users instead of scripts:

* :mod:`~repro.service.specs` -- declarative, JSON-serializable simulation
  specs with a registry over the adversary portfolio and a canonical
  content-addressed digest per spec;
* :mod:`~repro.service.cache` -- a versioned result store keyed by spec
  digest (in-memory LRU + optional append-only JSONL persistence): one
  namespace for runs, sweeps and task-graph nodes, so a sweep cell is the
  same ``run`` entry a ``/v1/runs`` submission hits and an enlarged grid
  only computes its new cells;
* :mod:`~repro.service.scheduler` -- a thread-based job queue with
  queued/running/done/failed states, in-flight dedup of identical digests,
  and batching of compatible queued specs into single executor dispatches;
* :mod:`~repro.service.tasks` -- Task API v2: typed, versioned,
  content-addressed task graphs (run cells, sweep aggregations, E1..E8
  experiments) with a task-kind registry, a result-codec registry, and a
  topological runner that batches run tasks through the executors;
  every sweep (scheduler job or ``repro-broadcast sweep``) runs as one;
* :mod:`~repro.service.server` -- a stdlib ``ThreadingHTTPServer`` JSON API
  (``POST /v1/runs``, ``POST /v1/runs:batch``, ``GET /v1/runs/<id>``,
  ``POST /v1/sweeps``, ``POST /v1/tasks``, ``GET /v1/tasks/<id>``,
  ``GET /healthz``, ``GET /metrics``);
* :mod:`~repro.service.client` -- a thin ``http.client`` wrapper used by
  tests, benchmarks, and the CLI ``submit``/``task`` subcommands.
"""

from repro.service.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    report_from_doc,
    report_to_doc,
)
from repro.service.client import ServiceClient
from repro.service.scheduler import JOB_STATES, Job, JobScheduler
from repro.service.server import ServiceServer
from repro.service.specs import (
    SPEC_VERSION,
    SpecHandle,
    adversary_names,
    canonical_run_spec,
    canonical_sweep_spec,
    describe_registry,
    portfolio_handles,
    register_adversary,
    spec_digest,
    to_run_spec,
)
from repro.service.tasks import (
    TASK_VERSION,
    GraphRun,
    TaskGraph,
    TaskGraphRunner,
    TaskSpec,
    canonical_task,
    describe_task_kinds,
    graph_digest,
    register_codec,
    register_task_kind,
    run_graph,
    sweep_graph,
    task_digest,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "JOB_STATES",
    "SPEC_VERSION",
    "TASK_VERSION",
    "GraphRun",
    "Job",
    "JobScheduler",
    "ResultCache",
    "ServiceClient",
    "ServiceServer",
    "SpecHandle",
    "TaskGraph",
    "TaskGraphRunner",
    "TaskSpec",
    "adversary_names",
    "canonical_run_spec",
    "canonical_sweep_spec",
    "canonical_task",
    "describe_registry",
    "describe_task_kinds",
    "graph_digest",
    "portfolio_handles",
    "register_adversary",
    "register_codec",
    "register_task_kind",
    "report_from_doc",
    "report_to_doc",
    "run_graph",
    "spec_digest",
    "sweep_graph",
    "task_digest",
    "to_run_spec",
]
