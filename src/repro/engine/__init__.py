"""Process-level synchronous round engine.

The matrix engine (:mod:`repro.core`) implements the paper's
adjacency-matrix view.  This package implements the *same model a second,
independent way* -- as message-passing processes in the heard-of style
(Charron-Bost & Schiper [2]): each process holds the set of process ids it
has heard of; in each round every process sends its set along its outgoing
tree edges (to its children) and keeps its own (self-loop).

Equivalence of the two engines over arbitrary tree sequences is one of the
repository's core property tests.  The package also provides trace
recording/replay and per-round metrics collection.
"""

from repro.engine.simulator import HeardOfSimulator, Process
from repro.engine.events import RoundRecord, TraceEvent
from repro.engine.trace import Trace, TraceRecorder, replay_trace
from repro.engine.batch import BatchRunner, run_sequences_batch, score_candidates
from repro.engine.executor import (
    BatchExecutor,
    Executor,
    RunReport,
    RunSpec,
    SequentialExecutor,
    ShardedExecutor,
    get_executor,
)
from repro.engine.runner import (
    compare_engines,
    run_adversaries_batch,
    run_engine,
    run_multi_seed,
)
from repro.engine.metrics import MetricsCollector, RunMetrics
from repro.engine.rng import derive_rng, spawn_seeds
from repro.engine.shard import default_sweep_factories

__all__ = [
    "HeardOfSimulator",
    "Process",
    "RoundRecord",
    "TraceEvent",
    "Trace",
    "TraceRecorder",
    "replay_trace",
    "BatchRunner",
    "run_sequences_batch",
    "score_candidates",
    "RunSpec",
    "RunReport",
    "Executor",
    "SequentialExecutor",
    "BatchExecutor",
    "ShardedExecutor",
    "get_executor",
    "run_engine",
    "run_adversaries_batch",
    "run_multi_seed",
    "compare_engines",
    "MetricsCollector",
    "RunMetrics",
    "default_sweep_factories",
    "derive_rng",
    "spawn_seeds",
]
