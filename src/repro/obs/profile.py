"""Profiling hooks: per-kernel accounting and decision/kernel phase split.

Two complementary views of where engine time goes:

* **Kernel profile** -- every compose that flows through the kernel seam
  (the tree and graph composes of :class:`~repro.core.state.BroadcastState`,
  the batched compose of :class:`~repro.engine.batch.BatchRunner`, and the
  repeated-squaring t* search) is counted and timed under
  ``(backend name, kernel name, n-bucket)``.  Buckets are powers of
  two (``n<=64``, ``n<=128``, ...) so a long-lived service aggregates
  usefully instead of accumulating one row per distinct ``n``.
* **Phase profile** -- executors split each run into *decision* time
  (adversary calls: ``next_tree`` / ``next_parents`` / schedule cursors)
  and *kernel* time (backend composes).  This is exactly the overlap
  budget the ROADMAP's async-executor item needs: an asyncio executor
  can only win ``min(decision, kernel)`` per round, and this measures
  both sides.

The hook mechanism keeps the disabled path free: the kernel seam holds a
module-global observer that defaults to ``None`` -- call sites do one
attribute load + ``is None`` branch and take the raw path.  The observer
is installed only while profiling or tracing is enabled
(:func:`sync_observer`), at which point it times the wrapped call,
records the profile row, and (when tracing) emits a ``kernel`` span.

Enable with ``REPRO_PROFILE=1`` in the environment or :func:`enable`;
``repro-broadcast serve --trace`` enables both tracing and profiling.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Tuple

#: Environment variable: any non-empty value enables profiling at import.
ENV_PROFILE = "REPRO_PROFILE"

_lock = threading.Lock()
_enabled = False
_kernels: Dict[Tuple[str, str, str], Dict[str, float]] = {}
_phases: Dict[str, Dict[str, float]] = {}


def n_bucket(n: int) -> str:
    """Power-of-two size bucket label for ``n`` (``n<=64``, ``n<=128``...)."""
    if n <= 1:
        return "n<=1"
    return f"n<={1 << (int(n) - 1).bit_length()}"


def enabled() -> bool:
    """True when kernel/phase profiles are being recorded."""
    return _enabled


def enable() -> None:
    """Start recording kernel and phase profiles."""
    global _enabled
    _enabled = True
    sync_observer()


def disable() -> None:
    """Stop recording (existing profile rows are kept until :func:`reset`)."""
    global _enabled
    _enabled = False
    sync_observer()


def reset() -> None:
    """Drop all accumulated profile rows."""
    with _lock:
        _kernels.clear()
        _phases.clear()


def record_kernel(namespace: str, kernel: str, n: int, seconds: float) -> None:
    """Fold one kernel invocation into the profile."""
    key = (namespace, kernel, n_bucket(n))
    with _lock:
        row = _kernels.get(key)
        if row is None:
            row = {"calls": 0, "seconds": 0.0}
            _kernels[key] = row
        row["calls"] += 1
        row["seconds"] += seconds


def record_phases(executor: str, decision_s: float, kernel_s: float) -> None:
    """Fold one run's decision/kernel split into the per-executor totals."""
    with _lock:
        row = _phases.get(executor)
        if row is None:
            row = {"runs": 0, "decision_s": 0.0, "kernel_s": 0.0}
            _phases[executor] = row
        row["runs"] += 1
        row["decision_s"] += decision_s
        row["kernel_s"] += kernel_s


def kernel_profile() -> Dict[str, Dict[str, float]]:
    """Snapshot: ``{"namespace/kernel/bucket": {"calls", "seconds"}}``."""
    with _lock:
        return {
            "/".join(key): dict(row) for key, row in sorted(_kernels.items())
        }


def phase_profile() -> Dict[str, Dict[str, float]]:
    """Snapshot: ``{executor: {"runs", "decision_s", "kernel_s"}}``."""
    with _lock:
        return {name: dict(row) for name, row in sorted(_phases.items())}


# ----------------------------------------------------------------------
# The kernel-seam observer
# ----------------------------------------------------------------------


def _observe_compose(
    namespace: str, kernel: str, n: int, fn: Callable[[], Any]
) -> Any:
    """Time + record one compose call; emit a span when tracing."""
    from repro.obs import trace

    t0 = time.perf_counter()
    if trace.enabled():
        with trace.span("kernel", backend=namespace, kernel=kernel, n=n):
            out = fn()
    else:
        out = fn()
    if _enabled:
        record_kernel(namespace, kernel, n, time.perf_counter() - t0)
    return out


def sync_observer() -> None:
    """Install/remove the kernel-seam observer to match the enabled flags.

    Called by :func:`enable` / :func:`disable` here and by
    :func:`repro.obs.trace.enable` / ``disable``: the observer is live
    iff profiling or tracing is on, so the disabled hot path stays a
    bare ``is None`` check.
    """
    from repro.core import kernels
    from repro.obs import trace

    if _enabled or trace.enabled():
        kernels.set_compose_observer(_observe_compose)
    else:
        kernels.set_compose_observer(None)


if os.environ.get(ENV_PROFILE, "").strip():
    enable()


__all__ = [
    "ENV_PROFILE",
    "n_bucket",
    "enable",
    "disable",
    "enabled",
    "reset",
    "record_kernel",
    "record_phases",
    "kernel_profile",
    "phase_profile",
    "sync_observer",
]
