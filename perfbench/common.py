"""Plumbing shared by the workloads: import guard, stamps, stats, output.

Nothing here measures a layer; it locates the checkout, stamps results
with where and what they were measured on, reduces samples to the
percentiles the report prints, and writes the one-line JSON result.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark measures (``perfbench/..``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch directories (span files, server logs, result rows).
RUNS = ROOT / ".perfbench_runs"


#: CPUs this process could use before ``pin_one_cpu`` (the host's nproc).
NPROC = len(os.sched_getaffinity(0))


def pin_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    Call before numpy is imported, so its BLAS starts one thread.  On a
    2-CPU shared host, the service loop's cross-CPU wakeups cost ~35%
    more CPU per request and doubled its run-to-run spread, and idle
    BLAS threads spinning on the other CPU inflated the library
    workloads' CPU time.  Every workload here is serial, so one CPU
    loses no parallelism.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_repro() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and import it.

    Exits with status 2 (and no result line) when the checkout holds no
    program, or when ``repro`` would resolve to another copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters that import this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    for var in ("REPRO_BACKEND", "REPRO_PROFILE", "REPRO_TRACE", "REPRO_KERNEL"):
        env.pop(var, None)
    return env


def run_dir(workload: str, seed: int, trace: int) -> Path:
    path = RUNS / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _revision() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over ``src/**/*.py`` (path + bytes): identifies the code
    measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp(workload: str, seed: int, trace: int) -> Dict[str, Any]:
    """Where and on what a result was measured."""
    from repro.core.kernels import machine_info

    return {
        "revision": _revision(),
        "source_sha256": _source_digest(),
        "machine": machine_info(),
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5


def time_child_setup(code: str) -> List[float]:
    """CPU seconds of ``SETUPS`` fresh interpreters running ``code``.

    Set-up is import plus warm-up in a cold process, which cannot be
    repeated inside the measuring process itself.  CPU rather than wall
    time, for the reason given in ``library._Window``.
    """
    times = []
    for _ in range(SETUPS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(
            after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        )
    return times


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def span_self_times(spans: Iterable[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time per span name, in seconds.

    A span's self time is its duration minus the part of its interval
    covered by its children (children on other threads may outlive the
    parent; only the overlap counts).
    """
    spans = list(spans)
    children: Dict[str, List[Dict[str, Any]]] = {}
    for sp in spans:
        if sp.get("parent_id"):
            children.setdefault(sp["parent_id"], []).append(sp)
    totals: Dict[str, float] = {}
    for sp in spans:
        start, end = sp["ts"], sp["ts"] + sp["dur"]
        pieces = sorted(
            (max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
            for c in children.get(sp["span_id"], ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        totals[sp["name"]] = totals.get(sp["name"], 0.0) + sp["dur"] - covered
    return totals


def span_metrics(spans: Iterable[Dict[str, Any]], names: Iterable[str]) -> Dict[str, float]:
    """``span.<name>.self_s`` for every per-layer span metric name."""
    selfs = span_self_times(spans)
    out = {}
    for metric in names:
        if metric.startswith("span.") and metric.endswith(".self_s"):
            out[metric] = selfs.get(metric[len("span."):-len(".self_s")], 0.0)
    return out


#: Kernel names the executors run, by layer; every other kernel name is
#: a dispatched graph compose (``word-or``, ``gather``, ``blas``, ...).
IN_EXECUTOR_KERNELS = {
    "tree-compose": "tree_compose",
    "batch-compose": "batch_compose",
    "squaring": "squaring",
}


def kernel_layers(calls: Iterable[Tuple[str, float, int]]) -> Dict[str, float]:
    """``core.<kind>_s`` / ``core.<kind>.calls`` from ``(kernel name,
    seconds, calls)`` rows."""
    out: Dict[str, float] = {}
    for kind in ("tree_compose", "batch_compose", "squaring", "graph_compose"):
        out[f"core.{kind}_s"] = 0.0
        out[f"core.{kind}.calls"] = 0
    for kernel, seconds, count in calls:
        kind = IN_EXECUTOR_KERNELS.get(kernel, "graph_compose")
        out[f"core.{kind}_s"] += seconds
        out[f"core.{kind}.calls"] += count
    return out


def engine_layers(
    kernels: Dict[str, float],
    decision_s: float,
    rounds: int,
    run_s: float,
    useful: int,
    slots: int,
    nonsplit_s: float = 0.0,
) -> Dict[str, float]:
    """The adversary, core and engine layer metrics.

    ``kernels`` is ``kernel_layers`` output; ``rounds`` the rounds whose
    decisions ``decision_s`` paid for; ``useful`` / ``slots`` the t*
    sum and the lockstep slots (group width x group rounds) of the
    batched runs.  Compose time inside executor calls is taken from the
    kernel rows rather than the phase split, whose kernel clock also
    covers span writes.
    """
    in_run = kernels["core.tree_compose_s"] + kernels["core.batch_compose_s"] + kernels["core.squaring_s"]
    m = dict(kernels)
    m.update(
        {
            "adversaries.decision_s": decision_s,
            "adversaries.decision_ms_per_round": 1000.0 * decision_s / rounds if rounds else 0.0,
            "adversaries.rounds": rounds,
            "adversaries.nonsplit_s": nonsplit_s,
            "core.kernel_s": in_run + kernels["core.graph_compose_s"],
            "engine.run_s": run_s,
            "engine.overhead_s": run_s - decision_s - in_run,
            "engine.batch.useful_frac": useful / slots if slots else 0.0,
        }
    )
    return m


class Outcome:
    """What one run of a workload produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.rows: List[Dict[str, Any]] = []
        self.report: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def load_manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_table(layers: Dict[str, float], total_s: float) -> List[str]:
    """Lines: layer, seconds, share of ``total_s``, Amdahl ceiling."""
    lines = [f"{'layer':<28} {'seconds':>10} {'share':>7} {'ceiling':>8}"]
    for name, secs in layers.items():
        share = secs / total_s if total_s > 0 else 0.0
        ceiling = "inf" if share >= 1.0 else f"{1.0 / (1.0 - share):.3f}x"
        lines.append(f"{name:<28} {secs:>10.4f} {share:>7.1%} {ceiling:>8}")
    return lines


def write_rows(directory: Path, rows: List[Dict[str, Any]]) -> None:
    with open(directory / "results.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
