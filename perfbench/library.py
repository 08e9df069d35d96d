"""The library workloads: ``witness`` and ``sweep``.

Both call the engine's public entry points and time each call from
outside: ``SequentialExecutor.run`` (witness), ``BatchExecutor.run_many``
and ``adversaries.nonsplit.broadcast_time_nonsplit`` (sweep).  Per-layer
numbers come from deltas of the program's own counters
(``repro.obs.profile.phase_profile()`` / ``kernel_profile()``) and from
its span file, recorded in a separate traced half of the run.

Every output is checked against ``oracle.json``: t* and a sha256 of
``repro.service.cache.report_to_doc`` per spec, pinned from the code
the benchmark was defined on (``pin_oracle.py``), plus the Theorem 3.1
bounds.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from common import (
    IN_EXECUTOR_KERNELS,
    Outcome,
    engine_layers,
    kernel_layers,
    layer_table,
    median,
    span_metrics,
    stamp,
    time_child_setup,
    vm_hwm_mb,
)
from repro.adversaries.nonsplit import NonsplitAdversary, broadcast_time_nonsplit
from repro.core import bounds
from repro.core.backend import use_backend
from repro.engine.executor import BatchExecutor, RunReport, SequentialExecutor
from repro.obs import profile, trace
from repro.service.cache import report_to_doc
from repro.service.specs import canonical_json, canonical_run_spec, to_run_spec

ORACLE_PATH = Path(__file__).with_name("oracle.json")

#: witness: the cyclic chain-fan adversary (default m_stride) on bitset.
WITNESS_NS = (32, 40, 48, 56, 64)

#: sweep: cheap oblivious and adaptive families; ``None`` marks the
#: seed-chosen parameter (random-tree seed, k-leaf k).
SWEEP_FAMILIES = (
    ("static-path", {}),
    ("rotating-path", {"shift": 1}),
    ("alternating-path", {"period": 1}),
    ("sorted-path", {}),
    ("runner", {}),
    ("zeiner-style", {}),
    ("random-tree", None),
    ("k-leaf", None),
)
RANDOM_TREE_SEEDS = tuple(range(8))
K_LEAF_KS = (2, 3, 4, 5)
SWEEP_GRID = (("dense", 256), ("bitset", 256), ("bitset", 512))
#: The nonsplit bridge slice (the only caller of ``apply_graph``).
NONSPLIT_MODES = ("cyclic", "rotating", "random")
NONSPLIT_NS = (64, 128)
NONSPLIT_SEEDS = tuple(range(4))
BACKENDS = ("dense", "bitset")

_SETUP_CODE = """
from repro.engine.executor import BatchExecutor, SequentialExecutor
from repro.service.cache import report_to_doc
from repro.service.specs import to_run_spec
from repro.adversaries.nonsplit import NonsplitAdversary, broadcast_time_nonsplit
from repro.core.backend import use_backend
for be in ("dense", "bitset"):
    SequentialExecutor().run(to_run_spec({"adversary": "cyclic", "n": 16, "backend": be}))
    report_to_doc(BatchExecutor().run_many(
        [to_run_spec({"adversary": "runner", "n": 16, "backend": be})])[0])
    with use_backend(be):
        broadcast_time_nonsplit(NonsplitAdversary(16, mode="random"), 16)
"""


# ----------------------------------------------------------------------
# Inputs and the oracle
# ----------------------------------------------------------------------


def spec_key(spec: Dict[str, Any]) -> str:
    """Oracle key: the canonical run spec without its backend (results
    must be identical on every backend)."""
    doc = canonical_run_spec(spec)
    del doc["backend"]
    return canonical_json(doc)


def doc_digest(report: RunReport) -> str:
    return hashlib.sha256(
        json.dumps(report_to_doc(report), sort_keys=True).encode()
    ).hexdigest()


def nonsplit_key(mode: str, n: int, seed: int) -> str:
    return f"{mode}/n={n}/seed={seed}"


def state_digest(state: Any) -> str:
    return hashlib.sha256(np.packbits(state.reach_matrix).tobytes()).hexdigest()


def witness_specs(rng: random.Random) -> List[Dict[str, Any]]:
    ns = list(WITNESS_NS)
    rng.shuffle(ns)
    return [{"adversary": "cyclic", "n": n, "backend": "bitset"} for n in ns]


def sweep_family_specs(random_seed: int, k: int, n: int, backend: str) -> List[Dict[str, Any]]:
    specs = []
    for name, params in SWEEP_FAMILIES:
        spec: Dict[str, Any] = {"adversary": name, "n": n, "backend": backend}
        if name == "random-tree":
            spec["seed"] = random_seed
        elif name == "k-leaf":
            spec["params"] = {"k": k}
        else:
            spec["params"] = params
        specs.append(spec)
    return specs


def sweep_inputs(rng: random.Random) -> Tuple[List[Dict[str, Any]], List[Tuple[str, str, int, int]]]:
    random_seed = rng.choice(RANDOM_TREE_SEEDS)
    k = rng.choice(K_LEAF_KS)
    specs = [
        spec
        for backend, n in SWEEP_GRID
        for spec in sweep_family_specs(random_seed, k, n, backend)
    ]
    rng.shuffle(specs)
    nonsplit_seed = rng.choice(NONSPLIT_SEEDS)
    slice_ = [
        (backend, mode, n, nonsplit_seed if mode == "random" else 0)
        for backend in BACKENDS
        for mode in NONSPLIT_MODES
        for n in NONSPLIT_NS
    ]
    rng.shuffle(slice_)
    return specs, slice_


def load_oracle() -> Dict[str, Any]:
    with open(ORACLE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(
    oracle: Dict[str, Any], spec: Dict[str, Any], report: RunReport, out: Outcome
) -> None:
    """Pinned t* + doc digest, and the Theorem 3.1 sandwich."""
    pin = oracle["runs"].get(spec_key(spec))
    label = f"{spec['adversary']} n={spec['n']} {spec['backend']}"
    if pin is None:
        out.fail(f"{label}: no pinned result")
        return
    if report.t_star != pin["t_star"]:
        out.fail(f"{label}: t*={report.t_star}, pinned {pin['t_star']}")
        return
    if doc_digest(report) != pin["doc_sha256"]:
        out.fail(f"{label}: report document differs from the pinned digest")
        return
    n = report.n
    if report.t_star > bounds.upper_bound(n):
        out.fail(f"{label}: t*={report.t_star} above upper bound {bounds.upper_bound(n)}")
    # The lower-bound witness only reaches the formula at stride 1; with
    # the default stride at n=64 it measures one below (t*=93 vs 94).
    if "stride=1]" in report.adversary_name and report.t_star < bounds.lower_bound(n):
        out.fail(f"{label}: t*={report.t_star} below lower bound {bounds.lower_bound(n)}")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


class _Window:
    """What one measuring window saw.

    End-to-end figures use the process CPU clock: on a shared host the
    wall clock of the same single-threaded call swings by up to 1.8x
    from one second to the next with hypervisor steal, while its CPU
    time moves a few percent (it still drifts with host load over
    minutes).  Layer figures stay on the wall clock, like the program's
    own profile they are compared with.
    """

    def __init__(self) -> None:
        self.pass_cpu: List[float] = []
        self.call_cpu: Dict[str, List[float]] = {}  # per call of a pass
        self.runs = 0
        self.cpu_s = 0.0
        self.busy_s = 0.0  # wall
        self.run_s = 0.0  # wall, in executor calls
        self.nonsplit_s = 0.0  # wall, in the nonsplit bridge
        self.reports: List[RunReport] = []

    def call(self, key: str, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``(result, wall s, cpu s)`` of one call into the program;
        ``key`` names the call among those of one pass."""
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        self.busy_s += wall
        self.cpu_s += cpu
        self.call_cpu.setdefault(key, []).append(cpu)
        return result, wall, cpu

    def rate(self) -> float:
        """Runs per CPU second: runs in a pass over the sum of each of
        the pass's calls' median CPU time.  A pass of ``witness`` is ~10
        CPU s, so a window holds only two or three; per-call medians
        still drop a call slowed by a burst of host load."""
        return self.runs / len(self.pass_cpu) / self.pass_s()

    def pass_s(self) -> float:
        return sum(median(v) for v in self.call_cpu.values())


def _measure(seconds: float, one_pass: Callable[[_Window], None]) -> _Window:
    """Whole passes until ``seconds`` of CPU time went into the program."""
    win = _Window()
    while win.cpu_s < seconds:
        cpu0 = win.cpu_s
        one_pass(win)
        win.pass_cpu.append(win.cpu_s - cpu0)
    return win


def _traced(seconds: float, run_dir: Path, one_pass: Callable[[_Window], None]):
    """One window with the program's profiling and span tracing on."""
    spans_path = run_dir / "spans.jsonl"
    phases0, kernels0 = profile.phase_profile(), profile.kernel_profile()
    profile.enable()
    trace.enable(str(spans_path))
    try:
        win = _measure(seconds, one_pass)
    finally:
        trace.disable()
        profile.disable()
    phases = _delta(profile.phase_profile(), phases0, ("decision_s",))
    kernels = _delta(profile.kernel_profile(), kernels0, ("calls", "seconds"))
    return win, phases, kernels, trace.read_spans(str(spans_path))


def _delta(after: Dict[str, Dict[str, float]], before, fields) -> Dict[str, Dict[str, float]]:
    return {
        key: {f: row[f] - before.get(key, {}).get(f, 0) for f in fields}
        for key, row in after.items()
    }


def _lockstep(reports: List[RunReport]) -> Tuple[int, int]:
    """``(Σ t*, Σ group width × group rounds)`` over the lockstep groups.

    A batch group's reports share one ``timings`` dict (the executor
    attributes the group totals to each), which identifies the group;
    runs that skipped the lockstep loop (repeated squaring) carry none.
    """
    groups: Dict[int, List[RunReport]] = {}
    for r in reports:
        if r.timings is not None:
            groups.setdefault(id(r.timings), []).append(r)
    slots = sum(len(g) * max(r.rounds for r in g) for g in groups.values())
    useful = sum(r.t_star or 0 for g in groups.values() for r in g)
    return useful, slots


def _layer_metrics(win: _Window, phases, kernels, spans, names) -> Dict[str, float]:
    useful, slots = _lockstep(win.reports)
    # Kernel rows are keyed "namespace/kernel/bucket".
    m = engine_layers(
        kernel_layers(
            (key.split("/")[1], row["seconds"], row["calls"]) for key, row in kernels.items()
        ),
        decision_s=sum(row["decision_s"] for row in phases.values()),
        rounds=sum(r.rounds for r in win.reports if r.timings is not None),
        run_s=win.run_s,
        useful=useful,
        slots=slots,
        nonsplit_s=win.nonsplit_s,
    )
    m.update(span_metrics(spans, names))
    # The library workloads send no request through the service layers.
    m.update({name: 0.0 for name in names if name.startswith("service.")})
    return m


def _run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace_flag: int,
    run_dir: Path,
    names: List[str],
    backends: Tuple[str, ...],
    one_pass: Callable[[_Window], None],
    out: Outcome,
) -> Outcome:
    """Measure (untraced, or untraced + traced halves) and report."""
    if trace_flag:
        plain = _measure(seconds / 2, one_pass)
        traced, phases, kernels, spans = _traced(seconds / 2, run_dir, one_pass)
        layers = _layer_metrics(traced, phases, kernels, spans, names)
        layers["trace.overhead_frac"] = plain.rate() / traced.rate() - 1.0
        out.metrics.update({k: v for k, v in layers.items() if k in names})
        _print_layers(out, traced, layers, kernels)
    else:
        setup = time_child_setup(_SETUP_CODE)
        plain = _measure(seconds, one_pass)
        out.metrics.update(
            {
                "ops_per_cpu_s": plain.rate(),
                "peak_rss_mb": vm_hwm_mb(),
                "setup_s": median(setup),
            }
        )
        out.report.append("setup_s samples (child CPU s): " + ", ".join(f"{s:.3f}" for s in setup))
    out.report.append(
        f"{workload}: {plain.runs} runs in {len(plain.pass_cpu)} passes, {plain.cpu_s:.3f} CPU s "
        f"({plain.busy_s:.3f} wall s); median pass {plain.pass_s():.3f} CPU s -> "
        f"{plain.rate():.4f} runs per CPU s"
    )
    out.rows.append(dict(stamp(workload, seed, trace_flag), backends=list(backends), metrics=out.metrics))
    return out


def _print_layers(out: Outcome, traced: _Window, layers: Dict[str, float], kernels) -> None:
    blocking = {
        "adversaries.decision": layers["adversaries.decision_s"],
        "core.kernel (in executor)": layers["core.kernel_s"] - layers["core.graph_compose_s"],
    }
    for backend in BACKENDS:
        blocking[f"  of which {backend}"] = sum(
            row["seconds"]
            for key, row in kernels.items()
            if key.startswith(f"{backend}/") and key.split("/")[1] in IN_EXECUTOR_KERNELS
        )
    blocking.update(
        {
            "engine.overhead": layers["engine.overhead_s"],
            "adversaries.nonsplit": layers["adversaries.nonsplit_s"],
            "  of which core.graph_compose": layers["core.graph_compose_s"],
        }
    )
    out.report.append(f"per-layer shares of {traced.busy_s:.3f} s traced wall time in the program:")
    out.report.extend(layer_table(blocking, traced.busy_s))
    out.report.append(
        f"engine.batch.useful_frac {layers['engine.batch.useful_frac']:.4f}; tracing overhead "
        f"{layers['trace.overhead_frac']:+.2%} (traced vs untraced CPU s per run)"
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def witness(seed: int, seconds: float, trace_flag: int, run_dir: Path, names: List[str]) -> Outcome:
    out = Outcome()
    oracle = load_oracle()
    specs = witness_specs(random.Random(seed))
    run_specs = [to_run_spec(s) for s in specs]
    executor = SequentialExecutor()
    executor.run(to_run_spec({"adversary": "cyclic", "n": 16, "backend": "bitset"}))

    def one_pass(win: _Window) -> None:
        for spec, run_spec in zip(specs, run_specs):
            out.attempted += 1
            try:
                report, wall, cpu = win.call(spec_key(spec), lambda: executor.run(run_spec))
            except Exception as exc:  # counted, reported, and the run goes on
                out.fail(f"{spec}: {type(exc).__name__}: {exc}")
                continue
            win.run_s += wall
            win.runs += 1
            check_report(oracle, spec, report, out)
            report.final_state = None  # keep the window's memory flat
            win.reports.append(report)

    return _run_workload(
        "witness", seed, seconds, trace_flag, run_dir, names, ("bitset",), one_pass, out
    )


def sweep(seed: int, seconds: float, trace_flag: int, run_dir: Path, names: List[str]) -> Outcome:
    out = Outcome()
    oracle = load_oracle()
    specs, slice_ = sweep_inputs(random.Random(seed))
    run_specs = [to_run_spec(s) for s in specs]
    executor = BatchExecutor()
    for backend in BACKENDS:
        executor.run_many([to_run_spec({"adversary": "runner", "n": 16, "backend": backend})])

    def one_pass(win: _Window) -> None:
        out.attempted += len(specs)
        try:
            reports, wall, _ = win.call("run_many", lambda: executor.run_many(run_specs))
            win.run_s += wall
        except Exception as exc:
            out.fail(f"run_many: {type(exc).__name__}: {exc}")
            reports = []
        for spec, report in zip(specs, reports):
            check_report(oracle, spec, report, out)
            report.final_state = None
        win.runs += len(reports)
        win.reports.extend(reports)
        for backend, mode, n, ns_seed in slice_:
            out.attempted += 1
            adversary = NonsplitAdversary(n, mode=mode, seed=ns_seed)

            def bridge():
                with use_backend(backend):
                    return broadcast_time_nonsplit(adversary, n)

            try:
                (t_star, state), wall, _ = win.call(f"{backend}/{nonsplit_key(mode, n, ns_seed)}", bridge)
            except Exception as exc:
                out.fail(f"nonsplit {mode} n={n}: {type(exc).__name__}: {exc}")
                continue
            win.nonsplit_s += wall
            win.runs += 1
            pin = oracle["nonsplit"].get(nonsplit_key(mode, n, ns_seed))
            if pin is None or (t_star, state_digest(state)) != (pin["t_star"], pin["reach_sha256"]):
                out.fail(f"nonsplit {mode} n={n} {backend}: t*={t_star} differs from the pin")

    return _run_workload(
        "sweep", seed, seconds, trace_flag, run_dir, names, BACKENDS, one_pass, out
    )
