"""The ``service`` workload: ``repro serve`` under a closed-loop client.

The server runs as a subprocess in its deployed shape -- bearer-token
auth, a job journal and a file-backed result cache -- with its output in
a log file in the run directory (never an unread pipe).  One load
process drives it through ``ServiceClient`` as a closed loop with one
client (it waits for each reply before sending again; a second client
only queued behind the first on a 2-CPU host).  The seeded request
stream mixes three classes, in fixed proportions:

* ``hit``   -- ``POST /v1/runs`` of a warm-set spec (a cache read);
* ``miss``  -- ``POST /v1/runs`` of a fresh seeded spec (compute, cache
  store, journal append), timed to completion with the long poll
  ``GET .../<id>?watch=<version>`` (``ServiceClient.watch``);
* ``sweep`` -- ``POST /v1/sweeps`` of a 2x2 grid: one warm-set family
  and one family the cache has never seen, at two warm-set n.  Set-up
  stores the warm grid's sweep cells, so each sweep has exactly two
  cached cells and two cold ones.  Timed the same way as misses.

The 90:10 split of runs into hits and misses is the one the service
prototype of the benchmark's design was measured with.  The sweep share
(one request in 21), the warm set and its n are synthetic choices, not
taken from measured traffic.

Every answer is checked after the timed window against a library
recomputation (``report_to_doc`` equality for runs, t* and bounds per
sweep cell).
"""

from __future__ import annotations

import itertools
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    SETUPS,
    Outcome,
    child_env,
    engine_layers,
    kernel_layers,
    layer_table,
    median,
    process_cpu_s,
    quantile,
    span_metrics,
    stamp,
    vm_hwm_mb,
)
from repro.core import bounds
from repro.engine.executor import BatchExecutor, SequentialExecutor
from repro.errors import ServiceError
from repro.obs.trace import read_spans
from repro.service.cache import report_to_doc
from repro.service.client import ServiceClient
from repro.service.specs import canonical_json, canonical_run_spec, to_run_spec

TOKEN = "perfbench-token"
SETUP_TIMEOUT_S = 60.0

FAMILIES = (
    ("rotating-path", {"shift": 1}),
    ("alternating-path", {"period": 1}),
    ("sorted-path", {}),
    ("runner", {}),
    ("zeiner-style", {}),
    ("random-tree", {}),
    ("k-leaf", {"k": 3}),
)
WARM_NS = (16, 24, 32)
WARM_SEEDS = (0, 1)
#: The cold family of every sweep.  Each sweep gives it a fresh
#: ``alpha`` just above 0.5: a new cache key, but the same phase-1
#: length ``round(alpha * n)``, so every cold cell costs the same.
COLD_FAMILY = "two-phase-flip"
ALPHA_STEP = 1e-9
#: One block of the request mix: runs split 90:10 into hits and misses,
#: plus one sweep; the stream plays shuffled copies, so every run sees
#: the same proportions.
BLOCK = ("hit",) * 18 + ("miss",) * 2 + ("sweep",)
#: Requests per CPU reading: ten whole blocks.
CHUNK = 10 * len(BLOCK)
BACKEND = "bitset"


def _run_spec(family: Tuple[str, Dict[str, Any]], n: int, seed: int) -> Dict[str, Any]:
    name, params = family
    return {"adversary": name, "params": params, "n": n, "seed": seed, "backend": BACKEND}


def _row(family: Tuple[str, Dict[str, Any]]) -> Dict[str, Any]:
    return {"adversary": family[0], "params": family[1]}


WARM_SET = [_run_spec(f, n, s) for f in FAMILIES for n in WARM_NS for s in WARM_SEEDS]
#: Submitted during set-up, so the sweeps' warm cells are cached.
WARM_SWEEPS = [
    {"adversaries": [_row(f) for f in FAMILIES], "ns": list(WARM_NS), "seed": s, "backend": BACKEND}
    for s in WARM_SEEDS
]


class RequestStream:
    """The seeded request sequence.

    Misses take a fresh seed and sweeps a fresh ``alpha`` from counters,
    so no miss or cold sweep cell repeats, however long the run.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._fresh = itertools.count(1000 + self._rng.randrange(10**6))
        self._block: List[str] = []

    def next(self) -> Tuple[str, Dict[str, Any]]:
        rng = self._rng
        if not self._block:
            self._block = list(BLOCK)
            rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "hit":
            return kind, rng.choice(WARM_SET)
        if kind == "miss":
            n = rng.choice(WARM_NS)
            return kind, _run_spec(rng.choice(FAMILIES), n, next(self._fresh))
        cold = (COLD_FAMILY, {"alpha": 0.5 + ALPHA_STEP * next(self._fresh)})
        return kind, {
            "adversaries": [_row(rng.choice(FAMILIES)), _row(cold)],
            "ns": rng.sample(WARM_NS, 2),
            "seed": rng.choice(WARM_SEEDS),
            "backend": BACKEND,
        }


class Server:
    """One ``repro serve`` subprocess in its own directory."""

    def __init__(self, directory: Path, traced: bool) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.directory = directory
        self.spans_path = directory / "spans.jsonl" if traced else None
        self.log_path = directory / "serve.log"
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--auth-token", f"{TOKEN}:bench",
            "--journal", str(directory / "journal.jsonl"),
            "--cache", str(directory / "cache.jsonl"),
        ]
        if self.spans_path is not None:
            cmd += ["--trace", str(self.spans_path)]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdout=self._log, stderr=subprocess.STDOUT, env=child_env(), cwd=directory
        )
        self.client = self._connect()

    def _connect(self) -> ServiceClient:
        deadline = time.monotonic() + SETUP_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            match = re.search(r"listening on http://([\d.]+):(\d+)", self.log_path.read_text())
            if match:
                client = ServiceClient(match.group(1), int(match.group(2)), token=TOKEN)
                try:
                    client.healthz()
                    return client
                except ServiceError:
                    pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log_path}")

    def stop(self) -> Tuple[float, bool]:
        """Peak RSS (read while alive), then SIGTERM; ``clean`` is False
        when the server had to be killed."""
        try:
            hwm = vm_hwm_mb(str(self.proc.pid)) if self.proc.poll() is None else 0.0
        except (OSError, RuntimeError):
            hwm = 0.0
        clean = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                clean = False
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._log.close()
        return hwm, clean and self.proc.returncode == 0

    def discard_state(self) -> None:
        """Drop the journal, cache and span files (tens of MB per run);
        the server log stays for inspection."""
        for name in ("journal.jsonl", "cache.jsonl", "spans.jsonl"):
            (self.directory / name).unlink(missing_ok=True)


def _await(client: ServiceClient, doc: Dict[str, Any]) -> Dict[str, Any]:
    """Follow a job to its terminal document with the watch long poll."""
    if doc["status"] in ("done", "failed"):
        return doc
    for doc in client.watch(doc["job_id"], timeout=60.0):
        pass
    return doc


def _cpu_s(server: Server) -> float:
    """CPU seconds so far of the server and of this load process."""
    return time.process_time() + process_cpu_s(server.proc.pid)


class _Warm:
    """The warm set a server was filled with, and its answers."""

    def __init__(self) -> None:
        self.runs: Dict[str, Tuple[Dict[str, Any], Dict[str, Any]]] = {}
        self.sweeps: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []


def _set_up(directory: Path, traced: bool) -> Tuple[Server, _Warm, float]:
    """Start a server and fill its warm set: the warm runs, then the
    warm sweeps (whose cells the traffic's sweeps partly reuse).

    Returns ``(server, warm set, set-up CPU seconds)``: the server's CPU
    since it was spawned plus this process's CPU meanwhile (CPU rather
    than wall time, for the reason in ``_Load``).
    """
    cpu0 = time.process_time()
    server = Server(directory, traced)
    client = server.client
    warm = _Warm()
    try:
        for kind, spec in [("run", s) for s in WARM_SET] + [("sweep", s) for s in WARM_SWEEPS]:
            submit = client.submit_sweep if kind == "sweep" else client.submit_run
            doc = _await(client, submit(spec))
            if doc["status"] != "done":
                raise RuntimeError(f"warm-set {kind} {spec} ended {doc['status']}: {doc.get('error')}")
            if kind == "run":
                warm.runs[canonical_json(canonical_run_spec(spec))] = (spec, doc["result"])
            else:
                warm.sweeps.append((spec, doc["result"]))
    except Exception:
        server.stop()
        raise
    return server, warm, _cpu_s(server) - cpu0


class _Sample:
    __slots__ = ("kind", "spec", "latency", "doc", "error")

    def __init__(self, kind, spec, latency, doc, error) -> None:
        self.kind, self.spec, self.latency, self.doc, self.error = kind, spec, latency, doc, error


class _Load:
    """What one closed-loop window saw."""

    def __init__(self, samples: List[_Sample], wall: Tuple[float, float], chunk_cpu: List[float]) -> None:
        self.samples = samples
        self.wall = wall  # epoch start/end, to select the window's spans
        self.chunk_cpu = chunk_cpu  # server + load process, per CHUNK requests

    def rate(self) -> float:
        """Requests per CPU second of the server and the load process,
        over the median chunk of ``CHUNK`` requests.

        On a shared host the closed loop's wall-clock rate and latencies
        swing with hypervisor steal (one 10 s run in five read 33% low);
        the CPU the two processes spend per request moves far less.
        """
        return CHUNK / median(self.chunk_cpu)


def _load(server: Server, seed: int, seconds: float) -> _Load:
    """The closed loop, in whole chunks until the two processes spent
    ``seconds`` of CPU."""
    stream = RequestStream(seed)
    client = server.client
    samples: List[_Sample] = []
    chunks: List[float] = []
    wall0 = time.time()
    cpu = _cpu_s(server)
    while sum(chunks) < seconds:
        for _ in range(CHUNK):
            kind, spec = stream.next()
            t0 = time.perf_counter()
            try:
                submit = client.submit_sweep if kind == "sweep" else client.submit_run
                doc = _await(client, submit(spec))
                error = None
            except ServiceError as exc:
                doc, error = None, f"{type(exc).__name__}: {exc}"
            samples.append(_Sample(kind, spec, time.perf_counter() - t0, doc, error))
        cpu, before = _cpu_s(server), cpu
        chunks.append(cpu - before)
    return _Load(samples, (wall0, time.time()), chunks)


def _verify(samples: List[_Sample], warm: _Warm, out: Outcome) -> None:
    """Library recomputation of everything the service answered."""
    batch = BatchExecutor()
    sequential = SequentialExecutor()
    runs: Dict[str, Dict[str, Any]] = {}
    cells: Dict[Tuple, Optional[int]] = {}

    def library_doc(spec: Dict[str, Any]) -> Dict[str, Any]:
        key = canonical_json(canonical_run_spec(spec))
        if key not in runs:
            runs[key] = report_to_doc(batch.run_many([to_run_spec(spec)])[0])
        return runs[key]

    def check_sweep(spec: Dict[str, Any], result: Dict[str, Any]) -> None:
        rows = {r["adversary"]: r for r in spec["adversaries"]}
        if len(result["points"]) != len(rows) * len(spec["ns"]):
            out.fail(f"sweep {spec} answered {len(result['points'])} cells")
        for point in result["points"]:
            row, n = rows[point["adversary"]], point["n"]
            cell = (row["adversary"], canonical_json(row["params"]), n, spec["seed"])
            if cell not in cells:
                cells[cell] = sequential.run(
                    to_run_spec(_run_spec((row["adversary"], row["params"]), n, spec["seed"]))
                ).t_star
            if (
                point["t_star"] != cells[cell]
                or point["lower"] != bounds.lower_bound(n)
                or point["upper"] != bounds.upper_bound(n)
                or point["t_star"] > point["upper"]
            ):
                out.fail(f"sweep cell {cell} = {point} differs from the library")

    for spec, doc in warm.runs.values():
        if doc != library_doc(spec):
            out.fail(f"warm-set result differs from the library: {spec}")
    for spec, result in warm.sweeps:
        check_sweep(spec, result)
    for s in samples:
        out.attempted += 1
        if s.error is not None:
            out.fail(f"{s.kind}: {s.error}")
            continue
        if s.doc["status"] != "done":
            out.fail(f"{s.kind} job {s.doc['job_id']} ended {s.doc['status']}: {s.doc.get('error')}")
            continue
        if s.kind == "hit":
            if not s.doc["cached"]:
                out.fail(f"warm-set request was not served from the cache: {s.spec}")
            elif s.doc["result"] != warm.runs[canonical_json(canonical_run_spec(s.spec))][1]:
                out.fail(f"hit differs from the warm-set result: {s.spec}")
        elif s.kind == "miss":
            result = s.doc["result"]
            if result != library_doc(s.spec):
                out.fail(f"miss differs from the library: {s.spec}")
            elif result["t_star"] is None or result["t_star"] > bounds.upper_bound(result["n"]):
                out.fail(f"miss t*={result['t_star']} outside the upper bound: {s.spec}")
        else:
            if s.doc["cached"]:
                out.fail(f"a sweep with a cold family was answered from the cache: {s.spec}")
            check_sweep(s.spec, s.doc["result"])


def _classes(samples: List[_Sample]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = {"hit": [], "miss": [], "sweep": []}
    for s in samples:
        if s.error is None:
            out[s.kind].append(s.latency * 1000.0)
    return out


def _describe(load: _Load, label: str) -> List[str]:
    wall = load.wall[1] - load.wall[0]
    lines = [
        f"{label}: {len(load.samples)} requests in {wall:.2f} s "
        f"({len(load.samples) / wall:.1f} req/s); {load.rate():.1f} requests "
        f"per CPU s of server + load process"
    ]
    for kind, lat in _classes(load.samples).items():
        if lat:
            lines.append(
                f"  {kind:<5} n={len(lat):<6} p50 {quantile(lat, 0.5):8.3f} ms  "
                f"p95 {quantile(lat, 0.95):8.3f} ms  p99 {quantile(lat, 0.99):8.3f} ms"
            )
    return lines


def _layer_metrics(
    load: _Load,
    before: Dict[str, Any],
    after: Dict[str, Any],
    spans: List[Dict[str, Any]],
    names: List[str],
) -> Dict[str, float]:
    samples, window = load.samples, load.wall
    lat = _classes(samples)
    m: Dict[str, float] = {
        "service.hit_p50_ms": quantile(lat["hit"], 0.5),
        "service.hit_p99_ms": quantile(lat["hit"], 0.99),
        "service.miss_p50_ms": quantile(lat["miss"], 0.5),
        "service.miss_p95_ms": quantile(lat["miss"], 0.95),
        "service.sweep_p50_ms": quantile(lat["sweep"], 0.5),
    }
    http = after["http"]["latency"]
    m["service.server.p50_ms"] = http["p50_ms"]
    m["service.server.p99_ms"] = http["p99_ms"]
    spans = [s for s in spans if window[0] <= s["ts"] <= window[1]]
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for sp in spans:
        by_trace.setdefault(sp["trace_id"], []).append(sp)
    ok = [s for s in samples if s.error is None]
    hit_traces = {s.doc.get("trace_id") for s in ok if s.kind == "hit"}
    server_hit = [
        sp["dur"] * 1000.0
        for sp in spans
        if sp["name"] == "request" and sp["trace_id"] in hit_traces
        and sp["attrs"].get("method") == "POST"
    ]
    m["service.server.hit_p50_ms"] = quantile(server_hit, 0.5) if server_hit else 0.0
    m["service.client_gap_ms"] = m["service.hit_p50_ms"] - m["service.server.hit_p50_ms"]
    misses = [s for s in ok if s.kind == "miss"]
    waits = []
    for s in misses:
        compute = sum(
            sp["dur"] for sp in by_trace.get(s.doc.get("trace_id"), ()) if sp["name"] in ("run", "run_group")
        )
        if compute > 0:  # a miss batched into another job's group has no spans of its own
            waits.append(1000.0 * (s.latency - compute))
    m["service.scheduler.wait_ms"] = median(waits) if waits else 0.0
    computing = sum(1 for s in ok if s.kind != "hit" and not s.doc["cached"])
    m["service.scheduler.computations_per_miss"] = (
        (after["computations"] - before["computations"]) / computing if computing else 0.0
    )
    c0, c1 = before["cache"], after["cache"]
    lookups = (c1["hits"] - c0["hits"]) + (c1["misses"] - c0["misses"])
    m["service.cache.hit_frac"] = (c1["hits"] - c0["hits"]) / lookups if lookups else 0.0
    m["service.journal.bytes_per_req"] = (after["journal_bytes"] - before["journal_bytes"]) / len(samples)

    # Library layers, over the cold-run jobs' traces: there every lockstep
    # slot and every decision belongs to a run whose t* came back.
    miss_traces = {s.doc.get("trace_id") for s in misses}
    lib = [sp for sp in spans if sp["trace_id"] in miss_traces]
    runs = [sp for sp in lib if sp["name"] in ("run", "run_group")]
    kernels = kernel_layers(
        (sp["attrs"].get("kernel"), sp["dur"], 1) for sp in lib if sp["name"] == "kernel"
    )
    rounds = sum(s.doc["result"]["rounds"] for s in misses)
    m.update(
        engine_layers(
            kernels,
            decision_s=sum(sp["attrs"].get("decision_s", 0.0) for sp in runs),
            rounds=rounds,
            run_s=sum(sp["dur"] for sp in runs) + kernels["core.squaring_s"],
            useful=rounds,
            slots=sum(sp["attrs"].get("rounds", 0) * sp["attrs"].get("runs", 1) for sp in runs),
        )
    )
    m.update(span_metrics(spans, names))
    return m


def _stopped(server: Server, out: Outcome) -> float:
    """Stop a server; returns its peak RSS. A server that had to be
    killed, or exited non-zero, counts as a failure."""
    hwm, clean = server.stop()
    if not clean:
        out.fail(f"repro serve did not stop cleanly on SIGTERM; see {server.log_path}")
    return hwm


def service(seed: int, seconds: float, trace_flag: int, run_dir: Path, names: List[str]) -> Outcome:
    out = Outcome()
    servers: List[Server] = []
    if not trace_flag:
        setups = []
        for i in range(SETUPS):
            server, warm, took = _set_up(run_dir / f"server-{i}", traced=False)
            servers.append(server)
            setups.append(took)
            if i < SETUPS - 1:
                _stopped(server, out)
        try:
            load = _load(server, seed, seconds)
        finally:
            hwm = _stopped(server, out)
        _verify(load.samples, warm, out)
        out.metrics.update(
            {
                "ops_per_cpu_s": load.rate(),
                "peak_rss_mb": hwm,
                "setup_s": median(setups),
            }
        )
        out.report.extend(_describe(load, "service (untraced)"))
        out.report.append(
            f"server peak RSS {hwm:.1f} MB; setup_s samples (CPU s): "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
    else:
        server, warm, _ = _set_up(run_dir / "untraced", traced=False)
        servers.append(server)
        try:
            plain = _load(server, seed, seconds / 2)
        finally:
            _stopped(server, out)
        server, warm_t, _ = _set_up(run_dir / "traced", traced=True)
        servers.append(server)
        try:
            before = server.client.metrics()
            traced = _load(server, seed, seconds / 2)
            after = server.client.metrics()
        finally:
            _stopped(server, out)
        _verify(plain.samples, warm, out)
        _verify(traced.samples, warm_t, out)
        spans = read_spans(str(server.spans_path))
        layers = _layer_metrics(traced, before, after, spans, names)
        layers["trace.overhead_frac"] = plain.rate() / traced.rate() - 1.0
        out.metrics.update({k: v for k, v in layers.items() if k in names})
        out.report.extend(_describe(plain, "service (untraced half)"))
        out.report.extend(_describe(traced, "service (traced half)"))
        busy = sum(s.latency for s in traced.samples)
        selfs = {
            f"span.{name}": layers[f"span.{name}.self_s"]
            for name in ("request", "job", "node", "executor", "run", "run_group", "kernel")
        }
        out.report.append(f"span self time as a share of {busy:.3f} s client-side request time:")
        out.report.extend(layer_table(selfs, busy))
        out.report.append(
            f"tracing overhead {layers['trace.overhead_frac']:+.2%} "
            "(traced vs untraced CPU s per request)"
        )
    for server in servers:
        server.discard_state()
    out.report.append(
        f"failed_frac {out.failed / max(out.attempted, 1):.6f} ({out.failed}/{out.attempted})"
    )
    out.rows.append(dict(stamp("service", seed, trace_flag), backends=[BACKEND], metrics=out.metrics))
    return out
