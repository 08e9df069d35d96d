"""Fleet scaling: cold-cache sweep wall time at 1 vs 2 worker processes.

Starts a fleet-enabled service in-process, attaches N ``repro worker``
subprocesses over real HTTP, and times a cold-cache sweep of CPU-heavy
cyclic cells submitted through ``POST /v1/sweeps``.  The 1-worker
measurement runs through the same claim/heartbeat/complete path, so the
reported speedup isolates fleet parallelism, not protocol overhead.

The acceptance check -- >= 1.8x going from 1 to 2 workers -- needs real
cores (server + two executing workers); it is asserted only when
``os.cpu_count() >= 4``.  The measured numbers are merged into
``benchmarks/BENCH_fleet.json`` either way.

Usage::

    python benchmarks/bench_fleet.py --quick    # CI-sized cells
    python benchmarks/bench_fleet.py            # full: ~7s serial work
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
if str(REPO_SRC) not in sys.path:  # runnable without PYTHONPATH
    sys.path.insert(0, str(REPO_SRC))

from repro.analysis.tables import format_table  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.server import ServiceServer  # noqa: E402

RESULTS_PATH = Path(__file__).with_name("BENCH_fleet.json")
MIN_SPEEDUP = 1.8

#: Cyclic chain-fan cells: the most CPU-expensive registered family, so
#: worker parallelism (not HTTP) dominates the wall time.  Sized for
#: ~7 s (full) / ~3 s (quick) of serial work under the arc scorer.
FULL_NS = (104, 112, 120, 128, 136, 144)
QUICK_NS = (64, 72, 80, 88, 96, 104)


def _worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(REPO_SRC) if not existing else str(REPO_SRC) + os.pathsep + existing
    )
    return env


def _spawn_workers(url: str, count: int) -> List[subprocess.Popen]:
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker",
                "--url", url, "--name", f"bench-w{i}",
                "--batch", "1", "--poll", "0.2",
            ],
            env=_worker_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for i in range(count)
    ]


def _wait_for_workers(client: ServiceClient, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(client.metrics()["fleet"]["workers"]) >= count:
            return
        time.sleep(0.05)
    raise RuntimeError(f"{count} workers never registered with the service")


def measure(workers: int, ns: List[int], timeout: float) -> dict:
    """Cold-cache sweep wall time through ``workers`` fleet processes."""
    sweep = {"adversaries": ["cyclic"], "ns": list(ns)}
    with ServiceServer(fleet=True, claim_deadline=max(timeout, 60.0)) as server:
        client = ServiceClient.from_url(server.url)
        procs = _spawn_workers(server.url, workers)
        try:
            _wait_for_workers(client, workers)
            t0 = time.perf_counter()
            job = client.submit_sweep(sweep)
            doc = client.wait(job["job_id"], timeout=timeout)
            elapsed = time.perf_counter() - t0
            if doc["status"] != "done":
                raise RuntimeError(f"sweep ended {doc['status']}: {doc.get('error')}")
            fleet = client.metrics()["fleet"]
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)
    counters = fleet["counters"]
    return {
        "workers": workers,
        "cells": len(ns),
        "wall_s": round(elapsed, 3),
        "completions_ok": counters["completions_ok"],
        "local_fallbacks": counters["local_fallbacks"],
        "lease_expiries": counters["lease_expiries"],
        "t_stars": [p["t_star"] for p in doc["result"]["points"]],
    }


def _persist(key: str, payload: dict, path: Path) -> None:
    try:
        existing = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing[key] = payload
    path.write_text(
        json.dumps(existing, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI-sized cells (~3s serial work)"
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-sweep deadline in seconds"
    )
    args = parser.parse_args(argv)

    ns = list(QUICK_NS if args.quick else FULL_NS)
    one = measure(1, ns, args.timeout)
    two = measure(2, ns, args.timeout)
    if one["t_stars"] != two["t_stars"]:
        print("FAIL: 1-worker and 2-worker sweeps disagree", file=sys.stderr)
        return 1
    speedup = one["wall_s"] / two["wall_s"] if two["wall_s"] else 0.0

    cpus = os.cpu_count() or 1
    enforced = cpus >= 4
    payload = {
        "ns": ns,
        "cpu_count": cpus,
        "workers1": one,
        "workers2": two,
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "enforced": enforced,
    }
    _persist("quick" if args.quick else "full", payload, RESULTS_PATH)

    print(
        format_table(
            ["workers", "wall s", "completions", "fallbacks"],
            [
                (m["workers"], m["wall_s"], m["completions_ok"], m["local_fallbacks"])
                for m in (one, two)
            ],
            title=f"fleet scaling, {len(ns)} cold cyclic cells (speedup {speedup:.2f}x)",
        )
    )
    print(f"results merged into {RESULTS_PATH}")

    if enforced and speedup < MIN_SPEEDUP:
        print(
            f"FAIL: speedup {speedup:.2f}x < {MIN_SPEEDUP}x with {cpus} CPUs",
            file=sys.stderr,
        )
        return 1
    if not enforced:
        print(
            f"note: {cpus} CPU(s) -- the {MIN_SPEEDUP}x floor needs >= 4, not enforced"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
