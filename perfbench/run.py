"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload witness|sweep|service \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures an untraced and a traced half and reports the
per-layer metrics from the traced one (plus the tracing overhead).  The
metric names and units are those of ``BENCHMARK.json``.  A human report
goes to stdout first; the last stdout line is the JSON result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run directories (span files, server logs, ``results.jsonl`` rows
stamped with revision, host, seed and backend) land under
``.perfbench_runs/`` in the checkout.  See ``README.md`` here for the
workloads and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from common import import_repro, load_manifest, pin_one_cpu, run_dir, write_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    manifest = load_manifest()
    workloads = [w["name"] for w in manifest["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    section = manifest["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    pin_one_cpu()
    import_repro()
    if args.workload == "service":
        import service

        run = service.service
    else:
        import library

        run = getattr(library, args.workload)
    directory = run_dir(args.workload, args.seed, args.trace)
    out = run(args.seed, args.seconds, args.trace, directory, list(units))

    missing = [name for name in units if name not in out.metrics]
    bad = [n for n in units if n in out.metrics and not math.isfinite(out.metrics[n])]
    if missing or bad:
        print(f"perfbench: metrics missing {missing} or not finite {bad}", file=sys.stderr)
        return 1
    write_rows(directory, out.rows)
    for line in out.report:
        print(line)
    for problem in out.problems:
        print(f"FAILED: {problem}")
    for name, unit in units.items():
        print(f"{name:<44} {out.metrics[name]:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": out.failed == 0,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": {
                    name: {"value": out.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
