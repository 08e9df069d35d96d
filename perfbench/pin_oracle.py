"""Record ``oracle.json``: the pinned outputs the benchmark checks against.

Run once, on the code the benchmark was defined on::

    python3 perfbench/pin_oracle.py

It pins t* and a sha256 of ``report_to_doc`` for every library spec any
seed can draw (witness on ``SequentialExecutor``, sweep on
``BatchExecutor``), and t* plus a reach-matrix digest for the nonsplit
slice.  Results are backend-independent, so each is pinned from one
backend and the benchmark checks both against it.  Re-pinning to make a
changed output pass defeats the oracle.
"""

from __future__ import annotations

import json
import sys

from common import import_repro, stamp

import_repro()

import library as L  # noqa: E402
from repro.adversaries.nonsplit import NonsplitAdversary, broadcast_time_nonsplit  # noqa: E402
from repro.engine.executor import BatchExecutor, SequentialExecutor  # noqa: E402
from repro.service.specs import to_run_spec  # noqa: E402


def main() -> int:
    runs = {}
    witness = [{"adversary": "cyclic", "n": n, "backend": "bitset"} for n in L.WITNESS_NS]
    for spec in witness:
        report = SequentialExecutor().run(to_run_spec(spec))
        runs[L.spec_key(spec)] = {"t_star": report.t_star, "doc_sha256": L.doc_digest(report)}
    sweep = {
        L.spec_key(spec): spec
        for n in sorted({n for _, n in L.SWEEP_GRID})
        for seed in L.RANDOM_TREE_SEEDS
        for k in L.K_LEAF_KS
        for spec in L.sweep_family_specs(seed, k, n, "bitset")
    }
    reports = BatchExecutor().run_many([to_run_spec(s) for s in sweep.values()])
    for key, report in zip(sweep, reports):
        runs[key] = {"t_star": report.t_star, "doc_sha256": L.doc_digest(report)}
    nonsplit = {}
    for mode in L.NONSPLIT_MODES:
        for n in L.NONSPLIT_NS:
            for seed in L.NONSPLIT_SEEDS if mode == "random" else (0,):
                t_star, state = broadcast_time_nonsplit(NonsplitAdversary(n, mode=mode, seed=seed), n)
                nonsplit[L.nonsplit_key(mode, n, seed)] = {
                    "t_star": t_star,
                    "reach_sha256": L.state_digest(state),
                }
    source = stamp("pin", 0, 0)
    doc = {
        "pinned_from": {k: source[k] for k in ("revision", "source_sha256")},
        "runs": dict(sorted(runs.items())),
        "nonsplit": dict(sorted(nonsplit.items())),
    }
    with open(L.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(runs)} runs and {len(nonsplit)} nonsplit runs to {L.ORACLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
