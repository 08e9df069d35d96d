"""Experiment definitions and the registry mapping E-ids to task graphs.

Every experiment E1..E8 is *declarative*: an :class:`ExperimentSpec`
carries

* ``units()`` -- the experiment's work grid as a list of task documents
  (:mod:`repro.service.tasks` kinds: ``run`` cells for everything the
  executor stack can batch/shard, plus typed compute kinds like
  ``exact-solve`` or ``gossip``), and
* ``aggregate(input_docs)`` -- a *pure* fold of the unit results into the
  :class:`ExperimentTable` the paper artifact is compared against.

:meth:`ExperimentSpec.run` assembles the two into a content-addressed
task graph and executes it (:func:`run_experiment`), which is what makes
experiments cacheable (a warm rerun computes zero runs and reproduces the
table byte-identically), resumable, and shardable through any executor.
It is the only experiment path; ``tests/fixtures/golden_experiments.json``
pins every rendered table byte for byte.

Every run function returns an :class:`ExperimentTable` -- headers, rows,
and the assertions-passed flag -- so callers (CLI, notebooks, tests, the
HTTP task API) get structured data rather than printed text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import format_table

if TYPE_CHECKING:  # runtime imports stay lazy (service.tasks imports us back)
    from repro.service.cache import ResultCache
    from repro.service.tasks import GraphRun, TaskGraph


@dataclass
class ExperimentTable:
    """Structured result of one experiment run."""

    experiment_id: str
    title: str
    headers: List[str]
    rows: List[Sequence]
    notes: List[str] = field(default_factory=list)
    checks_passed: bool = True

    def render(self) -> str:
        """The table plus notes, formatted for a terminal."""
        parts = [
            format_table(
                self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
            )
        ]
        parts.extend(self.notes)
        parts.append(
            "checks: PASSED" if self.checks_passed else "checks: FAILED"
        )
        return "\n".join(parts)


def table_to_doc(table: ExperimentTable) -> Dict[str, Any]:
    """The JSON document form of a table (the ``experiment-table`` codec)."""
    return {
        "experiment_id": table.experiment_id,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
        "checks_passed": bool(table.checks_passed),
    }


def table_from_doc(doc: Dict[str, Any]) -> ExperimentTable:
    """Rebuild a table from :func:`table_to_doc` (renders identically)."""
    try:
        return ExperimentTable(
            experiment_id=str(doc["experiment_id"]),
            title=str(doc["title"]),
            headers=list(doc["headers"]),
            rows=[list(row) for row in doc["rows"]],
            notes=list(doc.get("notes", [])),
            checks_passed=bool(doc["checks_passed"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed experiment-table document: {exc!r}") from exc


# ----------------------------------------------------------------------
# E1: Figure 1 bounds overview
# ----------------------------------------------------------------------

_E1_NS = [8, 16, 32, 64, 128]


def _e1_units() -> List[Dict[str, Any]]:
    return [{"kind": "bounds", "payload": {"n": n}} for n in _E1_NS]


def _e1_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    from repro.core import bounds as B

    rows = []
    ok = True
    for doc in inputs:
        rows.append(
            (
                doc["n"],
                doc["trivial"],
                doc["nlogn"],
                doc["loglog"],
                doc["new"],
                doc["lower"],
            )
        )
        ok = ok and doc["new"] < doc["nlogn"] and doc["new"] < doc["loglog"]
    return ExperimentTable(
        "E1",
        "Figure 1 bounds overview",
        ["n", "trivial n^2", "n log n", "2n loglog n + 2n", "(1+sqrt2)n", "LB"],
        rows,
        notes=[
            f"crossover vs n log n at n = {B.crossover_nlogn_vs_linear()}"
        ],
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E2: Theorem 3.1 sandwich
# ----------------------------------------------------------------------

_E2_NS = [4, 6, 8, 10, 12]


def _e2_units() -> List[Dict[str, Any]]:
    return [
        {"kind": "run", "payload": {"adversary": "cyclic", "n": n}} for n in _E2_NS
    ]


def _e2_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    from repro.core.bounds import lower_bound, upper_bound

    rows = []
    ok = True
    for doc in inputs:
        n, t = doc["n"], doc["t_star"]
        rows.append((n, lower_bound(n), t, upper_bound(n), f"{t / n:.3f}"))
        ok = ok and lower_bound(n) <= t <= upper_bound(n)
    return ExperimentTable(
        "E2",
        "Theorem 3.1 sandwich (cyclic chain-fan witness)",
        ["n", "LB formula", "measured t*", "UB formula", "t*/n"],
        rows,
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E3: exact game values
# ----------------------------------------------------------------------

_E3_NS = [2, 3, 4, 5]
_E3_NOTES = ["n=6: exact t*=7 (recorded; ~27 min, 112620 states)"]


def _e3_units() -> List[Dict[str, Any]]:
    return [{"kind": "exact-solve", "payload": {"n": n}} for n in _E3_NS]


def _e3_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    from repro.core.bounds import lower_bound, upper_bound

    rows = []
    ok = True
    for doc in inputs:
        n = doc["n"]
        rows.append(
            (n, lower_bound(n), doc["t_star"], upper_bound(n), doc["states_explored"])
        )
        ok = ok and doc["t_star"] == lower_bound(n)
    return ExperimentTable(
        "E3",
        "exact game values (LB formula tight for n <= 5 in-run; 6 recorded)",
        ["n", "LB formula", "exact t*", "UB formula", "states"],
        rows,
        notes=list(_E3_NOTES),
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E4: Section 2 baselines
# ----------------------------------------------------------------------

_E4_NS = [8, 16, 32, 64]


def _e4_units() -> List[Dict[str, Any]]:
    units: List[Dict[str, Any]] = []
    for n in _E4_NS:
        units.append({"kind": "run", "payload": {"adversary": "static-path", "n": n}})
        units.append({"kind": "run", "payload": {"adversary": "static-star", "n": n}})
    return units


def _e4_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    rows = []
    ok = True
    for path_doc, star_doc in zip(inputs[0::2], inputs[1::2]):
        n = path_doc["n"]
        pt, st = path_doc["t_star"], star_doc["t_star"]
        rows.append((n, pt, n - 1, st))
        ok = ok and pt == n - 1 and st == 1
    return ExperimentTable(
        "E4",
        "Section 2 baselines (static path n-1; star 1)",
        ["n", "static path t*", "paper n-1", "static star t*"],
        rows,
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E5: restricted adversaries stay linear
# ----------------------------------------------------------------------

_E5_NS = [6, 9, 12, 15, 18]
_E5_FAMILIES: List[Tuple[int, str, str]] = [
    (k, label, adversary)
    for k in (2, 3)
    for label, adversary in (("leaves", "k-leaf"), ("inner", "k-inner"))
]


def _e5_units() -> List[Dict[str, Any]]:
    return [
        {
            "kind": "run",
            "payload": {"adversary": adversary, "params": {"k": k}, "n": n},
        }
        for k, _, adversary in _E5_FAMILIES
        for n in _E5_NS
    ]


def _e5_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    from repro.analysis.stats import linear_fit

    rows = []
    ok = True
    per_family = len(_E5_NS)
    for i, (k, label, _) in enumerate(_E5_FAMILIES):
        docs = inputs[i * per_family : (i + 1) * per_family]
        ts = [doc["t_star"] for doc in docs]
        fit = linear_fit(_E5_NS, ts)
        rows.append((f"k={k} {label}", *ts, f"{fit.slope:.2f}", f"{fit.r_squared:.3f}"))
        ok = ok and fit.r_squared > 0.9
    return ExperimentTable(
        "E5",
        "restricted adversaries stay linear (O(kn))",
        ["family", *[f"n={n}" for n in _E5_NS], "slope", "R^2"],
        rows,
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E6: nonsplit bridge
# ----------------------------------------------------------------------

_E6_NS = [8, 16, 32, 64]


def _e6_units() -> List[Dict[str, Any]]:
    # A single task: the witness trees for all ns are drawn from one
    # shared RNG stream, so the grid is not decomposable per n without
    # changing the experiment's exact outputs.
    return [
        {
            "kind": "nonsplit-bridge",
            "payload": {"ns": _E6_NS, "graph_seed": 1, "rng_seed": 0},
        }
    ]


def _e6_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    rows = []
    ok = True
    for doc in inputs[0]["rows"]:
        lemma_n = doc["lemma_nonsplit"]
        rows.append(
            (doc["n"], doc["radius"], doc["t_star"], "yes" if lemma_n else "NO")
        )
        ok = ok and doc["radius"] <= 6 and doc["t_star"] <= 8 and lemma_n
    return ExperimentTable(
        "E6",
        "nonsplit bridge ([1], [9])",
        ["n", "cyclic radius", "random nonsplit t*", "n-1 rounds nonsplit"],
        rows,
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E7: gossip extension
# ----------------------------------------------------------------------

_E7_NS = [6, 8, 12, 16]


def _e7_units() -> List[Dict[str, Any]]:
    units: List[Dict[str, Any]] = []
    for n in _E7_NS:
        units.append(
            {
                "kind": "gossip",
                "payload": {"n": n, "family": "adversarial-path", "max_rounds": 4 * n},
            }
        )
        units.append(
            {"kind": "gossip", "payload": {"n": n, "family": "random-tree", "seed": 0}}
        )
    return units


def _e7_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    rows = []
    ok = True
    for adv_doc, rnd_doc in zip(inputs[0::2], inputs[1::2]):
        rows.append(
            (
                adv_doc["n"],
                "never" if adv_doc["gossip_time"] is None else adv_doc["gossip_time"],
                rnd_doc["broadcast_time"],
                rnd_doc["gossip_time"],
            )
        )
        ok = ok and adv_doc["gossip_time"] is None and rnd_doc["gossip_time"] is not None
    return ExperimentTable(
        "E7",
        "gossip: unbounded adversarially, cheap under random trees",
        ["n", "adversarial gossip", "random broadcast t*", "random gossip"],
        rows,
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# E8: design ablations
# ----------------------------------------------------------------------

_E8_N = 8


def _e8_units() -> List[Dict[str, Any]]:
    return [
        {"kind": "run", "payload": {"adversary": "static-path", "n": _E8_N}},
        {"kind": "run", "payload": {"adversary": "cyclic", "n": _E8_N}},
        {"kind": "arc-game", "payload": {"n": _E8_N}},
        {"kind": "anneal", "payload": {"n": _E8_N, "iterations": 400, "seed": 0}},
    ]


def _e8_aggregate(inputs: List[Dict[str, Any]]) -> ExperimentTable:
    from repro.core.bounds import lower_bound

    static = inputs[0]["t_star"]
    cyclic = inputs[1]["t_star"]
    arcs = inputs[2]["value"]
    annealed = inputs[3]["best_t_star"]
    rows = [
        ("static path", static),
        ("rotated paths only (arc game)", arcs),
        ("simulated annealing (400 it)", annealed),
        ("cyclic chain-fan family", cyclic),
        ("-- LB formula --", lower_bound(_E8_N)),
    ]
    ok = cyclic == lower_bound(_E8_N) and arcs <= static + 1
    return ExperimentTable(
        "E8",
        f"search ablation at n={_E8_N}",
        ["strategy", "t*"],
        rows,
        notes=["only the chain-fan family reaches the formula"],
        checks_passed=ok,
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: id, description, paper artifact, declarative plan.

    ``units`` produces the experiment's task documents (no-input grid
    cells); ``aggregate`` purely folds their result documents -- in
    ``units`` order -- into the table.  :meth:`run` executes the two as
    one task graph (:func:`experiment_graph`).
    """

    experiment_id: str
    title: str
    paper_artifact: str
    units: Callable[[], List[Dict[str, Any]]]
    aggregate: Callable[[List[Dict[str, Any]]], ExperimentTable]

    def run(
        self, executor: Any = None, cache: Optional["ResultCache"] = None
    ) -> ExperimentTable:
        """Run the experiment's task graph; returns only the table."""
        table, _ = run_experiment(self.experiment_id, executor=executor, cache=cache)
        return table


_REGISTRY: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "E1", "Figure 1 bounds overview", "Figure 1",
            _e1_units, _e1_aggregate,
        ),
        ExperimentSpec(
            "E2", "Theorem 3.1 sandwich", "Theorem 3.1",
            _e2_units, _e2_aggregate,
        ),
        ExperimentSpec(
            "E3", "Exact game values", "Theorem 3.1 / Section 5",
            _e3_units, _e3_aggregate,
        ),
        ExperimentSpec(
            "E4", "Section 2 baselines", "Section 2",
            _e4_units, _e4_aggregate,
        ),
        ExperimentSpec(
            "E5", "Restricted adversaries", "Figure 1 / Section 4",
            _e5_units, _e5_aggregate,
        ),
        ExperimentSpec(
            "E6", "Nonsplit bridge", "Section 4",
            _e6_units, _e6_aggregate,
        ),
        ExperimentSpec(
            "E7", "Gossip extension", "Section 5",
            _e7_units, _e7_aggregate,
        ),
        ExperimentSpec(
            "E8", "Design ablations", "(this repo)",
            _e8_units, _e8_aggregate,
        ),
    ]
}


def known_experiment_ids() -> Tuple[str, ...]:
    """All registered experiment ids, sorted (``E1`` .. ``E8``)."""
    return tuple(sorted(_REGISTRY))


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments in id order."""
    return [spec for _, spec in sorted(_REGISTRY.items())]


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by id (``"E1"`` .. ``"E8"``).

    Raises
    ------
    KeyError
        With the list of known ids, if the id is unknown.
    """
    key = experiment_id.upper()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    return _REGISTRY[key]


def experiment_graph(experiment_id: str) -> Tuple["TaskGraph", str]:
    """Assemble one experiment's content-addressed task graph.

    The graph is the experiment's unit tasks plus one ``experiment``
    aggregation task consuming them in declaration order; the returned
    digest addresses the aggregation (= the table).
    """
    from repro.service.tasks import TaskGraph

    spec = get_experiment(experiment_id)
    graph = TaskGraph()
    inputs = [graph.add(unit) for unit in spec.units()]
    output = graph.add(
        {
            "kind": "experiment",
            "payload": {"experiment": spec.experiment_id},
            "inputs": inputs,
        }
    )
    return graph, output


def run_experiment(
    experiment_id: str,
    executor: Any = None,
    cache: Optional["ResultCache"] = None,
) -> Tuple[ExperimentTable, "GraphRun"]:
    """Execute one experiment through the task API.

    Returns ``(table, graph_run)`` -- the graph run carries per-task
    statuses and the ``runs_computed``/``cached`` counters (a warm-cache
    rerun reports zero computed runs).  Raises
    :class:`~repro.errors.TaskError` if the output task did not complete.
    """
    from repro.service.tasks import TaskGraphRunner

    graph, output = experiment_graph(experiment_id)
    run = TaskGraphRunner(executor=executor, cache=cache).run(graph)
    return run.decoded(graph, output), run


def run_all() -> List[ExperimentTable]:
    """Run every registered experiment through the task path."""
    return [spec.run() for spec in list_experiments()]
