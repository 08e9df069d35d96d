"""Unit tests for the observability layer (``repro.obs``).

Covers the tracer (context propagation, span trees, JSONL + Chrome
export, torn-line tolerance), the metrics registry (typed instruments,
Prometheus exposition round-trip), and the profiling hooks (kernel
buckets, phase accounting, observer sync).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.core import kernels as core_kernels
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    CounterMap,
    Registry,
    flatten_json_metrics,
    parse_prometheus,
)
from repro.obs.trace import TraceContext


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with tracing/profiling off."""
    obs_trace.disable()
    obs_profile.disable()
    obs_profile.reset()
    yield
    obs_trace.disable()
    obs_profile.disable()
    obs_profile.reset()


# ----------------------------------------------------------------------
# TraceContext
# ----------------------------------------------------------------------


def test_trace_context_header_round_trip():
    ctx = TraceContext.new()
    header = ctx.to_header()
    parsed = TraceContext.from_header(header)
    assert parsed is not None
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id


def test_trace_context_rejects_malformed_headers():
    for bad in (
        None,
        "",
        "garbage",
        "00-zznotsohex-0123456789abcdef-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
        "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
    ):
        assert TraceContext.from_header(bad) is None


def test_trace_context_child_shares_trace_id():
    ctx = TraceContext.new()
    child = ctx.child()
    assert child.trace_id == ctx.trace_id
    assert child.span_id != ctx.span_id


def test_trace_context_doc_round_trip():
    ctx = TraceContext.new()
    assert TraceContext.from_doc(ctx.to_doc()) == ctx
    assert TraceContext.from_doc(None) is None
    assert TraceContext.from_doc({}) is None


# ----------------------------------------------------------------------
# Spans + export
# ----------------------------------------------------------------------


def test_spans_disabled_are_noops_but_context_still_flows():
    assert not obs_trace.enabled()
    with obs_trace.span("outer") as sp:
        sp.set_attrs(ignored=1)  # must not raise
    ctx = TraceContext.new()
    with obs_trace.context(ctx):
        assert obs_trace.current_context() == ctx
    assert obs_trace.current_context() is None


def test_span_nesting_builds_one_tree(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("root", label="r"):
        with obs_trace.span("child-a"):
            pass
        with obs_trace.span("child-b"):
            with obs_trace.span("leaf"):
                pass
    obs_trace.disable()

    spans = obs_trace.read_spans(str(sink))
    assert [s["name"] for s in spans] == ["child-a", "leaf", "child-b", "root"]
    assert len({s["trace_id"] for s in spans}) == 1

    trees = obs_trace.span_trees(spans)
    assert len(trees) == 1
    (roots,) = trees.values()
    assert len(roots) == 1
    root = roots[0]
    assert root["name"] == "root"
    assert sorted(c["name"] for c in root["children"]) == ["child-a", "child-b"]
    (child_b,) = [c for c in root["children"] if c["name"] == "child-b"]
    assert [c["name"] for c in child_b["children"]] == ["leaf"]


def test_span_records_error_attr_on_exception(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with pytest.raises(ValueError):
        with obs_trace.span("boom"):
            raise ValueError("x")
    obs_trace.disable()
    (span,) = obs_trace.read_spans(str(sink))
    assert span["attrs"]["error"] == "ValueError"


def test_spans_cross_threads_via_context(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("parent") as sp:
        ctx = sp.ctx

        def worker():
            with obs_trace.context(ctx):
                with obs_trace.span("in-thread"):
                    pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
    obs_trace.disable()
    spans = obs_trace.read_spans(str(sink))
    trees = obs_trace.span_trees(spans)
    (roots,) = trees.values()
    assert roots[0]["name"] == "parent"
    assert [c["name"] for c in roots[0]["children"]] == ["in-thread"]


def test_read_spans_tolerates_torn_final_line(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("ok"):
        pass
    obs_trace.disable()
    with open(sink, "a", encoding="utf-8") as fh:
        fh.write('{"trace_id": "deadbeef", "name": "torn')  # no newline
    spans = obs_trace.read_spans(str(sink))
    assert [s["name"] for s in spans] == ["ok"]


def test_chrome_trace_shape(tmp_path):
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("outer"):
        with obs_trace.span("inner"):
            pass
    obs_trace.disable()
    doc = obs_trace.chrome_trace(obs_trace.read_spans(str(sink)))
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 2
    for ev in events:
        assert ev["ph"] == "X"
        assert ev["dur"] >= 0
    json.dumps(doc)  # must be JSON-serializable as-is


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------


def test_counter_inc_and_labels():
    reg = Registry()
    c = reg.counter("repro_test_total", "help", labelnames=("tenant",))
    c.inc(tenant="a")
    c.inc(2, tenant="a")
    c.inc(tenant="b")
    assert c.value(tenant="a") == 3
    assert c.value(tenant="b") == 1
    assert c.value(tenant="missing") == 0


def test_registry_get_or_create_and_type_mismatch():
    reg = Registry()
    c1 = reg.counter("repro_x_total", "help")
    c2 = reg.counter("repro_x_total", "help")
    assert c1 is c2
    with pytest.raises(Exception):
        reg.gauge("repro_x_total", "help")


def test_gauge_set_and_inc():
    reg = Registry()
    g = reg.gauge("repro_depth", "help")
    g.set(5)
    g.inc(-2)
    assert g.value() == 3


def test_histogram_percentiles_and_summary():
    reg = Registry()
    h = reg.histogram("repro_lat_seconds", "help")
    for ms in (1, 2, 3, 4, 5, 50, 100, 200, 500, 900):
        h.observe(ms / 1000.0)
    assert h.count == 10
    assert h.sum == pytest.approx(1.765, abs=1e-9)
    p50 = h.percentile(0.5)
    p99 = h.percentile(0.99)
    assert p50 is not None and p99 is not None
    assert p50 <= p99
    s = h.summary()
    assert s["count"] == 10
    assert set(s) == {"count", "sum_s", "p50_ms", "p95_ms", "p99_ms"}


def test_histogram_empty_percentile_is_none():
    reg = Registry()
    h = reg.histogram("repro_empty_seconds", "help")
    assert h.percentile(0.5) is None
    assert h.summary()["count"] == 0


def test_counter_map_matches_plain_dict_shape():
    reg = Registry()
    cm = CounterMap(reg, "repro_sched", ("submitted", "failures"), help="x")
    cm.inc("submitted")
    cm.inc("submitted", 3)
    assert cm["submitted"] == 4
    assert cm["failures"] == 0
    assert "submitted" in cm and "nope" not in cm
    assert cm.to_dict() == {"submitted": 4, "failures": 0}


def test_prometheus_exposition_round_trips_through_parser():
    reg = Registry()
    c = reg.counter("repro_jobs_total", "jobs", labelnames=("tenant",))
    c.inc(7, tenant="t-1")
    g = reg.gauge("repro_queue_depth", "depth")
    g.set(3)
    h = reg.histogram("repro_req_seconds", "latency")
    h.observe(0.002)
    h.observe(0.2)
    extra = flatten_json_metrics({"cache": {"hits": 5}, "jobs": {"done": 2}})
    text = reg.to_prometheus(extra_lines=extra)

    samples = parse_prometheus(text)
    assert samples["repro_jobs_total"] == [({"tenant": "t-1"}, 7.0)]
    assert samples["repro_queue_depth"] == [({}, 3.0)]
    assert any(
        labels.get("le") == "+Inf" and value == 2.0
        for labels, value in samples["repro_req_seconds_bucket"]
    )
    assert samples["repro_req_seconds_count"] == [({}, 2.0)]
    assert samples["repro_cache_hits"] == [({}, 5.0)]
    assert samples["repro_jobs_done"] == [({}, 2.0)]


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("this is { not prometheus\n")


def test_flatten_json_metrics_skips_non_numeric():
    lines = flatten_json_metrics(
        {"a": 1, "b": {"c": 2.5, "name": "text"}, "flag": True}
    )
    joined = "\n".join(lines)
    assert "repro_a 1" in joined
    assert "repro_b_c 2.5" in joined
    assert "text" not in joined


def test_label_values_are_escaped():
    reg = Registry()
    c = reg.counter("repro_esc_total", "help", labelnames=("who",))
    c.inc(who='a"b\\c\nd')
    text = reg.to_prometheus()
    samples = parse_prometheus(text)
    ((labels, value),) = samples["repro_esc_total"]
    assert value == 1.0
    assert labels["who"] == 'a"b\\c\nd'


# ----------------------------------------------------------------------
# Profiling hooks
# ----------------------------------------------------------------------


def test_n_bucket_edges():
    assert obs_profile.n_bucket(1) == "n<=1"
    assert obs_profile.n_bucket(10) == "n<=16"
    assert obs_profile.n_bucket(16) == "n<=16"
    assert obs_profile.n_bucket(17) == "n<=32"
    assert obs_profile.n_bucket(4097) == "n<=8192"


def test_record_kernel_and_phase_profiles():
    obs_profile.enable()
    obs_profile.record_kernel("dense", "graph-compose", 8, 0.25)
    obs_profile.record_kernel("dense", "graph-compose", 8, 0.75)
    obs_profile.record_phases("batch", 0.4, 0.6)
    kp = obs_profile.kernel_profile()
    assert kp["dense/graph-compose/n<=8"]["calls"] == 2
    assert kp["dense/graph-compose/n<=8"]["seconds"] == pytest.approx(1.0)
    pp = obs_profile.phase_profile()
    assert pp["batch"]["runs"] == 1
    assert pp["batch"]["decision_s"] == pytest.approx(0.4)
    assert pp["batch"]["kernel_s"] == pytest.approx(0.6)


def test_sync_observer_installs_and_removes_hook():
    assert core_kernels._compose_observer is None
    obs_profile.enable()
    assert core_kernels._compose_observer is not None
    obs_profile.disable()
    assert core_kernels._compose_observer is None


@pytest.mark.parametrize("backend", ["dense", "bitset"])
def test_profiled_apply_graph_records_graph_compose_row(backend):
    from repro.adversaries.nonsplit import cyclic_nonsplit_graph
    from repro.core.state import BroadcastState

    n = 12
    state = BroadcastState.initial(n, backend=backend)
    obs_profile.enable()
    state.apply_graph(cyclic_nonsplit_graph(n)).apply_graph(cyclic_nonsplit_graph(n))
    obs_profile.disable()
    row = obs_profile.kernel_profile()[f"{backend}/graph-compose/n<=16"]
    assert row["calls"] == 2
    assert row["seconds"] >= 0.0


def test_profiling_captures_real_engine_run():
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import SequentialExecutor
    from repro.engine.runner import RunSpec

    obs_profile.enable()
    report = SequentialExecutor().run(
        RunSpec(adversary=CyclicFamilyAdversary, n=10)
    )
    obs_profile.disable()
    assert report.timings is not None
    assert report.timings["decision_s"] >= 0.0
    assert report.timings["kernel_s"] >= 0.0
    kp = obs_profile.kernel_profile()
    assert any("n<=16" in key for key in kp)


def test_disabled_run_skips_timings():
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import SequentialExecutor
    from repro.engine.runner import RunSpec

    report = SequentialExecutor().run(
        RunSpec(adversary=CyclicFamilyAdversary, n=10)
    )
    assert report.timings is None


def test_traced_engine_run_produces_kernel_spans(tmp_path):
    from repro.adversaries import CyclicFamilyAdversary
    from repro.engine.executor import SequentialExecutor
    from repro.engine.runner import RunSpec

    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    obs_profile.sync_observer()
    SequentialExecutor().run(
        RunSpec(adversary=CyclicFamilyAdversary, n=10)
    )
    obs_trace.disable()
    obs_profile.sync_observer()
    spans = obs_trace.read_spans(str(sink))
    names = {s["name"] for s in spans}
    assert "run" in names and "kernel" in names
    kernel = next(s for s in spans if s["name"] == "kernel")
    assert kernel["attrs"]["backend"]
    assert kernel["attrs"]["kernel"]


def test_sharded_sweep_spans_join_the_callers_trace(tmp_path):
    """A ``workers > 1`` library sweep carries the trace context into its
    spawned workers: their shard, run-group and kernel spans land in the
    caller's trace."""
    from functools import partial

    from repro.adversaries.oblivious import RandomTreeAdversary
    from repro.adversaries.paths import StaticPathAdversary
    from repro.analysis.sweep import sweep_adversaries

    factories = {
        "StaticPath": StaticPathAdversary,
        "RandomTree": partial(RandomTreeAdversary, seed=0),
    }
    sink = tmp_path / "spans.jsonl"
    obs_trace.enable(str(sink))
    with obs_trace.span("caller"):
        result = sweep_adversaries(factories, [4, 6], workers=2)
    obs_trace.disable()
    assert len(result.points) == 4

    spans = obs_trace.read_spans(str(sink))
    (caller,) = [s for s in spans if s["name"] == "caller"]
    traced = [s for s in spans if s["trace_id"] == caller["trace_id"]]
    names = {s["name"] for s in traced}
    assert {"shard", "run_group", "kernel"} <= names
    assert sum(s["name"] == "shard" for s in traced) == 2
