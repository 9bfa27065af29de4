"""Tests for the repro.trace subsystem: spans, metrics, sinks, reports,
and its integration with the partitioning drivers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.graph import mesh_like
from repro.obs import FlightRecorder, profile_from_events, render_profile
from repro.partition import best_of, part_graph
from repro.trace import (
    NULL_TRACER,
    Histogram,
    InMemorySink,
    JsonlSink,
    MetricsRegistry,
    NullTracer,
    Sink,
    Span,
    TraceReport,
    Tracer,
    as_tracer,
    labeled,
    load_jsonl,
    render_span_tree,
    spans_from_events,
)
from repro.weights import type1_region_weights


@pytest.fixture(scope="module")
def mesh():
    g = mesh_like(600, seed=0)
    return g.with_vwgt(type1_region_weights(g, 2, seed=1))


class TestSpans:
    def test_nesting_and_attrs(self):
        tr = Tracer()
        with tr.span("root", a=1) as root:
            with tr.span("child") as c1:
                c1.set(x=2)
            with tr.span("child"):
                pass
        assert root.closed and root.seconds >= 0
        assert [c.name for c in root.children] == ["child", "child"]
        assert root.attrs == {"a": 1}
        assert root.children[0].attrs == {"x": 2}
        assert tr.root is root and tr.roots == [root]

    def test_current_tracks_stack(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("a") as a:
            assert tr.current is a
            with tr.span("b") as b:
                assert tr.current is b
            assert tr.current is a
        assert tr.current is None

    def test_find_walk_child(self):
        tr = Tracer()
        with tr.span("r"):
            with tr.span("p"):
                with tr.span("leaf", n=1):
                    pass
            with tr.span("leaf", n=2):
                pass
        r = tr.root
        assert r.find("leaf").attrs == {"n": 1}  # pre-order: nested first
        assert [sp.attrs["n"] for sp in r.find_all("leaf")] == [1, 2]
        assert r.child("leaf").attrs == {"n": 2}  # direct child only
        assert r.child("nope") is None
        assert [d for d, _ in r.walk()] == [0, 1, 2, 1]

    def test_finish_closes_open_spans(self):
        tr = Tracer()
        tr.span("a")
        tr.span("b")
        roots = tr.finish()
        assert len(roots) == 1
        assert roots[0].closed and roots[0].children[0].closed
        assert tr.finish() is roots  # idempotent

    def test_multiple_roots(self):
        tr = Tracer()
        with tr.span("one"):
            pass
        with tr.span("two"):
            pass
        assert [r.name for r in tr.roots] == ["one", "two"]


class TestNullTracer:
    def test_everything_is_noop(self):
        assert as_tracer(None) is NULL_TRACER
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x", a=1) as sp:
            assert sp.set(b=2) is sp
        assert sp.attrs == {}
        assert NULL_TRACER.span("y") is sp  # shared singleton span
        NULL_TRACER.incr("c")
        NULL_TRACER.gauge("g", 1.0)
        assert NULL_TRACER.finish() == ()

    def test_real_tracer_passes_through(self):
        tr = Tracer()
        assert as_tracer(tr) is tr


class TestMetrics:
    def test_registry(self):
        reg = MetricsRegistry()
        reg.counter("moves").inc(3)
        reg.counter("moves").inc()
        reg.gauge("cut").set(42)
        reg.histogram("lat").observe(0.01)
        assert reg.counter_values() == {"moves": 4}
        assert reg.gauge_values() == {"cut": 42}
        d = reg.as_dict()
        assert set(d) == {"counters", "gauges", "histograms"}
        assert d["counters"] == {"moves": 4}
        assert d["gauges"] == {"cut": 42}
        assert d["histograms"]["lat"]["count"] == 1
        assert d["histograms"]["lat"]["sum"] == pytest.approx(0.01)

    def test_tracer_shorthands(self):
        tr = Tracer()
        tr.incr("a", 2)
        tr.incr("a")
        tr.gauge("b", 7)
        tr.observe("c", 0.25)
        assert tr.metrics.counter_values() == {"a": 3}
        assert tr.metrics.gauge_values() == {"b": 7}
        assert tr.metrics.histogram("c").count == 1

    def test_histogram_exact_quantiles(self):
        h = Histogram("h")
        for v in (0.010, 0.012, 0.048, 0.250):
            h.observe(v)
        assert h.exact and h.count == 4
        assert h.min == 0.010 and h.max == 0.250
        assert h.quantile(0.0) == pytest.approx(0.010)
        assert h.quantile(0.5) == pytest.approx(0.030)  # midway 0.012..0.048
        assert h.quantile(1.0) == pytest.approx(0.250)

    def test_histogram_snapshot_buckets_cumulative(self):
        h = Histogram("h", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["buckets"] == [[0.1, 1], [1.0, 2], [10.0, 3], ["+Inf", 4]]
        assert snap["count"] == 4
        assert snap["p50"] is not None

    def test_histogram_bucket_estimate_past_cap(self):
        h = Histogram("h", exact_cap=8)
        for i in range(100):
            h.observe(0.001 * (1 + i % 10))
        assert not h.exact and h.count == 100
        # Estimated quantiles stay inside the observed range.
        for q in (0.5, 0.9, 0.99):
            assert h.min <= h.quantile(q) <= h.max

    def test_histogram_empty_and_bad_bounds(self):
        assert Histogram("h").quantile(0.5) is None
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))

    def test_snapshot_carries_quantile_caveat_past_cap(self):
        h = Histogram("h", exact_cap=8)
        for i in range(20):
            h.observe(float(i))
        snap = h.snapshot()
        assert snap["quantile_source"] == "bucket_estimate"
        assert "8" in snap["quantile_caveat"]
        exact = Histogram("h2")
        exact.observe(1.0)
        snap2 = exact.snapshot()
        assert snap2["quantile_source"] == "exact"
        assert "quantile_caveat" not in snap2


class TestMetricsMerge:
    """Cross-process merge semantics: merging per-worker registry splits
    must equal one registry that saw every observation."""

    def test_labeled_encodes_sorted_labels(self):
        assert labeled("steps", rank=0) == 'steps{rank="0"}'
        assert (labeled("x", b="2", a="1")
                == labeled("x", a="1", b="2")
                == 'x{a="1",b="2"}')

    def test_histogram_merge_of_splits_equals_whole(self):
        vals = [0.001 * (1 + i % 37) for i in range(60)]
        whole = Histogram("h", exact_cap=512)
        for v in vals:
            whole.observe(v)
        left, right = Histogram("h"), Histogram("h")
        for v in vals[:25]:
            left.observe(v)
        for v in vals[25:]:
            right.observe(v)
        left.merge(right)
        assert left.count == whole.count
        assert left.sum == pytest.approx(whole.sum)
        assert left.min == whole.min and left.max == whole.max
        assert left.snapshot()["buckets"] == whole.snapshot()["buckets"]
        # Both sides exact and merged count under the cap: quantiles exact.
        assert left.exact
        for q in (0.0, 0.5, 0.9, 1.0):
            assert left.quantile(q) == pytest.approx(whole.quantile(q))

    def test_merge_drops_samples_honestly_past_cap(self):
        a, b = Histogram("h", exact_cap=8), Histogram("h", exact_cap=8)
        for i in range(6):
            a.observe(float(i))
            b.observe(float(i))
        a.merge(b)  # 12 samples > cap of 8
        assert a.count == 12 and not a.exact
        assert a.snapshot()["quantile_source"] == "bucket_estimate"

    def test_merge_accepts_state_dict_and_rejects_bounds_mismatch(self):
        a = Histogram("h")
        b = Histogram("h")
        b.observe(0.5)
        a.merge(b.state())
        assert a.count == 1 and a.sum == pytest.approx(0.5)
        with pytest.raises(ValueError):
            a.merge(Histogram("o", bounds=(1.0, 2.0)))

    def test_registry_merge_with_labels_and_prefix(self):
        worker = MetricsRegistry()
        worker.counter("steps").inc(7)
        worker.gauge("cached").set(3)
        worker.histogram("lat").observe(0.25)
        parent = MetricsRegistry()
        parent.merge(worker.state(), labels={"rank": 1}, prefix="shm.")
        assert parent.counter_values() == {'shm.steps{rank="1"}': 7}
        assert parent.gauge_values() == {'shm.cached{rank="1"}': 3}
        h = parent.histogram_values()['shm.lat{rank="1"}']
        assert h["count"] == 1 and h["sum"] == pytest.approx(0.25)

    def test_registry_merge_of_splits_equals_whole(self):
        whole = MetricsRegistry()
        parts = [MetricsRegistry() for _ in range(3)]
        for i in range(30):
            reg = parts[i % 3]
            for r in (whole, reg):
                r.counter("n").inc()
                r.histogram("v").observe(0.01 * i)
        merged = MetricsRegistry()
        for reg in parts:
            merged.merge(reg)
        assert merged.counter_values() == whole.counter_values()
        ma = merged.histogram_values()["v"]
        wa = whole.histogram_values()["v"]
        assert ma["count"] == wa["count"]
        assert ma["sum"] == pytest.approx(wa["sum"])
        assert ma["buckets"] == wa["buckets"]


class TestSpanGraft:
    def test_graft_reparents_and_renumbers(self):
        child_tr = Tracer()
        with child_tr.span("worker", rank=0):
            with child_tr.span("phase"):
                pass
        child_tr.finish()
        sink = InMemorySink()
        tr = Tracer([sink])
        with tr.span("driver"):
            pass
        grafted = tr.graft(child_tr.root, parent=tr.root)
        assert grafted in tr.root.children
        assert grafted.parent_id == tr.root.span_id
        ids = {tr.root.span_id, grafted.span_id,
               grafted.children[0].span_id}
        assert len(ids) == 3  # renumbered: no collisions with the host
        roots = spans_from_events(sink.events)
        host = next(r for r in roots if r.name == "driver")
        assert [c.name for c in host.children] == ["worker"]
        assert [c.name for c in host.children[0].children] == ["phase"]

    def test_null_tracer_graft_is_noop(self):
        sp = Span(name="x", span_id=1)
        assert NULL_TRACER.graft(sp) is sp


class TestSinks:
    def test_in_memory_emits_children_before_parents(self):
        sink = InMemorySink()
        tr = Tracer([sink])
        with tr.span("outer"):
            with tr.span("inner"):
                pass
        names = [e["name"] for e in sink.events]
        assert names == ["inner", "outer"]

    def test_metrics_event_on_finish(self):
        sink = InMemorySink()
        tr = Tracer([sink])
        with tr.span("s"):
            tr.incr("n", 5)
        tr.finish()
        assert sink.events[-1] == {"event": "metrics", "counters": {"n": 5},
                                   "gauges": {}}

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = Tracer([JsonlSink(path)])
        with tr.span("root", n=np.int64(3), f=np.float64(0.5),
                      arr=np.arange(2)):
            with tr.span("kid"):
                pass
        tr.gauge("cut", np.int64(9))
        tr.finish()

        events = load_jsonl(path)
        assert all(isinstance(json.dumps(e), str) for e in events)
        roots = spans_from_events(events)
        assert len(roots) == 1
        (root,) = roots
        assert root.name == "root"
        assert root.attrs == {"n": 3, "f": 0.5, "arr": [0, 1]}
        assert [c.name for c in root.children] == ["kid"]
        assert root.seconds >= root.children[0].seconds >= 0

    def test_spans_from_events_ignores_other_events(self):
        assert spans_from_events([{"event": "metrics", "counters": {}}]) == []

    def test_spans_from_events_out_of_order(self):
        # Children are emitted before parents in a live stream; the tree
        # must also survive arbitrary shuffling of the lines.
        tr = Tracer([sink := InMemorySink()])
        with tr.span("root"):
            with tr.span("mid"):
                with tr.span("leaf", n=1):
                    pass
            with tr.span("leaf", n=2):
                pass
        tr.finish()
        events = [e for e in sink.events if e["event"] == "span"]
        for order in (events, events[::-1],
                      sorted(events, key=lambda e: e["name"])):
            (root,) = spans_from_events(order)
            assert root.name == "root"
            assert [c.name for c in root.children] == ["mid", "leaf"]
            assert root.children[0].children[0].attrs == {"n": 1}
            assert root.find("leaf").attrs == {"n": 1}  # nesting preserved

    def test_sink_is_context_manager(self):
        class Recording(Sink):
            def __init__(self):
                self.events, self.closed = [], False

            def emit(self, event):
                self.events.append(event)

            def close(self):
                self.closed = True

        with Recording() as sink:
            sink.emit({"event": "x"})
        assert sink.closed and sink.events == [{"event": "x"}]

    def test_jsonl_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.emit({"event": "x"})
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"event": "y"})
        assert load_jsonl(tmp_path / "t.jsonl") == [{"event": "x"}]

    def test_tracer_finish_closes_sinks_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tr = Tracer([JsonlSink(path)])
        with tr.span("a"):
            pass
        roots = tr.finish()
        assert tr.finish() is roots  # second finish: no emit into dead sink
        assert [e["name"] for e in load_jsonl(path)] == ["a"]


class TestRender:
    def test_tree_shape_and_attrs(self):
        tr = Tracer()
        with tr.span("root", method="kway"):
            with tr.span("coarsen", levels=[100, 50]):
                pass
            with tr.span("refine"):
                with tr.span("level", nvtxs=100, imbalance=1.0499):
                    pass
        out = render_span_tree(tr.root)
        assert out.splitlines()[0].startswith("root")
        assert "├─ coarsen" in out and "└─ refine" in out
        assert "levels=[100, 50]" in out
        assert "imbalance=1.05" in out  # floats shortened

    def test_max_depth_truncates(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    pass
        out = render_span_tree(tr.root, max_depth=1)
        assert "b" in out and "c" not in out and "..." in out


class TestTraceReport:
    def test_kway_report(self, mesh):
        res = part_graph(mesh, 4, seed=2, collect_stats=True)
        rep = res.stats
        assert isinstance(rep, TraceReport)
        assert rep.method == "kway"
        assert rep.root.name == "partition"
        assert rep.root.attrs["cut"] == res.edgecut
        assert rep.root.attrs["feasible"] == res.feasible
        assert rep.total_seconds > 0
        for phase in ("coarsen", "initpart", "refine"):
            assert rep.phase(phase) is not None
            assert rep.phase_seconds(phase) >= 0
        assert rep.levels[0] == 600
        assert len(rep.level_trace()) == len(rep.levels) - 1
        assert rep.gauges["final.cut"] == res.edgecut
        assert rep.counters["kway.moves"] >= 0

    def test_dict_compatible_view(self, mesh):
        res = part_graph(mesh, 4, seed=2, collect_stats=True)
        st = res.stats
        # the pre-subsystem consumers' contract
        assert st["method"] == "kway"
        assert st["levels"] == sorted(st["levels"], reverse=True)
        assert len(st["trace"]) == len(st["levels"]) - 1
        for entry in st["trace"]:
            assert entry["cut"] >= 0 and entry["imbalance"] >= 1.0 - 1e-9
        assert st["coarsen_seconds"] >= 0
        assert "refine_seconds" in st and "initpart_seconds" in st
        assert dict(st)["method"] == "kway"  # Mapping protocol
        assert st.get("nope") is None

    def test_recursive_report(self, mesh):
        res = part_graph(mesh, 5, method="recursive", seed=3,
                         collect_stats=True)
        st = res.stats
        assert st["method"] == "recursive"
        assert st["bisections"] == 4
        assert st["trace"][0]["nvtxs"] == 600
        assert st["total_seconds"] > 0
        assert res.stats.bisection_trace()[0]["parts"] == 5

    def test_explicit_tracer_without_collect_stats(self, mesh):
        sink = InMemorySink()
        tracer = Tracer([sink])
        res = part_graph(mesh, 3, seed=4, tracer=tracer)
        assert res.stats is not None
        assert res.stats["method"] == "kway"
        tracer.finish()
        assert any(e["name"] == "partition" for e in sink.events
                   if e["event"] == "span")

    def test_default_is_untraced(self, mesh):
        assert part_graph(mesh, 3, seed=5).stats is None

    def test_from_events_roundtrip(self, mesh, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer([JsonlSink(path)])
        res = part_graph(mesh, 4, seed=6, tracer=tracer)
        tracer.finish()
        rep = TraceReport.from_events(load_jsonl(path))
        assert rep.method == "kway"
        assert rep["levels"] == res.stats["levels"]
        assert [t["cut"] for t in rep["trace"]] == \
               [t["cut"] for t in res.stats["trace"]]
        assert rep.gauges["final.cut"] == res.edgecut

    def test_render_mentions_phases(self, mesh):
        res = part_graph(mesh, 4, seed=7, collect_stats=True)
        out = res.stats.render()
        for token in ("partition", "coarsen", "initpart", "refine",
                      "cut=", "max_imbalance="):
            assert token in out
        assert "counters:" in out and "gauges:" in out

    def test_empty_report(self):
        rep = TraceReport(None)
        assert rep.method is None and rep.levels == []
        assert rep.render() == "(empty trace)"

    def test_ensemble_traces_every_run(self, mesh):
        tracer = Tracer()
        ens = best_of(mesh, 4, 3, seed=8, tracer=tracer)
        assert len(tracer.roots) == 3
        assert ens.best.stats is not None
        assert ens.best.stats["method"] == "kway"


class TestDriverSpans:
    def test_coarsen_levels_recorded(self, mesh):
        res = part_graph(mesh, 4, seed=9, collect_stats=True)
        spans = res.stats.phase("coarsen").find_all("coarsen_level")
        contracted = [sp for sp in spans if "coarse_nvtxs" in sp.attrs]
        assert len(contracted) == len(res.stats.levels) - 1
        for sp in contracted:
            assert 0 < sp.attrs["shrink"] <= 1.0
            assert sp.attrs["coarse_nvtxs"] < sp.attrs["nvtxs"]

    def test_initpart_candidates_counted(self, mesh):
        res = part_graph(mesh, 4, seed=10, collect_stats=True)
        init = res.stats.phase("initpart")
        cand = init.find("initbisect")
        assert cand is not None
        assert cand.attrs["candidates"] > 0
        assert res.stats.counters["initpart.candidates"] >= cand.attrs["candidates"]

    def test_recursive_fm_levels(self, mesh):
        res = part_graph(mesh, 2, method="recursive", seed=11,
                         collect_stats=True)
        fm = res.stats.root.find_all("fm_level")
        assert fm, "multilevel bisection should FM-refine per level"
        assert all("cut" in sp.attrs for sp in fm)
        assert res.stats.counters["fm.passes"] >= len(fm)

    def test_parallel_driver_trace(self, mesh):
        from repro.parallel import parallel_part_graph

        tracer = Tracer()
        res = parallel_part_graph(mesh, 4, 4, tracer=tracer)
        tracer.finish()
        root = tracer.root
        assert root.name == "parallel_partition"
        assert root.attrs["nranks"] == 4
        assert root.attrs["cut"] == res.edgecut
        assert root.attrs["sim_seconds"] == pytest.approx(
            sum(res.phase_times.values()))
        for phase in ("coarsen", "initpart", "refine"):
            sp = root.child(phase)
            assert sp is not None and sp.attrs["sim_seconds"] >= 0
        levels = root.child("refine").find_all("level")
        assert len(levels) == res.levels
        assert all("committed" in sp.attrs for sp in levels)


class TestTraceDiagnostics:
    """Per-level profiles of a traced run come from the flight recorder
    and agree with the run's :class:`TraceReport`."""

    @staticmethod
    def _recorded(mesh, seed):
        rec = FlightRecorder()
        tracer = Tracer([rec])
        res = part_graph(mesh, 4, seed=seed, tracer=tracer)
        tracer.finish()
        return res, rec.profile()

    def test_coarsening_profile_from_trace(self, mesh):
        res, prof = self._recorded(mesh, 12)
        assert [r.nvtxs for r in prof.coarsening] == res.stats.levels[:-1]
        assert prof.initial.nvtxs == res.stats.levels[-1]
        assert all(0 < r.shrink <= 1.0 for r in prof.coarsening)
        text = render_profile(prof)
        assert "coarsen" in text and "600" in text

    def test_refinement_profile_from_trace(self, mesh):
        res, prof = self._recorded(mesh, 13)
        assert len(prof.uncoarsening) == len(res.stats["trace"])
        assert prof.uncoarsening[-1].nvtxs == 600  # finest level last
        assert prof.uncoarsening[-1].cut == res.edgecut
        assert all(r.seconds >= 0 for r in prof.uncoarsening)
        assert "refine" in render_profile(prof)

    def test_profiles_empty_without_phases(self):
        rep = TraceReport(None)
        assert rep.levels == [] and rep.level_trace() == []
        assert profile_from_events([]).rows() == []


class TestNoopOverheadGuard:
    def test_null_span_is_cheap(self):
        # Regression guard for the zero-overhead claim (the real budget is
        # asserted in benchmarks/bench_trace_overhead.py): 10k null spans
        # must be effectively instant.
        import time

        t0 = time.perf_counter()
        for _ in range(10_000):
            with NULL_TRACER.span("x", nvtxs=1):
                pass
        assert time.perf_counter() - t0 < 0.5
