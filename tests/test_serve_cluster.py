"""The cluster tier's contract: backend parity, the ship-once marshalling
protocol, admission control / load shedding, and per-class deadlines.

The headline invariant: the **process backend is bit-identical to the
thread backend** (which is itself bit-identical to a serial ``part_graph``)
for every pinned-seed request -- the thread backend is the deterministic
oracle, and swapping the execution substrate must never change a single
bit of the answer.  See ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.serve.service as service_mod
from repro.errors import (
    ReproError,
    ServeError,
    ServeOverloadError,
    ServeTimeoutError,
)
from repro.graph import mesh_like
from repro.partition import part_graph
from repro.serve import (
    BACKENDS,
    AdmissionController,
    PartitionService,
    ProcessBackend,
    ServiceConfig,
    ThreadBackend,
    make_backend,
)
from repro.weights import type1_region_weights


def make_graph(n=300, ncon=2, seed=0):
    g = mesh_like(n, seed=seed)
    if ncon > 1:
        g = g.with_vwgt(type1_region_weights(g, ncon, seed=seed + 1))
    return g


def same_result(a, b) -> bool:
    return (
        np.array_equal(a.part, b.part)
        and a.edgecut == b.edgecut
        and np.array_equal(a.imbalance, b.imbalance)
        and a.feasible == b.feasible
        and a.nparts == b.nparts
        and a.method == b.method
    )


# --------------------------------------------------------------------- #
# Backend seam
# --------------------------------------------------------------------- #


class TestBackendSeam:
    def test_registry(self):
        assert BACKENDS == ("thread", "process")
        assert isinstance(make_backend("thread"), ThreadBackend)
        with pytest.raises(ValueError, match="unknown serve backend"):
            make_backend("gpu")

    def test_default_service_uses_thread_backend(self):
        with PartitionService() as svc:
            assert isinstance(svc._backend, ThreadBackend)

    def test_thread_backend_honours_service_monkeypatch(self, monkeypatch):
        """The seam must keep intercepting ``service.part_graph`` -- the
        test-and-user-facing hook from the pre-backend era."""
        g = make_graph(100, 1)
        seen = []
        real = service_mod.part_graph

        def spy(*args, **kwargs):
            seen.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", spy)
        with PartitionService(ServiceConfig(warm_start=False)) as svc:
            svc.partition(g, 4, seed=0)
        assert seen == [4]


# --------------------------------------------------------------------- #
# Process backend: determinism parity + marshalling protocol
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def process_service():
    """One shared 2-worker process-backend service (spawning workers is
    the expensive part; the tests share the pool)."""
    cfg = ServiceConfig(backend="process", process_workers=2,
                        max_workers=4, warm_start=False)
    svc = PartitionService(cfg)
    svc.warmup()
    yield svc
    svc.close()


class TestProcessParity:
    def test_process_backend_is_bit_identical_to_oracle(self, process_service):
        """Thread backend == process backend == serial part_graph, bit for
        bit, across mixed topologies / k / m / methods."""
        draws = [
            dict(n=120, ncon=1, nparts=3, seed=11, method="kway"),
            dict(n=200, ncon=2, nparts=4, seed=7, method="kway"),
            dict(n=260, ncon=3, nparts=5, seed=23, method="recursive"),
            dict(n=160, ncon=2, nparts=2, seed=5, method="recursive"),
        ]
        with PartitionService(ServiceConfig(warm_start=False)) as oracle:
            for d in draws:
                g = make_graph(d["n"], d["ncon"], seed=d["seed"])
                kwargs = dict(method=d["method"], seed=d["seed"])
                want = part_graph(g, d["nparts"], **kwargs)
                via_thread = oracle.partition(g, d["nparts"], **kwargs)
                via_process = process_service.partition(
                    g, d["nparts"], **kwargs)
                assert same_result(via_thread, want), d
                assert same_result(via_process, want), d

    def test_concurrent_process_computes_stay_deterministic(
            self, process_service):
        """Distinct concurrent requests through the process pool each match
        their serial reference (no cross-talk between workers)."""
        graphs = [make_graph(150, 2, seed=s) for s in (31, 32, 33, 34)]
        futs = [process_service.submit(g, 4, seed=9) for g in graphs]
        for g, fut in zip(graphs, futs):
            assert same_result(fut.result(timeout=120.0),
                               part_graph(g, 4, seed=9))

    def test_ship_once_protocol_counters(self):
        """With one worker, a graph's arrays are marshalled exactly once;
        repeat computes ship only the token."""
        g = make_graph(150, 1, seed=40)
        cfg = ServiceConfig(backend="process", process_workers=1,
                            cache_entries=0, dedup=False, warm_start=False)
        with PartitionService(cfg) as svc:
            ref = part_graph(g, 4, seed=1)
            for _ in range(3):
                assert same_result(svc.partition(g, 4, seed=1), ref)
            stats = svc.stats()
        assert stats["serve.cluster.computes"] == 3
        assert stats["serve.cluster.ship.full"] == 1
        assert stats["serve.cluster.ship.token"] == 2
        assert stats["serve.cluster.ship.retry"] == 0

    def test_ship_accounting_consistent_across_workers(self, process_service):
        """Every compute is either a token-only or a full ship; retries are
        re-ships after a token landed on a cold worker."""
        stats = process_service.stats()
        assert (stats["serve.cluster.ship.token"]
                + stats["serve.cluster.ship.full"]
                >= stats["serve.cluster.computes"])
        assert stats["serve.cluster.ship.retry"] <= stats[
            "serve.cluster.ship.full"]

    def test_worker_telemetry_labeled_per_pid(self, process_service):
        """Every process compute ships a telemetry delta back on its
        result future: pid-labeled latency histograms plus live worker
        gauges, surfaced through metrics_text() as parseable series."""
        from repro.obs import parse_exposition

        g = make_graph(140, 1, seed=50)
        ref = part_graph(g, 3, seed=2)
        assert same_result(process_service.partition(g, 3, seed=2), ref)

        m = process_service._backend.metrics()
        hists = {k: v for k, v in m["histograms"].items()
                 if k.startswith("serve.cluster.worker.compute_seconds")}
        assert hists and all('worker="' in k for k in hists)
        assert sum(v["count"] for v in hists.values()) >= 1
        assert any(k.startswith("serve.cluster.worker.computes")
                   for k in m["counters"])
        assert any(k.startswith("serve.cluster.worker.cached_graphs")
                   for k in m["gauges"])
        families = parse_exposition(process_service.metrics_text())
        fam = families["repro_serve_cluster_worker_compute_seconds"]
        assert fam["type"] == "histogram"
        assert all("worker" in s[1] for s in fam["samples"])

    def test_thread_backend_has_no_worker_metrics(self):
        assert ThreadBackend().metrics() is None

    def test_worker_error_propagates(self, process_service):
        """An error raised inside a worker process surfaces to the caller
        as the original typed error, and the pool survives it."""
        from repro.partition import PartitionOptions

        g = make_graph(50, 1)
        backend = process_service._backend
        with pytest.raises(ReproError):
            backend.compute(g, 1000, method="kway",
                            options=PartitionOptions(seed=0),
                            target_fracs=None, graph_token="err:test")
        ref = part_graph(g, 2, seed=3)
        assert same_result(process_service.partition(g, 2, seed=3), ref)


# --------------------------------------------------------------------- #
# Admission control / shedding
# --------------------------------------------------------------------- #


class TestAdmissionController:
    def test_bounds_and_counters(self):
        adm = AdmissionController(max_pending=2, batch_shed_fraction=0.5)
        adm.admit("interactive")
        with pytest.raises(ServeOverloadError):
            adm.admit("batch")          # batch bound = 1, pending = 1
        adm.admit("interactive")        # interactive bound = 2
        with pytest.raises(ServeOverloadError) as exc:
            adm.admit("interactive")
        assert exc.value.queue_depth == 2
        assert adm.counters() == {"serve.shed": 2,
                                  "serve.shed.interactive": 1,
                                  "serve.shed.batch": 1}
        adm.start()
        assert adm.gauges() == {"serve.queue_depth": 1, "serve.inflight": 1}
        adm.done()
        adm.abandon()
        assert adm.gauges() == {"serve.queue_depth": 0, "serve.inflight": 0}

    def test_unbounded_by_default(self):
        adm = AdmissionController()
        for _ in range(1000):
            adm.admit("batch")
        assert adm.counters()["serve.shed"] == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(max_pending=-1)
        with pytest.raises(ValueError):
            AdmissionController(batch_shed_fraction=1.5)
        with pytest.raises(ValueError):
            AdmissionController().admit("bulk")

    def test_overload_is_a_serve_error(self):
        err = ServeOverloadError("x", klass="batch", queue_depth=3)
        assert isinstance(err, ServeError)
        assert isinstance(err, ReproError)
        assert err.klass == "batch" and err.queue_depth == 3


class TestServiceShedding:
    def test_batch_sheds_before_interactive(self, monkeypatch):
        g = make_graph(100, 1)
        release = threading.Event()
        real = service_mod.part_graph

        def gated(*args, **kwargs):
            release.wait(10.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", gated)
        cfg = ServiceConfig(max_workers=1, warm_start=False,
                            max_pending=2, batch_shed_fraction=0.5)
        with PartitionService(cfg) as svc:
            try:
                filler = svc.submit(g, 2, seed=0)
                # wait until the filler occupies the worker (queue empty)
                deadline = time.monotonic() + 5.0
                while svc.stats()["serve.inflight"] != 1:
                    assert time.monotonic() < deadline, "filler never started"
                    time.sleep(0.01)
                a = svc.submit(g, 3, seed=0)                 # pending = 1
                with pytest.raises(ServeOverloadError):
                    svc.submit(g, 4, seed=0, klass="batch")  # batch bound 1
                b = svc.submit(g, 5, seed=0)                 # pending = 2
                with pytest.raises(ServeOverloadError):
                    svc.submit(g, 6, seed=0)                 # full
            finally:
                release.set()
            for fut in (filler, a, b):
                assert fut.result(timeout=30.0).feasible is not None
            stats = svc.stats()
        assert stats["serve.shed"] == 2
        assert stats["serve.shed.batch"] == 1
        assert stats["serve.shed.interactive"] == 1
        # shed requests never became computes
        assert stats["serve.cold_computes"] == 3

    def test_hits_are_served_even_when_shedding_everything(self):
        g = make_graph(120, 1)
        cfg = ServiceConfig(max_pending=0, warm_start=False)
        with PartitionService(cfg) as svc:
            with pytest.raises(ServeOverloadError):
                svc.partition(g, 4, seed=0)
            # hand-feed the cache through a temporarily lifted bound
            svc.admission.max_pending = None
            cold = svc.partition(g, 4, seed=0)
            svc.admission.max_pending = 0
            hit = svc.partition(g, 4, seed=0)   # cache hit: no queue slot
            assert same_result(hit, cold)
            assert svc.stats()["serve.cache.hits"] == 1

    def test_shed_batch_raises_aggregate_with_overload(self):
        from repro.errors import ServeBatchError

        g = make_graph(120, 1)
        cfg = ServiceConfig(max_pending=0, warm_start=False)
        with PartitionService(cfg) as svc:
            with pytest.raises(ServeBatchError) as exc:
                svc.batch([(g, 4, {"seed": 0})])
        assert isinstance(exc.value.errors[0], ServeOverloadError)

    def test_invalid_class_rejected_at_submit(self):
        g = make_graph(100, 1)
        with PartitionService() as svc:
            with pytest.raises(ValueError, match="request class"):
                svc.submit(g, 4, seed=0, klass="bulk")


# --------------------------------------------------------------------- #
# Per-class deadlines
# --------------------------------------------------------------------- #


class TestClassDeadlines:
    def test_batch_timeout_config_applies_per_class(self, monkeypatch):
        g = make_graph(100, 1)
        # Deadline precedence for both classes: an explicit timeout= wins,
        # then the class's own timeout, then default_timeout.
        levels = [
            ({}, {"interactive": None, "batch": None}),
            ({"default_timeout": 7.0}, {"interactive": 7.0, "batch": 7.0}),
            ({"default_timeout": 7.0, "interactive_timeout": 3.0},
             {"interactive": 3.0, "batch": 7.0}),
            ({"default_timeout": 7.0, "batch_timeout": 5.0},
             {"interactive": 7.0, "batch": 5.0}),
        ]
        for extra, expected in levels:
            cfg = ServiceConfig(warm_start=False, **extra)
            with PartitionService(cfg) as svc:
                svc.partition(g, 2, seed=0)  # later submits are cache hits
                for klass, class_default in expected.items():
                    for explicit in (None, 11.0):
                        want = class_default if explicit is None else explicit
                        t0 = time.monotonic()
                        fut = svc.submit(g, 2, seed=0, klass=klass,
                                         timeout=explicit)
                        if want is None:
                            assert fut._deadline is None, (extra, klass)
                        else:
                            assert fut._deadline - t0 == pytest.approx(
                                want, abs=1.0), (extra, klass, explicit)
                        assert fut.result().nparts == 2

        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        cfg = ServiceConfig(max_workers=1, warm_start=False,
                            batch_timeout=0.05)
        with PartitionService(cfg) as svc:
            filler = svc.submit(g, 2, seed=0)      # holds the worker
            batch_fut = svc.submit(g, 3, seed=0, klass="batch")
            inter_fut = svc.submit(g, 4, seed=0)   # interactive: no deadline
            with pytest.raises(ServeTimeoutError):
                batch_fut.result()
            assert inter_fut.result(timeout=30.0).nparts == 4
            assert filler.result(timeout=30.0).nparts == 2

    def test_explicit_timeout_beats_class_default(self, monkeypatch):
        g = make_graph(100, 1)
        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        cfg = ServiceConfig(max_workers=1, warm_start=False,
                            batch_timeout=0.01)
        with PartitionService(cfg) as svc:
            fut = svc.submit(g, 3, seed=0, klass="batch", timeout=30.0)
            assert fut.result().nparts == 3
