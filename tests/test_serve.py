"""The serving layer's contract: cache consistency, dedup, eviction,
warm-start fallback, deadlines, and concurrent determinism.

The headline invariant under test: **a cache hit is bit-identical to the
cold compute it stands in for** -- same part vector, edgecut, imbalance and
feasible flag -- across randomized requests, thread interleavings, and the
warm-start path's fallbacks.  See ``docs/serving.md``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.serve.service as service_mod
import repro.serve.warm as warm_mod
from repro._rng import canonical_seed
from repro.adaptive.repart import RepartitionResult
from repro.errors import (
    OptionsError,
    ServeBatchError,
    ServeTimeoutError,
    ServiceClosedError,
)
from repro.graph import mesh_like
from repro.partition import PartitionOptions, part_graph
from repro.serve import (
    PartitionService,
    RequestKey,
    ResultCache,
    ServiceConfig,
    request_key,
)
from repro.trace import Tracer
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
# Request keys
# --------------------------------------------------------------------- #


class TestRequestKey:
    def test_same_request_same_key(self):
        g = make_graph()
        k1, _ = request_key(g, 4, options=PartitionOptions(seed=3))
        k2, _ = request_key(g, 4, options=PartitionOptions(seed=3))
        assert k1.digest == k2.digest

    def test_content_addressed_not_identity(self):
        # A structurally identical copy of the graph must hit.
        g = make_graph()
        k1, _ = request_key(g, 4, options=PartitionOptions(seed=3))
        k2, _ = request_key(g.copy(), 4, options=PartitionOptions(seed=3))
        assert k1.digest == k2.digest

    @pytest.mark.parametrize("change", [
        dict(nparts=5),
        dict(method="recursive"),
        dict(options=PartitionOptions(seed=4)),
        dict(options=PartitionOptions(seed=3, ubvec=1.10)),
        dict(options=PartitionOptions(seed=3, matching="rm")),
        dict(options=PartitionOptions(seed=3, refine_passes=2)),
        dict(target_fracs=[0.4, 0.2, 0.2, 0.2]),
    ])
    def test_semantic_change_changes_key(self, change):
        g = make_graph()
        base = dict(nparts=4, options=PartitionOptions(seed=3))
        k1, _ = request_key(g, base["nparts"], options=base["options"])
        merged = {**base, **change}
        k2, _ = request_key(g, merged["nparts"], options=merged["options"],
                            method=merged.get("method", "kway"),
                            target_fracs=merged.get("target_fracs"))
        assert k1.digest != k2.digest

    def test_weights_change_key_but_not_topology(self):
        g = make_graph(ncon=2)
        g2 = g.with_vwgt(g.vwgt + 1)
        k1, _ = request_key(g, 4, options=PartitionOptions(seed=0))
        k2, _ = request_key(g2, 4, options=PartitionOptions(seed=0))
        assert k1.digest != k2.digest
        assert k1.topo_digest == k2.topo_digest

    def test_every_option_field_is_classified(self):
        """Each PartitionOptions field is hashed into the key or left out
        on purpose; a new option that is neither would let different
        requests share a cache entry."""
        from repro.partition.config import OPTION_FIELDS
        from repro.serve.key import SEMANTIC_OPTION_FIELDS

        assert set(SEMANTIC_OPTION_FIELDS) <= set(OPTION_FIELDS)
        assert set(OPTION_FIELDS) - set(SEMANTIC_OPTION_FIELDS) == {
            "seed", "ubvec", "collect_stats"}

    def test_collect_stats_is_not_semantic(self):
        g = make_graph()
        k1, _ = request_key(g, 4, options=PartitionOptions(seed=3))
        k2, _ = request_key(
            g, 4, options=PartitionOptions(seed=3, collect_stats=True))
        assert k1.digest == k2.digest

    def test_none_seed_is_uncacheable(self):
        g = make_graph()
        k, _ = request_key(g, 4, options=PartitionOptions(seed=None))
        assert not k.cacheable

    def test_generator_seed_is_pinned(self):
        g = make_graph()
        rng = np.random.default_rng(7)
        k, opts = request_key(g, 4, options=PartitionOptions(seed=rng))
        assert k.cacheable and isinstance(opts.seed, int)
        # Pinning consumed from the generator deterministically.
        assert opts.seed == canonical_seed(np.random.default_rng(7))


# --------------------------------------------------------------------- #
# The headline invariant: hit == cold compute, bit for bit
# --------------------------------------------------------------------- #


class TestCacheConsistencyProperty:
    def test_hit_is_bit_identical_to_cold_compute_50_draws(self):
        draw = np.random.default_rng(20260807)
        svc = PartitionService(ServiceConfig(warm_start=False))
        with svc:
            for i in range(50):
                n = int(draw.integers(60, 260))
                ncon = int(draw.integers(1, 4))
                nparts = int(draw.integers(2, 9))
                seed = int(draw.integers(0, 2**31))
                method = ["kway", "recursive"][int(draw.integers(0, 2))]
                matching = ["hem", "bem", "rm"][int(draw.integers(0, 3))]
                ubvec = float(draw.uniform(1.02, 1.4))
                g = make_graph(n, ncon, seed=int(draw.integers(0, 10_000)))
                kwargs = dict(method=method, seed=seed, ubvec=ubvec,
                              matching=matching)

                served = svc.partition(g, nparts, **kwargs)
                hit = svc.partition(g, nparts, **kwargs)
                cold = part_graph(g, nparts, **kwargs)
                assert same_result(served, cold), f"draw {i}: served != cold"
                assert same_result(hit, cold), f"draw {i}: hit != cold"
        stats = svc.stats()
        assert stats["serve.cache.hits"] == 50
        assert stats["serve.cold_computes"] == 50

    def test_hit_result_arrays_are_frozen(self):
        g = make_graph()
        with PartitionService() as svc:
            svc.partition(g, 4, seed=0)
            hit = svc.partition(g, 4, seed=0)
            with pytest.raises(ValueError):
                hit.part[0] = 99


# --------------------------------------------------------------------- #
# Eviction
# --------------------------------------------------------------------- #


def _key(digest: str, nparts=4) -> RequestKey:
    return RequestKey(digest=digest, topo_digest="t", nparts=nparts,
                      method="kway", ncon=1, seed=0)


def _result(g, nparts=4, seed=0):
    return part_graph(g, nparts, seed=seed)


class TestEviction:
    def test_lru_entry_budget(self):
        g = make_graph(100, 1)
        res = _result(g)
        cache = ResultCache(max_entries=2, max_bytes=1 << 30)
        for d in ("a", "b", "c"):
            cache.put(_key(d), res)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(_key("a")) is None          # oldest evicted
        assert cache.get(_key("c")) is not None

    def test_lru_order_refreshed_by_get(self):
        g = make_graph(100, 1)
        res = _result(g)
        cache = ResultCache(max_entries=2, max_bytes=1 << 30)
        cache.put(_key("a"), res)
        cache.put(_key("b"), res)
        assert cache.get(_key("a")) is not None      # refresh "a"
        cache.put(_key("c"), res)                    # evicts "b"
        assert cache.get(_key("b")) is None
        assert cache.get(_key("a")) is not None

    def test_byte_budget_evicts(self):
        g = make_graph(100, 1)
        res = _result(g)
        one = res.part.nbytes + res.imbalance.nbytes
        cache = ResultCache(max_entries=100, max_bytes=int(2.5 * one))
        for d in ("a", "b", "c"):
            assert cache.put(_key(d), res)
        assert len(cache) == 2
        assert cache.nbytes <= int(2.5 * one)

    def test_oversized_result_not_admitted(self):
        g = make_graph(100, 1)
        res = _result(g)
        cache = ResultCache(max_entries=10, max_bytes=8)
        assert not cache.put(_key("a"), res)
        assert len(cache) == 0

    def test_zero_entries_disables_caching(self):
        g = make_graph(100, 1)
        cache = ResultCache(max_entries=0)
        assert not cache.put(_key("a"), _result(g))
        with PartitionService(ServiceConfig(cache_entries=0)) as svc:
            a = svc.partition(g, 4, seed=0)
            b = svc.partition(g, 4, seed=0)
            assert same_result(a, b)
            assert svc.stats()["serve.cold_computes"] == 2


# --------------------------------------------------------------------- #
# Dedup / batching
# --------------------------------------------------------------------- #


class TestDedup:
    def test_identical_inflight_requests_coalesce(self, monkeypatch):
        g = make_graph(150, 1)
        calls = []
        real = service_mod.part_graph

        def slow_part_graph(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.15)  # hold the compute so the repeats coalesce
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow_part_graph)
        with PartitionService(ServiceConfig(max_workers=4,
                                            warm_start=False)) as svc:
            futs = [svc.submit(g, 4, seed=1) for _ in range(8)]
            results = [f.result() for f in futs]
        assert len(calls) == 1
        assert all(same_result(r, results[0]) for r in results)
        stats = svc.stats()
        assert stats["serve.cold_computes"] == 1
        assert stats["serve.dedup.coalesced"] == 7

    def test_batch_mixed_requests(self):
        g = make_graph(150, 2)
        with PartitionService(ServiceConfig(warm_start=False)) as svc:
            out = svc.batch([
                (g, 2, {"seed": 0}),
                (g, 3, {"seed": 0}),
                (g, 2, {"seed": 0}),          # duplicate of the first
            ])
        assert len(out) == 3
        assert same_result(out[0], out[2])
        assert svc.stats()["serve.cold_computes"] == 2

    def test_batch_gathers_all_outcomes_on_failure(self, monkeypatch):
        """Regression: ``batch`` used to raise on the first failed future
        and silently abandon the rest.  It now gathers everything and
        raises an aggregate carrying per-request outcomes."""
        g = make_graph(150, 1)
        real = service_mod.part_graph

        def flaky(graph, nparts, **kwargs):
            if nparts == 3:
                raise RuntimeError("injected compute failure")
            return real(graph, nparts, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", flaky)
        with PartitionService(ServiceConfig(warm_start=False)) as svc:
            with pytest.raises(ServeBatchError) as excinfo:
                svc.batch([
                    (g, 2, {"seed": 0}),
                    (g, 3, {"seed": 0}),          # fails in compute
                    (g, 4, {"seed": 0}),
                ])
        err = excinfo.value
        assert set(err.errors) == {1}
        assert isinstance(err.errors[1], RuntimeError)
        # the siblings were not abandoned: their results are delivered
        assert err.results[1] is None
        assert same_result(err.results[0], part_graph(g, 2, seed=0))
        assert same_result(err.results[2], part_graph(g, 4, seed=0))

    def test_batch_all_success_unchanged(self):
        g = make_graph(120, 1)
        with PartitionService(ServiceConfig(warm_start=False)) as svc:
            out = svc.batch([(g, 2, {"seed": 1}), (g, 4, {"seed": 1})])
        assert [r.nparts for r in out] == [2, 4]

    def test_none_seed_requests_are_independent(self):
        g = make_graph(120, 1)
        with PartitionService() as svc:
            svc.partition(g, 4)
            svc.partition(g, 4)
            stats = svc.stats()
        # seed=None => nondeterministic: no caching, no dedup.
        assert stats["serve.cold_computes"] == 2
        assert stats["serve.cache.hits"] == 0


# --------------------------------------------------------------------- #
# Warm start
# --------------------------------------------------------------------- #


class TestWarmStart:
    def test_perturbed_weights_warm_starts_and_stays_feasible(self):
        g = make_graph(800, 2, seed=5)
        tracer = Tracer()
        with PartitionService(tracer=tracer) as svc:
            svc.partition(g, 6, seed=3)
            vw = g.vwgt.copy()
            vw[:40] += 1
            warm = svc.partition(g.with_vwgt(vw), 6, seed=3)
        assert warm.feasible
        stats = svc.stats()
        assert stats["serve.warm_start.attempts"] == 1
        assert stats["serve.warm_start.accepted"] == 1
        # the serve.warm_start span was recorded under a serve.request root
        spans = [sp for root in tracer.roots for _, sp in root.walk()
                 if sp.name == "serve.warm_start"]
        assert len(spans) == 1 and spans[0].attrs["accepted"]

    def test_infeasible_warm_result_falls_back_to_cold(self, monkeypatch):
        g = make_graph(400, 2, seed=6)

        def infeasible_refine(graph, old_part, nparts, **kwargs):
            return RepartitionResult(
                part=np.asarray(old_part) % nparts,
                nparts=nparts,
                edgecut=0,
                imbalance=np.full(graph.ncon, 99.0),
                feasible=False,
                migration={"moved_vertices": 0, "moved_fraction": 0.0,
                           "moved_weight": np.zeros(graph.ncon),
                           "volume": 0},
                strategy="refine",
            )

        monkeypatch.setattr(warm_mod, "refine_partition", infeasible_refine)
        with PartitionService() as svc:
            svc.partition(g, 4, seed=3)
            vw = g.vwgt.copy()
            vw[:20] += 1
            g2 = g.with_vwgt(vw)
            res = svc.partition(g2, 4, seed=3)
        cold = part_graph(g2, 4, seed=3)
        assert same_result(res, cold)          # fell back to the cold path
        stats = svc.stats()
        assert stats["serve.warm_start.rejected"] == 1
        assert stats["serve.cold_computes"] == 2

    def test_warm_results_not_cached_by_default(self):
        g = make_graph(500, 2, seed=7)
        with PartitionService() as svc:
            svc.partition(g, 4, seed=3)
            g2 = g.with_vwgt(g.vwgt + 1)
            first = svc.partition(g2, 4, seed=3)   # warm compute
            again = svc.partition(g2, 4, seed=3)   # NOT a hit: warm uncached
            stats = svc.stats()
        assert stats["serve.cache.hits"] == 0
        assert stats["serve.warm_start.attempts"] >= 2
        assert same_result(first, again)  # warm path is deterministic too

    def test_warm_across_nparts_folds_part_ids(self):
        g = make_graph(600, 1, seed=8)
        with PartitionService() as svc:
            svc.partition(g, 8, seed=3)
            res = svc.partition(g, 6, seed=3)      # same topology, new k
        assert res.nparts == 6
        assert res.part.max() < 6
        assert svc.stats()["serve.warm_start.attempts"] == 1

    def test_warm_up_nparts_repairs_empty_parts(self):
        # Folding a 2-part seed into a 4-part request leaves parts 2..3
        # empty (old_part % 4 == old_part); the refiner cannot populate an
        # empty part, so warm_start must repair the seed first.  The warm
        # result must be feasible with every part nonempty, and the repair
        # must be recorded on the serve.warm_start span.
        g = make_graph(800, 1, seed=9)
        tracer = Tracer()
        with PartitionService(tracer=tracer) as svc:
            svc.partition(g, 2, seed=3)
            res = svc.partition(g, 4, seed=3)
        stats = svc.stats()
        assert stats["serve.warm_start.attempts"] == 1
        assert stats["serve.warm_start.accepted"] == 1
        assert res.nparts == 4 and res.feasible
        sizes = np.bincount(res.part, minlength=4)
        assert (sizes > 0).all(), f"empty parts in warm result: {sizes}"
        spans = [sp for root in tracer.roots for _, sp in root.walk()
                 if sp.name == "serve.warm_start"]
        assert len(spans) == 1
        assert spans[0].attrs["repaired_parts"] == 2
        assert spans[0].attrs["accepted"]


# --------------------------------------------------------------------- #
# Background improver
# --------------------------------------------------------------------- #


class TestImprover:
    def test_sweep_rekeys_and_preserves_standard_entry(self):
        from repro.serve import Improver

        g = make_graph(500, 1, seed=6)
        cfg = ServiceConfig(warm_start=True, retain_graphs=4)
        with PartitionService(cfg) as svc:
            std = svc.partition(g, 8, seed=4)
            svc.partition(g, 8, seed=4)            # exact-key hit -> "hot"
            std_digest = svc.cache.hottest(1)[0].key.digest

            imp = Improver(svc)
            (out,) = imp.run_once()
            assert out.status in ("improved", "no_gain")
            assert out.digest == std_digest
            assert out.improved_cut <= out.standard_cut == std.edgecut

            # The standard entry is untouched: an exact-key hit is still
            # bit-identical to the original cold compute.
            again = svc.partition(g, 8, seed=4)
            assert same_result(again, std)

            # The improved result lives under the NEW high-effort key and
            # matches a direct high-effort request bit for bit.
            high = svc.partition(g, 8, seed=4, effort="high")
            assert int(high.edgecut) == out.improved_cut
            direct = part_graph(g, 8, seed=4, effort="high")
            assert np.array_equal(high.part, direct.part)

            # A second sweep finds the high key already cached.
            (again_out,) = imp.run_once()
            assert again_out.status == "cached"
            stats = svc.stats()
            assert stats["serve.improver.sweeps"] == 2

    def test_candidates_skip_high_effort_entries(self):
        from repro.serve import Improver

        g = make_graph(300, 1, seed=2)
        cfg = ServiceConfig(warm_start=False, retain_graphs=4)
        with PartitionService(cfg) as svc:
            svc.partition(g, 4, seed=1, effort="high")
            svc.partition(g, 4, seed=1, effort="high")
            imp = Improver(svc)
            assert imp.candidates() == []
            assert imp.run_once() == []


class TestImproverWatch:
    def test_watch_sweeps_when_idle(self):
        from repro.serve import Improver

        g = make_graph(300, 1, seed=6)
        cfg = ServiceConfig(warm_start=False, retain_graphs=4)
        with PartitionService(cfg) as svc:
            svc.partition(g, 4, seed=4)
            svc.partition(g, 4, seed=4)  # hot
            with Improver(svc) as imp:
                imp.watch(idle_threshold=0, interval=0.01)
                with pytest.raises(RuntimeError, match="already running"):
                    imp.watch()
                deadline = time.time() + 30
                while time.time() < deadline:
                    st = svc.stats()
                    if (st.get("serve.improver.improved", 0)
                            + st.get("serve.improver.no_gain", 0)) >= 1:
                        break
                    time.sleep(0.02)
            st = svc.stats()
            assert st.get("serve.improver.sweeps", 0) >= 1
            assert (st.get("serve.improver.improved", 0)
                    + st.get("serve.improver.no_gain", 0)) >= 1
            imp.close()  # idempotent

    def test_watch_defers_while_queue_is_deep(self):
        from repro.serve import Improver

        cfg = ServiceConfig(warm_start=False, retain_graphs=4)
        with PartitionService(cfg) as svc:
            # Fake a deep foreground queue: the watcher must only defer.
            with svc._lock:
                svc.admission.pending = 3
            try:
                with Improver(svc) as imp:
                    imp.watch(idle_threshold=0, interval=0.005)
                    deadline = time.time() + 10
                    while time.time() < deadline:
                        if svc.stats().get(
                                "serve.improver.deferred", 0) >= 3:
                            break
                        time.sleep(0.01)
                st = svc.stats()
                assert st.get("serve.improver.deferred", 0) >= 3
                assert st.get("serve.improver.sweeps", 0) == 0
            finally:
                with svc._lock:
                    svc.admission.pending = 0

    def test_watch_stops_when_service_closes(self):
        from repro.serve import Improver

        svc = PartitionService(ServiceConfig(warm_start=False,
                                             retain_graphs=4))
        imp = Improver(svc)
        imp.watch(interval=0.01)
        thread = imp._watch_thread
        svc.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        imp.close()


# --------------------------------------------------------------------- #
# Deadlines / errors
# --------------------------------------------------------------------- #


class TestDeadlinesAndErrors:
    def test_result_timeout_raises_serve_timeout(self, monkeypatch):
        g = make_graph(100, 1)
        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.5)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        with PartitionService(ServiceConfig(warm_start=False)) as svc:
            fut = svc.submit(g, 4, seed=0)
            with pytest.raises(ServeTimeoutError):
                fut.result(timeout=0.05)
            # the compute itself still completes for other waiters
            assert fut.result(timeout=5.0).nparts == 4

    def test_expired_request_is_skipped(self, monkeypatch):
        g = make_graph(100, 1)
        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        # one worker: the second distinct request queues behind the first
        # and its deadline expires before a worker picks it up.
        cfg = ServiceConfig(max_workers=1, warm_start=False)
        with PartitionService(cfg) as svc:
            f1 = svc.submit(g, 4, seed=0)
            f2 = svc.submit(g, 5, seed=0, timeout=0.05)
            with pytest.raises(ServeTimeoutError):
                f2.result(timeout=5.0)
            assert f1.result().nparts == 4
        assert svc.stats()["serve.timeouts"] == 1

    def test_live_follower_keeps_coalesced_compute_alive(self, monkeypatch):
        """Regression: a follower with a longer (or no) timeout used to
        inherit the leader's deadline -- when the leader expired before
        compute started, the shared future carried ServeTimeoutError to
        everyone.  Per-follower deadlines keep the compute running for
        live waiters."""
        g = make_graph(100, 1)
        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        cfg = ServiceConfig(max_workers=1, warm_start=False)
        with PartitionService(cfg) as svc:
            filler = svc.submit(g, 4, seed=0)         # occupies the worker
            leader = svc.submit(g, 5, seed=0, timeout=0.05)
            follower = svc.submit(g, 5, seed=0)       # no deadline
            assert follower.disposition == "coalesced"
            # Only the genuinely-expired leader times out (checked while
            # the compute is still queued behind the filler)...
            with pytest.raises(ServeTimeoutError):
                leader.result()
            # ...while the follower gets a real result even though the
            # leader's deadline expired before compute started.
            res = follower.result(timeout=10.0)
            assert same_result(res, part_graph(g, 5, seed=0))
            assert filler.result().nparts == 4
        # The compute ran: it was never skipped as expired.
        assert svc.stats()["serve.timeouts"] == 0

    def test_all_waiters_expired_still_skips(self, monkeypatch):
        """When the leader *and* every follower are past their deadlines
        the queued compute is still skipped entirely."""
        g = make_graph(100, 1)
        real = service_mod.part_graph

        def slow(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_mod, "part_graph", slow)
        cfg = ServiceConfig(max_workers=1, warm_start=False)
        with PartitionService(cfg) as svc:
            svc.submit(g, 4, seed=0)
            leader = svc.submit(g, 5, seed=0, timeout=0.05)
            follower = svc.submit(g, 5, seed=0, timeout=0.05)
            for fut in (leader, follower):
                with pytest.raises(ServeTimeoutError):
                    fut.result(timeout=10.0)
        assert svc.stats()["serve.timeouts"] == 1

    def test_unknown_option_raises_options_error(self):
        g = make_graph(100, 1)
        with PartitionService() as svc:
            with pytest.raises(OptionsError, match="ubvec"):
                svc.submit(g, 4, ubvek=1.02)

    def test_compute_error_propagates_to_waiter(self):
        g = make_graph(100, 1)
        with PartitionService() as svc:
            with pytest.raises(Exception):
                # nparts > nvtxs is caught eagerly at submit
                svc.submit(g, 1000, seed=0)

    def test_closed_service_rejects_submits(self):
        g = make_graph(100, 1)
        svc = PartitionService()
        svc.close()
        with pytest.raises(ServiceClosedError):
            svc.submit(g, 4, seed=0)


# --------------------------------------------------------------------- #
# Concurrency: determinism + the smoke the CI job runs
# --------------------------------------------------------------------- #


class TestConcurrency:
    def test_concurrent_identical_seeds_are_bit_identical(self):
        """Satellite determinism pin: same seed => same bits, even with
        dedup and caching OFF so every request really computes."""
        g = make_graph(400, 2, seed=9)
        reference = part_graph(g, 6, seed=1234)
        cfg = ServiceConfig(max_workers=8, cache_entries=0, dedup=False,
                            warm_start=False)
        with PartitionService(cfg) as svc:
            futs = [svc.submit(g, 6, seed=1234) for _ in range(8)]
            results = [f.result() for f in futs]
        assert svc.stats()["serve.cold_computes"] == 8
        for r in results:
            assert same_result(r, reference)

    def test_part_graph_itself_is_reentrant_with_int_seeds(self):
        """No hidden shared RNG state in the core drivers."""
        g = make_graph(400, 2, seed=10)
        reference = part_graph(g, 5, seed=77)
        with ThreadPoolExecutor(max_workers=6) as pool:
            futs = [pool.submit(part_graph, g, 5, seed=77) for _ in range(6)]
            for f in futs:
                assert same_result(f.result(), reference)

    def test_serve_smoke_one_cold_compute_per_distinct_key(self):
        """The `make serve-smoke` contract: N threads x M duplicate
        requests over K distinct keys -> exactly K cold computes."""
        graphs = [make_graph(150, 2, seed=s) for s in (1, 2, 3)]
        reqs = [(g, k, {"seed": 5}) for g in graphs for k in (2, 4)]  # K=6
        cfg = ServiceConfig(max_workers=8, warm_start=False)
        with PartitionService(cfg) as svc:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futs = [
                    pool.submit(svc.partition, g, k, seed=kw["seed"])
                    for _ in range(5)                 # M=5 duplicates
                    for (g, k, kw) in reqs
                ]
                results = [f.result() for f in futs]
        stats = svc.stats()
        assert stats["serve.cold_computes"] == len(reqs)
        assert stats["serve.requests"] == 5 * len(reqs)
        # every duplicate saw the same bits as its first compute
        by_req = {}
        for (g, k, kw), r in zip(reqs * 5, results):
            ref = by_req.setdefault((id(g), k), r)
            assert same_result(r, ref)
