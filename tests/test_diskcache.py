"""Robustness contract of the disk-backed result cache.

Every way an on-disk entry can be damaged -- truncated, garbled,
renamed under the wrong digest, half-written -- must degrade to a plain
*miss* (counter bumped, file quarantined), never a crash or a wrong
answer.  And a fresh service pointed at a populated directory must serve
a **bit-identical** hit without recomputing.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.graph import mesh_like
from repro.partition import PartitionOptions, part_graph
from repro.serve import DiskCache, PartitionService, ServiceConfig
from repro.serve.key import request_key
from repro.weights import type1_region_weights


def make_graph(n=200, ncon=2, seed=0):
    g = mesh_like(n, seed=seed)
    if ncon > 1:
        g = g.with_vwgt(type1_region_weights(g, ncon, seed=seed + 1))
    return g


def keyed_result(graph, nparts, seed=0):
    """A (key, result) pair the way the service produces them."""
    key, options = request_key(graph, nparts,
                               options=PartitionOptions(seed=seed))
    return key, part_graph(graph, nparts, options=options)


def same_result(a, b) -> bool:
    return (
        np.array_equal(a.part, b.part)
        and a.edgecut == b.edgecut
        and np.array_equal(a.imbalance, b.imbalance)
        and a.feasible == b.feasible
        and a.nparts == b.nparts
        and a.method == b.method
    )


def entry_paths(directory):
    return sorted(glob.glob(os.path.join(str(directory), "*.npz")))


# --------------------------------------------------------------------- #
# Round trip + durability
# --------------------------------------------------------------------- #


class TestDiskCacheRoundTrip:
    def test_put_get_bit_identical(self, tmp_path):
        g = make_graph()
        key, result = keyed_result(g, 4)
        cache = DiskCache(tmp_path)
        assert cache.put(key, result)
        got = cache.get(key)
        assert got is not None and same_result(got, result)
        assert got.options is not None
        assert got.options.seed == key.seed
        assert not got.part.flags.writeable
        assert cache.counters()["serve.diskcache.hits"] == 1
        assert cache.counters()["serve.diskcache.stores"] == 1

    def test_restart_sees_existing_entries(self, tmp_path):
        g = make_graph()
        key, result = keyed_result(g, 4)
        DiskCache(tmp_path).put(key, result)
        reopened = DiskCache(tmp_path)  # fresh instance, same directory
        assert len(reopened) == 1 and reopened.nbytes > 0
        got = reopened.get(key)
        assert got is not None and same_result(got, result)

    def test_uncacheable_key_not_stored(self, tmp_path):
        g = make_graph()
        key, options = request_key(g, 4)  # seed=None: nondeterministic
        assert not key.cacheable
        cache = DiskCache(tmp_path)
        assert not cache.put(key, part_graph(g, 4, options=options))
        assert cache.get(key) is None
        assert len(cache) == 0
        assert cache.counters()["serve.diskcache.misses"] == 1

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        g = make_graph()
        cache = DiskCache(tmp_path)
        for k in (2, 3, 4, 5):
            key, result = keyed_result(g, k)
            assert cache.put(key, result)
        stray = [p for p in os.listdir(tmp_path)
                 if not p.endswith(".npz")]
        assert stray == []


    def test_entry_with_retired_option_field_still_hits(self, tmp_path):
        """An option field that a later version removed, still stored in
        an older entry's options, is ignored on load rather than treated
        as damage: no such field was ever part of the digest."""
        import io
        import json

        g = make_graph()
        key, result = keyed_result(g, 4)
        assert DiskCache(tmp_path).put(key, result)
        (path,) = entry_paths(tmp_path)
        with np.load(path, allow_pickle=False) as z:
            arrays = {name: z[name] for name in z.files}
        meta = json.loads(bytes(arrays["meta"].tobytes()))
        meta["options"]["retired_knob"] = 0
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                       dtype=np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        with open(path, "wb") as fh:
            fh.write(buf.getvalue())

        cache = DiskCache(tmp_path)
        got = cache.get(key)
        assert got is not None and same_result(got, result)
        assert got.options == result.options
        assert cache.counters()["serve.diskcache.corrupt"] == 0
        assert os.path.exists(path)


# --------------------------------------------------------------------- #
# Corruption -> miss + quarantine
# --------------------------------------------------------------------- #


class TestCorruptionTolerance:
    def _one_entry(self, tmp_path):
        g = make_graph()
        key, result = keyed_result(g, 4)
        cache = DiskCache(tmp_path)
        assert cache.put(key, result)
        (path,) = entry_paths(tmp_path)
        return cache, key, path

    def _assert_quarantined(self, cache, key, path):
        assert cache.get(key) is None
        assert cache.counters()["serve.diskcache.corrupt"] == 1
        assert cache.counters()["serve.diskcache.misses"] == 1
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        # quarantined entries are never retried: still a plain miss
        assert cache.get(key) is None
        assert cache.counters()["serve.diskcache.corrupt"] == 1

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache, key, path = self._one_entry(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        self._assert_quarantined(cache, key, path)

    def test_garbage_entry_is_a_miss(self, tmp_path):
        cache, key, path = self._one_entry(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"this is not an npz archive at all")
        self._assert_quarantined(cache, key, path)

    def test_empty_partial_write_is_a_miss(self, tmp_path):
        cache, key, path = self._one_entry(tmp_path)
        with open(path, "wb"):
            pass  # zero bytes: the moment after open(2) in a torn write
        self._assert_quarantined(cache, key, path)

    def test_entry_under_wrong_digest_is_a_miss(self, tmp_path):
        """A cross-copied/renamed file cannot impersonate another request:
        the digest echoed inside the payload must match the file name."""
        g = make_graph()
        key_a, result = keyed_result(g, 4)
        key_b, _ = keyed_result(g, 5)
        cache = DiskCache(tmp_path)
        assert cache.put(key_a, result)
        os.replace(os.path.join(tmp_path, key_a.digest + ".npz"),
                   os.path.join(tmp_path, key_b.digest + ".npz"))
        cache = DiskCache(tmp_path)  # rescan the tampered directory
        assert cache.get(key_b) is None
        assert cache.counters()["serve.diskcache.corrupt"] == 1


# --------------------------------------------------------------------- #
# Byte budget / LRU eviction
# --------------------------------------------------------------------- #


class TestByteBudget:
    def test_oversized_payload_not_admitted(self, tmp_path):
        g = make_graph()
        key, result = keyed_result(g, 4)
        cache = DiskCache(tmp_path, max_bytes=64)
        assert not cache.put(key, result)
        assert len(cache) == 0 and entry_paths(tmp_path) == []

    def test_lru_eviction_respects_get_recency(self, tmp_path):
        g = make_graph()
        probe = DiskCache(tmp_path / "probe")
        key, result = keyed_result(g, 2)
        probe.put(key, result)
        entry_size = probe.nbytes

        cache = DiskCache(tmp_path / "real",
                          max_bytes=int(entry_size * 2.5))
        key_a, res_a = keyed_result(g, 2)
        key_b, res_b = keyed_result(g, 3)
        key_c, res_c = keyed_result(g, 4)
        assert cache.put(key_a, res_a) and cache.put(key_b, res_b)
        # age both entries, then touch A: a *get* refreshes recency
        for k in (key_a, key_b):
            p = os.path.join(cache.directory, k.digest + ".npz")
            os.utime(p, (1_000_000.0, 1_000_000.0))
        assert cache.get(key_a) is not None
        assert cache.put(key_c, res_c)  # over budget: evict oldest = B
        assert cache.counters()["serve.diskcache.evictions"] == 1
        assert cache.get(key_b) is None          # evicted
        assert cache.get(key_a) is not None      # kept: recently read
        assert cache.get(key_c) is not None      # kept: just written
        assert cache.nbytes <= cache.max_bytes

    def test_mtime_recency_survives_restart(self, tmp_path):
        g = make_graph()
        cache = DiskCache(tmp_path)
        key_a, res_a = keyed_result(g, 2)
        key_b, res_b = keyed_result(g, 3)
        cache.put(key_a, res_a)
        cache.put(key_b, res_b)
        # make A clearly the colder entry on disk
        path_a = os.path.join(str(tmp_path), key_a.digest + ".npz")
        os.utime(path_a, (1_000_000.0, 1_000_000.0))
        entry_size = cache.nbytes // 2

        reopened = DiskCache(tmp_path, max_bytes=int(entry_size * 2.5))
        key_c, res_c = keyed_result(g, 4)
        assert reopened.put(key_c, res_c)
        assert reopened.get(key_a) is None       # cold entry evicted
        assert reopened.get(key_b) is not None


# --------------------------------------------------------------------- #
# Service integration: restarts start warm
# --------------------------------------------------------------------- #


class TestServiceDiskTier:
    def test_restarted_service_serves_disk_hit_without_recompute(
            self, tmp_path):
        g = make_graph(240, 2)
        cfg = ServiceConfig(cache_dir=str(tmp_path), warm_start=False)
        with PartitionService(cfg) as svc:
            cold = svc.partition(g, 4, seed=7)
            assert svc.stats()["serve.diskcache.stores"] == 1

        with PartitionService(cfg) as fresh:  # simulated restart
            hit = fresh.partition(g, 4, seed=7)
            stats = fresh.stats()
        assert same_result(hit, cold)
        assert stats["serve.cold_computes"] == 0
        assert stats["serve.diskcache.hits"] == 1
        # the disk hit was promoted into the in-memory tier
        assert stats["serve.cache.entries"] == 1

    def test_corrupt_entry_recomputes_and_quarantines(self, tmp_path):
        g = make_graph(240, 2)
        cfg = ServiceConfig(cache_dir=str(tmp_path), warm_start=False)
        with PartitionService(cfg) as svc:
            cold = svc.partition(g, 4, seed=7)
        (path,) = entry_paths(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 16)

        with PartitionService(cfg) as fresh:
            again = fresh.partition(g, 4, seed=7)
            stats = fresh.stats()
        assert same_result(again, cold)  # recompute is deterministic
        assert stats["serve.cold_computes"] == 1
        assert stats["serve.diskcache.corrupt"] == 1
        assert os.path.exists(path + ".corrupt")

    def test_uncacheable_requests_never_touch_disk(self, tmp_path):
        g = make_graph(200, 1)
        cfg = ServiceConfig(cache_dir=str(tmp_path), warm_start=False)
        with PartitionService(cfg) as svc:
            svc.partition(g, 4)  # seed=None: nondeterministic
            assert svc.stats()["serve.diskcache.stores"] == 0
        assert entry_paths(tmp_path) == []


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
