"""Content-addressed LRU result cache with a byte budget.

Entries are keyed by :class:`~repro.serve.key.RequestKey.digest` and store a
*frozen snapshot* of the :class:`~repro.partition.PartitionResult`: arrays
are copied in and marked read-only, and every hit hands back a fresh
:class:`~repro.partition.PartitionResult` wrapping those read-only arrays --
so a caller scribbling on ``result.part`` gets a loud ``ValueError`` instead
of silently corrupting what the next hit sees.

Eviction is least-recently-used, driven by two budgets checked on every
insert: ``max_entries`` and ``max_bytes`` (the summed size of the cached
arrays).  A single result larger than ``max_bytes`` is simply not cached.

The cache itself is lock-free-single-threaded by design; the owning
:class:`~repro.serve.service.PartitionService` serialises access under its
admission lock (cache operations are dict moves, never partition computes).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from ..partition.api import PartitionResult
from .key import RequestKey

__all__ = ["CacheEntry", "ResultCache"]


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass
class CacheEntry:
    """One cached partition plus the metadata warm-start needs."""

    key: RequestKey
    result: PartitionResult = field(repr=False)
    nbytes: int
    #: Canonicalised target fractions of the original request (``None`` for
    #: uniform parts) -- the background improver needs them to rebuild the
    #: request key at a different effort level.
    target_fracs: object = field(repr=False, default=None)
    #: Exact-key hits served from this entry -- the improver's hotness
    #: signal.
    hits: int = 0

    def export(self) -> PartitionResult:
        """A result safe to hand to a caller (fresh object, frozen arrays)."""
        return replace(self.result)


class ResultCache:
    """LRU + max-byte cache of :class:`PartitionResult` snapshots.

    Parameters
    ----------
    max_entries:
        Entry-count budget (``0`` disables caching entirely).
    max_bytes:
        Byte budget over the cached ``part``/``imbalance`` arrays.

    Counters (``hits``/``misses``/``evictions``/``stores``) accumulate on
    the instance; the service mirrors them into :mod:`repro.trace` as
    ``serve.cache.*``.
    """

    def __init__(self, max_entries: int = 128, max_bytes: int = 64 << 20):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stores = 0

    # -------------------------------------------------------------- core

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        """Current summed size of the cached arrays."""
        return self._bytes

    def get(self, key: RequestKey, *,
            count_miss: bool = True) -> PartitionResult | None:
        """The cached result for ``key`` (refreshing its LRU position), or
        ``None``.  Uncacheable keys always miss.  ``count_miss=False``
        suppresses the miss counter -- used by the service when it
        re-checks a key it already counted as missed (e.g. after a disk
        lookup), so one request never records two misses."""
        entry = self._entries.get(key.digest) if key.cacheable else None
        if entry is None:
            if count_miss:
                self.misses += 1
            return None
        self._entries.move_to_end(key.digest)
        self.hits += 1
        entry.hits += 1
        return entry.export()

    def put(self, key: RequestKey, result: PartitionResult, *,
            target_fracs=None) -> bool:
        """Store a snapshot of ``result`` under ``key``; returns whether it
        was admitted (uncacheable keys and oversized results are not)."""
        if not key.cacheable or self.max_entries <= 0:
            return False
        frozen = replace(
            result,
            part=_freeze(result.part),
            imbalance=_freeze(result.imbalance),
        )
        nbytes = int(frozen.part.nbytes + frozen.imbalance.nbytes)
        if nbytes > self.max_bytes:
            return False
        old = self._entries.pop(key.digest, None)
        if old is not None:
            self._bytes -= old.nbytes
        self._entries[key.digest] = CacheEntry(
            key=key, result=frozen, nbytes=nbytes, target_fracs=target_fracs)
        self._bytes += nbytes
        self.stores += 1
        self._evict()
        return True

    def peek(self, digest: str) -> CacheEntry | None:
        """The entry stored under ``digest``, without touching the hit/miss
        counters or the LRU order; ``None`` when absent.  For inspection
        paths (the background improver) that must not distort the stats
        real traffic produces."""
        return self._entries.get(digest)

    def hottest(self, limit: int = 8, *,
                min_hits: int = 1) -> list[CacheEntry]:
        """The ``limit`` most-hit entries with at least ``min_hits``
        exact-key hits, hotness-descending (recency breaks ties).  This is
        the background improver's work queue; LRU positions are not
        refreshed."""
        ranked = [e for e in reversed(self._entries.values())
                  if e.hits >= min_hits]
        ranked.sort(key=lambda e: e.hits, reverse=True)
        return ranked[:limit]

    def _evict(self) -> None:
        while self._entries and (
            len(self._entries) > self.max_entries or self._bytes > self.max_bytes
        ):
            _, entry = self._entries.popitem(last=False)
            self._bytes -= entry.nbytes
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    # -------------------------------------------------- warm-start index

    def find_warm(self, key: RequestKey) -> CacheEntry | None:
        """Best warm-start source for a *missed* key: an entry on the same
        topology (``topo_digest``) with the same method and constraint
        count.  Prefers matching ``nparts``, then recency."""
        if not key.cacheable:
            return None
        best: CacheEntry | None = None
        # Most-recent last in the OrderedDict; iterate newest-first so ties
        # on nparts resolve to the freshest solution.
        for entry in reversed(self._entries.values()):
            k = entry.key
            if (k.topo_digest != key.topo_digest or k.method != key.method
                    or k.ncon != key.ncon or k.digest == key.digest):
                continue
            if k.nparts == key.nparts:
                return entry
            if best is None:
                best = entry
        return best

    # ----------------------------------------------------------- stats

    def counters(self) -> dict:
        """Snapshot of the cache counters (``serve.cache.*`` names)."""
        return {
            "serve.cache.hits": self.hits,
            "serve.cache.misses": self.misses,
            "serve.cache.evictions": self.evictions,
            "serve.cache.stores": self.stores,
            "serve.cache.entries": len(self._entries),
            "serve.cache.bytes": self._bytes,
        }
