"""Disk-backed second-level result cache: restarts start warm.

:class:`DiskCache` persists partition results under their request-key
digest so a fresh :class:`~repro.serve.service.PartitionService` pointed at
a populated cache directory serves bit-identical hits without recomputing.
It layers *under* the in-memory :class:`~repro.serve.cache.ResultCache`:
the service promotes disk hits into memory, and stores cold computes to
both levels.

Durability contract:

* **atomic writes** -- every entry is serialised to a same-directory temp
  file and published with ``os.replace``; a crash mid-write leaves a stale
  temp file, never a half-visible entry;
* **content-addressed** -- the file name is the request digest, and the
  digest is repeated inside the payload, so a renamed or cross-copied file
  cannot impersonate another request;
* **corruption-tolerant reads** -- a truncated, garbled or
  wrong-digest entry is treated as a *miss*: the ``corrupt`` counter is
  bumped and the file is quarantined (renamed ``*.corrupt``) so it is
  never retried and remains inspectable;
* **byte budget with LRU eviction** -- a ``get`` refreshes the entry's
  mtime, and inserts evict oldest-mtime entries until the directory is
  back under ``max_bytes``.  The mtime survives restarts, so recency does
  too.

The payload is an ``.npz`` (no pickling -- ``allow_pickle=False`` on read)
holding the ``part`` / ``imbalance`` arrays plus a JSON metadata record
(digest, scalar result fields, the pinned :class:`PartitionOptions`).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import fields as dc_fields

import numpy as np

from ..partition.api import PartitionResult
from ..partition.config import OPTION_FIELDS, PartitionOptions
from .key import RequestKey

__all__ = ["DiskCache"]

_VERSION = 1
_SUFFIX = ".npz"


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _options_to_jsonable(options: PartitionOptions | None):
    if options is None:
        return None
    out = {}
    for f in dc_fields(options):
        v = getattr(options, f.name)
        if isinstance(v, (tuple, np.ndarray)):
            items = v.ravel().tolist() if isinstance(v, np.ndarray) else list(v)
            conv = []
            for x in items:
                if isinstance(x, (str, bool)):
                    conv.append(x)
                elif isinstance(x, (int, np.integer)):
                    conv.append(int(x))
                elif isinstance(x, (float, np.floating)):
                    conv.append(float(x))
                else:
                    return None  # exotic element: drop options
            v = conv
        elif isinstance(v, np.integer):
            v = int(v)
        elif isinstance(v, np.floating):
            v = float(v)
        if not isinstance(v, (int, float, str, bool, list, type(None))):
            return None  # unpinned seed or exotic field: drop options
        out[f.name] = v
    return out


class DiskCache:
    """Digest-named, corruption-tolerant, byte-budgeted result store.

    Parameters
    ----------
    directory:
        Cache directory (created if missing).
    max_bytes:
        Byte budget over the entry files; oldest-mtime entries are evicted
        on insert.  An entry larger than the whole budget is not admitted.

    Thread-safe (one internal lock); cheap enough to sit on the service's
    submit path for the small artifacts partitions are.
    """

    def __init__(self, directory: str, max_bytes: int = 256 << 20):
        self.directory = str(directory)
        self.max_bytes = int(max_bytes)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.RLock()
        #: digest -> entry file size; recency lives in the files' mtimes.
        self._sizes: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self._scan()

    # ------------------------------------------------------------ layout

    def _path(self, digest: str) -> str:
        return os.path.join(self.directory, digest + _SUFFIX)

    def _scan(self) -> None:
        with self._lock:
            self._sizes.clear()
            for name in os.listdir(self.directory):
                if not name.endswith(_SUFFIX):
                    continue
                try:
                    self._sizes[name[:-len(_SUFFIX)]] = os.path.getsize(
                        os.path.join(self.directory, name))
                except OSError:
                    continue

    def __len__(self) -> int:
        with self._lock:
            return len(self._sizes)

    @property
    def nbytes(self) -> int:
        with self._lock:
            return sum(self._sizes.values())

    # -------------------------------------------------------------- core

    def get(self, key: RequestKey) -> PartitionResult | None:
        """The stored result for ``key`` (refreshing its recency), or
        ``None``.  A corrupt entry counts as a miss and is quarantined."""
        if not key.cacheable:
            self.misses += 1
            return None
        path = self._path(key.digest)
        with self._lock:
            if not os.path.exists(path):
                self.misses += 1
                return None
            try:
                result = self._load(path, key.digest)
            except Exception:  # noqa: BLE001 - any damage means "miss"
                self._quarantine(key.digest, path)
                self.misses += 1
                return None
            try:
                os.utime(path)  # LRU recency that survives restarts
            except OSError:
                pass
            self.hits += 1
            return result

    def put(self, key: RequestKey, result: PartitionResult) -> bool:
        """Persist ``result`` under ``key``; returns whether it was
        admitted (uncacheable keys and over-budget payloads are not)."""
        if not key.cacheable or self.max_bytes <= 0:
            return False
        payload = self._serialize(key, result)
        if len(payload) > self.max_bytes:
            return False
        path = self._path(key.digest)
        with self._lock:
            fd, tmp = tempfile.mkstemp(prefix=".put-", suffix=".tmp",
                                       dir=self.directory)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)  # atomic publish
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._sizes[key.digest] = len(payload)
            self.stores += 1
            self._evict(keep=key.digest)
        return True

    def clear(self) -> None:
        with self._lock:
            for digest in list(self._sizes):
                self._remove(digest)

    # ---------------------------------------------------------- internals

    def _serialize(self, key: RequestKey, result: PartitionResult) -> bytes:
        meta = {
            "version": _VERSION,
            "digest": key.digest,
            "nparts": int(result.nparts),
            "ncon": int(result.ncon),
            "edgecut": int(result.edgecut),
            "feasible": bool(result.feasible),
            "method": str(result.method),
            "options": _options_to_jsonable(result.options),
        }
        import io

        buf = io.BytesIO()
        np.savez(
            buf,
            part=np.asarray(result.part),
            imbalance=np.asarray(result.imbalance),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        return buf.getvalue()

    def _load(self, path: str, digest: str) -> PartitionResult:
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(bytes(z["meta"].tobytes()))
            part = _freeze(z["part"])
            imbalance = _freeze(z["imbalance"])
        if meta.get("version") != _VERSION or meta.get("digest") != digest:
            raise ValueError("disk-cache entry does not match its digest")
        if part.ndim != 1 or imbalance.shape != (int(meta["ncon"]),):
            raise ValueError("disk-cache entry has malformed arrays")
        # Fields outside OPTION_FIELDS are options an older version wrote
        # and has since removed; dropping them is safe.  An entry whose
        # digest hashed a removed field is never requested again, so it is
        # unreachable rather than wrong.
        opts = meta.get("options")
        options = PartitionOptions(**{k: tuple(v) if isinstance(v, list)
                                      else v for k, v in opts.items()
                                      if k in OPTION_FIELDS}
                                   ) if opts else None
        return PartitionResult(
            part=part,
            nparts=int(meta["nparts"]),
            ncon=int(meta["ncon"]),
            edgecut=int(meta["edgecut"]),
            imbalance=imbalance,
            feasible=bool(meta["feasible"]),
            method=str(meta["method"]),
            options=options,
        )

    def _quarantine(self, digest: str, path: str) -> None:
        self.corrupt += 1
        self._sizes.pop(digest, None)
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _remove(self, digest: str) -> None:
        self._sizes.pop(digest, None)
        try:
            os.unlink(self._path(digest))
        except OSError:
            pass

    def _evict(self, keep: str | None = None) -> None:
        """Drop oldest-mtime entries until the byte budget holds.  Caller
        holds the lock."""
        while len(self._sizes) > 1 and sum(self._sizes.values()) > self.max_bytes:
            oldest, oldest_mtime = None, None
            for digest in self._sizes:
                if digest == keep:
                    continue
                try:
                    mtime = os.path.getmtime(self._path(digest))
                except OSError:
                    mtime = -1.0  # already gone: evict first
                if oldest is None or mtime < oldest_mtime:
                    oldest, oldest_mtime = digest, mtime
            if oldest is None:
                break
            self._remove(oldest)
            self.evictions += 1

    # --------------------------------------------------------------- stats

    def counters(self) -> dict:
        """Snapshot of the disk-cache counters (``serve.diskcache.*``)."""
        with self._lock:
            return {
                "serve.diskcache.hits": self.hits,
                "serve.diskcache.misses": self.misses,
                "serve.diskcache.stores": self.stores,
                "serve.diskcache.evictions": self.evictions,
                "serve.diskcache.corrupt": self.corrupt,
                "serve.diskcache.entries": len(self._sizes),
                "serve.diskcache.bytes": sum(self._sizes.values()),
            }
