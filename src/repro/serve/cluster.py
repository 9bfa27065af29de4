"""Process-pool compute backend: cold computes on real cores.

The thread backend overlaps work only where the numpy kernels release the
GIL; the pure-Python glue between kernels still serialises.
:class:`ProcessBackend` dispatches each cold compute to a pool of
**spawned** worker processes (spawn, never fork: the service owns threads,
and forking a threaded process is undefined behaviour), so concurrent cold
computes scale with cores.

Marshalling protocol ("ship once per worker"):

* every graph is identified by a stable content token (the service derives
  it from the request key's digests);
* a worker keeps a small LRU of reconstructed :class:`~repro.graph.csr.Graph`
  objects keyed by token.  Tasks normally carry **only the token**; a
  worker that does not hold the graph answers ``_NEED_GRAPH`` and the
  parent resubmits once with the full CSR arrays (which that worker then
  caches).  Steady-state traffic on a warm pool ships no arrays at all --
  the ``serve.cluster.ship.*`` counters make the protocol observable.

Determinism: request seeds are pinned to integers before they reach any
backend, and ``part_graph`` is deterministic given a pinned seed, so a
process compute is **bit-identical** to the same request on the thread
backend (the oracle).  ``tests/test_serve_cluster.py`` pins this parity;
the load harness (``benchmarks/bench_serve_cluster.py``) re-checks it on
every run and records violations (must be zero).

Worker telemetry: every compute reply carries a small in-process
measurement delta -- ``(result, {"worker": pid, "compute_seconds": dt,
"cached_graphs": n})`` over the pool's existing result future, no extra
IPC.  The parent folds deltas into a :class:`~repro.trace.MetricsRegistry`
with ``worker="<pid>"`` labels; :meth:`ProcessBackend.metrics` exposes
the snapshot and the service merges it into its Prometheus exposition.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from ..graph.csr import Graph
from ..partition.api import part_graph
from ..trace import MetricsRegistry, labeled
from .executor import ComputeBackend

__all__ = ["ProcessBackend"]

#: Worker answer meaning "I do not hold this graph; resend with arrays".
_NEED_GRAPH = "__repro_need_graph__"

#: Per-worker-process graph cache size (distinct topologies a worker keeps).
_WORKER_CACHE_ENTRIES = 8

# ---------------------------------------------------------------- worker
# Everything below the comment runs inside the spawned worker processes;
# it must stay importable at module top level (spawn pickles by reference).

_worker_graphs: "OrderedDict[str, Graph]" = OrderedDict()


def _worker_get_graph(token: str, blob) -> Graph | None:
    """Resolve ``token`` against the worker-local cache, admitting ``blob``
    (the CSR arrays) when it was shipped along."""
    g = _worker_graphs.get(token)
    if g is not None:
        _worker_graphs.move_to_end(token)
        return g
    if blob is None:
        return None
    xadj, adjncy, vwgt, adjwgt = blob
    g = Graph(xadj, adjncy, vwgt, adjwgt, validate=False)
    _worker_graphs[token] = g
    while len(_worker_graphs) > _WORKER_CACHE_ENTRIES:
        _worker_graphs.popitem(last=False)
    return g


def _worker_compute(token, blob, nparts, method, options, target_fracs):
    """One cold compute inside a worker process.

    Returns ``(result_or_NEED_GRAPH, delta_or_None)``: the telemetry delta
    measured *inside* the process rides back on the existing result future
    (``None`` on the token-miss answer, which did no work)."""
    t0 = time.perf_counter()
    g = _worker_get_graph(token, blob)
    if g is None:
        return _NEED_GRAPH, None
    res = part_graph(g, nparts, method=method, options=options,
                     target_fracs=target_fracs)
    return res, {"worker": os.getpid(),
                 "compute_seconds": time.perf_counter() - t0,
                 "cached_graphs": len(_worker_graphs)}


def _worker_ping(seconds: float) -> int:
    """Warm-up task: holds a worker busy so the next ping spawns/reaches
    another one."""
    time.sleep(seconds)
    return os.getpid()


# ---------------------------------------------------------------- parent


class ProcessBackend(ComputeBackend):
    """Cold computes on a spawn-context :class:`ProcessPoolExecutor`.

    Parameters
    ----------
    max_workers:
        Worker-process count (default: ``os.cpu_count()``).

    The pool starts lazily on the first compute (or eagerly via
    :meth:`warmup`); :meth:`close` shuts it down.  ``compute`` is
    thread-safe -- the service's request threads all submit into the one
    pool.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max(1, int(max_workers or os.cpu_count() or 1))
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._shipped: set[str] = set()
        self._counters = {
            "serve.cluster.computes": 0,
            "serve.cluster.ship.full": 0,
            "serve.cluster.ship.token": 0,
            "serve.cluster.ship.retry": 0,
        }
        self._telemetry = MetricsRegistry()

    # ------------------------------------------------------------- pool

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=get_context("spawn"))
            return self._pool

    def warmup(self, seconds: float = 0.05) -> None:
        """Spin up every worker (pays the spawn+import cost now, not on
        the first served request)."""
        pool = self._ensure_pool()
        futs = [pool.submit(_worker_ping, seconds)
                for _ in range(self.max_workers)]
        for f in futs:
            f.result()

    def close(self, wait: bool = True) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    # ---------------------------------------------------------- compute

    def _blob(self, graph):
        return (graph.xadj, graph.adjncy, graph.vwgt, graph.adjwgt)

    def compute(self, graph, nparts, *, method, options, target_fracs,
                graph_token):
        pool = self._ensure_pool()
        with self._lock:
            token_only = graph_token in self._shipped
            self._counters["serve.cluster.computes"] += 1
        if token_only:
            # Optimistic: some worker already holds this graph.
            with self._lock:
                self._counters["serve.cluster.ship.token"] += 1
            out, delta = pool.submit(_worker_compute, graph_token, None,
                                     nparts, method, options,
                                     target_fracs).result()
            self._absorb_delta(delta)
            if not (isinstance(out, str) and out == _NEED_GRAPH):
                return out
            # Landed on a cold worker: reship the arrays once to it.
            with self._lock:
                self._counters["serve.cluster.ship.retry"] += 1
        with self._lock:
            self._counters["serve.cluster.ship.full"] += 1
            self._shipped.add(graph_token)
        out, delta = pool.submit(_worker_compute, graph_token,
                                 self._blob(graph), nparts, method, options,
                                 target_fracs).result()
        self._absorb_delta(delta)
        return out

    def _absorb_delta(self, delta) -> None:
        """Fold a worker's compute delta into the labeled registry."""
        if not delta:
            return
        worker = str(delta["worker"])
        with self._lock:
            self._telemetry.histogram(
                labeled("serve.cluster.worker.compute_seconds",
                        worker=worker)).observe(delta["compute_seconds"])
            self._telemetry.counter(
                labeled("serve.cluster.worker.computes",
                        worker=worker)).inc()
            self._telemetry.gauge(
                labeled("serve.cluster.worker.cached_graphs",
                        worker=worker)).set(delta["cached_graphs"])

    def counters(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def metrics(self) -> dict:
        """Snapshot of the per-worker telemetry registry (``worker="<pid>"``
        labeled series), in :meth:`~repro.trace.MetricsRegistry.as_dict`
        shape; merged into the service's Prometheus exposition."""
        with self._lock:
            return self._telemetry.as_dict()
