"""The partition service: cache + dedup + admission + batched execution.

:class:`PartitionService` sits in front of :func:`repro.partition.part_graph`
and absorbs repeated and concurrent traffic:

* **cache** -- a content-addressed :class:`~repro.serve.cache.ResultCache`;
  an exact repeat of a seeded request returns a stored snapshot without
  recomputing (bit-identical to the cold compute, see ``docs/serving.md``).
* **disk tier** -- an optional second-level
  :class:`~repro.serve.diskcache.DiskCache` (``cache_dir=``); cold results
  are persisted and a restarted service serves them back bit-identical,
  warming the in-memory tier on first touch.
* **dedup** -- identical requests *in flight* coalesce onto one compute;
  N threads asking for the same key pay for exactly one partition run.
* **batching** -- distinct requests fan out across a thread pool, and each
  cold compute runs on the configured :class:`~repro.serve.executor.ComputeBackend`:
  inline threads (default; numpy kernels release the GIL) or a pool of
  spawned worker processes (``backend="process"``) that sidesteps the GIL
  entirely (:mod:`repro.serve.cluster`).
* **admission control** -- a bounded pending queue with per-class
  (``interactive`` / ``batch``) deadlines and shedding
  (:class:`~repro.serve.admission.AdmissionController`); a shed request
  raises :class:`~repro.errors.ServeOverloadError` at submit.
* **warm start** -- an exact miss whose topology matches a cached entry is
  seeded from that partition via the adaptive-repartitioning machinery and
  falls back to cold compute when the warm result is infeasible or its cut
  blows up (:mod:`repro.serve.warm`).
* **deadlines** -- a per-request ``timeout`` (seconds) bounds the caller's
  wait; a queued compute is skipped entirely only when *every* waiter
  coalesced onto it has expired.  Both paths raise
  :class:`~repro.errors.ServeTimeoutError`.

Determinism: request seeds are pinned to integers at submission
(:func:`repro._rng.canonical_seed`), so every compute owns a private RNG and
two identical seeded requests return bit-identical partitions no matter how
they interleave -- or which backend computes them.  Requests with
``seed=None`` are honoured as explicitly nondeterministic: they bypass
cache and dedup.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field, replace

from ..errors import ServeBatchError, ServeTimeoutError, ServiceClosedError
from ..graph.csr import Graph
from ..partition.api import PartitionResult, part_graph
from ..partition.config import PartitionOptions, check_option_kwargs
from ..partition.validate import validate_request
from ..trace import MetricsRegistry, Tracer, as_tracer
from .admission import REQUEST_CLASSES, AdmissionController
from .cache import ResultCache
from .diskcache import DiskCache
from .executor import make_backend
from .key import RequestKey, request_key
from .warm import warm_start

__all__ = ["ServiceConfig", "PartitionService", "ServeFuture"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of :class:`PartitionService`.

    Attributes
    ----------
    max_workers:
        Thread-pool width for distinct concurrent requests (the request
        orchestration pool; with ``backend="process"`` it should be at
        least the process-worker count so submissions can keep every core
        busy).
    backend:
        Cold-compute execution backend: ``"thread"`` (inline, default) or
        ``"process"`` (spawned worker-process pool, GIL-free; see
        :mod:`repro.serve.cluster`).
    process_workers:
        Worker-process count for ``backend="process"`` (default: CPU
        count).
    cache_entries, cache_bytes:
        In-memory result-cache budgets (``cache_entries=0`` disables
        caching).
    cache_dir:
        Directory for the disk-backed second-level cache; ``None``
        (default) disables the disk tier.
    disk_cache_bytes:
        Byte budget of the disk tier (LRU-evicted).
    dedup:
        Coalesce identical in-flight requests onto one compute.
    warm_start:
        Try seeding from a same-topology cached partition on exact misses.
    max_pending:
        Admission bound on queued-but-not-started computes; ``None``
        (default) disables load shedding.  See
        :class:`~repro.serve.admission.AdmissionController`.
    batch_shed_fraction:
        Fraction of ``max_pending`` at which batch-class requests are
        shed (interactive requests use the full bound).
    default_timeout:
        Deadline (seconds) applied when a request passes neither its own
        timeout nor matches a per-class deadline.  ``None`` waits forever.
    interactive_timeout, batch_timeout:
        Per-class default deadlines, consulted before ``default_timeout``.
    retain_graphs:
        Keep up to this many recently requested graphs (LRU by request
        digest) so the background improver (:mod:`repro.serve.improver`)
        can recompute hot entries at a higher effort level -- the cache
        stores only results, never graphs.  ``0`` (default) retains
        nothing and the improver rejects every entry.
    """

    max_workers: int = 4
    backend: str = "thread"
    process_workers: int | None = None
    cache_entries: int = 128
    cache_bytes: int = 64 << 20
    cache_dir: str | None = None
    disk_cache_bytes: int = 256 << 20
    dedup: bool = True
    warm_start: bool = True
    max_pending: int | None = None
    batch_shed_fraction: float = 0.5
    default_timeout: float | None = None
    interactive_timeout: float | None = None
    batch_timeout: float | None = None
    retain_graphs: int = 0


@dataclass
class ServeFuture:
    """Handle to one submitted request."""

    key: RequestKey = field(repr=False)
    #: ``"hit"`` | ``"disk"`` | ``"coalesced"`` | ``"compute"`` --
    #: resolved at submit.
    disposition: str = "compute"
    _future: Future = field(repr=False, default_factory=Future)
    _deadline: float | None = field(repr=False, default=None)
    #: Deadlines of every waiter coalesced onto this compute (the leader's
    #: own included).  A queued compute is skipped only when *all* of them
    #: have expired -- a follower with a longer (or no) timeout keeps the
    #: compute alive even if the leader's deadline lapsed.
    _waiters: list = field(repr=False, default_factory=list)

    def result(self, timeout: float | None = None) -> PartitionResult:
        """Block for the result; raises :class:`ServeTimeoutError` when the
        explicit ``timeout`` or the request's deadline expires first."""
        if timeout is None and self._deadline is not None:
            timeout = max(self._deadline - time.monotonic(), 0.0)
        try:
            return self._future.result(timeout)
        except _FutureTimeout:
            raise ServeTimeoutError(
                f"request {self.key.digest[:12]} missed its deadline "
                f"(timeout={timeout:.3f}s)") from None

    def done(self) -> bool:
        return self._future.done()


class PartitionService:
    """Cached, batched, deduplicating front-end over ``part_graph``.

    Thread-safe; one instance serves any number of submitting threads.
    Use as a context manager or call :meth:`close` to release the pool::

        from repro.serve import PartitionService

        with PartitionService() as svc:
            res = svc.partition(g, 8, seed=0)      # cold compute
            res2 = svc.partition(g, 8, seed=0)     # cache hit, bit-identical


    ``tracer`` receives the service counters (``serve.*``,
    ``serve.cache.*``) and, per computed request, a ``serve.request`` span
    (with ``serve.warm_start`` / ``serve.cold`` children).  Spans are
    recorded into a private per-request tracer and appended to the given
    tracer's roots, so concurrent computes cannot corrupt its span stack.
    """

    def __init__(self, config: ServiceConfig | None = None, *, tracer=None):
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_entries,
                                 self.config.cache_bytes)
        self.disk = (DiskCache(self.config.cache_dir,
                               self.config.disk_cache_bytes)
                     if self.config.cache_dir else None)
        self.admission = AdmissionController(
            self.config.max_pending, self.config.batch_shed_fraction)
        self.tracer = as_tracer(tracer)
        self._backend = make_backend(
            self.config.backend, process_workers=self.config.process_workers)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.config.max_workers),
            thread_name_prefix="repro-serve")
        self._lock = threading.Lock()
        self._inflight: dict[str, ServeFuture] = {}
        self._graphs: "OrderedDict[str, Graph]" = OrderedDict()
        self._closed = False
        #: service-owned metrics: per-request latency histograms keyed by
        #: outcome (``serve.latency.{hit,disk,warm,cold,timeout}``),
        #: exposed by :meth:`metrics_text` independently of any tracer.
        self.metrics = MetricsRegistry()
        self.counters = {
            "serve.requests": 0,
            "serve.dedup.coalesced": 0,
            "serve.cold_computes": 0,
            "serve.warm_start.attempts": 0,
            "serve.warm_start.accepted": 0,
            "serve.warm_start.rejected": 0,
            "serve.timeouts": 0,
        }

    # ------------------------------------------------------------ public

    def submit(
        self,
        graph: Graph,
        nparts: int,
        *,
        method: str = "kway",
        options: PartitionOptions | None = None,
        target_fracs=None,
        timeout: float | None = None,
        klass: str = "interactive",
        warm: bool | None = None,
        **kwargs,
    ) -> ServeFuture:
        """Enqueue one request; returns immediately with a handle.

        Accepts the same request surface as :func:`part_graph` (individual
        option fields may be passed as keywords; unknown names raise
        :class:`~repro.errors.OptionsError`).  Validation runs eagerly in
        the calling thread, so malformed requests raise here, not inside
        the pool.  ``klass`` selects the admission class (``"interactive"``
        default, or ``"batch"``); an over-bound queue sheds the request
        here with :class:`~repro.errors.ServeOverloadError`.  ``warm``
        overrides ``config.warm_start`` for this request (``False`` forces
        a genuine cold compute on a miss -- the background improver uses
        this so what it caches really is the cold compute of its key).
        """
        t_submit = time.perf_counter()
        if klass not in REQUEST_CLASSES:
            raise ValueError(f"unknown request class {klass!r}: expected "
                             f"one of {REQUEST_CLASSES}")
        check_option_kwargs(kwargs)
        if options is None:
            options = PartitionOptions(**kwargs)
        elif kwargs:
            options = options.with_(**kwargs)
        validate_request(graph, nparts, options=options, method=method,
                         target_fracs=target_fracs)
        key, options = request_key(graph, nparts, method=method,
                                   options=options, target_fracs=target_fracs)
        if timeout is None:
            timeout = self._class_timeout(klass)
        deadline = (time.monotonic() + timeout) if timeout is not None else None

        with self._lock:
            if self._closed:
                raise ServiceClosedError("PartitionService is closed")
            self._incr("serve.requests")
            if self.config.retain_graphs > 0 and key.cacheable:
                self._graphs[key.digest] = graph
                self._graphs.move_to_end(key.digest)
                while len(self._graphs) > self.config.retain_graphs:
                    self._graphs.popitem(last=False)
            fast = self._fast_path(key, deadline, t_submit)
            if fast is not None:
                return fast

        # Memory miss with no compute to coalesce onto: consult the disk
        # tier outside the admission lock (file IO must not stall submits).
        if self.disk is not None and key.cacheable:
            stored = self.disk.get(key)
            if stored is not None:
                with self._lock:
                    self.cache.put(key, stored,  # promote
                                   target_fracs=target_fracs)
                    self._mirror_cache_counters()
                    self._observe_latency("disk",
                                          time.perf_counter() - t_submit)
                    fut = ServeFuture(key=key, disposition="disk",
                                      _deadline=deadline)
                    fut._future.set_result(stored)
                    return fut

        with self._lock:
            if self._closed:
                raise ServiceClosedError("PartitionService is closed")
            # Re-check under the lock: a racer may have finished, promoted
            # or enqueued this key while we were reading the disk tier.
            fast = self._fast_path(key, deadline, t_submit, count_miss=False)
            if fast is not None:
                return fast
            self.admission.admit(klass)  # may shed: ServeOverloadError
            fut = ServeFuture(key=key, disposition="compute",
                              _deadline=deadline)
            fut._waiters.append(deadline)
            if key.cacheable:
                self._inflight[key.digest] = fut
            allow_warm = self.config.warm_start if warm is None else bool(warm)
            try:
                self._pool.submit(self._run, graph, nparts, method, options,
                                  target_fracs, key, fut, allow_warm)
            except BaseException:
                self.admission.abandon()
                if key.cacheable:
                    self._inflight.pop(key.digest, None)
                raise
            return fut

    def partition(self, graph: Graph, nparts: int, *,
                  timeout: float | None = None, **kwargs) -> PartitionResult:
        """Synchronous :meth:`submit` + wait."""
        return self.submit(graph, nparts, timeout=timeout, **kwargs).result()

    def batch(self, requests, *, timeout: float | None = None,
              klass: str = "batch") -> list[PartitionResult]:
        """Fan a batch of requests across the pool; results in order.

        ``requests`` is an iterable of ``(graph, nparts)`` pairs or
        ``(graph, nparts, kwargs_dict)`` triples.  Duplicate requests
        inside one batch still cost a single compute (dedup applies), and
        the whole batch is admitted under ``klass`` (``"batch"`` by
        default; a per-request ``"klass"`` in the kwargs dict overrides).

        The batch is **gathered to completion** even when some requests
        fail: if any did -- at submit (malformed request, shed by
        admission) or in compute -- a
        :class:`~repro.errors.ServeBatchError` is raised carrying every
        per-request outcome (``.results`` in order, ``.errors`` by index)
        -- one bad request cannot silently abandon its siblings.
        """
        futures: list[ServeFuture | None] = []
        errors: dict[int, BaseException] = {}
        for i, req in enumerate(requests):
            g, k = req[0], req[1]
            kw = dict(req[2]) if len(req) > 2 else {}
            kw.setdefault("klass", klass)
            try:
                futures.append(self.submit(g, k, timeout=timeout, **kw))
            except Exception as exc:  # noqa: BLE001 - aggregated below
                futures.append(None)
                errors[i] = exc
        results: list[PartitionResult | None] = []
        for i, f in enumerate(futures):
            if f is None:
                results.append(None)
                continue
            try:
                results.append(f.result())
            except Exception as exc:  # noqa: BLE001 - aggregated below
                results.append(None)
                errors[i] = exc
        if errors:
            raise ServeBatchError(
                f"{len(errors)}/{len(futures)} batch requests failed "
                f"(indices {sorted(errors)})", results=results, errors=errors)
        return results

    def retained_graph(self, digest: str) -> Graph | None:
        """The graph of a recently submitted request (by request digest),
        when ``config.retain_graphs`` keeps it around; ``None`` otherwise.
        Used by :class:`~repro.serve.improver.Improver`."""
        with self._lock:
            return self._graphs.get(digest)

    def warmup(self) -> None:
        """Pre-start the compute backend (spawns the worker processes of
        ``backend="process"`` so the first request does not pay for it)."""
        warm = getattr(self._backend, "warmup", None)
        if warm is not None:
            warm()

    def stats(self) -> dict:
        """Counter snapshot: service + admission + backend counters, the
        ``serve.cache.*`` / ``serve.diskcache.*`` tiers, and the live
        ``serve.queue_depth`` / ``serve.inflight`` gauges."""
        with self._lock:
            out = dict(self.counters)
            out.update(self.admission.counters())
            out.update(self.admission.gauges())
            out.update(self.cache.counters())
        if self.disk is not None:
            out.update(self.disk.counters())
        out.update(self._backend.counters())
        return out

    def latency(self, outcome: str) -> dict | None:
        """Snapshot of the ``serve.latency.<outcome>`` histogram (outcome
        one of ``hit`` / ``disk`` / ``warm`` / ``cold`` / ``timeout``), or
        ``None`` when no such request has been served yet."""
        with self._lock:
            h = self.metrics._histograms.get(f"serve.latency.{outcome}")
            return h.snapshot() if h is not None else None

    def metrics_text(self) -> str:
        """The service's metrics as a Prometheus text exposition.

        Counters (``serve.requests``, cache hits/misses, shed totals, the
        backend's shipping protocol, ...), the occupancy and queue gauges
        (``serve.cache.entries`` / ``.bytes``, ``serve.diskcache.*``,
        ``serve.queue_depth``, ``serve.inflight``) and the per-outcome
        latency histograms, rendered with
        :func:`repro.obs.expose.render_prometheus`.
        """
        from ..obs.expose import render_prometheus

        with self._lock:
            counters = dict(self.counters)
            counters.update(self.admission.counters())
            cache = self.cache.counters()
            gauges = self.admission.gauges()
            histograms = self.metrics.histogram_values()
        gauges.update({name: cache.pop(name)
                       for name in ("serve.cache.entries",
                                    "serve.cache.bytes")})
        counters.update(cache)
        if self.disk is not None:
            disk = self.disk.counters()
            gauges.update({name: disk.pop(name)
                           for name in ("serve.diskcache.entries",
                                        "serve.diskcache.bytes")})
            counters.update(disk)
        counters.update(self._backend.counters())
        backend_metrics = self._backend.metrics()
        if backend_metrics:
            counters.update(backend_metrics.get("counters", {}))
            gauges.update(backend_metrics.get("gauges", {}))
            histograms.update(backend_metrics.get("histograms", {}))
        return render_prometheus(counters=counters, gauges=gauges,
                                 histograms=histograms)

    def close(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._backend.close(wait=wait)

    def __enter__(self) -> "PartitionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ----------------------------------------------------------- helpers

    def _class_timeout(self, klass: str) -> float | None:
        per_class = (self.config.interactive_timeout
                     if klass == "interactive" else self.config.batch_timeout)
        return per_class if per_class is not None else self.config.default_timeout

    def _fast_path(self, key, deadline, t_submit, *,
                   count_miss: bool = True) -> ServeFuture | None:
        """Resolve a submission from the memory cache or an in-flight
        compute; ``None`` means the caller must go on to compute.  Caller
        holds the lock."""
        cached = self.cache.get(key, count_miss=count_miss)
        if cached is not None:
            self._mirror_cache_counters()
            fut = ServeFuture(key=key, disposition="hit", _deadline=deadline)
            fut._future.set_result(cached)
            self._observe_latency("hit", time.perf_counter() - t_submit)
            return fut
        if self.config.dedup and key.cacheable:
            running = self._inflight.get(key.digest)
            if running is not None and not running._future.done():
                self._incr("serve.dedup.coalesced")
                running._waiters.append(deadline)
                return ServeFuture(key=key, disposition="coalesced",
                                   _future=running._future,
                                   _deadline=deadline)
        return None

    def _graph_token(self, key: RequestKey, graph: Graph) -> str:
        """Stable graph-content token for backend marshalling: topology
        digest + vertex-weight digest (the request digest would fragment
        per seed/options, re-shipping identical graphs)."""
        h = hashlib.sha256()
        h.update(graph.vwgt.tobytes())
        return f"{key.topo_digest[:24]}:{h.hexdigest()[:24]}"

    # ----------------------------------------------------------- workers

    def _incr(self, name: str, n: int = 1) -> None:
        """Bump a service counter (and its tracer mirror).  Caller holds
        the lock."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self.tracer.enabled:
            self.tracer.incr(name, n)

    def _observe_latency(self, outcome: str, seconds: float) -> None:
        """Record one request latency under its outcome.  Caller holds the
        lock (Histogram.observe is not thread-safe)."""
        self.metrics.histogram(f"serve.latency.{outcome}").observe(seconds)
        if self.tracer.enabled:
            self.tracer.observe(f"serve.latency.{outcome}", seconds)

    def _mirror_cache_counters(self) -> None:
        if self.tracer.enabled:
            for name, value in self.cache.counters().items():
                self.tracer.gauge(name, value)

    def _run(self, graph, nparts, method, options, target_fracs, key,
             fut: ServeFuture, allow_warm: bool = True) -> None:
        """Worker-thread body: warm or cold compute, publish, cache."""
        t0 = time.perf_counter()
        started = False
        try:
            with self._lock:
                self.admission.start()
                started = True
                now = time.monotonic()
                # Skip the compute only when *every* coalesced waiter has
                # already expired; a live follower keeps it running even
                # if the leader's deadline lapsed while queued.
                expired = all(d is not None and now > d
                              for d in fut._waiters)
            if expired:
                with self._lock:
                    self._incr("serve.timeouts")
                    self._observe_latency("timeout",
                                          time.perf_counter() - t0)
                raise ServeTimeoutError(
                    f"request {key.digest[:12]} expired before compute "
                    "started (all waiters past their deadlines)")
            # Per-request private tracer: concurrent computes must not
            # share a span stack (Tracer is single-threaded by contract).
            rtracer = Tracer() if self.tracer.enabled else None
            span = rtracer.span("serve.request", nparts=nparts,
                                method=method, key=key.digest[:12],
                                nvtxs=graph.nvtxs) if rtracer else None

            result = None
            source = "cold"
            if allow_warm and key.cacheable:
                with self._lock:
                    warm_src = self.cache.find_warm(key)
                if warm_src is not None:
                    with self._lock:
                        self._incr("serve.warm_start.attempts")
                    result = warm_start(graph, nparts, options, warm_src,
                                        tracer=rtracer)
                    with self._lock:
                        self._incr("serve.warm_start.accepted"
                                   if result is not None
                                   else "serve.warm_start.rejected")
                    source = "warm"
            if result is None:
                source = "cold"
                with self._lock:
                    self._incr("serve.cold_computes")
                cold_span = rtracer.span("serve.cold") if rtracer else None
                result = self._backend.compute(
                    graph, nparts, method=method, options=options,
                    target_fracs=target_fracs,
                    graph_token=self._graph_token(key, graph))
                if cold_span is not None:
                    cold_span.set(cut=result.edgecut)
                    cold_span.__exit__(None, None, None)

            # Only cold computes are cached: a hit must equal a cold compute.
            if source == "cold" and self.disk is not None and key.cacheable:
                # Disk IO stays outside the admission lock.
                self.disk.put(key, result)
            with self._lock:
                if source == "cold":
                    self.cache.put(key, result, target_fracs=target_fracs)
                self._mirror_cache_counters()
                self._observe_latency(source, time.perf_counter() - t0)
                if span is not None:
                    span.set(source=source, cut=result.edgecut,
                             feasible=result.feasible)
                    span.__exit__(None, None, None)
                    rtracer.finish()
                    # Graft the finished private tree under the shared
                    # tracer (append-only; safe under the lock).
                    self.tracer.roots.append(rtracer.root)
            fut._future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 - publish to waiters
            fut._future.set_exception(exc)
        finally:
            with self._lock:
                if started:
                    self.admission.done()
                if key.cacheable:
                    self._inflight.pop(key.digest, None)
