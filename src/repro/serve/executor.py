"""The compute-backend seam of the partition service.

:class:`PartitionService` never calls :func:`repro.partition.part_graph`
directly for a cold compute -- it asks its :class:`ComputeBackend`.  The
seam exists so the execution substrate can be swapped without touching the
front-end semantics (cache, dedup, warm start, admission, deadlines all
live above it):

* :class:`ThreadBackend` (default) computes inline in the calling
  service-pool thread -- exactly the pre-cluster behaviour, and the
  **deterministic oracle** every other backend is pinned against;
* :class:`~repro.serve.cluster.ProcessBackend` dispatches to a pool of
  spawned worker processes, sidestepping the GIL for concurrent cold
  computes (``ServiceConfig(backend="process")``).

The contract every backend must honour: given the same request (graph
content, ``nparts``, method, pinned-seed options, target fractions) it
returns a :class:`~repro.partition.PartitionResult` **bit-identical** to
``part_graph`` run serially.  ``tests/test_serve_cluster.py`` pins thread /
process parity across randomized requests.
"""

from __future__ import annotations

__all__ = ["ComputeBackend", "ThreadBackend", "make_backend", "BACKENDS"]


class ComputeBackend:
    """Abstract execution substrate for cold partition computes.

    ``compute`` runs synchronously from the perspective of the service's
    request thread (the service already fans requests across its own
    pool); a backend is free to forward the call to another process.
    ``graph_token`` is a required stable content token for the graph (the
    service derives it from the request key's SHA-256 digests).  Backends
    that marshal graphs use it to avoid re-shipping one they already
    shipped; :class:`ThreadBackend` ignores it.  There is no identity-based
    fallback: an ``id(graph)`` key could be reused by a different graph.
    """

    name = "abstract"

    def compute(self, graph, nparts, *, method, options, target_fracs,
                graph_token):
        raise NotImplementedError

    def close(self, wait: bool = True) -> None:
        """Release backend resources (worker processes, pools)."""

    def counters(self) -> dict:
        """Backend-specific counters, merged into ``service.stats()``."""
        return {}

    def metrics(self) -> dict | None:
        """Worker-telemetry snapshot (``{"counters": ..., "gauges": ...,
        "histograms": ...}``) merged into the service's Prometheus
        exposition; ``None`` when the backend measures nothing."""
        return None


class ThreadBackend(ComputeBackend):
    """Inline compute in the calling thread (the service's own pool).

    The numpy kernels release the GIL, so the service's thread pool still
    overlaps real work; this backend adds zero marshalling overhead and
    is the reference implementation for determinism parity.
    """

    name = "thread"

    def compute(self, graph, nparts, *, method, options, target_fracs,
                graph_token):
        # Late lookup through the service module so tests (and users) that
        # monkeypatch ``repro.serve.service.part_graph`` keep intercepting
        # the compute seam, as they did before the backend split.
        from . import service as _service

        return _service.part_graph(graph, nparts, method=method,
                                   options=options,
                                   target_fracs=target_fracs)


#: Registered backend names -> zero-config factory.  ``make_backend``
#: resolves these; the process backend lives in its own module so the
#: default import path stays multiprocessing-free.
BACKENDS = ("thread", "process")


def make_backend(name: str, *, process_workers=None) -> ComputeBackend:
    """Construct a backend by name (``"thread"`` | ``"process"``)."""
    if name == "thread":
        return ThreadBackend()
    if name == "process":
        from .cluster import ProcessBackend

        return ProcessBackend(max_workers=process_workers)
    raise ValueError(
        f"unknown serve backend {name!r}: expected one of {BACKENDS}")
