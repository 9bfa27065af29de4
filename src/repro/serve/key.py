"""Canonical, content-addressed request keys for the partition service.

Two requests get the same key **iff** a correct implementation of
:func:`repro.partition.part_graph` is guaranteed to return bit-identical
results for both.  The key therefore hashes

* the graph *content* (``xadj``/``adjncy``/``adjwgt``/``vwgt`` bytes --
  object identity is irrelevant, a re-read of the same file hits),
* ``nparts``, ``method``, the canonicalised ``target_fracs``, and
* every semantically relevant :class:`~repro.partition.PartitionOptions`
  field -- i.e. all of them except ``collect_stats``, which only controls
  whether a trace is recorded, never which partition comes back.

The seed is canonicalised with :func:`repro._rng.canonical_seed` *at key
construction time*: a ``Generator`` is pinned to one drawn integer (so the
compute is deterministic and race-free even through the thread pool), and
``None`` marks the request :attr:`~RequestKey.cacheable`\\ ``=False`` --
explicitly nondeterministic requests are computed fresh every time.

A second, coarser digest (:attr:`RequestKey.topo_digest`) covers only the
topology (``xadj``/``adjncy``/``adjwgt``).  It is the warm-start index:
requests on the same mesh whose weights/``nparts``/``ubvec`` drifted hash
to the same topology bucket (see :mod:`repro.serve.warm`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .._rng import canonical_seed
from ..graph.csr import Graph
from ..partition.config import PartitionOptions
from ..weights.balance import as_target_fracs, as_ubvec

__all__ = ["RequestKey", "request_key", "SEMANTIC_OPTION_FIELDS"]

#: PartitionOptions fields that change the returned partition.  Everything
#: except ``collect_stats`` (observability-only).  ``seed`` is handled
#: separately through :func:`repro._rng.canonical_seed`, and ``ubvec`` is
#: hashed as its canonical per-constraint array.  Removing a name here
#: (as happens when an option is retired) changes every digest once;
#: entries stored under the old digests become unreachable and age out
#: of the disk cache's byte budget.
SEMANTIC_OPTION_FIELDS = (
    "matching",
    "coarsen_to",
    "kway_coarsen_factor",
    "init_ntries",
    "init_methods",
    "init_patience",
    "refine_passes",
    "kway_refine_passes",
    "effort",
)


def _hash_arrays(h, *arrays) -> None:
    for a in arrays:
        a = np.ascontiguousarray(a)
        # Dtype and shape are part of the content: int32 vs int64 vwgt with
        # equal values partitions identically, but keying on bytes alone
        # would collide (1, 0) int64 with (1,) of a wider dtype.
        h.update(str(a.dtype).encode())
        h.update(np.asarray(a.shape, dtype=np.int64).tobytes())
        h.update(a.tobytes())


@dataclass(frozen=True)
class RequestKey:
    """Canonical identity of one partition request.

    Attributes
    ----------
    digest:
        Hex SHA-256 over everything that determines the result.  Equal
        digests => bit-identical results (given a pinned seed).
    topo_digest:
        Hex SHA-256 over the graph topology only (no vertex weights) --
        the warm-start bucket.
    nparts, method, ncon:
        Echoed request parameters (used by the warm-start scorer).
    seed:
        The pinned integer seed, or ``None`` for a nondeterministic
        request.
    cacheable:
        False when ``seed`` is ``None``: two such submissions are
        *independent* random draws and must both compute.
    """

    digest: str
    topo_digest: str
    nparts: int
    method: str
    ncon: int
    seed: int | None = field(repr=False, default=None)

    @property
    def cacheable(self) -> bool:
        return self.seed is not None


def request_key(
    graph: Graph,
    nparts: int,
    *,
    method: str = "kway",
    options: PartitionOptions | None = None,
    target_fracs=None,
) -> tuple[RequestKey, PartitionOptions]:
    """Build the canonical key for a request.

    Returns ``(key, pinned_options)`` where ``pinned_options`` is
    ``options`` with its seed replaced by the canonical integer (this is
    what the service actually computes with, so key and compute can never
    disagree).
    """
    if options is None:
        options = PartitionOptions()
    seed = canonical_seed(options.seed)
    if seed is not None and seed != options.seed:
        options = options.with_(seed=seed)

    topo = hashlib.sha256()
    _hash_arrays(topo, graph.xadj, graph.adjncy, graph.adjwgt)
    topo_digest = topo.hexdigest()

    h = hashlib.sha256()
    h.update(topo_digest.encode())
    _hash_arrays(h, graph.vwgt)
    ub = as_ubvec(options.ubvec, graph.ncon)
    fr = as_target_fracs(target_fracs, nparts)
    _hash_arrays(h, ub, fr)
    fields_repr = ",".join(
        f"{name}={getattr(options, name)!r}" for name in SEMANTIC_OPTION_FIELDS
    )
    h.update(f"|n={nparts}|m={method}|s={seed}|{fields_repr}".encode())

    key = RequestKey(
        digest=h.hexdigest(),
        topo_digest=topo_digest,
        nparts=int(nparts),
        method=str(method),
        ncon=graph.ncon,
        seed=seed,
    )
    return key, options
