"""Warm-start: seed the k-way refiner from a cached partition.

A previous partition of the *same mesh* is a valid initial solution for a
new request whose weights, part count, or tolerance drifted -- exactly the
repartitioning situation of :mod:`repro.adaptive`: keep the old assignment,
restore balance under the new weights, then run multi-constraint k-way
refinement.  That costs one refinement sweep instead of a full multilevel
run.

Contract (documented in ``docs/serving.md``):

* the warm result is **accepted** only if it is feasible under the new
  request's ``ubvec`` AND its cut is at most :data:`WARM_CUT_FACTOR`
  (1.5) times the cut of the cached partition evaluated on the new
  request's graph (the baseline the refiner started from -- rebalancing
  under drifted weights may raise the cut a little, but a blow-up means
  the old solution was a bad seed and the service falls back to cold
  compute);
* a warm result is **never** stored in the cache, because the cache's
  headline invariant is "a hit is bit-identical to a cold compute of the
  same request";
* when the cached source has a different ``nparts``, part ids are folded
  modulo the requested ``nparts`` -- crude, but only the *seeding* needs to
  be legal; balancing and refinement do the rest.  Folding **up** (source
  has fewer parts than the request) leaves parts
  ``source_nparts..nparts-1`` empty, and the k-way refiner cannot populate
  an empty part, so the seed is repaired first: each empty part receives
  half the vertices of the currently heaviest multi-vertex block.  The
  repair count is recorded on the ``serve.warm_start`` span
  (``repaired_parts``).
"""

from __future__ import annotations

import numpy as np

from ..adaptive.repart import refine_partition
from ..graph.csr import Graph
from ..partition.api import PartitionResult
from ..partition.config import PartitionOptions
from ..refine.gain import edge_cut
from .cache import CacheEntry

__all__ = ["warm_start", "WARM_CUT_FACTOR"]

#: A warm result is accepted only if its cut is at most this factor times
#: the cut of the cached seed partition on the new graph.
WARM_CUT_FACTOR = 1.5


def _repair_empty_parts(graph: Graph, part: np.ndarray,
                        nparts: int) -> tuple[np.ndarray, int]:
    """Make every part of a folded seed nonempty; returns (part, nrepaired).

    ``old_part % nparts`` with ``source_nparts < nparts`` can only produce
    ids ``0..source_nparts-1``, so the upper parts start empty -- and the
    greedy k-way refiner moves vertices between *existing* boundary parts,
    so an empty part would stay empty and the warm result could never be
    feasible.  Deterministically split the heaviest (by total vertex
    weight) multi-vertex block in half for each empty part.  The split is
    crude on purpose: balancing + refinement run right after.
    """
    counts = np.bincount(part, minlength=nparts)
    empties = np.flatnonzero(counts == 0)
    if empties.size == 0:
        return part, 0
    part = part.copy()
    tot = np.asarray(graph.vwgt).reshape(graph.nvtxs, -1).sum(axis=1)
    tot = tot.astype(np.float64)
    loads = np.bincount(part, weights=tot, minlength=nparts)
    repaired = 0
    for p in empties:
        donor_loads = np.where(counts >= 2, loads, -1.0)
        donor = int(np.argmax(donor_loads))
        if counts[donor] < 2:
            break  # fewer multi-vertex blocks than empty parts; give up
        verts = np.flatnonzero(part == donor)
        take = verts[: verts.size // 2]
        part[take] = p
        moved = float(tot[take].sum())
        loads[donor] -= moved
        loads[p] += moved
        counts[p] = take.size
        counts[donor] -= take.size
        repaired += 1
    return part, repaired


def warm_start(
    graph: Graph,
    nparts: int,
    options: PartitionOptions,
    source: CacheEntry,
    *,
    tracer=None,
) -> PartitionResult | None:
    """Attempt a warm-started partition from ``source``; ``None`` on reject.

    Records one ``serve.warm_start`` span on ``tracer`` (when given)
    carrying the verdict: ``accepted`` plus either the achieved cut or the
    rejection reason.
    """
    old_part = np.asarray(source.result.part)
    if old_part.shape != (graph.nvtxs,):
        return None  # topology hash collision paranoia; cold compute
    repaired = 0
    if source.key.nparts != nparts:
        old_part = old_part % nparts
        old_part, repaired = _repair_empty_parts(graph, old_part, nparts)
    baseline_cut = edge_cut(graph, old_part)

    span = tracer.span("serve.warm_start", nparts=nparts,
                       source_nparts=source.key.nparts,
                       repaired_parts=repaired,
                       baseline_cut=int(baseline_cut)) if tracer else None
    try:
        rep = refine_partition(
            graph,
            old_part,
            nparts,
            ubvec=options.ubvec,
            npasses=options.kway_refine_passes,
            seed=options.seed,
        )
        accepted = rep.feasible and rep.edgecut <= WARM_CUT_FACTOR * max(
            baseline_cut, 1)
        if span is not None:
            span.set(accepted=accepted, cut=int(rep.edgecut),
                     feasible=rep.feasible)
            if not accepted:
                span.set(reason="infeasible" if not rep.feasible
                         else "cut_blowup")
        if not accepted:
            return None
        return PartitionResult(
            part=rep.part,
            nparts=nparts,
            ncon=graph.ncon,
            edgecut=rep.edgecut,
            imbalance=rep.imbalance,
            feasible=rep.feasible,
            method=source.key.method,
            options=options,
        )
    finally:
        if span is not None:
            span.__exit__(None, None, None)
