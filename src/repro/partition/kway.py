"""Multilevel k-way partitioning (the "horizontal" formulation).

Coarsen once to ``O(k)`` vertices, compute an initial k-way partition of the
coarsest graph by (non-multilevel) recursive bisection, then project the
partition back level by level, running the greedy multi-constraint k-way
refiner at each level.  Compared to recursive bisection this sees all ``k``
parts at once during refinement -- which is what lets it trade weight among
*all* parts when constraints interfere, the paper's motivation for the
horizontal formulation.

Performance: per-level refinement runs on
:class:`~repro.refine.kwayref.KWayState`'s maintained ``id/ed`` degree
arrays, so each pass touches only boundary vertices instead of re-scanning
every edge (see ``docs/performance.md``; ``benchmarks/perf_guard.py``
gates the end-to-end speed/quality envelope).
"""

from __future__ import annotations

import numpy as np

from .._rng import as_rng, spawn
from ..coarsen.coarsener import coarsen
from ..errors import PartitionError
from ..graph.csr import Graph
from ..refine.gain import edge_cut
from ..refine.kwayref import balance_kway, kway_refine
from ..trace import as_tracer
from ..weights.balance import as_target_fracs, as_ubvec, imbalance
from ._events import emit_level_event as _emit_level_event
from .config import PartitionOptions
from .recursive import partition_recursive

__all__ = ["partition_kway"]


def kway_coarsen_target(graph: Graph, nparts: int, options: PartitionOptions) -> int:
    """Coarsest-graph size of the k-way driver (and of each V-cycle).

    More constraints need a larger coarsest graph: chunky coarse vertices
    leave too little freedom to satisfy m caps at once (the paper's
    observation that quality drops as movable vertices become scarce).
    """
    return max(options.kway_coarsen_factor * nparts * max(1, graph.ncon - 1),
               options.coarsen_to)


def partition_kway(
    graph: Graph,
    nparts: int,
    options: PartitionOptions | None = None,
    tracer=None,
    target_fracs=None,
) -> np.ndarray:
    """Multilevel k-way partitioning.  Returns the part vector; ``graph`` is
    not mutated.  ``tracer`` (a :class:`repro.trace.Tracer`) records the
    ``coarsen`` / ``initpart`` / ``refine`` phase spans with per-level
    children; pass ``None`` for the zero-overhead no-op tracer.
    ``target_fracs`` requests non-uniform part sizes (see
    :func:`partition_recursive`)."""
    if options is None:
        options = PartitionOptions()
    if nparts < 1:
        raise PartitionError("nparts must be >= 1")
    if nparts > max(graph.nvtxs, 1):
        raise PartitionError(
            f"cannot cut {graph.nvtxs} vertices into {nparts} non-empty parts"
        )
    if nparts == 1:
        return np.zeros(graph.nvtxs, dtype=np.int64)

    tracer = as_tracer(tracer)
    rng = as_rng(options.seed)
    ub = as_ubvec(options.ubvec, graph.ncon)
    fracs = as_target_fracs(target_fracs, nparts)
    coarsen_to = kway_coarsen_target(graph, nparts, options)

    with tracer.span("coarsen", nvtxs=graph.nvtxs, nedges=graph.nedges) as csp:
        if graph.nvtxs > 1.5 * coarsen_to:
            hier = coarsen(
                graph,
                coarsen_to=coarsen_to,
                matching=options.matching,
                seed=rng,
                tracer=tracer,
            )
            coarsest = hier.coarsest
        else:
            hier = None
            coarsest = graph
        if tracer.enabled:
            sizes = hier.sizes() if hier is not None else [graph.nvtxs]
            csp.set(levels=sizes, coarsest_nvtxs=coarsest.nvtxs)
            tracer.incr("coarsen.levels", len(sizes) - 1)
    if tracer.enabled:
        tracer.observe("phase_seconds.coarsen", csp.seconds)

    # Initial k-way partition of the coarsest graph: recursive bisection.
    # The coarsest graph is O(k) vertices, so multilevel recursion inside
    # the bisection is unnecessary; a slightly relaxed tolerance leaves the
    # k-way refiner room to work.
    (init_rng, refine_rng) = spawn(rng, 2)
    # The nested bisections only need a genuinely O(k)-vertex coarsest
    # graph, so cap their coarsening target below the global default --
    # the multi-start candidates then run on a smaller graph without
    # touching the outer driver's coarsen_to.  A coarsest graph of at most
    # 4x that cap is bisected directly: coarsen_to = its own size keeps
    # every nested (sub)graph under multilevel_bisection's threshold.
    rb_coarsen_to = min(options.coarsen_to, 80)
    init_opts = options.with_(
        seed=init_rng,
        coarsen_to=(rb_coarsen_to if coarsest.nvtxs > 4 * rb_coarsen_to
                    else coarsest.nvtxs),
    )
    with tracer.span("initpart", nvtxs=coarsest.nvtxs) as isp:
        where = partition_recursive(coarsest, nparts, init_opts,
                                    target_fracs=fracs, tracer=tracer)
        if tracer.enabled:
            isp.set(cut=int(edge_cut(coarsest, where)))
    if tracer.enabled:
        tracer.observe("phase_seconds.initpart", isp.seconds)
        _emit_level_event(
            tracer, phase="initpart", direction="initial",
            level=len(hier.levels) if hier is not None else 0,
            graph=coarsest, where=where, nparts=nparts, fracs=fracs,
            cut=int(edge_cut(coarsest, where)), seconds=isp.seconds)

    st = None  # stays None when coarsening stalled at level 0
    with tracer.span("refine") as rsp:
        if hier is not None:
            for idx in range(len(hier.levels) - 1, -1, -1):
                lvl = hier.levels[idx]
                where = where[lvl.cmap]
                with tracer.span("level", nvtxs=lvl.graph.nvtxs,
                                 nedges=lvl.graph.nedges) as lsp:
                    st = kway_refine(
                        lvl.graph,
                        where,
                        nparts,
                        ubvec=ub,
                        target_fracs=fracs,
                        npasses=options.kway_refine_passes,
                        seed=refine_rng,
                    )
                    if tracer.enabled:
                        imbvec = imbalance(lvl.graph.vwgt, where, nparts, fracs)
                        lsp.set(
                            cut=int(st.final_cut),
                            moves=int(st.moves),
                            passes=int(st.passes),
                            balance_moves=int(st.balance_moves),
                            imbalance=float(imbvec.max()),
                        )
                        tracer.incr("kway.moves", int(st.moves))
                        tracer.incr("kway.passes", int(st.passes))
                if tracer.enabled:
                    tracer.observe("level_seconds.refine", lsp.seconds)
                    _emit_level_event(
                        tracer, phase="refine", direction="uncoarsening",
                        level=idx, graph=lvl.graph, where=where,
                        nparts=nparts, fracs=fracs, imbvec=imbvec,
                        cut=int(st.final_cut), cut_before=int(st.initial_cut),
                        moves=int(st.moves), passes=int(st.passes),
                        balance_moves=int(st.balance_moves), rollbacks=0,
                        seconds=lsp.seconds)
        else:
            st = kway_refine(graph, where, nparts, ubvec=ub, target_fracs=fracs,
                             npasses=options.kway_refine_passes,
                             seed=refine_rng)
            if tracer.enabled:
                rsp.set(cut=int(st.final_cut), moves=int(st.moves),
                        passes=int(st.passes))
                tracer.incr("kway.moves", int(st.moves))
                tracer.incr("kway.passes", int(st.passes))
                _emit_level_event(
                    tracer, phase="refine", direction="uncoarsening",
                    level=0, graph=graph, where=where, nparts=nparts,
                    fracs=fracs, cut=int(st.final_cut),
                    cut_before=int(st.initial_cut), moves=int(st.moves),
                    passes=int(st.passes),
                    balance_moves=int(st.balance_moves), rollbacks=0,
                    seconds=None)
    if tracer.enabled:
        tracer.observe("phase_seconds.refine", rsp.seconds)

    # The last kway_refine ran on the finest graph and already balanced it
    # when it reports feasible; a final balance_kway would rebuild the
    # whole k-way state only to make no move.
    if st is None or not st.feasible:
        with tracer.span("balance"):
            balance_kway(graph, where, nparts, ubvec=ub, target_fracs=fracs)

    return where
