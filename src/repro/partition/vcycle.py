"""Iterated multilevel V-cycles (KaFFPa-style quality iteration).

A single multilevel run coarsens blindly: the matching that builds the
hierarchy knows nothing about the partition that will eventually be
refined on it.  The iterated-multilevel idea ("Engineering Multilevel
Graph Partitioning Algorithms", PAPERS.md) feeds the *current* partition
back into coarsening as a matching constraint -- only vertices in the
same block may be merged -- so the partition projects exactly onto every
level of the new hierarchy:

* a collapsed edge joins same-block endpoints, so it was uncut; the
  projected coarse partition has the **same cut** as the fine one, and
* contraction sums vertex weights, so per-part loads (hence
  feasibility) are preserved level by level.

Refinement at each level therefore starts from the incoming partition
(not a fresh one) and the greedy k-way refiner never accepts a
cut-increasing move on a feasible state -- each V-cycle is monotone by
construction, and :func:`vcycle_once` additionally guards the output so
a cycle can never return something worse than its input.

:func:`vcycle_improve` repeats V-cycles with freshly seeded matchings
until ``options.vcycle_max`` cycles ran or ``options.vcycle_patience``
consecutive cycles failed to improve.  This is what
``part_graph(..., effort="high")`` runs after the standard pipeline, and
what the evolutionary ensemble (:mod:`repro.partition.ensemble`) uses as
both its combine operator (constraint = overlap of two parents) and its
mutation operator (perturbed-seed cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import as_rng, spawn
from ..coarsen.coarsener import coarsen
from ..errors import PartitionError
from ..graph.csr import Graph
from ..refine.gain import edge_cut
from ..refine.kwayref import kway_refine
from ..trace import as_tracer
from ..weights.balance import (
    FEASIBILITY_EPS,
    as_target_fracs,
    as_ubvec,
    imbalance,
)
from .config import PartitionOptions

__all__ = ["VCycleStats", "vcycle_once", "vcycle_improve"]


@dataclass
class VCycleStats:
    """Outcome of a :func:`vcycle_improve` run.

    ``cycles`` V-cycles ran; ``improved`` of them strictly improved the
    (feasible, cut, imbalance) key.  ``initial_cut``/``final_cut`` bracket
    the whole run; ``final_cut <= initial_cut`` always (on feasible input).
    """

    cycles: int
    improved: int
    initial_cut: int
    final_cut: int


def _quality_key(graph: Graph, part: np.ndarray, nparts: int, ub, fracs):
    """Total order on partitions: feasible first, then cut, then imbalance."""
    imb = imbalance(graph.vwgt, part, nparts, fracs)
    feasible = bool(np.all(imb <= ub + FEASIBILITY_EPS))
    return (not feasible, int(edge_cut(graph, part)), float(imb.max(initial=0.0)))


def _check_part(graph: Graph, part, nparts: int) -> np.ndarray:
    out = np.asarray(part, dtype=np.int64)
    if out.shape != (graph.nvtxs,):
        raise PartitionError(
            f"partition must have shape ({graph.nvtxs},); got {out.shape}")
    if out.size and (out.min() < 0 or out.max() >= nparts):
        raise PartitionError(
            f"partition labels must lie in [0, {nparts}); "
            f"got [{out.min()}, {out.max()}]")
    return out


def vcycle_once(
    graph: Graph,
    part,
    nparts: int,
    options: PartitionOptions | None = None,
    *,
    target_fracs=None,
    seed=None,
    constraint=None,
    tracer=None,
) -> np.ndarray:
    """Run one constrained V-cycle starting from ``part``.

    Coarsens ``graph`` under ``constraint`` (default: ``part`` itself, the
    plain iterated-multilevel move; the ensemble passes the finer overlap
    clustering of two parents), projects ``part`` onto the coarsest graph,
    then refines back up through the hierarchy exactly like the k-way
    driver.  Returns a **new** part vector; the output never has a worse
    (feasible, cut, imbalance) key than the input -- if the cycle somehow
    regressed, the input is returned unchanged (as a copy).

    ``seed`` defaults to ``options.seed``; pass distinct seeds to obtain
    distinct matchings (and hence distinct refinement opportunities) from
    the same starting partition.
    """
    if options is None:
        options = PartitionOptions()
    tracer = as_tracer(tracer)
    part = _check_part(graph, part, nparts)
    if nparts < 2 or graph.nvtxs <= nparts:
        return part.copy()
    rng = as_rng(options.seed if seed is None else seed)
    ub = as_ubvec(options.ubvec, graph.ncon)
    fracs = as_target_fracs(target_fracs, nparts)
    con = part if constraint is None else _check_part(
        graph, constraint, int(np.max(constraint)) + 1)

    coarsen_to = max(
        options.kway_coarsen_factor * nparts * max(1, graph.ncon - 1),
        options.coarsen_to,
    )
    (coarsen_rng, refine_rng) = spawn(rng, 2)
    in_key = _quality_key(graph, part, nparts, ub, fracs)

    with tracer.span("vcycle", nvtxs=graph.nvtxs, nparts=nparts,
                     cut_before=in_key[1]) as sp:
        hier = coarsen(
            graph,
            coarsen_to=coarsen_to,
            max_levels=options.max_coarsen_levels,
            matching=options.matching,
            min_shrink=options.min_shrink,
            seed=coarsen_rng,
            constraint=con,
        )
        # Restrict the partition level by level: matched vertices share a
        # block (the constraint is a refinement of the partition), so the
        # scatter is well-defined and cut/loads are preserved exactly.
        # kway_refine mutates in place -- copy so the caller's array is safe.
        where = part.copy()
        for lvl in hier.levels:
            ncoarse = int(lvl.cmap.max()) + 1 if lvl.cmap.size else 0
            coarse = np.empty(ncoarse, dtype=np.int64)
            coarse[lvl.cmap] = where
            where = coarse

        kway_refine(
            hier.coarsest, where, nparts, ubvec=ub, target_fracs=fracs,
            npasses=options.kway_refine_passes, seed=refine_rng)
        for idx in range(len(hier.levels) - 1, -1, -1):
            lvl = hier.levels[idx]
            where = where[lvl.cmap]
            kway_refine(
                lvl.graph, where, nparts, ubvec=ub, target_fracs=fracs,
                npasses=options.kway_refine_passes, seed=refine_rng)

        out_key = _quality_key(graph, where, nparts, ub, fracs)
        if out_key > in_key:  # monotonicity guard: never hand back worse
            where = part.copy()
            out_key = in_key
        if tracer.enabled:
            sp.set(levels=hier.nlevels, cut=out_key[1],
                   improved=out_key < in_key)
    return where


def vcycle_improve(
    graph: Graph,
    part,
    nparts: int,
    options: PartitionOptions | None = None,
    *,
    target_fracs=None,
    seed=None,
    tracer=None,
) -> tuple[np.ndarray, VCycleStats]:
    """Iterate :func:`vcycle_once` until the patience budget is exhausted.

    Runs at most ``options.vcycle_max`` cycles, stopping early after
    ``options.vcycle_patience`` consecutive cycles without a strict
    improvement of the (feasible, cut, imbalance) key.  Each cycle draws a
    fresh child seed, so successive cycles explore different hierarchies.
    Returns ``(best_part, VCycleStats)``; ``best_part`` is never worse
    than the input.
    """
    if options is None:
        options = PartitionOptions()
    tracer = as_tracer(tracer)
    part = _check_part(graph, part, nparts)
    rng = as_rng(options.seed if seed is None else seed)
    ub = as_ubvec(options.ubvec, graph.ncon)
    fracs = as_target_fracs(target_fracs, nparts)

    best = part.copy()
    best_key = _quality_key(graph, best, nparts, ub, fracs)
    initial_cut = best_key[1]
    cycles = improved = stale = 0

    with tracer.span("vcycle_improve", nparts=nparts,
                     cut_before=initial_cut) as sp:
        while cycles < options.vcycle_max and stale < options.vcycle_patience:
            (cycle_rng,) = spawn(rng, 1)
            cand = vcycle_once(
                graph, best, nparts, options, target_fracs=target_fracs,
                seed=cycle_rng, tracer=tracer)
            cycles += 1
            cand_key = _quality_key(graph, cand, nparts, ub, fracs)
            if cand_key < best_key:
                best, best_key = cand, cand_key
                improved += 1
                stale = 0
            else:
                stale += 1
        if tracer.enabled:
            sp.set(cycles=cycles, improved=improved, cut=best_key[1])
            tracer.incr("vcycle.cycles", cycles)
            tracer.incr("vcycle.improved", improved)

    return best, VCycleStats(
        cycles=cycles, improved=improved,
        initial_cut=initial_cut, final_cut=best_key[1])
