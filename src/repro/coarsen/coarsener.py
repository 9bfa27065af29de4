"""The coarsening phase of the multilevel paradigm.

Repeatedly match and contract until the graph is small enough for initial
partitioning.  The produced :class:`Hierarchy` records every level and its
coarse map so the uncoarsening phase can project partitions back up.

Stopping rules (all standard for multilevel partitioners):

* the coarse graph has at most ``coarsen_to`` vertices, or
* a level shrinks by less than ``min_shrink`` (default :data:`MIN_SHRINK`;
  matching has stalled, e.g. on star-like graphs where few independent
  pairs exist), or
* ``max_levels`` levels (default :data:`MAX_LEVELS`) were produced.

Every driver (k-way, recursive bisection, V-cycles, the parallel driver)
coarsens under these two defaults.

Performance
-----------
Each level is two bulk kernels: a matcher that reads precomputed per-edge
scores (see ``coarsen.matching``; the balanced-edge tie-break of both
non-random matchers comes from one vectorised
:func:`~repro.coarsen.matching._edge_balance_scores` sweep) and a fully
vectorised :func:`~repro.graph.contract.contract`.  Contraction
builds coarse graphs that are valid by construction, so re-validation is
skipped on this hot path (``docs/performance.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import as_rng, spawn
from ..errors import GraphError
from ..graph.contract import contract
from ..graph.csr import Graph
from ..trace import as_tracer
from .matching import MATCHERS, matching_to_cmap, two_hop_matching

__all__ = ["Level", "Hierarchy", "coarsen", "MAX_LEVELS", "MIN_SHRINK"]

#: Upper bound on coarsening steps.
MAX_LEVELS = 60
#: A level that keeps more than this fraction of its vertices has stalled.
MIN_SHRINK = 0.95


@dataclass
class Level:
    """One coarsening step: ``graph`` is the fine graph of the step and
    ``cmap`` maps its vertices onto the next-coarser graph's vertices."""

    graph: Graph
    cmap: np.ndarray


@dataclass
class Hierarchy:
    """A full coarsening hierarchy.

    ``levels[0].graph`` is the input graph; ``coarsest`` is the final coarse
    graph.  ``project(part)`` lifts a coarse partition one level at a time;
    see :meth:`project_to_finest`.
    """

    levels: list[Level] = field(default_factory=list)
    coarsest: Graph | None = None

    @property
    def nlevels(self) -> int:
        """Number of coarsening steps performed."""
        return len(self.levels)

    def sizes(self) -> list[int]:
        """Vertex count per level, finest first (including the coarsest)."""
        out = [lvl.graph.nvtxs for lvl in self.levels]
        if self.coarsest is not None:
            out.append(self.coarsest.nvtxs)
        return out

    def project_to_finest(self, coarse_part: np.ndarray) -> np.ndarray:
        """Project a partition of the coarsest graph to the finest graph by
        composing the coarse maps (no refinement)."""
        part = np.asarray(coarse_part)
        for lvl in reversed(self.levels):
            part = part[lvl.cmap]
        return part


def coarsen(
    graph: Graph,
    *,
    coarsen_to: int = 100,
    max_levels: int = MAX_LEVELS,
    matching: str = "hem",
    min_shrink: float = MIN_SHRINK,
    two_hop: bool = True,
    seed=None,
    tracer=None,
    constraint=None,
) -> Hierarchy:
    """Build a coarsening hierarchy for ``graph``.

    Parameters
    ----------
    graph:
        Input (finest) graph.
    coarsen_to:
        Target size of the coarsest graph.
    max_levels:
        Upper bound on coarsening steps.
    matching:
        One of ``"rm"``, ``"hem"`` (heavy-edge with balanced-edge
        tie-break -- the paper's default) or ``"bem"``.
    min_shrink:
        Stop when ``ncoarse > min_shrink * nfine`` (coarsening stalled).
    two_hop:
        When ordinary matching stalls, pair leftover vertices that share a
        common neighbour before giving up (keeps star-like graphs
        coarsening).  Default on.
    seed:
        RNG seed / generator.
    tracer:
        Optional :class:`repro.trace.Tracer`; each match+contract step is
        recorded as a ``coarsen_level`` span (fine/coarse sizes, exposed
        edge weight, shrink factor).
    constraint:
        Optional per-vertex integer labels restricting matching: only
        same-label vertices may be merged, so any partition that is constant
        on each label class projects exactly onto every coarse level.  This
        is the iterated-multilevel (V-cycle) hook -- pass the current
        partition (or any refinement of it) to coarsen *within* its blocks.
        The labels are propagated to each coarse level through the coarse
        map.  ``None`` (the default) leaves matching unrestricted and is
        bit-identical to the pre-constraint behaviour.
    """
    if matching not in MATCHERS:
        raise GraphError(f"unknown matching scheme {matching!r}; pick from {sorted(MATCHERS)}")
    if coarsen_to < 1:
        raise GraphError("coarsen_to must be >= 1")
    matcher = MATCHERS[matching]
    tracer = as_tracer(tracer)
    rng = as_rng(seed)

    con = None
    if constraint is not None:
        con = np.asarray(constraint)
        if con.shape != (graph.nvtxs,):
            raise GraphError(
                f"coarsening constraint must have shape ({graph.nvtxs},); "
                f"got {con.shape}")

    # Relative weights are with respect to the *finest* totals, which are
    # invariant under contraction, so one totals vector serves every level.
    tvwgt = graph.total_vwgt().astype(np.float64)
    tvwgt[tvwgt == 0] = 1.0

    hier = Hierarchy()
    cur = graph
    while cur.nvtxs > coarsen_to and hier.nlevels < max_levels:
        stalled = False
        nxt = None
        with tracer.span("coarsen_level", nvtxs=cur.nvtxs) as sp:
            (child_rng,) = spawn(rng, 1)
            if matching == "rm":
                match = matcher(cur, child_rng, constraint=con)
            else:
                match = matcher(cur, child_rng, relw=cur.vwgt / tvwgt,
                                constraint=con)
            cmap, ncoarse = matching_to_cmap(match)
            if ncoarse > min_shrink * cur.nvtxs and two_hop:
                (hop_rng,) = spawn(rng, 1)
                match = two_hop_matching(cur, match, seed=hop_rng,
                                         constraint=con)
                cmap, ncoarse = matching_to_cmap(match)
            if ncoarse > min_shrink * cur.nvtxs:
                sp.set(stalled=True)
                stalled = True
            else:
                hier.levels.append(Level(graph=cur, cmap=cmap))
                nxt = contract(cur, cmap, ncoarse)
                if tracer.enabled:
                    sp.set(nedges=cur.nedges, coarse_nvtxs=nxt.nvtxs,
                           shrink=ncoarse / cur.nvtxs)
        if stalled:
            break
        if con is not None:
            # Matched vertices share a label, so scattering through the
            # coarse map is well-defined (later writes repeat earlier ones).
            coarse_con = np.empty(nxt.nvtxs, dtype=con.dtype)
            coarse_con[cmap] = con
            con = coarse_con
        if tracer.enabled:
            # Structured per-level record (see docs/observability.md).  The
            # matching rate is the fraction of fine vertices absorbed into
            # pairs: 2 * (n - ncoarse) / n.
            tracer.event(
                "level",
                phase="coarsen",
                direction="coarsening",
                level=hier.nlevels - 1,
                nvtxs=cur.nvtxs,
                nedges=cur.nedges,
                coarse_nvtxs=nxt.nvtxs,
                coarse_nedges=nxt.nedges,
                matching_rate=2.0 * (cur.nvtxs - nxt.nvtxs) / max(cur.nvtxs, 1),
                shrink=nxt.nvtxs / cur.nvtxs,
                max_vwgt=int(cur.vwgt.max(initial=0)),
                seconds=sp.seconds,
            )
        cur = nxt
    hier.coarsest = cur
    return hier
