"""Diagnostics for studying multilevel behaviour.

These tools expose the quantities the paper's analysis reasons about:
coarsening rate, exposed edge weight per level (what heavy-edge matching
removes), matching efficiency, and the per-part anatomy of a partition.
They feed the ablation benches and the analysis example.

:func:`coarsening_profile` walks a
:class:`~repro.coarsen.coarsener.Hierarchy` built offline.  The per-level
rows of a live run come from its trace instead: ``obs.FlightRecorder`` ->
:class:`~repro.obs.MultilevelProfile` -> :func:`~repro.obs.render_profile`
(``repro-part --profile``).
"""

from __future__ import annotations

import numpy as np

from ..coarsen.coarsener import Hierarchy
from ..errors import PartitionError
from ..graph.csr import Graph
from ..metrics.quality import boundary_vertices, subdomain_matrix
from ..weights.balance import part_weights

__all__ = [
    "coarsening_profile",
    "matching_efficiency",
    "partition_anatomy",
    "profile_text",
]


def coarsening_profile(hier: Hierarchy) -> list[dict]:
    """Per-level statistics of a coarsening hierarchy.

    For each level (finest first, including the coarsest) reports the
    vertex/edge counts, average degree, total (exposed) edge weight, and
    the shrink factor from the previous level -- the quantities behind the
    paper's 'slow coarsening' and exposed-edge-weight discussion.
    """
    graphs = [lvl.graph for lvl in hier.levels]
    if hier.coarsest is not None:
        graphs.append(hier.coarsest)
    out = []
    prev_n = None
    for depth, g in enumerate(graphs):
        n = g.nvtxs
        out.append({
            "level": depth,
            "nvtxs": n,
            "nedges": g.nedges,
            "avg_degree": (2 * g.nedges / n) if n else 0.0,
            "exposed_edge_weight": g.total_adjwgt(),
            "shrink": (n / prev_n) if prev_n else 1.0,
            "max_vwgt": int(g.vwgt.max(initial=0)),
        })
        prev_n = n
    return out


def matching_efficiency(match: np.ndarray) -> float:
    """Fraction of vertices that found a partner (1.0 = perfect matching).

    The coarse-grain parallel matching is systematically below the serial
    one here -- the mechanism behind the slow-coarsening effect.
    """
    match = np.asarray(match)
    if match.size == 0:
        return 0.0
    return float(np.count_nonzero(match != np.arange(match.shape[0])) / match.shape[0])


def partition_anatomy(graph: Graph, part, nparts: int) -> list[dict]:
    """Per-part breakdown: vertex count, weight vector, boundary size,
    internal edge weight, external (cut) edge weight, and subdomain degree.
    """
    part = np.asarray(part)
    if part.shape != (graph.nvtxs,):
        raise PartitionError("part vector must cover all vertices")
    pw = part_weights(graph.vwgt, part, nparts)
    counts = np.bincount(part, minlength=nparts)
    mat = subdomain_matrix(graph, part, nparts)
    bnd = boundary_vertices(graph, part)
    bnd_per_part = np.bincount(part[bnd], minlength=nparts)
    off = mat.copy()
    np.fill_diagonal(off, 0)
    return [
        {
            "part": j,
            "nvtxs": int(counts[j]),
            "weights": pw[j].tolist(),
            "boundary": int(bnd_per_part[j]),
            "internal_edge_weight": int(mat[j, j]),
            "external_edge_weight": int(off[j].sum()),
            "subdomain_degree": int((off[j] > 0).sum()),
        }
        for j in range(nparts)
    ]


def profile_text(profile: list[dict]) -> str:
    """Render a coarsening profile as a compact table string."""
    from ..metrics.report import format_table

    rows = [
        [p["level"], p["nvtxs"], p["nedges"], f"{p['avg_degree']:.2f}",
         p["exposed_edge_weight"], f"{p['shrink']:.2f}", p["max_vwgt"]]
        for p in profile
    ]
    return format_table(
        ["level", "vertices", "edges", "avg deg", "exposed w", "shrink", "max vwgt"],
        rows,
        title="coarsening profile",
    )
