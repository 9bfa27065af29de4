"""Graph contraction: collapse groups of vertices into coarse vertices.

Given a coarse map ``cmap`` (``cmap[v]`` = coarse vertex id of fine vertex
``v``), the coarse graph has

* vertex-weight vectors equal to the per-group **sum** of fine weight
  vectors (this additivity is what lets the multilevel paradigm preserve all
  ``m`` balance constraints across levels), and
* edge weights equal to the sum of fine edge weights between the two groups
  (edges internal to a group disappear, which is exactly the "exposed edge
  weight" the coarsening phase removes).

The implementation is fully vectorised: it maps all directed edges at once,
drops the ones that became self-loops, and merges parallel edges with one
stable argsort + ``np.add.reduceat`` segment sum (exact int64 arithmetic);
the per-group sums (vertex weights, coarse degrees, coordinate centroids)
are ``np.bincount`` calls.

Validation audit: contraction builds the coarse CSR arrays sorted and
symmetric *by construction* (every directed fine edge is mapped, so both
directions of a coarse edge receive the same merged weight), which is why
the coarse :class:`Graph` is constructed with ``validate=False`` by
default -- re-running the O(E log E) symmetry check per level roughly
doubled coarsening cost.  Pass ``validate=True`` to re-enable the check
(tests do, as a belt-and-braces audit of the construction argument).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError
from .csr import Graph

__all__ = ["contract"]

_INT = np.int64


def contract(graph: Graph, cmap, ncoarse: int | None = None, *, validate: bool = False) -> Graph:
    """Contract ``graph`` according to ``cmap``.

    Parameters
    ----------
    graph:
        Fine graph.
    cmap:
        ``(n,)`` array mapping each fine vertex to a coarse vertex id in
        ``[0, ncoarse)``.  Every coarse id in the range must be used by at
        least one fine vertex.
    ncoarse:
        Number of coarse vertices; inferred as ``cmap.max() + 1`` when
        omitted.
    validate:
        Run :meth:`Graph.validate` on the coarse graph.  Off by default:
        the construction below is symmetric and CSR-sorted by design (see
        module docstring), so the check is redundant on the hot path.

    Returns
    -------
    Graph
        The coarse graph (same ``ncon``).
    """
    cmap = np.ascontiguousarray(cmap, dtype=_INT)
    n = graph.nvtxs
    if cmap.shape != (n,):
        raise GraphError(f"cmap must have shape ({n},); got {cmap.shape}")
    if n == 0:
        return Graph(np.zeros(1, dtype=_INT), np.empty(0, dtype=_INT),
                     np.empty((0, graph.ncon), dtype=_INT), validate=False)
    if ncoarse is None:
        ncoarse = int(cmap.max()) + 1
    if cmap.min() < 0 or cmap.max() >= ncoarse:
        raise GraphError("cmap values out of range")
    used = np.bincount(cmap, minlength=ncoarse)
    if np.any(used == 0):
        raise GraphError("cmap must use every coarse id at least once")

    # Coarse vertex weights: per-column grouped sums.
    cvwgt = np.zeros((ncoarse, graph.ncon), dtype=_INT)
    for c in range(graph.ncon):
        cvwgt[:, c] = np.bincount(cmap, weights=graph.vwgt[:, c], minlength=ncoarse).astype(_INT)

    # Coarse edges: map both endpoints of every directed edge, drop
    # self-loops, merge duplicates.
    src = np.repeat(np.arange(n, dtype=_INT), np.diff(graph.xadj))
    cu = cmap[src]
    cv = cmap[graph.adjncy]
    keep = cu != cv
    cu, cv, w = cu[keep], cv[keep], graph.adjwgt[keep]

    # Merge parallel edges: group by composite key with one stable sort,
    # then segment-sum the weights (exact int64; the previous
    # ``np.unique(return_inverse)`` + float ``np.add.at`` combination was
    # both slower and lossy for very large weights).
    key = cu * _INT(ncoarse) + cv
    if key.shape[0]:
        order = np.argsort(key, kind="stable")
        ks = key[order]
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
        uniq = ks[starts]
        cw = np.add.reduceat(w[order], starts)
    else:
        uniq = np.empty(0, dtype=_INT)
        cw = np.empty(0, dtype=_INT)
    cu = uniq // ncoarse
    cv = uniq % ncoarse

    # uniq is sorted by key = cu * ncoarse + cv, i.e. grouped by cu with cv
    # ascending inside each group -- exactly CSR order.
    cxadj = np.zeros(ncoarse + 1, dtype=_INT)
    np.cumsum(np.bincount(cu, minlength=ncoarse), out=cxadj[1:])

    coarse = Graph(cxadj, cv, cvwgt, cw, validate=validate)
    if graph.coords is not None:
        # Coarse coordinates: unweighted centroid of each group (cosmetic,
        # used only for visual tooling).
        # ``bincount`` adds up each group in fine-vertex order.
        csum = np.zeros((ncoarse, graph.coords.shape[1]))
        for c in range(csum.shape[1]):
            csum[:, c] = np.bincount(cmap, weights=graph.coords[:, c], minlength=ncoarse)
        coarse.coords = csum / used[:, None]
    return coarse
