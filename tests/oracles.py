"""Per-vertex reference implementations that the bulk kernels are pinned
against.

They are the original, obviously-sequential versions of the shipped
kernels, kept only as test oracles: slow, simple, and bit-identical in
their results to the optimized code they check.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_rng
from repro.coarsen.matching import _resolve_relw
from repro.graph.csr import Graph

_INT = np.int64


def _balance_score(combined: np.ndarray) -> float:
    """Balanced-edge objective for a combined (relative) weight vector:
    spread between the largest and smallest scaled component.  0 means the
    collapsed vertex is perfectly uniform; for ``m == 1`` it is always 0,
    so HEM degenerates to classic heavy-edge matching."""
    m = combined.shape[0]
    if m == 1:
        return 0.0
    s = combined.sum()
    if s <= 0:
        return 0.0
    scaled = combined * (m / s)
    return float(scaled.max() - scaled.min())


def _best_candidate(wv, cand, ws, relw, heavy_first: bool) -> int:
    """Pick the best matching partner among candidate neighbours.

    ``heavy_first`` selects the priority order: edge weight then balance
    score (HEM), or balance score then edge weight (BEM).  Returns the
    chosen vertex id, or -1 when there is no candidate.
    """
    best = -1
    best_w = -1
    best_b = np.inf
    for u, w in zip(cand.tolist(), ws.tolist()):
        b = _balance_score(wv + relw[u])
        if heavy_first:
            better = w > best_w or (w == best_w and b < best_b)
        else:
            better = b < best_b - 1e-12 or (abs(b - best_b) <= 1e-12 and w > best_w)
        if better:
            best, best_w, best_b = u, w, b
    return best


def _reference_greedy_matching(graph: Graph, seed, relw, primary: str,
                               constraint=None) -> np.ndarray:
    """Sequential greedy HEM (``primary="heavy"``) or BEM
    (``primary="balanced"``): visit the vertices in one seeded permutation
    and match each free vertex with its best free neighbour.
    ``constraint`` (per-vertex labels) restricts candidates to same-label
    neighbours."""
    rng = as_rng(seed)
    n = graph.nvtxs
    relw = _resolve_relw(graph, relw)
    con = None if constraint is None else np.asarray(constraint)

    match = np.arange(n, dtype=_INT)
    xadj, adjncy, adjwgt = graph.xadj, graph.adjncy, graph.adjwgt
    heavy_first = primary == "heavy"

    for v in rng.permutation(n):
        if match[v] != v:
            continue
        beg, end = xadj[v], xadj[v + 1]
        nbrs = adjncy[beg:end]
        free_mask = match[nbrs] == nbrs
        if con is not None:
            free_mask &= con[nbrs] == con[v]
        if not free_mask.any():
            continue
        cand = nbrs[free_mask]
        ws = adjwgt[beg:end][free_mask]
        best = _best_candidate(relw[v], cand, ws, relw, heavy_first)
        if best >= 0:
            match[v] = best
            match[best] = v
    return match


def _reference_random_matching(graph: Graph, seed=None) -> np.ndarray:
    """Per-vertex random matching (oracle for
    :func:`repro.coarsen.matching.random_matching`)."""
    rng = as_rng(seed)
    n = graph.nvtxs
    match = np.arange(n, dtype=_INT)
    xadj, adjncy = graph.xadj, graph.adjncy
    for v in rng.permutation(n):
        if match[v] != v:
            continue
        nbrs = adjncy[xadj[v] : xadj[v + 1]]
        free = nbrs[match[nbrs] == nbrs]
        if free.size:
            u = int(free[rng.integers(free.size)])
            match[v] = u
            match[u] = v
    return match
