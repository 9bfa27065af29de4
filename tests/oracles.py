"""Per-vertex reference implementations that the bulk kernels are pinned
against.

They are the original, obviously-sequential versions of the shipped
kernels, kept only as test oracles: slow, simple, and bit-identical in
their results to the optimized code they check.
"""

from __future__ import annotations

import numpy as np

from repro._rng import as_rng, spawn
from repro.coarsen.matching import _resolve_relw
from repro.errors import PartitionError, WeightError
from repro.graph.csr import Graph
from repro.initpart.bisect import FOCUS_METHODS, INITIAL_METHODS
from repro.initpart.theory import (
    _check_relw,
    _projection_stack,
    alternating_bisection,
    best_projection_bisection,
    bisection_excess,
    greedy_bisection,
    prefix_bisection,
)
from repro.refine.fm2way import fm2way_refine
from repro.refine.pq import LazyMaxPQ

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


# --------------------------------------------------------------------- #
# Initial bisection
# --------------------------------------------------------------------- #

def _reference_greedy_bisection(relw: np.ndarray, target: float = 0.5, seed=None) -> np.ndarray:
    """Per-row NumPy oracle for
    :func:`repro.initpart.theory.greedy_bisection`."""
    relw = _check_relw(relw)
    if not (0.0 < target < 1.0):
        raise WeightError("target must be in (0, 1)")
    n, m = relw.shape
    rng = as_rng(seed)
    order = np.lexsort((rng.random(n), -relw.max(axis=1)))
    tot = relw.sum(axis=0)
    tgt = np.stack([target * tot, (1.0 - target) * tot])
    scale = np.where(tgt > 0, tgt, 1.0)
    load = np.zeros((2, m))
    where = np.zeros(n, dtype=_INT)
    for v in order.tolist():
        w = relw[v]
        over0 = ((load[0] + w - tgt[0]) / scale[0]).max()
        over1 = ((load[1] + w - tgt[1]) / scale[1]).max()
        side = 0 if over0 <= over1 else 1
        load[side] += w
        where[v] = side
    return where


def _reference_best_projection_bisection(
    relw: np.ndarray, ntries: int = 8, target: float = 0.5, seed=None
) -> np.ndarray:
    """Per-projection oracle for
    :func:`repro.initpart.theory.best_projection_bisection`."""
    relw = _check_relw(relw)
    rng = as_rng(seed)
    projections = list(_projection_stack(relw, ntries, rng))
    best_where = None
    best_exc = np.inf
    for proj in projections:
        for where in (
            prefix_bisection(relw, proj, target),
            alternating_bisection(relw, proj, target),
        ):
            exc = bisection_excess(relw, where, target)
            if exc < best_exc:
                best_exc = exc
                best_where = where
    return best_where


def _relative_weights(graph: Graph) -> np.ndarray:
    t = graph.vwgt.sum(axis=0).astype(np.float64)
    t[t == 0] = 1.0
    return graph.vwgt / t


def _reference_grow_bisection(graph: Graph, target: float = 0.5, seed=None) -> np.ndarray:
    """Per-vertex NumPy oracle for
    :func:`repro.initpart.bisect.grow_bisection`."""
    rng = as_rng(seed)
    n = graph.nvtxs
    if n == 0:
        return np.zeros(0, dtype=_INT)
    relw = _relative_weights(graph)

    where = np.ones(n, dtype=_INT)
    start = int(rng.integers(n))
    load = np.zeros(graph.ncon)
    visited = np.zeros(n, dtype=bool)
    frontier = [start]
    visited[start] = True
    while frontier and load.max(initial=0.0) < target:
        nxt = []
        for v in frontier:
            if load.max(initial=0.0) >= target:
                break
            where[v] = 0
            load += relw[v]
            for u in graph.neighbors(v).tolist():
                if not visited[u]:
                    visited[u] = True
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            rest = np.flatnonzero(~visited)
            if rest.size and load.max(initial=0.0) < target:
                s = int(rest[rng.integers(rest.size)])
                visited[s] = True
                frontier = [s]
    return where


def _reference_gggp_bisection(graph: Graph, target: float = 0.5, seed=None) -> np.ndarray:
    """Per-vertex NumPy oracle for
    :func:`repro.initpart.bisect.gggp_bisection`."""
    rng = as_rng(seed)
    n = graph.nvtxs
    if n == 0:
        return np.zeros(0, dtype=_INT)
    relw = _relative_weights(graph)

    where = np.ones(n, dtype=_INT)
    in_zero = np.zeros(n, dtype=bool)
    load = np.zeros(graph.ncon)
    wto0 = np.zeros(n, dtype=_INT)
    wdeg = np.zeros(n, dtype=_INT)
    src = np.repeat(np.arange(n, dtype=_INT), np.diff(graph.xadj))
    np.add.at(wdeg, src, graph.adjwgt)

    q = LazyMaxPQ()

    def absorb(v: int):
        nonlocal load
        where[v] = 0
        in_zero[v] = True
        load += relw[v]
        q.remove(v)
        for u, w in zip(graph.neighbors(v).tolist(), graph.edge_weights(v).tolist()):
            if in_zero[u]:
                continue
            wto0[u] += w
            q.insert(u, 2 * wto0[u] - wdeg[u])

    absorb(int(rng.integers(n)))
    while load.max(initial=0.0) < target:
        top = q.pop()
        if top is None:
            rest = np.flatnonzero(~in_zero)
            if rest.size == 0:
                break
            absorb(int(rest[rng.integers(rest.size)]))
            continue
        absorb(int(top[0]))
    return where


def _reference_initial_bisection(
    graph: Graph,
    *,
    target_fracs=(0.5, 0.5),
    ubvec=1.05,
    ntries: int = 4,
    refine_passes: int = 6,
    seed=None,
    methods=INITIAL_METHODS,
) -> np.ndarray:
    """Per-candidate multi-start loop: oracle for
    :func:`repro.initpart.bisect.initial_bisection` at ``patience=0``.

    Round 0 runs every method, later rounds only ``FOCUS_METHODS``; every
    candidate is generated and FM-refined, duplicates included."""
    if graph.nvtxs == 0:
        return np.zeros(0, dtype=_INT)
    unknown = set(methods) - set(INITIAL_METHODS)
    if unknown:
        raise PartitionError(f"unknown initial bisection methods: {sorted(unknown)}")
    rng = as_rng(seed)
    fr = np.asarray(target_fracs, dtype=np.float64)
    fr = fr / fr.sum()
    target = float(fr[0])
    relw = _relative_weights(graph)
    methods = tuple(methods)
    focus = tuple(m for m in FOCUS_METHODS if m in methods) or methods

    best_where = None
    best_key = None
    for rnd in range(max(1, ntries)):
        for method in (methods if rnd == 0 else focus):
            (child,) = spawn(rng, 1)
            if method == "greedy":
                where = greedy_bisection(relw, target, seed=child)
            elif method == "prefix":
                where = best_projection_bisection(relw, target=target, seed=child)
            elif method == "region":
                where = _reference_grow_bisection(graph, target, seed=child)
            elif method == "gggp":
                where = _reference_gggp_bisection(graph, target, seed=child)
            else:  # random
                where = (child.random(graph.nvtxs) > target).astype(_INT)
            if graph.nvtxs >= 2 and (where.min() == where.max()):
                where[int(child.integers(graph.nvtxs))] ^= 1

            st = fm2way_refine(
                graph, where,
                target_fracs=(target, 1.0 - target),
                ubvec=ubvec,
                npasses=refine_passes,
                seed=child,
            )
            key = (not st.feasible, st.final_cut, st.balance)
            if best_key is None or key < best_key:
                best_key = key
                best_where = where.copy()
    return best_where


# --------------------------------------------------------------------- #
# Refinement state
# --------------------------------------------------------------------- #

def _reference_build_queues(state, *, boundary_only: bool = True, locked=None):
    """Per-vertex oracle for
    :meth:`repro.refine.fm2way.TwoWayState.build_queues`."""
    m = state._m
    queues = [[LazyMaxPQ() for _ in range(m)] for _ in range(2)]
    if boundary_only:
        verts = np.flatnonzero(np.asarray(state._ed) > 0)
    else:
        verts = np.arange(state.graph.nvtxs)
    for v in verts.tolist():
        if locked is not None and locked[v]:
            continue
        queues[state._wh[v]][state._doml[v]].insert(v, state.gain(v))
    return queues


def _reference_boundary(state) -> np.ndarray:
    """O(E) boundary recomputation: oracle for
    :meth:`repro.refine.kwayref.KWayState.boundary`."""
    g = state.graph
    src = np.repeat(np.arange(g.nvtxs, dtype=_INT), np.diff(g.xadj))
    crossing = state.where[src] != state.where[g.adjncy]
    return np.unique(src[crossing])
