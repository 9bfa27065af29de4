"""Matching algorithms for the coarsening phase.

The paper extends heavy-edge matching (HEM) with a *balanced-edge* criterion:
when collapsing two vertices, prefer pairs whose **combined** weight vector is
as uniform as possible across the ``m`` constraints.  Keeping coarse vertex
weight vectors uniform preserves freedom for the initial-partitioning and
refinement phases (a coarse vertex that is heavy in only one constraint is
hard to place).

Three schemes are provided (ablated by benchmark A1):

* :func:`random_matching` -- match with a random unmatched neighbour;
* :func:`heavy_edge_matching` -- maximise collapsed edge weight, with the
  balanced-edge score as tie-break (the paper's preferred combination);
* :func:`balanced_edge_matching` -- minimise the balanced-edge score, with
  edge weight as tie-break.

:func:`two_hop_matching` augments any of them when matching stalls.

All return a ``match`` array with ``match[v] == u`` and ``match[u] == v``
for matched pairs, and ``match[v] == v`` for unmatched vertices.

Constrained (partition-respecting) matching
-------------------------------------------
Every matcher accepts an optional ``constraint`` array (one integer label
per vertex): vertices with *different* labels are never matched together.
Passing the current partition as the constraint is the iterated-multilevel
("V-cycle") device of KaFFPa-style partitioners -- the contracted hierarchy
then reproduces the partition exactly at every level, so refinement can
only improve it (see :mod:`repro.partition.vcycle`).  ``constraint=None``
(the default) takes the exact unconstrained code paths, bit-identical to
before the parameter existed.

Performance
-----------
HEM and BEM share one bulk kernel, :func:`_greedy_matching`, that returns
exactly the matching of the sequential greedy scan (visit the vertices in
one seeded random order; each free vertex takes its best free neighbour)
without a per-vertex Python loop.  It works in rounds of a few O(live
edges) NumPy passes, using the deterministic-reservation argument of
Blelloch, Fineman and Shun (SPAA 2012): a vertex commits its best
candidate as soon as no earlier, still-unresolved vertex can change what
it will see on its turn.  The balanced-edge scores of every directed edge
come from one NumPy sweep (:func:`_edge_balance_scores`).  On a
200k-vertex Type-1 m=3 mesh (2-core x86 box, median of 5) the level-0 HEM
call fell from 1.44 s (the sequential scan over Python lists) to 0.54 s,
and the 23 HEM calls of one k=16 ``part_graph`` from 2.73 s to 1.08 s;
levels take 16-19 rounds.  The per-vertex oracles live in
``tests/oracles.py``; ``tests/test_perf_kernels.py`` pins exact matching
parity against them.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_rng
from ..errors import GraphError
from ..graph.csr import Graph

__all__ = [
    "random_matching",
    "heavy_edge_matching",
    "balanced_edge_matching",
    "matching_to_cmap",
    "is_matching",
    "MATCHERS",
]

_INT = np.int64


#: BEM's score tolerance: scores closer than this count as equal.
_TIE_TOL = 1e-12


def _edge_balance_scores(graph: Graph, relw: np.ndarray) -> np.ndarray:
    """Balanced-edge score of every directed edge, in CSR edge order.

    The score of edge ``(v, u)`` is the spread between the largest and
    smallest component of ``relw[v] + relw[u]`` scaled to sum to ``m``: 0
    means the collapsed vertex is perfectly uniform, and for ``m == 1`` it
    is always 0, so HEM degenerates to classic heavy-edge matching.

    Bitwise identical to the scalar ``_balance_score`` oracle in
    ``tests/oracles.py``: NumPy sums each row as it sums a lone vector
    (left to right below 8 components, pairwise from 8), and the
    column-wise ``maximum``/``minimum`` are exact."""
    e = graph.adjncy.shape[0]
    m = relw.shape[1]
    if e == 0 or m == 1:
        return np.zeros(e, dtype=np.float64)
    src = np.repeat(np.arange(graph.nvtxs, dtype=_INT), np.diff(graph.xadj))
    relw = np.asarray(relw, dtype=np.float64)
    combined = np.take(relw, src, axis=0)
    combined += np.take(relw, graph.adjncy, axis=0)
    s = combined.sum(axis=1)
    # Rows with s <= 0 scale to all zeros, hence score 0.
    combined *= np.divide(m, s, out=np.zeros(e), where=s > 0)[:, None]
    hi = combined[:, 0].copy()
    lo = hi.copy()
    for c in range(1, m):
        np.maximum(hi, combined[:, c], out=hi)
        np.minimum(lo, combined[:, c], out=lo)
    hi -= lo
    return hi


def _as_constraint(graph: Graph, constraint) -> np.ndarray | None:
    """Validate a per-vertex matching-constraint array."""
    if constraint is None:
        return None
    con = np.asarray(constraint)
    if con.shape != (graph.nvtxs,):
        raise GraphError(
            f"matching constraint must have shape ({graph.nvtxs},); "
            f"got {con.shape}")
    return con


def random_matching(graph: Graph, seed=None, *, constraint=None) -> np.ndarray:
    """Match each vertex (in random order) with a random unmatched
    neighbour.

    Single shuffled pass over plain lists; the free-neighbour scan reuses
    one preallocated buffer instead of building a filtered numpy array per
    vertex.  Seeded results are identical to the per-vertex oracle
    ``_reference_random_matching`` in ``tests/oracles.py``.
    ``constraint`` restricts matches to same-label pairs (constrained
    results share the RNG stream shape of the unconstrained ones only when
    no candidate is filtered)."""
    rng = as_rng(seed)
    n = graph.nvtxs
    con = _as_constraint(graph, constraint)
    con = None if con is None else con.tolist()
    matchl = list(range(n))
    xadj = graph.xadj.tolist()
    adj = graph.adjncy.tolist()
    free_buf = [0] * (int(np.diff(graph.xadj).max()) if n and graph.adjncy.size else 1)
    for v in rng.permutation(n).tolist():
        if matchl[v] != v:
            continue
        k = 0
        for i in range(xadj[v], xadj[v + 1]):
            u = adj[i]
            if matchl[u] == u and (con is None or con[u] == con[v]):
                free_buf[k] = u
                k += 1
        if k:
            u = free_buf[int(rng.integers(k))]
            matchl[v] = u
            matchl[u] = v
    return np.asarray(matchl, dtype=_INT)


def heavy_edge_matching(graph: Graph, seed=None, *, relw: np.ndarray | None = None,
                        constraint=None) -> np.ndarray:
    """Heavy-edge matching with balanced-edge tie-breaking.

    Parameters
    ----------
    graph:
        Graph to match.
    relw:
        Optional ``(n, m)`` *relative* vertex weights used by the
        balanced-edge tie-break.  When ``None`` the graph's own weights are
        normalised by their per-constraint totals.
    constraint:
        Optional ``(n,)`` integer labels; only same-label vertices are
        matched (partition-respecting matching for iterated V-cycles).
    """
    return _greedy_matching(graph, seed, relw, heavy_first=True,
                            constraint=constraint)


def balanced_edge_matching(graph: Graph, seed=None, *, relw: np.ndarray | None = None,
                           constraint=None) -> np.ndarray:
    """Balanced-edge matching with heavy-edge tie-breaking (the dual
    priority order of :func:`heavy_edge_matching`)."""
    return _greedy_matching(graph, seed, relw, heavy_first=False,
                            constraint=constraint)


def _resolve_relw(graph: Graph, relw) -> np.ndarray:
    if relw is None:
        t = graph.vwgt.sum(axis=0, dtype=np.float64)
        t[t == 0] = 1.0
        return graph.vwgt / t
    if relw.shape != graph.vwgt.shape:
        raise GraphError("relw must align with graph.vwgt")
    return relw


def _greedy_matching(graph: Graph, seed, relw, heavy_first: bool,
                     constraint=None) -> np.ndarray:
    """Greedy HEM/BEM matching in bulk rounds, equal to the sequential scan.

    The sequential scan visits the vertices in one seeded permutation and
    gives each still-free vertex ``v`` the first neighbour, in CSR order,
    that is best by (max edge weight, then min balanced-edge score) for HEM
    or (min score within 1e-12, then max weight) for BEM.  ``constraint``
    (per-vertex labels) restricts candidates to same-label neighbours.

    Here an edge is *live* while both ends are free (and share a label).
    Each round, every vertex ``v`` with live edges takes its best live
    neighbour ``u`` and commits ``(v, u)`` if it comes first in the visit
    order among ``v``, ``u`` and all their live neighbours; then every edge
    touching a matched vertex dies.  This is exact (Blelloch, Fineman and
    Shun, SPAA 2012): matched status only grows, so only an earlier,
    still-unresolved vertex next to ``v`` or ``u`` could change ``v``'s
    pick before its turn, and two committed pairs never share a vertex.
    The first vertex in visit order commits every round, so the loop ends;
    a vertex left without live edges stays unmatched.

    BEM's tolerance scan is not a lexicographic order when two distinct
    scores of one row lie within 1e-12.  Such rows (found once, by sorting
    each row's scores) pick with the scalar scan instead, and wait until no
    earlier vertex can take *any* of their live neighbours first."""
    rng = as_rng(seed)
    n = graph.nvtxs
    relw = _resolve_relw(graph, relw)
    con = _as_constraint(graph, constraint)
    match = np.arange(n, dtype=_INT)
    pos = np.empty(n, dtype=_INT)  # pos[v]: v's turn in the visit order
    pos[rng.permutation(n)] = match
    score = _edge_balance_scores(graph, relw) if relw.shape[1] > 1 else None
    adjwgt = graph.adjwgt

    src = np.repeat(match, np.diff(graph.xadj))
    dst = graph.adjncy
    live = src != dst
    if con is not None:
        live &= con[src] == con[dst]
    eid = np.flatnonzero(live)  # CSR index of every live edge
    src, dst = src[eid], dst[eid]
    near = None
    if not heavy_first and score is not None:
        near = _near_tie_rows(src, score[eid], n)

    mn = pos.copy()
    dead = np.zeros(n, dtype=bool)
    while src.size:
        head = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        lens = np.diff(np.r_[head, src.size])
        verts = src[head]
        pv = pos[verts]
        # mn[x]: first visit position among x and its live neighbours.
        mnv = np.minimum(pv, np.minimum.reduceat(pos[dst], head))
        mn[verts] = mnv
        ready = mnv == pv
        if near is not None:
            ready &= ~near[verts] | (np.minimum.reduceat(mn[dst], head) == pv)
        sel = np.repeat(ready, lens)
        reid = eid[sel]
        rlens = lens[ready]
        rhead = np.r_[0, np.cumsum(rlens[:-1])]
        first = _first_best(adjwgt[reid], None if score is None else score[reid],
                            rhead, heavy_first)
        v = verts[ready]
        u = graph.adjncy[reid[first]]
        if near is not None:
            for i in np.flatnonzero(near[v]).tolist():
                row = reid[rhead[i]:rhead[i] + rlens[i]]
                u[i] = _tolerance_pick(graph.adjncy[row].tolist(),
                                       adjwgt[row].tolist(), score[row].tolist())
        ok = mn[u] == pos[v]
        v, u = v[ok], u[ok]
        match[v] = u
        match[u] = v
        dead[v] = True
        dead[u] = True
        keep = ~(np.repeat(dead[verts], lens) | dead[dst])
        src, dst, eid = src[keep], dst[keep], eid[keep]
    return match


def _first_best(w, b, head, heavy_first: bool) -> np.ndarray:
    """Index of each segment's first edge that is best by (max ``w``, then
    min ``b``), or by (min ``b``, then max ``w``) when not ``heavy_first``.
    ``b=None`` means all scores are equal.  ``head`` holds the segment
    starts; no segment is empty."""
    lens = np.diff(np.r_[head, w.shape[0]])
    keys = [(w, np.maximum, -1), (b, np.minimum, np.inf)]
    if not heavy_first:
        keys.reverse()
    tie = None
    for key, best, pad in keys:
        if key is None:
            continue
        if tie is not None:
            key = np.where(tie, key, pad)
        tie = key == np.repeat(best.reduceat(key, head), lens)
    idx = np.where(tie, np.arange(w.shape[0]), w.shape[0])
    return np.minimum.reduceat(idx, head)


def _near_tie_rows(src, b, n: int) -> np.ndarray | None:
    """Mark the vertices whose row holds two distinct scores that BEM's
    tolerance comparisons do not order exactly (``None`` if there are none).

    Checking the neighbours in each row's sorted score list suffices:
    rounding is monotone, so a pair further apart is ordered too."""
    order = np.lexsort((b, src))
    s, bs = src[order], b[order]
    lo, hi = bs[:-1], bs[1:]
    exact = (lo < hi - _TIE_TOL) & (np.abs(hi - lo) > _TIE_TOL)
    bad = (s[1:] == s[:-1]) & (lo != hi) & ~exact
    if not bad.any():
        return None
    near = np.zeros(n, dtype=bool)
    near[s[1:][bad]] = True
    return near


def _tolerance_pick(nbrs, ws, bs) -> int:
    """BEM's sequential pick over one row's live edges, in CSR order."""
    best, best_w, best_b = -1, -1, float("inf")
    for u, w, b in zip(nbrs, ws, bs):
        if b < best_b - _TIE_TOL or (abs(b - best_b) <= _TIE_TOL and w > best_w):
            best, best_w, best_b = u, w, b
    return best


def two_hop_matching(graph: Graph, match: np.ndarray, seed=None, *,
                     max_pair_degree: int | None = None,
                     constraint=None) -> np.ndarray:
    """Augment ``match`` by pairing leftover vertices that share a common
    neighbour (two-hop pairs).

    Star-like regions stall ordinary matching: all leaves stay unmatched
    because their only neighbour (the hub) is taken.  Pairing leaves of the
    same hub keeps coarsening moving (METIS 5 uses the same device).  Only
    vertices unmatched in ``match`` are touched; the input is not modified.
    The scan runs over flat Python lists (same seeded results as the
    original numpy-slice version).

    Parameters
    ----------
    graph, match:
        The graph and an existing matching (``match[v] == v`` marks
        unmatched vertices).
    max_pair_degree:
        Only consider unmatched vertices of degree at most this (default:
        no limit); two-hop merging high-degree vertices creates dense
        coarse rows.
    constraint:
        Optional per-vertex labels; two-hop pairs are only formed between
        same-label vertices.
    """
    rng = as_rng(seed)
    out = np.asarray(match, dtype=_INT).copy()
    n = graph.nvtxs
    con = _as_constraint(graph, constraint)
    con = None if con is None else con.tolist()
    free = np.flatnonzero(out == np.arange(n))
    if max_pair_degree is not None:
        deg = np.diff(graph.xadj)
        free = free[deg[free] <= max_pair_degree]
    if free.size < 2:
        return out

    outl = out.tolist()
    xadj = graph.xadj.tolist()
    adj = graph.adjncy.tolist()

    # Group leftover vertices by a (random) common neighbour and pair
    # within each bucket.
    buckets: dict[int, int] = {}
    for v in rng.permutation(free).tolist():
        if outl[v] != v:
            continue
        beg, end = xadj[v], xadj[v + 1]
        if beg == end:
            continue
        for i in range(beg, end):
            u = adj[i]
            waiting = buckets.get(u, -1)
            if (waiting >= 0 and outl[waiting] == waiting and waiting != v
                    and (con is None or con[waiting] == con[v])):
                outl[v] = waiting
                outl[waiting] = v
                buckets[u] = -1
                break
        else:
            # Park v at one of its hubs and keep scanning.
            hub = adj[beg + int(rng.integers(end - beg))]
            if buckets.get(hub, -1) < 0:
                buckets[hub] = v
    return np.asarray(outl, dtype=_INT)


def matching_to_cmap(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Convert a match array into a coarse map ``(cmap, ncoarse)``.

    Each matched pair and each unmatched vertex becomes one coarse vertex;
    ids are assigned in order of the pair's lower endpoint, so the result is
    deterministic given the matching.
    """
    match = np.asarray(match, dtype=_INT)
    n = match.shape[0]
    reps = np.minimum(np.arange(n, dtype=_INT), match)
    is_rep = reps == np.arange(n)
    cmap = np.full(n, -1, dtype=_INT)
    cmap[is_rep] = np.arange(int(is_rep.sum()), dtype=_INT)
    cmap[~is_rep] = cmap[match[~is_rep]]
    return cmap, int(is_rep.sum())


def is_matching(graph: Graph, match: np.ndarray) -> bool:
    """Check that ``match`` is a valid matching on ``graph``: involutive and
    every matched pair is an actual edge (one bulk sweep over the edge
    list)."""
    match = np.asarray(match, dtype=_INT)
    n = graph.nvtxs
    if match.shape != (n,):
        return False
    if match.size and (match.min() < 0 or match.max() >= n):
        return False
    ar = np.arange(n)
    if not np.array_equal(match[match], ar):
        return False
    matched = match != ar
    if not matched.any():
        return True
    src = np.repeat(ar, np.diff(graph.xadj))
    hits = match[src] == graph.adjncy
    has_edge = np.bincount(src[hits], minlength=n) > 0
    return bool(np.all(has_edge | ~matched))


#: Registry used by the coarsener configuration.
MATCHERS = {
    "rm": random_matching,
    "hem": heavy_edge_matching,
    "bem": balanced_edge_matching,
}
