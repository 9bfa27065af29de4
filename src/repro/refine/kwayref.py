"""Greedy multi-constraint k-way refinement (the "horizontal" refiner used
by the multilevel k-way algorithm).

Unlike 2-way FM, the k-way refiner makes only greedy passes over boundary
vertices (the standard design of multilevel k-way partitioners): a vertex
moves to the adjacent part with the largest positive gain among the
destinations that keep **every** constraint within tolerance; zero-gain
moves are taken when they strictly reduce the total balance excess.

:func:`balance_kway` is the explicit balancer the paper's approach requires
when a projected partition violates some constraint: it drains the worst
(part, constraint) violation through minimum-cut-damage moves, accepting
cut-increasing moves when necessary (this is exactly the "few edge-cut
increasing moves" escape hatch the parallel follow-on paper describes for
single-constraint refiners -- made multi-constraint-safe by requiring every
move to strictly reduce the total excess, which guarantees termination).

Performance
-----------
:class:`KWayState` maintains the classic incremental refinement state
(Sanders & Schulz-style) instead of recomputing it per query:

* ``id/ed`` internal/external degree arrays, updated per move by touching
  only the moved vertex and its neighbours;
* the boundary, read off ``ed > 0`` in O(n) instead of an O(E) edge scan
  per pass;
* plain-Python mirrors of the part-weight / capacity arrays so the
  per-candidate feasibility and balance-delta checks cost interpreter
  arithmetic, not ufunc dispatch.

``neighbor_weights`` still answers from the CSR arrays in O(deg v), but
through pre-extracted Python lists (building a numpy slice pair per vertex
was the old hot spot).  ``tests/test_perf_kernels.py`` pins the maintained
arrays against from-scratch recomputation after random move sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._rng import as_rng
from ..errors import PartitionError
from ..graph.csr import Graph
from ..weights.balance import FEASIBILITY_EPS, as_target_fracs, as_ubvec
from .gain import edge_cut, kway_degrees

__all__ = ["KWayState", "kway_refine", "balance_kway", "KWayStats"]

_EPS = 1e-12


@dataclass
class KWayStats:
    """Outcome of a k-way refinement run."""

    initial_cut: int
    final_cut: int
    passes: int
    moves: int
    balance_moves: int
    feasible: bool


class KWayState:
    """Mutable state of a k-way multi-constraint partition.

    ``pw`` and ``counts`` are exposed as NumPy snapshots (built on access);
    the authoritative copies live in plain-Python lists updated
    incrementally by :meth:`move` together with the ``id/ed`` degree
    arrays.
    """

    def __init__(self, graph: Graph, where, nparts: int, ubvec=1.05, target_fracs=None):
        where = np.asarray(where, dtype=np.int64)
        if where.shape != (graph.nvtxs,):
            raise PartitionError("where must cover all vertices")
        if where.size and (where.min() < 0 or where.max() >= nparts):
            raise PartitionError("part ids out of range")
        self.graph = graph
        self.where = where
        self.nparts = nparts
        m = graph.ncon
        t = graph.vwgt.sum(axis=0).astype(np.float64)
        t[t == 0] = 1.0
        self.relw = graph.vwgt / t

        fr = as_target_fracs(target_fracs, nparts)
        ub = as_ubvec(ubvec, m)
        self.caps = fr[:, None] * ub[None, :]

        pw = np.zeros((nparts, m), dtype=np.float64)
        for c in range(m):
            pw[:, c] = np.bincount(where, weights=self.relw[:, c], minlength=nparts)

        id_, ed = kway_degrees(graph, where)

        # Hot-path mirrors: plain-Python scalars, no ufunc dispatch.
        self._m = m
        self._xadj = graph.xadj.tolist()
        self._adj = graph.adjncy.tolist()
        self._adjw = graph.adjwgt.tolist()
        self._wh = where.tolist()
        self._relwl = self.relw.tolist()
        self._capsl = self.caps.tolist()
        self._pw = pw.tolist()
        self._counts = np.bincount(where, minlength=nparts).tolist()
        self._id = id_.tolist()
        self._ed = ed.tolist()

    # ---------------------------------------------------------- views #

    @property
    def pw(self) -> np.ndarray:
        """``(nparts, m)`` relative part weights (snapshot)."""
        return np.array(self._pw)

    @property
    def counts(self) -> np.ndarray:
        """``(nparts,)`` vertex count per part (snapshot)."""
        return np.array(self._counts, dtype=np.int64)

    @property
    def id_(self) -> np.ndarray:
        """``(n,)`` edge weight from each vertex into its own part."""
        return np.array(self._id, dtype=np.int64)

    @property
    def ed(self) -> np.ndarray:
        """``(n,)`` edge weight from each vertex into other parts."""
        return np.array(self._ed, dtype=np.int64)

    # -------------------------------------------------------------- #

    def excess(self) -> np.ndarray:
        return np.maximum(self.pw - self.caps, 0.0)

    def balance_obj(self) -> float:
        b = 0.0
        for pwi, ci in zip(self._pw, self._capsl):
            for j in range(self._m):
                d = pwi[j] - ci[j]
                if d > 0.0:
                    b += d
        return b

    def feasible(self) -> bool:
        return self.balance_obj() <= FEASIBILITY_EPS

    def dest_fits(self, v: int, d: int) -> bool:
        pwd = self._pw[d]
        capd = self._capsl[d]
        rv = self._relwl[v]
        for j in range(self._m):
            if pwd[j] + rv[j] > capd[j] + FEASIBILITY_EPS:
                return False
        return True

    def balance_delta(self, v: int, d: int) -> float:
        """Change in balance objective if ``v`` moved to part ``d``
        (negative = improvement)."""
        s = self._wh[v]
        if d == s:
            return 0.0
        rv = self._relwl[v]
        pws, pwd = self._pw[s], self._pw[d]
        cs, cd = self._capsl[s], self._capsl[d]
        before = 0.0
        after = 0.0
        for j in range(self._m):
            x = pws[j] - cs[j]
            if x > 0.0:
                before += x
            x = pws[j] - rv[j] - cs[j]
            if x > 0.0:
                after += x
        for j in range(self._m):
            x = pwd[j] - cd[j]
            if x > 0.0:
                before += x
            x = pwd[j] + rv[j] - cd[j]
            if x > 0.0:
                after += x
        return after - before

    def move(self, v: int, d: int) -> None:
        """Move ``v`` to part ``d``, updating part weights, counts and the
        ``id/ed`` degrees of ``v`` and its neighbours."""
        wh = self._wh
        s = wh[v]
        rv = self._relwl[v]
        pws, pwd = self._pw[s], self._pw[d]
        for j in range(self._m):
            pws[j] -= rv[j]
            pwd[j] += rv[j]
        self._counts[s] -= 1
        self._counts[d] += 1
        wh[v] = d
        self.where[v] = d
        if d == s:
            return
        idl, edl = self._id, self._ed
        adj, adjw = self._adj, self._adjw
        wtod = 0
        wdeg = 0
        for i in range(self._xadj[v], self._xadj[v + 1]):
            u = adj[i]
            w = adjw[i]
            wdeg += w
            pu = wh[u]
            if pu == s:
                idl[u] -= w
                edl[u] += w
            elif pu == d:
                idl[u] += w
                edl[u] -= w
                wtod += w
        idl[v] = wtod
        edl[v] = wdeg - wtod

    def boundary(self) -> np.ndarray:
        """Vertex ids with at least one neighbour in another part (read off
        the maintained external degrees; ascending order)."""
        return np.flatnonzero(np.asarray(self._ed, dtype=np.int64) > 0)

    def neighbor_weights(self, v: int) -> dict[int, int]:
        """Edge weight from ``v`` to each adjacent part (including own)."""
        wh = self._wh
        adj, adjw = self._adj, self._adjw
        out: dict[int, int] = {}
        get = out.get
        for i in range(self._xadj[v], self._xadj[v + 1]):
            p = wh[adj[i]]
            out[p] = get(p, 0) + adjw[i]
        return out

    def _reference_boundary(self) -> np.ndarray:
        """O(E) boundary recomputation (oracle for :meth:`boundary`)."""
        g = self.graph
        src = np.repeat(np.arange(g.nvtxs, dtype=np.int64), np.diff(g.xadj))
        crossing = self.where[src] != self.where[g.adjncy]
        return np.unique(src[crossing])


def kway_refine(
    graph: Graph,
    where,
    nparts: int,
    *,
    ubvec=1.05,
    target_fracs=None,
    npasses: int = 10,
    seed=None,
) -> KWayStats:
    """Greedy k-way refinement; mutates ``where`` in place.

    Runs :func:`balance_kway` first whenever the partition is infeasible,
    then randomised boundary sweeps until a sweep makes no move (or
    ``npasses`` is exhausted), re-balancing after any sweep that left the
    partition infeasible.
    """
    rng = as_rng(seed)
    where = np.asarray(where, dtype=np.int64)
    initial_cut = edge_cut(graph, where)
    state = KWayState(graph, where, nparts, ubvec, target_fracs)

    balance_moves = 0
    if not state.feasible():
        balance_moves += balance_kway_state(state)

    total_moves = 0
    passes = 0
    for _ in range(npasses):
        passes += 1
        moved = _greedy_pass(state, rng)
        total_moves += moved
        if not state.feasible():
            balance_moves += balance_kway_state(state)
        if moved == 0:
            break
    return KWayStats(
        initial_cut=initial_cut,
        final_cut=edge_cut(graph, state.where),
        passes=passes,
        moves=total_moves,
        balance_moves=balance_moves,
        feasible=state.feasible(),
    )


def _greedy_pass(state: KWayState, rng) -> int:
    """One randomized sweep over boundary vertices.  Returns moves made."""
    bnd = state.boundary()
    if bnd.size == 0:
        return 0
    rng.shuffle(bnd)
    moves = 0
    wh = state._wh
    counts = state._counts
    xadj = state._xadj
    adj = state._adj
    adjw = state._adjw
    dest_fits = state.dest_fits
    balance_delta = state.balance_delta
    # Reusable per-part accumulator replacing the neighbor_weights() dict
    # build (hashing every edge was this pass's hot spot).  ``touched``
    # records first-touch order, which is exactly the insertion order the
    # dict would iterate in, so the candidate scan below sees the same
    # destinations in the same order.
    nparts = state.nparts
    acc = [0] * nparts
    seen = [0] * nparts
    touched: list[int] = []
    stamp = 0
    # Vectorized pass-start prefilter: a vertex whose heaviest external
    # connection is lighter than its internal weight has gain < 0 towards
    # every destination and can never move (zero-gain moves need gain == 0
    # exactly, negative gains are never taken) -- skip it without the edge
    # scan.  The verdict is computed against pass-start part ids, so it is
    # only trusted while the vertex's neighbourhood is untouched by this
    # pass's moves; each committed move dirties its neighbours.
    g = state.graph
    n = g.nvtxs
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.xadj))
    nw = np.bincount(src * nparts + state.where[g.adjncy],
                     weights=g.adjwgt, minlength=n * nparts)
    nw = nw.reshape(n, nparts)
    rows = np.arange(n)
    w_in_vec = nw[rows, state.where].copy()
    nw[rows, state.where] = -1.0
    maybe = (nw.max(axis=1) >= w_in_vec).tolist()
    dirty = [False] * n
    for v in bnd.tolist():
        if not dirty[v] and not maybe[v]:
            continue
        s = wh[v]
        if counts[s] <= 1:
            continue  # never empty a part
        stamp += 1
        for i in range(xadj[v], xadj[v + 1]):
            p = wh[adj[i]]
            if seen[p] != stamp:
                seen[p] = stamp
                acc[p] = adjw[i]
                touched.append(p)
            else:
                acc[p] += adjw[i]
        w_in = acc[s] if seen[s] == stamp else 0
        best_d = -1
        best_key = None
        for d in touched:
            if d == s:
                continue
            gain = acc[d] - w_in
            if gain < 0 or not dest_fits(v, d):
                continue
            bal = balance_delta(v, d)
            if gain == 0 and bal >= -_EPS:
                continue  # zero-gain moves must strictly help balance
            key = (gain, -bal)
            if best_key is None or key > best_key:
                best_key = key
                best_d = d
        touched.clear()
        if best_d >= 0:
            state.move(v, best_d)
            moves += 1
            for i in range(xadj[v], xadj[v + 1]):
                dirty[adj[i]] = True
    return moves


def balance_kway_state(state: KWayState, max_moves: int | None = None) -> int:
    """Restore feasibility of a :class:`KWayState` by draining overweight
    parts.  Every committed move strictly reduces the total excess, so the
    loop terminates.  Returns the number of moves made."""
    if state.feasible():
        return 0
    n = state.graph.nvtxs
    if max_moves is None:
        max_moves = 4 * n + 16
    moves = 0
    stuck_parts: set[int] = set()
    while not state.feasible() and moves < max_moves:
        exc = state.excess()
        # Worst violated part that is not known-stuck.
        order = np.argsort(-exc.max(axis=1))
        src_part = -1
        for p in order.tolist():
            if exc[p].max() > FEASIBILITY_EPS and p not in stuck_parts:
                src_part = p
                break
        if src_part < 0:
            break
        v, d = _best_balance_move(state, src_part)
        if v < 0:
            stuck_parts.add(src_part)
            continue
        state.move(v, d)
        stuck_parts.clear()
        moves += 1
    return moves


def _best_balance_move(state: KWayState, src_part: int) -> tuple[int, int]:
    """Best (vertex, destination) draining ``src_part``: must strictly
    reduce the excess; among candidates prefer maximum gain (least cut
    damage), then largest excess reduction."""
    members = np.flatnonzero(state.where == src_part)
    if members.size <= 1:
        return -1, -1
    best = (-1, -1)
    best_key = None
    for v in members.tolist():
        nbw = state.neighbor_weights(v)
        w_in = nbw.get(src_part, 0)
        # Adjacent parts first; fall back to any part with room.
        cand = [d for d in nbw if d != src_part]
        if not cand:
            cand = [d for d in range(state.nparts) if d != src_part]
        for d in cand:
            bal = state.balance_delta(v, d)
            # The destination may end over its caps as long as the *total*
            # excess strictly decreases -- with several constraints the
            # only escape route often trades one small violation for a
            # bigger one elsewhere, and strict decrease still guarantees
            # termination.
            if bal >= -_EPS:
                continue
            gain = nbw.get(d, 0) - w_in
            key = (-gain, bal)  # max gain, then most negative bal
            if best_key is None or key < best_key:
                best_key = key
                best = (v, d)
    return best


def balance_kway(
    graph: Graph,
    where,
    nparts: int,
    *,
    ubvec=1.05,
    target_fracs=None,
) -> int:
    """Convenience wrapper: build a state around ``where`` (mutated in
    place) and run :func:`balance_kway_state`."""
    state = KWayState(graph, np.asarray(where, dtype=np.int64), nparts, ubvec, target_fracs)
    moved = balance_kway_state(state)
    np.copyto(np.asarray(where), state.where)
    return moved
