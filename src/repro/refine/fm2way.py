"""Multi-constraint 2-way FM refinement (the paper's bisection refiner).

The classic Fiduccia--Mattheyses refinement keeps one priority queue per
side and repeatedly moves the best-gain vertex, allowing a bounded streak of
cut-increasing moves and rolling back to the best prefix.  The
multi-constraint extension (SC'98, Section 5.2) keeps ``m`` queues per side
-- vertex ``v`` lives in the queue of its *dominant* weight component -- so
that when some constraint drifts out of tolerance, moves can be drawn
specifically from vertices that are heavy in that constraint on the
overweight side.

Two modes cooperate:

* :func:`balance_2way` -- driven purely by the total balance excess
  ``B = sum_j,i max(0, pw[j,i] - cap[j,i])``; every move must strictly
  decrease ``B`` (which guarantees termination), picking the best-gain
  vertex among candidates from the dominant queue of the worst violation.
* :func:`fm2way_refine` -- hill-climbing FM passes over boundary vertices;
  from a feasible state only destination-feasible moves are taken (the
  serial algorithm never explores the infeasible space once balanced --
  exactly the behaviour the paper describes), with rollback to the best
  observed prefix.

Performance
-----------
FM is the hottest kernel of the whole pipeline (the initial-partitioning
phase alone FM-refines hundreds of candidate bisections), and its inner
loop is dominated by *per-element* operations: one gain lookup, an m-entry
feasibility check, a few queue ops.  NumPy is the wrong tool at that grain
-- every ufunc call costs ~1us of dispatch for ~3 elements of work -- so
:class:`TwoWayState` keeps **pure-Python scalar mirrors** (plain lists) of
the hot state next to the NumPy-facing views:

* gain initialisation (:meth:`TwoWayState.build_queues`) is one vectorised
  sweep over the CSR arrays followed by a bulk ``heapify`` per queue;
* per-move updates (``id/ed``, part weights, the balance objective) touch
  only the moved vertex and its neighbours, in plain-int arithmetic;
* the selection loop peeks queue tops inline (no function call per queue).

The arithmetic is IEEE-identical to the previous NumPy-scalar version, so
seeded runs keep their results; ``tests/test_perf_kernels.py`` pins the
parity against the per-vertex reference implementations.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .._rng import as_rng
from ..errors import PartitionError
from ..graph.csr import Graph
from ..weights.balance import FEASIBILITY_EPS, as_ubvec
from .gain import compute_2way_degrees
from .pq import LazyMaxPQ

__all__ = ["BisectScratch", "TwoWayState", "balance_2way", "fm2way_refine", "FMStats"]

_EPS = 1e-12


class BisectScratch:
    """Graph-side constants of repeated 2-way refinements, shared across
    candidates.

    Building a :class:`TwoWayState` converts the CSR arrays, the relative
    weight matrix and the per-side caps into plain-Python lists (the FM
    hot-path mirrors) -- O(V + E) work that is *identical* for every
    candidate partition of the same graph under the same
    ``(target_fracs, ubvec)``.  The multi-start initial bisection refines
    ~20 candidates per coarsest graph; one scratch hoists the conversion
    out of that loop (pass it via ``fm2way_refine(..., scratch=...)``).

    A scratch is read-only after construction: per-move bookkeeping only
    ever mutates the *where-dependent* state (``pw``, ``id/ed``, ``cut``),
    which each :class:`TwoWayState` still builds for itself.
    """

    __slots__ = (
        "graph", "relw", "dom", "fracs", "caps",
        "_m", "_xadj", "_adj", "_adjw", "_relwl", "_doml", "_capsl",
    )

    def __init__(self, graph: Graph, target_fracs=(0.5, 0.5), ubvec=1.05):
        m = graph.ncon
        t = graph.vwgt.sum(axis=0).astype(np.float64)
        t[t == 0] = 1.0
        self.graph = graph
        self.relw = graph.vwgt / t
        self.dom = (np.argmax(self.relw, axis=1) if m > 1
                    else np.zeros(graph.nvtxs, dtype=np.int64))

        fr = np.asarray(target_fracs, dtype=np.float64)
        if fr.shape != (2,) or np.any(fr <= 0):
            raise PartitionError("target_fracs must be two positive numbers")
        fr = fr / fr.sum()
        ub = as_ubvec(ubvec, m)
        self.fracs = fr
        self.caps = fr[:, None] * ub[None, :]

        self._m = m
        self._xadj = graph.xadj.tolist()
        self._adj = graph.adjncy.tolist()
        self._adjw = graph.adjwgt.tolist()
        self._relwl = self.relw.tolist()
        self._doml = self.dom.tolist()
        self._capsl = self.caps.tolist()

    def matches(self, graph: Graph, target_fracs, ubvec) -> bool:
        """Cheap guard: does this scratch describe ``graph`` under the same
        normalised fractions and caps?  (Mismatch falls back to a rebuild.)"""
        if graph is not self.graph:
            return False
        fr = np.asarray(target_fracs, dtype=np.float64)
        if fr.shape != (2,) or np.any(fr <= 0):
            return False
        fr = fr / fr.sum()
        return (np.array_equal(fr, self.fracs)
                and np.array_equal(fr[:, None] * as_ubvec(ubvec, self._m)[None, :],
                                   self.caps))


@dataclass
class FMStats:
    """Outcome of a refinement run."""

    initial_cut: int
    final_cut: int
    passes: int
    moves: int
    feasible: bool
    #: Final total balance excess (0.0 when feasible); lets drivers score
    #: candidates without rebuilding a state around the refined partition.
    balance: float = 0.0
    #: Speculative moves undone by per-pass rollback to the best prefix;
    #: a high ratio of rollbacks to moves means passes explored far past
    #: their best state (observability signal, no algorithmic effect).
    rollbacks: int = 0


class TwoWayState:
    """Mutable state of a 2-way multi-constraint partition.

    Tracks relative part weights, internal/external degrees and the cut;
    every mutation goes through :meth:`move` so the invariants
    ``cut == ed.sum()/2`` and ``pw == sum of relw per side`` hold at all
    times (asserted by the test-suite's property checks).

    ``pw``, ``id_`` and ``ed`` are exposed as NumPy arrays (views built on
    access); the authoritative copies live in plain-Python lists so the
    per-move bookkeeping runs at interpreter speed instead of paying ufunc
    dispatch per touched element.
    """

    def __init__(self, graph: Graph, where, target_fracs=(0.5, 0.5), ubvec=1.05,
                 scratch: BisectScratch | None = None):
        where = np.asarray(where, dtype=np.int64)
        if where.shape != (graph.nvtxs,):
            raise PartitionError("where must cover all vertices")
        if where.size and not np.all((where == 0) | (where == 1)):
            raise PartitionError("2-way state requires parts {0, 1}")
        self.graph = graph
        self.where = where
        m = graph.ncon
        if scratch is None or not scratch.matches(graph, target_fracs, ubvec):
            scratch = BisectScratch(graph, target_fracs, ubvec)
        # Graph-side constants (possibly shared across many states).
        self.relw = scratch.relw
        self.dom = scratch.dom
        self.fracs = scratch.fracs
        self.caps = scratch.caps
        self._m = m
        self._xadj = scratch._xadj
        self._adj = scratch._adj
        self._adjw = scratch._adjw
        self._relwl = scratch._relwl
        self._doml = scratch._doml
        self._capsl = scratch._capsl

        pw = np.zeros((2, m), dtype=np.float64)
        pw[0] = self.relw[where == 0].sum(axis=0)
        pw[1] = self.relw[where == 1].sum(axis=0)
        id_, ed = compute_2way_degrees(graph, where)
        self.cut = int(ed.sum()) // 2

        # Hot-path mirrors of the where-dependent state: plain-Python
        # scalars, no ufunc dispatch.
        self._wh = where.tolist()
        self._pw = pw.tolist()
        self._id = id_.tolist()
        self._ed = ed.tolist()

    # ---------------------------------------------------------- views #

    @property
    def pw(self) -> np.ndarray:
        """``(2, m)`` relative part weights (snapshot of the live state)."""
        return np.array(self._pw)

    @property
    def id_(self) -> np.ndarray:
        """``(n,)`` internal degrees (snapshot)."""
        return np.array(self._id, dtype=np.int64)

    @property
    def ed(self) -> np.ndarray:
        """``(n,)`` external degrees (snapshot)."""
        return np.array(self._ed, dtype=np.int64)

    # -------------------------------------------------------------- #

    def gain(self, v: int) -> int:
        return self._ed[v] - self._id[v]

    def excess(self) -> np.ndarray:
        """(2, m) positive part of ``pw - caps``."""
        return np.maximum(self.pw - self.caps, 0.0)

    def balance_obj(self) -> float:
        """Total balance excess ``B`` (0 when feasible)."""
        b = 0.0
        for pwi, ci in zip(self._pw, self._capsl):
            for j in range(self._m):
                d = pwi[j] - ci[j]
                if d > 0.0:
                    b += d
        return b

    def feasible(self) -> bool:
        return self.balance_obj() <= FEASIBILITY_EPS

    def dest_fits(self, v: int) -> bool:
        """Would moving ``v`` keep its destination within its caps?"""
        pwd = self._pw[1 - self._wh[v]]
        capd = self._capsl[1 - self._wh[v]]
        rv = self._relwl[v]
        for j in range(self._m):
            if pwd[j] + rv[j] > capd[j] + FEASIBILITY_EPS:
                return False
        return True

    def balance_after(self, v: int) -> float:
        """Balance objective if ``v`` were moved."""
        s = self._wh[v]
        rv = self._relwl[v]
        b = 0.0
        for i in (0, 1):
            pwi = self._pw[i]
            ci = self._capsl[i]
            sign = -1.0 if i == s else 1.0
            for j in range(self._m):
                d = pwi[j] + sign * rv[j] - ci[j]
                if d > 0.0:
                    b += d
        return b

    def move(self, v: int, queues=None, locked=None) -> None:
        """Move ``v`` to the other side, updating degrees, cut, part
        weights, and (optionally) the gain queues of its free neighbours."""
        wh = self._wh
        idl, edl = self._id, self._ed
        s = wh[v]
        d = 1 - s
        self.cut -= edl[v] - idl[v]
        rv = self._relwl[v]
        pws, pwd = self._pw[s], self._pw[d]
        for j in range(self._m):
            pws[j] -= rv[j]
            pwd[j] += rv[j]
        wh[v] = d
        self.where[v] = d
        idl[v], edl[v] = edl[v], idl[v]

        adj, adjw, dom = self._adj, self._adjw, self._doml
        heappush = heapq.heappush
        for i in range(self._xadj[v], self._xadj[v + 1]):
            u = adj[i]
            w = adjw[i]
            if wh[u] == d:  # u is now on v's side
                idl[u] += w
                edl[u] -= w
            else:
                idl[u] -= w
                edl[u] += w
            if queues is not None and (locked is None or not locked[u]):
                # Inline queue insert/update (see LazyMaxPQ invariants):
                # refresh u's gain if queued, enqueue if it just became a
                # boundary vertex.
                q = queues[wh[u]][dom[u]]
                prio = q._prio
                queued = u in prio
                if queued or edl[u] > 0:
                    g_u = edl[u] - idl[u]
                    stamp = q._stamp
                    s_u = stamp.get(u, 0) + 1
                    stamp[u] = s_u
                    if not queued:
                        q._size += 1
                    prio[u] = g_u
                    heappush(q._heap, (-g_u, u, s_u))

    # -------------------------------------------------------------- #

    def build_queues(self, *, boundary_only: bool = True, locked=None):
        """Fresh ``queues[side][con]`` of free (un-locked) vertices.

        One vectorised sweep: candidate vertices, their gains and their
        (side, dominant-constraint) bucket come straight from the CSR-based
        degree arrays; each bucket then becomes a queue via a single
        ``heapify`` (same pop order as per-vertex inserts).
        """
        m = self._m
        ed = np.asarray(self._ed, dtype=np.int64)
        if boundary_only:
            verts = np.flatnonzero(ed > 0)
        else:
            verts = np.arange(self.graph.nvtxs)
        if locked is not None:
            lk = np.asarray(locked, dtype=bool)
            verts = verts[~lk[verts]]
        gains = (ed - np.asarray(self._id, dtype=np.int64))[verts]
        bucket = self.where[verts] * m + self.dom[verts]
        order = np.argsort(bucket, kind="stable")
        verts, gains, bucket = verts[order], gains[order], bucket[order]
        starts = np.searchsorted(bucket, np.arange(2 * m + 1))
        queues = []
        for side in range(2):
            row = []
            for c in range(m):
                lo, hi = starts[side * m + c], starts[side * m + c + 1]
                row.append(LazyMaxPQ.from_items(verts[lo:hi].tolist(),
                                                gains[lo:hi].tolist()))
            queues.append(row)
        return queues


def _drain_for_balance(state: TwoWayState, q: LazyMaxPQ, b_now: float, limit: int) -> int:
    """Pop candidates from ``q`` in gain order until one strictly reduces
    the balance objective below ``b_now``; give up after ``limit + 1``
    rejections.  Returns the accepted vertex (logically removed from ``q``)
    or -1.  Rejected pops are physical only -- the identical entry tuples
    are pushed back, which restores the exact abstract queue state."""
    heap = q._heap
    stamp = q._stamp
    heappop = heapq.heappop
    popped: list[tuple] = []
    found = -1
    while True:
        while heap:
            entry = heap[0]
            if stamp.get(entry[1]) == entry[2]:
                break
            heappop(heap)
        if not heap:
            break
        entry = heappop(heap)
        v = entry[1]
        if state.balance_after(v) < b_now - _EPS:
            del q._prio[v]
            stamp[v] = entry[2] + 1
            q._size -= 1
            found = v
            break
        popped.append(entry)
        if len(popped) > limit:
            break
    for entry in popped:
        heapq.heappush(heap, entry)
    return found


def balance_2way(state: TwoWayState, max_moves: int | None = None) -> int:
    """Restore feasibility by moving vertices out of overweight sides.

    Each move must strictly reduce the balance objective ``B``; ties and
    increases are rejected, so the loop terminates.  Among acceptable
    candidates of the dominant queue of the worst violation, the best-gain
    vertex is chosen (minimum cut damage).  Returns the number of moves.
    """
    if state.feasible():
        return 0
    n = state.graph.nvtxs
    if max_moves is None:
        max_moves = 4 * n + 16
    queues = state.build_queues(boundary_only=False)
    moves = 0
    m = state._m
    while moves < max_moves:
        # Worst single violation (row-major first-max, like np.argmax over
        # the excess matrix) and total excess, in one scalar sweep.
        b_now = 0.0
        worst = 0.0
        side = con = 0
        for i in (0, 1):
            pwi = state._pw[i]
            ci = state._capsl[i]
            for j in range(m):
                d = pwi[j] - ci[j]
                if d > 0.0:
                    b_now += d
                    if d > worst:
                        worst = d
                        side, con = i, j
        if b_now <= FEASIBILITY_EPS:
            break
        chosen = -1
        # Try the dominant queue of the violated constraint first, then the
        # side's other queues.
        for c in [con] + [c for c in range(m) if c != con]:
            chosen = _drain_for_balance(state, queues[side][c], b_now, 64)
            if chosen >= 0:
                break
        if chosen < 0:
            break
        state.move(chosen, queues=queues)
        # The mover switched sides: place it in its new side's queue so it
        # can participate in later corrections (B strictly decreases, so it
        # cannot oscillate forever).
        queues[state._wh[chosen]][state._doml[chosen]].insert(chosen, state.gain(chosen))
        moves += 1
    return moves


def fm2way_refine(
    graph: Graph,
    where,
    *,
    target_fracs=(0.5, 0.5),
    ubvec=1.05,
    npasses: int = 8,
    max_bad_moves: int | None = None,
    seed=None,
    scratch: BisectScratch | None = None,
) -> FMStats:
    """Refine a 2-way partition in place with multi-constraint FM.

    Parameters
    ----------
    graph, where:
        The graph and its (mutated in place) 0/1 partition vector.
    target_fracs:
        Target weight fraction of part 0 and part 1 (every constraint uses
        the same split -- the paper's formulation).
    ubvec:
        Per-constraint load-imbalance tolerance (scalar or length-``m``).
    npasses:
        Maximum FM passes.
    max_bad_moves:
        Abort a pass after this many consecutive non-improving moves
        (default ``max(64, n // 20)``).
    scratch:
        Optional :class:`BisectScratch` for ``graph`` under the same
        ``(target_fracs, ubvec)``; hoists the O(V + E) list-mirror
        construction out of multi-candidate loops.  A mismatched scratch
        is ignored (the state rebuilds its own constants).

    Returns
    -------
    FMStats
        Cut before/after, passes, total committed moves, and the final
        balance excess.
    """
    as_rng(seed)  # reserved: selection is deterministic, seed kept for API symmetry
    where = np.asarray(where, dtype=np.int64)
    state = TwoWayState(graph, where, target_fracs, ubvec, scratch=scratch)
    initial_cut = state.cut
    n = graph.nvtxs
    if max_bad_moves is None:
        max_bad_moves = max(64, n // 20)

    total_moves = 0
    total_rollbacks = 0
    passes = 0
    for _ in range(npasses):
        if not state.feasible():
            total_moves += balance_2way(state)
        improved, nmoves, nrollbacks = _fm_pass(state, max_bad_moves)
        passes += 1
        total_moves += nmoves
        total_rollbacks += nrollbacks
        if not improved:
            break
    if not state.feasible():
        total_moves += balance_2way(state)
    return FMStats(
        initial_cut=initial_cut,
        final_cut=state.cut,
        passes=passes,
        moves=total_moves,
        feasible=state.feasible(),
        balance=state.balance_obj(),
        rollbacks=total_rollbacks,
    )


def _state_key(state: TwoWayState):
    """Ordering key: feasible-and-low-cut beats everything; among
    infeasible states prefer lower excess, then lower cut."""
    b = state.balance_obj()
    return (0, state.cut, 0.0) if b <= FEASIBILITY_EPS else (1, b, state.cut)


def _fm_pass(state: TwoWayState, max_bad_moves: int) -> tuple[bool, int, int]:
    """One FM pass with rollback.  Returns (improved, committed moves,
    rolled-back moves)."""
    n = state.graph.nvtxs
    locked = [False] * n
    queues = state.build_queues(boundary_only=True, locked=locked)
    m = state._m

    best_key = _state_key(state)
    start_key = best_key
    history: list[int] = []
    best_len = 0
    bad = 0
    # Pass-start snapshot of the integer state, for the rollback fast
    # path below (three pointer-level list copies; cheap next to even one
    # skipped move replay on the coarsest graphs this dominates).
    snap_wh = state._wh.copy()
    snap_id = state._id.copy()
    snap_ed = state._ed.copy()
    snap_cut = state.cut

    while bad < max_bad_moves:
        v = _select_move(state, queues, m)
        if v < 0:
            break
        state.move(v, queues=queues, locked=locked)
        locked[v] = True
        history.append(v)
        key = _state_key(state)
        if key < best_key:
            best_key = key
            best_len = len(history)
            bad = 0
        else:
            bad += 1

    # Roll back everything after the best prefix, by whichever replay is
    # shorter: reverse-replaying the rolled suffix, or restoring the
    # snapshot and forward-replaying the committed prefix.  Both rebuild
    # the identical state -- the integer bookkeeping (sides, degrees, cut)
    # has exact inverses either way, and the float part weights are always
    # computed by the reverse replay's own operations (IEEE add/sub is not
    # exactly invertible, so a float snapshot would NOT reproduce the
    # pinned reverse-replay bit patterns).
    rolled = len(history) - best_len
    if rolled:
        if best_len < rolled:
            _rollback_to_prefix(state, history, best_len, m,
                                snap_wh, snap_id, snap_ed, snap_cut)
        else:
            for v in reversed(history[best_len:]):
                state.move(v)
    return best_key < start_key, best_len, rolled


def _rollback_to_prefix(state: TwoWayState, history, best_len: int, m: int,
                        snap_wh, snap_id, snap_ed, snap_cut: int) -> None:
    """Return ``state`` to its best prefix without replaying every rolled
    move: reverse-replay only the *float* part-weight updates of the
    rolled suffix (bit-for-bit the operations :meth:`TwoWayState.move`
    would do), then rebuild the integer state from the pass-start
    snapshot by re-applying the committed prefix's integer bookkeeping.
    Exact because integer adds are invertible; worthwhile because the
    common rolled-back pass is the final non-improving one, whose prefix
    is empty."""
    pw = state._pw
    wh = state._wh
    relwl = state._relwl
    rng_m = range(m)
    where = state.where
    for v in reversed(history[best_len:]):
        s = wh[v]  # the side the forward move put v on
        rv = relwl[v]
        pws = pw[s]
        pwd = pw[1 - s]
        for j in rng_m:
            pws[j] -= rv[j]
            pwd[j] += rv[j]
        where[v] = 1 - s

    # Integer state: snapshot + forward replay of the committed prefix
    # (each vertex moves at most once per pass, so the replay's evolving
    # side vector sees exactly what the original forward moves saw).
    cut = snap_cut
    wh, idl, edl = snap_wh, snap_id, snap_ed
    xadj, adj, adjw = state._xadj, state._adj, state._adjw
    for v in history[:best_len]:
        cut -= edl[v] - idl[v]
        d = 1 - wh[v]
        wh[v] = d
        idl[v], edl[v] = edl[v], idl[v]
        for i in range(xadj[v], xadj[v + 1]):
            u = adj[i]
            w = adjw[i]
            if wh[u] == d:
                idl[u] += w
                edl[u] -= w
            else:
                idl[u] -= w
                edl[u] += w
    state._wh = wh
    state._id = idl
    state._ed = edl
    state.cut = cut


def _select_move(state: TwoWayState, queues, m: int) -> int:
    """Pick the next vertex to move.

    When the state is infeasible, draw from the dominant queue of the worst
    violation (accepting only excess-reducing moves); otherwise take the
    best gain over all ``2m`` queue tops whose move keeps the destination
    feasible.  Rejected pops are re-inserted.  Returns -1 when nothing is
    movable.

    The feasible path is the hottest loop of the whole library; queue tops
    are skimmed inline (peeking 2m queues per move through method calls is
    what the profile said made FM slow).
    """
    # Worst violation + total excess in one scalar sweep (row-major
    # first-max, like np.argmax over the excess matrix).
    b_now = 0.0
    worst = 0.0
    side = con = 0
    for i in (0, 1):
        pwi = state._pw[i]
        ci = state._capsl[i]
        for c in range(m):
            d = pwi[c] - ci[c]
            if d > 0.0:
                b_now += d
                if d > worst:
                    worst = d
                    side, con = i, c
    if b_now > FEASIBILITY_EPS:
        order = [con] + [c for c in range(m) if c != con]
        for c in order:
            q = queues[side][c]
            found = _drain_for_balance(state, q, b_now, 32)
            if found >= 0:
                return found
        return -1

    # Feasible: best gain over all queues, destination must stay feasible.
    # All 2m queues are skimmed once up front; each iteration then scans
    # their live tops directly.  Nothing restales a top during selection
    # (rejected pops are physical-only and touch one queue, which is
    # re-skimmed below), so the one-time skim stays valid.  First queue
    # wins gain ties (side 0 before side 1, constraint 0 before
    # constraint 1, ...), matching the (neg_gain, queue_order) meta-heap
    # this scan replaces -- at 2m queues a flat scan is cheaper than
    # maintaining a heap of tops.
    heappop = heapq.heappop
    qlist = []
    for side in (0, 1):
        qrow = queues[side]
        for c in range(m):
            q = qrow[c]
            # Inline skim (see LazyMaxPQ invariants).
            heap = q._heap
            stamp = q._stamp
            while heap:
                entry = heap[0]
                if stamp.get(entry[1]) == entry[2]:
                    break
                heappop(heap)
            qlist.append(q)

    # Rejected pops are *physical only*: the stamp/priority dicts are left
    # untouched, so pushing the identical entry tuples back afterwards
    # restores the exact abstract queue state (pop order is a function of
    # the live entry set) at half the cost of pop + reinsert.
    heappush = heapq.heappush
    popped: list[tuple[list, tuple]] = []
    chosen = -1
    wh = state._wh
    pw = state._pw
    capsl = state._capsl
    relwl = state._relwl
    rng_m = range(m)
    for _ in range(64):
        best = None
        bq = None
        for q in qlist:
            heap = q._heap
            if heap:
                top = heap[0][0]
                if best is None or top < best:
                    best = top
                    bq = q
        if bq is None:
            break
        heap = bq._heap
        entry = heappop(heap)
        v = entry[1]
        # Inline dest_fits(v).
        d = 1 - wh[v]
        pwd = pw[d]
        capd = capsl[d]
        rv = relwl[v]
        fits = True
        for j in rng_m:
            if pwd[j] + rv[j] > capd[j] + FEASIBILITY_EPS:
                fits = False
                break
        if fits:
            # Logical removal of the accepted vertex only.
            del bq._prio[v]
            bq._stamp[v] = entry[2] + 1
            bq._size -= 1
            chosen = v
            break
        popped.append((heap, entry))
        stamp = bq._stamp
        while heap:
            entry = heap[0]
            if stamp.get(entry[1]) == entry[2]:
                break
            heappop(heap)
    for heap, entry in popped:
        heappush(heap, entry)
    return chosen
