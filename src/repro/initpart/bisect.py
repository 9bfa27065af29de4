"""Multi-constraint initial bisection of the coarsest graph.

The coarsest graph is small (≈100 vertices), so the initial-partitioning
phase can afford to generate several candidate bisections with different
strategies, FM-refine each, and keep the best:

* ``greedy`` -- topology-free LPT greedy on the weight vectors
  (:func:`repro.initpart.theory.greedy_bisection`): excellent balance, the
  cut is left to FM;
* ``prefix`` -- best-projection prefix bisections
  (:func:`repro.initpart.theory.best_projection_bisection`);
* ``region`` -- graph-growing (GGP): BFS-grow side 0 from a random seed
  vertex until any constraint reaches its target fraction, which gives a
  connected side with a naturally small cut;
* ``gggp`` -- greedy graph growing with gains: like ``region`` but absorbs
  the min-cut-damage frontier vertex first (better cuts, needs a queue);
* ``random`` -- Bernoulli(target) assignment (a control candidate; FM and
  the balancer must do all the work).

Candidates are compared feasible-first, then by edge-cut, then by balance.

Hot-path layout (the initial-partitioning phase dominated end-to-end wall
time before this rewrite):

* candidate *generation* is batched per round: one :class:`_GenScratch` of
  per-graph constants (relative weights, neighbour/edge-weight lists,
  weighted degrees) is shared by every ``region``/``gggp`` grow, and each
  round's candidates are stacked into one ``(C, n)`` array whose raw edge
  cuts are scored in a single vectorized sweep;
* candidate *refinement* shares one :class:`~repro.refine.fm2way.BisectScratch`
  across every :func:`~repro.refine.fm2way.fm2way_refine` call, duplicate
  candidates (same pre-refinement side vector) are refined once, and an
  adaptive plateau detector stops the multi-start as soon as the best
  (feasible, cut, balance) key has gone ``patience`` refined candidates
  without improving;
* every candidate's seed is pre-drawn from the parent stream in one batch
  (bit-identical to a per-candidate ``spawn``), so the schedule is
  deterministic however far the plateau detector lets it run.

The first round runs every method; later rounds re-try only
:data:`FOCUS_METHODS`.  ``tests/oracles.py`` keeps the per-candidate loop
with the same schedule as the parity oracle.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_rng
from ..errors import PartitionError
from ..graph.csr import Graph
from ..refine.fm2way import BisectScratch, fm2way_refine
from ..trace import as_tracer
from .theory import best_projection_bisection, greedy_bisection

__all__ = ["initial_bisection", "grow_bisection", "gggp_bisection", "INITIAL_METHODS"]

INITIAL_METHODS = ("greedy", "prefix", "region", "gggp", "random")

# After the first round, later rounds re-try only the graph-growing
# methods: they are the only seed-sensitive generators (greedy/prefix are
# near-deterministic given the weights, so re-running them buys nothing).
FOCUS_METHODS = ("gggp", "region")


class _GenScratch:
    """Per-graph constants shared by every generated candidate.

    The growing bisections (:func:`grow_bisection`, :func:`gggp_bisection`)
    are sequential vertex-at-a-time loops; what *can* be hoisted out of them
    -- the relative-weight rows, each vertex's neighbour and edge-weight
    lists, the weighted degrees -- is computed here once per graph instead
    of once per vertex per candidate (~20 candidates per bisection call).
    """

    __slots__ = ("graph", "relw", "relwl", "nbrs", "wgts", "wdegl", "src")

    def __init__(self, graph: Graph):
        self.graph = graph
        t = graph.vwgt.sum(axis=0).astype(np.float64)
        t[t == 0] = 1.0
        self.relw = graph.vwgt / t
        self.relwl = self.relw.tolist()
        bounds = graph.xadj.tolist()
        adjncy = graph.adjncy.tolist()
        adjwgt = graph.adjwgt.tolist()
        self.nbrs = [adjncy[bounds[v] : bounds[v + 1]] for v in range(graph.nvtxs)]
        self.wgts = [adjwgt[bounds[v] : bounds[v + 1]] for v in range(graph.nvtxs)]
        self.src = np.repeat(np.arange(graph.nvtxs, dtype=np.int64), np.diff(graph.xadj))
        wdeg = np.zeros(graph.nvtxs, dtype=np.int64)
        np.add.at(wdeg, self.src, graph.adjwgt)
        self.wdegl = wdeg.tolist()


def grow_bisection(graph: Graph, target: float = 0.5, seed=None, scratch=None) -> np.ndarray:
    """Graph-growing bisection: BFS from a random seed vertex, absorbing
    whole BFS fronts into side 0 until some constraint reaches the target
    fraction of its total weight.

    The frontier loop runs on plain-Python lists with a running load
    maximum -- the per-vertex ``load.max(initial=0.0)`` re-check and
    ``neighbors(v).tolist()`` conversions of the original are hoisted into
    ``scratch`` (see :class:`_GenScratch`); seeded outputs are unchanged
    (a per-vertex oracle in ``tests/oracles.py`` pins the parity).
    """
    rng = as_rng(seed)
    n = graph.nvtxs
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if scratch is None or scratch.graph is not graph:
        scratch = _GenScratch(graph)
    relwl = scratch.relwl
    nbrs = scratch.nbrs
    rng_m = range(graph.ncon)

    wl = [1] * n
    start = int(rng.integers(n))
    load = [0.0] * graph.ncon
    mx = 0.0  # == max(load): loads only grow, so a running max is exact
    visited = [False] * n
    frontier = [start]
    visited[start] = True
    while frontier and mx < target:
        nxt = []
        for v in frontier:
            if mx >= target:
                break
            wl[v] = 0
            w = relwl[v]
            for j in rng_m:
                load[j] += w[j]
                if load[j] > mx:
                    mx = load[j]
            for u in nbrs[v]:
                if not visited[u]:
                    visited[u] = True
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            # Disconnected graph: restart from an unvisited vertex.
            rest = [u for u in range(n) if not visited[u]]
            if rest and mx < target:
                s = rest[int(rng.integers(len(rest)))]
                visited[s] = True
                frontier = [s]
    return np.array(wl, dtype=np.int64)


def gggp_bisection(graph: Graph, target: float = 0.5, seed=None, scratch=None) -> np.ndarray:
    """Greedy graph growing with gains (GGGP): grow side 0 from a random
    seed vertex, always absorbing the frontier vertex whose move costs the
    least cut (max gain), until some constraint reaches the target
    fraction.

    Compared with plain BFS growing, the gain ordering hugs the region's
    boundary contours, giving noticeably smaller initial cuts on irregular
    graphs at the price of a priority queue.  As in :func:`grow_bisection`
    the absorb loop runs on scratch-hoisted Python lists with identical
    seeded output (pinned against a per-vertex oracle in
    ``tests/oracles.py``).
    """
    from ..refine.pq import LazyMaxPQ

    rng = as_rng(seed)
    n = graph.nvtxs
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if scratch is None or scratch.graph is not graph:
        scratch = _GenScratch(graph)
    relwl = scratch.relwl
    nbrs = scratch.nbrs
    wgts = scratch.wgts
    wdeg = scratch.wdegl
    rng_m = range(graph.ncon)

    wl = [1] * n
    in_zero = [False] * n
    load = [0.0] * graph.ncon
    mx = 0.0
    # gain of absorbing v = (edge weight to side 0) - (edge weight to side 1)
    wto0 = [0] * n

    q = LazyMaxPQ()

    def absorb(v: int):
        nonlocal mx
        wl[v] = 0
        in_zero[v] = True
        w = relwl[v]
        for j in rng_m:
            load[j] += w[j]
            if load[j] > mx:
                mx = load[j]
        q.remove(v)
        for u, wt in zip(nbrs[v], wgts[v]):
            if in_zero[u]:
                continue
            wto0[u] += wt
            q.insert(u, 2 * wto0[u] - wdeg[u])

    absorb(int(rng.integers(n)))
    while mx < target:
        top = q.pop()
        if top is None:
            # Disconnected remainder: restart from an unabsorbed vertex.
            rest = [u for u in range(n) if not in_zero[u]]
            if not rest:
                break
            absorb(rest[int(rng.integers(len(rest)))])
            continue
        absorb(int(top[0]))
    return np.array(wl, dtype=np.int64)


def _candidate_schedule(methods, ntries: int):
    """Round-by-round method schedule: the first round runs every method,
    later rounds only the seed-sensitive growing methods
    (:data:`FOCUS_METHODS`, intersected with ``methods``)."""
    methods = tuple(methods)
    focus = tuple(m for m in FOCUS_METHODS if m in methods) or methods
    return [methods] + [focus] * (max(1, int(ntries)) - 1)


def _generate_candidate(method, graph, relw, target, child, gen_scratch) -> np.ndarray:
    if method == "greedy":
        where = greedy_bisection(relw, target, seed=child)
    elif method == "prefix":
        where = best_projection_bisection(relw, target=target, seed=child)
    elif method == "region":
        where = grow_bisection(graph, target, seed=child, scratch=gen_scratch)
    elif method == "gggp":
        where = gggp_bisection(graph, target, seed=child, scratch=gen_scratch)
    else:  # random
        where = (child.random(graph.nvtxs) > target).astype(np.int64)
    if graph.nvtxs >= 2 and (where.min() == where.max()):
        # Degenerate single-side candidate: flip one vertex so FM
        # has a boundary to work with.
        where[int(child.integers(graph.nvtxs))] ^= 1
    return where


def _raw_cuts(cands, gen_scratch, graph) -> np.ndarray:
    """Bulk raw edge cuts of stacked candidates (one vectorized sweep)."""
    if not cands:
        return np.zeros(0, dtype=np.int64)
    W = np.stack([w for _, w in cands])
    mask = W[:, gen_scratch.src] != W[:, graph.adjncy]
    return (mask.astype(np.int64) @ graph.adjwgt) // 2


def initial_bisection(
    graph: Graph,
    *,
    target_fracs=(0.5, 0.5),
    ubvec=1.05,
    ntries: int = 5,
    refine_passes: int = 6,
    seed=None,
    methods=INITIAL_METHODS,
    patience: int = 6,
    tracer=None,
) -> np.ndarray:
    """Compute an initial bisection of (a small) ``graph``.

    Generates up to ``ntries`` rounds of candidates (the first round over
    all of ``methods``, later rounds over the growing methods only),
    FM-refines each *distinct* candidate with a shared scratch, and returns
    the best by (feasible, cut, balance-excess).  Refinement stops early
    once the best key has gone ``patience`` refined candidates without
    improving (``patience=0`` disables the plateau detector).  ``tracer``
    records one ``initbisect`` span per call (candidate counts, winning
    method/cut).
    """
    if graph.nvtxs == 0:
        return np.zeros(0, dtype=np.int64)
    unknown = set(methods) - set(INITIAL_METHODS)
    if unknown:
        raise PartitionError(f"unknown initial bisection methods: {sorted(unknown)}")
    if not tuple(methods):
        raise PartitionError("initial bisection needs at least one method")
    tracer = as_tracer(tracer)
    rng = as_rng(seed)
    fr = np.asarray(target_fracs, dtype=np.float64)
    fr = fr / fr.sum()
    target = float(fr[0])
    fracs2 = (target, 1.0 - target)

    schedule = _candidate_schedule(methods, ntries)
    # One batch draw for every candidate seed == the oracle's per-candidate
    # spawn() sequence (spawn draws the same integers from the same
    # stream), so the candidate order is deterministic and independent of
    # how far the plateau detector lets the schedule run.
    seeds = rng.integers(0, 2**63 - 1, size=sum(len(r) for r in schedule), dtype=np.int64)

    gen_scratch = _GenScratch(graph)
    fm_scratch = BisectScratch(graph, target_fracs=fracs2, ubvec=ubvec)
    relw = fm_scratch.relw

    best_where = None
    best_key = None
    best_method = None
    generated = 0
    refined = 0
    dedup_skips = 0
    plateau_stop = False
    raw_best = None
    since = 0
    seen: set[bytes] = set()

    with tracer.span("initbisect", nvtxs=graph.nvtxs) as sp:
        idx = 0
        for rnd in schedule:
            if plateau_stop:
                break
            # Batched generation: produce the whole round, then score the
            # stacked candidates' raw cuts in one vectorized sweep.
            cands = []
            for method in rnd:
                child = np.random.default_rng(int(seeds[idx]))
                idx += 1
                cands.append(
                    (method, _generate_candidate(method, graph, relw, target, child, gen_scratch))
                )
            generated += len(cands)
            raw = _raw_cuts(cands, gen_scratch, graph)
            if raw.size:
                rb = int(raw.min())
                raw_best = rb if raw_best is None else min(raw_best, rb)
            for method, where in cands:
                wb = where.tobytes()
                if wb in seen:
                    # FM refinement is a pure function of the start vector,
                    # so re-refining a duplicate cannot change the outcome;
                    # skip it (doesn't count as non-improving for the
                    # plateau detector).
                    dedup_skips += 1
                    continue
                seen.add(wb)
                st = fm2way_refine(
                    graph,
                    where,
                    target_fracs=fracs2,
                    ubvec=ubvec,
                    npasses=refine_passes,
                    scratch=fm_scratch,
                )
                refined += 1
                key = (not st.feasible, st.final_cut, st.balance)
                if best_key is None or key < best_key:
                    best_key = key
                    best_where = where.copy()
                    best_method = method
                    since = 0
                else:
                    since += 1
                if patience > 0 and since >= patience:
                    plateau_stop = True
                    break
        if tracer.enabled:
            sp.set(
                candidates=refined,
                generated=generated,
                dedup_skips=dedup_skips,
                plateau_stop=plateau_stop,
                raw_best=raw_best,
                best_method=best_method,
                cut=int(best_key[1]),
                feasible=not best_key[0],
            )
            tracer.incr("initpart.candidates", refined)
            tracer.incr("initpart.generated", generated)
            if dedup_skips:
                tracer.incr("initpart.dedup_skips", dedup_skips)
            if plateau_stop:
                tracer.incr("initpart.plateau_stops")
    if tracer.enabled:
        # Deferred import: partition.__init__ reaches this module during
        # its own initialisation, so a top-level import would be circular.
        from ..partition._events import emit_level_event

        emit_level_event(
            tracer, phase="initbisect", direction="initial", level=0,
            graph=graph, where=best_where, nparts=2, fracs=fr,
            cut=int(best_key[1]), seconds=sp.seconds)
    return best_where
