"""Multilevel recursive bisection (the paper's primary algorithm).

``partition_recursive`` splits the requested ``k`` into ``ceil(k/2)`` /
``floor(k/2)`` parts (so arbitrary ``k`` works), computes a multilevel
bisection with the matching target fraction, and recurses into the two
induced subgraphs.

Per-split tolerance: if the final partition must satisfy ``ubvec`` then each
of the ``ceil(log2 k)`` nested splits gets tolerance
``1 + (ub - 1) / ceil(log2 k)``; the compounded tolerance is then
``(1 + d)^log2(k) ≈ ub``.  Any residual violation is repaired by a global
k-way balancing pass at the end.

Performance: this driver is the main consumer of the 2-way FM kernel --
each bisection FM-refines ``ntries × |methods|`` initial candidates at the
coarsest level plus one projection per level, so nearly all of its runtime
sits in :mod:`repro.refine.fm2way`'s incremental state (see
``docs/performance.md``; candidates are scored straight from
:class:`~repro.refine.fm2way.FMStats` rather than by rebuilding a state
per candidate).
"""

from __future__ import annotations

import math

import numpy as np

from .._rng import as_rng, spawn
from ..coarsen.coarsener import coarsen
from ..errors import PartitionError
from ..graph.csr import Graph
from ..graph.ops import induced_subgraph
from ..initpart.bisect import initial_bisection
from ..refine.fm2way import fm2way_refine
from ..refine.gain import edge_cut
from ..refine.kwayref import balance_kway
from ..trace import as_tracer
from ..weights.balance import as_target_fracs, as_ubvec
from ._events import emit_level_event
from .config import PartitionOptions

__all__ = ["partition_recursive", "multilevel_bisection"]


def multilevel_bisection(
    graph: Graph,
    target: float,
    ubvec,
    options: PartitionOptions,
    seed=None,
    tracer=None,
) -> np.ndarray:
    """One multilevel bisection: coarsen, bisect the coarsest graph, then
    project + FM-refine back up.  Returns a 0/1 vector; does not mutate
    ``graph``.  ``tracer`` records the coarsening levels, the initial
    bisection and one ``fm_level`` span per uncoarsening step."""
    tracer = as_tracer(tracer)
    rng = as_rng(seed)
    if graph.nvtxs == 0:
        return np.zeros(0, dtype=np.int64)

    if graph.nvtxs > 2 * options.coarsen_to:
        hier = coarsen(
            graph,
            coarsen_to=options.coarsen_to,
            max_levels=options.max_coarsen_levels,
            matching=options.matching,
            min_shrink=options.min_shrink,
            seed=rng,
            tracer=tracer,
        )
    else:
        hier = None

    coarsest = hier.coarsest if hier is not None else graph
    (init_rng, refine_rng) = spawn(rng, 2)
    where = initial_bisection(
        coarsest,
        target_fracs=(target, 1.0 - target),
        ubvec=ubvec,
        ntries=options.init_ntries,
        seed=init_rng,
        methods=options.init_methods,
        diverse_rounds=options.init_diverse_rounds,
        patience=options.init_patience,
        strict=options.strict_ntries,
        tracer=tracer,
    )
    if hier is not None:
        for idx in range(len(hier.levels) - 1, -1, -1):
            lvl = hier.levels[idx]
            where = where[lvl.cmap]
            with tracer.span("fm_level", nvtxs=lvl.graph.nvtxs) as sp:
                st = fm2way_refine(
                    lvl.graph,
                    where,
                    target_fracs=(target, 1.0 - target),
                    ubvec=ubvec,
                    npasses=options.refine_passes,
                    seed=refine_rng,
                )
                if tracer.enabled:
                    sp.set(cut=int(st.final_cut), moves=int(st.moves),
                           passes=int(st.passes), rollbacks=int(st.rollbacks))
                    tracer.incr("fm.moves", int(st.moves))
                    tracer.incr("fm.passes", int(st.passes))
                    tracer.incr("fm.rollbacks", int(st.rollbacks))
            if tracer.enabled:
                tracer.observe("level_seconds.fm_refine", sp.seconds)
                emit_level_event(
                    tracer, phase="fm_refine", direction="uncoarsening",
                    level=idx, graph=lvl.graph, where=where, nparts=2,
                    fracs=np.array([target, 1.0 - target]),
                    cut=int(st.final_cut), cut_before=int(st.initial_cut),
                    moves=int(st.moves), passes=int(st.passes),
                    rollbacks=int(st.rollbacks), seconds=sp.seconds)
    return where


def partition_recursive(
    graph: Graph,
    nparts: int,
    options: PartitionOptions | None = None,
    tracer=None,
    target_fracs=None,
) -> np.ndarray:
    """Multilevel recursive-bisection k-way partitioning.

    Returns the part vector (``0..nparts-1``); ``graph`` is not mutated.
    ``tracer`` records one ``bisect`` span per split (vertex count, part
    count, cut) under an ``rb`` span covering the whole recursion.
    ``target_fracs`` (length ``nparts``, summing to 1) requests
    *non-uniform* part sizes -- e.g. heterogeneous processors; every
    constraint uses the same per-part fraction, as in the paper's
    formulation.
    """
    if options is None:
        options = PartitionOptions()
    if nparts < 1:
        raise PartitionError("nparts must be >= 1")
    if nparts > max(graph.nvtxs, 1):
        raise PartitionError(
            f"cannot cut {graph.nvtxs} vertices into {nparts} non-empty parts"
        )
    tracer = as_tracer(tracer)
    rng = as_rng(options.seed)
    ub = as_ubvec(options.ubvec, graph.ncon)
    fracs = as_target_fracs(target_fracs, nparts)
    nsplits = max(1, math.ceil(math.log2(max(nparts, 2))))
    ub_split = 1.0 + (ub - 1.0) / nsplits

    with tracer.span("rb", nvtxs=graph.nvtxs, nparts=nparts):
        where = np.zeros(graph.nvtxs, dtype=np.int64)
        _rb(graph, nparts, np.arange(graph.nvtxs, dtype=np.int64), where,
            ub_split, options, rng, tracer, fracs)
        balance_kway(graph, where, nparts, ubvec=ub, target_fracs=fracs)
    return where


def _rb(graph, nparts, ids, out, ub_split, options, rng, tracer,
        fracs=None) -> None:
    """Recursive worker: partition ``graph`` (the subgraph on original ids
    ``ids``) into ``nparts`` parts, writing part offsets into ``out``.
    ``fracs`` carries this block's per-part target fractions."""
    if nparts == 1:
        return
    kl = (nparts + 1) // 2
    kr = nparts - kl
    if fracs is None:
        fracs = np.full(nparts, 1.0 / nparts)
    target = float(fracs[:kl].sum() / fracs.sum())
    with tracer.span("bisect", nvtxs=graph.nvtxs, parts=nparts) as sp:
        (child,) = spawn(rng, 1)
        where = multilevel_bisection(graph, target, ub_split, options,
                                     seed=child, tracer=tracer)

        left = np.flatnonzero(where == 0)
        right = np.flatnonzero(where == 1)
        # Guarantee both sides can host their part counts even when the
        # bisection degenerated (tiny graphs): steal vertices if needed.
        left, right = _ensure_capacity(left, right, kl, kr)

        if tracer.enabled:
            sp.set(cut=int(edge_cut(graph, where)))
            tracer.incr("rb.bisections")

    out[ids[right]] += kl  # right block's parts start at offset kl
    if kl > 1:
        _rb(induced_subgraph(graph, left), kl, ids[left], out, ub_split,
            options, rng, tracer, fracs[:kl])
    if kr > 1:
        _rb(induced_subgraph(graph, right), kr, ids[right], out, ub_split,
            options, rng, tracer, fracs[kl:])


def _ensure_capacity(left, right, kl, kr):
    """Move arbitrary vertices across a degenerate split so each side has at
    least as many vertices as parts it must host."""
    left = list(left)
    right = list(right)
    while len(left) < kl and len(right) > kr:
        left.append(right.pop())
    while len(right) < kr and len(left) > kl:
        right.append(left.pop())
    return np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
