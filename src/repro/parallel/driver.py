"""Coarse-grain parallel multilevel multi-constraint partitioner.

Pipeline (one orchestrator, pluggable executors -- see
:mod:`repro.parallel.fabric`):

1. **Parallel coarsening** -- conflict-arbitrated heavy-edge matching
   (:func:`repro.parallel.coarsen.parallel_matching`) followed by
   contraction; the halo exchange needed to fold cross-rank edges travels
   the fabric (cost-model-charged on the simulator, really shipped on the
   shm executor).
2. **Initial partitioning** -- the coarsest graph is gathered to rank 0 and
   partitioned with the serial multi-constraint recursive bisection (the
   standard practice: the coarsest graph is tiny).
3. **Parallel uncoarsening** -- project and refine with the reservation
   scheme (:func:`repro.parallel.refine.parallel_kway_refine`).

``executor="sim"`` (default) runs every rank step inline on a
deterministic BSP simulation with an alpha-beta cost model;
``executor="shm"`` runs the identical rank program in spawned worker
processes over ``multiprocessing.shared_memory`` CSR views
(:mod:`repro.parallel.shm`) -- same messages, same partition, real wall
clock.  The returned :class:`ParallelResult` carries the partition quality
plus whichever time accounting the executor produced (simulated seconds or
wall seconds).

Robustness (see ``docs/robustness.md`` and ``docs/parallel.md`` for the
full contract): the driver accepts a fault specification (``faults=``,
simulator only) injected through a :class:`~repro.faults.FaultyCluster`
and a :class:`~repro.faults.RecoveryPolicy` (``recovery=``).  Each phase
runs under retry-with-backoff for transient communication failures and a
phase budget measured on the executor's clock -- simulated seconds under
``sim``, **real wall-clock** under ``shm``, where backoff really sleeps
and a crashed or hung worker process surfaces as
:class:`~repro.errors.RankCrashedError` /
:class:`~repro.errors.PhaseTimeoutError`.  On unrecoverable failure the
driver *degrades gracefully*: it falls back to the serial k-way
partitioner, marks the result (``result.degraded``,
``result.degraded_reason``) and records a ``degraded_fallback`` trace span
plus a ``parallel.degraded`` counter so ``TraceReport`` shows exactly what
happened.  In strict mode (``strict=True`` or
``RecoveryPolicy(allow_degraded=False)``) it raises
:class:`~repro.errors.DegradedResult` instead.  With no faults injected
the two executors are bit-identical to each other (asserted by
:func:`repro.parallel.parity.run_parity`), and the fallback partition is
derived from ``options.seed`` alone, so even a crashed run is reproducible
across executors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._rng import as_rng, spawn
from ..coarsen.matching import matching_to_cmap
from ..errors import CommError, DegradedResult, FaultError, FaultSpecError, PhaseTimeoutError
from ..faults.recovery import RecoveryPolicy, run_with_retries
from ..faults.spec import as_fault_spec
from ..graph.csr import Graph
from ..partition._events import emit_level_event
from ..partition.config import PartitionOptions
from ..partition.recursive import partition_recursive
from ..partition.validate import validate_request
from ..refine.gain import edge_cut
from ..trace import as_tracer
from ..weights.balance import FEASIBILITY_EPS, as_ubvec, imbalance
from .coarsen import parallel_matching
from .contract import parallel_contract
from .distgraph import DistGraph
from .fabric import SimFabric, as_fabric
from .refine import parallel_kway_refine
from .simcomm import CostModel, SimCluster

__all__ = ["ParallelResult", "parallel_part_graph"]


@dataclass
class ParallelResult:
    """Partition plus per-executor execution accounting."""

    part: np.ndarray
    nparts: int
    nranks: int
    edgecut: int
    imbalance: np.ndarray
    feasible: bool
    #: :class:`~repro.parallel.simcomm.SimStats` (``executor="sim"``) or
    #: :class:`~repro.parallel.shm.ShmStats` (``executor="shm"``).
    stats: object
    levels: int
    refine_stats: list[dict]
    #: seconds per phase on the executor's clock (simulated or wall):
    #: {"coarsen": ..., "initpart": ..., "refine": ...}
    phase_times: dict | None = None
    #: True when the parallel pipeline failed and the result came from the
    #: serial fallback path (documented graceful degradation).
    degraded: bool = False
    #: human-readable cause of the degradation (``None`` when not degraded).
    degraded_reason: str | None = None
    #: injected-fault counts (``repro.faults.FaultStats.to_dict``) when a
    #: fault spec was active, else ``None``.
    faults: dict | None = field(repr=False, default=None)
    #: transient communication failures absorbed by retry-with-backoff.
    retries: int = 0
    #: which executor produced the run ("sim" or "shm").
    executor: str = "sim"

    @property
    def simulated_time(self) -> float:
        """The executor's clock: modelled seconds under ``sim``, real wall
        seconds under ``shm`` (kept under the historical name)."""
        return self.stats.simulated_time

    @property
    def max_imbalance(self) -> float:
        """Worst imbalance over all constraints."""
        return float(self.imbalance.max(initial=0.0))

    def summary(self) -> str:
        imb = ", ".join(f"{x:.3f}" for x in self.imbalance)
        clock = "t_wall" if self.executor == "shm" else "t_sim"
        out = (
            f"parallel(p={self.nranks}) k={self.nparts}: cut={self.edgecut} "
            f"imbalance=[{imb}] {clock}={self.simulated_time * 1e3:.2f}ms "
            f"{'feasible' if self.feasible else 'INFEASIBLE'}"
        )
        if self.executor != "sim":
            out += f" executor={self.executor}"
        if self.retries:
            out += f" retries={self.retries}"
        if self.degraded:
            out += " DEGRADED(serial fallback)"
        return out


def _make_fabric(executor, nranks, spec, cost, tracer):
    """Resolve the ``executor`` argument to a fabric instance."""
    if not isinstance(executor, str):
        fabric = as_fabric(executor)
        if spec.enabled and fabric.kind != "sim":
            raise FaultSpecError(
                "fault specs are simulator-only; use ShmFabric's "
                "inject_crash hook to test real worker failure")
        return fabric
    if executor == "sim":
        if spec.enabled:
            from ..faults.injector import FaultyCluster

            cluster: SimCluster = FaultyCluster(nranks, spec, cost)
        else:
            cluster = SimCluster(nranks, cost)
        return SimFabric(cluster)
    if executor == "shm":
        if spec.enabled:
            raise FaultSpecError(
                "fault specs are simulator-only (the injector screens "
                "simulated collectives); run the shm executor against real "
                "failures via ShmFabric(inject_crash=...)")
        from .shm import ShmFabric

        return ShmFabric(nranks, cost=cost, tracer=tracer)
    raise FaultSpecError(f"unknown executor {executor!r} (use 'sim' or 'shm')")


def parallel_part_graph(
    graph: Graph,
    nparts: int,
    nranks: int,
    *,
    options: PartitionOptions | None = None,
    cost: CostModel | None = None,
    tracer=None,
    faults=None,
    recovery: RecoveryPolicy | None = None,
    strict: bool = False,
    executor="sim",
) -> ParallelResult:
    """Partition ``graph`` with the coarse-grain parallel formulation.

    ``nranks`` ranks cooperate; quality should track the serial k-way
    partitioner while the time accounting exhibits the parallel scaling
    shape (see benchmark P1).  ``executor`` selects how ranks execute:
    ``"sim"`` (deterministic in-process BSP simulation, default),
    ``"shm"`` (real spawned processes over shared-memory CSR views -- same
    messages, bit-identical partition, wall-clock timing), or an existing
    fabric instance (it is closed when the run finishes).  ``tracer``
    records the run under a ``parallel_partition`` root span whose phase
    spans carry wall time plus the executor clock (``sim_seconds``).

    ``faults`` (a :class:`repro.faults.FaultSpec`, spec string, or dict)
    injects deterministic network faults into the *simulated* executor;
    ``recovery`` tunes the retry/backoff/timeout/degradation behaviour
    (timeouts fire on real wall-clock under ``shm``); ``strict=True``
    forbids the serial fallback (failures raise
    :class:`~repro.errors.DegradedResult` instead).
    """
    if options is None:
        options = PartitionOptions()
    validate_request(graph, nparts, options=options, nranks=nranks)
    tracer = as_tracer(tracer)
    rng = as_rng(options.seed)
    ub = as_ubvec(options.ubvec, graph.ncon)
    spec = as_fault_spec(faults)
    policy = recovery if recovery is not None else RecoveryPolicy()
    if strict:
        policy = policy.with_(allow_degraded=False)
    fabric = _make_fabric(executor, nranks, spec, cost, tracer)

    progress = {"levels": 0, "retries": 0, "phase_times": {}}
    try:
        with tracer.span("parallel_partition", nvtxs=graph.nvtxs,
                         nedges=graph.nedges, ncon=graph.ncon, nparts=nparts,
                         nranks=nranks, executor=fabric.kind) as root:
            try:
                result = _pipeline(graph, nparts, nranks, options, fabric,
                                   policy, tracer, root, rng, ub, progress)
            except (CommError, FaultError) as exc:
                tracer.incr("parallel.degraded")
                if not policy.allow_degraded:
                    if tracer.enabled:
                        root.set(degraded_refused=type(exc).__name__)
                    raise DegradedResult(
                        f"parallel run failed ({type(exc).__name__}: {exc}); "
                        "serial fallback disabled by strict mode") from exc
                result = _degraded_result(graph, nparts, nranks, options,
                                          fabric, tracer, root, rng, ub,
                                          progress, exc)
    finally:
        fabric.close()
    result.retries = progress["retries"]
    result.executor = fabric.kind
    fault_stats = getattr(fabric, "faults", None)
    if fault_stats is not None:
        result.faults = fault_stats.to_dict()
        if tracer.enabled:
            for kind, count in result.faults.items():
                if count:
                    tracer.incr(f"faults.{kind}", count)
    return result


def _retrying(progress, make_attempt, fabric, policy, *, phase, deadline,
              tracer):
    """``run_with_retries`` + retry bookkeeping in ``progress``."""
    value, retries = run_with_retries(make_attempt, fabric, policy,
                                      phase=phase, deadline=deadline,
                                      tracer=tracer)
    progress["retries"] += retries
    return value


def _pipeline(graph, nparts, nranks, options, fabric, policy, tracer, root,
              rng, ub, progress) -> ParallelResult:
    """The parallel pipeline proper (may raise Comm/Fault errors)."""
    coarsen_to = max(options.kway_coarsen_factor * nparts, options.coarsen_to)

    _elapsed = fabric.elapsed
    phase_marks = {"start": _elapsed()}

    # ---- Parallel coarsening.
    fabric.set_phase("coarsen")
    deadline = policy.deadline(_elapsed())
    levels: list[tuple[Graph, np.ndarray]] = []
    cur = graph
    with tracer.span("coarsen") as csp:
        while cur.nvtxs > coarsen_to and len(levels) < options.max_coarsen_levels:
            if deadline is not None and _elapsed() > deadline:
                raise PhaseTimeoutError(
                    f"phase 'coarsen' exceeded its time budget "
                    f"({policy.phase_timeout:g}s)")
            with tracer.span("coarsen_level", nvtxs=cur.nvtxs) as sp:
                dist = DistGraph(cur, nranks)

                def match_attempt(dist=dist):
                    (mrng,) = spawn(rng, 1)
                    return parallel_matching(dist, fabric, seed=mrng)

                match = _retrying(progress, match_attempt, fabric, policy,
                                  phase="coarsen", deadline=deadline,
                                  tracer=tracer)
                cmap, ncoarse = matching_to_cmap(match)
                if ncoarse > options.min_shrink * cur.nvtxs:
                    sp.set(stalled=True)
                    break
                levels.append((cur, cmap))
                nxt = _retrying(
                    progress,
                    lambda dist=dist, cmap=cmap, ncoarse=ncoarse:
                        parallel_contract(dist, fabric, cmap, ncoarse),
                    fabric, policy, phase="coarsen", deadline=deadline,
                    tracer=tracer)
                if tracer.enabled:
                    sp.set(nedges=cur.nedges, coarse_nvtxs=nxt.nvtxs,
                           shrink=ncoarse / cur.nvtxs)
                cur = nxt
                progress["levels"] = len(levels)
        phase_marks["coarsen"] = _elapsed()
        progress["phase_times"]["coarsen"] = (
            phase_marks["coarsen"] - phase_marks["start"])
        if tracer.enabled:
            csp.set(levels=[g.nvtxs for g, _ in levels] + [cur.nvtxs],
                    sim_seconds=phase_marks["coarsen"] - phase_marks["start"])
    if tracer.enabled:
        tracer.observe("parallel.phase_seconds.coarsen",
                       progress["phase_times"]["coarsen"])

    # ---- Initial partitioning at rank 0 (gather + serial RB + bcast).
    fabric.set_phase("initpart")
    deadline = policy.deadline(_elapsed())
    with tracer.span("initpart", nvtxs=cur.nvtxs) as isp:

        def init_attempt():
            # Zeroed (not np.empty) so the parity harness can digest the
            # payload bytes deterministically; only the size is charged.
            fabric.gather(
                [np.zeros(cur.nvtxs // max(nranks, 1), dtype=np.int64)] * nranks)
            (irng,) = spawn(rng, 1)
            init_opts = options.with_(seed=irng)
            w = partition_recursive(cur, nparts, init_opts, tracer=tracer)
            fabric.add_compute(0, 20 * (cur.nvtxs + 2 * cur.nedges))
            fabric.bcast(w)
            return w

        where = _retrying(progress, init_attempt, fabric, policy,
                          phase="initpart", deadline=deadline, tracer=tracer)
        phase_marks["initpart"] = _elapsed()
        progress["phase_times"]["initpart"] = (
            phase_marks["initpart"] - phase_marks["coarsen"])
        if tracer.enabled:
            isp.set(cut=int(edge_cut(cur, where)),
                    sim_seconds=phase_marks["initpart"] - phase_marks["coarsen"])
    if tracer.enabled:
        tracer.observe("parallel.phase_seconds.initpart",
                       progress["phase_times"]["initpart"])
        emit_level_event(
            tracer, phase="initpart", direction="initial", level=len(levels),
            graph=cur, where=where, nparts=nparts, fracs=None,
            cut=int(edge_cut(cur, where)),
            seconds=progress["phase_times"]["initpart"])

    # ---- Parallel uncoarsening with reservation refinement.
    fabric.set_phase("refine")
    deadline = policy.deadline(_elapsed())
    refine_stats: list[dict] = []
    with tracer.span("refine") as rsp:
        for idx in range(len(levels) - 1, -1, -1):
            fine, cmap = levels[idx]
            if deadline is not None and _elapsed() > deadline:
                raise PhaseTimeoutError(
                    f"phase 'refine' exceeded its time budget "
                    f"({policy.phase_timeout:g}s)")
            where = where[cmap]
            t_level = _elapsed()
            with tracer.span("level", nvtxs=fine.nvtxs) as sp:
                dist = DistGraph(fine, nranks)

                def refine_attempt(dist=dist, where=where):
                    (rrng,) = spawn(rng, 1)
                    trial = where.copy()
                    st = parallel_kway_refine(
                        dist, fabric, trial, nparts,
                        ubvec=ub, npasses=options.kway_refine_passes, seed=rrng,
                    )
                    return trial, st

                where, st = _retrying(progress, refine_attempt, fabric,
                                      policy, phase="refine",
                                      deadline=deadline, tracer=tracer)
                refine_stats.append(st)
                if tracer.enabled:
                    sp.set(cut=int(edge_cut(fine, where)),
                           **{k: v for k, v in st.items()
                              if isinstance(v, (bool, int, float))})
                    tracer.incr("parallel.committed", int(st["committed"]))
            if tracer.enabled:
                tracer.observe("parallel.level_seconds.refine",
                               _elapsed() - t_level)
                emit_level_event(
                    tracer, phase="refine", direction="uncoarsening",
                    level=idx, graph=fine, where=where, nparts=nparts,
                    fracs=None, cut=int(edge_cut(fine, where)),
                    moves=int(st.get("committed", 0)),
                    passes=int(st.get("passes", 0)),
                    seconds=_elapsed() - t_level)
        phase_marks["refine"] = _elapsed()
        progress["phase_times"]["refine"] = (
            phase_marks["refine"] - phase_marks["initpart"])
        if tracer.enabled:
            rsp.set(sim_seconds=phase_marks["refine"] - phase_marks["initpart"])
    if tracer.enabled:
        tracer.observe("parallel.phase_seconds.refine",
                       progress["phase_times"]["refine"])

    phase_times = {
        "coarsen": phase_marks["coarsen"] - phase_marks["start"],
        "initpart": phase_marks["initpart"] - phase_marks["coarsen"],
        "refine": phase_marks["refine"] - phase_marks["initpart"],
    }

    imb = imbalance(graph.vwgt, where, nparts)
    if tracer.enabled:
        root.set(cut=int(edge_cut(graph, where)),
                 max_imbalance=float(imb.max(initial=0.0)),
                 feasible=bool(np.all(imb <= ub + FEASIBILITY_EPS)),
                 sim_seconds=phase_marks["refine"] - phase_marks["start"])
    return ParallelResult(
        phase_times=phase_times,
        part=where,
        nparts=nparts,
        nranks=nranks,
        edgecut=edge_cut(graph, where),
        imbalance=imb,
        feasible=bool(np.all(imb <= ub + FEASIBILITY_EPS)),
        stats=fabric.stats,
        levels=len(levels),
        refine_stats=refine_stats,
    )


def _fallback_rng(options, rng):
    """Seed for the serial fallback.

    Derived from ``options.seed`` alone (not from how far the parallel
    run progressed) so a degraded run reproduces the same partition
    regardless of where -- or on which executor -- the failure struck.
    Only when the caller passed a live ``Generator`` as the seed is the
    pipeline rng used (there is no stable value to restart from)."""
    if isinstance(options.seed, np.random.Generator):
        (srng,) = spawn(rng, 1)
        return srng
    (srng,) = spawn(as_rng(options.seed), 1)
    return srng


def _degraded_result(graph, nparts, nranks, options, fabric, tracer, root,
                     rng, ub, progress, exc) -> ParallelResult:
    """Serial fallback: the documented graceful-degradation path."""
    from ..partition.api import part_graph

    reason = f"{type(exc).__name__}: {exc}"
    t_fail = fabric.elapsed()
    with tracer.span("degraded_fallback", cause=type(exc).__name__,
                     reason=str(exc)):
        srng = _fallback_rng(options, rng)
        serial = part_graph(graph, nparts, method="kway",
                            options=options.with_(seed=srng), tracer=tracer)
    # The fallback runs on the one surviving host: on the simulator its
    # compute is charged to the modelled clock (same constant as the
    # serial initial-partitioning step); on the shm executor the wall
    # clock already paid for it.
    fabric.charge_fallback(graph)
    phase_times = dict(progress["phase_times"])
    phase_times["fallback"] = fabric.elapsed() - t_fail
    if tracer.enabled:
        root.set(degraded=True, degraded_reason=reason,
                 cut=int(serial.edgecut),
                 max_imbalance=float(serial.imbalance.max(initial=0.0)),
                 feasible=serial.feasible)
    return ParallelResult(
        part=serial.part,
        nparts=nparts,
        nranks=nranks,
        edgecut=serial.edgecut,
        imbalance=serial.imbalance,
        feasible=serial.feasible,
        stats=fabric.stats,
        levels=progress["levels"],
        refine_stats=[],
        phase_times=phase_times,
        degraded=True,
        degraded_reason=reason,
    )
