"""Output checker run on every op of every workload.

Everything is recomputed from the graph's CSR arrays with numpy -- never
through ``repro.metrics`` or ``repro.weights`` -- so a bug in the program's
own bookkeeping cannot hide itself.  A failed check raises
:class:`CheckError`; the runner counts it and the command exits non-zero.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Same slack the program documents for its feasibility verdicts: imbalance
#: ratios are float64 quotients of integer loads, so a partition sitting on
#: its cap can land a few ulps above it.
FEASIBILITY_EPS = 1e-9

#: Relative tolerance when comparing a reported imbalance with the
#: recomputed one (same formula, possibly another summation order).
IMBALANCE_RTOL = 1e-12


class CheckError(AssertionError):
    """An op returned an output that does not match its recomputation."""


def digest(part) -> str:
    """Content digest of a part vector (dtype-normalised)."""
    return hashlib.sha256(np.ascontiguousarray(part, dtype=np.int64).tobytes()).hexdigest()


def recompute(graph, part, nparts: int) -> tuple[int, np.ndarray]:
    """``(edge_cut, per-constraint imbalance)`` of ``part`` on ``graph``."""
    xadj = np.asarray(graph.xadj)
    adjncy = np.asarray(graph.adjncy)
    adjwgt = np.asarray(graph.adjwgt, dtype=np.int64)
    src = np.repeat(np.arange(xadj.size - 1), np.diff(xadj))
    cut2 = int(adjwgt[part[src] != part[adjncy]].sum())
    if cut2 % 2:
        raise CheckError("asymmetric edge weights: directed cut is odd")
    vwgt = np.asarray(graph.vwgt, dtype=np.int64).reshape(part.size, -1)
    loads = np.zeros((nparts, vwgt.shape[1]), dtype=np.int64)
    np.add.at(loads, part, vwgt)
    totals = loads.sum(axis=0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = loads / (totals[None, :] * np.full(nparts, 1.0 / nparts)[:, None])
    ratios = np.where(np.isfinite(ratios), ratios, 0.0)
    return cut2 // 2, ratios.max(axis=0)


def check_result(graph, nparts: int, ubvec: float, res) -> dict:
    """Check one partition result (``PartitionResult`` or
    ``RepartitionResult``) against its recomputation.

    Returns ``{"cut", "max_imbalance", "feasible", "digest"}``.
    """
    part = np.asarray(res.part)
    if part.shape != (graph.nvtxs,):
        raise CheckError(f"part vector has shape {part.shape}, expected ({graph.nvtxs},)")
    if part.size and (part.min() < 0 or part.max() >= nparts):
        raise CheckError(f"part ids outside [0, {nparts})")
    part = part.astype(np.int64)
    sizes = np.bincount(part, minlength=nparts)
    if np.any(sizes == 0):
        raise CheckError(f"empty parts: {np.flatnonzero(sizes == 0).tolist()}")
    cut, imb = recompute(graph, part, nparts)
    if int(res.edgecut) != cut:
        raise CheckError(f"reported edgecut {res.edgecut} != recomputed {cut}")
    reported = np.asarray(res.imbalance, dtype=np.float64)
    if reported.shape != imb.shape or not np.allclose(
            reported, imb, rtol=IMBALANCE_RTOL, atol=0.0):
        raise CheckError(f"reported imbalance {reported.tolist()} != recomputed {imb.tolist()}")
    feasible = bool(np.all(imb <= ubvec + FEASIBILITY_EPS))
    if bool(res.feasible) != feasible:
        raise CheckError(f"reported feasible={res.feasible}, recomputed {feasible}")
    return {"cut": cut, "max_imbalance": float(imb.max()),
            "feasible": feasible, "digest": digest(part)}
