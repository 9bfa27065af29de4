"""Balanced-bisection algorithms for multi-weight vertex sets.

The SC'98 paper devotes its theory section to the question: *given vertices
with m-component weight vectors, how balanced a bisection can we guarantee?*
The granularity of the instance is ``wmax`` -- the largest single relative
weight component of any vertex -- and the guarantees are additive in
``wmax``.

This module implements (topology-free) bisection algorithms on the weight
matrix alone; they are used to seed the initial partitioning of the coarsest
graph and are the subject of the property-based test-suite:

* :func:`greedy_bisection` -- LPT-style: place vertices in decreasing order
  of their largest component, each on the side that minimises the worst
  resulting (target-scaled) overload.  For ``m = 1`` this enjoys the classic
  guarantee ``|load - target| <= wmax``; for small ``m`` the observed excess
  stays below ``m * wmax`` on all tested instance families.
* :func:`prefix_bisection` -- sort by a scalar projection of the weight
  vectors and cut the sorted order at the prefix with the least worst-case
  overload.  Strong when the constraints are positively correlated.
* :func:`alternating_bisection` -- sort by a projection and deal vertices to
  the sides alternately; the complementary construction, strong when the
  constraints are *anti*-correlated (where no prefix of any order can
  balance both weights).
* :func:`best_projection_bisection` -- try prefix and alternating cuts over
  all pairwise-difference projections plus random ones; keep the best.
"""

from __future__ import annotations

import numpy as np

from .._rng import as_rng
from ..errors import WeightError

__all__ = [
    "greedy_bisection",
    "prefix_bisection",
    "alternating_bisection",
    "best_projection_bisection",
    "bisection_excess",
]


def _check_relw(relw) -> np.ndarray:
    relw = np.asarray(relw, dtype=np.float64)
    if relw.ndim != 2:
        raise WeightError("relw must be (n, m)")
    if np.any(relw < 0):
        raise WeightError("relative weights must be non-negative")
    return relw


def bisection_excess(relw: np.ndarray, where: np.ndarray, target: float = 0.5) -> float:
    """Worst overload of a bisection: ``max_{side, con} load - target_side``
    where loads are column sums of ``relw`` per side and the side targets
    are ``(target, 1 - target)`` of each column's total.

    0 means the split is at least as balanced as the targets ask for.
    """
    relw = _check_relw(relw)
    where = np.asarray(where)
    tot = relw.sum(axis=0)
    load0 = relw[where == 0].sum(axis=0)
    load1 = tot - load0
    return float(
        max(
            (load0 - target * tot).max(initial=0.0),
            (load1 - (1.0 - target) * tot).max(initial=0.0),
        )
    )


def greedy_bisection(relw: np.ndarray, target: float = 0.5, seed=None) -> np.ndarray:
    """LPT-style greedy bisection of a multi-weight vertex set.

    Vertices are processed in decreasing order of their largest component
    (ties broken by the RNG permutation baked into the sort key); each is
    assigned to the side whose *worst scaled overload* after placement is
    smaller.  Overloads are scaled by the side targets so asymmetric splits
    (``target != 0.5``) work.

    The placement loop is inherently sequential (each decision depends on
    the running loads), so it runs on plain-Python floats: at ``m <= 5``
    elements per step, ufunc dispatch costs more than the arithmetic.  The
    operations are IEEE-identical to the NumPy-row version (a per-row
    oracle in ``tests/oracles.py`` pins the parity), so seeded outputs are
    unchanged.

    Returns a 0/1 side vector.
    """
    relw = _check_relw(relw)
    if not (0.0 < target < 1.0):
        raise WeightError("target must be in (0, 1)")
    n, m = relw.shape
    rng = as_rng(seed)
    order = np.lexsort((rng.random(n), -relw.max(axis=1)))

    tot = relw.sum(axis=0)
    tgt = np.stack([target * tot, (1.0 - target) * tot])
    # Guard vacuous constraints (zero column total).
    scale = np.where(tgt > 0, tgt, 1.0)

    tgt0, tgt1 = tgt[0].tolist(), tgt[1].tolist()
    sc0, sc1 = scale[0].tolist(), scale[1].tolist()
    relwl = relw.tolist()
    load0 = [0.0] * m
    load1 = [0.0] * m
    rng_m = range(m)
    where = np.zeros(n, dtype=np.int64)
    wl = [0] * n
    for v in order.tolist():
        w = relwl[v]
        # Worst relative overload if placed on each side.
        over0 = max((load0[j] + w[j] - tgt0[j]) / sc0[j] for j in rng_m)
        over1 = max((load1[j] + w[j] - tgt1[j]) / sc1[j] for j in rng_m)
        if over0 <= over1:
            for j in rng_m:
                load0[j] += w[j]
        else:
            for j in rng_m:
                load1[j] += w[j]
            wl[v] = 1
    where[:] = wl
    return where


def prefix_bisection(relw: np.ndarray, projection=None, target: float = 0.5) -> np.ndarray:
    """Cut the vertex order sorted by a scalar projection at the best
    prefix.

    ``projection`` defaults to ``w[:, 0] - w[:, 1]`` for ``m >= 2`` (the
    2-constraint separation key) and to ``w[:, 0]`` for ``m = 1``.  All
    ``n + 1`` prefixes are evaluated with cumulative sums (O(n m) total) and
    the one minimising :func:`bisection_excess` wins; prefix = side 0.
    """
    relw = _check_relw(relw)
    n, m = relw.shape
    if projection is None:
        projection = relw[:, 0] - relw[:, 1] if m >= 2 else relw[:, 0]
    proj = np.asarray(projection, dtype=np.float64)
    if proj.shape != (n,):
        raise WeightError("projection must be a per-vertex scalar")

    order = np.argsort(-proj, kind="stable")
    pref = np.vstack([np.zeros((1, m)), np.cumsum(relw[order], axis=0)])
    tot = relw.sum(axis=0)
    over0 = (pref - target * tot).max(axis=1)
    over1 = ((tot - pref) - (1.0 - target) * tot).max(axis=1)
    worst = np.maximum(np.maximum(over0, over1), 0.0)
    k = int(np.argmin(worst))
    where = np.ones(n, dtype=np.int64)
    where[order[:k]] = 0
    return where


def alternating_bisection(relw: np.ndarray, projection=None, target: float = 0.5) -> np.ndarray:
    """Sort by a scalar projection and deal vertices to the two sides like
    cards (side 0 gets a ``target`` share of each consecutive window).

    Adjacent vertices in the sorted order have similar weight vectors, so
    alternating them splits every local stretch of the order evenly -- this
    is the construction that handles *anti-correlated* constraints, where no
    prefix cut of any order can balance both weights (the prefix hoards the
    first constraint and starves the second).  For ``target != 0.5`` the
    deal assigns vertex ``r`` of the order to side 0 iff
    ``floor((r+1) * target) > floor(r * target)``.
    """
    relw = _check_relw(relw)
    n, m = relw.shape
    if projection is None:
        projection = relw[:, 0] - relw[:, 1] if m >= 2 else relw[:, 0]
    proj = np.asarray(projection, dtype=np.float64)
    if proj.shape != (n,):
        raise WeightError("projection must be a per-vertex scalar")
    order = np.argsort(-proj, kind="stable")
    r = np.arange(n, dtype=np.float64)
    take0 = np.floor((r + 1) * target) > np.floor(r * target)
    where = np.ones(n, dtype=np.int64)
    where[order[take0]] = 0
    return where


def _projection_stack(relw: np.ndarray, ntries: int, rng) -> np.ndarray:
    """The ``(T, n)`` projection family of :func:`best_projection_bisection`:
    canonical pairwise differences plus random signed combinations (same RNG
    draw order as the per-projection loop)."""
    n, m = relw.shape
    projections = []
    for i in range(m):
        for j in range(i + 1, m):
            projections.append(relw[:, i] - relw[:, j])
    if not projections:
        projections.append(relw[:, 0])
    for _ in range(max(0, ntries - len(projections))):
        coef = rng.normal(size=m)
        projections.append(relw @ coef)
    return np.stack(projections)


def best_projection_bisection(
    relw: np.ndarray, ntries: int = 8, target: float = 0.5, seed=None
) -> np.ndarray:
    """Best prefix bisection over several projections: the canonical pairwise
    differences ``w_i - w_j`` plus random signed combinations.

    Generalises :func:`prefix_bisection` to ``m > 2``; returns the candidate
    with the smallest :func:`bisection_excess`.

    All ``T`` projections are evaluated as one stacked batch -- a single
    row-wise argsort / gather / cumsum instead of ``T`` python-loop
    iterations of :func:`prefix_bisection` -- with the winning candidate
    selected by exactly the same per-candidate excess computation as the
    per-projection loop (an oracle in ``tests/oracles.py`` pins the seeded
    parity).
    """
    relw = _check_relw(relw)
    n, m = relw.shape
    rng = as_rng(seed)
    P = _projection_stack(relw, ntries, rng)
    T = P.shape[0]

    # Batched prefix cuts: per-row stable sort, gathered cumulative loads,
    # worst overload per prefix length, best prefix per projection.
    order = np.argsort(-P, axis=1, kind="stable")          # (T, n)
    pref = np.zeros((T, n + 1, m))
    np.cumsum(relw[order], axis=1, out=pref[:, 1:])
    tot = relw.sum(axis=0)
    over0 = (pref - target * tot).max(axis=2)              # (T, n+1)
    over1 = ((tot - pref) - (1.0 - target) * tot).max(axis=2)
    worst = np.maximum(np.maximum(over0, over1), 0.0)
    ks = np.argmin(worst, axis=1)                          # (T,)

    # Alternating deals share the sorted orders; the take-mask is order-free.
    r = np.arange(n, dtype=np.float64)
    take0 = np.floor((r + 1) * target) > np.floor(r * target)

    best_where = None
    best_exc = np.inf
    for t in range(T):
        where_pref = np.ones(n, dtype=np.int64)
        where_pref[order[t, : ks[t]]] = 0
        where_alt = np.ones(n, dtype=np.int64)
        where_alt[order[t][take0]] = 0
        for where in (where_pref, where_alt):
            # Same ops as bisection_excess (index-order subset sums), with
            # the input checks and column totals hoisted out of the loop.
            load0 = relw[where == 0].sum(axis=0)
            exc = float(
                max(
                    (load0 - target * tot).max(initial=0.0),
                    ((tot - load0) - (1.0 - target) * tot).max(initial=0.0),
                )
            )
            if exc < best_exc:
                best_exc = exc
                best_where = where
    return best_where
