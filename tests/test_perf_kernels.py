"""Parity and property tests for the vectorized/incremental hot-path
kernels (PR 2).

Every optimized kernel is pinned against the pre-existing per-vertex
implementation, kept as a ``_reference_*`` oracle in ``tests/oracles.py``:

* the round-synchronous HEM/BEM kernel vs :func:`_reference_greedy_matching`
  (with and without partition labels, down a match->contract chain, and on
  a BEM near-tie that needs the scalar tolerance pick);
* :func:`random_matching` vs :func:`_reference_random_matching`;
* vectorised :meth:`TwoWayState.build_queues` vs the per-vertex oracle
  (identical pop sequences);
* maintained ``id/ed``/boundary state of :class:`KWayState` and
  :class:`TwoWayState` vs from-scratch recomputation after random move
  sequences.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coarsen.matching import (
    _edge_balance_scores,
    balanced_edge_matching,
    heavy_edge_matching,
    is_matching,
    matching_to_cmap,
    random_matching,
    two_hop_matching,
)
from repro.graph import Graph, contract, from_edges, mesh_like
from repro.refine.fm2way import TwoWayState
from repro.refine.gain import compute_2way_degrees, edge_cut, kway_degrees
from repro.refine.kwayref import KWayState
from repro.weights import type1_region_weights
from tests.oracles import (
    _balance_score,
    _reference_boundary,
    _reference_build_queues,
    _reference_greedy_matching,
    _reference_random_matching,
)

SEEDS = [0, 7, 42]


def _rand_graph(n, extra, seed, m=1, weighted=True):
    rng = np.random.default_rng(seed)
    edges = {(i - 1, i) for i in range(1, n)}
    for _ in range(extra):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = sorted(edges)
    w = rng.integers(1, 10, size=len(edges)) if weighted else None
    g = from_edges(n, np.asarray(edges), w)
    if m > 1:
        vw = rng.integers(0, 20, size=(n, m))
        for c in range(m):
            if vw[:, c].sum() == 0:
                vw[int(rng.integers(n)), c] = 1
        g = g.with_vwgt(vw.astype(np.int64))
    return g


def _graphs():
    out = [mesh_like(400, seed=3)]
    rng = np.random.default_rng(11)
    vw = rng.integers(1, 8, size=(out[0].nvtxs, 3)).astype(np.int64)
    out.append(out[0].with_vwgt(vw))
    out.append(_rand_graph(120, 300, seed=5, m=2))
    out.append(_rand_graph(60, 40, seed=9, m=4))
    return out


# --------------------------------------------------------------------- #
# Matching kernels
# --------------------------------------------------------------------- #

GREEDY = {"heavy": heavy_edge_matching, "balanced": balanced_edge_matching}


def _parity_graphs():
    """Seeded graphs for the HEM/BEM parity sweep: weighted and unit edge
    weights, m = 1-4, a constraint column summing to 0 (so some edges
    have a combined weight sum of 0), isolated vertices, and the empty and
    edgeless graphs."""
    out = list(_graphs())
    for seed in range(24):
        m = 1 + seed % 4
        out.append(_rand_graph(20 + 11 * seed, 3 * seed, seed=100 + seed, m=m,
                               weighted=seed % 2 == 0))
    g = _rand_graph(90, 150, seed=7, m=3)
    vw = g.vwgt.copy()
    vw[:, 1] = 0
    vw[::3] = 0
    out.append(g.with_vwgt(vw))
    # Vertices 7 and 8 have no edges.
    edges = np.array([[0, 1], [1, 2], [2, 3], [0, 3], [3, 4], [5, 6]])
    out.append(from_edges(9, edges, np.array([2, 1, 2, 3, 1, 1])))
    out.append(from_edges(0, np.empty((0, 2), dtype=np.int64)))
    out.append(from_edges(6, np.empty((0, 2), dtype=np.int64)))
    return out


@pytest.mark.parametrize("primary", ["heavy", "balanced"])
def test_greedy_matching_parity(primary):
    for i, g in enumerate(_parity_graphs()):
        labels = np.random.default_rng(i).integers(0, 3, size=g.nvtxs)
        for seed in SEEDS:
            for con in (None, labels):
                got = GREEDY[primary](g, seed, constraint=con)
                want = _reference_greedy_matching(g, seed, None, primary,
                                                  constraint=con)
                assert np.array_equal(got, want)
                assert is_matching(g, got)
                if con is not None:
                    assert np.array_equal(con[got], con)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(0, 60), extra=st.integers(0, 150), m=st.integers(1, 4),
       weighted=st.booleans(), labelled=st.booleans(),
       seed=st.integers(0, 2**31 - 1))
def test_greedy_matching_parity_fuzz(n, extra, m, weighted, labelled, seed):
    rng = np.random.default_rng(seed)
    edges = {(min(u, v), max(u, v))
             for u, v in rng.integers(0, max(n, 1), size=(extra, 2)).tolist()
             if u != v}
    edges = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    w = rng.integers(1, 4, size=len(edges)) if weighted else None
    g = from_edges(n, edges, w).with_vwgt(rng.integers(0, 4, size=(n, m)))
    con = rng.integers(0, 2, size=n) if labelled else None
    for primary, matcher in GREEDY.items():
        got = matcher(g, seed, constraint=con)
        want = _reference_greedy_matching(g, seed, None, primary, constraint=con)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("primary", ["heavy", "balanced"])
def test_greedy_matching_parity_down_a_hierarchy(primary):
    # Three match -> contract levels of a Type-1 m=3 mesh: coarse graphs
    # carry summed vertex and edge weights, unlike the unit-weight inputs.
    g = mesh_like(1500, seed=4)
    g = g.with_vwgt(type1_region_weights(g, 3, seed=2))
    t = g.vwgt.sum(axis=0).astype(np.float64)
    for level in range(3):
        relw = g.vwgt / t
        got = GREEDY[primary](g, level, relw=relw)
        want = _reference_greedy_matching(g, level, relw, primary)
        assert np.array_equal(got, want)
        g = contract(g, *matching_to_cmap(got))
    assert g.adjwgt.max() > 1


def test_bem_near_tie_uses_the_tolerance_scan():
    # Vertex 0's neighbours 1, 2, 3 score 1.0, 1.0 + 7e-13 and 1.0 + 1.4e-12:
    # each is within BEM's 1e-12 of the next but 3 is not within it of 1,
    # so the scan's comparisons are not transitive.  Seen whole, the scan
    # walks 1 -> 2 (heavier) -> 3 (heavier); once 4 has taken 2 it keeps 1.
    g = from_edges(5, np.array([[0, 1], [0, 2], [0, 3], [2, 4]]),
                   np.array([1, 2, 3, 1])).with_vwgt(np.ones((5, 2), dtype=np.int64))
    d = 0.175e-12
    relw = np.array([[0.0, 0.0], [0.75, 0.25], [0.75 + d, 0.25 - d],
                     [0.75 + 2 * d, 0.25 - 2 * d], [0.5, 0.5]])
    partners = set()
    for seed in range(20):
        got = balanced_edge_matching(g, seed, relw=relw)
        assert np.array_equal(got, _reference_greedy_matching(g, seed, relw, "balanced"))
        partners.add(int(got[0]))
    # Both outcomes occur: 0 visited first takes 3 (a lexicographic pick
    # would take 1); 4 visited before 0 takes 2 first, and 0 then takes 1.
    assert partners == {1, 3}


def test_edge_balance_scores_match_scalar():
    # numpy sums a row left to right below 8 components and pairwise from 8.
    for m in (1, 2, 3, 7, 8, 9, 16):
        g = _rand_graph(50, 120, seed=2, m=m)
        t = g.vwgt.sum(axis=0, dtype=np.float64)
        t[t == 0] = 1.0
        relw = g.vwgt / t
        scores = _edge_balance_scores(g, relw)
        src = np.repeat(np.arange(g.nvtxs), np.diff(g.xadj))
        for i in range(g.adjncy.shape[0]):
            assert scores[i] == _balance_score(relw[src[i]] + relw[g.adjncy[i]]), m


def test_random_matching_parity():
    for g in _graphs():
        for seed in SEEDS:
            got = random_matching(g, seed)
            want = _reference_random_matching(g, seed)
            assert np.array_equal(got, want)
            assert is_matching(g, got)


def test_two_hop_matching_valid_and_deterministic():
    # A star stalls plain matching; two-hop must pair the leaves.
    star = from_edges(6, np.array([[0, i] for i in range(1, 6)]))
    match = np.arange(6, dtype=np.int64)
    match[0], match[1] = 1, 0  # hub already taken
    out1 = two_hop_matching(star, match, seed=3)
    out2 = two_hop_matching(star, match, seed=3)
    assert np.array_equal(out1, out2)
    assert np.array_equal(out1[out1], np.arange(6))
    assert (out1 != np.arange(6)).sum() > (match != np.arange(6)).sum()
    # Already-matched pairs are untouched.
    assert out1[0] == 1 and out1[1] == 0


def test_is_matching_vectorized():
    g = from_edges(4, np.array([[0, 1], [1, 2], [2, 3]]))
    good = np.array([1, 0, 3, 2])
    assert is_matching(g, good)
    assert not is_matching(g, np.array([3, 1, 2, 0]))  # 0-3 not an edge
    assert not is_matching(g, np.array([1, 2, 0, 3]))  # not involutive
    assert not is_matching(g, np.array([1, 0, 3, 9]))  # out of range
    assert is_matching(g, np.arange(4))  # empty matching


# --------------------------------------------------------------------- #
# 2-way FM state
# --------------------------------------------------------------------- #

def test_build_queues_parity_pop_sequences():
    for g in _graphs():
        rng = np.random.default_rng(17)
        where = rng.integers(0, 2, size=g.nvtxs).astype(np.int64)
        for boundary_only in (True, False):
            st_a = TwoWayState(g, where.copy())
            st_b = TwoWayState(g, where.copy())
            qa = st_a.build_queues(boundary_only=boundary_only)
            qb = _reference_build_queues(st_b, boundary_only=boundary_only)
            for side in range(2):
                for c in range(g.ncon):
                    a, b = qa[side][c], qb[side][c]
                    assert len(a) == len(b)
                    while True:
                        ta, tb = a.pop(), b.pop()
                        assert ta == tb
                        if ta is None:
                            break


def test_build_queues_respects_locked():
    g = _rand_graph(40, 60, seed=1, m=2)
    where = (np.arange(g.nvtxs) % 2).astype(np.int64)
    st = TwoWayState(g, where)
    locked = [False] * g.nvtxs
    locked[0] = locked[5] = True
    queues = st.build_queues(boundary_only=False, locked=locked)
    keys = {k for row in queues for q in row for k in q._prio}
    assert 0 not in keys and 5 not in keys


def test_twoway_state_consistent_after_random_moves():
    for g in _graphs():
        rng = np.random.default_rng(23)
        where = rng.integers(0, 2, size=g.nvtxs).astype(np.int64)
        st = TwoWayState(g, where)
        for v in rng.integers(0, g.nvtxs, size=200).tolist():
            st.move(v)
        id_, ed = compute_2way_degrees(g, st.where)
        assert np.array_equal(st.id_, id_)
        assert np.array_equal(st.ed, ed)
        assert st.cut == edge_cut(g, st.where)
        for side in range(2):
            assert np.allclose(st.pw[side], st.relw[st.where == side].sum(axis=0))


# --------------------------------------------------------------------- #
# K-way state
# --------------------------------------------------------------------- #

def test_kway_state_consistent_after_random_moves():
    for g in _graphs():
        nparts = 5
        rng = np.random.default_rng(31)
        where = rng.integers(0, nparts, size=g.nvtxs).astype(np.int64)
        st = KWayState(g, where, nparts)
        for _ in range(300):
            v = int(rng.integers(g.nvtxs))
            d = int(rng.integers(nparts))
            st.move(v, d)
        id_, ed = kway_degrees(g, st.where)
        assert np.array_equal(st.id_, id_)
        assert np.array_equal(st.ed, ed)
        assert np.array_equal(st.boundary(), _reference_boundary(st))
        assert np.array_equal(st.counts, np.bincount(st.where, minlength=nparts))
        for p in range(nparts):
            assert np.allclose(st.pw[p], st.relw[st.where == p].sum(axis=0))


def test_kway_neighbor_weights_matches_bruteforce():
    g = _rand_graph(50, 120, seed=4, m=2)
    nparts = 4
    rng = np.random.default_rng(8)
    where = rng.integers(0, nparts, size=g.nvtxs).astype(np.int64)
    st = KWayState(g, where, nparts)
    for v in range(g.nvtxs):
        want: dict[int, int] = {}
        for u, w in zip(g.neighbors(v).tolist(), g.edge_weights(v).tolist()):
            p = int(where[u])
            want[p] = want.get(p, 0) + w
        assert st.neighbor_weights(v) == want


# --------------------------------------------------------------------- #
# Graph-layer kernels
# --------------------------------------------------------------------- #

def test_contract_validate_audit():
    # The coarse graph must pass full validation when asked for -- the
    # belt-and-braces audit of the validate=False fast path.
    g = _rand_graph(80, 200, seed=6, m=3)
    match = random_matching(g, 0)
    cmap, nc = matching_to_cmap(match)
    coarse = contract(g, cmap, nc, validate=True)
    assert coarse.nvtxs == nc
    assert np.array_equal(coarse.vwgt.sum(axis=0), g.vwgt.sum(axis=0))


def test_validate_composite_key_symmetry_check():
    # Symmetric graph passes; breaking one directed weight fails.
    g = _rand_graph(30, 50, seed=12)
    g.validate()
    bad = g.adjwgt.copy()
    bad[0] += 1
    with pytest.raises(Exception):
        Graph(g.xadj, g.adjncy, g.vwgt, bad)


def test_contract_coords_match_scatter():
    # Coarse centroids equal an np.add.at scatter bit for bit: both sum
    # every group in fine-vertex order.
    g = mesh_like(600, seed=5)
    assert g.coords is not None
    g.coords = g.coords * np.pi + 1e-3  # inexact sums exercise the order
    cmap, nc = matching_to_cmap(heavy_edge_matching(g, 3))
    coarse = contract(g, cmap, nc)
    csum = np.zeros((nc, g.coords.shape[1]))
    np.add.at(csum, cmap, g.coords)
    assert np.array_equal(coarse.coords, csum / np.bincount(cmap)[:, None])
