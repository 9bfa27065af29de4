"""K1 -- Micro-benchmarks of the hot kernels (real pytest-benchmark timing
loops, unlike the macro experiment tables).

These are the profiling anchors the HPC-Python methodology asks for: if a
code change regresses contraction, matching, degree setup, or the balance
sums, these numbers move first.
"""

from __future__ import annotations

import numpy as np
import pytest

from _util import get_graph

from repro.coarsen import balanced_edge_matching, heavy_edge_matching, matching_to_cmap
from repro.graph import contract
from repro.refine import compute_2way_degrees, edge_cut
from repro.weights import part_weights, type1_region_weights

GRAPH = "sm3"  # 12k vertices / ~50k edges


@pytest.fixture(scope="module")
def g():
    return get_graph(GRAPH)


@pytest.fixture(scope="module")
def gw(g):
    return g.with_vwgt(type1_region_weights(g, 3, seed=0))


@pytest.fixture(scope="module")
def cmap_pair(g):
    match = heavy_edge_matching(g, seed=1)
    return matching_to_cmap(match)


def test_kernel_matching(benchmark, g):
    out = benchmark(heavy_edge_matching, g, 2)
    assert out.shape == (g.nvtxs,)


# Unit-weight m=1 matching never reads a balanced-edge score; the Type-1
# m=3 graph is the path coarsening takes on multi-constraint inputs.
@pytest.mark.parametrize("matcher", [heavy_edge_matching, balanced_edge_matching],
                         ids=["hem", "bem"])
def test_kernel_matching_m3(benchmark, gw, matcher):
    out = benchmark(matcher, gw, 2)
    assert out.shape == (gw.nvtxs,)


def test_kernel_contract(benchmark, g, cmap_pair):
    cmap, nc = cmap_pair
    coarse = benchmark(contract, g, cmap, nc)
    assert coarse.nvtxs == nc


def test_kernel_edge_cut(benchmark, g):
    part = np.arange(g.nvtxs) % 8
    cut = benchmark(edge_cut, g, part)
    assert cut > 0


def test_kernel_2way_degrees(benchmark, g):
    where = np.arange(g.nvtxs) % 2
    id_, ed = benchmark(compute_2way_degrees, g, where)
    assert id_.shape == (g.nvtxs,)


def test_kernel_part_weights(benchmark, gw):
    part = np.arange(gw.nvtxs) % 16
    pw = benchmark(part_weights, gw.vwgt, part, 16)
    assert pw.shape == (16, 3)


def test_kernel_bfs_regions(benchmark, g):
    from repro.graph import bfs_regions

    regions = benchmark(bfs_regions, g, 32, 3)
    assert regions.shape == (g.nvtxs,)
