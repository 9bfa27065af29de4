"""Unit tests for matchings and the coarsener."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsen import (
    Hierarchy,
    balanced_edge_matching,
    coarsen,
    heavy_edge_matching,
    is_matching,
    matching_to_cmap,
    random_matching,
)
from repro.errors import GraphError
from repro.graph import Graph, from_edges, path_graph, star_graph
from repro.weights import random_vwgt, relative_weights


class TestMatchingValidity:
    @pytest.mark.parametrize("matcher", [random_matching, heavy_edge_matching,
                                         balanced_edge_matching])
    def test_valid_matching(self, mesh500, matcher):
        match = matcher(mesh500, seed=0)
        assert is_matching(mesh500, match)

    def test_matches_most_vertices_on_mesh(self, mesh500):
        match = heavy_edge_matching(mesh500, seed=1)
        unmatched = np.count_nonzero(match == np.arange(500))
        assert unmatched < 0.2 * 500

    def test_star_graph_matches_one_pair(self):
        g = star_graph(10)
        match = heavy_edge_matching(g, seed=0)
        matched = np.count_nonzero(match != np.arange(10))
        assert matched == 2  # centre + one leaf

    def test_isolated_vertices_unmatched(self):
        g = Graph([0, 0, 0], [])
        for matcher in (random_matching, heavy_edge_matching):
            match = matcher(g, seed=0)
            assert np.array_equal(match, np.arange(2))

    def test_deterministic_given_seed(self, mesh500):
        a = heavy_edge_matching(mesh500, seed=7)
        b = heavy_edge_matching(mesh500, seed=7)
        assert np.array_equal(a, b)


class TestHeavyEdgePreference:
    def test_prefers_heavy_edge(self):
        # Triangle with one heavy edge: HEM must pick it whichever vertex
        # is visited first among its endpoints... only guaranteed when the
        # heavy edge is incident to the first visited vertex, so use a path
        # where vertex 1 sees weights 1 and 100.
        g = from_edges(3, [(0, 1), (1, 2)], weights=[1, 100])
        for seed in range(5):
            match = heavy_edge_matching(g, seed=seed)
            # Pair (1, 2) must be matched whenever vertex 1 or 2 is visited
            # before 0 pairs with 1; with weight 100 vs 1, vertex 1 always
            # prefers 2, and vertex 0's only option is 1.
            if match[1] != 1:
                assert match[1] in (0, 2)
                if match[0] == 0:  # 0 left alone -> 1 must have chosen 2
                    assert match[1] == 2

    def test_balanced_tiebreak(self):
        """Equal-weight edges: the HEM tie-break must pick the partner whose
        combined weight vector is most uniform."""
        from tests.oracles import _best_candidate

        relw = relative_weights(np.array([[10, 0], [0, 10], [10, 0]]))
        cand = np.array([1, 2])
        ws = np.array([5, 5])
        # Combined with 1: (0.5, 1.0)-ish -> uniform; with 2: (1.0, 0.0).
        assert _best_candidate(relw[0], cand, ws, relw, heavy_first=True) == 1

    def test_heavy_edge_wins_over_balance_in_hem(self):
        from tests.oracles import _best_candidate

        relw = relative_weights(np.array([[10, 0], [0, 10], [10, 0]]))
        cand = np.array([1, 2])
        ws = np.array([1, 100])  # skewed pair has the much heavier edge
        assert _best_candidate(relw[0], cand, ws, relw, heavy_first=True) == 2

    def test_balanced_edge_primary(self):
        """BEM: balance dominates even against a much heavier edge."""
        from tests.oracles import _best_candidate

        relw = relative_weights(np.array([[10, 0], [0, 10], [10, 0]]))
        cand = np.array([1, 2])
        ws = np.array([1, 100])
        assert _best_candidate(relw[0], cand, ws, relw, heavy_first=False) == 1

    def test_bem_heavy_tiebreak(self):
        from tests.oracles import _best_candidate

        # Both candidates give identical balance scores; BEM falls back to
        # the heavier edge.
        relw = relative_weights(np.array([[1, 1], [1, 1], [1, 1]]))
        cand = np.array([1, 2])
        ws = np.array([3, 7])
        assert _best_candidate(relw[0], cand, ws, relw, heavy_first=False) == 2


class TestMatchingToCmap:
    def test_pairs_share_coarse_id(self):
        match = np.array([1, 0, 2, 4, 3])
        cmap, ncoarse = matching_to_cmap(match)
        assert ncoarse == 3
        assert cmap[0] == cmap[1]
        assert cmap[3] == cmap[4]
        assert cmap[2] not in (cmap[0], cmap[3])

    def test_all_unmatched_is_identity(self):
        cmap, ncoarse = matching_to_cmap(np.arange(5))
        assert ncoarse == 5
        assert np.array_equal(cmap, np.arange(5))

    def test_ids_are_dense(self, mesh500):
        match = heavy_edge_matching(mesh500, seed=3)
        cmap, ncoarse = matching_to_cmap(match)
        assert set(np.unique(cmap)) == set(range(ncoarse))


class TestCoarsen:
    def test_reaches_target_size(self, mesh2000):
        hier = coarsen(mesh2000, coarsen_to=100, seed=0)
        assert hier.coarsest.nvtxs <= 150  # close to target (one level may overshoot)
        assert hier.nlevels >= 3

    def test_weight_conservation_all_levels(self, mesh2000):
        g = mesh2000.with_vwgt(random_vwgt(2000, 3, seed=1))
        hier = coarsen(g, coarsen_to=80, seed=0)
        total = g.total_vwgt()
        for lvl in hier.levels:
            assert np.array_equal(lvl.graph.total_vwgt(), total)
        assert np.array_equal(hier.coarsest.total_vwgt(), total)

    def test_exposed_edge_weight_decreases(self, mesh2000):
        hier = coarsen(mesh2000, coarsen_to=50, seed=2)
        exposed = [lvl.graph.total_adjwgt() for lvl in hier.levels]
        exposed.append(hier.coarsest.total_adjwgt())
        assert all(a >= b for a, b in zip(exposed, exposed[1:]))
        assert exposed[-1] < exposed[0]

    def test_sizes_monotone(self, mesh2000):
        hier = coarsen(mesh2000, coarsen_to=64, seed=3)
        sizes = hier.sizes()
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == 2000

    def test_project_to_finest_shapes(self, mesh500):
        hier = coarsen(mesh500, coarsen_to=40, seed=4)
        coarse_part = np.arange(hier.coarsest.nvtxs) % 4
        fine = hier.project_to_finest(coarse_part)
        assert fine.shape == (500,)
        assert set(np.unique(fine)) <= set(range(4))

    def test_small_graph_no_levels(self):
        g = path_graph(5)
        hier = coarsen(g, coarsen_to=10, seed=0)
        assert hier.nlevels == 0
        assert hier.coarsest is g

    def test_stall_detection_on_star_without_two_hop(self):
        # Plain matching can only remove one vertex per level on a star;
        # min_shrink stops it early.
        g = star_graph(64)
        hier = coarsen(g, coarsen_to=4, min_shrink=0.95, two_hop=False, seed=0)
        assert hier.coarsest.nvtxs > 4  # stalled, but terminated

    def test_two_hop_rescues_star(self):
        # Two-hop pairing of leaves keeps the star coarsening to target.
        g = star_graph(64)
        hier = coarsen(g, coarsen_to=4, min_shrink=0.95, two_hop=True, seed=0)
        assert hier.coarsest.nvtxs <= 8

    def test_two_hop_matching_properties(self, mesh500):
        from repro.coarsen import heavy_edge_matching, two_hop_matching

        base = heavy_edge_matching(mesh500, seed=1)
        aug = two_hop_matching(mesh500, base, seed=2)
        n = mesh500.nvtxs
        # Involutive and monotone: previously matched pairs are untouched.
        assert np.array_equal(aug[aug], np.arange(n))
        prev = base != np.arange(n)
        assert np.array_equal(aug[prev], base[prev])
        assert np.count_nonzero(aug != np.arange(n)) >= np.count_nonzero(prev)

    def test_two_hop_respects_degree_cap(self):
        from repro.coarsen import two_hop_matching

        g = star_graph(10)
        base = np.arange(10)
        aug = two_hop_matching(g, base, seed=0, max_pair_degree=0)
        assert np.array_equal(aug, base)  # nothing eligible

    def test_matching_scheme_selectable(self, mesh500):
        for scheme in ("rm", "hem", "bem"):
            hier = coarsen(mesh500, coarsen_to=60, matching=scheme, seed=5)
            assert hier.coarsest.nvtxs < 500

    def test_unknown_scheme_rejected(self, mesh500):
        with pytest.raises(GraphError):
            coarsen(mesh500, matching="nope")

    def test_bad_coarsen_to(self, mesh500):
        with pytest.raises(GraphError):
            coarsen(mesh500, coarsen_to=0)

    def test_deterministic(self, mesh500):
        a = coarsen(mesh500, coarsen_to=70, seed=9)
        b = coarsen(mesh500, coarsen_to=70, seed=9)
        assert a.sizes() == b.sizes()
        assert a.coarsest == b.coarsest

    def test_hem_coarsens_faster_than_rm_on_weighted(self, mesh2000):
        """HEM removes more exposed edge weight per level than random
        matching (the motivation for heavy-edge matching)."""
        us, vs, _ = mesh2000.edge_arrays()
        rng = np.random.default_rng(0)
        g = from_edges(2000, np.stack([us, vs], axis=1),
                       rng.integers(1, 50, size=us.shape[0]))
        h_hem = coarsen(g, coarsen_to=100, matching="hem", seed=1)
        h_rm = coarsen(g, coarsen_to=100, matching="rm", seed=1)
        # Compare exposed edge weight at similar sizes (level 2).
        assert h_hem.levels[2].graph.total_adjwgt() <= h_rm.levels[2].graph.total_adjwgt()
