"""Unit tests for the balanced-bisection theory algorithms and the initial
bisection of the coarsest graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError, WeightError
from repro.graph import mesh_like
from repro.initpart import (
    best_projection_bisection,
    bisection_excess,
    greedy_bisection,
    grow_bisection,
    initial_bisection,
    prefix_bisection,
)
from repro.refine import edge_cut
from repro.weights import max_imbalance, random_vwgt, relative_weights


def _relw(n, m, seed):
    return relative_weights(random_vwgt(n, m, low=1, high=20, seed=seed))


class TestGreedyBisection:
    def test_single_constraint_bound(self):
        """Provable guarantee for m=1: excess <= wmax."""
        for seed in range(10):
            relw = _relw(64, 1, seed)
            where = greedy_bisection(relw, seed=seed)
            assert bisection_excess(relw, where) <= relw.max() + 1e-12

    def test_multi_constraint_quality(self):
        for m in (2, 3, 4, 5):
            relw = _relw(128, m, seed=m)
            where = greedy_bisection(relw, seed=m)
            # Empirical bound documented in the module: m * wmax.
            assert bisection_excess(relw, where) <= m * relw.max() + 1e-12

    def test_output_shape_and_values(self):
        relw = _relw(30, 2, 0)
        where = greedy_bisection(relw)
        assert where.shape == (30,)
        assert set(np.unique(where)) <= {0, 1}

    def test_asymmetric_target(self):
        relw = _relw(200, 2, 1)
        where = greedy_bisection(relw, target=0.25, seed=2)
        load0 = relw[where == 0].sum(axis=0)
        assert np.all(load0 <= 0.25 + 3 * relw.max())
        assert np.all(load0 >= 0.25 - 3 * relw.max())

    def test_bad_target(self):
        with pytest.raises(WeightError):
            greedy_bisection(_relw(10, 1, 0), target=0.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(WeightError):
            greedy_bisection(np.array([[-1.0]]))


class TestPrefixBisection:
    def test_correlated_constraints(self):
        rng = np.random.default_rng(0)
        # Positively correlated weights: the prefix cut's strong case.
        a = rng.integers(1, 20, size=100)
        relw = relative_weights(np.stack([a, a + rng.integers(0, 3, size=100)], axis=1))
        where = prefix_bisection(relw)
        assert bisection_excess(relw, where) <= 0.10

    def test_custom_projection(self):
        relw = _relw(50, 3, 1)
        where = prefix_bisection(relw, projection=relw[:, 2])
        assert set(np.unique(where)) <= {0, 1}

    def test_bad_projection_shape(self):
        with pytest.raises(WeightError):
            prefix_bisection(_relw(10, 2, 0), projection=np.ones(3))

    def test_single_constraint(self):
        relw = _relw(80, 1, 2)
        where = prefix_bisection(relw)
        assert bisection_excess(relw, where) <= relw.max() + 1e-12


class TestBestProjection:
    def test_beats_or_matches_single_prefix(self):
        for m in (2, 3, 4):
            relw = _relw(120, m, seed=10 + m)
            w1 = prefix_bisection(relw)
            w2 = best_projection_bisection(relw, seed=0)
            assert bisection_excess(relw, w2) <= bisection_excess(relw, w1) + 1e-12

    def test_five_constraints_feasible_quality(self):
        relw = _relw(256, 5, 3)
        where = best_projection_bisection(relw, seed=1)
        assert bisection_excess(relw, where) <= 0.10

    def test_anticorrelated_constraints(self):
        """The hard case: w2 decreases as w1 increases.  No prefix cut can
        balance both, the alternating deal must."""
        from repro.initpart import alternating_bisection

        rng = np.random.default_rng(4)
        a = rng.integers(1, 20, size=100)
        relw = relative_weights(np.stack([a, 21 - a], axis=1))
        walt = alternating_bisection(relw)
        assert bisection_excess(relw, walt) <= 0.05
        wbest = best_projection_bisection(relw, seed=0)
        assert bisection_excess(relw, wbest) <= 0.05

    def test_alternating_asymmetric_target(self):
        relw = _relw(300, 2, 9)
        from repro.initpart import alternating_bisection

        where = alternating_bisection(relw, target=0.25)
        load0 = relw[where == 0].sum(axis=0)
        assert np.all(np.abs(load0 - 0.25) <= 0.08)


class TestGrowBisection:
    def test_side0_connected_and_sized(self, mesh500):
        where = grow_bisection(mesh500, seed=0)
        frac = np.count_nonzero(where == 0) / 500
        assert 0.3 <= frac <= 0.75

    def test_weighted_growth(self, mesh500):
        g = mesh500.with_vwgt(random_vwgt(500, 2, low=1, high=10, seed=1))
        where = grow_bisection(g, target=0.5, seed=2)
        relw = relative_weights(g.vwgt)
        load0 = relw[where == 0].sum(axis=0)
        # Growth stops when the *max* constraint hits target; overshoot is
        # bounded by one BFS front.
        assert load0.max() >= 0.5 - 1e-9
        assert load0.max() <= 0.75

    def test_empty_graph(self):
        from repro.graph import Graph

        assert grow_bisection(Graph([0], [])).size == 0


class TestInitialBisection:
    def test_small_mesh_quality(self):
        g = mesh_like(150, seed=0)
        where = initial_bisection(g, ubvec=1.05, seed=1)
        assert max_imbalance(g.vwgt, where, 2) <= 1.05 + 1e-9
        # Geometric 150-vertex mesh: a decent bisection cuts far fewer than
        # the ~600 total edges.
        assert edge_cut(g, where) < 0.25 * g.total_adjwgt()

    def test_multiconstraint(self):
        g = mesh_like(200, seed=2).with_vwgt(random_vwgt(200, 3, low=1, high=9, seed=3))
        where = initial_bisection(g, ubvec=1.10, seed=4)
        assert max_imbalance(g.vwgt, where, 2) <= 1.10 + 1e-6

    def test_respects_target_fracs(self):
        g = mesh_like(300, seed=5)
        where = initial_bisection(g, target_fracs=(2 / 3, 1 / 3), ubvec=1.05, seed=6)
        frac0 = g.vwgt[where == 0].sum() / g.vwgt.sum()
        assert 0.60 <= frac0 <= 0.72

    def test_methods_selectable_and_validated(self):
        g = mesh_like(100, seed=7)
        for m in ("greedy", "prefix", "region", "random"):
            where = initial_bisection(g, seed=8, methods=(m,), ntries=1)
            assert where.shape == (100,)
        with pytest.raises(PartitionError):
            initial_bisection(g, methods=("nope",))

    def test_deterministic(self):
        g = mesh_like(120, seed=9)
        a = initial_bisection(g, seed=11)
        b = initial_bisection(g, seed=11)
        assert np.array_equal(a, b)

    def test_two_vertices(self):
        from repro.graph import from_edges

        g = from_edges(2, [(0, 1)])
        where = initial_bisection(g, seed=0)
        assert sorted(where.tolist()) == [0, 1]


class TestGGGP:
    def test_balanced_growth(self, mesh2000):
        from repro.initpart import gggp_bisection

        where = gggp_bisection(mesh2000, seed=0)
        frac = np.count_nonzero(where == 0) / 2000
        assert 0.4 <= frac <= 0.65

    def test_better_cut_than_bfs_growth(self, mesh2000):
        """The gain ordering must pay off on irregular meshes (averaged
        over seeds to dodge seed luck)."""
        from repro.initpart import gggp_bisection

        g_cuts = [edge_cut(mesh2000, gggp_bisection(mesh2000, seed=s))
                  for s in range(4)]
        b_cuts = [edge_cut(mesh2000, grow_bisection(mesh2000, seed=s))
                  for s in range(4)]
        assert np.mean(g_cuts) <= np.mean(b_cuts)

    def test_multiconstraint_target(self, mesh500):
        from repro.initpart import gggp_bisection
        from repro.weights import random_vwgt, relative_weights

        g = mesh500.with_vwgt(random_vwgt(500, 3, low=1, high=9, seed=1))
        where = gggp_bisection(g, target=0.5, seed=2)
        relw = relative_weights(g.vwgt)
        load0 = relw[where == 0].sum(axis=0)
        assert load0.max() >= 0.5 - 1e-9
        assert load0.max() <= 0.62

    def test_disconnected_restart(self):
        from repro.graph import from_edges
        from repro.initpart import gggp_bisection

        # Two disjoint triangles: growth must jump components.
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        where = gggp_bisection(g, seed=3)
        assert np.count_nonzero(where == 0) >= 3

    def test_in_initial_bisection_method_list(self, mesh500):
        where = initial_bisection(mesh500, methods=("gggp",), ntries=1, seed=4)
        assert where.shape == (500,)


class TestOptimizedParity:
    """The batched/vectorized fast paths pinned against the
    ``_reference_*`` oracles of ``tests/oracles.py``: same seed,
    bit-identical side vectors."""

    def _corpus(self):
        cases = []
        for i, (n, m) in enumerate([(60, 1), (90, 2), (120, 3), (150, 2)]):
            g = mesh_like(n, seed=300 + i)
            if m > 1:
                g = g.with_vwgt(random_vwgt(n, m, low=1, high=9, seed=i))
            cases.append(g)
        return cases

    def test_grow_matches_reference(self):
        from tests.oracles import _reference_grow_bisection

        for g in self._corpus():
            for seed in (0, 1, 2):
                assert np.array_equal(
                    grow_bisection(g, seed=seed),
                    _reference_grow_bisection(g, seed=seed))

    def test_gggp_matches_reference(self):
        from repro.initpart import gggp_bisection
        from tests.oracles import _reference_gggp_bisection

        for g in self._corpus():
            for seed in (0, 1, 2):
                assert np.array_equal(
                    gggp_bisection(g, seed=seed),
                    _reference_gggp_bisection(g, seed=seed))

    def test_asymmetric_target_matches_reference(self):
        from tests.oracles import (_reference_gggp_bisection,
                                   _reference_grow_bisection)

        g = self._corpus()[2]
        for target in (0.25, 0.375):
            assert np.array_equal(
                grow_bisection(g, target, seed=7),
                _reference_grow_bisection(g, target, seed=7))
            from repro.initpart import gggp_bisection
            assert np.array_equal(
                gggp_bisection(g, target, seed=7),
                _reference_gggp_bisection(g, target, seed=7))

    def _relw_corpus(self):
        for n in (40, 300):
            for m in (1, 2, 3, 4):
                yield _relw(n, m, seed=10 * n + m)

    def test_greedy_matches_reference(self):
        from tests.oracles import _reference_greedy_bisection

        for relw in self._relw_corpus():
            for target in (0.5, 0.3):
                for seed in range(5):
                    assert np.array_equal(
                        greedy_bisection(relw, target, seed=seed),
                        _reference_greedy_bisection(relw, target, seed=seed))

    def test_best_projection_matches_reference(self):
        from tests.oracles import _reference_best_projection_bisection

        for relw in self._relw_corpus():
            for target in (0.5, 0.3):
                for seed in range(5):
                    assert np.array_equal(
                        best_projection_bisection(relw, target=target,
                                                  seed=seed),
                        _reference_best_projection_bisection(
                            relw, target=target, seed=seed))

    def test_patience0_matches_reference_multistart(self):
        """Without the plateau stop the batched multi-start returns the
        per-candidate loop's winner (duplicate skipping cannot change it)."""
        from tests.oracles import _reference_initial_bisection

        for g in self._corpus():
            for ntries in (1, 2, 3):
                fast = initial_bisection(g, ntries=ntries, seed=11, patience=0)
                ref = _reference_initial_bisection(g, ntries=ntries, seed=11)
                assert np.array_equal(fast, ref), (g.nvtxs, ntries)

    def test_early_stop_deterministic(self):
        """Same seed -> same winner, with and without the plateau stop."""
        g = mesh_like(400, seed=9).with_vwgt(
            random_vwgt(400, 2, low=1, high=9, seed=9))
        for kwargs in ({"patience": 2}, {"patience": 4}, {"patience": 0}):
            a = initial_bisection(g, ntries=8, seed=5, **kwargs)
            b = initial_bisection(g, ntries=8, seed=5, **kwargs)
            assert np.array_equal(a, b), kwargs

    def test_early_stop_quality_envelope(self):
        """The adaptive walk may stop early but must stay feasible and
        within a modest cut factor of the exhaustive answer."""
        g = mesh_like(400, seed=9).with_vwgt(
            random_vwgt(400, 2, low=1, high=9, seed=9))
        adaptive = initial_bisection(g, ntries=8, seed=5, patience=4)
        exhaustive = initial_bisection(g, ntries=8, seed=5, patience=0)
        relw = relative_weights(g.vwgt)
        for where in (adaptive, exhaustive):
            load0 = relw[where == 0].sum(axis=0)
            assert np.all(load0 <= 0.55)
        assert edge_cut(g, adaptive) <= edge_cut(g, exhaustive) * 1.5


class TestInitOptionsFrontDoor:
    """Unknown init knobs fail fast in PartitionOptions with a
    difflib suggestion (the PR 4 convention)."""

    def test_init_methods_typo_suggests(self):
        from repro.errors import OptionsError
        from repro.partition import PartitionOptions

        with pytest.raises(OptionsError, match="prefix"):
            PartitionOptions(init_methods=("greedy", "prefx"))

    def test_negative_knobs_rejected(self):
        from repro.errors import OptionsError
        from repro.partition import PartitionOptions, part_graph

        with pytest.raises(PartitionError):
            PartitionOptions(init_ntries=0)
        with pytest.raises(PartitionError):
            PartitionOptions(init_patience=-1)
        # init_workers (the removed initial-bisection process pool) is no
        # longer an option: both front doors reject it as unknown.
        g = mesh_like(60, seed=1)
        with pytest.raises(PartitionError, match="init_workers"):
            part_graph(g, 4, init_workers=2)
        with pytest.raises(PartitionError, match="init_workers"):
            PartitionOptions().with_(init_workers=2)
        # Retired options: both front doors reject them as unknown.
        for name, value in (("kway_policy", "priority"),
                            ("final_balance", False),
                            ("rb_multilevel", False),
                            ("strict_ntries", True),
                            ("init_diverse_rounds", 2),
                            ("max_coarsen_levels", 10),
                            ("min_shrink", 0.9),
                            ("vcycle_max", 4),
                            ("vcycle_patience", 1)):
            with pytest.raises(OptionsError, match=name):
                part_graph(g, 4, **{name: value})
            with pytest.raises(OptionsError, match=name):
                PartitionOptions().with_(**{name: value})
        # The retired handshaking matcher is no longer a matching scheme.
        with pytest.raises(OptionsError, match="fhem"):
            part_graph(g, 4, matching="fhem")
        with pytest.raises(OptionsError, match="fhem"):
            PartitionOptions().with_(matching="fhem")

    def test_cli_flags_reach_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["--demo", "100", "2", "--init-ntries", "3",
             "--init-methods", "greedy,gggp", "--init-patience", "2"])
        assert args.init_ntries == 3
        assert args.init_methods == "greedy,gggp"
        assert args.init_patience == 2
        # Retired flags and values get argparse's usage error (exit
        # status 2), not a silently ignored flag.
        for extra in (["--init-workers", "0"], ["--strict-ntries"],
                      ["--matching", "fhem"]):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["--demo", "100", "2", *extra])
            assert exc.value.code == 2, extra

    def test_cli_typo_exits_with_suggestion(self, capsys):
        from repro.cli import main

        rc = main(["--demo", "100", "2", "--init-methods", "prefx"])
        assert rc != 0
        err = capsys.readouterr().err
        assert "prefix" in err
