"""Iterated V-cycles, effort levels and the evolutionary ensemble.

Covers the monotonicity contract (a V-cycle never returns a worse
partition than its input), seeded determinism of every entry point,
constrained coarsening (matched vertices share a constraint label), the
``effort="fast"|"standard"|"high"`` knob on :func:`part_graph`, and the
:func:`evolve` loop's feasibility guarantees.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coarsen import coarsen
from repro.errors import OptionsError, PartitionError
from repro.graph import grid_2d, mesh_like
from repro.metrics import edge_cut
from repro.partition import (
    PartitionOptions,
    best_of,
    evolve,
    part_graph,
    vcycle_improve,
    vcycle_once,
)
from repro.partition.vcycle import VCYCLE_MAX, VCYCLE_PATIENCE
from repro.weights import max_imbalance


def _interleaved(graph, nparts):
    """A balanced but deliberately bad starting partition."""
    return np.arange(graph.nvtxs, dtype=np.int64) % nparts


class TestVCycleOnce:
    def test_never_worse_and_input_untouched(self, mesh500):
        part = _interleaved(mesh500, 4)
        keep = part.copy()
        before = edge_cut(mesh500, part)
        out = vcycle_once(mesh500, part, 4, seed=3)
        assert np.array_equal(part, keep)          # caller's array intact
        assert edge_cut(mesh500, out) <= before
        assert max_imbalance(mesh500.vwgt, out, 4) <= 1.05 + 1e-9

    def test_improves_bad_interleaved_start(self):
        g = grid_2d(20, 20)
        part = _interleaved(g, 4)                   # every row edge is cut
        out = vcycle_once(g, part, 4, seed=1)
        assert edge_cut(g, out) < edge_cut(g, part)

    def test_seeded_determinism(self, mesh500):
        part = _interleaved(mesh500, 4)
        a = vcycle_once(mesh500, part, 4, seed=11)
        b = vcycle_once(mesh500, part, 4, seed=11)
        c = vcycle_once(mesh500, part, 4, seed=12)
        assert np.array_equal(a, b)
        assert a.shape == c.shape                   # different seed, same contract
        assert edge_cut(mesh500, c) <= edge_cut(mesh500, part)

    def test_rejects_bad_part(self, mesh500):
        with pytest.raises(PartitionError):
            vcycle_once(mesh500, np.zeros(3, dtype=np.int64), 4, seed=0)
        bad = np.zeros(500, dtype=np.int64)
        bad[0] = 7
        with pytest.raises(PartitionError):
            vcycle_once(mesh500, bad, 4, seed=0)

    def test_trivial_nparts_is_identity_copy(self, mesh500):
        part = np.zeros(500, dtype=np.int64)
        out = vcycle_once(mesh500, part, 1, seed=0)
        assert np.array_equal(out, part)
        assert out is not part


class TestConstrainedCoarsening:
    def test_matched_vertices_share_constraint_label(self, mesh500):
        con = _interleaved(mesh500, 4)
        hier = coarsen(mesh500, coarsen_to=40, seed=5, constraint=con)
        fine = con
        for lvl in hier.levels:
            ncoarse = int(lvl.cmap.max()) + 1
            coarse = np.empty(ncoarse, dtype=np.int64)
            coarse[lvl.cmap] = fine
            # Every fine vertex must agree with its coarse image -- i.e. the
            # scatter above is well-defined and no merge crossed a label.
            assert np.array_equal(coarse[lvl.cmap], fine)
            fine = coarse

    def test_projected_cut_is_preserved(self, mesh500):
        part = _interleaved(mesh500, 4)
        hier = coarsen(mesh500, coarsen_to=40, seed=5, constraint=part)
        where, g = part, mesh500
        cut0 = edge_cut(g, where)
        for lvl in hier.levels:
            ncoarse = int(lvl.cmap.max()) + 1
            coarse = np.empty(ncoarse, dtype=np.int64)
            coarse[lvl.cmap] = where
            where = coarse
        assert edge_cut(hier.coarsest, where) == cut0

    def test_bad_constraint_shape_rejected(self, mesh500):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            coarsen(mesh500, coarsen_to=40, seed=5,
                    constraint=np.zeros(7, dtype=np.int64))


class TestVCycleImprove:
    def test_monotone_with_stats(self, mesh500):
        part = _interleaved(mesh500, 4)
        opts = PartitionOptions(seed=4)
        best, stats = vcycle_improve(mesh500, part, 4, opts)
        assert stats.final_cut == edge_cut(mesh500, best)
        assert stats.final_cut <= stats.initial_cut
        assert stats.initial_cut == edge_cut(mesh500, part)
        assert 1 <= stats.cycles <= VCYCLE_MAX
        assert 0 <= stats.improved <= stats.cycles

    def test_deterministic(self, mesh500):
        part = _interleaved(mesh500, 4)
        opts = PartitionOptions(seed=9)
        a, sa = vcycle_improve(mesh500, part, 4, opts)
        b, sb = vcycle_improve(mesh500, part, 4, opts)
        assert np.array_equal(a, b)
        assert sa == sb

    def test_validates_budget_options(self, mesh500):
        """The V-cycle budget is fixed (no option sets it): a run stops at
        VCYCLE_MAX cycles or after VCYCLE_PATIENCE stale ones."""
        assert (VCYCLE_MAX, VCYCLE_PATIENCE) == (8, 2)
        for name in ("vcycle_max", "vcycle_patience"):
            with pytest.raises(OptionsError, match=name):
                PartitionOptions().with_(**{name: 1})
        _, stats = vcycle_improve(mesh500, _interleaved(mesh500, 4), 4,
                                  PartitionOptions(seed=4))
        assert (stats.cycles == VCYCLE_MAX
                or stats.cycles - stats.improved >= VCYCLE_PATIENCE)


class TestEffortLevels:
    def test_unknown_effort_rejected(self, mesh500):
        with pytest.raises(OptionsError, match="effort"):
            part_graph(mesh500, 4, seed=0, effort="turbo")
        with pytest.raises(OptionsError, match="effort"):
            PartitionOptions(effort="max")

    def test_high_never_worse_than_standard(self, mesh2000):
        std = part_graph(mesh2000, 8, seed=4)
        high = part_graph(mesh2000, 8, seed=4, effort="high")
        assert high.feasible
        assert high.edgecut <= std.edgecut
        assert high.options.effort == "high"       # caller's options preserved

    def test_high_is_deterministic(self, mesh500):
        a = part_graph(mesh500, 4, seed=7, effort="high")
        b = part_graph(mesh500, 4, seed=7, effort="high")
        assert np.array_equal(a.part, b.part)
        assert a.edgecut == b.edgecut

    def test_standard_unaffected_by_new_fields(self, mesh500):
        # effort/vcycle_* must not perturb the default pipeline: explicit
        # standard == implicit default, bit for bit.
        implicit = part_graph(mesh500, 4, seed=4)
        explicit = part_graph(mesh500, 4, seed=4, effort="standard")
        assert np.array_equal(implicit.part, explicit.part)

    def test_fast_is_feasible_and_deterministic(self, mesh500):
        a = part_graph(mesh500, 4, seed=5, effort="fast")
        b = part_graph(mesh500, 4, seed=5, effort="fast")
        assert a.feasible
        assert np.array_equal(a.part, b.part)
        assert a.options.effort == "fast"


class TestEvolve:
    def test_front_is_feasible_and_history_monotone(self, mesh500):
        res = evolve(mesh500, 4, population=3, generations=2, seed=2)
        assert res.best.feasible
        assert res.front and all(m.feasible for m in res.front)
        assert res.history == sorted(res.history, reverse=True)
        assert res.best.edgecut == res.history[-1]
        assert res.best.edgecut == min(m.cut for m in res.front)

    def test_combine_child_never_worse_than_better_parent(self, mesh500):
        # The overlap constraint refines both parents, so the better parent
        # projects exactly; feasibility and cut can only improve.
        res = evolve(mesh500, 4, population=4, generations=3, seed=6)
        ens = best_of(mesh500, 4, nseeds=4, seed=6)
        assert res.best.edgecut <= ens.best.edgecut

    def test_deterministic(self, mesh500):
        a = evolve(mesh500, 4, population=3, generations=2, seed=8)
        b = evolve(mesh500, 4, population=3, generations=2, seed=8)
        assert np.array_equal(a.best.part, b.best.part)
        assert a.history == b.history

    def test_rejects_bad_population(self, mesh500):
        with pytest.raises(PartitionError):
            evolve(mesh500, 4, population=1, seed=0)


class TestEnsembleOptionKwargsGuard:
    def test_best_of_rejects_options_plus_kwargs(self, mesh500):
        opts = PartitionOptions(seed=1)
        with pytest.raises(OptionsError, match="not both"):
            best_of(mesh500, 4, nseeds=2, options=opts, refine_passes=2)

    def test_seed_inside_forwarded_kwargs_rejected(self):
        # `seed` is a named ensemble parameter, so it can only reach the
        # forwarded-kwargs dict through a programmatic call path; the guard
        # still refuses it rather than silently collapsing member seeds.
        from repro.partition.ensemble import _reject_options_kwargs

        with pytest.raises(OptionsError, match="per-member seeds"):
            _reject_options_kwargs(None, {"seed": 3})

    def test_evolve_rejects_options_plus_kwargs(self, mesh500):
        opts = PartitionOptions(seed=1)
        with pytest.raises(OptionsError, match="not both"):
            evolve(mesh500, 4, population=2, generations=0,
                   options=opts, refine_passes=2)
