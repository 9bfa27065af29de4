"""Tests for the small shared utilities: error hierarchy, RNG plumbing,
package metadata."""

from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import errors
from repro._rng import as_rng, spawn


class TestErrors:
    def test_hierarchy(self):
        for cls in (errors.GraphError, errors.WeightError,
                    errors.PartitionError, errors.ConvergenceError):
            assert issubclass(cls, errors.ReproError)
        assert issubclass(errors.GraphFormatError, errors.GraphError)
        assert issubclass(errors.BalanceError, errors.PartitionError)

    def test_catchable_as_base(self):
        from repro.graph import from_edges

        with pytest.raises(errors.ReproError):
            from_edges(1, [(0, 0)])

    def test_reexported_at_top_level(self):
        assert repro.GraphError is errors.GraphError
        assert repro.ReproError is errors.ReproError


class TestRng:
    def test_int_seed(self):
        a = as_rng(5).random(3)
        b = as_rng(5).random(3)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_deterministic(self):
        kids_a = spawn(as_rng(7), 3)
        kids_b = spawn(as_rng(7), 3)
        for a, b in zip(kids_a, kids_b):
            assert np.array_equal(a.random(4), b.random(4))

    def test_spawn_children_independent(self):
        kids = spawn(as_rng(9), 2)
        assert not np.array_equal(kids[0].random(8), kids[1].random(8))


class TestPackage:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_docstring_flow(self):
        from repro import mesh_like, part_graph, type1_region_weights

        g = mesh_like(400, seed=0)
        g = g.with_vwgt(type1_region_weights(g, 3, seed=1))
        res = part_graph(g, 4, ubvec=1.05, seed=2)
        assert res.feasible

    def test_subpackages_importable(self):
        import repro.adaptive
        import repro.analysis
        import repro.baselines
        import repro.coarsen
        import repro.graph
        import repro.initpart
        import repro.mesh
        import repro.metrics
        import repro.multiphase
        import repro.parallel
        import repro.partition
        import repro.refine
        import repro.viz
        import repro.weights

    def test_no_reference_oracles_in_package(self):
        """Test-only ``_reference_*`` oracles live in ``tests/oracles.py``,
        not in the shipped package."""
        root = Path(repro.__file__).parent
        hits = [f"{path.relative_to(root)}:{lineno}"
                for path in sorted(root.rglob("*.py"))
                for lineno, line in enumerate(path.read_text().splitlines(), 1)
                if "def _reference_" in line]
        assert hits == []

    def test_options_docstring_lists_every_field(self):
        """The ``Attributes`` section of ``PartitionOptions`` documents
        exactly the live fields, in declaration order."""
        from repro.partition.config import OPTION_FIELDS, PartitionOptions

        doc = inspect.cleandoc(PartitionOptions.__doc__)
        section = doc.split("Attributes\n----------\n", 1)[1]
        names = [name.strip()
                 for line in section.splitlines()
                 if line and not line[0].isspace()
                 for name in line.rstrip(":").split(",")]
        assert tuple(names) == OPTION_FIELDS
