"""Configuration-grid integration tests: every combination of driver and
matching scheme must produce a valid, feasible partition on a
representative multi-constraint instance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import mesh_like
from repro.metrics import edge_cut
from repro.partition import PartitionOptions, part_graph
from repro.refine.kwayref import KWayState
from repro.weights import type1_region_weights

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def instance():
    g = mesh_like(1200, seed=5)
    return g.with_vwgt(type1_region_weights(g, 2, seed=6))


@pytest.mark.parametrize("method", ["kway", "recursive"])
@pytest.mark.parametrize("matching", ["hem", "bem", "rm"])
def test_every_configuration_valid(instance, method, matching):
    res = part_graph(
        instance, 6,
        method=method,
        options=PartitionOptions(seed=1, matching=matching),
    )
    assert res.part.shape == (1200,)
    assert set(np.unique(res.part)) == set(range(6))
    assert res.edgecut == edge_cut(instance, res.part)
    assert res.max_imbalance <= 1.12  # 5% target with small slack
    assert np.all(np.bincount(res.part, minlength=6) > 0)


# --------------------------------------------------------------------- #
# KWayState property tests
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=25, **COMMON)
def test_kway_state_consistent_under_random_moves(seed, nparts):
    g = mesh_like(120, seed=3)
    rng = np.random.default_rng(seed)
    where = rng.integers(0, nparts, 120)
    state = KWayState(g, where, nparts, ubvec=1.5)
    for _ in range(40):
        v = int(rng.integers(120))
        d = int(rng.integers(nparts))
        # balance_delta must equal the actual change in the objective.
        before = state.balance_obj()
        predicted = state.balance_delta(v, d)
        state.move(v, d)
        after = state.balance_obj()
        assert after - before == pytest.approx(predicted, abs=1e-9)
    # Tracked aggregates match recomputation.
    pw = np.zeros_like(state.pw)
    for c in range(state.relw.shape[1]):
        pw[:, c] = np.bincount(state.where, weights=state.relw[:, c],
                               minlength=nparts)
    assert np.allclose(state.pw, pw, atol=1e-9)
    assert np.array_equal(state.counts,
                          np.bincount(state.where, minlength=nparts))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, **COMMON)
def test_dest_fits_agrees_with_caps(seed):
    g = mesh_like(80, seed=4)
    rng = np.random.default_rng(seed)
    where = rng.integers(0, 4, 80)
    state = KWayState(g, where, 4, ubvec=1.2)
    for _ in range(30):
        v = int(rng.integers(80))
        d = int(rng.integers(4))
        fits = state.dest_fits(v, d)
        manual = bool(np.all(state.pw[d] + state.relw[v]
                             <= state.caps[d] + 1e-9))
        assert fits == manual
