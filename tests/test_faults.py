"""Tests for the fault-injection & graceful-degradation layer (repro.faults).

Covers the robustness contract of ``docs/robustness.md``: spec parsing,
deterministic injection, retry-with-backoff, phase timeouts, graceful
degradation vs. strict mode, no-fault bit-identity, and a 100-schedule
chaos sweep in which no exception may escape untyped.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import (
    CommError,
    DegradedResult,
    FaultSpecError,
    MessageDropError,
    PhaseTimeoutError,
    RankCrashedError,
    RankUnavailableError,
    ReproError,
    RetryExhaustedError,
    TransientCommError,
)
from repro.faults import (
    FAULT_KINDS,
    FaultSpec,
    FaultyCluster,
    RecoveryPolicy,
    as_fault_spec,
    run_with_retries,
)
from repro.graph import mesh_like
from repro.parallel import SimCluster, parallel_part_graph
from repro.partition import PartitionOptions
from repro.weights import type1_region_weights


class TestFaultSpec:
    def test_default_is_disabled(self):
        spec = FaultSpec()
        assert not spec.enabled
        assert all(spec.rate(k) == 0.0 for k in FAULT_KINDS)

    def test_parse_basic(self):
        spec = FaultSpec.parse("drop=0.05,dup=0.02,crash=0.01,seed=7")
        assert spec.drop == 0.05
        assert spec.duplicate == 0.02
        assert spec.crash == 0.01
        assert spec.seed == 7
        assert spec.enabled

    def test_parse_aliases(self):
        spec = FaultSpec.parse("loss=0.1,pcrash=0.02")
        assert spec.drop == 0.1
        assert spec.crash_permanent == 0.02

    def test_parse_phase_rates(self):
        spec = FaultSpec.parse("drop=0.1,phase.refine=2.0,phase.coarsen=0.5")
        assert spec.rate("drop", "refine") == pytest.approx(0.2)
        assert spec.rate("drop", "coarsen") == pytest.approx(0.05)
        assert spec.rate("drop", "initpart") == pytest.approx(0.1)

    def test_rate_clipped_to_one(self):
        spec = FaultSpec.parse("drop=0.9,phase.refine=5.0")
        assert spec.rate("drop", "refine") == 1.0

    def test_parse_off(self):
        for text in ("", "off", "none", None):
            assert not as_fault_spec(text).enabled

    def test_parse_int_fields(self):
        spec = FaultSpec.parse("delay=0.1,delay_rounds=9,crash_down_steps=2,max_faults=5")
        assert spec.delay_rounds == 9
        assert spec.crash_down_steps == 2
        assert spec.max_faults == 5

    @pytest.mark.parametrize("bad", [
        "drop=1.5",            # rate out of range
        "drop=-0.1",           # negative rate
        "frobnicate=0.1",      # unknown key
        "drop=abc",            # unparseable value
        "drop",                # missing '='
        "phase.refine=-1",     # negative multiplier
    ])
    def test_parse_rejects(self, bad):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(bad)

    def test_constructor_validates(self):
        with pytest.raises(FaultSpecError):
            FaultSpec(drop=2.0)
        with pytest.raises(FaultSpecError):
            FaultSpec(crash=-0.5)

    def test_dict_roundtrip(self):
        spec = FaultSpec(drop=0.1, crash=0.05, seed=3)
        again = FaultSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_as_fault_spec_coercion(self):
        spec = FaultSpec(drop=0.2)
        assert as_fault_spec(spec) is spec
        assert as_fault_spec({"drop": 0.2}).drop == 0.2
        assert as_fault_spec("drop=0.2").drop == 0.2
        with pytest.raises(FaultSpecError):
            as_fault_spec(42)

    def test_with_and_describe(self):
        spec = FaultSpec(drop=0.1).with_(seed=9)
        assert spec.seed == 9 and spec.drop == 0.1
        assert "drop" in spec.describe()


class TestFaultyCluster:
    def _traffic(self, cluster):
        # A small alltoall workload; returns without raising unless a fault
        # fires.
        payloads = [{(r + 1) % cluster.nranks: np.arange(4, dtype=np.int64)}
                    for r in range(cluster.nranks)]
        return cluster.alltoall(payloads)

    def test_no_faults_behaves_like_simcluster(self):
        base, faulty = SimCluster(3), FaultyCluster(3, FaultSpec())
        for c in (base, faulty):
            self._traffic(c)
        assert faulty.stats.total_bytes == base.stats.total_bytes
        assert faulty.stats.simulated_time == base.stats.simulated_time
        assert faulty.faults.injected == 0

    def test_deterministic_schedule(self):
        def run(seed):
            c = FaultyCluster(3, FaultSpec(drop=0.3, delay=0.2, seed=seed))
            events = []
            for _ in range(50):
                try:
                    self._traffic(c)
                    events.append("ok")
                except TransientCommError as exc:
                    events.append(type(exc).__name__)
            return events, c.faults.to_dict()

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_drop_raises_message_drop(self):
        c = FaultyCluster(2, FaultSpec(drop=1.0, max_faults=1))
        with pytest.raises(MessageDropError):
            c.barrier()
        c.barrier()  # budget exhausted: no more faults
        assert c.faults.dropped == 1

    def test_delay_charges_simulated_time(self):
        clean = FaultyCluster(2, FaultSpec())
        slow = FaultyCluster(2, FaultSpec(delay=1.0, delay_rounds=10))
        clean.barrier()
        slow.barrier()
        assert slow.stats.simulated_time > clean.stats.simulated_time
        assert slow.faults.delayed >= 1

    def test_duplicate_doubles_traffic(self):
        clean = FaultyCluster(2, FaultSpec())
        dup = FaultyCluster(2, FaultSpec(duplicate=1.0))
        self._traffic(clean)
        self._traffic(dup)
        assert dup.stats.total_bytes == 2 * clean.stats.total_bytes
        assert dup.faults.duplicated >= 1

    def test_reorder_preserves_content(self):
        c = FaultyCluster(3, FaultSpec(reorder=1.0))
        got = self._traffic(c)
        # Reordering shuffles delivery order, never payloads.
        for r in range(3):
            src = (r - 1) % 3
            assert got[r][src].tolist() == [0, 1, 2, 3]
        assert c.faults.reordered >= 1

    def test_transient_crash_recovers(self):
        spec = FaultSpec(crash=1.0, crash_down_steps=2, max_faults=1)
        c = FaultyCluster(3, spec)
        with pytest.raises(RankUnavailableError):
            c.barrier()  # the crash itself
        for _ in range(2):  # crash_down_steps failed collectives
            with pytest.raises(RankUnavailableError):
                c.barrier()
        c.barrier()  # the rank rebooted
        assert c.faults.transient_crashes == 1
        assert c.faults.down_rank_failures == 2

    def test_permanent_crash_is_permanent(self):
        c = FaultyCluster(3, FaultSpec(crash_permanent=1.0, max_faults=1))
        with pytest.raises(RankCrashedError) as ei:
            c.barrier()
        dead = ei.value.ranks
        assert len(dead) == 1
        for _ in range(5):
            with pytest.raises(RankCrashedError):
                c.barrier()
        assert c.faults.permanent_crashes == 1

    def test_max_faults_budget(self):
        c = FaultyCluster(2, FaultSpec(drop=1.0, max_faults=3))
        hits = 0
        for _ in range(10):
            try:
                c.barrier()
            except MessageDropError:
                hits += 1
        assert hits == 3


class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(FaultSpecError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(FaultSpecError):
            RecoveryPolicy(backoff_factor=0.0)
        with pytest.raises(FaultSpecError):
            RecoveryPolicy(phase_timeout=-2.0)

    def test_backoff_grows(self):
        p = RecoveryPolicy(backoff_base=1e-3, backoff_factor=2.0)
        assert p.backoff(1) == pytest.approx(1e-3)
        assert p.backoff(3) == pytest.approx(4e-3)
        assert p.backoff(2) > p.backoff(1)

    def test_retry_succeeds_after_transients(self):
        cluster = SimCluster(2)
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise MessageDropError("lost")
            return "done"

        value, retries = run_with_retries(flaky, cluster, RecoveryPolicy())
        assert value == "done"
        assert retries == 2
        assert cluster.stats.comm_time > 0  # backoff was charged

    def test_retry_exhaustion(self):
        cluster = SimCluster(2)

        def always_fails():
            raise MessageDropError("lost again")

        with pytest.raises(RetryExhaustedError) as ei:
            run_with_retries(always_fails, cluster,
                             RecoveryPolicy(max_retries=2), phase="coarsen")
        assert isinstance(ei.value.__cause__, MessageDropError)

    def test_permanent_error_not_retried(self):
        cluster = SimCluster(2)
        calls = {"n": 0}

        def crashes():
            calls["n"] += 1
            raise RankCrashedError("rank 1 died", ranks=(1,))

        with pytest.raises(RankCrashedError):
            run_with_retries(crashes, cluster, RecoveryPolicy())
        assert calls["n"] == 1

    def test_deadline_enforced(self):
        cluster = SimCluster(2)
        cluster.stats.compute_time = 10.0  # simulated clock already past

        def never_runs():  # pragma: no cover - must not be called
            raise AssertionError("attempt ran past the deadline")

        with pytest.raises(PhaseTimeoutError):
            run_with_retries(never_runs, cluster,
                             RecoveryPolicy(phase_timeout=1.0),
                             phase="refine", deadline=5.0)


@pytest.fixture
def chaos_graph():
    return mesh_like(120, seed=1)


@pytest.fixture
def chaos_opts():
    # kway_coarsen_factor=5 so the 120-vertex graph really coarsens
    # (exercising the coarsen/refine retry loops, not just initpart).
    return PartitionOptions(seed=5, kway_refine_passes=2, init_ntries=1,
                            coarsen_to=40, kway_coarsen_factor=5)


class TestDriverHardening:
    def test_retries_absorb_moderate_faults(self, chaos_graph, chaos_opts):
        res = parallel_part_graph(
            chaos_graph, 4, 3, options=chaos_opts,
            faults=FaultSpec(drop=0.08, seed=7))
        assert not res.degraded
        assert res.retries > 0
        assert res.faults["dropped"] > 0
        assert res.feasible

    def test_heavy_faults_degrade_gracefully(self, chaos_graph, chaos_opts):
        res = parallel_part_graph(
            chaos_graph, 4, 3, options=chaos_opts,
            faults=FaultSpec(drop=0.7, crash_permanent=0.2, seed=1))
        assert res.degraded
        assert res.degraded_reason
        assert res.feasible  # fallback still yields a valid partition
        assert "DEGRADED" in res.summary()
        assert set(np.unique(res.part)) <= set(range(4))

    def test_strict_raises_degraded_result(self, chaos_graph, chaos_opts):
        with pytest.raises(DegradedResult) as ei:
            parallel_part_graph(
                chaos_graph, 4, 3, options=chaos_opts,
                faults=FaultSpec(drop=0.7, crash_permanent=0.2, seed=1),
                strict=True)
        assert isinstance(ei.value.__cause__, ReproError)
        assert ei.value.reason

    def test_recovery_policy_allow_degraded_false(self, chaos_graph, chaos_opts):
        with pytest.raises(DegradedResult):
            parallel_part_graph(
                chaos_graph, 4, 3, options=chaos_opts,
                faults=FaultSpec(drop=0.7, crash_permanent=0.2, seed=1),
                recovery=RecoveryPolicy(allow_degraded=False))

    def test_phase_timeout_degrades(self, chaos_graph, chaos_opts):
        res = parallel_part_graph(
            chaos_graph, 4, 3, options=chaos_opts,
            faults=FaultSpec(delay=0.5, delay_rounds=1000, seed=2),
            recovery=RecoveryPolicy(phase_timeout=1e-4))
        assert res.degraded
        assert "PhaseTimeout" in res.degraded_reason or "Retry" in res.degraded_reason

    def test_degradation_recorded_in_trace(self, chaos_graph, chaos_opts):
        from repro.trace import TraceReport, Tracer

        tracer = Tracer()
        res = parallel_part_graph(
            chaos_graph, 4, 3, options=chaos_opts, tracer=tracer,
            faults=FaultSpec(drop=0.7, crash_permanent=0.2, seed=1))
        tracer.finish()
        assert res.degraded
        rep = TraceReport.from_tracer(tracer)
        assert rep.counters.get("parallel.degraded") == 1
        names = []

        def walk(span):
            names.append(span.name)
            for ch in span.children:
                walk(ch)

        walk(rep.root)
        assert "degraded_fallback" in names

    def test_fault_counters_in_trace(self, chaos_graph, chaos_opts):
        from repro.trace import TraceReport, Tracer

        tracer = Tracer()
        res = parallel_part_graph(
            chaos_graph, 4, 3, options=chaos_opts, tracer=tracer,
            faults=FaultSpec(drop=0.08, seed=7))
        tracer.finish()
        rep = TraceReport.from_tracer(tracer)
        assert rep.counters.get("faults.injected") == res.faults["injected"]
        assert rep.counters.get("faults.retries", 0) >= res.retries


class TestNoFaultBitIdentity:
    """With no fault spec the hardened driver must reproduce the exact
    recorded baseline partitions (cut / part-vector hash / simulated time).

    Baselines re-recorded for the executor-seam restructure: the kernels
    now run as pure per-rank snapshot steps (so the shm executor can
    reproduce them bit-for-bit), which changed the RNG spawn layout and
    the matching protocol's arbitration numerics."""

    def _digest(self, res):
        return hashlib.sha256(res.part.tobytes()).hexdigest()[:16]

    def test_baseline_single_constraint(self):
        g = mesh_like(500, seed=7)
        res = parallel_part_graph(g, 4, 3, options=PartitionOptions(seed=42))
        assert res.edgecut == 261
        assert self._digest(res) == "b51cca7280c5e3f5"
        assert res.simulated_time == pytest.approx(1.1213468000e-03, abs=1e-12)

    def test_baseline_multi_constraint(self):
        g = mesh_like(300, seed=5)
        g = g.with_vwgt(type1_region_weights(g, 2, seed=3))
        res = parallel_part_graph(g, 4, 4, options=PartitionOptions(seed=9))
        assert res.edgecut == 253
        assert self._digest(res) == "c33e174a162d0378"
        assert res.simulated_time == pytest.approx(9.5966040000e-04, abs=1e-12)

    def test_disabled_spec_identical_to_none(self, chaos_graph, chaos_opts):
        a = parallel_part_graph(chaos_graph, 4, 3, options=chaos_opts)
        b = parallel_part_graph(chaos_graph, 4, 3, options=chaos_opts,
                                faults=FaultSpec())
        assert np.array_equal(a.part, b.part)
        assert a.simulated_time == b.simulated_time
        # a disabled spec also doesn't pay for the FaultyCluster
        assert b.faults is None or b.faults["injected"] == 0


class TestChaosSweep:
    """Acceptance criterion: 100 seeded fault schedules, zero uncaught
    exceptions; every run yields a feasible partition or a typed
    ReproError."""

    def test_hundred_seeded_schedules(self, chaos_graph, chaos_opts):
        degraded = clean = 0
        for seed in range(100):
            # Vary the fault mix with the seed so the sweep covers light,
            # heavy, and pathological schedules.
            scale = 0.2 + 1.3 * (seed % 7) / 6.0
            spec = FaultSpec(
                drop=min(1.0, 0.05 * scale),
                delay=min(1.0, 0.04 * scale),
                duplicate=min(1.0, 0.03 * scale),
                reorder=min(1.0, 0.03 * scale),
                crash=min(1.0, 0.03 * scale),
                crash_permanent=min(1.0, 0.01 * scale),
                seed=seed,
            )
            strict = seed % 10 == 9
            try:
                res = parallel_part_graph(chaos_graph, 4, 3,
                                          options=chaos_opts, faults=spec,
                                          strict=strict)
            except ReproError as exc:
                # Typed failure: only allowed in strict mode, and only as
                # DegradedResult with the cause chained.
                assert strict, f"non-strict run {seed} raised {exc!r}"
                assert isinstance(exc, DegradedResult)
                continue
            # Typed success: a structurally valid partition.
            assert res.part.shape == (chaos_graph.nvtxs,)
            assert res.part.min() >= 0 and res.part.max() < 4
            assert res.edgecut >= 0
            degraded += res.degraded
            clean += not res.degraded
        # The sweep must exercise both the retry path and the fallback.
        assert degraded > 0
        assert clean > 0
