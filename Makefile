# Convenience targets for the repro project.

.PHONY: install test bench bench-smoke kernels-smoke bench-initpart-ablation docs-check chaos-smoke serve-smoke serve-cluster-smoke parallel-shm-smoke obs-smoke vcycle-smoke perfbench-smoke examples smoke all clean

install:
	pip install -e .

# Matches the tier-1 verification command: src-layout without requiring an
# editable install.
test:
	PYTHONPATH=src python -m pytest -x -q

bench:
	pytest benchmarks/ --benchmark-only

# Kernel quality guard in CI mode: tiny graphs, cut/balance assertions
# against the recorded baseline, no wall-clock gating (safe on shared
# machines), then a static validation of the *recorded* artifact: cuts
# bit-identical-or-better vs the pre-optimization reference, >= 3x
# recorded end-to-end speedup, and the initpart-fraction gate.  The
# fraction override (0.95, vs the 0.40 default) is deliberate: the smoke
# ladder is ~85-90% initpart *by construction* (tiny graphs, coarsening
# and refinement are near-free) -- docs/performance.md#initial-partitioning
# explains the honest numbers.  Larger ladders can tighten this.
bench-smoke:
	PYTHONPATH=src python benchmarks/perf_guard.py --smoke
	PYTHONPATH=src python benchmarks/perf_guard.py --check --max-init-fraction 0.95

# K1 micro-kernels run once each (no timing loops) plus the kernel parity
# suite: every bulk kernel equals its per-vertex oracle in tests/oracles.py.
kernels-smoke:
	PYTHONPATH=src python -m pytest benchmarks/bench_micro_kernels.py --benchmark-disable -q
	PYTHONPATH=src python -m pytest tests/test_perf_kernels.py -q

# Initial-bisection ablation with a machine-readable JSON artifact
# (benchmarks/results/BENCH_initpart_ablation.json, uploaded by CI).
bench-initpart-ablation:
	PYTHONPATH=src:benchmarks python benchmarks/bench_initpart_ablation.py

# Execute every ```python snippet in the user-facing docs (README,
# tutorial, api, robustness) -- docs must not rot.
docs-check:
	PYTHONPATH=src python -m pytest tests/test_docs_snippets.py -q

# The robustness contract: chaos sweep + error taxonomy coverage.
# See docs/robustness.md.
chaos-smoke:
	PYTHONPATH=src python -m pytest tests/test_faults.py tests/test_errors.py -q

# The serving contract: hit == cold compute bit-for-bit, one cold compute
# per distinct key under N threads x M duplicate requests, warm-start
# fallback, deadlines.  See docs/serving.md.
serve-smoke:
	PYTHONPATH=src python -m pytest tests/test_serve.py -q

# The cluster tier: process/thread backend parity + disk-cache robustness
# suites, then the load harness in smoke mode and its JSON invariants
# (zero determinism violations; process >= 2x thread cold throughput,
# asserted only on >= 4 cores -- single-core boxes record the ratio
# honestly without gating on it).  See docs/serving.md.
serve-cluster-smoke:
	PYTHONPATH=src python -m pytest tests/test_serve_cluster.py tests/test_diskcache.py -q
	PYTHONPATH=src:benchmarks python benchmarks/bench_serve_cluster.py --smoke
	PYTHONPATH=src:benchmarks python benchmarks/bench_serve_cluster.py --check

# The shm-executor contract: the real multiprocess backend must be
# bit-identical to the simulated oracle (same messages, same partition),
# degrade to the serial fallback when a worker dies, and leak no
# /dev/shm segment on any exit path.  The test suite pins all of that,
# then the benchmark records parity + wall times at 1/2/4 ranks (the
# p=4/p=1 speedup floor is asserted only on >= 4 cores; single-core
# boxes record the honest ratio).  See docs/parallel.md.
parallel-shm-smoke:
	PYTHONPATH=src python -m pytest tests/test_parallel_shm.py -q
	PYTHONPATH=src:benchmarks python benchmarks/bench_parallel_shm.py --smoke
	PYTHONPATH=src:benchmarks python benchmarks/bench_parallel_shm.py --check

# The observability contract: a seeded 2-constraint run through the
# flight recorder must yield cut + per-constraint imbalance at every
# level of both ladders, a valid Prometheus exposition with >= 1
# histogram family, a bit-identical partition, and no drift from the
# committed baseline (benchmarks/results/OBS_baseline.json, checked
# under the gate's widened tolerances), plus a traced 2-rank shm run
# whose merged profile must carry per-rank compute/pipe-wait/publish
# rows (written to benchmarks/results/OBS_merged_profile.json).  See
# docs/observability.md; refresh the baseline with
# `PYTHONPATH=src:benchmarks python benchmarks/obs_smoke.py --record`.
obs-smoke:
	PYTHONPATH=src:benchmarks python benchmarks/obs_smoke.py

# The effort-level contract: iterated V-cycles (effort="high") must never
# regress a cut and must strictly beat effort="standard" on >= 3 of the 4
# recorded ladder cases, while effort="standard" stays bit-identical to
# the BENCH_kernels.json baseline cuts.  The test suite pins monotonicity,
# determinism and the evolutionary ensemble; the benchmark's default mode
# re-measures and must reproduce the committed BENCH_vcycle.json exactly
# (both pipelines are deterministic at a pinned seed); --check then
# validates the committed artifact without measuring.  See
# docs/performance.md#effort-levels.
vcycle-smoke:
	PYTHONPATH=src python -m pytest tests/test_vcycle.py -q
	PYTHONPATH=src:benchmarks python benchmarks/bench_vcycle.py
	PYTHONPATH=src:benchmarks python benchmarks/bench_vcycle.py --check

# The benchmark still runs against src/: one short traced ladder_12k run.
# It exits non-zero when a function perfbench/spans.py rebinds has gone,
# when tracing changes a partition, or when any output check fails.
perfbench-smoke:
	python3 perfbench/run.py --workload ladder_12k --seed 1 --seconds 2 --trace 1

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

smoke:
	python -c "import repro; print('repro', repro.__version__)"
	repro-part --demo 2000 8 --seed 1 --quiet

all: install test bench

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
