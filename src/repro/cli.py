"""Command-line interface: ``repro-part``.

Partition a METIS-format graph file and print a quality report, optionally
writing the partition vector to a file (one part id per line, the METIS
convention)::

    repro-part mesh.graph 8 --method kway --tol 1.05 --seed 7 --out mesh.part.8

``repro-part --demo N`` generates a synthetic mesh instead of reading a
file, which makes the CLI self-contained for smoke tests.

Observability: ``--trace run.jsonl`` streams the run's span/metrics events
to a JSON-lines file, ``--trace-summary`` prints the span tree (phase and
per-level timings, cut, imbalance), ``--profile`` prints the flight
recorder's per-level dashboard (cut and per-constraint imbalance at every
coarsening and uncoarsening level) and ``--profile-json FILE`` saves the
recorded profile as a drift-checkable JSON artifact.  ``--metrics-port
PORT`` serves a live Prometheus scrape endpoint (``/metrics``,
``/healthz``, ``/profile.json``) for the duration of the run; see
``docs/observability.md``.

Parallel: ``--ranks P`` runs the coarse-grain parallel pipeline --
``--executor sim`` (default) on the deterministic BSP simulation,
``--executor shm`` on real worker processes over shared-memory CSR
views, ``--executor parity`` on both with a bit-identity check (exit 1
on divergence); see ``docs/parallel.md``.  ``--fault-spec
'drop=0.05,crash=0.01,seed=7'`` injects deterministic faults into the
sim executor, and ``--strict`` turns on the structural graph audit and
forbids graceful degradation; see ``docs/robustness.md``.

Serving: ``--cache`` routes the run through the in-process
:class:`repro.serve.PartitionService` (same result, exercises the cached
path); ``--serve-bench N`` replays the request N times across a thread
pool and prints cache hit rate and cold/hit latencies; ``--backend
process`` computes on a spawned worker-process pool instead of the
service threads, and ``--cache-dir DIR`` persists results to a
disk-backed cache so a later invocation serves them back bit-identical;
see ``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .errors import ReproError
from .graph.generators import mesh_like
from .graph.io import read_metis_graph, read_partition, write_partition
from .metrics.report import PartitionReport
from .partition.api import part_graph
from .weights.generators import type1_region_weights

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-part",
        description="Multilevel multi-constraint graph partitioner (SC'98 reproduction).",
    )
    p.add_argument("graph", nargs="?", help="METIS-format graph file")
    p.add_argument("nparts", type=int, help="number of parts")
    p.add_argument("--method", choices=("kway", "recursive"), default="kway",
                   help="multilevel formulation (default: kway)")
    p.add_argument("--tol", type=float, default=1.05,
                   help="load-imbalance tolerance per constraint (default: 1.05)")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--matching", choices=("hem", "bem", "rm"), default="hem",
                   help="coarsening matching scheme (default: hem)")
    p.add_argument("--effort", choices=("fast", "standard", "high"),
                   default=None,
                   help="quality/time preset: 'fast' trims the search "
                        "knobs, 'standard' (default) is the single-V-cycle "
                        "pipeline, 'high' adds iterated V-cycles that only "
                        "ever lower the cut (see docs/api.md)")
    p.add_argument("--init-ntries", type=int, metavar="N",
                   help="candidate rounds in the initial bisection "
                        "(default: PartitionOptions.init_ntries)")
    p.add_argument("--init-methods", metavar="M1,M2,...",
                   help="comma-separated candidate-generation methods for the "
                        "initial bisection (unknown names get a suggestion)")
    p.add_argument("--init-patience", type=int, metavar="P",
                   help="plateau patience of the initial bisection's "
                        "early stop (0 disables it)")
    p.add_argument("--out", help="write the partition vector to this file")
    p.add_argument("--demo", type=int, metavar="N",
                   help="ignore the graph file; run on a synthetic N-vertex "
                        "mesh with 3 region-correlated constraints")
    p.add_argument("--evaluate", metavar="PARTFILE",
                   help="do not partition; evaluate an existing partition "
                        "file against the graph and print its quality")
    p.add_argument("--svg", metavar="FILE",
                   help="render the partition to an SVG file (needs 2-D "
                        "coordinates, e.g. --demo graphs)")
    p.add_argument("--nseeds", type=int, default=1,
                   help="run an N-seed ensemble and keep the best partition")
    p.add_argument("--ranks", type=int, metavar="P",
                   help="run the simulated parallel pipeline on P ranks "
                        "instead of the serial partitioner")
    p.add_argument("--executor", choices=("sim", "shm", "parity"),
                   default="sim",
                   help="how the parallel ranks execute: 'sim' (default) is "
                        "the deterministic BSP simulation, 'shm' runs real "
                        "worker processes over shared-memory CSR views, "
                        "'parity' runs both and verifies they are "
                        "bit-identical (requires --ranks; see "
                        "docs/parallel.md)")
    p.add_argument("--fault-spec", metavar="SPEC",
                   help="inject deterministic faults into the parallel run, "
                        "e.g. 'drop=0.05,dup=0.02,crash=0.01,seed=7' "
                        "(requires --ranks and the sim executor; see "
                        "docs/robustness.md)")
    p.add_argument("--strict", action="store_true",
                   help="strict mode: run the O(E) graph audit up front and "
                        "forbid the serial fallback (failures raise instead "
                        "of degrading)")
    p.add_argument("--cache", action="store_true",
                   help="serve the request through the in-process partition "
                        "service (content-addressed result cache + warm "
                        "start; see docs/serving.md)")
    p.add_argument("--serve-bench", type=int, metavar="N",
                   help="benchmark the partition service: replay the "
                        "request N times over a thread pool and report "
                        "hit rate and cold/hit latency (implies --cache)")
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="cold-compute backend for the served request: "
                        "inline threads (default) or a spawned "
                        "worker-process pool (requires --cache/"
                        "--serve-bench; see docs/serving.md)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="disk-backed second-level result cache directory "
                        "for the partition service: cold results persist "
                        "there and later runs (even after restart) serve "
                        "them back bit-identical (requires --cache/"
                        "--serve-bench)")
    p.add_argument("--trace", metavar="FILE",
                   help="write a structured JSONL trace of the run to FILE "
                        "(spans with timings + metrics; see "
                        "docs/observability.md)")
    p.add_argument("--trace-summary", action="store_true",
                   help="print the span tree (phases, per-level sizes, "
                        "cut/imbalance, timings) after the run")
    p.add_argument("--profile", action="store_true",
                   help="record the run with the flight recorder and print "
                        "the per-level dashboard (cut and per-constraint "
                        "imbalance at every coarsening and uncoarsening "
                        "level; see docs/observability.md)")
    p.add_argument("--profile-json", metavar="FILE",
                   help="write the recorded MultilevelProfile as JSON to "
                        "FILE (implies recording; usable as a drift "
                        "baseline for repro.obs.regress)")
    p.add_argument("--metrics-port", type=int, metavar="PORT",
                   help="serve a live Prometheus scrape endpoint on "
                        "127.0.0.1:PORT for the duration of the run "
                        "(/metrics, /healthz, /profile.json; 0 picks a "
                        "free port; see docs/observability.md)")
    p.add_argument("--quiet", action="store_true", help="print only the summary line")
    return p


def _serve_bench(svc, graph, args, cold_seconds: float) -> None:
    """Replay the CLI request N times over the service's pool and report
    cache behaviour (the ``--serve-bench`` flag)."""
    n = args.serve_bench
    t0 = time.perf_counter()
    svc.batch([(graph, args.nparts,
                {"method": args.method, "ubvec": args.tol,
                 "seed": args.seed, "matching": args.matching})] * n)
    replay = time.perf_counter() - t0
    stats = svc.stats()
    hits = stats["serve.cache.hits"]
    per_hit = replay / max(n, 1)
    speedup = cold_seconds / per_hit if per_hit > 0 else float("inf")
    print(f"serve-bench: {n} replays in {replay * 1e3:.1f}ms "
          f"({per_hit * 1e6:.0f}us/request, ~{speedup:.0f}x vs cold)")
    print(f"serve-bench: hits={hits} cold_computes="
          f"{stats['serve.cold_computes']} "
          f"coalesced={stats['serve.dedup.coalesced']} "
          f"hit_rate={hits / max(stats['serve.requests'], 1):.1%}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    metrics_server = None
    try:
        if args.demo:
            graph = mesh_like(args.demo, seed=args.seed)
            graph = graph.with_vwgt(type1_region_weights(graph, 3, seed=args.seed))
            source = f"synthetic mesh ({args.demo} vertices, 3 constraints)"
        else:
            if not args.graph:
                print("error: provide a graph file or --demo N", file=sys.stderr)
                return 2
            if str(args.graph).endswith(".npz"):
                from .graph.io import load_npz

                graph = load_npz(args.graph)
            else:
                graph = read_metis_graph(args.graph)
            source = args.graph

        if args.evaluate:
            part = read_partition(args.evaluate, graph.nvtxs)
            if part.max(initial=0) >= args.nparts:
                print("error: partition file uses more parts than nparts",
                      file=sys.stderr)
                return 1
            print(f"graph: {source} ({graph.nvtxs} vertices, "
                  f"{graph.nedges} edges, {graph.ncon} constraints)")
            print(str(PartitionReport.from_partition(graph, part, args.nparts)))
            if args.svg:
                from .viz.svg import save_partition_svg

                save_partition_svg(graph, part, args.svg)
            return 0

        if args.trace:
            parent = os.path.dirname(os.path.abspath(args.trace))
            if not os.path.isdir(parent):
                print(f"error: --trace directory does not exist: {parent}",
                      file=sys.stderr)
                return 2
        if args.profile_json:
            parent = os.path.dirname(os.path.abspath(args.profile_json))
            if not os.path.isdir(parent):
                print(f"error: --profile-json directory does not exist: "
                      f"{parent}", file=sys.stderr)
                return 2

        tracer = None
        recorder = None
        want_profile = args.profile or args.profile_json
        if args.trace or args.trace_summary or want_profile:
            from .trace import JsonlSink, Tracer

            sinks = [JsonlSink(args.trace)] if args.trace else []
            if want_profile:
                from .obs import FlightRecorder

                recorder = FlightRecorder()
                sinks.append(recorder)
            tracer = Tracer(sinks)

        if args.metrics_port is not None:
            from .obs import MetricsServer

            if tracer is None:
                from .trace import Tracer

                tracer = Tracer()
            # Scrapes pull straight from the live tracer registry (the
            # --cache path swaps in the richer service source below).
            metrics_server = MetricsServer(
                tracer, port=args.metrics_port,
                profile=recorder.profile if recorder is not None else None)
            if not args.quiet:
                print(f"metrics: {metrics_server.url}/metrics")

        if args.fault_spec and not args.ranks:
            print("error: --fault-spec requires --ranks (faults are injected "
                  "into the simulated parallel run)", file=sys.stderr)
            return 2
        if args.executor != "sim" and not args.ranks:
            print("error: --executor requires --ranks", file=sys.stderr)
            return 2
        if args.fault_spec and args.executor != "sim":
            print("error: --fault-spec only applies to the sim executor "
                  "(the injector screens simulated collectives; real worker "
                  "failure is tested via ShmFabric(inject_crash=...))",
                  file=sys.stderr)
            return 2
        if args.ranks and args.nseeds > 1:
            print("error: --ranks and --nseeds cannot be combined",
                  file=sys.stderr)
            return 2
        use_cache = args.cache or args.serve_bench
        if (args.backend != "thread" or args.cache_dir) and not use_cache:
            print("error: --backend/--cache-dir only apply to the served "
                  "path; add --cache or --serve-bench", file=sys.stderr)
            return 2
        if use_cache and (args.ranks or args.nseeds > 1):
            print("error: --cache/--serve-bench cannot be combined with "
                  "--ranks or --nseeds", file=sys.stderr)
            return 2
        if want_profile and use_cache:
            # Served computes run on private per-request tracers, so their
            # level events never reach this process's recorder.
            print("error: --profile/--profile-json cannot be combined with "
                  "--cache/--serve-bench", file=sys.stderr)
            return 2
        if use_cache and args.seed is None:
            # A None seed is explicitly nondeterministic and bypasses the
            # cache; pin one so the served run is reproducible & cacheable.
            args.seed = 0

        # Initial-partitioning knobs ride through every execution path as
        # plain option kwargs; the PartitionOptions front-door validates
        # them (unknown method names raise OptionsError with a did-you-mean
        # suggestion).
        init_opts = {}
        if args.init_ntries is not None:
            init_opts["init_ntries"] = args.init_ntries
        if args.init_methods is not None:
            init_opts["init_methods"] = tuple(
                m.strip() for m in args.init_methods.split(",") if m.strip())
        if args.init_patience is not None:
            init_opts["init_patience"] = args.init_patience
        if args.effort is not None:
            init_opts["effort"] = args.effort

        t0 = time.perf_counter()
        if use_cache:
            from .serve import PartitionService, ServiceConfig

            cfg = ServiceConfig(backend=args.backend,
                                cache_dir=args.cache_dir)
            with PartitionService(cfg, tracer=tracer) as svc:
                if metrics_server is not None:
                    metrics_server.source = svc
                res = svc.partition(graph, args.nparts, method=args.method,
                                    ubvec=args.tol, seed=args.seed,
                                    matching=args.matching, **init_opts)
                elapsed = time.perf_counter() - t0
                served_from = "cold"
                if args.cache_dir:
                    st = svc.stats()
                    if st.get("serve.diskcache.hits", 0):
                        served_from = "disk hit"
                print(res.summary() + f"  [{elapsed:.2f}s {served_from}]")
                if args.serve_bench:
                    _serve_bench(svc, graph, args, cold_seconds=elapsed)
        elif args.ranks and args.executor == "parity":
            from .parallel import run_parity
            from .partition.config import PartitionOptions

            opts = PartitionOptions(ubvec=args.tol, seed=args.seed,
                                    matching=args.matching, **init_opts)
            rep = run_parity(graph, args.nparts, args.ranks, options=opts)
            elapsed = time.perf_counter() - t0
            print(rep.summary() + f"  [{elapsed:.2f}s]")
            return 0 if rep.ok else 1
        elif args.ranks:
            from .parallel import parallel_part_graph
            from .partition.config import PartitionOptions

            opts = PartitionOptions(ubvec=args.tol, seed=args.seed,
                                    matching=args.matching, **init_opts)
            res = parallel_part_graph(
                graph, args.nparts, args.ranks,
                options=opts, tracer=tracer,
                faults=args.fault_spec, strict=args.strict,
                executor=args.executor,
            )
            elapsed = time.perf_counter() - t0
            print(res.summary() + f"  [{elapsed:.2f}s]")
            if res.degraded:
                print(f"warning: parallel run degraded to serial fallback "
                      f"({res.degraded_reason})", file=sys.stderr)
            if not args.quiet and res.faults is not None:
                injected = {k: v for k, v in res.faults.items() if v}
                print(f"faults injected: {injected or 'none'}")
        elif args.nseeds > 1:
            from .partition.ensemble import best_of

            ens = best_of(
                graph, args.nparts, args.nseeds,
                seed=args.seed, method=args.method,
                ubvec=args.tol, matching=args.matching,
                tracer=tracer, **init_opts,
            )
            res = ens.best
            elapsed = time.perf_counter() - t0
            print(ens.summary() + f"  [{elapsed:.2f}s]")
        else:
            res = part_graph(
                graph,
                args.nparts,
                method=args.method,
                ubvec=args.tol,
                seed=args.seed,
                matching=args.matching,
                tracer=tracer,
                strict=args.strict,
                **init_opts,
            )
            elapsed = time.perf_counter() - t0
            print(res.summary() + f"  [{elapsed:.2f}s]")
        if tracer is not None:
            tracer.finish()
            if args.trace_summary:
                if args.ranks or res.stats is None:
                    from .trace import TraceReport

                    print(TraceReport.from_tracer(tracer).render())
                else:
                    print(res.stats.render())
            if recorder is not None:
                from .obs import render_profile

                profile = recorder.profile()
                if args.profile:
                    print(render_profile(profile))
                if args.profile_json:
                    with open(args.profile_json, "w") as fh:
                        fh.write(profile.to_json() + "\n")
                    if not args.quiet:
                        print(f"profile written to {args.profile_json}")
            if args.trace and not args.quiet:
                print(f"trace written to {args.trace}")
        if not args.quiet:
            print(f"graph: {source} ({graph.nvtxs} vertices, {graph.nedges} edges, "
                  f"{graph.ncon} constraints)")
            print(str(PartitionReport.from_partition(graph, res.part, args.nparts)))
        if args.out:
            write_partition(res.part, args.out)
            if not args.quiet:
                print(f"partition written to {args.out}")
        if args.svg:
            from .viz.svg import save_partition_svg

            save_partition_svg(graph, res.part, args.svg)
            if not args.quiet:
                print(f"rendering written to {args.svg}")
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if metrics_server is not None:
            metrics_server.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
