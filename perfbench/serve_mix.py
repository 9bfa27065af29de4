"""``serve_mix``: two closed-loop clients against a ``PartitionService``
with the process backend and two workers."""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor

from repro import part_graph
from repro.serve import PartitionService, ServiceConfig

from check import CheckError, check_result, digest
from workloads import UBVEC, ServePlan

CLIENTS = 2
WORKERS = 2

#: ``svc.stats()`` counters whose change over the timed window must equal
#: the plan.
_COUNTERS = ("serve.requests", "serve.cache.hits", "serve.warm_start.attempts",
             "serve.warm_start.accepted", "serve.warm_start.rejected",
             "serve.cold_computes", "serve.dedup.coalesced", "serve.shed",
             "serve.cluster.ship.full")


def start_service(plan: ServePlan) -> PartitionService:
    """Spawn the workers and prime every hot key (the hit keys and the only
    warm source of each mesh and ``k``).  Primes are forced cold: a prime
    that warm-started from another prime of the same mesh would not be
    cached, and its hits would turn into warm starts."""
    svc = PartitionService(ServiceConfig(
        backend="process", process_workers=WORKERS, max_workers=CLIENTS,
        cache_entries=4096, cache_bytes=1 << 30))
    try:
        svc.warmup()
        futures = [svc.submit(r.graph, r.nparts, seed=r.seed, warm=False)
                   for r in plan.hot]
        for f in futures:
            f.result()
    except BaseException:
        svc.close()
        raise
    return svc


def run_stream(svc: PartitionService, plan: ServePlan) -> dict:
    """Drive the stream with ``CLIENTS`` closed-loop threads.

    Returns per-request latencies, results and errors (by stream index),
    the timed window and the change of the service counters.
    """
    n = len(plan.stream)
    latency = [None] * n
    results = [None] * n
    errors = {}
    lock = threading.Lock()
    nxt = iter(range(n))

    def client():
        while True:
            with lock:
                i = next(nxt, None)
            if i is None:
                return
            r = plan.stream[i]
            t0 = time.perf_counter()
            try:
                results[i] = svc.partition(r.graph, r.nparts, seed=r.seed)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                errors[i] = repr(exc)
            latency[i] = time.perf_counter() - t0

    before = svc.stats()
    threads = [threading.Thread(target=client, name=f"client{c}") for c in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - t0
    after = svc.stats()
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in _COUNTERS}
    return {"latency": latency, "results": results, "errors": errors,
            "window": window, "delta": delta}


def check_dispositions(plan: ServePlan, delta: dict) -> None:
    """The counters must move exactly as the plan says.  A warm start the
    service rejects (its result was infeasible or its cut blew up) falls
    back to a cold compute, so it moves one count from accepted to cold."""
    want = plan.planned()
    rejected = delta["serve.warm_start.rejected"]
    expect = {
        "serve.requests": len(plan.stream),
        "serve.cache.hits": want["hit"],
        "serve.warm_start.attempts": want["warm"],
        "serve.warm_start.accepted": want["warm"] - rejected,
        "serve.cold_computes": want["cold"] + rejected,
        "serve.dedup.coalesced": 0,
        "serve.shed": 0,
    }
    bad = {k: (delta[k], v) for k, v in expect.items() if delta[k] != v}
    if bad:
        raise CheckError(f"dispositions differ from the plan (got, planned): {bad}")


def check_stream(plan: ServePlan, run: dict) -> list[dict | None]:
    """Check every result; each hit and cold result must equal a serial
    ``part_graph`` of the same request bit for bit.  Returns per-request
    outcomes (``None`` where the request raised); raises on a mismatch."""
    refs = {id(r): r for r in plan.stream if r.kind in ("hit", "cold")}
    serial = dict(zip(refs, serial_digests(list(refs.values()))))
    outcomes = []
    for i, r in enumerate(plan.stream):
        res = run["results"][i]
        if res is None:
            outcomes.append(None)
            continue
        out = check_result(r.graph, r.nparts, UBVEC, res)
        if id(r) in serial and out["digest"] != serial[id(r)]:
            raise CheckError(f"request {i} ({r.kind} {r.label}) differs from a "
                             "serial part_graph of the same input")
        outcomes.append(out)
    return outcomes


def serial_digests(requests) -> list[str]:
    """Partition digests of a plain ``part_graph`` call per request, run
    ``WORKERS`` at a time in spawned processes outside the timed window."""
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(part_graph, r.graph, r.nparts, seed=r.seed)
                   for r in requests]
        return [digest(f.result().part) for f in futures]
