"""The workloads: inputs generated from the workload seed, and the one
public call each op makes.

Every input is derived from ``(seed, tag)`` through ``numpy``'s
``SeedSequence``, so the same seed always gives the same graphs, weights
and partition seeds, and the program only ever sees the generated inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import coactivity_edge_weights, mesh_like, part_graph, type1_region_weights
from repro.graph.ops import bfs_regions
from repro.weights import type2_multiphase

UBVEC = 1.05


def seeds(seed: int, tag: str, n: int) -> list[int]:
    """``n`` independent 32-bit seeds for the input named ``tag``."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(tag.encode())])
    return [int(x) for x in ss.generate_state(n)]


@dataclass
class Op:
    """One public call of a single-caller workload.  ``call(seed)`` makes
    the call with ``seed`` as the program's seed; the runner draws a fresh
    one per op and cycle from the workload seed."""

    label: str
    graph: object
    nparts: int
    call: Callable[[int], object]


#: Seed of the recorded inputs, as ``MASTER_SEED`` in ``benchmarks/_util.py``.
#: The cut and run time of one instance depend mostly on its Type-1 region
#: vectors; drawn afresh per seed, the single ``cold_200k`` instance's cut
#: ranged 47k-63k over ten seeds (IQR 25% of the median), so the weight
#: vectors are recorded.
RECORD_SEED = 20260707


def _type1(g, ncon: int, seed: int):
    return g.with_vwgt(type1_region_weights(g, ncon, nregions=16, seed=seed))


def _cold_op(label: str, g, nparts: int) -> Op:
    return Op(label, g, nparts,
              lambda seed: part_graph(g, nparts, seed=seed, effort="standard"))


def setup_cold_200k(seed: int) -> list[Op]:
    """Cold ``part_graph`` on a 200k-vertex mesh, Type-1 weights, m=3, k=16.
    The seed draws the mesh; the weights' region vectors are recorded."""
    g = mesh_like(200_000, seed=seeds(seed, "cold_200k", 1)[0])
    return [_cold_op("200k/t1/m3/k16", _type1(g, 3, RECORD_SEED + 3), 16)]


#: The recorded sm1-sm3 graphs of ``benchmarks/_util.py``: sizes, mesh seeds
#: (``RECORD_SEED`` plus an ordinal hash of the name) and weight seeds.
LADDER = {"sm1": 3_000, "sm2": 6_000, "sm3": 12_000}


def recorded_graph(name: str):
    offset = sum(ord(c) * 31 ** i for i, c in enumerate(name)) % 1000
    return mesh_like(LADDER[name], seed=RECORD_SEED + offset)


def setup_ladder_12k(seed: int) -> list[Op]:
    """Cold ``part_graph`` on the recorded sm1-sm3 graphs, k=16, once with
    Type-1 weights (m=3) and once with Type-2 multiphase weights (m=4) plus
    co-activity edge weights.  Graphs and weights are the recorded ones,
    so only the partition seeds depend on the workload seed."""
    ops = []
    for name in LADDER:
        g = recorded_graph(name)
        ops.append(_cold_op(f"{name}/t1/m3/k16", _type1(g, 3, RECORD_SEED + 3), 16))
        vw, act = type2_multiphase(g, 4, nregions=32, seed=RECORD_SEED + 4)
        t2 = g.with_vwgt(vw).with_adjwgt(coactivity_edge_weights(g, act))
        ops.append(_cold_op(f"{name}/t2/m4/k16", t2, 16))
    return ops


SINGLE_CALLER = {
    "cold_200k": setup_cold_200k,
    "ladder_12k": setup_ladder_12k,
}


# ------------------------------------------------------------- serve_mix

#: Mesh sizes of the served catalogue.
SERVE_SIZES = (3_000, 4_500, 6_000)
SERVE_NPARTS = (4, 8)
#: A warm request's drift adds this share of one constraint's total weight
#: to one of the mesh's 16 regions, spread evenly over the region's vertices.
SERVE_DRIFT = 0.02
#: Planned share of each disposition; the rest (15%) are warm starts.  These
#: shares are a synthetic choice, picked for steadiness; no measured traffic
#: stands behind them.  The hit share is the midpoint of what an unprimed
#: prototype of this stream saw (13-36 hits of 80).  That prototype saw
#: 34-54 warm starts (55%), but with 55% warm starts the median request is
#: a warm start.  Warm starts run in the service's own threads, where the
#: two clients' requests share one interpreter lock, and their times spread
#: from 5 ms to 0.3 s; a run's op_s_p50 then spread 50% between seeds.
#: With 55% cold computes the median request is a cold compute, which runs
#: in a worker process.  Coalesced duplicates are planned at 0: whether a
#: duplicate coalesces depends on how the two clients' requests overlap in
#: time, so its count cannot be fixed by construction.
SERVE_HIT_SHARE = 0.30
SERVE_COLD_SHARE = 0.55
#: Zipf exponent of the popularity of each (mesh, k) within a disposition,
#: as in ``benchmarks/bench_serve_cluster.py``.
SERVE_ZIPF = 1.1


@dataclass
class Request:
    kind: str  # "hit" | "warm" | "cold"
    graph: object
    nparts: int
    seed: int
    label: str


@dataclass
class ServePlan:
    hot: list[Request]       # primed during set-up: the hit keys + warm sources
    stream: list[Request]    # the timed request stream, in submission order

    def planned(self) -> dict:
        out = {"hit": 0, "warm": 0, "cold": 0}
        for r in self.stream:
            out[r.kind] += 1
        return out


def _zipf_counts(n_items: int, total: int) -> list[int]:
    """Requests per item, ``total`` split in proportion to the popularity
    ``1 / (index + 1) ** SERVE_ZIPF`` by largest remainder (the catalogue
    order is the popularity order).  Counts, not draws: with random draws
    (and meshes drawn per seed) a run's edge-cut sum spread 9% between
    seeds."""
    w = 1.0 / np.arange(1, n_items + 1) ** SERVE_ZIPF
    exact = total * w / w.sum()
    counts = np.floor(exact).astype(int)
    for j in np.argsort(counts - exact, kind="stable")[: total - counts.sum()]:
        counts[j] += 1
    return counts.tolist()


def _repeat(counts: list[int]) -> list[int]:
    return [j for j, c in enumerate(counts) for _ in range(c)]


def _drift(hot: Request, g, w0, regions, r: int, c: int, seed: int) -> Request:
    """A warm request: ``hot``'s weights with constraint ``c`` of region
    ``r`` grown by ``SERVE_DRIFT`` of that constraint's total."""
    inside = regions == r
    w = w0.copy()
    w[inside, c] += int(np.ceil(SERVE_DRIFT * w0[:, c].sum() / max(inside.sum(), 1)))
    return Request("warm", g.with_vwgt(w), hot.nparts, seed, f"{hot.label}/drift{r}.{c}")


def plan_serve_mix(seed: int, nrequests: int) -> ServePlan:
    """The served catalogue and a request stream whose dispositions are
    fixed by construction.

    * hit: an undrifted Type-1 key (m=3) that set-up primes;
    * warm: the primed weights of one mesh with a drift of their own and a
      fresh seed, so the key is new and its warm source is the one primed
      entry of the same mesh and ``k``;
    * cold: Type-2 multiphase weights (m=4) with their own co-activity edge
      weights, so the topology is new and no warm source exists.

    The hot keys are in popularity order: (mesh, k) for the three meshes
    and both ``k``.  The meshes, their weights and the drifts are recorded:
    the warm requests of one hot key take the 48 (region, constraint)
    drifts in a recorded order, so a run averages over drifts that the
    balancer fixes at once and drifts that make it work.  Drawn per seed,
    the meshes and drifts moved the warm starts' summed time 2x between
    seeds.  The seed draws the request seeds, the cold requests' Type-2
    weights and the stream order.
    """
    rng = np.random.default_rng(seeds(seed, "serve_mix/plan", 1)[0])
    hot, meshes = [], []
    for i, n in enumerate(SERVE_SIZES):
        s = seeds(RECORD_SEED, f"serve_mix/mesh{i}", 3)
        g = mesh_like(n, seed=s[0])
        regions = bfs_regions(g, 16, seed=s[1])
        w0 = type1_region_weights(g, 3, regions=regions, seed=s[2])
        for k in SERVE_NPARTS:
            hot.append(Request("hit", g.with_vwgt(w0), k, int(rng.integers(2**31)),
                               f"{n}/t1/k{k}"))
            meshes.append((g, w0, regions))

    n_hit = round(SERVE_HIT_SHARE * nrequests)
    n_cold = round(SERVE_COLD_SHARE * nrequests)
    n_warm = nrequests - n_hit - n_cold
    stream = [hot[j] for j in _repeat(_zipf_counts(len(hot), n_hit))]
    drifts = np.random.default_rng(RECORD_SEED).permutation(16 * 3)
    for j, count in enumerate(_zipf_counts(len(hot), n_warm)):
        for t in range(count):
            stream.append(_drift(hot[j], *meshes[j], *divmod(int(drifts[t % drifts.size]), 3),
                                 int(rng.integers(2**31))))
    for j in _repeat(_zipf_counts(len(hot), n_cold)):
        g = hot[j].graph
        vw, act = type2_multiphase(g, 4, nregions=32, seed=int(rng.integers(2**31)))
        g2 = g.with_vwgt(vw).with_adjwgt(coactivity_edge_weights(g, act))
        stream.append(Request("cold", g2, hot[j].nparts, int(rng.integers(2**31)),
                              f"{hot[j].label}/t2"))
    order = rng.permutation(len(stream))
    return ServePlan(hot=hot, stream=[stream[j] for j in order])
