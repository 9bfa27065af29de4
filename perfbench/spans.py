"""Outside-in span recorder for the traced benchmark run.

The program's own ``repro.trace`` stays off.  Instead, :class:`Recorder`
temporarily rebinds the public functions the partitioning pipelines call
into each layer -- at the module names the callers look them up under --
with thin wrappers that
record one span per call: name, layer, start, end, parent span, thread and
op id.  Spans stay in memory and are written out when the run ends.

Layers are the program's modules.  *Phase* spans (``coarsen``,
``initpart``, ``refine``, ``balance``, ``adaptive``) partition an op's time:
a phase's self time is its duration minus the phase spans nested directly
inside it.  *Kernel* spans (matching, contraction, bisection, 2-way FM) are
attributed to the nearest enclosing phase and never subtracted.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

PHASES = ("coarsen", "initpart", "refine", "balance", "adaptive")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    kernel: bool
    start: float
    end: float
    thread: int
    op: int | None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _coarsen_info(args, kwargs, out) -> dict:
    return {"levels": out.nlevels, "sizes": out.sizes()}


def _refine_info(args, kwargs, out) -> dict:
    return {"passes": int(out.passes), "moves": int(out.moves)}


def _balance_state_info(args, kwargs, out) -> dict:
    state = args[0] if args else kwargs["state"]
    return {"moves": int(out), "nvtxs": int(state.graph.nvtxs),
            "feasible": bool(state.feasible())}


def _adaptive_info(args, kwargs, out) -> dict:
    return {"moved_frac": float(out.migration["moved_fraction"])}


class Recorder:
    """Collects spans from wrapped entry points; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.op: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, layer: str, *, kernel: bool = False, info=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = info(args, kwargs, out) if info is not None else {}
            span = Span(sid, parent, name, layer, kernel, t0, t1,
                        threading.get_ident(), self.op, extra)
            with self._lock:
                self.spans.append(span)
            return out

        return traced

    @contextmanager
    def op_span(self, op_id: int, name: str):
        """Root span of one benchmark op (the public call)."""
        self.op = op_id
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, None, name, "op", False, t0, t1,
                                       threading.get_ident(), op_id))
            self.op = None

    @contextmanager
    def installed(self):
        """Rebind the layer entry points for the duration of the block."""
        import repro.adaptive.repart as repart
        import repro.coarsen.coarsener as coarsener
        import repro.partition.kway as kway
        import repro.partition.recursive as recursive
        import repro.refine.kwayref as kwayref
        import repro.serve.warm as warm

        targets = [
            (kway, "coarsen", "coarsen", "coarsen", False, _coarsen_info),
            (kway, "partition_recursive", "initpart", "initpart", False, None),
            (kway, "kway_refine", "refine", "refine", False, _refine_info),
            (kway, "balance_kway", "balance", "balance", False, None),
            (coarsener, "contract", "contract", "coarsen.contract", True, None),
            (coarsener, "two_hop_matching", "match", "coarsen.match", True, None),
            (recursive, "initial_bisection", "bisect", "initpart.bisect", True, None),
            (recursive, "fm2way_refine", "fm2way", "initpart.fm2way", True, None),
            (recursive, "balance_kway", "balance", "balance", False, None),
            (kwayref, "balance_kway_state", "balance_state", "balance", False,
             _balance_state_info),
            (repart, "balance_kway_state", "balance_state", "balance", False,
             _balance_state_info),
            (repart, "kway_refine", "refine", "refine", False, _refine_info),
            (warm, "refine_partition", "adaptive", "adaptive", False, _adaptive_info),
        ]
        saved = []
        try:
            for mod, attr, name, layer, kernel, info in targets:
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, layer, kernel=kernel, info=info))
            matchers = coarsener.MATCHERS
            saved_matchers = dict(matchers)
            for key, fn in saved_matchers.items():
                matchers[key] = self.wrap(fn, "match", "coarsen.match", kernel=True)
            yield self
        finally:
            if "saved_matchers" in locals():
                matchers.update(saved_matchers)
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def _phase_of(span: Span) -> str:
    return span.layer.split(".", 1)[0]


def layer_metrics(spans: list[Span], nops: int, op_total: float | None = None) -> dict:
    """Per-layer metrics, each averaged per op (``nops`` traced ops).

    Times are self times: a phase span's duration minus the phase spans
    nested directly inside it; kernel time is summed under the nearest
    enclosing phase.  ``op_total`` is the ops' summed wall time; it
    defaults to the op spans' total.  ``serve_mix`` passes its warm
    requests' summed latency instead, because their phase spans run on
    the service's threads, outside any op span.
    """
    by_id = {s.id: s for s in spans}

    def phase_parent(s: Span) -> Span | None:
        p = by_id.get(s.parent) if s.parent is not None else None
        while p is not None and p.kernel:
            p = by_id.get(p.parent) if p.parent is not None else None
        return p

    self_s = {ph: 0.0 for ph in PHASES}
    child_s: dict[int, float] = {}
    for s in spans:
        if s.kernel:
            continue
        p = phase_parent(s)
        if p is not None:
            child_s[p.id] = child_s.get(p.id, 0.0) + s.seconds
    for s in spans:
        if not s.kernel and s.layer != "op":
            self_s[_phase_of(s)] += s.seconds - child_s.get(s.id, 0.0)

    kernel_s: dict[str, float] = {}
    kernel_calls: dict[str, int] = {}
    for s in spans:
        if not s.kernel:
            continue
        p = phase_parent(s)
        phase = _phase_of(p) if p is not None else "none"
        key = f"{phase}.{s.name}"
        kernel_s[key] = kernel_s.get(key, 0.0) + s.seconds
        kernel_calls[key] = kernel_calls.get(key, 0) + 1

    coarsens = [s for s in spans if s.name == "coarsen"]
    shrinks = []
    for s in coarsens:
        sizes = s.info["sizes"]
        shrinks.extend(b / a for a, b in zip(sizes, sizes[1:]))
    refines = [s for s in spans if s.name == "refine"]
    passes = sum(s.info["passes"] for s in refines)
    rmoves = sum(s.info["moves"] for s in refines)
    states = [s for s in spans if s.name == "balance_state"]
    bmoves = sum(s.info["moves"] for s in states)
    bverts = sum(s.info["nvtxs"] for s in states)
    adaptive = [s for s in spans if s.name == "adaptive"]
    if op_total is None:
        op_total = sum(s.seconds for s in spans if s.layer == "op")
    per = 1.0 / max(nops, 1)

    out = {
        "coarsen.s": self_s["coarsen"] * per,
        "coarsen.match_s": kernel_s.get("coarsen.match", 0.0) * per,
        "coarsen.contract_s": kernel_s.get("coarsen.contract", 0.0) * per,
        "coarsen.levels": sum(s.info["levels"] for s in coarsens) * per,
        "coarsen.shrink": float(np.mean(shrinks)) if shrinks else 0.0,
        "coarsen.coarsest_nvtxs": (float(np.mean([s.info["sizes"][-1] for s in coarsens]))
                                   if coarsens else 0.0),
        "initpart.s": self_s["initpart"] * per,
        "initpart.bisections": kernel_calls.get("initpart.bisect", 0) * per,
        "initpart.fm2way_s": kernel_s.get("initpart.fm2way", 0.0) * per,
        "initpart.fm2way_calls": kernel_calls.get("initpart.fm2way", 0) * per,
        "refine.s": self_s["refine"] * per,
        "refine.calls": len(refines) * per,
        "refine.passes": passes * per,
        "refine.moves": rmoves * per,
        "refine.moves_per_pass": rmoves / passes if passes else 0.0,
        "balance.s": self_s["balance"] * per,
        "balance.calls": len(states) * per,
        "balance.moves": bmoves * per,
        "balance.moves_per_vertex": bmoves / bverts if bverts else 0.0,
        "balance.feasible_ratio": (sum(s.info["feasible"] for s in states) / len(states)
                                   if states else 0.0),
        "adaptive.self_s": self_s["adaptive"] * per,
        "adaptive.moved_frac": (float(np.mean([s.info["moved_frac"] for s in adaptive]))
                                if adaptive else 0.0),
        "op.self_s": max(op_total - sum(self_s.values()), 0.0) * per,
    }
    for ph in PHASES:
        out[f"{ph}.share"] = self_s[ph] / op_total if op_total else 0.0
    return out
