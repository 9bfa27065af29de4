"""Benchmark of the multi-constraint partitioner: three workloads driven
through the public API.

    python3 perfbench/run.py --workload cold_200k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs
every op untraced and traced and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print each
metric with its unit and sample count, and the run's metadata.  The exit
code is non-zero when any output check fails.  ``--workload all`` runs the
workloads one after another, prints one table and exits non-zero if any of
them failed.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
#: The workloads ``BENCHMARK.json`` declares, which ``--workload all`` runs.
WORKLOADS = ("cold_200k", "ladder_12k", "serve_mix")
#: Set-up runs this many times per run; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Requests per second of ``--seconds`` in the ``serve_mix`` stream.  The
#: stream has a fixed length, so that every run serves the same requests;
#: 16 per second is about the service's median throughput on a 2-core box
#: (10-21 requests/s were measured), so the window lasts about ``--seconds``.
SERVE_RATE = 16.0
SERVE_MIN_REQUESTS = 100
#: Per-workload time limit of ``--workload all``.
CHILD_TIMEOUT = 900

END_TO_END_UNITS = {
    "setup_s": "s", "op_s_p50": "s", "op_s_p90": "s", "throughput_ops": "ops/s",
    "edgecut": "weight", "max_imbalance": "ratio", "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}
SERVE_LAYER = ("serve.hit_ratio", "serve.warm_accept_ratio", "serve.cold_computes",
               "serve.hit_s_p50", "serve.warm_s_p50", "serve.cold_s_p50",
               "serve.cluster.ships", "serve.shed")


def vm_hwm_kb(pid="self") -> int:
    """Peak resident memory (VmHWM) of a process, in KiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def quantile(values, q: float) -> float:
    import numpy as np

    return float(np.quantile(np.asarray(values, dtype=float), q))


def calibration_probe() -> float:
    """Median seconds of a fixed numpy + interpreter job: a machine-speed
    reference stored with every run (never a metric)."""
    import numpy as np

    a = np.random.default_rng(0).random(500_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(a)
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_metadata(args) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "calibration_s": calibration_probe(),
    }


class Tally:
    """Outcome counts of one run's ops."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.bad = []  # output-check failures
        self.ok = 0   # checked and feasible

    def failed(self) -> int:
        return self.raised + len(self.bad)


# ------------------------------------------------------ single-caller


def setup_repeated(fn, *args):
    times, out = [], None
    for _ in range(SETUP_REPEATS):
        out = None  # drop the previous inputs before building the next
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


def check_ops(ops, records, tally):
    """Check every (op index, result) record; returns the outcomes of the
    ops that returned a result that passed its check."""
    from check import CheckError, check_result
    from workloads import UBVEC

    outcomes = []
    for i, res in records:
        tally.attempted += 1
        if isinstance(res, BaseException):
            tally.raised += 1
            continue
        op = ops[i]
        try:
            out = check_result(op.graph, op.nparts, UBVEC, res)
        except CheckError as exc:
            tally.bad.append(f"{op.label}: {exc}")
            continue
        tally.ok += out["feasible"]
        outcomes.append(out)
    return outcomes


def cycle_seeds(args, cycle: int, n: int) -> list[int]:
    """Program seeds of one cycle's ``n`` ops: every op of every cycle gets
    its own, so a run averages over the partitioner's randomness."""
    from workloads import seeds

    return seeds(args.seed, f"{args.workload}/cycle{cycle}", n)


def call(op, seed):
    try:
        return op.call(seed)
    except Exception as exc:  # noqa: BLE001 - counted as a failed op
        return exc


def single_caller(args, imports_s):
    from workloads import SINGLE_CALLER

    ops, setup_med = setup_repeated(SINGLE_CALLER[args.workload], args.seed)
    samples, records = [], []
    ncycles = 0
    t0 = time.perf_counter()
    while ncycles == 0 or time.perf_counter() - t0 < args.seconds:
        for i, (op, seed) in enumerate(zip(ops, cycle_seeds(args, ncycles, len(ops)))):
            ts = time.perf_counter()
            res = call(op, seed)
            samples.append(time.perf_counter() - ts)
            records.append((i, res))
        ncycles += 1
    window = time.perf_counter() - t0
    tally = Tally()
    outcomes = check_ops(ops, records, tally)
    metrics = {
        "setup_s": (imports_s + setup_med, SETUP_REPEATS),
        "op_s_p50": (statistics.median(samples), len(samples)),
        "op_s_p90": (quantile(samples, 0.9), len(samples)),
        "throughput_ops": (len(samples) / window, len(samples)),
        # cut of one cycle's ops, averaged over the cycles
        "edgecut": (sum(o["cut"] for o in outcomes) / ncycles, len(outcomes)),
        "max_imbalance": (max((o["max_imbalance"] for o in outcomes), default=0.0),
                          len(outcomes)),
        "ok_frac": (tally.ok / max(tally.attempted, 1), tally.attempted),
        "peak_rss_mb": (vm_hwm_kb() / 1024.0, 1),
    }
    return tally, metrics


def single_caller_traced(args):
    import numpy as np

    from spans import Recorder, layer_metrics
    from workloads import SINGLE_CALLER

    ops = SINGLE_CALLER[args.workload](args.seed)
    rec = Recorder()
    plain, traced, records = [], [], []
    mismatches = []
    opid = 0
    t0 = time.perf_counter()
    while opid == 0 or time.perf_counter() - t0 < args.seconds:
        for i, (op, seed) in enumerate(zip(ops, cycle_seeds(args, opid // len(ops), len(ops)))):
            ts = time.perf_counter()
            res = call(op, seed)
            plain.append(time.perf_counter() - ts)
            with rec.installed():
                with rec.op_span(opid, op.label):
                    ts = time.perf_counter()
                    tres = call(op, seed)
                    traced.append(time.perf_counter() - ts)
            opid += 1
            records += [(i, res), (i, tres)]
            if not (isinstance(res, BaseException) or isinstance(tres, BaseException)
                    or np.array_equal(res.part, tres.part)):
                mismatches.append(op.label)
    tally = Tally()
    check_ops(ops, records, tally)
    tally.bad += [f"{m}: traced partition differs from untraced" for m in mismatches]
    layers = layer_metrics(rec.spans, opid)
    layers.update({name: 0.0 for name in SERVE_LAYER})
    layers["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    return tally, layers, rec, dict.fromkeys(layers, opid)


# ----------------------------------------------------------- serve_mix


def serve_requests(seconds: float) -> int:
    return max(SERVE_MIN_REQUESTS, round(SERVE_RATE * seconds))


def serve_setup(seed, nrequests):
    from serve_mix import start_service
    from workloads import plan_serve_mix

    plan = plan_serve_mix(seed, nrequests)
    return plan, start_service(plan)


def serve_pass(plan, svc, rec=None):
    """Run the stream once on ``svc`` (closing it), optionally traced."""
    import multiprocessing

    from serve_mix import run_stream

    try:
        if rec is None:
            run = run_stream(svc, plan)
        else:
            with rec.installed():
                run = run_stream(svc, plan)
        run["worker_rss_kb"] = sum(vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
    finally:
        svc.close()
    return run


def serve_check(plan, run, tally):
    from check import CheckError
    from serve_mix import check_dispositions, check_stream

    tally.attempted += len(plan.stream)
    tally.raised += len(run["errors"])
    outcomes = []
    try:
        check_dispositions(plan, run["delta"])
        outcomes = [o for o in check_stream(plan, run) if o is not None]
    except CheckError as exc:
        tally.bad.append(str(exc))
    tally.ok += sum(o["feasible"] for o in outcomes)
    return outcomes


def serve(args, imports_s):
    from serve_mix import WORKERS

    nreq = serve_requests(args.seconds)
    times, plan, svc = [], None, None
    for _ in range(SETUP_REPEATS):
        if svc is not None:
            svc.close()
        t0 = time.perf_counter()
        plan, svc = serve_setup(args.seed, nreq)
        times.append(time.perf_counter() - t0)
    run = serve_pass(plan, svc)
    tally = Tally()
    outcomes = serve_check(plan, run, tally)
    lat = [x for x in run["latency"] if x is not None]
    metrics = {
        "setup_s": (imports_s + statistics.median(times), SETUP_REPEATS),
        "op_s_p50": (statistics.median(lat), len(lat)),
        "op_s_p90": (quantile(lat, 0.9), len(lat)),
        "throughput_ops": (len(lat) / run["window"], len(lat)),
        "edgecut": (float(sum(o["cut"] for o in outcomes)), len(outcomes)),
        "max_imbalance": (max((o["max_imbalance"] for o in outcomes), default=0.0),
                          len(outcomes)),
        "ok_frac": (tally.ok / max(tally.attempted, 1), tally.attempted),
        "peak_rss_mb": ((vm_hwm_kb() + run["worker_rss_kb"]) / 1024.0, 1 + WORKERS),
    }
    return tally, metrics


def serve_traced(args):
    import numpy as np

    from spans import Recorder, layer_metrics

    from serve_mix import start_service

    plan, svc = serve_setup(args.seed, serve_requests(args.seconds))
    plain = serve_pass(plan, svc)
    rec = Recorder()
    traced = serve_pass(plan, start_service(plan), rec)
    tally = Tally()
    serve_check(plan, plain, tally)
    serve_check(plan, traced, tally)
    # A rejected warm start caches its cold fallback, which later warm starts
    # on the same mesh and k may then pick as their source, depending on
    # timing; warm results are compared only when neither pass rejected one.
    rejections = plain["delta"]["serve.warm_start.rejected"] + \
        traced["delta"]["serve.warm_start.rejected"]
    for i, (r, a, b) in enumerate(zip(plan.stream, plain["results"], traced["results"])):
        if a is None or b is None or (r.kind == "warm" and rejections):
            continue
        if not np.array_equal(a.part, b.part):
            tally.bad.append(f"request {i}: traced partition differs from untraced")
    delta = traced["delta"]
    by_kind = {"hit": [], "warm": [], "cold": []}
    for r, x in zip(plan.stream, traced["latency"]):
        if x is not None:
            by_kind[r.kind].append(x)
    # Only the warm starts run the partition layers in this process (hits
    # compute nothing, cold computes run in the workers), so the layer
    # metrics are per warm request, and shares are of their latency.
    layers = layer_metrics(rec.spans, len(by_kind["warm"]), op_total=sum(by_kind["warm"]))
    layers.update({
        "serve.hit_ratio": delta["serve.cache.hits"] / max(delta["serve.requests"], 1),
        "serve.warm_accept_ratio": (delta["serve.warm_start.accepted"]
                                    / max(delta["serve.warm_start.attempts"], 1)),
        "serve.cold_computes": float(delta["serve.cold_computes"]),
        "serve.hit_s_p50": statistics.median(by_kind["hit"]) if by_kind["hit"] else 0.0,
        "serve.warm_s_p50": statistics.median(by_kind["warm"]) if by_kind["warm"] else 0.0,
        "serve.cold_s_p50": statistics.median(by_kind["cold"]) if by_kind["cold"] else 0.0,
        "serve.cluster.ships": float(delta["serve.cluster.ship.full"]),
        "serve.shed": float(delta["serve.shed"]),
        "trace.overhead_frac": traced["window"] / plain["window"] - 1.0,
    })
    # layer metrics are per warm request; serve.* and the overhead cover
    # the whole stream
    counts = dict.fromkeys(layers, len(by_kind["warm"]))
    counts.update(dict.fromkeys(SERVE_LAYER + ("trace.overhead_frac",), len(plan.stream)))
    return tally, layers, rec, counts


# ---------------------------------------------------------------- main


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(args, tally, metrics, counts, meta) -> int:
    correct = not tally.bad and tally.raised == 0
    print(f"meta: {json.dumps(meta, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value['value']:>16.6f} {value['unit']:8s} n={counts[name]}")
    for msg in tally.bad:
        print(f"CHECK FAILED: {msg}")
    if tally.raised:
        print(f"OPS RAISED: {tally.raised}")
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed(), "metrics": metrics}
    out.write_text(json.dumps({**result, "meta": meta, "samples": counts,
                               "check_failures": tally.bad}, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def run_one(args) -> int:
    import numpy  # noqa: F401 - part of the import cost set-up pays
    import repro  # noqa: F401
    import repro.serve  # noqa: F401

    imports_s = time.perf_counter() - T_START
    if args.trace:
        fn = serve_traced if args.workload == "serve_mix" else single_caller_traced
        tally, layers, rec, counts = fn(args)
        units = load_units()
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in units.items()}
        OUT_DIR.mkdir(exist_ok=True)
        rec.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        fn = serve if args.workload == "serve_mix" else single_caller
        tally, raw = fn(args, imports_s)
        metrics = {name: {"value": float(v), "unit": END_TO_END_UNITS[name]}
                   for name, (v, _) in raw.items()}
        counts = {name: n for name, (_, n) in raw.items()}
    return report(args, tally, metrics, counts, run_metadata(args))


def run_child(cmd) -> subprocess.CompletedProcess:
    """Run one workload in its own process group; on a timeout the whole
    group, the child's pool workers included, is killed."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_all(args) -> int:
    """Every workload in its own process; one table; non-zero on failure."""
    rows, rc = [], 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        # A child that dies before report() leaves no fresh file; never show
        # the figures an earlier run left behind.
        out = OUT_DIR / f"{w}-seed{args.seed}-trace{args.trace}.json"
        out.unlink(missing_ok=True)
        proc = run_child(cmd)
        result = (json.loads(out.read_text())
                  if proc.returncode in (0, 1) and out.is_file() else None)
        if proc.returncode != 0 or result is None:
            rc = 1
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
        for name, m in (result or {}).get("metrics", {}).items():
            rows.append((w, name, m["value"], m["unit"], result["samples"][name]))
        if result is not None:
            rows.append((w, "(failed ops)", float(result["failed"]), "ops",
                         result["attempted"]))
    print(f"{'workload':12s} {'metric':28s} {'value':>16s} {'unit':8s} samples")
    for w, name, value, unit, n in rows:
        print(f"{w:12s} {name:28s} {value:>16.6f} {unit:8s} {n}")
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        stop_children()


def stop_children() -> None:
    """Wait for every process the run started.  Besides the pools' workers
    this is the resource tracker that spawn-context pools start: nobody
    waits for it at interpreter exit, so it would outlive the run."""
    mp = sys.modules.get("multiprocessing")
    if mp is None:
        return
    for child in mp.active_children():
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


if __name__ == "__main__":
    sys.exit(main())
