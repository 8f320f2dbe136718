"""Phases, outcomes and metrics of one benchmark run."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()

# name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "solved_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "solved_ratio": "ratio",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3     # plus the run's own process: four set-ups per run


@dataclass
class Outcome:
    kind: str
    latency: float               # wall seconds
    status: str                  # "solved", "refused" (known defect) or "failed"
    why: str = ""                # tightest check, or the exception text
    margin: float = 0.0          # tightest value / limit over the gate's checks
    points: int = 0
    samples: int = 0
    retried: bool | None = None
    defect: str | None = None
    ref_latency: float = 0.0     # reference-speed seconds (speed.py)
    start: float = 0.0


@dataclass
class Phase:
    outcomes: list
    busy: float                  # summed op latencies, wall seconds
    passes: int
    wall: float                  # phase start to end, gates included
    pooled: dict = field(default_factory=dict)
    ref_busy: float = 0.0        # summed reference-speed latencies
    clock: dict = field(default_factory=dict)


def judge(op, value, exc) -> Outcome:
    """Classify one op from its result or exception; runs off the op's clock."""
    if exc is not None:
        known = workloads.KNOWN_DEFECTS.get(op.defect)
        status = "refused" if known and type(exc).__name__ == known["refusal"] else "failed"
        return Outcome(op.kind, 0.0, status, f"{type(exc).__name__}: {exc}",
                       defect=op.defect)
    try:
        checks = op.gate(value)
    except Exception as gate_exc:   # a malformed answer is a failed op
        return Outcome(op.kind, 0.0, "failed", f"gate raised {gate_exc!r}", defect=op.defect)
    worst_name, worst = "", 0.0
    ok = True
    for name, (v, limit) in checks.items():
        ok = ok and v <= limit
        ratio = v / limit if limit > 0 else (math.inf if v > 0 else 0.0)
        if ratio >= worst:
            worst_name, worst = name, ratio
    retried = op.retried(value) if op.retried else None
    return Outcome(op.kind, 0.0, "solved" if ok else "failed",
                   f"{worst_name}: {checks[worst_name][0]:.3g} vs {checks[worst_name][1]:.3g}"
                   if worst_name else "", worst, op.points, op.samples, retried, op.defect)


def run_phase(wl, seconds: float, tracer=None) -> Phase:
    """Whole passes until the ops have been busy for ``seconds`` of wall time."""
    wl.begin_phase()
    clock = speed.Clock()
    start = time.perf_counter()
    clock.tick(force=True)
    outcomes, busy, p = [], 0.0, 0
    while p == 0 or busy < seconds:
        for op in wl.pass_ops(p):
            clock.tick()
            root = tracer.begin_op(len(outcomes), op.kind) if tracer else None
            value = exc = None
            t0 = time.perf_counter()
            try:
                value = op.run()
            except Exception as e:  # a refusal or a crash; judge() tells which
                exc = e
            latency = time.perf_counter() - t0
            if tracer:
                tracer.end_op(root)
            out = judge(op, value, exc)
            out.latency, out.start = latency, t0
            outcomes.append(out)
            busy += latency
        p += 1
    clock.tick(force=True)
    for o in outcomes:
        o.ref_latency = clock.scale(o.start, o.start + o.latency)
    pooled = wl.pooled_gate()
    for o in outcomes:
        for name, (v, limit) in pooled.get(o.kind, {}).items():
            if o.status == "solved" and not v <= limit:
                o.status, o.why = "failed", f"pooled {name}: {v:.3g} vs {limit:.3g}"
    return Phase(outcomes, busy, p, time.perf_counter() - start, pooled,
                 sum(o.ref_latency for o in outcomes), clock.record())


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> list:
    """Set-up of ``probes`` fresh processes, one after another, in reference-speed s."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest percentile with >= 10 ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase: Phase, setup: list) -> tuple:
    """The metrics of ``END_TO_END``; timings in reference-speed units (speed.py)."""
    ok = [o.ref_latency for o in phase.outcomes if o.status == "solved"]
    solved, attempted = len(ok), len(phase.outcomes)
    tail_s, tail_pct = tail(ok) if ok else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(setup),
        "solved_per_s": solved / phase.ref_busy,
        "op_p50_ms": 1e3 * statistics.median(ok) if ok else 0.0,
        "op_tail_ms": 1e3 * tail_s,
        "solved_ratio": solved / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, tail_pct


def environment() -> dict:
    """What the measurement depends on, as this process sees it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"name": blas.get("name"), "version": blas.get("version"),
           "library": None, "threads": None,
           "env": {v: os.environ.get(v) for v in
                   ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None and env["threads"] is None:
                    fn.restype = ctypes.c_int
                    env["library"], env["threads"] = lib, fn()
    except OSError:
        pass    # no /proc or no loadable library: the thread count stays unknown
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass    # git missing: the source digest below still identifies the code
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hardedge").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": NPROC, "cpu_count": os.cpu_count(), "machine": platform.machine(),
        "blas": env, "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "git_commit": commit or "not a git checkout",
        "src_sha256": digest.hexdigest(),
    }


def summarize(phase: Phase) -> dict:
    kinds = {}
    for o in phase.outcomes:
        k = kinds.setdefault(o.kind, {"solved": 0, "refused": 0, "failed": 0,
                                      "latency_ms": [], "ref_ms": [], "worst_margin": 0.0})
        k[o.status] += 1
        if o.status == "solved":
            k["latency_ms"].append(1e3 * o.latency)
            k["ref_ms"].append(1e3 * o.ref_latency)
            k["worst_margin"] = max(k["worst_margin"], o.margin)
    for k in kinds.values():
        lat, ref = k.pop("latency_ms"), k.pop("ref_ms")
        k["p50_ms"] = statistics.median(lat) if lat else None
        k["p50_ref_ms"] = statistics.median(ref) if ref else None
    return {
        "passes": phase.passes, "busy_s": phase.busy, "ref_busy_s": phase.ref_busy,
        "speed": phase.clock, "kinds": kinds,
        "pooled_gates": {kind: {n: list(v) for n, v in c.items()}
                         for kind, c in phase.pooled.items()},
        "refusals": [{"kind": o.kind, "defect": o.defect, "error": o.why,
                      "latency_ms": 1e3 * o.latency}
                     for o in phase.outcomes if o.status == "refused"],
        "failures": [{"kind": o.kind, "why": o.why} for o in phase.outcomes
                     if o.status == "failed"],
        "ops": [[o.kind, o.status, round(1e3 * o.latency, 3), round(1e3 * o.ref_latency, 3)]
                for o in phase.outcomes],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, timer: speed.SetupTimer,
        probes: int = SETUP_PROBES, tiny: bool = False) -> dict:
    """One run; ``timer`` started with this process, for its own set-up time."""
    wl = workloads.WORKLOADS[workload](seed, tiny=tiny)
    op = wl.warmup_op()
    op.gate(op.run())
    setup = None
    if not trace:
        setup = [timer.stop()] + measure_setup(workload, seed, probes)
    plain = run_phase(wl, seconds)
    phase = plain
    result = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": environment(), "known_defects": workloads.KNOWN_DEFECTS,
              "untraced": summarize(plain)}
    if trace:
        tracer = tracing.Tracer()
        tracer.install(with_eigvalsh=workload == "mc")
        try:
            phase = run_phase(wl, seconds, tracer)
        finally:
            tracer.restore()
        ratio = ((sum(o.status == "solved" for o in phase.outcomes) / phase.ref_busy)
                 / (sum(o.status == "solved" for o in plain.outcomes) / plain.ref_busy))
        metrics = tracing.layer_metrics(tracer, phase.passes, phase.outcomes, ratio)
        units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        result["traced"] = summarize(phase)
        result["trace_check"] = {"self_time_sum_s": sum(tracer.self_times()),
                                 "traced_wall_s": phase.wall, "spans": len(tracer.spans)}
        result["spans_file"] = str(OUT / f"{workload}-seed{seed}-spans.json")
        result["_tracer"] = tracer
    else:
        metrics, pct = end_to_end(plain, setup)
        result["setup_samples_s"] = setup
        result["op_tail_percentile"] = pct
        units = END_TO_END
    result["inputs"] = wl.record()
    failed = sum(o.status == "failed" for o in phase.outcomes)
    result["result"] = {
        "correct": failed == 0 and all(o.status != "failed" for o in plain.outcomes),
        "attempted": len(phase.outcomes),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return result


def report(result: dict, stream) -> None:
    """Write the record file and spans, then print the summary and the result line."""
    OUT.mkdir(exist_ok=True)
    tracer = result.pop("_tracer", None)
    if tracer is not None:
        tracer.write(result["spans_file"])
    tag = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    res = result["result"]
    phase = result["traced" if result["trace"] else "untraced"]
    counts = {s: sum(k[s] for k in phase["kinds"].values())
              for s in ("solved", "refused", "failed")}
    print(f"{tag}: {res['attempted']} ops in {phase['passes']} passes, "
          f"{phase['busy_s']:.2f} s busy; solved {counts['solved']}, "
          f"refused {counts['refused']} (known defects), failed {counts['failed']}", file=stream)
    sp = phase["speed"]
    print(f"  host speed: {sp['calibrations']} calibrations, kernel median "
          f"{1e3 * sp['cal_median_s']:.3f} ms (min {1e3 * sp['cal_min_s']:.3f}, max "
          f"{1e3 * sp['cal_max_s']:.3f}); timings below are scaled to "
          f"{1e3 * sp['cal_ref_s']:g} ms (perfbench/speed.py)", file=stream)
    for f in phase["failures"][:10]:
        print(f"  FAILED {f['kind']}: {f['why']}", file=stream)
    for name, m in res["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{result['op_tail_percentile']:.2f}, 10 ops beyond)"
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}{extra}", file=stream)
    env = result["environment"]
    print(f"  environment: nproc {env['nproc']}, {env['blas']['name']} {env['blas']['version']}"
          f" threads {env['blas']['threads']}, python {env['python']},"
          f" numpy {env['numpy']}, scipy {env['scipy']}, commit {env['git_commit']}",
          file=stream)
    inputs = result["inputs"]["passes"]
    print(f"  inputs of pass 0 of {len(inputs)}: {json.dumps(inputs[0])}", file=stream)
    print(f"  record (all inputs, refusals, environment): {path.relative_to(ROOT)}",
          file=stream)
    print(json.dumps(res), file=stream)
