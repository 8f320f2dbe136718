#!/usr/bin/env python3
"""Write one BENCH file: every perfbench workload, plain and traced.

    python3 scripts/bench_snapshot.py --pr N [--root CHECKOUT] [--against BENCH_M.json]

For each workload in CHECKOUT's BENCHMARK.json this runs CHECKOUT's
``perfbench/run.py`` as a subprocess twice, at seed 1 and the benchmark's
``run_seconds``: with ``--trace 0`` for the end-to-end metrics and with
``--trace 1`` for the per-layer metrics.  It writes ``BENCH_<N>.json`` at the
root of the checkout holding this script, with the measured commit, the core
count and the seed.  CHECKOUT defaults to that same checkout; pointing it at
a clone of an older commit measures that commit with its own benchmark code.
perfbench reports per-layer times as wall-clock; the file holds them scaled
to perfbench's reference speed by ``cal_ref_s / cal_median_s`` of the traced
phase, as perfbench scales its op latencies, and says so under
``scaled_times``.

``--against FILE`` then prints, per workload, the new/old ratio of every
metric and names the per-layer metric that moved most beyond single-run
scatter, or says that none did.  A time layer is judged after dividing its
ratio by the workload's drift, the median ratio of its time layers, so a
run that was slow throughout names no layer.  Against a file whose times
are scaled otherwise (older files hold wall-clock times) it names no time
layer.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# one fixed seed, so that consecutive BENCH files measure the same inputs
SEED = 1
# Single-run scatter on unchanged code, one seed-1 run per side (BENCH_8 ->
# BENCH_10): work counts per pass moved by at most 0.2%, times and sample
# counts by x0.83-x1.17.  So a metric in COUNT_UNITS moves beyond 1%, and
# any other only beyond x1.3 either way.
COUNT_UNITS = ("count/pass", "GFLOP/pass")
COUNT_BAND, SCATTER_FACTOR = 0.01, 1.3
# per-layer units that are times, scaled to the reference speed
TIME_UNITS = ("s/pass", "us")
# a median of fewer time layers than this is no majority to call drift
DRIFT_MIN_LAYERS = 3


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple:
    """(result line, record file) of one ``perfbench/run.py`` run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {workload} --trace {trace} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())


def scale_times(values: dict, units: dict, speed: dict) -> dict:
    """Per-layer values with every time scaled to the reference speed."""
    factor = speed["cal_ref_s"] / speed["cal_median_s"]
    return {name: v * factor if units[name] in TIME_UNITS else v
            for name, v in values.items()}


def commit_of(root: Path, env: dict) -> str:
    """The measured commit, marked ``-dirty`` when src/ differs from it."""
    commit = env["git_commit"]
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"],
                            cwd=root, capture_output=True, text=True)
    if status.returncode == 0 and status.stdout.strip():
        commit += "-dirty"
    return commit


def snapshot(root: Path) -> dict:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units, workloads = {}, {}
    for wl in (w["name"] for w in bench["workloads"]):
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run_workload(root, wl, SEED, seconds, trace)
            metrics = result["metrics"]
            entry[key] = {name: m["value"] for name, m in metrics.items()}
            units.update({name: m["unit"] for name, m in metrics.items()})
            if trace:
                entry[key] = scale_times(entry[key], units,
                                         record["traced"]["speed"])
            entry[f"trace{trace}_run"] = {k: result[k]
                                          for k in ("correct", "attempted", "failed")}
            print(f"{wl} --trace {trace}: {result['attempted']} ops, "
                  f"{result['failed']} failed", file=sys.stderr)
        workloads[wl] = entry
    env = record["environment"]
    return {"commit": commit_of(root, env), "src_sha256": env["src_sha256"],
            "nproc": env["nproc"], "seed": SEED, "run_seconds": seconds,
            "scaled_times": "reference speed", "units": units,
            "workloads": workloads}


def _ratio(new: float, old: float) -> float:
    if old == 0.0:
        return 1.0 if new == 0.0 else math.inf
    return new / old


def _beyond_scatter(r: float, unit: str) -> bool:
    if unit in COUNT_UNITS:
        return abs(r - 1.0) > COUNT_BAND
    return r == 0.0 or max(r, 1.0 / r) > SCATTER_FACTOR


def _drift(ratios: list) -> float:
    """Median of a workload's time-layer ratios; 1 for too few layers.

    The calibration kernel does not remove the whole host-speed drift of a
    traced run: a run slow throughout moves every time layer together
    (BENCH_16 against BENCH_15: flow's time layers all read x1.17-x1.30 on
    unchanged code).  The median takes that common move out.
    """
    return statistics.median(ratios) if len(ratios) >= DRIFT_MIN_LAYERS else 1.0


def compare(new: dict, old: dict, stream=sys.stdout) -> dict:
    """Print every metric's new/old ratio; return the most-moved layer per workload.

    A per-layer metric's move is |log(new/old)|, a time's after dividing by
    the workload's drift, and it counts only beyond single-run scatter for
    its unit in the BENCH file; metrics that read 0 on both sides and the
    tracing overhead itself are left out of the choice, and so are times
    when the two files scale them differently.
    """
    units = {**old.get("units", {}), **new.get("units", {})}
    print(f"{new['commit']} against {old['commit']} (seed {new['seed']}, "
          f"{new['run_seconds']} s runs, nproc {new['nproc']})", file=stream)
    scales = [f.get("scaled_times", "wall-clock") for f in (new, old)]
    times_comparable = scales[0] == scales[1]
    if not times_comparable:
        print(f"per-layer times are {scales[0]} here but {scales[1]} in the "
              "older file: no time layer is named", file=stream)
    moved = {}
    for wl, entry in new["workloads"].items():
        base = old["workloads"].get(wl)
        if base is None:
            print(f"{wl}: not in the older file", file=stream)
            continue
        print(f"{wl}:", file=stream)
        drift = 1.0
        if times_comparable:
            drift = _drift([
                value / base["per_layer"][name]
                for name, value in entry["per_layer"].items()
                if units.get(name, "") in TIME_UNITS
                and not name.startswith("trace.") and value > 0.0
                and base["per_layer"].get(name, 0.0) > 0.0])
            print(f"  drift x{drift:.3g} (median time-layer ratio)", file=stream)
        best, best_move = None, 0.0
        for key in ("end_to_end", "per_layer"):
            for name, value in entry[key].items():
                if name not in base[key]:
                    continue
                prev = base[key][name]
                r = _ratio(value, prev)
                print(f"  {name:48s} {prev:12.6g} -> {value:12.6g}  x{r:.3g}",
                      file=stream)
                unit = units.get(name, "")
                if unit in TIME_UNITS:
                    r /= drift
                if (key == "per_layer" and not name.startswith("trace.")
                        and (value or prev)
                        and (times_comparable or unit not in TIME_UNITS)
                        and _beyond_scatter(r, unit)):
                    move = math.inf if r in (0.0, math.inf) else abs(math.log(r))
                    if move > best_move:
                        best, best_move = name, move
        moved[wl] = best
        if best is None:
            print("  no layer moved beyond single-run scatter", file=stream)
        else:
            r = _ratio(entry["per_layer"][best], base["per_layer"][best])
            after = (f" (x{r / drift:.3g} after drift)"
                     if units.get(best, "") in TIME_UNITS and drift != 1.0 else "")
            print(f"  moved most: {best} x{r:.3g}{after}", file=stream)
    return moved


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number N of the BENCH_<N>.json file to write")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--against", type=Path, default=None,
                    help="older BENCH file to compare the new one with")
    args = ap.parse_args(argv)
    snap = snapshot(args.root.resolve())
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(snap, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    if args.against is not None:
        compare(snap, json.loads(args.against.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
