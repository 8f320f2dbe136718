"""Self-test of the benchmark, small enough to run in well under a minute.

    python3 perfbench/run.py --selftest

Checks three things:

1. a tiny run of every workload, untraced and traced, emits exactly the
   metric names of ``BENCHMARK.json`` with their units, in a result line of
   the contracted shape;
2. a deliberately perturbed oracle value turns an op that passes into a
   failed op (table1, gap_grid, flow);
3. the traced self times add up to no more than the traced wall time.
"""

from __future__ import annotations

import json
import time

import bench
import speed
import workloads


def _tiny(name, trace):
    return bench.run(name, seed=1, seconds=0.0, trace=trace,
                     timer=speed.SetupTimer(time.perf_counter()), probes=1, tiny=True)


def check_names(spec, problems):
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            res = _tiny(name, trace)
            line = res["result"]
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name} trace={trace}: result keys {sorted(line)}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want[trace]:
                diff = sorted(set(got.items()) ^ set(want[trace].items()))
                problems.append(f"{name} trace={trace}: names/units differ: {diff}")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: tiny run not correct: "
                                f"{res['traced' if trace else 'untraced']['failures']}")
            if trace:
                tc = res["trace_check"]
                if not tc["self_time_sum_s"] <= tc["traced_wall_s"]:
                    problems.append(f"{name}: traced self times exceed wall time: {tc}")
            print(f"  {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{line['attempted']} ops, correct={line['correct']}")


def check_perturbed_oracles(problems):
    t = workloads.Table1(1)
    op = t.pass_ops(0)[0]
    first = bench.judge(op, op.run(), None).status
    logE, a1 = t.ref[0][4]
    t.ref[0][4] = (logE + 2e-7, a1)
    second = bench.judge(op, op.run(), None).status
    _expect(problems, "table1, reference logE(c=0, r=4) + 2e-7", first, second)

    g = workloads.GapGrid(1)
    op = g._op("m1", (0.0, 0.0), 1.0)
    first = bench.judge(op, op.run(), None).status
    g.oracle_shift = 2e-6
    second = bench.judge(op, op.run(), None).status
    _expect(problems, "gap_grid, exact log E + 2e-6", first, second)

    f = workloads.Flow(1)
    op = f._op(workloads.SPECIAL, 0)
    first = bench.judge(op, op.run(), None).status
    f.oracle_shift = 2e-6
    second = bench.judge(op, op.run(), None).status
    _expect(problems, "flow, Muttalib-Borodin log E + 2e-6", first, second)


def _expect(problems, what, first, second):
    print(f"  perturbed oracle ({what}): {first} -> {second}")
    if (first, second) != ("solved", "failed"):
        problems.append(f"perturbed oracle ({what}) gave {first} -> {second}, "
                        "expected solved -> failed")


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    print("selftest: metric names and units, traced self times")
    check_names(spec, problems)
    print("selftest: perturbed oracles")
    check_perturbed_oracles(problems)
    for p in problems:
        print("PROBLEM:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0
