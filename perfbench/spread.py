"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 [--workloads gap_grid mc]
        [--save perfbench/out/spread-a.json] [--compare perfbench/out/spread-a.json]

Runs ``run.py`` once per (workload, seed), one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For each metric it prints the median and
the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  ``--compare`` also prints how much worse each median is
than the one in an earlier saved set.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--save")
    p.add_argument("--compare")
    args = p.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    old = json.loads(Path(args.compare).read_text()) if args.compare else {}
    values = {}
    bad = False
    for w in args.workloads:
        values[w] = {name: [] for name in metrics}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: not correct ({res['failed']} failed)")
                bad = True
            for name in metrics:
                values[w][name].append(res["metrics"][name]["value"])
        print(f"{w}:")
        for name, m in metrics.items():
            xs = values[w][name]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {name:14s} median {med:11.5g} {m['unit']:6s} spread {spread:6.3f}"
                    f"  bound {m['bound']:.3f}")
            if name != "setup_s" and spread > m["bound"]:
                line += "  SPREAD ABOVE BOUND"
                bad = True
            if w in old:
                prev = statistics.median(old[w][name])
                worse = (med - prev) / prev if m["better"] == "lower" else (prev - med) / prev
                line += f"  worse than saved by {worse:+.3f}"
                if worse > m["bound"]:
                    line += "  ABOVE BOUND"
                    bad = True
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
