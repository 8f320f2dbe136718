"""Benchmark of hardedge: time to a certified answer on four workloads.

    python3 perfbench/run.py --workload {table1,gap_grid,flow,mc} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from the root of a checkout; the library is imported from ``src/`` of the
same checkout.  One client runs ops back to back (a closed loop) in this
process, with one BLAS thread.  The timed phase runs whole
passes of the workload's mix until its ops have been busy for ``--seconds``;
every answer is checked against an oracle after its op's clock stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
passes twice, untraced and then with spans around each layer, and prints the
per-layer metrics.  The last line of standard output is the result as JSON;
the lines before it and ``perfbench/out/<workload>-seed<N>-trace<T>.json``
hold the generated inputs, every refusal with its error text, the
environment and the traced spans.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread: with two, one other busy process on a 2-vCPU VM made mc
# batches 25x slower (the OpenBLAS threads wait on each other); no matrix
# here is larger than 256 x 256.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=["table1", "gap_grid", "flow", "mc"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="check metric names, a perturbed oracle and traced self times")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    return args


def import_library():
    """Put this checkout's src/ first on sys.path; refuse if it is missing."""
    init = ROOT / "src" / "hardedge" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import hardedge
    if Path(hardedge.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported {hardedge.__file__}, expected {init}")


def setup_probe(workload: str, seed: int, timer) -> float:
    """Fresh-process set-up (import, build the workload, one warm-up op), in
    reference-speed seconds."""
    import workloads
    wl = workloads.WORKLOADS[workload](seed)
    op = wl.warmup_op()
    op.gate(op.run())
    return timer.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    import speed   # numpy and scipy, which the library imports anyway
    timer = speed.SetupTimer(T_START)
    import_library()
    if args.setup_probe:
        import json
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed, timer)}))
        return 0
    if args.selftest:
        import selftest
        return selftest.main()

    import bench
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), timer)
    bench.report(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
