"""scripts/bench_snapshot.py: the comparison of two BENCH files."""

import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_snapshot.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


UNITS = {"op_p50_ms": "ms", "cli.table1_self_s": "s/pass",
         "kernels.borodin_kernel_matrix_s": "s/pass",
         "kernels.borodin_kernel_matrix_calls": "count/pass",
         "hamiltonian_flow.nfev": "count/pass", "trace.overhead_ratio": "ratio"}


def _bench(commit, layers):
    return {"commit": commit, "seed": 1, "run_seconds": 15, "nproc": 2,
            "units": UNITS,
            "workloads": {"table1": {"end_to_end": {"op_p50_ms": 100.0},
                                     "per_layer": layers}}}


def test_compare_names_the_layer_that_moved_most():
    old = _bench("a", {"cli.table1_self_s": 0.1, "kernels.borodin_kernel_matrix_s": 0.08,
                       "hamiltonian_flow.nfev": 0.0, "trace.overhead_ratio": 0.5})
    new = _bench("b", {"cli.table1_self_s": 0.01, "kernels.borodin_kernel_matrix_s": 0.04,
                       "hamiltonian_flow.nfev": 0.0, "trace.overhead_ratio": 0.01})
    out = io.StringIO()
    moved = _load().compare(new, old, out)
    # the tracing overhead moved more, but it is no layer of the library
    assert moved == {"table1": "cli.table1_self_s"}
    assert "moved most: cli.table1_self_s x0.1" in out.getvalue()


def test_compare_with_nothing_moved():
    same = _bench("a", {"cli.table1_self_s": 0.1, "hamiltonian_flow.nfev": 0.0})
    assert _load().compare(same, same, io.StringIO()) == {"table1": None}


def test_compare_names_no_layer_within_scatter():
    # a x0.85 time move with equal work counts is single-run scatter
    old = _bench("a", {"cli.table1_self_s": 0.1,
                       "kernels.borodin_kernel_matrix_calls": 44.0})
    new = _bench("b", {"cli.table1_self_s": 0.085,
                       "kernels.borodin_kernel_matrix_calls": 44.0})
    out = io.StringIO()
    assert _load().compare(new, old, out) == {"table1": None}
    assert "no layer moved beyond single-run scatter" in out.getvalue()


def test_compare_names_a_count_move():
    # a 5% change in work per pass is no scatter, though smaller than the
    # time move beside it
    old = _bench("a", {"cli.table1_self_s": 0.1,
                       "kernels.borodin_kernel_matrix_calls": 44.0})
    new = _bench("b", {"cli.table1_self_s": 0.12,
                       "kernels.borodin_kernel_matrix_calls": 46.2})
    out = io.StringIO()
    moved = _load().compare(new, old, out)
    assert moved == {"table1": "kernels.borodin_kernel_matrix_calls"}
    assert "moved most: kernels.borodin_kernel_matrix_calls x1.05" in out.getvalue()


def test_scale_times_to_reference_speed():
    # a host at half the reference speed doubles every wall-clock time
    layers = {"cli.table1_self_s": 0.2, "kernels.borodin_kernel_matrix_calls": 44.0,
              "ginibre_mc.us_per_sample.m1_n50": 250.0}
    units = {**UNITS, "ginibre_mc.us_per_sample.m1_n50": "us"}
    speed = {"cal_ref_s": 1e-3, "cal_median_s": 2e-3}
    assert _load().scale_times(layers, units, speed) == {
        "cli.table1_self_s": 0.1, "kernels.borodin_kernel_matrix_calls": 44.0,
        "ginibre_mc.us_per_sample.m1_n50": 125.0}


def test_compare_against_wall_clock_names_no_time_layer():
    # BENCH_11 against BENCH_10: a x0.42 time with equal counts is a host
    # speed switch when only one side is scaled
    old = _bench("a", {"cli.table1_self_s": 0.1,
                       "kernels.borodin_kernel_matrix_calls": 44.0})
    new = {**_bench("b", {"cli.table1_self_s": 0.042,
                          "kernels.borodin_kernel_matrix_calls": 44.0}),
           "scaled_times": "reference speed"}
    out = io.StringIO()
    assert _load().compare(new, old, out) == {"table1": None}
    assert ("per-layer times are reference speed here but wall-clock in the "
            "older file: no time layer is named") in out.getvalue()
    # a count still names its layer
    new["workloads"]["table1"]["per_layer"]["kernels.borodin_kernel_matrix_calls"] = 46.2
    assert _load().compare(new, old, io.StringIO()) == {
        "table1": "kernels.borodin_kernel_matrix_calls"}
    # two scaled files compare their times
    assert _load().compare(new, {**old, "scaled_times": "reference speed"},
                           io.StringIO()) == {"table1": "cli.table1_self_s"}


def test_compare_divides_times_by_the_workload_drift():
    # BENCH_16 against BENCH_15: a flow run slow throughout, every time layer
    # at x1.2-x1.3 and every count flat, names nothing
    units = {"a_s": "s/pass", "b_s": "s/pass", "c_s": "s/pass", "d_us": "us",
             "n_calls": "count/pass"}
    old_layers = {"a_s": 1.0, "b_s": 1.0, "c_s": 1.0, "d_us": 10.0,
                  "n_calls": 660.0}

    def bench(commit, layers):
        return {"commit": commit, "seed": 1, "run_seconds": 15, "nproc": 2,
                "units": units, "scaled_times": "reference speed",
                "workloads": {"flow": {"end_to_end": {"op_p50_ms": 25.0},
                                       "per_layer": layers}}}

    old = bench("a", old_layers)
    slow = bench("b", {"a_s": 1.2, "b_s": 1.25, "c_s": 1.305, "d_us": 12.1,
                       "n_calls": 660.0})
    out = io.StringIO()
    assert _load().compare(slow, old, out) == {"flow": None}
    assert "drift x1.23 (median time-layer ratio)" in out.getvalue()
    # BENCH_17 against BENCH_16: one layer at x0.42 among others at x0.8
    fast = bench("c", {"a_s": 0.42, "b_s": 0.8, "c_s": 0.8, "d_us": 8.0,
                       "n_calls": 660.0})
    out = io.StringIO()
    assert _load().compare(fast, old, out) == {"flow": "a_s"}
    assert "moved most: a_s x0.42 (x0.525 after drift)" in out.getvalue()


def test_compare_skips_layers_at_zero_on_both_sides():
    # BENCH_32 against BENCH_31: mc never calls horner, so its time reads 0
    # on both sides; a traced phase at drift x0.71 must not make that x1
    # read as x1.41 and name it
    units = {"a_s": "s/pass", "b_s": "s/pass", "c_s": "s/pass",
             "horner_s": "s/pass"}

    def bench(commit, layers):
        return {"commit": commit, "seed": 1, "run_seconds": 15, "nproc": 2,
                "units": units, "scaled_times": "reference speed",
                "workloads": {"mc": {"end_to_end": {"op_p50_ms": 2.0},
                                     "per_layer": layers}}}

    old = bench("a", {"a_s": 1.0, "b_s": 1.0, "c_s": 1.0, "horner_s": 0.0})
    new = bench("b", {"a_s": 0.71, "b_s": 0.708, "c_s": 0.7, "horner_s": 0.0})
    out = io.StringIO()
    assert _load().compare(new, old, out) == {"mc": None}
    assert "no layer moved beyond single-run scatter" in out.getvalue()
