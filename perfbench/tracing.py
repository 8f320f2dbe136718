"""Span tracing around the library's layers, installed from outside the library.

Every layer boundary the benchmark measures is a module-level name that the
library looks up at call time (``fredholm.kernel_matrix``, ``kernels.horner``,
``hamiltonian_flow.solve_ivp``, ...).  ``Tracer.install`` replaces each such
name with a wrapper that records a span and puts the original back on
``restore``, so nothing under ``src/`` changes.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index of
the enclosing span (-1 for an op's root span), ``op`` the id of the op that
caused it, ``info`` a small number taken from the arguments or the result
(matrix entries, LU order, ``nfev``).  Spans stay in memory and are written out
once, when the run ends.  A span's self time is its duration minus the time
its child spans cover; calls nest strictly, so that is the children's summed
durations.
"""

from __future__ import annotations

import functools
import json
import time

# Per-layer metrics: name -> (unit, better, end-to-end metric it should move,
# workloads it should move on).  On every other workload the prediction is
# no change.  "/pass" units are totals over the traced phase divided by the
# number of passes it ran, so they compare across runs of different length.
LAYER_METRICS = {
    "special_functions.horner_s": ("s/pass", "lower", "solved_per_s", "gap_grid table1"),
    "special_functions.horner_calls": ("count/pass", "lower", "solved_per_s", "gap_grid table1"),
    "kernels.kernel_value_s": ("s/pass", "lower", "solved_per_s op_p50_ms", "gap_grid"),
    "kernels.kernel_value_calls": ("count/pass", "lower", "solved_per_s op_p50_ms", "gap_grid"),
    "kernels.kernel_matrix_self_s": ("s/pass", "lower", "solved_per_s", "gap_grid"),
    "kernels.kernel_matrix_calls": ("count/pass", "lower", "solved_per_s", "gap_grid"),
    "kernels.entries": ("count/pass", "lower", "solved_per_s", "gap_grid"),
    "kernels.borodin_kernel_matrix_s": ("s/pass", "lower", "solved_per_s", "table1"),
    "kernels.borodin_kernel_matrix_calls": ("count/pass", "lower", "solved_per_s", "table1"),
    "fredholm.fredholm_det_self_s": ("s/pass", "lower", "solved_per_s", "table1 gap_grid"),
    "fredholm.fredholm_det_calls": ("count/pass", "lower", "solved_per_s", "table1 gap_grid"),
    "fredholm.lu_gflop_computed": ("GFLOP/pass", "lower", "solved_per_s", "table1 gap_grid"),
    "fredholm.nodes_total": ("count/pass", "lower", "solved_per_s op_tail_ms", "gap_grid"),
    "fredholm.useful_det_ratio": ("ratio", "higher", "solved_per_s op_tail_ms", "gap_grid"),
    "fredholm.gap_probability_hardedge_s": ("s/pass", "lower", "op_p50_ms", "gap_grid"),
    "hamiltonian_flow.launch_state_s": ("s/pass", "lower", "op_p50_ms", "flow"),
    "hamiltonian_flow.solve_ivp_s": ("s/pass", "lower", "solved_per_s op_p50_ms", "flow"),
    "hamiltonian_flow.solve_ivp_calls": ("count/pass", "lower", "solved_per_s op_p50_ms", "flow"),
    "hamiltonian_flow.nfev": ("count/pass", "lower", "solved_per_s op_p50_ms", "flow"),
    "hamiltonian_flow.us_per_rhs": ("us", "lower", "solved_per_s op_p50_ms", "flow"),
    "hamiltonian_flow.retry_ratio": ("ratio", "lower", "op_tail_ms", "flow"),
    "hamiltonian_flow.first_integral_residuals_s": ("s/pass", "lower", "solved_per_s", "flow"),
    "hamiltonian_flow.first_integral_residuals_calls": ("count/pass", "lower", "solved_per_s", "flow"),
    "hamiltonian_flow.structural_residuals_s": ("s/pass", "lower", "solved_per_s", "flow"),
    "sigma_forms.monitor_s": ("s/pass", "lower", "solved_per_s", "flow"),
    "asymptotics.fit_tail_s": ("s/pass", "lower", "op_p50_ms", "table1"),
    "asymptotics.fit_tail_calls": ("count/pass", "lower", "op_p50_ms", "table1"),
    "cli.table1_self_s": ("s/pass", "lower", "op_p50_ms", "table1"),
    "ginibre_mc.samples": ("count", "higher", "solved_per_s", "mc"),
    "ginibre_mc.us_per_sample.m1_n50": ("us", "lower", "op_p50_ms", "mc"),
    "ginibre_mc.us_per_sample.m1_n200": ("us", "lower", "solved_per_s", "mc"),
    "ginibre_mc.us_per_sample.m2_n40": ("us", "lower", "solved_per_s", "mc"),
    "ginibre_mc.us_per_sample.m2_n80": ("us", "lower", "op_tail_ms", "mc"),
    "ginibre_mc.eigvalsh_s": ("s/pass", "lower", "solved_per_s", "mc"),
    "ginibre_mc.draw_and_product_s": ("s/pass", "lower", "solved_per_s", "mc"),
    "ginibre_mc.gemm_gflop_computed": ("GFLOP/pass", "lower", "solved_per_s", "mc"),
    "trace.overhead_ratio": ("ratio", "higher", "none (cost of tracing)", "all"),
}

# span names whose time counts towards sigma_forms.monitor_s
_MONITORS = ("eta_derivatives", "quartic_ode_residual", "quartic_typeset_raw",
             "quartic_pipeline_raw", "quartic_blocks", "special_case_residuals",
             "appendix_recover", "p3_sigma_residual")


def _entries(args, kwargs, result):
    return len(args[1]) * len(args[2])


def _lu_order(args, kwargs, result):
    return args[1].n


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _sample_dims(args, kwargs, result):
    return args[0].dims


class Tracer:
    """Records spans for one traced phase; ``install`` before, ``restore`` after."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op_id = -1

    def _wrap(self, module, attr, name, info=None):
        orig = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if self.op_id < 0:      # outside an op, e.g. an oracle in a gate
                return orig(*args, **kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(rec)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[1] = t0
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def install(self, with_eigvalsh: bool):
        """Wrap every layer boundary; ``numpy.linalg.eigvalsh`` only if asked."""
        import numpy
        from hardedge import (asymptotics, cli, fredholm, ginibre_mc,
                              hamiltonian_flow, kernels, sigma_forms)
        del asymptotics  # fit_tail is reached through cli's binding
        w = self._wrap
        w(kernels, "horner", "horner")
        w(kernels, "kernel_value", "kernel_value")
        w(fredholm, "kernel_matrix", "kernel_matrix", _entries)
        w(fredholm, "borodin_kernel_matrix", "borodin_kernel_matrix")
        w(cli, "borodin_kernel_matrix", "borodin_kernel_matrix")
        w(fredholm, "fredholm_det", "fredholm_det", _lu_order)
        w(cli, "fredholm_det", "fredholm_det", _lu_order)
        w(fredholm, "gap_probability_hardedge", "gap_probability_hardedge")
        w(cli, "fit_tail", "fit_tail")
        w(hamiltonian_flow, "launch_state", "launch_state")
        w(hamiltonian_flow, "solve_ivp", "solve_ivp", _nfev)
        w(hamiltonian_flow, "first_integral_residuals", "first_integral_residuals")
        w(hamiltonian_flow, "structural_residuals", "structural_residuals")
        w(hamiltonian_flow, "eta_derivatives", "eta_derivatives")
        for fn in _MONITORS[1:]:
            w(sigma_forms, fn, fn)
        w(ginibre_mc, "_sample_one", "sample", _sample_dims)
        if with_eigvalsh:
            w(numpy.linalg, "eigvalsh", "eigvalsh")

    def restore(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def begin_op(self, op_id: int, kind: str) -> int:
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(["op:" + kind, time.perf_counter(), 0.0, -1, op_id, None])
        self._stack.append(idx)
        return idx

    def end_op(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self.op_id = -1

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "info"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(tracer: Tracer, passes: int, outcomes: list,
                  overhead_ratio: float) -> dict:
    """Every LAYER_METRICS value from one traced phase."""
    spans = tracer.spans
    own = tracer.self_times()
    total, selfsum, calls, info = {}, {}, {}, {}
    monitor_s = 0.0
    for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
        dur = t1 - t0
        total[name] = total.get(name, 0.0) + dur
        selfsum[name] = selfsum.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if extra is not None and not isinstance(extra, tuple):
            info[name] = info.get(name, 0) + extra
        if name in _MONITORS and (parent < 0 or spans[parent][0] not in _MONITORS):
            monitor_s += dur

    per = 1.0 / max(passes, 1)
    lu_gflop = sum(2.0 * s[5] ** 3 / 3.0 for s in spans
                   if s[0] == "fredholm_det" and s[5] is not None) / 1e9
    sample_spans = [s for s in spans if s[0] == "sample" and s[5] is not None]
    gemm_flop = 0.0
    for s in sample_spans:
        dims = s[5]
        # complex products X_m @ Y (8 real flops per complex multiply-add)
        for m in range(2, len(dims)):
            gemm_flop += 8.0 * dims[m] * dims[m - 1] * dims[0]
        gemm_flop += 8.0 * dims[0] * dims[-1] * dims[0]    # Y^dag Y

    points = sum(o.points for o in outcomes if o.status == "solved")
    dets = calls.get("fredholm_det", 0)
    nfev = info.get("solve_ivp", 0)
    trajs = [o for o in outcomes if o.retried is not None]

    def us_per_sample(label):
        mine = [o for o in outcomes if o.kind == label and o.samples]
        n = sum(o.samples for o in mine)
        return 1e6 * sum(o.latency for o in mine) / n if n else 0.0

    g = lambda d, k: d.get(k, 0.0) * per  # noqa: E731
    return {
        "special_functions.horner_s": g(total, "horner"),
        "special_functions.horner_calls": g(calls, "horner"),
        "kernels.kernel_value_s": g(total, "kernel_value"),
        "kernels.kernel_value_calls": g(calls, "kernel_value"),
        "kernels.kernel_matrix_self_s": g(selfsum, "kernel_matrix"),
        "kernels.kernel_matrix_calls": g(calls, "kernel_matrix"),
        "kernels.entries": g(info, "kernel_matrix"),
        "kernels.borodin_kernel_matrix_s": g(total, "borodin_kernel_matrix"),
        "kernels.borodin_kernel_matrix_calls": g(calls, "borodin_kernel_matrix"),
        "fredholm.fredholm_det_self_s": g(selfsum, "fredholm_det"),
        "fredholm.fredholm_det_calls": g(calls, "fredholm_det"),
        "fredholm.lu_gflop_computed": lu_gflop * per,
        "fredholm.nodes_total": g(info, "fredholm_det"),
        "fredholm.useful_det_ratio": points / dets if dets else 0.0,
        "fredholm.gap_probability_hardedge_s": g(total, "gap_probability_hardedge"),
        "hamiltonian_flow.launch_state_s": g(total, "launch_state"),
        "hamiltonian_flow.solve_ivp_s": g(total, "solve_ivp"),
        "hamiltonian_flow.solve_ivp_calls": g(calls, "solve_ivp"),
        "hamiltonian_flow.nfev": nfev * per,
        "hamiltonian_flow.us_per_rhs": 1e6 * total.get("solve_ivp", 0.0) / nfev if nfev else 0.0,
        "hamiltonian_flow.retry_ratio": (sum(o.retried for o in trajs) / len(trajs)
                                         if trajs else 0.0),
        "hamiltonian_flow.first_integral_residuals_s": g(total, "first_integral_residuals"),
        "hamiltonian_flow.first_integral_residuals_calls": g(calls, "first_integral_residuals"),
        "hamiltonian_flow.structural_residuals_s": g(total, "structural_residuals"),
        "sigma_forms.monitor_s": monitor_s * per,
        "asymptotics.fit_tail_s": g(total, "fit_tail"),
        "asymptotics.fit_tail_calls": g(calls, "fit_tail"),
        "cli.table1_self_s": g(selfsum, "op:table1"),
        "ginibre_mc.samples": float(sum(o.samples for o in outcomes)),
        "ginibre_mc.us_per_sample.m1_n50": us_per_sample("m1_n50"),
        "ginibre_mc.us_per_sample.m1_n200": us_per_sample("m1_n200"),
        "ginibre_mc.us_per_sample.m2_n40": us_per_sample("m2_n40"),
        "ginibre_mc.us_per_sample.m2_n80": us_per_sample("m2_n80"),
        "ginibre_mc.eigvalsh_s": g(total, "eigvalsh"),
        "ginibre_mc.draw_and_product_s": g(selfsum, "sample"),
        "ginibre_mc.gemm_gflop_computed": gemm_flop / 1e9 * per,
        "trace.overhead_ratio": overhead_ratio,
    }
