"""The benchmark's four workloads: seeded inputs, one op per call, oracle gates.

A workload hands out its ops one *pass* at a time.  A pass is the unit of the
mix: every pass has the same kinds of op in the same numbers, drawn afresh
from ``(seed, pass index)``, and a timed phase always runs whole passes.  An
op's answer goes through its gate after the op's clock has stopped, so oracle
values never count as op time.

Gates return ``{check: (value, limit)}``; an answer passes when every value is
within its limit.  Every limit is a tolerance the library or its tests
already use, referenced or copied unchanged.

Inputs that the library refuses today are part of the mix on purpose (see
``known_defects.json``): they are tagged with their defect key, and a refusal
of the listed type on such an input is recorded as ``refused``, not as a
failure of the benchmark's correctness check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hardedge import cli, fredholm, ginibre_mc, kernels
from hardedge import hamiltonian_flow as flow
from hardedge import sigma_forms as sf
from hardedge.asymptotics import A1_PREDICTED
from hardedge.ginibre_mc import McConfig, ks_distance, wilson_interval
from hardedge.kernels import HardEdgeParams, MBParams
from hardedge.reference_data import TABLE1

HERE = Path(__file__).resolve().parent
KNOWN_DEFECTS = {d["key"]: d for d in
                 json.loads((HERE / "known_defects.json").read_text())}

# requested tolerances of the ops themselves
GAP_TOL = 1e-9
FLOW_TOL = 1e-10
FLOW_S0 = 1e-5
# the repo's tolerance for a Fredholm or flow log E against an independent
# route (``hardedge verify`` category gap_vs_fredholm, acceptance criterion 3)
ORACLE_TOL = cli._VERIFY_TOL["gap_vs_fredholm"]


@dataclass
class Op:
    """One call into the library, with the gate its answer must pass."""

    kind: str
    args: dict
    run: Callable[[], object]
    gate: Callable[[object], dict]
    defect: str | None = None      # key into known_defects.json
    points: int = 0                # gap values a success returns
    samples: int = 0               # Monte Carlo samples a success returns
    retried: Callable[[object], bool] | None = None   # flow: tolerance tightened


def log_strata(rng, lo: float, hi: float, k: int) -> list:
    """k draws, one uniform in log s from each of k equal log-strata of [lo, hi]."""
    edges = np.linspace(math.log(lo), math.log(hi), k + 1)
    u = rng.random(k)
    return [float(math.exp(a + x * (b - a))) for a, b, x in zip(edges, edges[1:], u)]


class Workload:
    """Base: subclasses build their reusable objects and define a pass."""

    name = ""
    stream = 0          # separates the workloads' random streams

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny
        self.inputs = []    # per pass, what was generated

    def rng(self, p: int):
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream, p]))

    def pass_ops(self, p: int) -> list:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        raise NotImplementedError

    def begin_phase(self):
        """Reset per-phase state (pooled samples)."""

    def pooled_gate(self) -> dict:
        """{kind: {check: (value, limit)}} for checks made over a whole phase."""
        return {}

    def record(self) -> dict:
        return {"seed": self.seed, "passes": self.inputs}


# ---------------------------------------------------------------------------
# table1: the paper's headline reproduction through the CLI
# ---------------------------------------------------------------------------

class Table1(Workload):
    name = "table1"
    stream = 0
    R_VALUES = range(4, 15)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.out_dir = HERE / "out" / "table1"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # the gate's own copy of the references, so a test can perturb it
        self.ref = {c: dict(TABLE1[c]) for c in (0, 1)}

    def _op(self) -> Op:
        out = self.out_dir

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["table1", "--out", str(out)])

        return Op("table1", {"argv": ["table1", "--out", "<tmp>"]}, run,
                  self._gate, points=2 * len(self.R_VALUES))

    def _gate(self, rc) -> dict:
        path = self.out_dir / "table1_diff.json"
        diff = json.loads(path.read_text())
        path.unlink()
        checks = {"exit_code": (float(rc != 0), 0.0),
                  "cell_failures": (float(len(diff["failures"])), 0.0)}
        cells = {(e["c"], e["r"]): e for e in diff["cells"]}
        checks["cells_missing"] = (float(2 * len(self.R_VALUES) - len(cells)), 0.0)
        # acceptance criterion 1: 1e-7 for r <= 8, 1e-6 for r <= 14
        lo = hi = 0.0
        for (c, r), e in cells.items():
            err = abs(e["logE"] - self.ref[c][r][0])
            if r <= 8:
                lo = max(lo, err)
            hi = max(hi, err)
        checks["logE_r_le_8"] = (lo, 1e-7)
        checks["logE_r_le_14"] = (hi, 1e-6)
        # acceptance criterion 2: a1 at r = 13 within 2e-3, extrapolation 5e-3
        a1 = max(abs(cells[(c, 13)]["a1"] - self.ref[c][13][1]) for c in (0, 1))
        checks["a1_r13"] = (a1, 2e-3)
        ext = diff["extrapolated_a1"]
        checks["a1_extrapolated"] = (
            max(abs(abs(ext[str(c)]) - A1_PREDICTED) for c in (0, 1)), 5e-3)
        return checks

    def pass_ops(self, p):
        if len(self.inputs) <= p:
            self.inputs.append({"table": "fixed paper table, seed unused",
                                "r": [4, 14], "nodes": [48, 96]})
        return [self._op()]

    def warmup_op(self):
        return self._op()


# ---------------------------------------------------------------------------
# gap_grid: single gap_probability_hardedge calls at the default tolerance
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.5, 0.0)
GENERIC = (0.0, 0.3, 1.1)

# region -> (nu, s range, strata per pass, known-defect key or None)
GAP_REGIONS = {
    "m1": ((0.0, 0.0), (0.01, 11.0), 8, None),
    "m1_large_s": ((0.0, 0.0), (11.0, 20.0), 1, "gap_m1_large_s"),
    "special_small_s": (SPECIAL, (0.05, 0.2005), 1, "gap_special_small_s"),
    "special": (SPECIAL, (0.2005, 6.5), 48, None),
    "special_large_s": (SPECIAL, (6.5, 9.0), 1, "gap_special_large_s"),
    "generic": (GENERIC, (0.5, 2.0), 1, None),
}
TINY_GAP = {"m1": 1, "special": 1}


class GapGrid(Workload):
    name = "gap_grid"
    stream = 1

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.bundles = {nu: kernels.build_kernel_bundle(HardEdgeParams.from_nu(nu))
                        for nu in {(0.0, 0.0), SPECIAL, GENERIC}}
        self.mb = MBParams(c=0.0)   # the theta=2 partner of SPECIAL
        self._mb_logE = {}
        self.oracle_shift = 0.0     # nonzero only in the self-test

    def oracle(self, nu, s):
        """Exact or theta=2 Muttalib-Borodin log E; None for generic nu."""
        if nu == (0.0, 0.0):
            return -s + self.oracle_shift
        if nu == SPECIAL:
            if s not in self._mb_logE:
                self._mb_logE[s] = fredholm.gap_probability_mb(
                    self.mb, 2.0 * math.sqrt(s), target_tol=GAP_TOL).logE
            return self._mb_logE[s] + self.oracle_shift
        return None

    def _op(self, region, nu, s, defect=None) -> Op:
        bundle = self.bundles[nu]

        def run():
            return fredholm.gap_probability_hardedge(bundle, s, target_tol=GAP_TOL)

        def gate(pt):
            checks = {"E_in_(0,1]": (float(not (0.0 < pt.E <= 1.0)), 0.0)}
            ref = self.oracle(nu, s)
            if ref is None:
                checks["est_error"] = (pt.est_error, GAP_TOL)
            else:
                checks["logE_vs_oracle"] = (abs(pt.logE - ref), ORACLE_TOL)
            return checks

        return Op(region, {"nu": list(nu), "s": s}, run, gate, defect, points=1)

    def pass_ops(self, p):
        rng = self.rng(p)
        ops = []
        for region, (nu, (lo, hi), k, defect) in GAP_REGIONS.items():
            if self.tiny:
                k = TINY_GAP.get(region, 0)
            for s in log_strata(rng, lo, hi, k):
                ops.append(self._op(region, nu, s, defect))
        ops = [ops[i] for i in rng.permutation(len(ops))]
        if len(self.inputs) <= p:
            self.inputs.append([[o.kind, o.args["s"]] for o in ops])
        return ops

    def warmup_op(self):
        return self._op("m1", (0.0, 0.0), 1.0)


# ---------------------------------------------------------------------------
# flow: Hamiltonian ODE trajectories plus the verify-style monitors
# ---------------------------------------------------------------------------

# index set -> (ops per pass, known-defect key or None)
FLOW_INPUTS = {
    (0.0, 0.0): (5, None),
    SPECIAL: (3, None),
    (0.0, 1.0): (1, "flow_m1_nu1"),
    (0.0, 2.5): (1, "flow_m1_nu2.5"),
    (0.0, -0.5): (1, "flow_m1_nu-0.5"),
    GENERIC: (1, "flow_m2_generic"),
    (0.0, 0.0, 0.5): (1, "flow_m2_c1"),
    (0.0, 0.25, -0.25): (1, "flow_m2_quarter"),
    (0.0, 1.5, 0.0): (1, "flow_m2_nu1.5"),
}
FLOW_GRIDS = 4
FLOW_POINTS = 40


def flow_monitors(traj) -> dict:
    """Max residual per ``hardedge verify`` category over every output state."""
    params = traj.params
    cat = {}

    def put(name, value):
        cat[name] = max(cat.get(name, 0.0), float(value))

    for st in traj.states:
        fir = flow.first_integral_residuals(st)
        put("imag_leakage", fir.pop("imag_leakage"))
        put("first_integrals", max(fir.values()))
        struct = flow.structural_residuals(st)
        put("schlesinger", max(struct["schlesinger_A"], struct["schlesinger_C"]))
        put("rank_one", struct["rank_one"])
        if params.M == 1:
            put("folding", max(struct["fold_x1"], struct["fold_y1"]))
            put("tracy_widom", max(v for k, v in struct.items() if k.startswith("tw_")))
            dx, dy, _, _ = flow.rhs(st)
            d1 = (st.x[0] * st.y[1]).real
            d2 = (dx[0] * st.y[1] + st.x[0] * dy[1]).real
            e1, e2 = params.e
            put("sigma_m1", sf.p3_sigma_residual(st.s, st.eta[0].real, d1, d2, e1, e2))
        elif st.s >= 0.05:
            jet = flow.eta_derivatives(st)
            put("quartic", abs(sf.quartic_ode_residual(jet)))
            scale = sum(abs(v) for v in sf.quartic_blocks(jet).values())
            put("quartic_dual_path",
                abs(sf.quartic_typeset_raw(jet) - sf.quartic_pipeline_raw(jet)) / scale)
            if params.nu == sf.SPECIAL_NU:
                third, fid = sf.special_case_residuals(jet)
                put("third_order", abs(third))
                put("f_identity", fid)
            put("appendix_recovery", max(sf.appendix_recover(st).values()))
    return cat


class Flow(Workload):
    name = "flow"
    stream = 2

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.params = {nu: HardEdgeParams.from_nu(nu) for nu in FLOW_INPUTS}
        rng = self.rng(10 ** 6)   # a stream no pass index reaches
        self.grids = [log_strata(rng, 1e-4, 10.0, FLOW_POINTS) for _ in range(FLOW_GRIDS)]
        self._oracle = {}
        self.oracle_shift = 0.0
        self._count = 0

    def oracle(self, params, s):
        """Exact (nu=(0,0)) or theta=2 Muttalib-Borodin log E; None otherwise."""
        if params.nu == (0.0, 0.0):
            return -s + self.oracle_shift
        try:
            mb = kernels.mb_params_for_hardedge(params)
        except ValueError:
            return None
        key = (mb.c, s)
        if key not in self._oracle:
            self._oracle[key] = fredholm.gap_probability_mb(
                mb, 2.0 * math.sqrt(s), target_tol=GAP_TOL).logE
        return self._oracle[key] + self.oracle_shift

    def _op(self, nu, g, defect=None) -> Op:
        params, grid = self.params[nu], self.grids[g]

        def run():
            traj = flow.integrate(params, FLOW_S0, grid, tol=FLOW_TOL)
            return traj, flow_monitors(traj)

        def gate(result):
            traj, cat = result
            checks = {name: (v, cli._VERIFY_TOL[name]) for name, v in cat.items()}
            errs = [abs(lg - ref) for st, lg in zip(traj.states[1:], traj.log_gap[1:])
                    if (ref := self.oracle(params, st.s)) is not None]
            if errs:
                checks["gap_vs_oracle"] = (max(errs), ORACLE_TOL)
            return checks

        label = "nu=(" + ",".join(f"{v:g}" for v in nu) + ")"
        return Op(label, {"nu": list(nu), "grid": g},
                  run, gate, defect, retried=lambda result: result[0].tol < FLOW_TOL)

    def pass_ops(self, p):
        rng = self.rng(p)
        ops = []
        for nu, (k, defect) in FLOW_INPUTS.items():
            if self.tiny:
                k = 1 if defect is None else 0
            for _ in range(k):
                ops.append(self._op(nu, self._count % FLOW_GRIDS, defect))
                self._count += 1
        ops = [ops[i] for i in rng.permutation(len(ops))]
        if len(self.inputs) <= p:
            self.inputs.append([[o.args["nu"], o.args["grid"]] for o in ops])
        return ops

    def begin_phase(self):
        self._count = 0

    def warmup_op(self):
        return self._op((0.0, 0.0), 0)

    def record(self):
        rec = super().record()
        rec["grids"] = self.grids
        return rec


# ---------------------------------------------------------------------------
# mc: Ginibre-product sampling batches
# ---------------------------------------------------------------------------

# label -> (M, N0, nu_int, samples per batch, batches per pass)
MC_CONFIGS = {
    "m1_n50": (1, 50, (0,), 32, 3),
    "m2_n40": (2, 40, (0, 0), 32, 1),
    "m1_n200": (1, 200, (0,), 4, 1),
    "m2_n80": (2, 80, (0, 0), 64, 1),
}
# pooled gates: the exact finite-N law N0 lambda_min ~ Exp(1) for M=1 at
# these s, Wilson bands at z = 5.3267 (two-sided 1e-7 each, so at most 1e-6
# over the 2 x 5 checks); for M=2 the two-sample KS collapse of N0 lambda_min
# between N0=40 and N0=80 at level 1e-6 (asymptotic Kolmogorov bound).  At
# most MC_GATE_CAP samples per configuration enter, so the gates' power does
# not grow with the sampler's speed.  Nominal false-failure probability of a
# phase: at most 2e-6.
MC_S = (0.25, 0.5, 1.0, 2.0, 3.0)
MC_Z = 5.326723886383
MC_KS_ALPHA = 1e-6
MC_GATE_CAP = 4000


class MonteCarlo(Workload):
    name = "mc"
    stream = 3

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.configs = {label: McConfig(M=m, N0=n0, nu_int=nu, samples=batch)
                        for label, (m, n0, nu, batch, _) in MC_CONFIGS.items()}
        self.pool = {label: [] for label in MC_CONFIGS}

    def _op(self, label, seed) -> Op:
        cfg = dataclasses.replace(self.configs[label], seed=seed)

        def run():
            return ginibre_mc.sample_min_singular_sq(cfg)

        def gate(res):
            lam = res.lambda_min
            self.pool[label].append(lam)
            return {"count": (float(lam.size != cfg.samples), 0.0),
                    "finite_positive": (float(not np.all(np.isfinite(lam) & (lam > 0))), 0.0)}

        return Op(label, {"seed": seed}, run, gate, samples=cfg.samples)

    def pass_ops(self, p):
        seeds = self.rng(p).integers(0, 2 ** 63, size=16)
        ops, i = [], 0
        for label, (*_, per_pass) in MC_CONFIGS.items():
            for _ in range(1 if self.tiny else per_pass):
                ops.append(self._op(label, int(seeds[i])))
                i += 1
        if len(self.inputs) <= p:
            self.inputs.append([[o.kind, o.args["seed"]] for o in ops])
        return ops

    def warmup_op(self):
        return self._op("m1_n50", 0)

    def begin_phase(self):
        self.pool = {label: [] for label in MC_CONFIGS}

    def _scaled(self, label):
        n0 = self.configs[label].N0
        lam = np.concatenate(self.pool[label]) if self.pool[label] else np.zeros(0)
        return n0 * lam[:MC_GATE_CAP]

    def pooled_gate(self):
        out = {}
        for label in ("m1_n50", "m1_n200"):
            x = self._scaled(label)
            if x.size == 0:
                continue
            worst = 0.0
            for s in MC_S:
                lo, hi = wilson_interval(int(np.count_nonzero(x > s)), x.size, z=MC_Z)
                exact = math.exp(-s)
                worst = max(worst, lo - exact, exact - hi)
            out[label] = {"exp1_law_outside_wilson_band": (worst, 0.0)}
        a, b = self._scaled("m2_n40"), self._scaled("m2_n80")
        if a.size and b.size:
            crit = (math.sqrt(-math.log(MC_KS_ALPHA / 2.0) / 2.0)
                    * math.sqrt((a.size + b.size) / (a.size * b.size)))
            check = {"ks_collapse_40_80": (ks_distance(a, b), crit)}
            out["m2_n40"] = out["m2_n80"] = check
        return out


WORKLOADS = {w.name: w for w in (Table1, GapGrid, Flow, MonteCarlo)}
