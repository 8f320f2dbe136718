"""One verification report over a Hamiltonian-flow trajectory.

``verify(traj)`` walks the states of a trajectory once and returns, per
residual category, the largest residual, its tolerance and the abscissa
where it peaked.  The categories are the identities the reduced flow must
satisfy: the first integrals and Schlesinger structure at every M, the
folding relations, the Tracy-Widom map and the Painleve III' sigma-form at
M=1, the quartic ODE (on two evaluation paths), the recovery formulas and
the special-index third-order and F identities at M=2, and agreement of the
flow's log E with the Fredholm determinant.  ``CASES`` holds the two
certified flow cases that ``hardedge verify`` and the acceptance suite run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fredholm, kernels, sigma_forms
from . import hamiltonian_flow as flow

__all__ = ["TOLERANCES", "CASES", "LAUNCH_S", "Check", "integrate_case",
           "jet_residuals", "verify"]

# tolerance per category
TOLERANCES = {
    "first_integrals": 1e-8,
    "imag_leakage": 1e-9,
    "schlesinger": 1e-8,
    "rank_one": 1e-10,
    "folding": 1e-10,
    "tracy_widom": 1e-8,
    "sigma_m1": 1e-8,
    "quartic": 1e-6,
    "quartic_dual_path": 1e-9,
    "third_order": 1e-6,
    "f_identity": 1e-6,
    "appendix_recovery": 1e-6,
    "gap_vs_fredholm": 1e-6,
}

# categories reported at each M, in report order
_CATEGORIES = {
    1: ("first_integrals", "imag_leakage", "schlesinger", "rank_one",
        "folding", "tracy_widom", "sigma_m1", "gap_vs_fredholm"),
    2: ("first_integrals", "imag_leakage", "schlesinger", "rank_one",
        "quartic", "quartic_dual_path", "third_order", "f_identity",
        "appendix_recovery", "gap_vs_fredholm"),
}

# the eta_0-jet and Fredholm checks start at this abscissa
_S_JET = 0.05

# every flow command launches here
LAUNCH_S = 1e-5
# certified case -> (index set, output grid), integrated at tol 1e-10
CASES = {
    "m1": ((0.0, 0.0), (1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)),
    "m2-special": (sigma_forms.SPECIAL_NU,
                   (1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 5.0,
                    10.0)),
}


@dataclass(frozen=True)
class Check:
    """Largest residual of one category, its tolerance and where it peaked.

    ``worst_s`` is the first abscissa attaining ``max_residual``; it is None
    when no state of the trajectory qualified for the category.  A check
    whose oracle refused holds the refusal's message in ``refused``, with
    ``worst_s`` the first refused abscissa, and fails.
    """

    max_residual: float
    tolerance: float
    worst_s: float | None
    refused: str | None = None

    @property
    def ok(self) -> bool:
        return self.refused is None and self.max_residual <= self.tolerance


def integrate_case(case: str, s_max: float | None = None,
                   tol: float = 1e-10) -> flow.Trajectory:
    """The flow of a certified case on its grid, cut below and ended at s_max.

    s_max defaults to the end of the case's grid.
    """
    nu, grid = CASES[case]
    s_max = grid[-1] if s_max is None else s_max
    targets = [t for t in grid if t < s_max] + [s_max]
    return flow.integrate(kernels.HardEdgeParams.from_nu(nu), LAUNCH_S,
                          targets, tol=tol)


def jet_residuals(st: flow.HamiltonianState) -> dict:
    """The M=2 eta_0-jet categories at one state, as absolute residuals."""
    jet = flow.eta_derivatives(st)
    blocks = sigma_forms.quartic_blocks(jet).values()
    raw, scale = sum(blocks), sum(abs(v) for v in blocks)
    res = {"quartic": abs(raw / scale),
           "quartic_dual_path": abs(raw - sigma_forms.quartic_pipeline_raw(jet))
           / scale}
    if st.params.nu == sigma_forms.SPECIAL_NU:
        third, fid = sigma_forms.special_case_residuals(jet)
        res["third_order"] = abs(third)
        res["f_identity"] = fid
    res["appendix_recovery"] = max(sigma_forms.appendix_recover(st).values())
    return res


def verify(traj: flow.Trajectory) -> dict:
    """Category -> Check over every state of the trajectory.

    The gap check compares with the Bessel-kernel determinant at M=1 and
    with the theta=2 Muttalib-Borodin one at M=2, so an M=2 index pair
    outside that correspondence raises ValueError.  Where that oracle refuses
    an abscissa, the gap check fails there and stops; every other category
    is still reported.
    """
    params = traj.params
    if params.M == 1:
        def fredholm_log_gap(s):
            return fredholm.gap_probability_hardedge(params, s,
                                                     target_tol=1e-9).logE
    else:
        mb = kernels.mb_params_for_hardedge(params)

        def fredholm_log_gap(s):
            return fredholm.gap_probability_mb(mb, 2.0 * math.sqrt(s),
                                               target_tol=1e-9).logE
    rows = {name: [] for name in _CATEGORIES[params.M]}
    refusal = None
    for st, log_gap, fir in zip(traj.states, traj.log_gap, traj.first_integrals()):
        integrals = [v for k, v in fir.items() if k != "imag_leakage"]
        res = {"imag_leakage": fir["imag_leakage"], "first_integrals": max(integrals)}
        struct = flow.structural_residuals(st)
        res["schlesinger"] = max(struct["schlesinger_A"], struct["schlesinger_C"])
        res["rank_one"] = struct["rank_one"]
        if params.M == 1:
            res["folding"] = max(struct["fold_x1"], struct["fold_y1"])
            res["tracy_widom"] = max(v for k, v in struct.items()
                                     if k.startswith("tw_"))
            # the sigma form needs eta0'' from the flow
            dx, dy, _, _ = flow.rhs(st)
            d1 = (st.x[0] * st.y[1]).real
            d2 = (dx[0] * st.y[1] + st.x[0] * dy[1]).real
            e1, e2 = params.e
            res["sigma_m1"] = sigma_forms.p3_sigma_residual(
                st.s, st.eta[0].real, d1, d2, e1, e2)
        if st.s >= _S_JET:
            if params.M == 2:
                res.update(jet_residuals(st))
            if refusal is None:
                try:
                    res["gap_vs_fredholm"] = abs(log_gap - fredholm_log_gap(st.s))
                except (fredholm.NonConvergedError, ValueError) as exc:
                    refusal = (st.s, str(exc))
        for name, value in res.items():
            rows[name].append((float(value), st.s))

    report = {}
    for name, vals in rows.items():
        # max keeps the first row attaining the maximum
        value, s = max(vals, key=lambda row: row[0], default=(0.0, None))
        report[name] = Check(value, TOLERANCES[name], s)
    if refusal is not None:
        worst = report["gap_vs_fredholm"].max_residual
        report["gap_vs_fredholm"] = Check(worst, TOLERANCES["gap_vs_fredholm"],
                                          *refusal)
    return report
