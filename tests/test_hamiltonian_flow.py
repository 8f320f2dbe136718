import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardedge
from hardedge.kernels import HardEdgeParams, MBParams
from hardedge.fredholm import gap_probability_mb, gap_probability_hardedge
from hardedge import hamiltonian_flow as flow
from hardedge.cli import main

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# launch data
# ---------------------------------------------------------------------------

def test_launch_state_residuals_small_at_tiny_s0(params_m2):
    # the exact-series launch satisfies every integral of motion
    st, _ = flow.launch_state(params_m2, 1e-8)
    r = flow.first_integral_residuals(st)
    r.pop("imag_leakage")
    assert max(r.values()) <= 1e-6


@pytest.mark.parametrize("v", [-0.5, 0.3, 1.0, 2.5])
def test_m1_launch_refused_before_integrating(v, monkeypatch, tmp_path):
    # M=1 has a certified launch only at nu=(0,0); any other nu_1 is refused
    # at launch, without running the integrator
    def no_integration(*args, **kwargs):
        raise AssertionError("solve_ivp called for a refused launch")

    monkeypatch.setattr(flow, "solve_ivp", no_integration)
    with pytest.raises(flow.FlowError, match=f"nu_1={v:g}"):
        flow.integrate(HardEdgeParams.from_nu((0.0, v)), 1e-5, [1e-4, 1.0])
    assert main(["ode", "--m", "1", "--nu1", str(v), "--s-max", "1.0",
                 "--points", "4", "--out", str(tmp_path)]) == 1


def _assert_m2_refused_before_integrating(nu, match, monkeypatch, tmp_path):
    # a numerical refusal (exit 1 from ode and sigma), not a usage error
    def no_integration(*args, **kwargs):
        raise AssertionError("solve_ivp called for a refused launch")

    monkeypatch.setattr(flow, "solve_ivp", no_integration)
    with pytest.raises(flow.FlowError, match=match):
        flow.integrate(HardEdgeParams.from_nu(nu), 1e-5, [1e-4, 1.0])
    nus = ["--nu1", str(nu[1]), "--nu2", str(nu[2])]
    assert main(["ode", "--m", "2", *nus, "--s-max", "1.0", "--points", "4",
                 "--out", str(tmp_path)]) == 1
    assert main(["sigma", *nus, "--s", "0.5"]) == 1


@pytest.mark.parametrize("nu", [(0.0, 0.0, 1.0), (0.0, 0.5, 1.5)])
def test_m2_integer_difference_refused_before_integrating(nu, monkeypatch,
                                                          tmp_path):
    _assert_m2_refused_before_integrating(nu, "nu_2 - nu_1 = 1", monkeypatch,
                                          tmp_path)


@pytest.mark.parametrize("nu", [(0.0, -0.75, -0.5), (0.0, -0.5, -0.75)])
def test_m2_negative_radical_refused_before_integrating(nu, monkeypatch,
                                                         tmp_path):
    # the launch jet's F^2 is genuinely negative; the refusal names nu and F^2
    match = rf"nu=\(0, {nu[1]:g}, {nu[2]:g}\): F\^2 genuinely negative"
    _assert_m2_refused_before_integrating(nu, match, monkeypatch, tmp_path)


def test_scipy_integrate_loaded_at_first_integration():
    # a fresh interpreter: importing the package leaves scipy.integrate out,
    # the first integrate call brings it in
    code = "\n".join([
        "import sys",
        "import hardedge, hardedge.cli",
        "assert 'scipy.integrate' not in sys.modules",
        "hardedge.integrate(hardedge.HardEdgeParams.from_nu((0.0, 0.0)),"
        " 1e-5, [1e-4, 0.1])",
        "assert 'scipy.integrate' in sys.modules",
    ])
    src = str(Path(hardedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# right-hand side identities
# ---------------------------------------------------------------------------

def test_rhs_eta0_equation_verbatim(params_m1, params_m2):
    st2, _ = flow.launch_state(params_m2, 1e-5)
    _, _, dxi, deta = flow.rhs(st2)
    assert deta[0] == -st2.x[0] * st2.y[2]           # M=2: eta_0' = -x0 y2
    assert dxi[2] - deta[0] == 0.0                   # (xi_2 - eta_0)' = 0
    st1, _ = flow.launch_state(params_m1, 1e-5)
    _, _, _, deta1 = flow.rhs(st1)
    assert deta1[0] == st1.x[0] * st1.y[1]           # M=1: eta_0' = +x0 y1


def test_rhs_rejects_s_zero(params_m1):
    st, _ = flow.launch_state(params_m1, 1e-5)
    st.s = 0.0
    with pytest.raises(ValueError):
        flow.rhs(st)


# ---------------------------------------------------------------------------
# integration and conservation
# ---------------------------------------------------------------------------

def test_trace_a_conserved(traj_m2):
    for st in traj_m2.states:
        tr = st.x @ st.y
        assert abs(tr) <= 1e-9


def test_m1_first_integral_at_one(traj_m1):
    st = [s for s in traj_m1.states if s.s == 1.0][0]
    assert abs(st.xi[1] - st.eta[0] + st.params.e[0]) <= 1e-10


def test_first_integrals_along_trajectories(traj_m1, traj_m2):
    for traj in (traj_m1, traj_m2):
        for st in traj.states:
            r = flow.first_integral_residuals(st)
            leak = r.pop("imag_leakage")
            assert max(r.values()) <= 1e-8
            assert leak <= 1e-9


def test_tolerance_convergence_order(params_m2):
    # a decade of tolerance buys well over a factor four in conserved drift
    res = {}
    for tol in (1e-8, 1e-9):
        traj = flow.integrate(params_m2, 1e-5, [1.0], tol=tol)
        res[tol] = flow.first_integral_residuals(traj.states[-1])["energy"]
    assert res[1e-9] <= res[1e-8] / 4.0


def test_self_convergence_eta0(params_m2):
    vals = {}
    for tol in (1e-9, 1e-10):
        traj = flow.integrate(params_m2, 1e-5, [5.0], tol=tol)
        vals[tol] = traj.states[-1].eta[0].real
    assert abs(vals[1e-9] - vals[1e-10]) <= 10.0 * 1e-9


def test_integrate_validates_inputs(params_m2):
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 1e-5, [2.0, 1.0])
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 1e-5, [1.0], tol=1e-3)
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 0.5, [0.1])
    with pytest.raises(ValueError, match="s_targets is empty"):
        flow.integrate(params_m2, 1e-5, [])


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def test_folding_relations(traj_m1):
    st = [s for s in traj_m1.states if s.s == 1.0][0]
    r = flow.structural_residuals(st)
    assert r["fold_x1"] <= 1e-10
    assert r["fold_y1"] <= 1e-10


def test_schlesinger_and_rank_one(traj_m1, traj_m2):
    for traj in (traj_m1, traj_m2):
        for st in traj.states:
            r = flow.structural_residuals(st)
            assert r["schlesinger_A"] <= 1e-8
            assert r["schlesinger_C"] <= 1e-8
            assert r["rank_one"] <= 1e-10


def test_schlesinger_c_equation_is_commutator(params_m2):
    # definitional assembly consistency: C' entries equal [E, A] entries
    st, _ = flow.launch_state(params_m2, 1e-5)
    view = flow.schlesinger_view(st)
    E, A = view.E_mat, view.A_mat
    comm = E @ A - A @ E
    _, _, dxi, deta = flow.rhs(st)
    assert comm[0, 0] == pytest.approx(-deta[0], rel=1e-13)
    assert comm[2, 1] == pytest.approx(dxi[1], rel=1e-13)
    assert comm[2, 2] == pytest.approx(dxi[2], rel=1e-13)


def test_tracy_widom_map(traj_m1):
    for st in traj_m1.states:
        r = flow.structural_residuals(st)
        tw = {k: v for k, v in r.items() if k.startswith("tw_")}
        assert len(tw) == 6
        assert max(tw.values()) <= 1e-8


def test_tracy_widom_rejected_for_m2(traj_m2):
    r = flow.structural_residuals(traj_m2.states[0])
    assert not any(k.startswith("tw_") for k in r)


# ---------------------------------------------------------------------------
# the eta_0 jet
# ---------------------------------------------------------------------------

def test_eta_derivatives_identities(traj_m2):
    st = [s for s in traj_m2.states if s.s == 1.0][0]
    jet = flow.eta_derivatives(st)
    assert jet.d[1] == pytest.approx(float((-st.x[0] * st.y[2]).real),
                                     rel=1e-14)
    assert jet.U + jet.V + st.s * jet.d[2] == pytest.approx(0.0, abs=1e-12)


def test_eta_fourth_derivative_against_finite_differences(params_m2):
    # two 5-point stencils, Richardson-combined to kill their h^2 error
    s_c, h = 1.0, 0.04
    grid = sorted({s_c + k * h / 2.0 for k in range(-4, 5)})
    traj = flow.integrate(params_m2, 1e-5, grid, tol=1e-12)
    eta = {round((st.s - s_c) / (h / 2.0)): st.eta[0].real
           for st in traj.states}

    def fd5(step):
        vals = np.array([eta[k * step] for k in (-2, -1, 0, 1, 2)])
        return float(np.array([1, -4, 6, -4, 1]) @ vals) / (step * h / 2) ** 4

    fd = (4.0 * fd5(1) - fd5(2)) / 3.0
    jet = flow.eta_derivatives([st for st in traj.states if st.s == s_c][0])
    assert abs(fd - jet.d[4]) / abs(jet.d[4]) <= 1e-5


def test_eta_derivatives_requires_m2(traj_m1):
    with pytest.raises(ValueError):
        flow.eta_derivatives(traj_m1.states[0])


# ---------------------------------------------------------------------------
# gap probability via the tau formula
# ---------------------------------------------------------------------------

def test_gap_small_interval_limit(params_m2):
    st, loghead = flow.launch_state(params_m2, 1e-6)
    assert math.exp(loghead) == pytest.approx(1.0, abs=1e-2)


def test_gap_matches_mb_fredholm(traj_m2):
    target = {st.s: lg for st, lg in zip(traj_m2.states, traj_m2.log_gap)}[1.0]
    mb = gap_probability_mb(MBParams(c=0.0), 2.0)
    assert abs(target - mb.logE) <= 1e-6


def test_gap_log_derivative_is_eta0_over_s(params_m2):
    s_c, h = 1.0, 1e-3
    traj = flow.integrate(params_m2, 1e-5, [s_c - h, s_c, s_c + h], tol=1e-12)
    lg = {st.s: g for st, g in zip(traj.states, traj.log_gap)}
    dlog = (lg[s_c + h] - lg[s_c - h]) / (2.0 * h)
    eta0 = [st for st in traj.states if st.s == s_c][0].eta[0].real
    assert dlog == pytest.approx(eta0 / s_c, rel=1e-6)


def test_m1_exact_gap(traj_m1):
    # at nu = (0,0) the gap law is exactly exp(-s)
    for st, lg in zip(traj_m1.states, traj_m1.log_gap):
        assert lg == pytest.approx(-st.s, abs=1e-9)
    pt = gap_probability_hardedge(HardEdgeParams.from_nu((0.0, 0.0)), 1.0)
    assert pt.logE == pytest.approx(-1.0, abs=1e-9)


def test_trajectory_csv_round_trip(traj_m2):
    text = flow.trajectory_csv(traj_m2)
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "s"
    assert "re_x0" in header and "im_eta2" in header and "logE" in header
    assert any(c.startswith("res_") for c in header)
    data = np.loadtxt(lines[1:], delimiter=",")
    assert data.shape == (len(traj_m2.states), len(header))
    s_col = data[:, 0]
    assert np.all(np.diff(s_col) > 0)


def test_trajectory_begins_with_launch_state(traj_m2):
    st0, _ = flow.launch_state(traj_m2.params, traj_m2.s0)
    first = traj_m2.states[0]
    assert first.s == traj_m2.s0
    assert np.array_equal(first.x, st0.x)
    assert np.array_equal(first.eta, st0.eta)
    abscissas = [st.s for st in traj_m2.states]
    assert all(b > a for a, b in zip(abscissas, abscissas[1:]))
