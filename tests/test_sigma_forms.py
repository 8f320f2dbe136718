import dataclasses
import math

import numpy as np
import pytest

from hardedge.kernels import HardEdgeParams
from hardedge import hamiltonian_flow as flow
from hardedge import sigma_forms as sf

SQRT_PI = math.sqrt(math.pi)


def jet_at(traj, s):
    return flow.eta_derivatives([st for st in traj.states if st.s == s][0])


# ---------------------------------------------------------------------------
# the radical F
# ---------------------------------------------------------------------------

def test_radical_leading_order_special_case(params_m2):
    s = 1e-8
    d = sf.eta0_power_series(sf.SPECIAL_ETA0_TERMS, s)[0]
    F = sf.radical_F(s, d, *params_m2.e[:2])
    assert F == pytest.approx(0.5 / SQRT_PI / math.sqrt(s), rel=1e-2)


def test_radical_matches_bilinear_on_trajectory(traj_m2):
    for st in traj_m2.states:
        if st.s < 0.05:
            continue
        jet = flow.eta_derivatives(st)
        e1 = st.params.e[0]
        fb = float((-3.0 * st.x[0] * st.y[1] - 3.0 * st.x[1] * st.y[2]
                    - e1 * st.x[0] * st.y[2]).real)
        assert abs(jet.F - fb) <= 1e-8 * max(1.0, abs(fb))
        assert jet.F * fb > 0  # branch consistency


def test_radical_zero_jet():
    assert sf.radical_F(1.0, (0.0,) * 5, -0.5, 0.0) == 0.0


def test_radical_rejects_negative_square():
    # a jet engineered so the square is genuinely negative
    with pytest.raises(ValueError):
        sf.radical_F(1.0, (0.0, 1.0, 0.0, 1.0, 0.0), 0.0, 0.0)


# ---------------------------------------------------------------------------
# quartic ODE: typeset blocks and the pipeline reconstruction
# ---------------------------------------------------------------------------

def test_quartic_detects_perturbation(traj_m2):
    # a 1% error in the fourth derivative lifts the residual by ten orders
    # of magnitude (to ~1e-5 under the sum-of-blocks normalization)
    jet = jet_at(traj_m2, 0.5)
    clean = abs(sf.quartic_ode_residual(jet))
    d = list(jet.d)
    d[4] *= 1.01
    perturbed = dataclasses.replace(jet, d=tuple(d))
    res = abs(sf.quartic_ode_residual(perturbed))
    assert res >= 1e-5
    assert res >= 1e6 * clean


def _random_consistent_jet(rng, params):
    # random jet with F^2 > 0; U, V, W, Z are rebuilt internally so the sum
    # rule U + V + s eta0'' = 0 holds by construction
    e1, e2 = params.e[0], params.e[1]
    while True:
        s = rng.uniform(0.3, 2.0)
        d = tuple(rng.uniform(-2.0, 2.0, size=5))
        if abs(d[1]) < 0.1:
            continue
        fsq = sf.f_squared(s, d, e1, e2)
        if fsq > 0.01:
            F, U, V, _, _ = sf.uvwz_from_jet(s, d, e1, e2)
            return sf.ResolventJet(s=s, d=d, F=F, U=U, V=V, params=params)


def test_quartic_dual_path_agreement(params_m2):
    rng = np.random.default_rng(3)
    for _ in range(20):
        jet = _random_consistent_jet(rng, params_m2)
        p_typeset = sf.quartic_typeset_raw(jet)
        p_pipeline = sf.quartic_pipeline_raw(jet)
        assert abs(p_typeset - p_pipeline) <= 1e-9 * max(abs(p_typeset), 1.0)


def test_quartic_dual_path_on_other_indices():
    params = HardEdgeParams.from_nu((0.0, 0.25, 0.6))
    rng = np.random.default_rng(11)
    for _ in range(10):
        jet = _random_consistent_jet(rng, params)
        p_t = sf.quartic_typeset_raw(jet)
        p_p = sf.quartic_pipeline_raw(jet)
        assert abs(p_t - p_p) <= 1e-9 * max(abs(p_t), 1.0)


def test_dual_path_survives_a_singular_pipeline_system(params_m2, capsys):
    # on the flow at nu=(0,-1/2,0) the pipeline's 4x4 system is singular up
    # to rounding; at this s the resolvent state's system has an exact zero
    # pivot (numpy 2.4 with OpenBLAS), which made the solve raise
    # LinAlgError and `hardedge sigma` exit 1.  The dual path reads rounding
    # there as elsewhere, and sigma reports the abscissa
    from hardedge.cli import main
    from hardedge.verification import jet_residuals

    s = 0.082176508297626
    res = jet_residuals(flow.launch_state(params_m2, s))
    assert res["quartic_dual_path"] <= 1e-12
    assert main(["sigma", "--s", repr(s)]) == 0
    assert '"quartic_dual_path"' in capsys.readouterr().out


def test_quartic_requires_nonzero_slope(params_m2):
    jet = sf.ResolventJet(s=1.0, d=(1.0, 0.0, 1.0, 1.0, 1.0), F=1.0, U=0.0,
                          V=0.0, params=params_m2)
    with pytest.raises(ValueError):
        sf.quartic_ode_residual(jet)


# ---------------------------------------------------------------------------
# M=1 sigma form
# ---------------------------------------------------------------------------

def test_p3_sigma_zero_solution():
    assert sf.p3_sigma_residual(1.0, 0.0, 0.0, 0.0, -0.5, 0.3) == 0.0


def test_p3_sigma_small_s_boundary_series():
    # eta_0 ~ -s^(nu+1)/(Gamma(nu+2) Gamma(nu+1)) solves to leading order
    nu = 0.5
    c = -1.0 / (math.gamma(nu + 2) * math.gamma(nu + 1))
    p = nu + 1.0
    for s in (1e-4, 1e-6):
        h = c * s ** p
        d1 = c * p * s ** (p - 1)
        d2 = c * p * (p - 1) * s ** (p - 2)
        res = sf.p3_sigma_residual(s, h, d1, d2, nu, 0.0)
        assert res <= 10.0 * s


def test_p3_sigma_quadratic_scaling():
    # with e1 = e2 = 0, residual(eps * eta)/eps^2 stays bounded as eps -> 0
    s, h, d1, d2 = 1.3, -0.8, -0.9, 0.4
    base = None
    for eps in (1e-2, 1e-4, 1e-6):
        terms = (s ** 2 * (eps * d2) ** 2, 0.0,
                 4 * (eps * d1) ** 2 * (s * eps * d1 - eps * h + s),
                 -4 * eps * h * eps * d1)
        ratio = abs(sum(terms)) / eps ** 2
        if base is None:
            base = ratio
        assert ratio <= 2.0 * base + 1e-12


# ---------------------------------------------------------------------------
# special-index reductions
# ---------------------------------------------------------------------------

def test_special_case_rejects_other_indices():
    params = HardEdgeParams.from_nu((0.0, 0.0, 0.5))
    jet = sf.ResolventJet(s=1.0, d=(1.0, 1.0, 1.0, 1.0, 1.0), F=1.0, U=0.0,
                          V=0.0, params=params)
    with pytest.raises(ValueError):
        sf.special_case_residuals(jet)


def test_special_case_series_jet_residual(params_m2):
    # the six-term series solves the third-order ODE up to its truncation
    s = 1e-3
    d = sf.eta0_power_series(sf.SPECIAL_ETA0_TERMS, s)[0]
    F = sf.radical_F(s, d, *params_m2.e[:2])
    jet = sf.ResolventJet(s=s, d=d, F=F, U=0.0, V=0.0, params=params_m2)
    third, fid = sf.special_case_residuals(jet)
    assert abs(third) <= 1e-5
    assert fid <= 1e-5


def test_leading_coefficients_of_f_identity(params_m2):
    # with the one-term jet eta_0 = -2 sqrt(s/pi), -2F and eta_0' share the
    # leading coefficient -1/sqrt(pi s)
    s = 1e-14
    c = -2.0 / SQRT_PI
    d = (c * s ** 0.5, 0.5 * c * s ** -0.5, -0.25 * c * s ** -1.5,
         0.375 * c * s ** -2.5, -0.9375 * c * s ** -3.5)
    F = sf.radical_F(s, d, *params_m2.e[:2])
    assert -2.0 * F == pytest.approx(d[1], rel=1e-5)


def test_small_s_series_against_fredholm(params_m2):
    # the series loghead must agree with the determinant at small s
    from hardedge.fredholm import gap_probability_mb
    from hardedge.kernels import MBParams
    s = 0.01
    series = sf.eta0_power_series(sf.SPECIAL_ETA0_TERMS, s)[1]
    mb = gap_probability_mb(MBParams(c=0.0), 2.0 * math.sqrt(s))
    assert series == pytest.approx(mb.logE, abs=5.0 * s ** 3.5)


# ---------------------------------------------------------------------------
# recovery formulas
# ---------------------------------------------------------------------------

def test_x0y2_recovery_is_exact(traj_m2):
    st = [t for t in traj_m2.states if t.s == 1.0][0]
    jet = flow.eta_derivatives(st)
    rep = sf.rep_formulas(jet)
    assert rep["x0y2"] == -jet.d[1]


def test_gauge_boundary_condition_at_launch(params_m2):
    # trajectory G at the launch point reproduces its boundary series
    s0 = 1e-5
    st = flow.launch_state(params_m2, s0)
    n0, n1, n2 = params_m2.nu
    g_inv_series = (-math.gamma(n2 - n1) * math.gamma(n2 - n0 + 1)
                    * s0 ** (n1 + n0)
                    - math.gamma(n1 - n2) * math.gamma(n1 - n0 + 1)
                    * s0 ** (n2 + n0))
    g_traj = (st.x[0] / st.y[2]).real
    assert abs(1.0 / g_traj - g_inv_series) <= 1e-3 * abs(g_inv_series)


def test_appendix_recovery_requires_m2(traj_m1):
    with pytest.raises(ValueError):
        sf.appendix_recover(traj_m1.states[0])


def test_appendix_recovery_reads_the_complex_trajectory_values(traj_m2):
    # the trajectory values, read as Python floats, are the real parts of
    # the complex ones, so every residual keeps its bits
    for st in traj_m2.states:
        rep = sf.rep_formulas(flow.eta_derivatives(st))
        x, y, xi, eta = st.x, st.y, st.xi, st.eta
        actual = {"xi0": xi[0].real, "xi1": xi[1].real, "eta1": eta[1].real,
                  "eta2": eta[2].real}
        actual.update({f"x{i}y{j}": (x[i] * y[j]).real
                       for i, j in ((0, 1), (1, 2), (0, 2), (0, 0), (1, 1),
                                    (2, 2))})
        got = sf.appendix_recover(st)
        assert list(got) == [*actual, "gode"]
        for k, v in actual.items():
            assert got[k] == abs(rep[k] - v) / max(1.0, abs(v)), (st.s, k)
            assert type(got[k]) is float
