"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all
even on success).  Criteria:

1. reference determinant table reproduced to 1e-7 (r <= 8) / 1e-6 (r <= 14)
   with at most 96 outer quadrature nodes, within 2 minutes;
2. local-triple a_1 at center r=13 within 2e-3 of the reference column and
   extrapolated |a_1| within 5e-3 of 9*2^(-11/3);
3. flow gap agrees with the Fredholm determinant to 1e-6 at every grid
   point with s >= 0.05 up to 10: the Bessel kernel for one matrix, the
   Muttalib-Borodin kernel for two;
4. every first-integral/energy residual (plus the two alternates) stays
   below 1e-8 and the imaginary leakage below 1e-9 on s in [1e-5, 10] at
   tol 1e-10, for both validated index sets;
5. sigma-form suite: M=1 sigma residual <= 1e-8, quartic residual <= 1e-6
   with dual-path agreement <= 1e-9, special third-order and radical
   identities <= 1e-6;
6. structure suite: folding <= 1e-10, Tracy-Widom map <= 1e-8, Schlesinger
   <= 1e-8, rank-one residual <= 1e-10, recovery formulas and the G-factor
   ODE <= 1e-6;

Criteria 3-6 read the categories of ``hardedge.verification.verify`` over
one trajectory per index set, and each pins the report's tolerance to its
own limit, so the report's table cannot loosen a criterion.
7. integrated eta_0 at s = 1e-3 matches the six-term series within five
   times the first neglected order s^(7/2);
8. Monte Carlo: M=1 empirical gap within 3 binomial sigma of the Bessel
   determinant at s in {0.5, 1, 2}; M=2 scaling collapse N0=40 vs 80 within
   joint 3 sigma; within 5 minutes;
9. indicial exponent sets at nu = (0, -1/2, 0) and polynomial residuals of
   the fractional coefficients <= 1e-10.
"""

import math
import time

import numpy as np
import pytest

from hardedge.kernels import HardEdgeParams, MBParams, borodin_kernel_matrix
from hardedge.fredholm import make_rule, fredholm_det
from hardedge import hamiltonian_flow as flow
from hardedge import sigma_forms as sf
from hardedge.asymptotics import fit_tail, indicial_exponents, A1_PREDICTED
from hardedge.ginibre_mc import (
    McConfig, sample_min_singular_sq, empirical_gap,
)
from hardedge.fredholm import gap_probability_hardedge
from hardedge.reference_data import TABLE1, table1_a1
from hardedge.verification import verify

NODES = 48  # criterion 1 allows up to 96


def _report(num, label, worst, limit, extra=""):
    ok = worst <= limit
    print(f"CRITERION {num} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e} vs limit {limit:.1e}){extra}")
    return ok


@pytest.fixture(scope="module")
def computed_table():
    t0 = time.time()
    out = {0: {}, 1: {}}
    for c in (0, 1):
        mb = MBParams(c=float(c))
        for r in range(4, 15):
            rule = make_rule(NODES, 0.0, float(r))
            _, logdet = fredholm_det(
                lambda xs, ys: borodin_kernel_matrix(mb, xs, ys), rule)
            out[c][r] = logdet
    return out, time.time() - t0


def test_criterion_1_table_reproduction(computed_table):
    table, elapsed = computed_table
    worst_lo = worst_hi = 0.0
    for c in (0, 1):
        for r in range(4, 15):
            err = abs(table[c][r] - TABLE1[c][r][0])
            if r <= 8:
                worst_lo = max(worst_lo, err)
            worst_hi = max(worst_hi, err)
    ok = _report(1, "table", worst_lo, 1e-7,
                 f"; r<=14 worst {worst_hi:.3e} vs 1e-6; nodes={NODES}, "
                 f"{elapsed:.1f}s")
    assert ok
    assert worst_hi <= 1e-6
    assert elapsed <= 120.0


def test_criterion_2_tail_coefficients(computed_table):
    table, _ = computed_table
    worst_a1 = 0.0
    for c in (0, 1):
        pts = [(float(r), table[c][r]) for r in range(4, 15)]
        fit = fit_tail(pts, mode="local_triple", center=13.0, extrapolate=True)
        worst_a1 = max(worst_a1, abs(fit.a1 - table1_a1(c, 13)))
        ext_err = abs(abs(fit.a1_extrapolated) - A1_PREDICTED)
        assert ext_err <= 5e-3, f"extrapolation off by {ext_err:.2e} (c={c})"
        # on computed curves the local estimate approaches the predicted
        # limit monotonically in magnitude beyond r = 6
        a1s = [abs(fit_tail(pts, mode="local_triple", center=float(r)).a1)
               for r in range(7, 14)]
        assert all(b > a for a, b in zip(a1s, a1s[1:]))
    ok = _report(2, "tail a1", worst_a1, 2e-3, "; extrapolation within 5e-3")
    assert ok


@pytest.fixture(scope="module")
def accept_traj_m2():
    params = HardEdgeParams.from_nu(sf.SPECIAL_NU)
    targets = [1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 10.0]
    return flow.integrate(params, 1e-5, targets, tol=1e-10)


@pytest.fixture(scope="module")
def accept_traj_m1():
    params = HardEdgeParams.from_nu((0.0, 0.0))
    targets = [1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    return flow.integrate(params, 1e-5, targets, tol=1e-10)


@pytest.fixture(scope="module")
def reports(accept_traj_m1, accept_traj_m2):
    return {"M=1": verify(accept_traj_m1), "M=2": verify(accept_traj_m2)}


def _check_categories(num, label, reports, limits):
    """One PASS/FAIL line over report categories, each bound pinned here."""
    checks = {(case, name): (rep[name], limit)
              for name, limit in limits.items()
              for case, rep in reports.items() if name in rep}
    assert {name for _, name in checks} == set(limits)
    ok = all(c.ok for c, _ in checks.values())
    print(f"CRITERION {num} [{label}]: {'PASS' if ok else 'FAIL'} ("
          + ", ".join(f"{case} {name} {c.max_residual:.2e}/{limit:.0e}"
                      for (case, name), (c, limit) in checks.items()) + ")")
    for (case, name), (c, limit) in checks.items():
        assert c.tolerance == limit, f"{case} {name}: bound {c.tolerance} != {limit}"
        assert c.ok, f"{case} {name}: {c.max_residual:.3e} at s={c.worst_s}"


def test_criterion_3_three_way_consistency(reports):
    _check_categories(3, "flow vs determinant", reports,
                      {"gap_vs_fredholm": 1e-6})


def test_criterion_4_conservation(reports):
    _check_categories(4, "conservation", reports,
                      {"first_integrals": 1e-8, "imag_leakage": 1e-9})


def test_criterion_5_sigma_forms(reports):
    _check_categories(5, "sigma forms", reports,
                      {"sigma_m1": 1e-8, "quartic": 1e-6,
                       "quartic_dual_path": 1e-9, "third_order": 1e-6,
                       "f_identity": 1e-6})


def test_criterion_6_structure(reports):
    _check_categories(6, "structure", reports,
                      {"folding": 1e-10, "tracy_widom": 1e-8,
                       "schlesinger": 1e-8, "rank_one": 1e-10,
                       "appendix_recovery": 1e-6})


def test_criterion_7_small_s_series(accept_traj_m2):
    s = 1e-3
    st = [t for t in accept_traj_m2.states if t.s == s][0]
    err = abs(st.eta[0].real - sf.special_eta0_jet(s)[0])
    assert _report(7, "small-s series", err, 5.0 * s ** 3.5)


def test_criterion_8_monte_carlo():
    t0 = time.time()
    cfg = McConfig(M=1, N0=50, nu_int=(0,), samples=10_000, seed=7)
    res = sample_min_singular_sq(cfg)
    params = HardEdgeParams.from_nu((0.0, 0.0))
    worst_sd = 0.0
    for s, p_hat, _, _ in empirical_gap(res, [0.5, 1.0, 2.0]):
        e = gap_probability_hardedge(params, s, target_tol=1e-9).E
        sd = abs(p_hat - e) / math.sqrt(e * (1 - e) / cfg.samples)
        worst_sd = max(worst_sd, sd)
    # scaling collapse for two matrix factors
    n = 4000
    gaps = {}
    for n0 in (40, 80):
        c = McConfig(M=2, N0=n0, nu_int=(0, 0), samples=n, seed=11)
        gaps[n0] = empirical_gap(sample_min_singular_sq(c), [0.5, 1.0, 2.0])
    worst_coll = 0.0
    for (s, pa, _, _), (_, pb, _, _) in zip(gaps[40], gaps[80]):
        joint = math.sqrt(pa * (1 - pa) / n + pb * (1 - pb) / n)
        worst_coll = max(worst_coll, abs(pa - pb) / joint)
    elapsed = time.time() - t0
    ok = worst_sd <= 3.0 and worst_coll <= 3.0 and elapsed <= 300.0
    print(f"CRITERION 8 [monte carlo]: {'PASS' if ok else 'FAIL'} "
          f"(M=1 worst {worst_sd:.2f} sigma, collapse {worst_coll:.2f} sigma,"
          f" {elapsed:.0f}s)")
    assert ok


def test_criterion_9_indicial():
    params = HardEdgeParams.from_nu(sf.SPECIAL_NU)
    rep = indicial_exponents(params)
    sets_ok = (sorted(set(rep.fixed_exponents)) == [0.5, 1.0, 1.5]
               and sorted(rep.quadratic_pair)
               == pytest.approx([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)]))
    worst = 0.0
    rng = np.random.default_rng(17)
    reports = [rep] + [
        indicial_exponents(HardEdgeParams.from_nu(
            (0.0, float(rng.uniform(-0.9, 1.5)), float(rng.uniform(-0.9, 1.5)))))
        for _ in range(5)]
    for r in reports:
        scale = 27.0 * max(1.0, abs(r.x_disc), abs(r.y_disc))
        for c in r.fractional_C1:
            worst = max(worst, abs(27 * c ** 6 + 54 * r.x_disc * c ** 3
                                   - 27 * r.y_disc) / scale)
    ok = sets_ok and worst <= 1e-10
    print(f"CRITERION 9 [indicial]: {'PASS' if ok else 'FAIL'} "
          f"(exponent sets {'ok' if sets_ok else 'WRONG'}, "
          f"poly residual {worst:.2e}/1e-10)")
    assert ok
