import dataclasses
import gc
import importlib.machinery
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import hardedge
from hardedge.kernels import HardEdgeParams
from hardedge.fredholm import gap_probability_hardedge
from hardedge import hamiltonian_flow as flow
from hardedge.cli import main
from hardedge.verification import integrate_case, verify

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# launch data
# ---------------------------------------------------------------------------

def test_launch_state_residuals_small_at_tiny_s0(params_m2):
    # the resolvent launch satisfies every integral of motion
    st = flow.launch_state(params_m2, 1e-8)
    r = flow.first_integral_residuals(st)
    r.pop("imag_leakage")
    assert max(r.values()) <= 1e-6


def _no_work(*args, **kwargs):
    raise AssertionError("a refused launch reached the resolvent, gate or "
                         "integrator")


# M=1 off (0,0); M=2 at integer nu_2 - nu_1, with a negative launch radical,
# with leading-term launches that miss the first integrals, and (0, 0.3, 0),
# which the loosest gate let through from s0 = 1e-12 with log E 1.4e-4 off
@pytest.mark.parametrize("nu", [
    (0.0, -0.5), (0.0, 0.3), (0.0, 1.0), (0.0, 2.5),
    (0.0, 0.0, 1.0), (0.0, 0.5, 1.5), (0.0, -0.75, -0.5), (0.0, -0.5, -0.75),
    (0.0, 0.0, 0.5), (0.0, 0.3, 1.1), (0.0, 0.25, -0.25), (0.0, 1.5, 0.0),
    (0.0, 0.3, 0.0)], ids=lambda nu: ",".join(f"{v:g}" for v in nu))
def test_uncertified_launch_refused_before_any_work(nu, monkeypatch, tmp_path):
    # only nu=(0,0) and (0,-1/2,0) launch; every other index set is refused
    # with one text before any resolvent, first-integral gate or integration,
    # and ode exits 1 (a numerical refusal, not a usage error)
    monkeypatch.setattr(flow, "solve_ivp", _no_work)
    monkeypatch.setattr(flow, "_first_integrals", _no_work)
    monkeypatch.setattr(flow, "first_integral_residuals", _no_work)
    monkeypatch.setattr(flow, "build_kernel_bundle", _no_work)
    monkeypatch.setattr(flow, "_resolvent_state", _no_work)
    match = (r"no certified launch at nu=\(" + ", ".join(f"{v:g}" for v in nu)
             + r"\): only nu=\(0,0\) and \(0,-1/2,0\) launch")
    for s0, tol in ((1e-5, 1e-10), (1e-12, 1e-6)):
        with pytest.raises(flow.FlowError, match=match):
            flow.integrate(HardEdgeParams.from_nu(nu), s0, [1e-4, 1.0], tol=tol)
    assert main(["ode", "--nu", *map(str, nu[1:]), "--s-max", "1.0",
                 "--points", "4", "--out", str(tmp_path)]) == 1


def test_special_launch_holds_its_integrals_away_from_zero():
    # the resolvent launch is not a small-s expansion: every integral of
    # motion holds to roundoff at s0 up to 0.5
    params = HardEdgeParams.from_nu((0.0, -0.5, 0.0))
    for s0 in (0.05, 0.1, 0.5):
        st = flow.launch_state(params, s0)
        assert st.s == s0
        r = flow.first_integral_residuals(st)
        assert max(r.values()) <= 1e-13, (s0, r)


def _launch_vector(state):
    return np.concatenate([state.x, state.y, state.xi, state.eta, [state.u[-2]]])


def _max_relative(a, b):
    """max |a - b| over the largest |b|: normwise, as the state's small
    components carry no relative accuracy of their own."""
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("s0", [1e-8, 1e-5, 0.05, 1.0])
def test_m1_launch_is_the_closed_form(s0, params_m1):
    # at nu=(0,0) the resolvent gives Q = (1, s), P = (-s, 1) and E = e^-s
    got = _launch_vector(flow.launch_state(params_m1, s0))
    closed = np.array([1j, 1j * s0, -1j * s0, 1j, s0 * s0 / 2, -s0, -s0,
                       -s0 * s0 / 2, -s0])
    assert _max_relative(got, closed) <= 1e-14


@pytest.mark.parametrize("s0", [1e-8, 1e-5, 0.05, 1.0])
@pytest.mark.parametrize("case", ["m1", "m2"])
def test_launch_at_16_nodes_matches_32(case, s0, params_m1, params_m2):
    # the node count is pinned: doubling it moves no launch state
    params = params_m1 if case == "m1" else params_m2
    got = _launch_vector(flow.launch_state(params, s0))
    ref = _launch_vector(flow._resolvent_state(params, s0, 32))
    assert _max_relative(got, ref) <= 1e-11


@pytest.mark.parametrize("case", ["m1", "m2"])
def test_launch_refused_past_its_measured_range(case, params_m1, params_m2,
                                                monkeypatch):
    # the 16-node count is measured for s0 <= 1 only; past it, no state
    params = params_m1 if case == "m1" else params_m2
    monkeypatch.setattr(flow, "_resolvent_state", _no_work)
    for s0 in (1.5, 10.0, float("nan")):
        with pytest.raises(flow.FlowError, match=r"^no launch at s0=\S+: "
                                                 r"measured only to s0 = 1$"):
            flow.launch_state(params, s0)


def _run_fresh(code):
    """Run code in a fresh interpreter that imports hardedge from this tree."""
    src = str(Path(hardedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_scipy_integrate_never_loaded():
    # a fresh interpreter: neither the package import, an integration nor a
    # whole verify command loads scipy.integrate; DOP853 comes from its file
    _run_fresh("\n".join([
        "import contextlib, io, sys",
        "import hardedge, hardedge.cli",
        "assert 'scipy.integrate' not in sys.modules",
        "hardedge.integrate(hardedge.HardEdgeParams.from_nu((0.0, 0.0)),"
        " 1e-5, [1e-4, 0.1])",
        "assert 'scipy.integrate' not in sys.modules",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert hardedge.cli.main(['verify', 'm1']) == 0",
        "assert 'scipy.integrate' not in sys.modules",
    ]))


def test_scipy_integrate_still_works_after_integration():
    # the file-loaded DOP853 is not registered as scipy.integrate._dop: after
    # an integration, scipy's own package, module and ode(f) dop853 still
    # work beside it, and the flow steps the same trajectory as before
    _run_fresh("\n".join([
        "import math",
        "import numpy as np",
        "import hardedge",
        "from hardedge import hamiltonian_flow as flow",
        "params = hardedge.HardEdgeParams.from_nu((0.0, -0.5, 0.0))",
        "before = flow.integrate(params, 1e-5, [1e-4, 0.5, 2.0])",
        "import scipy.integrate",
        "from scipy.integrate import _dop, ode",
        "assert flow._dop853() is not _dop.dopri853",
        "r = ode(lambda t, y: -y).set_integrator('dop853', rtol=1e-10,"
        " atol=1e-12)",
        "y = r.set_initial_value([1.0], 0.0).integrate(1.0)",
        "assert r.successful() and abs(y[0] - math.exp(-1.0)) < 1e-9, y",
        "after = flow.integrate(params, 1e-5, [1e-4, 0.5, 2.0])",
        "assert after.nfev == before.nfev",
        "assert np.array_equal(after.log_gap, before.log_gap)",
        "assert all(np.array_equal(a.u, b.u)",
        "           for a, b in zip(after.states, before.states))",
    ]))


def test_ordinary_import_fallback_steps_the_same_trajectory(monkeypatch):
    # where no extension file matches (here: no suffix), _dop853 imports
    # scipy.integrate._dop the ordinary way, and the flow is bit-identical
    params = HardEdgeParams.from_nu((0.0, -0.5, 0.0))
    from_file = _trajectory_bytes(flow.integrate(params, 1e-5, _PIN_GRID))
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    flow._dop853.cache_clear()
    try:
        fallback = _trajectory_bytes(flow.integrate(params, 1e-5, _PIN_GRID))
        assert flow._dop853() is sys.modules["scipy.integrate._dop"].dopri853
    finally:
        flow._dop853.cache_clear()
    assert fallback == from_file


# ---------------------------------------------------------------------------
# right-hand side identities
# ---------------------------------------------------------------------------

def test_rhs_eta0_equation_verbatim(params_m1, params_m2):
    st2 = flow.launch_state(params_m2, 1e-5)
    _, _, dxi, deta = flow.rhs(st2)
    assert deta[0] == -st2.x[0] * st2.y[2]           # M=2: eta_0' = -x0 y2
    assert dxi[2] - deta[0] == 0.0                   # (xi_2 - eta_0)' = 0
    st1 = flow.launch_state(params_m1, 1e-5)
    _, _, _, deta1 = flow.rhs(st1)
    assert deta1[0] == st1.x[0] * st1.y[1]           # M=1: eta_0' = +x0 y1


def _rhs_divided_by_s(s, v):
    """The equations of motion on numpy scalars, each quotient taken by / s."""
    if len(v) == 9:
        x0, x1, y0, y1, xi0, xi1, eta0, eta1, _ = v
        return np.array([
            (-eta0 * x0 - x1) / s,
            (-eta1 * x0 + s * x0 + xi0 * x0 + xi1 * x1) / s,
            (-xi0 * y1 - s * y1 + eta0 * y0 + eta1 * y1) / s,
            (-xi1 * y1 + y0) / s,
            x0 * y0, x0 * y1, x0 * y1, x1 * y1,
            eta0 / s,
        ])
    x0, x1, x2, y0, y1, y2, xi0, xi1, xi2, eta0, eta1, eta2, _ = v
    return np.array([
        (-eta0 * x0 - x1) / s,
        (-eta1 * x0 - x2) / s,
        (-eta2 * x0 - s * x0 + xi0 * x0 + xi1 * x1 + xi2 * x2) / s,
        (-xi0 * y2 + s * y2 + eta0 * y0 + eta1 * y1 + eta2 * y2) / s,
        (-xi1 * y2 + y0) / s,
        (-xi2 * y2 + y1) / s,
        -x0 * y0, -x0 * y1, -x0 * y2, -x0 * y2, -x1 * y2, -x2 * y2,
        eta0 / s,
    ])


def _physical_branch_state(rng, m1):
    """A random packed state with x, y in iR and xi, eta, the log-E
    accumulator in R; the zero parts are +0.0, as the steppers carry them."""
    v = np.zeros(4 * m1 + 1, dtype=complex)
    v.imag[:2 * m1] = rng.standard_normal(2 * m1)
    v.real[2 * m1:] = rng.standard_normal(2 * m1 + 1)
    return v


def _rhs_list_m1(s, u):
    """The M=1 real form returning a list, its parts read through tolist:
    a second reference, with the formulas of the buffer form."""
    _, X0, _, X1, _, Y0, _, Y1, XI0, _, XI1, _, E0, _, E1, _, _, _ = u.tolist()
    inv = 1.0 / s
    return [
        0.0, (-E0 * X0 - X1) * inv,
        0.0, (-E1 * X0 + s * X0 + XI0 * X0 + XI1 * X1) * inv,
        0.0, (-XI0 * Y1 - s * Y1 + E0 * Y0 + E1 * Y1) * inv,
        0.0, (-XI1 * Y1 + Y0) * inv,
        -X0 * Y0, 0.0, -X0 * Y1, 0.0,
        -X0 * Y1, 0.0, -X1 * Y1, 0.0,
        E0 * inv, 0.0,
    ]


def _rhs_list_m2(s, u):
    """The M=2 real form returning a list; see ``_rhs_list_m1``."""
    (_, X0, _, X1, _, X2, _, Y0, _, Y1, _, Y2, XI0, _, XI1, _, XI2, _,
     E0, _, E1, _, E2, _, _, _) = u.tolist()
    inv = 1.0 / s
    return [
        0.0, (-E0 * X0 - X1) * inv,
        0.0, (-E1 * X0 - X2) * inv,
        0.0, (-E2 * X0 - s * X0 + XI0 * X0 + XI1 * X1 + XI2 * X2) * inv,
        0.0, (-XI0 * Y2 + s * Y2 + E0 * Y0 + E1 * Y1 + E2 * Y2) * inv,
        0.0, (-XI1 * Y2 + Y0) * inv,
        0.0, (-XI2 * Y2 + Y1) * inv,
        X0 * Y0, 0.0, X0 * Y1, 0.0, X0 * Y2, 0.0,
        X0 * Y2, 0.0, X1 * Y2, 0.0, X2 * Y2, 0.0,
        E0 * inv, 0.0,
    ]


@pytest.mark.parametrize("fn, listed, m1",
                         [(flow._rhs_real_m1, _rhs_list_m1, 2),
                          (flow._rhs_real_m2, _rhs_list_m2, 3)],
                         ids=["m1", "m2"])
def test_rhs_bit_identical_to_division_by_s(fn, listed, m1):
    # the right-hand sides evaluate the complex equations restricted to the
    # physical branch, the only states the flow visits, multiplying by 1/s on
    # Python floats; numpy divides a complex by a real the same way, so every
    # slot must agree with the complex formulas to the byte.  The zero parts
    # are +0.0: the complex products leave -0.0 where both factors are
    # negative (0 * Y + X * 0), a sign the stepper's sums wash out, so the
    # reference's zeros are taken as +0.0 (adding +0.0 moves no other value).
    # They write every slot of the buffer they are handed (here NaN-filled)
    # and return it; the list form gives the same bytes, zero signs included
    rng = np.random.default_rng(20140314)
    ss = np.exp(rng.uniform(math.log(1e-5), math.log(60.0), 1000))
    for s in ss:
        v = _physical_branch_state(rng, m1)
        ref = (_rhs_divided_by_s(s, v).view(float) + 0.0).tobytes()
        for s_arg in (s, float(s)):
            out = np.full(2 * len(v), np.nan)
            assert fn(s_arg, v.view(float), out) is out
            assert out.tobytes() == ref
            assert np.array(listed(s_arg, v.view(float))).tobytes() == ref


@pytest.mark.parametrize("case", ["m1", "m2"])
def test_rhs_unpacks_the_nonzero_parts(case, params_m1, params_m2):
    # one unpack of a launch state's vector reads exactly Im x, Im y, Re xi,
    # Re eta and Re log E, in that order
    st = flow.launch_state(params_m1 if case == "m1" else params_m2, 1e-5)
    unpack = flow._unpack_m1 if case == "m1" else flow._unpack_m2
    want = [*st.x.imag, *st.y.imag, *st.xi.real, *st.eta.real, st.u[-2]]
    assert np.array(unpack(st.u)).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name, part", [("x", "real"), ("y", "real"),
                                        ("xi", "imag"), ("eta", "imag")])
def test_rhs_refuses_a_state_off_the_physical_branch(name, part, params_m2):
    # the real form reads only Im x, Im y, Re xi, Re eta: a state with any
    # other part nonzero is refused with the component named, not truncated
    st = flow.launch_state(params_m2, 1e-5)
    flow.rhs(st)
    getattr(getattr(st, name), part)[1] = 1e-3
    label = ("Re " if part == "real" else "Im ") + name
    with pytest.raises(ValueError, match=f"^off the physical branch: "
                                         f"{label}1 = 0.001, not 0$"):
        flow.rhs(st)


def _reference_real(s, u, out):
    # the complex reference on the steppers' real view of the state
    out[:] = _rhs_divided_by_s(s, u.view(complex)).view(float)
    return out


_PIN_GRID = np.geomspace(1e-4, 10.0, 40)


def _trajectory_bytes(traj):
    return ([b"".join(a.tobytes() for a in (st.x, st.y, st.xi, st.eta))
             + np.float64(st.s).tobytes() for st in traj.states],
            np.array(traj.log_gap).tobytes(), traj.nfev)


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_trajectory_matches_complex_reference_rhs(nu, monkeypatch):
    # the real-form right-hand side steps exactly the trajectory of the
    # complex equations: the same states, log E and evaluation count, to the
    # byte (signs of the zero parts included)
    params = HardEdgeParams.from_nu(nu)
    library = _trajectory_bytes(flow.integrate(params, 1e-5, _PIN_GRID))
    monkeypatch.setitem(flow._RHS, params.M, _reference_real)
    reference = _trajectory_bytes(flow.integrate(params, 1e-5, _PIN_GRID))
    assert library == reference


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_nfev_counts_every_rhs_call(nu, monkeypatch):
    # Trajectory.nfev is DOP853's own count (NFCN); on the flow's right-hand
    # sides it must equal the calls the stepper actually makes
    params = HardEdgeParams.from_nu(nu)
    library, calls = flow._RHS[params.M], []

    def counted(s, u, out):
        calls.append(s)
        return library(s, u, out)

    monkeypatch.setitem(flow._RHS, params.M, counted)
    traj = flow.integrate(params, 1e-5, _PIN_GRID)
    assert traj.nfev == len(calls) > 0


def test_rhs_rejects_s_zero(params_m1):
    st = flow.launch_state(params_m1, 1e-5)
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


def _first_integrals_reference(st):
    """first_integral_residuals one state at a time, on Python complex
    scalars: |sum of the terms, left to right| over the largest |term|."""
    def res(terms):
        scale = max(abs(t) for t in terms)
        return abs(sum(terms)) / scale if scale > 0 else 0.0

    s, e = st.s, st.params.e
    x, y, xi, eta = (a.tolist() for a in (st.x, st.y, st.xi, st.eta))
    out = {}
    if st.M == 1:
        (e1, e2), (x0, x1), (y0, y1), (xi0, xi1), (eta0, eta1) = e, x, y, xi, eta
        out["first_integral"] = res([xi1, -eta0, e1])
        out["trace_A"] = res([x0 * y0, x1 * y1])
        out["second_integral"] = res([eta1, xi0, -e2])
        out["fourth_integral"] = res(
            [s * x0 * y1, eta0 * xi1, -eta0, -xi0, eta1, e2])
        out["energy"] = res([eta0 * x0 * y0, (eta1 - xi0 - s) * x0 * y1,
                             x1 * y0, -xi1 * x1 * y1, eta0])
    else:
        ((e1, e2, e3), (x0, x1, x2), (y0, y1, y2), (xi0, xi1, xi2),
         (eta0, eta1, eta2)) = e, x, y, xi, eta
        out["energy"] = res(
            [eta0 * x0 * y0, eta1 * x0 * y1, (-xi0 + eta2 + s) * x0 * y2,
             x1 * y0, x2 * y1, -xi1 * x1 * y2, -xi2 * x2 * y2, eta0])
        out["first_integral"] = res([xi2, -eta0, e1])
        out["fourth_integral"] = res(
            [s * x0 * y2, -eta0 * xi2, -eta1, xi1, -e2, eta0])
        out["trace_A"] = res([x0 * y0, x1 * y1, x2 * y2])
        out["fifth_integral"] = res(
            [-3 * e3, e2 * (e1 + eta0 - 1),
             -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (2 * e1 - 1) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             s * x0 * y2 * (-2 * eta0 + xi2 + 2), s * x1 * y2,
             -3 * (eta2 + xi0)])
        out["sixth_integral"] = res(
            [3 * e3, e2 * (-2 * e1 + eta0 - 4),
             eta0 * (e1 - eta0 + 1) * (2 * e1 - eta0 + 2),
             (-e1 - 1) * eta1, (2 * e1 - 3 * eta0 + 4) * xi1,
             2 * s * x0 * y1, s * x0 * y2 * (2 * e1 - eta0 + 2), s * x1 * y2,
             3 * xi0])
        out["seventh_integral"] = res(
            [e2 * (e1 + eta0 - 1), -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (-e1 + 3 * eta0 - 4) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             -s * x0 * y2 * (e1 + eta0 - 2), -2 * s * x1 * y2, 3 * eta2])
        out["eighth_integral"] = res(
            [e3, xi0, -eta2, -eta0 * xi1, -xi2 * eta1, -x2 * y0,
             eta0 * x2 * y1, -xi2 * x1 * y0, eta0 * xi2 * x1 * y1,
             -xi1 * x0 * y0, (xi0 - eta2 - xi2 * eta1) * x0 * y1,
             xi1 * eta1 * x0 * y2, (xi0 - eta2 - eta0 * xi1) * x1 * y2,
             eta1 * x2 * y2])
        out["alt_sx1y2"] = res(
            [e3, -s * x1 * y2, 2 * eta2, xi0, -eta1, eta1 * xi2])
        out["alt_sx0y1"] = res(
            [e2, -2 * e3, -s * x0 * y1, -eta2, -2 * xi0, -xi1, eta0 * xi1])
    out["imag_leakage"] = max(abs(z.imag) / (1.0 + abs(z)) for z in xi + eta)
    return out


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_first_integrals_match_scalar_reference(nu):
    # the array pass rounds as Python's complex scalars do, state by state:
    # equal bits, the launch row and both gates' rows included
    traj = flow.integrate(HardEdgeParams.from_nu(nu), 1e-5, _PIN_GRID,
                          tol=1e-12)
    for st in traj.states:
        assert repr(flow.first_integral_residuals(st)) == repr(
            _first_integrals_reference(st))


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


@pytest.mark.parametrize("nu, s0", [((0.0, 0.0), 0.0), ((0.0, 0.0), -1e-3),
                                    ((0.0, -0.5, 0.0), 0.0),
                                    ((0.0, -0.5, 0.0), -1e-3)],
                         ids=["m1-zero", "m1-negative", "m2-zero",
                              "m2-negative"])
def test_integrate_refuses_nonpositive_s0(nu, s0, monkeypatch):
    # the system is singular at s = 0: refused before launch or integration
    def no_integration(*args, **kwargs):
        raise AssertionError("solve_ivp called for s0 <= 0")

    monkeypatch.setattr(flow, "solve_ivp", no_integration)
    with pytest.raises(ValueError, match="singular at s = 0"):
        flow.integrate(HardEdgeParams.from_nu(nu), s0, [1e-4, 1.0])


def test_integrate_validates_inputs(params_m2):
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 1e-5, [2.0, 1.0])
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 1e-5, [1.0], tol=1e-3)
    with pytest.raises(ValueError):
        flow.integrate(params_m2, 0.5, [0.1])
    with pytest.raises(ValueError, match="s_targets is empty"):
        flow.integrate(params_m2, 1e-5, [])
    # a non-finite target is refused by name, before launch or integration
    for targets, bad in (([math.nan], "nan"), ([1e-4, math.inf], "inf")):
        with pytest.raises(ValueError,
                           match=f"^s_targets must be finite, got {bad}$"):
            flow.integrate(params_m2, 1e-5, targets)


def test_gate_refuses_launch_off_its_integrals(params_m2, monkeypatch):
    # a launch state nudged off its integrals is refused before integration,
    # with the integral and the launch abscissa named
    launch_state = flow.launch_state

    def nudged(params, s0):
        st = launch_state(params, s0)
        st.eta[0] += 1e-6
        return st

    monkeypatch.setattr(flow, "launch_state", nudged)
    monkeypatch.setattr(flow, "solve_ivp", _no_work)
    with pytest.raises(flow.FlowError,
                       match=r"^first-integral blow-up: \w+@s=1e-05 reached "):
        flow.integrate(params_m2, 1e-5, [1e-4, 1.0])


def test_gate_refuses_drift_at_one_output_state(params_m2, monkeypatch):
    # a drift in one output state refuses the trajectory and names its s
    solve_ivp = flow.solve_ivp

    def drifted(fun, t0, y0, t_eval, rtol, atol):
        sol = solve_ivp(fun, t0, y0, t_eval, rtol, atol)
        sol.y[t_eval.index(0.5)].view(complex)[9] += 1e-6     # eta_0, M=2
        return sol

    monkeypatch.setattr(flow, "solve_ivp", drifted)
    with pytest.raises(flow.FlowError,
                       match=r"^first-integral blow-up: \w+@s=0.5 reached "):
        flow.integrate(params_m2, 1e-5, [0.1, 0.5, 1.0])


def _blow_up(t, y, out):
    # y' = y^2: from y = 1 at t = t0, y = 1 / (1 - (t - t0)) ends at t0 + 1
    return np.multiply(y, y, out=out)


_DOP853_FAILURE = (r"integrator failed: DOP853 return code -3 at t={}: step "
                   r"size becomes too small")


def test_integrator_failure_is_a_flow_error(params_m2, monkeypatch, tmp_path,
                                            capsys):
    # a failed DOP853 leg raises FlowError, and ode exits 1 with one error
    # line: the M=2 launch state's y2 = 315i blows up at s ~ 3.2e-3
    message = _DOP853_FAILURE.format(r"0\.00318\d*")
    monkeypatch.setitem(flow._RHS, 2, _blow_up)
    with pytest.raises(flow.FlowError, match=f"^{message}$"):
        flow.integrate(params_m2, 1e-5, [1e-4, 1.0])
    assert main(["ode", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {message}\n", err), err


def test_stepper_failure_names_dop853_return_code(params_m1, monkeypatch):
    # the real stepper on a blow-up raises FlowError with DOP853's code -3
    # (step size becomes too small) and no warning; so does integrate, whose
    # state has a unit real component
    message = _DOP853_FAILURE.format(r"1\.0\d*")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(flow.FlowError, match=f"^{message}$"):
            flow.solve_ivp(_blow_up, 0.0, np.array([1.0]), t_eval=[0.5, 2.0],
                           rtol=[1e-8, 1e-8], atol=[1e-10, 1e-10])
        monkeypatch.setitem(flow._RHS, 1, _blow_up)
        with pytest.raises(flow.FlowError, match=f"^{message}$"):
            flow.integrate(params_m1, 1e-5, [1e-4, 2.0])
    assert not caught, [str(w.message) for w in caught]


def test_trajectory_nfev_sums_its_legs(params_m2, monkeypatch):
    # one stepper pass per trajectory, with one DOP853 leg per target and
    # per grade edge crossed, each at its graded tolerance; Trajectory.nfev
    # sums the legs' own counts.  The legs share one work array, whose
    # settings work[0:21] DOP853 leaves as they are
    passes, legs = [], []
    solve_ivp, dop853 = flow.solve_ivp, flow._dop853()

    def counted(*args):
        passes.append(list(args[3]))
        return solve_ivp(*args)

    def leg(fun, t, y, t_next, rtol, atol, solout, iout, work, iwork, *rest):
        settings = work[:21].copy()
        out = dop853(fun, t, y, t_next, rtol, atol, solout, iout, work,
                     iwork, *rest)
        assert np.array_equal(work[:21], settings)
        legs.append((t_next, rtol, int(iwork[16])))
        return out

    monkeypatch.setattr(flow, "solve_ivp", counted)
    monkeypatch.setattr(flow, "_dop853", lambda: leg)
    traj = flow.integrate(params_m2, 1e-5, [0.05, 1.0, 3.0], tol=1e-8)
    assert passes == [[0.05, 0.1, 1.0, 2.0, 3.0]]
    assert [t for t, _, _ in legs] == passes[0]
    assert [r / 1e-8 for _, r, _ in legs] == pytest.approx(
        [1e-4, 1e-4, 1e-2, 1e-2, 1.0])
    assert min(n for _, _, n in legs) > 0
    assert traj.nfev == sum(n for _, _, n in legs)


def test_concurrent_integrations_match_serial(params_m1, params_m2):
    # passes share no stepper state and leave the process-wide warning
    # filters alone: six threads, switching every microsecond, reproduce the
    # serial trajectories bit for bit and find the filters as they were
    cases = [params_m1, params_m2]
    targets = [1e-4, 0.05, 0.15]

    def run(params):
        traj = flow.integrate(params, 1e-5, targets, tol=1e-6)
        return [_launch_vector(st) for st in traj.states]

    serial = [run(p) for p in cases]
    filters = list(warnings.filters)
    results = {}
    threads = [threading.Thread(target=lambda k=k: results.update(
        {k: run(cases[k % 2])})) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(results) == list(range(6))
    for k, vecs in results.items():
        assert all(np.array_equal(a, b) for a, b in zip(vecs, serial[k % 2]))
    assert warnings.filters == filters


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_integrate_keeps_no_memory_per_trajectory(nu):
    # scipy's DOP853 wrapper keeps a reference to every callable it is
    # handed, so whatever a pass hands it anew stays alive for good.  Every
    # pass builds its own steppers; even passes run at one tolerance, odd
    # ones cycle through 12 more.  Net growth measured over the 200 passes:
    # 0.4-4.9 KB; 48 KB with a closure per pass; 510-655 KB when the wrapper
    # is handed the integrator's own bound solout, which keeps every stepper
    # alive.  The short trajectory keeps the run brief: tracemalloc slows
    # each RHS call ~20x.
    params = HardEdgeParams.from_nu(nu)
    targets = [1.1e-5, 1.2e-5]
    tols = [1e-6 * (1.0 - 0.02 * (k % 2) * (1 + k // 2 % 12))
            for k in range(220)]
    tracemalloc.start()
    try:
        for tol in tols[:20]:
            flow.integrate(params, 1e-5, targets, tol=tol)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for tol in tols[20:]:
            flow.integrate(params, 1e-5, targets, tol=tol)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 8192, grown


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------

def _structural_reference(st):
    """structural_residuals from the matrices of the linear problem: E, C and
    A = x y^T built with numpy, both commutators taken as matrix products,
    and every 2x2 minor of A.  The matrices hold numpy's extended precision:
    in doubles the products of [B, A] cancel to ~2e-15 of rounding at s=10,
    more than the comparison allows."""
    m1 = st.M + 1
    s = st.s
    x, y, xi, eta, dx, dy, dxi, deta = (
        a.astype(np.clongdouble) for a in (st.x, st.y, st.xi, st.eta)
        + flow.rhs(st))

    def c_matrix(xi, eta, superdiag):
        C = np.zeros((m1, m1), dtype=np.clongdouble)
        for i in range(m1 - 1):
            C[i, 0] = -eta[i]
            C[i, i + 1] = superdiag
        C[-1, 0] = xi[0] - eta[-1]
        C[-1, 1:] = xi[1:]
        return C

    def rel(lhs, rhs):
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
        return np.max(np.abs(lhs - rhs)) / scale

    E = np.zeros((m1, m1), dtype=np.clongdouble)
    E[-1, 0] = (-1.0) ** (st.M + 1)
    B = c_matrix(xi, eta, -1.0) + s * E
    A = np.outer(x, y)
    dA = np.outer(dx, y) + np.outer(x, dy)
    minors = [abs(A[i, k] * A[j, l] - A[i, l] * A[j, k])
              for i in range(m1) for j in range(i + 1, m1)
              for k in range(m1) for l in range(k + 1, m1)]
    ref = {"schlesinger_A": rel(s * dA, B @ A - A @ B),
           "schlesinger_C": rel(c_matrix(dxi, deta, 0.0), E @ A - A @ E),
           "rank_one": max(minors) / np.max(np.abs(A)) ** 2}
    if st.M == 1:
        e1, a = st.params.e[0], st.params.nu[1]
        (x0, x1), (y0, y1) = st.x, st.y
        t1, t2 = s ** (-e1) * y0, s ** e1 * x0
        ref["fold_x1"] = abs(x1 + t1) / max(abs(x1), abs(t1))
        ref["fold_y1"] = abs(y1 - t2) / max(abs(y1), abs(t2))
        # the classical hard-edge system at t = 4s, d/dt = (1/4) d/ds
        t = 4.0 * s
        q = -1j * s ** (a / 2) * x0
        p = -1j * s ** (-a / 2) * y0 + 0.5 * a * q
        u, v = -4.0 * st.eta[0], -4.0 * st.xi[0] - 2.0 * a * st.eta[0]
        dq = (-0.5j * a * s ** (a / 2 - 1) * x0 - 1j * s ** (a / 2) * dx[0]) / 4
        dp = (0.5j * a * s ** (-a / 2 - 1) * y0
              - 1j * s ** (-a / 2) * dy[0]) / 4 + 0.5 * a * dq
        du, dv = -deta[0], -dxi[0] - 0.5 * a * deta[0]
        rels = {"tw_tq2": [t * q * q, -u * u / 4, -u, -2 * v],
                "tw_u": [u, -4 * p * p, (a * a - t + 2 * v) * q * q,
                         -2 * q * p * u],
                "tw_du": [du, -q * q],
                "tw_dv": [dv, -q * p],
                "tw_dq": [t * dq, -p, -q * u / 4],
                "tw_dp": [t * dp, -(a * a / 4 - t / 4 + v / 2) * q, p * u / 4]}
        for name, terms in rels.items():
            ref[name] = abs(sum(terms)) / max(abs(z) for z in terms)
    return ref


def test_structural_residuals_match_matrix_reference(params_m2, traj_m1,
                                                     traj_m2):
    launch = flow.launch_state(params_m2, 1e-5)
    for st in [launch] + traj_m1.states + traj_m2.states:
        got, ref = flow.structural_residuals(st), _structural_reference(st)
        assert got.keys() == ref.keys()
        for name, value in ref.items():
            assert abs(got[name] - value) <= 1e-15, (st.s, name)


def test_tracy_widom_rejected_for_m2(traj_m2):
    r = flow.structural_residuals(traj_m2.states[0])
    assert not any(k.startswith("tw_") for k in r)


def _per_state(st):
    return (flow.first_integral_residuals(st), flow.structural_residuals(st),
            b"".join(a.tobytes() for a in flow.rhs(st)))


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_pass_rows_match_states_evaluated_alone(nu):
    # each per-state result read off the trajectory's pass, the launch row
    # included, is bit for bit that of a copy of the state outside any pass,
    # evaluated as a one-row pass of its own
    params = HardEdgeParams.from_nu(nu)
    traj = flow.integrate(params, 1e-5, _PIN_GRID)
    p = traj.states[0]._pass
    assert all(st._pass is p and st.u.base is p.u for st in traj.states)
    for st in traj.states:
        alone = dataclasses.replace(st, u=st.u.copy())
        assert alone._pass is None
        assert repr(_per_state(st)) == repr(_per_state(alone))
    # a trajectory's states are read-only; a nudged copy reads its new values
    st = traj.states[5]
    with pytest.raises(ValueError, match="read-only"):
        st.eta[0] += 1e-6
    nudged = dataclasses.replace(st, u=st.u.copy())
    before = _per_state(nudged)
    nudged.eta[0] += 1e-6
    after = _per_state(nudged)
    assert repr(after) != repr(before)
    assert repr(after) == repr(
        _per_state(dataclasses.replace(nudged, u=nudged.u.copy())))


def test_pass_bound_states_refuse_reassignment():
    # a trajectory's state reads its pass row's cached results, so a new s,
    # params or u would be read with the old values: each is refused by name
    params = HardEdgeParams.from_nu((0.0, 0.0))
    traj = flow.integrate(params, 1e-5, [1e-4, 0.5])
    st = traj.states[1]
    for name, value in (("s", 0.0), ("params", params), ("u", st.u.copy())):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"'{name}'"):
            setattr(st, name, value)
    assert st.s == 1e-4 and st.u.base is st._pass.u
    # free states stay assignable and read their new values
    for free in (flow.launch_state(params, 1e-4), dataclasses.replace(st)):
        free.s = 0.0
        with pytest.raises(ValueError, match="singular at s = 0"):
            flow.rhs(free)


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_trajectory_freed_by_reference_counting(nu):
    # the pass holds none of its states: with the cycle collector off, the
    # last reference to a trajectory takes its pass with it
    traj = flow.integrate(HardEdgeParams.from_nu(nu), 1e-5, [1e-4, 0.5])
    flow.first_integral_residuals(traj.states[1])
    gc.disable()
    try:
        ref = weakref.ref(traj.states[0]._pass)
        del traj
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("case", ["m1", "m2-special"])
def test_integrate_and_verify_evaluate_each_state_once(case, monkeypatch):
    # the first integrals run on the launch row alone (the launch gate) and
    # on every row of the trajectory's pass (its gate), the structural
    # residuals and the right-hand sides once on every row; at M=2 the eta_0
    # jets too, which verify's jet checks and appendix_recover both read.
    # verify and the CSV only read rows
    rows = {name: [] for name in ("_first_integrals", "_structural",
                                  "_derivatives", "_jets")}
    for name, calls in rows.items():
        def counted(p, evaluator=getattr(flow, name), calls=calls):
            calls.append(len(p.s))
            return evaluator(p)
        monkeypatch.setattr(flow, name, counted)
    traj = integrate_case(case)
    verify(traj)
    flow.trajectory_csv(traj)
    n = len(traj.states)
    assert rows == {"_first_integrals": [1, n], "_structural": [n],
                    "_derivatives": [n], "_jets": [n] if case != "m1" else []}


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
    with pytest.raises(ValueError, match=r"^the resolvent jet is defined for "
                                         r"M=2$"):
        flow.eta_derivatives(traj_m1.states[0])


def test_eta_derivatives_refusals_keep_their_texts(params_m2):
    # a row the jet refuses raises its own text, as a ValueError, each time
    # it is read: eta_0' = -x0 y2 vanishes with x0, and a state off the
    # physical branch keeps the right-hand side's refusal
    st = flow.launch_state(params_m2, 1e-5)
    st.x[0] = 0.0
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^eta_0' vanished; the jet is "
                                             r"undefined$"):
            flow.eta_derivatives(st)
    st.xi[1] += 1e-3j
    with pytest.raises(ValueError, match=r"^off the physical branch: "
                                         r"Im xi1 = 0.001, not 0$"):
        flow.eta_derivatives(st)


# ---------------------------------------------------------------------------
# gap probability via the tau formula
# ---------------------------------------------------------------------------

def test_gap_small_interval_limit(params_m2):
    st = flow.launch_state(params_m2, 1e-6)
    assert math.exp(st.u[-2]) == pytest.approx(1.0, abs=1e-2)


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


@pytest.mark.parametrize("nu", [(0.0, 0.0), (0.0, -0.5, 0.0)],
                         ids=["m1", "m2"])
def test_state_is_one_row_of_the_stepper(nu):
    # x, y, xi, eta are complex views of the stepper's vector u: a write to
    # a copy's eta shows in its u and in rhs; log_gap and each CSV row read
    # u as it is
    params = HardEdgeParams.from_nu(nu)
    traj = flow.integrate(params, 1e-5, [1e-4, 0.5, 2.0])
    m1 = params.M + 1
    for i, st in enumerate(traj.states):
        assert traj.log_gap[i] == st.u[-2]
        assert type(traj.log_gap[i]) is float
        assert all(a.dtype == complex for a in (st.x, st.y, st.xi, st.eta))
    residuals = traj.first_integrals()
    names = sorted(residuals[0])
    rows = flow.trajectory_csv(traj).splitlines()[1:]
    assert len(rows) == len(traj.states)
    for row, st, res in zip(rows, traj.states, residuals):
        want = [st.s, *st.u[:-2], st.u[-2], *(res[r] for r in names)]
        assert row == ",".join(f"{v:.17g}" for v in want)
    st = dataclasses.replace(traj.states[2], u=traj.states[2].u.copy())
    before = np.array(flow.rhs(st)[1])
    eta_slot = 2 * 3 * m1                  # Re eta_0 in u
    u0 = st.u[eta_slot]
    st.eta[0] += 0.25
    assert st.u[eta_slot] == u0 + 0.25
    assert flow.HamiltonianState(st.s, st.u, params).eta[0] == st.eta[0]
    # eta_0 enters dy_0/ds as eta_0 y_0 / s
    assert np.array_equal(flow.rhs(st)[1][1:], before[1:])
    assert flow.rhs(st)[1][0] == pytest.approx(
        before[0] + 0.25 * st.y[0] / st.s, rel=1e-12)


def test_trajectory_s0_is_the_launch_abscissa(traj_m2):
    later = dataclasses.replace(traj_m2, states=traj_m2.states[2:])
    assert later.log_gap == traj_m2.log_gap[2:]
    assert later.s0 == later.states[0].s == traj_m2.states[2].s
    assert traj_m2.s0 == traj_m2.states[0].s


def test_trajectory_begins_with_launch_state(traj_m2):
    st0 = flow.launch_state(traj_m2.params, traj_m2.s0)
    first = traj_m2.states[0]
    assert first.s == traj_m2.s0
    assert np.array_equal(first.x, st0.x)
    assert np.array_equal(first.eta, st0.eta)
    abscissas = [st.s for st in traj_m2.states]
    assert all(b > a for a, b in zip(abscissas, abscissas[1:]))
