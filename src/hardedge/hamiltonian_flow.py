"""Integration of the coupled Hamiltonian ODE systems behind the gap law.

For one or two matrix factors the gap probability satisfies
``E_M(0;(0,s)) = exp( int_0^s eta_0(t)/t dt )`` where eta_0 rides along a
system of 4(M+1) coupled first-order ODEs in the variables
(x_m, y_m, xi_m, eta_m).  This module launches that system near s = 0 (from
the closed form at M=1, nu=(0,0), and from small-s eta_0 series at M=2),
integrates it with an adaptive embedded Runge-Kutta pair (scipy's DOP853,
whose module is loaded at the first integration, not at import) in complex
arithmetic, and monitors every first integral and structural identity
(folding, Schlesinger consistency, the Tracy-Widom map) along the
trajectory.

At M=2 launching is the delicate part: the state is built from a small-s
jet of eta_0 through the recovery relations, so every integral of motion
holds at the launch point to roundoff and stays flat along the flow.  The
x/y gauge (x -> lam x, y -> y/lam is a symmetry) is pinned by the boundary
behaviour of the decoupling factor G = x_0/y_2; its printed expansion is
leading-order only, so gauge-sensitive quantities carry an O(sqrt(s0))
offset that no invariant or gap quantity sees.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .kernels import HardEdgeParams
from .special_functions import gamma_real
from . import sigma_forms
from .sigma_forms import ResolventJet

__all__ = [
    "HamiltonianState",
    "Trajectory",
    "SchlesingerView",
    "FlowError",
    "launch_state",
    "rhs",
    "integrate",
    "first_integral_residuals",
    "structural_residuals",
    "schlesinger_view",
    "eta_derivatives",
    "trajectory_csv",
]

_TOL_MIN, _TOL_MAX = 1e-12, 1e-6


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported at the first integration.

    Importing hardedge does not load scipy.integrate, which no Fredholm or
    Monte Carlo call needs; on a 2-vCPU x86-64 VM it adds 23 MB resident and
    0.3-0.5 s to the import.
    """
    from scipy.integrate import solve_ivp as _solve_ivp
    return _solve_ivp(*args, **kwargs)


class FlowError(RuntimeError):
    """Integration or launch failure, with the offending quantity named."""


@dataclass
class HamiltonianState:
    """Phase-space point of the coupled system at abscissa s.

    x, y, xi, eta are complex arrays of length M+1.  On the physical branch
    x and y are purely imaginary while xi and eta are real; imaginary leakage
    into xi/eta doubles as an integration sanity check.
    """

    M: int
    s: float
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    eta: np.ndarray
    params: HardEdgeParams

    def pack(self, aux: float = 0.0) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.xi, self.eta,
                               [complex(aux)]])

    @classmethod
    def unpack(cls, params: HardEdgeParams, s: float, vec: np.ndarray):
        m1 = params.M + 1
        state = cls(M=params.M, s=float(s), x=vec[:m1].copy(),
                    y=vec[m1:2 * m1].copy(), xi=vec[2 * m1:3 * m1].copy(),
                    eta=vec[3 * m1:4 * m1].copy(), params=params)
        return state, float(vec[4 * m1].real)


@dataclass
class Trajectory:
    """States at the launch point and the requested output abscissas.

    states[0] is the launch state at s0; loghead is int_0^{s0} eta_0/t dt
    from the launch series, and log_gap[i] is the full integral up to
    states[i].s, so E = exp(log_gap[i]).
    """

    params: HardEdgeParams
    s0: float
    states: list
    log_gap: list
    tol: float
    loghead: float


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _rhs_m1(s, v):
    x0, x1, y0, y1, xi0, xi1, eta0, eta1, _ = v
    return np.array([
        (-eta0 * x0 - x1) / s,
        (-eta1 * x0 + s * x0 + xi0 * x0 + xi1 * x1) / s,
        (-xi0 * y1 - s * y1 + eta0 * y0 + eta1 * y1) / s,
        (-xi1 * y1 + y0) / s,
        x0 * y0,
        x0 * y1,
        x0 * y1,
        x1 * y1,
        eta0 / s,
    ])


def _rhs_m2(s, v):
    x0, x1, x2, y0, y1, y2, xi0, xi1, xi2, eta0, eta1, eta2, _ = v
    return np.array([
        (-eta0 * x0 - x1) / s,
        (-eta1 * x0 - x2) / s,
        (-eta2 * x0 - s * x0 + xi0 * x0 + xi1 * x1 + xi2 * x2) / s,
        (-xi0 * y2 + s * y2 + eta0 * y0 + eta1 * y1 + eta2 * y2) / s,
        (-xi1 * y2 + y0) / s,
        (-xi2 * y2 + y1) / s,
        -x0 * y0,
        -x0 * y1,
        -x0 * y2,
        -x0 * y2,
        -x1 * y2,
        -x2 * y2,
        eta0 / s,
    ])


def rhs(state: HamiltonianState):
    """(dx/ds, dy/ds, dxi/ds, deta/ds) at the state's abscissa."""
    if state.s <= 0:
        raise ValueError("the system is singular at s = 0")
    fn = _rhs_m1 if state.M == 1 else _rhs_m2
    d = fn(state.s, state.pack())
    m1 = state.M + 1
    return d[:m1], d[m1:2 * m1], d[2 * m1:3 * m1], d[3 * m1:4 * m1]


# ---------------------------------------------------------------------------
# launch data
# ---------------------------------------------------------------------------

def _m2_series_jet(params: HardEdgeParams, s: float):
    """(jet, loghead) for M=2 from the best available small-s series."""
    if tuple(params.nu) == sigma_forms.SPECIAL_NU:
        terms = sigma_forms.SPECIAL_ETA0_TERMS
    else:
        n0, n1, n2 = params.nu
        a1, a2 = n1 - n0, n2 - n0
        cA = -gamma_real(n2 - n1) / (gamma_real(a1 + 2) * gamma_real(a1 + 1)
                                     * gamma_real(a2 + 1))
        cB = -gamma_real(n1 - n2) / (gamma_real(a1 + 1) * gamma_real(a2 + 2)
                                     * gamma_real(a2 + 1))
        terms = ((cA, a1 + 1.0), (cB, a2 + 1.0))
    return sigma_forms.eta0_power_series(terms, s)


def launch_state(params: HardEdgeParams, s0: float):
    """(state, loghead): the most accurate available launch at s0.

    M=1 at nu=(0,0) uses the exact closed-form trajectory; every other M=1
    index set is refused, since no launch for it is certified yet.  M=2
    builds the state from the eta_0 jet through the recovery relations, so
    all integrals of motion hold at launch to roundoff; the special index set
    (0, -1/2, 0) gets the six-term series, anything else the leading one.
    M=2 with integer nu_2 - nu_1 is refused, since the jet has Gamma poles
    there, and an index set whose jet or gauge split fails is refused with
    the failing quantity named.
    """
    nu = params.nu
    if params.M == 1:
        if nu != (0.0, 0.0):
            raise FlowError(
                f"no certified M=1 launch at nu_1={nu[1]:g}: only nu=(0,0) "
                "launches (a Fredholm-data launch is ROADMAP item 3)")
        s = s0
        state = HamiltonianState(
            M=1, s=s, x=np.array([1j, 1j * s]),
            y=np.array([-1j * s, 1j]),
            xi=np.array([s * s / 2, -s], dtype=complex),
            eta=np.array([-s, -s * s / 2], dtype=complex),
            params=params)
        return state, -s0
    if not params.generic:
        raise FlowError(
            f"no M=2 launch at integer nu_2 - nu_1 = {nu[2] - nu[1]:g}: the "
            "series launch needs nu_2 - nu_1 off the integers")
    n0, n1, n2 = nu
    try:
        d, loghead = _m2_series_jet(params, s0)
        g_inv = (-gamma_real(n2 - n1) * gamma_real(n2 - n0 + 1) * s0 ** (n1 + n0)
                 - gamma_real(n1 - n2) * gamma_real(n1 - n0 + 1) * s0 ** (n2 + n0))
        x, y, xi, eta = sigma_forms.state_arrays_from_jet(s0, d, params, g_inv)
    except ValueError as exc:
        raise FlowError(f"no M=2 launch at nu=({n0:g}, {n1:g}, {n2:g}): "
                        f"{exc}") from exc
    state = HamiltonianState(M=2, s=s0, x=x, y=y, xi=xi, eta=eta,
                             params=params)
    return state, loghead


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate(params: HardEdgeParams, s0: float, s_targets,
              tol: float = 1e-10) -> Trajectory:
    """Adaptive integration with output at s_targets (strictly increasing).

    The running integral of eta_0/t is carried as an extra state component so
    the gap probability needs no post-hoc quadrature.  If the first-integral
    drift at any output exceeds 100*tol the run is retried at tol/10 (twice)
    before giving up with the offending integral named.
    """
    s_targets = [float(t) for t in s_targets]
    if not s_targets:
        raise ValueError("s_targets is empty")
    if any(b <= a for a, b in zip(s_targets, s_targets[1:])):
        raise ValueError("s_targets must be strictly increasing")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}]")
    if s0 >= s_targets[0]:
        raise ValueError("s0 must precede the first target")
    state0, loghead = launch_state(params, s0)

    fn = _rhs_m1 if params.M == 1 else _rhs_m2

    def rhs_real(s, u):
        return fn(s, u.view(complex)).view(float)

    v0 = state0.pack(aux=loghead).view(float)
    attempt_tol = tol
    for _ in range(3):
        states, log_gap = _run_segments(rhs_real, params, s0, s_targets,
                                        v0, attempt_tol)
        states = [state0] + states
        log_gap = [loghead] + log_gap
        worst_name, worst = _worst_integral(states)
        if worst <= 100.0 * tol:
            return Trajectory(params=params, s0=s0, states=states,
                              log_gap=log_gap, tol=attempt_tol,
                              loghead=loghead)
        attempt_tol /= 10.0
        if attempt_tol < _TOL_MIN:
            break
    raise FlowError(f"first-integral blow-up: {worst_name} reached {worst:.3e}")


# the physical solution is dynamically unstable: state errors injected at
# small s amplify by ~1e3-1e4 toward s ~ 5, so early segments run at a
# correspondingly tighter tolerance (cheap: they cover few decades)
_GRADE_EDGES = (0.1, 2.0)
_GRADE_FACTORS = (1e-4, 1e-2, 1.0)


def _segment_tol(tol: float, seg_end: float) -> float:
    for edge, factor in zip(_GRADE_EDGES, _GRADE_FACTORS):
        if seg_end <= edge:
            return max(tol * factor, _TOL_MIN * 0.1)
    return max(tol, _TOL_MIN * 0.1)


def _run_segments(rhs_real, params, s0, s_targets, v0, tol):
    ends = [e for e in _GRADE_EDGES if s0 < e < s_targets[-1]]
    ends.append(s_targets[-1])
    states, log_gap = [], []
    v, s_cur = v0, s0
    for seg_end in ends:
        t_eval = [t for t in s_targets if s_cur < t < seg_end]
        sol = solve_ivp(rhs_real, (s_cur, seg_end), v, method="DOP853",
                        rtol=_segment_tol(tol, seg_end),
                        atol=_segment_tol(tol, seg_end) * 1e-2,
                        t_eval=t_eval + [seg_end])
        if not sol.success:
            raise FlowError(f"integrator failed: {sol.message}")
        for i, s in enumerate(sol.t):
            if s in s_targets:
                vec = np.ascontiguousarray(sol.y[:, i]).view(complex)
                st, aux = HamiltonianState.unpack(params, s, vec)
                states.append(st)
                log_gap.append(aux)
        v = np.ascontiguousarray(sol.y[:, -1])
        s_cur = seg_end
    return states, log_gap


def _worst_integral(states) -> tuple:
    worst_name, worst = "", 0.0
    for st in states:
        for name, val in first_integral_residuals(st).items():
            if val > worst:
                worst_name, worst = f"{name}@s={st.s:g}", val
    return worst_name, worst


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------

def _norm_residual(terms) -> float:
    terms = np.asarray(terms, dtype=complex)
    scale = float(np.max(np.abs(terms)))
    return float(abs(terms.sum()) / scale) if scale > 0 else 0.0


def first_integral_residuals(state: HamiltonianState) -> dict:
    """Every integral of motion, evaluated verbatim and scale-normalized."""
    s = state.s
    e = state.params.e
    x, y, xi, eta = state.x, state.y, state.xi, state.eta
    out = {}
    if state.M == 1:
        e1, e2 = e
        x0, x1 = x
        y0, y1 = y
        xi0, xi1 = xi
        eta0, eta1 = eta
        out["first_integral"] = _norm_residual([xi1, -eta0, e1])
        out["trace_C"] = _norm_residual([-eta0, xi1, e1])
        out["trace_A"] = _norm_residual([x0 * y0, x1 * y1])
        out["second_integral"] = _norm_residual([eta1, xi0, -e2])
        out["fourth_integral"] = _norm_residual(
            [s * x0 * y1, eta0 * xi1, -eta0, -xi0, eta1, e2])
        out["energy"] = _norm_residual(
            [eta0 * x0 * y0, (eta1 - xi0 - s) * x0 * y1, x1 * y0,
             -xi1 * x1 * y1, eta0])
    else:
        e1, e2, e3 = e
        x0, x1, x2 = x
        y0, y1, y2 = y
        xi0, xi1, xi2 = xi
        eta0, eta1, eta2 = eta
        out["energy"] = _norm_residual(
            [eta0 * x0 * y0, eta1 * x0 * y1, (-xi0 + eta2 + s) * x0 * y2,
             x1 * y0, x2 * y1, -xi1 * x1 * y2, -xi2 * x2 * y2, eta0])
        out["first_integral"] = _norm_residual([xi2, -eta0, e1])
        out["trace_C"] = _norm_residual([-eta0, xi2, e1])
        out["fourth_integral"] = _norm_residual(
            [s * x0 * y2, -eta0 * xi2, -eta1, xi1, -e2, eta0])
        out["trace_A"] = _norm_residual([x0 * y0, x1 * y1, x2 * y2])
        out["fifth_integral"] = _norm_residual(
            [-3 * e3, e2 * (e1 + eta0 - 1), -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (2 * e1 - 1) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             s * x0 * y2 * (-2 * eta0 + xi2 + 2), s * x1 * y2, -3 * (eta2 + xi0)])
        out["sixth_integral"] = _norm_residual(
            [3 * e3, e2 * (-2 * e1 + eta0 - 4), eta0 * (e1 - eta0 + 1) * (2 * e1 - eta0 + 2),
             (-e1 - 1) * eta1, (2 * e1 - 3 * eta0 + 4) * xi1, 2 * s * x0 * y1,
             s * x0 * y2 * (2 * e1 - eta0 + 2), s * x1 * y2, 3 * xi0])
        out["seventh_integral"] = _norm_residual(
            [e2 * (e1 + eta0 - 1), -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (-e1 + 3 * eta0 - 4) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             -s * x0 * y2 * (e1 + eta0 - 2), -2 * s * x1 * y2, 3 * eta2])
        out["eighth_integral"] = _norm_residual(
            [e3, xi0, -eta2, -eta0 * xi1, -xi2 * eta1, -x2 * y0, eta0 * x2 * y1,
             -xi2 * x1 * y0, eta0 * xi2 * x1 * y1, -xi1 * x0 * y0,
             (xi0 - eta2 - xi2 * eta1) * x0 * y1, xi1 * eta1 * x0 * y2,
             (xi0 - eta2 - eta0 * xi1) * x1 * y2, eta1 * x2 * y2])
        out["alt_sx1y2"] = _norm_residual(
            [e3, -s * x1 * y2, 2 * eta2, xi0, -eta1, eta1 * xi2])
        out["alt_sx0y1"] = _norm_residual(
            [e2, -2 * e3, -s * x0 * y1, -eta2, -2 * xi0, -xi1, eta0 * xi1])
    mags = np.concatenate([xi, eta])
    out["imag_leakage"] = float(np.max(
        np.abs(mags.imag) / (1.0 + np.abs(mags))))
    return out


@dataclass(frozen=True)
class SchlesingerView:
    """The matrices (E, C, A) of the associated linear problem at a state."""

    E_mat: np.ndarray
    C_mat: np.ndarray
    A_mat: np.ndarray


def schlesinger_view(state: HamiltonianState) -> SchlesingerView:
    m1 = state.M + 1
    sign = 1.0 if state.M == 1 else -1.0   # (-1)^(M+1) on the corner entry
    E = np.zeros((m1, m1), dtype=complex)
    E[m1 - 1, 0] = sign
    C = np.zeros((m1, m1), dtype=complex)
    for i in range(m1 - 1):
        C[i, 0] = -state.eta[i]
        C[i, i + 1] = -1.0
    C[m1 - 1, 0] = state.xi[0] - state.eta[m1 - 1]
    C[m1 - 1, 1:] = state.xi[1:]
    A = np.outer(state.x, state.y)
    return SchlesingerView(E_mat=E, C_mat=C, A_mat=A)


def structural_residuals(state: HamiltonianState) -> dict:
    """Folding (M=1), Schlesinger consistency, rank-one A, Tracy-Widom map."""
    out = {}
    s = state.s
    view = schlesinger_view(state)
    E, C, A = view.E_mat, view.C_mat, view.A_mat
    dx, dy, dxi, deta = rhs(state)
    m1 = state.M + 1
    Aprime = np.outer(dx, state.y) + np.outer(state.x, dy)
    Cprime = np.zeros((m1, m1), dtype=complex)
    for i in range(m1 - 1):
        Cprime[i, 0] = -deta[i]
    Cprime[m1 - 1, 0] = dxi[0] - deta[m1 - 1]
    Cprime[m1 - 1, 1:] = dxi[1:]
    comm1 = (C + s * E) @ A - A @ (C + s * E)
    res1 = s * Aprime - comm1
    scale1 = max(np.max(np.abs(comm1)), np.max(np.abs(s * Aprime)), 1e-300)
    out["schlesinger_A"] = float(np.max(np.abs(res1)) / scale1)
    comm2 = E @ A - A @ E
    res2 = Cprime - comm2
    scale2 = max(np.max(np.abs(comm2)), np.max(np.abs(Cprime)), 1e-300)
    out["schlesinger_C"] = float(np.max(np.abs(res2)) / scale2)
    # rank-one property of A: all 2x2 minors vanish
    minor_max = 0.0
    scaleA = np.max(np.abs(A)) ** 2
    for i in range(m1):
        for j in range(i + 1, m1):
            for k in range(m1):
                for l in range(k + 1, m1):
                    minor_max = max(minor_max, abs(A[i, k] * A[j, l]
                                                   - A[i, l] * A[j, k]))
    out["rank_one"] = float(minor_max / scaleA)

    if state.M == 1:
        e1 = state.params.e[0]
        x0, x1 = state.x
        y0, y1 = state.y
        t1 = s ** (-e1) * y0
        out["fold_x1"] = float(abs(x1 + t1) / max(abs(x1), abs(t1), 1e-300))
        t2 = s ** e1 * x0
        out["fold_y1"] = float(abs(y1 - t2) / max(abs(y1), abs(t2), 1e-300))
        if state.params.nu[0] == 0.0:
            out.update(_tracy_widom_residuals(state, dx, dy, dxi, deta))
    return out


def _tracy_widom_residuals(state, dx, dy, dxi, deta) -> dict:
    """The six relations of the classical hard-edge system at t = 4s.

    Variables: q = -i s^(a/2) x0, p = -i s^(-a/2) y0 + (a/2) q, u = -4 eta_0,
    v = -4 xi_0 + (a/2) u, with a = nu_1.
    """
    s = state.s
    a = state.params.nu[1]
    t = 4.0 * s
    x0, y0 = state.x[0], state.y[0]
    q = -1j * s ** (a / 2) * x0
    p = -1j * s ** (-a / 2) * y0 + 0.5 * a * q
    u = -4.0 * state.eta[0]
    v = -4.0 * state.xi[0] + 0.5 * a * u
    # d/dt = (1/4) d/ds
    dq = (-1j * (0.5 * a) * s ** (a / 2 - 1) * x0 - 1j * s ** (a / 2) * dx[0]) / 4
    dp = ((-1j * (-0.5 * a) * s ** (-a / 2 - 1) * y0
           - 1j * s ** (-a / 2) * dy[0]) / 4 + 0.5 * a * dq)
    du = -deta[0]
    dv = -dxi[0] + 0.5 * a * du
    rels = {
        "tw_tq2": [t * q * q, -u * u / 4, -u, -2 * v],
        "tw_u": [u, -4 * p * p, (a * a - t + 2 * v) * q * q, -2 * q * p * u],
        "tw_du": [du, -q * q],
        "tw_dv": [dv, -q * p],
        "tw_dq": [t * dq, -p, -q * u / 4],
        "tw_dp": [t * dp, -(a * a / 4 - t / 4 + v / 2) * q, p * u / 4],
    }
    return {k: _norm_residual(terms) for k, terms in rels.items()}


# ---------------------------------------------------------------------------
# the eta_0 jet
# ---------------------------------------------------------------------------

def eta_derivatives(state: HamiltonianState) -> ResolventJet:
    """eta_0 derivatives through order four, analytically from the flow.

    Differentiation never touches finite differences: the second derivatives
    of x_0, y_2 come from differentiating their own equations of motion; the
    fourth eta_0 derivative from the identity tying it to U, V, W, Z.
    """
    if state.M != 2:
        raise ValueError("the resolvent jet is defined for M=2")
    s = state.s
    e1, e2, _ = state.params.e
    x0, x1, x2 = state.x
    y0, y1, y2 = state.y
    xi1, xi2 = state.xi[1], state.xi[2]
    eta0, eta1 = state.eta[0], state.eta[1]
    d1c = -x0 * y2
    if d1c == 0:
        raise ValueError("eta_0' vanished; the jet is undefined")
    dx0 = (-eta0 * x0 - x1) / s
    dx1 = (-eta1 * x0 - x2) / s
    dy2 = (-xi2 * y2 + y1) / s
    dy1 = (-xi1 * y2 + y0) / s
    deta0 = -x0 * y2
    dxi2 = -x0 * y2
    ddx0 = (-deta0 * x0 - eta0 * dx0 - dx1 - dx0) / s
    ddy2 = (-dxi2 * y2 - xi2 * dy2 + dy1 - dy2) / s
    U = s * x0 * dy2
    V = s * dx0 * y2
    W = s ** 2 * x0 * ddy2
    Z = s ** 2 * ddx0 * y2
    d2c = -(U + V) / s
    d3c = (2 * U * V / d1c - (W + Z)) / s ** 2
    d4c = (3 * (U * Z + V * W) / d1c + 3 * (W + Z) - e1 * (W - Z)
           + (1 + e2 - eta0 + 6 * s * d1c) * (U + V) - e1 * (U - V)
           - 2 * s * d1c ** 2) / s ** 3
    d = (float(eta0.real), float(d1c.real), float(d2c.real),
         float(d3c.real), float(d4c.real))
    F = sigma_forms.radical_F(s, d, e1, e2)
    return ResolventJet(s=s, d=d, F=F, U=float(U.real), V=float(V.real),
                        W=float(W.real), Z=float(Z.real),
                        G=float((x0 / y2).real), params=state.params)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: s, Re/Im of every variable, logE, residual columns."""
    m1 = traj.params.M + 1
    names = ([f"x{m}" for m in range(m1)] + [f"y{m}" for m in range(m1)]
             + [f"xi{m}" for m in range(m1)] + [f"eta{m}" for m in range(m1)])
    res_names = sorted(first_integral_residuals(traj.states[0]))
    buf = io.StringIO()
    cols = ["s"] + [f"{p}_{n}" for n in names for p in ("re", "im")] \
        + ["logE"] + [f"res_{r}" for r in res_names]
    buf.write(",".join(cols) + "\n")
    for st, lg in zip(traj.states, traj.log_gap):
        vals = [st.s]
        for arr in (st.x, st.y, st.xi, st.eta):
            for z in arr:
                vals.extend([z.real, z.imag])
        vals.append(lg)
        res = first_integral_residuals(st)
        vals.extend(res[r] for r in res_names)
        buf.write(",".join(f"{v:.17g}" for v in vals) + "\n")
    return buf.getvalue()
