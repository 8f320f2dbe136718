"""Integration of the coupled Hamiltonian ODE systems behind the gap law.

For one or two matrix factors the gap probability satisfies
``E_M(0;(0,s)) = exp( int_0^s eta_0(t)/t dt )`` where eta_0 rides along a
system of 4(M+1) coupled first-order ODEs in the variables
(x_m, y_m, xi_m, eta_m).  This module reads that system's states up to
s = 0.1 off the Nystrom resolvent, integrates it past 0.1 with Hairer's
DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.10), the compiled
8(5,3) embedded Runge-Kutta code in scipy's extension file
``scipy/integrate/_dop``, loaded from that file without the
``scipy.integrate`` package, one leg to each output abscissa, a leg starting
from the largest step of a long leg before it (see ``solve_ivp``), and
monitors every first integral and structural identity (folding, Schlesinger
consistency, the Tracy-Widom map) along the trajectory.  A state is one row
of the stepper's output: one real vector with (Re, Im) of x, y, xi, eta and
log E.  On the physical branch x and y are purely imaginary and xi, eta
real; the right-hand sides run on the Python float parts that branch leaves
nonzero, which cost less per call than complex or numpy scalars, and are
module-level (see ``solve_ivp``).  They read those parts with one struct
unpack and write the derivative into a float64 buffer that each solve owns,
so the stepper's wrapper converts no Python list per stage.

A trajectory's states are read-only rows of one array that its pass
(``_Pass``) owns, built once from the launch row and the output rows: the
first integrals, the structural residuals and the right-hand sides are
evaluated on numpy arrays over all its rows, once per trajectory, and the
per-state functions read their state's row; so is the M=2 eta_0 jet, row by
row, on the same Python float parts as the right-hand sides.  Every state
is a frozen row of a pass: any state not from ``integrate`` (the launch
state, the constructor's, a ``dataclasses.replace`` copy) is the one row of
a pass of its own, over a read-only copy of its vector.  The first integrals
gate the resolvent rows' pass before any integration and the stepped rows'
pass after it; the trajectory's pass joins the two and keeps their results,
so each row's first integrals are evaluated once.

The state at any s is an inner product of the Nystrom resolvent on (0, s),
the Tracy-Widom construction (Tracy & Widom, CMP 163 (1994); Strahov,
arXiv:1403.6368; Bornemann, Math. Comp. 79 (2010)): x and y are i Q(s) and
i P(s), with Q = (I - K)^-1 phi and P = (I - K^T)^-1 psi, and xi, eta are
inner products of Q with psi.  The x/y gauge (x -> lam x, y -> y/lam is a
symmetry) is therefore the resolvent's own.  ``integrate`` takes the launch
state at s0, every state at a target s <= 0.1 and the handover state at
0.1, where DOP853 starts, from one batched resolvent: below 0.1 the sqrt(s)
terms of eta_0 held the stepper to short steps, and the 16-node resolvent
is within 1.2e-12 of the 32-node one there.  Two index sets launch, M=1 at
nu=(0,0) and M=2 at (0, -1/2, 0); every other index set is refused before
any work.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
import operator
import os
import struct
from dataclasses import dataclass, field
from importlib import machinery, util

import numpy as np

from .fredholm import _N_START, _checked_logdet, hardedge_rules
from .kernels import HardEdgeParams, _kernel_from_rows, build_kernel_bundle
from . import sigma_forms
from .sigma_forms import ResolventJet

__all__ = [
    "HamiltonianState",
    "Trajectory",
    "FlowError",
    "launch_state",
    "rhs",
    "integrate",
    "first_integral_residuals",
    "structural_residuals",
    "eta_derivatives",
    "trajectory_csv",
]

_TOL_MIN, _TOL_MAX = 1e-12, 1e-6


# solve_ivp's outcome: y[i] is the state at t_eval[i]
_Solution = collections.namedtuple("_Solution", "y nfev")


# DOP853 stops a leg after this many steps (return code -2); the cap stays
# far above real legs: the longest measured takes 255 steps (3061
# evaluations: M=1 at tol 1e-12, s = 2 to 60, from a carried first step)
_MAX_STEPS = 100_000

# each leg's absolute tolerance, relative to its relative one
_ATOL_RATIO = 1e-2


def solve_ivp(fun, t0, y0, t_eval, rtol):
    """y' = fun(t, y, out) from y(t0) = y0, with output at the increasing t_eval.

    fun writes y' at (t, y) into out, a float64 vector of y0's length, and
    returns out.  Each call of solve_ivp allocates its own out and hands it
    to the stepper with the extra arguments, so no buffer is shared between
    calls or threads (CPython may switch threads between fun's write and
    the stepper's read).  The compiled wrapper converts what fun returns
    into its own array: with fun doing nothing else, a returned 18-float
    list cost 0.86 us per call against 0.23 us for a float64 array (median
    of 30 runs of 12,038 calls, 2-vCPU VM).

    The stepper is Hairer's DOP853, scipy's compiled ``dopri853`` loaded by
    ``_dop853``, at the step-size limits of scipy's ``solve_ivp`` (growth at
    most 10x, shrink at least 0.2x per step).  It steps to each t_eval[i] in
    turn, one leg at tolerances rtol[i] and rtol[i] * _ATOL_RATIO (absolute),
    so every output ends a step.  A leg starts from the largest step that
    the leg before it accepted (work[6], DOP853's WORK(7)), when that leg
    took three steps or more; the first leg, and one after a leg of one or
    two steps, starts from Hairer's first-step guess HINIT (work[6] = 0;
    Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4).  Measured with the
    legs run from s0 = 1e-5: a fresh guess per leg cost 19,469 evaluations
    per perfbench flow pass, the carried step 16,744.  The legs of one or
    two steps are left out because their steps are only the seed and the
    remainder cut at the leg's end: carrying them froze the step on dense
    grids, where M=1 on 1000 and 8000 geometric points to s=10 took 25,003
    and 142,427 evaluations against 15,792 and 112,028 from fresh guesses.  The legs share one work array: DOP853
    leaves its settings, work[0:21], as they are.

    nfev counts the right-hand-side evaluations of every leg: DOP853's own
    count (NFCN, iwork[16]) less one per leg started from a carried step,
    since DOP853 counts HINIT's evaluation whether or not it calls HINIT.  A
    failed leg raises ``FlowError`` with DOP853's return code.

    iout=1 asks for output after every accepted step, which ``_step_output``
    reads: at iout=0 the compiled code reads its solout flag unset and,
    where that memory holds 2 or more, calls fun once more per step,
    uncounted, as it does when solout returns 2.  The wrapper passes the
    extra arguments to solout too, so out is a view of a buffer two slots
    longer whose first two slots hold solout's record of the leg: the last
    abscissa it saw and the largest step so far.  fun and solout must be
    module-level: the compiled routine keeps every callable it is handed for
    the life of the process (5 of 5 closures stayed alive after
    ``gc.collect()``), so a closure per call would grow memory every pass.
    """
    n = len(y0)
    work = np.zeros(11 * n + 21)
    work[1:4] = (0.9, 0.2, 10.0)        # safety factor, shrink, growth
    iwork = np.zeros(21, np.int32)
    # the compiled code may write into y, so the caller's y0 is copied
    t, y = t0, np.array(y0, dtype=float)
    ys, nfev = np.empty((len(t_eval), n)), 0
    record = np.zeros(n + 2)            # this call's own: solout's, then out
    record[0] = t0
    extra = (record[2:],)
    for i, (t_next, leg_rtol) in enumerate(zip(t_eval, rtol)):
        t, y, code = _dop853()(fun, t, y, t_next, leg_rtol,
                               leg_rtol * _ATOL_RATIO,
                               _step_output, 1, work, iwork, _MAX_STEPS,
                               -1, extra)
        # Hairer's IWORK(17), NFCN, which counts HINIT even when skipped
        nfev += int(iwork[16]) - bool(work[6])
        if code < 0:
            reason = {-1: "input is not consistent", -2: "larger nsteps is needed",
                      -3: "step size becomes too small",
                      -4: "problem is probably stiff (interrupted)"}
            raise FlowError(f"integrator failed: DOP853 return code {code} at "
                            f"t={t:.17g}: {reason.get(code, 'unknown code')}")
        ys[i] = y
        # the next leg's first step; IWORK(19) is the leg's accepted steps
        work[6] = record[1] if iwork[18] >= 3 else 0.0
        record[1] = 0.0
    return _Solution(ys, nfev)


# solout's record, the first two slots of the buffer out views
_unpack_record = struct.Struct("=2d").unpack_from
_pack_record = struct.Struct("=2d").pack_into


def _step_output(x, y, out):
    """Called at a leg's start and after each accepted step, at abscissa x:
    records x and the largest step of the leg so far, and lets DOP853 go on."""
    record = out.base
    last, largest = _unpack_record(record)
    step = x - last
    _pack_record(record, 0, x, step if step > largest else largest)
    return 1


@functools.cache
def _dop853():
    """scipy's compiled dopri853, from its extension file, once per process.

    find_spec locates scipy without importing it, and the module is run on
    its own, not entered in sys.modules: the ``scipy.integrate`` package
    would add ~0.2 s and ~20 MB (scipy.special) to every flow command.
    Without the file (another scipy layout) the ordinary import serves.
    """
    root = util.find_spec("scipy").submodule_search_locations[0]
    for suffix in machinery.EXTENSION_SUFFIXES:
        path = os.path.join(root, "integrate", "_dop" + suffix)
        if os.path.isfile(path):
            spec = util.spec_from_file_location("scipy.integrate._dop", path)
            module = util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.dopri853
    from scipy.integrate._dop import dopri853
    return dopri853


class FlowError(RuntimeError):
    """Integration or launch failure, with the offending quantity named."""


@dataclass(frozen=True, eq=False)
class HamiltonianState:
    """Phase-space point of the coupled system at abscissa s.

    u is the stepper's real vector: (Re, Im) of x, y, xi, eta (M+1 entries
    each), then of log E; x, y, xi, eta are complex views of u.  On the
    physical branch x and y are purely imaginary while xi and eta are real.
    The flow stays on it exactly: its right-hand sides return exact zeros
    for Re x, Re y, Im xi and Im eta, so the imag_leakage monitor reads 0
    by construction.  A state is frozen, row _row of a pass that caches
    every result on the row, and u is a read-only view of the pass's array:
    a state from ``integrate`` is a row of its trajectory's pass, any other
    the one row of its own pass, over a read-only copy of the u it was
    given.  Equality is identity, as the fields hold arrays.
    """

    s: float
    u: np.ndarray
    params: HardEdgeParams
    x: np.ndarray = field(init=False, repr=False)
    y: np.ndarray = field(init=False, repr=False)
    xi: np.ndarray = field(init=False, repr=False)
    eta: np.ndarray = field(init=False, repr=False)
    _pass: "_Pass" = field(init=False, repr=False)
    _row: int = field(init=False, repr=False)

    def __post_init__(self):
        u = np.array([self.u], dtype=float)
        size = 8 * (self.params.M + 1) + 2
        if u.shape != (1, size):
            raise ValueError(f"u holds {u[0].size} floats; M={self.params.M} "
                             f"takes {size}")
        u.setflags(write=False)
        _bind([self], _Pass(self.params, [self.s], u))

    @classmethod
    def _rows_of(cls, p: "_Pass") -> list:
        """The states of pass p's rows, built without ``__init__``."""
        return _bind([object.__new__(cls) for _ in range(len(p.u))], p)

    @property
    def M(self) -> int:
        return self.params.M


def _bind(states, p: "_Pass") -> list:
    """Make states[i] row i of pass p, x, y, xi, eta views of its u."""
    views = p.u.view(complex)[:, :-1].reshape(len(p.u), 4, -1)
    for i, (st, s, row, (x, y, xi, eta)) in enumerate(
            zip(states, p.s.tolist(), p.u, views)):
        st.__dict__.update(s=s, u=row, params=p.params, x=x, y=y, xi=xi,
                           eta=eta, _pass=p, _row=i)
    return states


@dataclass
class Trajectory:
    """States at the launch point and the requested output abscissas.

    states[0] is the launch state at s0; log_gap[i], states[i]'s log-E slot,
    is int_0^s eta_0/t dt up to s = states[i].s, so E = exp(log_gap[i]).
    The states at s <= max(s0, 0.1) are resolvent rows, their log E the
    resolvent's determinant; the later ones are DOP853's.  tol is the
    tolerance integrate was asked for; nfev counts the right-hand-side
    evaluations of the DOP853 legs past 0.1 (0 when no target lies past it).
    """

    params: HardEdgeParams
    states: list
    tol: float
    nfev: int

    def first_integrals(self) -> list:
        """Every state's ``first_integral_residuals``, read off its pass."""
        return [first_integral_residuals(st) for st in self.states]

    @property
    def s0(self) -> float:
        return self.states[0].s

    @property
    def log_gap(self) -> list:
        return [float(st.u[-2]) for st in self.states]


class _Pass:
    """Abscissas s and real vectors u (one row each) evaluated once per evaluator.

    ``rows(evaluator)`` is the list of evaluator(pass)'s per-row results,
    computed at the first ask.  Each state holds its pass; the pass holds
    none of its states, so no reference cycle keeps a trajectory alive past
    its last reader.
    """

    def __init__(self, params, s, u):
        self.params, self.s, self.u = params, np.asarray(s, dtype=float), u
        self._done = {}

    def rows(self, evaluator) -> list:
        if evaluator not in self._done:
            self._done[evaluator] = evaluator(self)
        return self._done[evaluator]

    @classmethod
    def joined(cls, head: "_Pass", k: int, tail: "_Pass") -> "_Pass":
        """The pass of head's first k rows then tail's rows, over one
        read-only array, keeping what both have evaluated: an evaluator's
        result on a row depends on that row alone."""
        u = np.vstack([head.u[:k], tail.u])
        u.setflags(write=False)
        p = cls(head.params, [*head.s[:k].tolist(), *tail.s.tolist()], u)
        for evaluator in head._done.keys() & tail._done.keys():
            p._done[evaluator] = (head._done[evaluator][:k]
                                  + tail._done[evaluator])
        return p


def _read(state, evaluator):
    """evaluator's result on state's row of its pass, or its refusal raised."""
    res = state._pass.rows(evaluator)[state._row]
    if isinstance(res, str):
        raise ValueError(res)
    return res


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

# The steppers' right-hand sides, on a state's real vector u, written into
# the buffer out and returned.  They read the parts the physical branch leaves
# nonzero (Im x, Im y, Re xi, Re eta, Re log E) with one struct unpack and
# write every slot of out with one pack, its pad bytes an exact +0.0 in the
# others, keeping the full layout, as DOP853's error norm averages over every
# component.  The complex formulas in their operation order (-x0 y0 = X0 Y0
# for x = iX, y = iY) on Python floats; "* inv" keeps the rounding of numpy's
# complex-by-real division, "/ s" would not.  Module-level: the stepper's
# wrapper keeps them for good.
def _layout(m1: int):
    """u's nonzero parts (unpack) and the full derivative with +0.0 in the
    other slots (pack), as struct formats over M+1 = m1 entries per field."""
    parts = "8xd" * (2 * m1) + "d8x" * (2 * m1)
    return (struct.Struct("=" + parts + "d").unpack_from,
            struct.Struct("=" + parts + "d8x").pack_into)


_unpack_m1, _pack_m1 = _layout(2)
_unpack_m2, _pack_m2 = _layout(3)


def _rhs_real_m1(s, u, out):
    X0, X1, Y0, Y1, XI0, XI1, E0, E1, _ = _unpack_m1(u)
    inv = 1.0 / s
    _pack_m1(
        out, 0,
        (-E0 * X0 - X1) * inv,
        (-E1 * X0 + s * X0 + XI0 * X0 + XI1 * X1) * inv,
        (-XI0 * Y1 - s * Y1 + E0 * Y0 + E1 * Y1) * inv,
        (-XI1 * Y1 + Y0) * inv,
        -X0 * Y0, -X0 * Y1,
        -X0 * Y1, -X1 * Y1,
        E0 * inv,
    )
    return out


def _rhs_real_m2(s, u, out):
    X0, X1, X2, Y0, Y1, Y2, XI0, XI1, XI2, E0, E1, E2, _ = _unpack_m2(u)
    inv = 1.0 / s
    _pack_m2(
        out, 0,
        (-E0 * X0 - X1) * inv,
        (-E1 * X0 - X2) * inv,
        (-E2 * X0 - s * X0 + XI0 * X0 + XI1 * X1 + XI2 * X2) * inv,
        (-XI0 * Y2 + s * Y2 + E0 * Y0 + E1 * Y1 + E2 * Y2) * inv,
        (-XI1 * Y2 + Y0) * inv,
        (-XI2 * Y2 + Y1) * inv,
        X0 * Y0, X0 * Y1, X0 * Y2,
        X0 * Y2, X1 * Y2, X2 * Y2,
        E0 * inv,
    )
    return out


_RHS = {1: _rhs_real_m1, 2: _rhs_real_m2}


def rhs(state: HamiltonianState):
    """(dx/ds, dy/ds, dxi/ds, deta/ds) at the state's abscissa.

    The steppers' right-hand side on the state's real vector, as complex
    arrays, read off the state's pass.  A state off the physical branch
    (nonzero Re x, Re y, Im xi or Im eta) is refused, not truncated."""
    d = _read(state, _derivatives).view(complex)[:-1].reshape(4, -1)
    return tuple(d.copy())


def _derivatives(p) -> list:
    """The steppers' right-hand side on each row of the pass.

    A row's result is its derivative as a real vector, the row of one array
    that the right-hand side writes into, or the refusal of a
    row at s <= 0 or off the physical branch, naming its first nonzero part.
    """
    m1 = p.params.M + 1
    fn = _RHS[p.params.M]
    z = p.u.view(complex)
    # Re x, Re y, Im xi, Im eta in u's order, zero on the physical branch
    off = np.hstack([z[:, :2 * m1].real, z[:, 2 * m1:-1].imag])
    d = np.empty_like(p.u)
    out = []
    for s, u, row, parts, bad in zip(p.s.tolist(), p.u, d,
                                     off.tolist(), off.any(axis=1).tolist()):
        if s <= 0:
            out.append("the system is singular at s = 0")
        elif bad:
            j = next(j for j, v in enumerate(parts) if v != 0.0)
            name = ("Re x", "Re y", "Im xi", "Im eta")[j // m1]
            out.append(f"off the physical branch: {name}{j % m1} = "
                       f"{parts[j]:g}, not 0")
        else:
            out.append(fn(s, u, row))
    return out


# ---------------------------------------------------------------------------
# launch data
# ---------------------------------------------------------------------------

def launch_state(params: HardEdgeParams, s0: float) -> HamiltonianState:
    """The certified launch state at s0, or a refusal.

    Only nu=(0,0) and (0, -1/2, 0) launch; every other index set and s0 > 1
    is refused with a ``FlowError``, a non-finite s0 or s0 <= 0 with a
    ``ValueError``, each before any work.  The state, log E(s0) in its slot
    u[-2] included, is the one-row case of ``_resolvent_rows`` at
    ``fredholm``'s first node count, so it is bit for bit the row that
    ``integrate`` reads at s0 or at a target s0 <= 0.1.
    """
    _check_launch(params, s0)
    return HamiltonianState(s0, _resolvent_rows(params, [s0], _N_START)[0],
                            params)


def _check_launch(params: HardEdgeParams, s0: float):
    """Refuse an index set without a certified launch or an s0 outside (0, 1]."""
    nu = params.nu
    if nu not in ((0.0, 0.0), sigma_forms.SPECIAL_NU):
        raise FlowError(
            f"no certified launch at nu=({', '.join(f'{v:g}' for v in nu)}): "
            "only nu=(0,0) and (0,-1/2,0) launch (the other nu wait for "
            "ROADMAP item 2, step 2)")
    if not math.isfinite(s0):
        raise ValueError(f"s0 must be finite, got {s0}")
    if s0 <= 0:
        raise ValueError("s0 must be positive: the system is singular at s = 0")
    # gap_probability_hardedge's first node count: 32 nodes move the launch
    # state by at most 1.2e-12 relative at s0 in [1e-8, 1], the range measured
    if not s0 <= 1.0:
        raise FlowError(f"no launch at s0={s0:g}: measured only to s0 = 1")


# _resolvent_rows takes at most this many abscissas per batch.  8000 at once
# held ~30 MB of kernel matrices and bundle values; and past ~190 abscissas
# (3,200 nodes) numpy 2.4's power, inside ``KernelBundle.evaluate``, rounds
# x**2.0 of some nodes differently, so a row would lose the bits of a batch
# of one (176 of 3,264 values moved; none up to 128 abscissas)
_CHUNK = 64


def _resolvent_rows(params: HardEdgeParams, ss, n: int) -> np.ndarray:
    """The real vectors u at every s in ss, log E included, from the n-node
    Nystrom resolvent on (0, s), one row per s.

    Each s has its own ``hardedge_rule``, as in ``gap_probability_hardedge``,
    with the Jacobian in the weights w.  Per batch of at most ``_CHUNK``
    abscissas, one ``evaluate`` of the cached bundle on every s's nodes plus
    s itself gives each K, its row K(s, .) and its column K(., s); the
    kernel matrices, log-determinants and solves then run over a leading
    axis, so a row has the bits of a batch of one.  With A = I - K W at the
    nodes, Q = A^-1 phi and W P = A^-T W psi; Q(s) = phi(s) + K(s, .) W Q,
    P(s) = psi(s) + K(., s)^T W P and U_jk = sum_i w_i Q_j psi_k.  One
    solve per s gives Q and r = A^-1 K(., s), since K(., s)^T W P is
    (W r)^T psi at the nodes.  Then
    x = i Q(s), y = i P(s), eta_m = (-1)^M U_mM, xi_m = (-1)^M U_0m for
    m < M (plus e_2 at M=2, m=1) and xi_M = eta_0 - e_1.  log E is
    ``fredholm_det``'s log det(1 - K) on the rule, and a determinant that
    it would refuse raises its ``FloatingPointError``.
    """
    bundle = build_kernel_bundle(params)
    rows = np.empty((len(ss), 8 * (params.M + 1) + 2))
    for i in range(0, len(ss), _CHUNK):
        rows[i:i + _CHUNK] = _resolvent_batch(bundle, params,
                                              ss[i:i + _CHUNK], n)
    return rows


def _resolvent_batch(bundle, params: HardEdgeParams, ss, n: int) -> np.ndarray:
    """``_resolvent_rows`` on one batch of abscissas ss."""
    b, m = len(ss), params.M
    weights, x, jac = hardedge_rules(n, ss)
    w = weights * jac
    xs = np.hstack([x, np.reshape(ss, (b, 1))])
    phi, dphi, psi = (np.swapaxes(f.reshape(m + 1, b, n + 1), 0, 1)
                      for f in bundle.evaluate(xs.ravel()))
    K = _kernel_from_rows(xs, xs, phi, dphi, psi)
    Kn = K[:, :n, :n]
    # fredholm_det's matrix, in its operation order
    sw = np.sqrt(weights)
    signs, logdets = np.linalg.slogdet(
        np.eye(n) - sw[:, :, None] * (Kn * jac[:, None, :]) * sw[:, None, :])
    refused = (signs <= 0) | ~np.isfinite(logdets)
    for sign, logdet in zip(signs[refused], logdets[refused]):
        _checked_logdet(sign, logdet)      # raises fredholm_det's refusal
    # one solve, A [Q, r] = [phi, K(., s)]: P(s) = psi(s) + psi W r
    A = np.eye(n) - Kn * w[:, None, :]
    wqr = w[:, :, None] * np.linalg.solve(
        A, np.concatenate([np.swapaxes(phi[:, :, :n], 1, 2), K[:, :n, n:]], 2))
    wq = wqr[:, :, :m + 1]
    u = (-1.0) ** m * (np.swapaxes(wq, 1, 2)
                       @ np.swapaxes(psi[:, :, :n], 1, 2))
    xi, eta = u[:, 0].astype(complex), u[:, :, m].astype(complex)
    xi[:, 1:m] += params.e[1]              # M=2 only
    xi[:, m] = eta[:, 0] - params.e[0]
    wr = wqr[:, :, m + 1:]
    z = np.hstack([1j * (phi[:, :, n] + (K[:, n:, :n] @ wq)[:, 0]),
                   1j * (psi[:, :, n] + (psi[:, :, :n] @ wr)[:, :, 0]),
                   xi, eta, logdets[:, None]])
    return z.view(float)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def integrate(params: HardEdgeParams, s0: float, s_targets,
              tol: float = 1e-10) -> Trajectory:
    """The states at s0 and at s_targets (strictly increasing).

    The states at s0 and at every target s <= 0.1 are rows of the Nystrom
    resolvent, from one ``_resolvent_rows`` call that also gives the
    handover row at max(s0, 0.1) when targets lie beyond it; each is
    ``launch_state``'s state at its s, bit for bit.  DOP853 runs only from
    the handover row, in one stepper pass, leg by leg, at tol * 1e-2 to
    s = 2 and tol beyond.  The running integral of eta_0/t is carried as an
    extra state component, so log E past the handover needs no post-hoc
    quadrature.  The states are read-only views of the rows of one
    ``_Pass``: the launch row, then the output rows.  The first-integral
    gate runs twice, with one text: on the resolvent rows' own pass before
    any integration, and on the stepped rows' pass after it; a drift above
    100*tol refuses the trajectory with the offending integral and its
    abscissa named.  The trajectory's pass joins the two passes, keeping
    their first integrals.
    """
    s_targets = [float(t) for t in s_targets]
    if not s_targets:
        raise ValueError("s_targets is empty")
    for t in s_targets:
        if not math.isfinite(t):
            raise ValueError(f"s_targets must be finite, got {t}")
    if any(b <= a for a, b in zip(s_targets, s_targets[1:])):
        raise ValueError("s_targets must be strictly increasing")
    if not (_TOL_MIN <= tol <= _TOL_MAX):
        raise ValueError(f"tol must lie in [{_TOL_MIN}, {_TOL_MAX}]")
    if s0 >= s_targets[0]:
        raise ValueError("s0 must precede the first target")
    _check_launch(params, s0)

    # the resolvent rows: the launch, the targets up to the handover and,
    # when the stepper has legs to run, the handover row it starts from
    handover = max(s0, _HANDOVER)
    near = bisect.bisect_right(s_targets, handover)
    ss = [s0, *s_targets[:near]]
    if near < len(s_targets) and ss[-1] != handover:
        ss.append(handover)
    rows = _resolvent_rows(params, ss, _N_START)
    read = _Pass(params, ss, rows)
    _gate_first_integrals(read, tol)

    # legs end at every target past the handover and at the grade edge
    ends = sorted({*s_targets[near:], *(e for e in _GRADE_EDGES
                                        if handover < e < s_targets[-1])})
    rtol = [max(tol * _GRADE_FACTORS[bisect.bisect_left(_GRADE_EDGES, s)],
                _TOL_MIN * 0.1) for s in ends]
    sol = solve_ivp(_RHS[params.M], ss[-1], rows[-1], ends, rtol)
    targets = set(s_targets)
    stepped = _Pass(params, s_targets[near:],
                    sol.y[[s in targets for s in ends]])
    _gate_first_integrals(stepped, tol)
    p = _Pass.joined(read, 1 + near, stepped)
    return Trajectory(params=params, states=HamiltonianState._rows_of(p),
                      tol=tol, nfev=sol.nfev)


# states up to this abscissa are read off the resolvent; DOP853 starts here.
# Below it the sqrt(s) terms of eta_0 held the stepper to ~37 steps per
# decade at rtol 1e-13, 62-73% of an M=2 trajectory's evaluations
_HANDOVER = 0.1

# the physical solution is dynamically unstable: state errors injected at
# small s amplify by ~1e3-1e4 toward s ~ 5, so the legs to s = 2 run at a
# correspondingly tighter tolerance.  A leg ending at s runs at tol times
# the factor of the first edge >= s
_GRADE_EDGES = (2.0,)
_GRADE_FACTORS = (1e-2, 1.0)


def _gate_first_integrals(p: _Pass, tol: float):
    """Refuse when a first integral of a row of the pass exceeds 100*tol."""
    worst_name, worst = "", 0.0
    for s, res in zip(p.s.tolist(), p.rows(_first_integrals)):
        for name, val in res.items():
            if val > worst:
                worst_name, worst = f"{name}@s={s:g}", val
    if worst > 100.0 * tol:
        raise FlowError(f"first-integral blow-up: {worst_name} reached {worst:.3e}")


# ---------------------------------------------------------------------------
# residual evaluators
# ---------------------------------------------------------------------------

def first_integral_residuals(state: HamiltonianState) -> dict:
    """Every integral of motion, evaluated verbatim and scale-normalized."""
    return dict(_read(state, _first_integrals))


def structural_residuals(state: HamiltonianState) -> dict:
    """Folding (M=1), Schlesinger consistency, rank-one A, Tracy-Widom map."""
    return dict(_read(state, _structural))


# The evaluators below run on a pass's rows: each variable is one complex
# array over the rows, with Python's operation order and rounding.  On the
# physical branch every product has at most one nonzero partial product, so
# numpy's complex arithmetic (fused or not) rounds as Python's does; |z| is
# hypot(Re z, Im z), as Python's abs, and powers are Python's, row by row,
# where numpy's vectorized power rounds differently.

def _parts(u, m: int):
    """x, y, xi, eta of the rows u, each an (M+1) x rows complex array."""
    return u.view(complex)[:, :-1].T.reshape(4, m + 1, -1)


def _abs(z):
    return np.hypot(z.real, z.imag)


def _powers(s, q: float):
    """s**q row by row; nan at s <= 0, a row that ``rhs`` refuses."""
    return np.array([v ** q if v > 0 else math.nan for v in s.tolist()])


def _most(values):
    """Row by row, the largest of the values, as Python's max."""
    return functools.reduce(np.maximum, values)


def _norm_residual_rows(terms):
    """``_norm_residual`` row by row: |sum| over the largest |term|, summed
    left to right, and 0 where every term is 0."""
    total = functools.reduce(operator.add, terms)
    scale = _most(_abs(t) for t in terms)
    return np.divide(_abs(total), scale, out=np.zeros(scale.shape),
                     where=scale != 0)


def _max_residual(pairs):
    """max |a - b| over the (a, b) pairs, relative to the largest |a|, |b|."""
    scale = _most(np.maximum(_abs(a), _abs(b)) for a, b in pairs)
    return _most(_abs(a - b) for a, b in pairs) / np.maximum(scale, 1e-300)


def _dict_rows(columns: dict) -> list:
    """The name -> per-row array mapping as one dict per row."""
    names = list(columns)
    return [dict(zip(names, vals))
            for vals in zip(*(columns[k].tolist() for k in names))]


def _first_integrals(p) -> list:
    """first_integral_residuals of each row of the pass."""
    s = p.s
    e = p.params.e
    x, y, xi, eta = _parts(p.u, p.params.M)
    res = _norm_residual_rows
    out = {}
    if p.params.M == 1:
        e1, e2 = e
        x0, x1 = x
        y0, y1 = y
        xi0, xi1 = xi
        eta0, eta1 = eta
        out["first_integral"] = res([xi1, -eta0, e1])
        out["trace_A"] = res([x0 * y0, x1 * y1])
        out["second_integral"] = res([eta1, xi0, -e2])
        out["fourth_integral"] = res(
            [s * x0 * y1, eta0 * xi1, -eta0, -xi0, eta1, e2])
        out["energy"] = res(
            [eta0 * x0 * y0, (eta1 - xi0 - s) * x0 * y1, x1 * y0,
             -xi1 * x1 * y1, eta0])
    else:
        e1, e2, e3 = e
        x0, x1, x2 = x
        y0, y1, y2 = y
        xi0, xi1, xi2 = xi
        eta0, eta1, eta2 = eta
        out["energy"] = res(
            [eta0 * x0 * y0, eta1 * x0 * y1, (-xi0 + eta2 + s) * x0 * y2,
             x1 * y0, x2 * y1, -xi1 * x1 * y2, -xi2 * x2 * y2, eta0])
        out["first_integral"] = res([xi2, -eta0, e1])
        out["fourth_integral"] = res(
            [s * x0 * y2, -eta0 * xi2, -eta1, xi1, -e2, eta0])
        out["trace_A"] = res([x0 * y0, x1 * y1, x2 * y2])
        out["fifth_integral"] = res(
            [-3 * e3, e2 * (e1 + eta0 - 1), -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (2 * e1 - 1) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             s * x0 * y2 * (-2 * eta0 + xi2 + 2), s * x1 * y2, -3 * (eta2 + xi0)])
        out["sixth_integral"] = res(
            [3 * e3, e2 * (-2 * e1 + eta0 - 4), eta0 * (e1 - eta0 + 1) * (2 * e1 - eta0 + 2),
             (-e1 - 1) * eta1, (2 * e1 - 3 * eta0 + 4) * xi1, 2 * s * x0 * y1,
             s * x0 * y2 * (2 * e1 - eta0 + 2), s * x1 * y2, 3 * xi0])
        out["seventh_integral"] = res(
            [e2 * (e1 + eta0 - 1), -eta0 * (e1 - eta0 + 1) * (e1 + eta0 - 2),
             (-e1 + 3 * eta0 - 4) * eta1, (1 - e1) * xi1, -s * x0 * y1,
             -s * x0 * y2 * (e1 + eta0 - 2), -2 * s * x1 * y2, 3 * eta2])
        out["eighth_integral"] = res(
            [e3, xi0, -eta2, -eta0 * xi1, -xi2 * eta1, -x2 * y0, eta0 * x2 * y1,
             -xi2 * x1 * y0, eta0 * xi2 * x1 * y1, -xi1 * x0 * y0,
             (xi0 - eta2 - xi2 * eta1) * x0 * y1, xi1 * eta1 * x0 * y2,
             (xi0 - eta2 - eta0 * xi1) * x1 * y2, eta1 * x2 * y2])
        out["alt_sx1y2"] = res(
            [e3, -s * x1 * y2, 2 * eta2, xi0, -eta1, eta1 * xi2])
        out["alt_sx0y1"] = res(
            [e2, -2 * e3, -s * x0 * y1, -eta2, -2 * xi0, -xi1, eta0 * xi1])
    out["imag_leakage"] = _most(abs(z.imag) / (1.0 + _abs(z))
                                for z in (*xi, *eta))
    return _dict_rows(out)


def _structural(p) -> list:
    """structural_residuals of each row of the pass.

    A = x y^T, so [B, A] = (B x) y^T - x (B^T y)^T: s A' = [C + s E, A] and
    C' = [E, A] are checked entry by entry, s A' in long double.  A row
    that ``rhs`` refuses keeps the refusal.
    """
    derivs = p.rows(_derivatives)
    s = p.s
    m = p.params.M
    x, y, xi, eta = _parts(p.u, m)
    dx, dy, dxi, deta = _parts(np.array(
        [np.full(p.u.shape[1], math.nan) if isinstance(d, str) else d
         for d in derivs]), m)
    out = {}
    # E's one entry is (-1)^(M+1) at (M, 0).  Row i < M of C is -eta_i at
    # column 0 and -1 at column i+1; row M is (xi_0 - eta_M, xi_1, .., xi_M).
    # C' has C's entries over (xi', eta') and a zero superdiagonal.
    sign = 1.0 if m == 1 else -1.0
    # B = C + s E through B x and B^T y, in numpy's long double (64-bit
    # significands on x86-64): in doubles their products cancel to ~1.6e-15
    # of rounding at s=10, M=2; here the residual is the state's to ~1e-18
    X, Y, XI, ETA, DX, DY = (a.astype(np.clongdouble)
                             for a in (x, y, xi, eta, dx, dy))
    corner = XI[0] - ETA[m] + s * sign
    bx = [-ETA[i] * X[0] - X[i + 1] for i in range(m)]
    bx.append(corner * X[0] + sum(XI[k] * X[k] for k in range(1, m + 1)))
    bty = [sum(-ETA[i] * Y[i] for i in range(m)) + corner * Y[m]]
    bty += [XI[j] * Y[m] - Y[j - 1] for j in range(1, m + 1)]
    out["schlesinger_A"] = _max_residual(
        [(s * (DX[i] * Y[j] + X[i] * DY[j]), bx[i] * Y[j] - X[i] * bty[j])
         for i in range(m + 1) for j in range(m + 1)]).astype(float)
    # [E, A] = (E x) y^T - x (E^T y)^T lives in column 0 and row M, as does
    # C'; every other entry of both is zero
    ex, ey = sign * x[0], sign * y[m]
    pairs = [(-deta[i], -x[i] * ey) for i in range(m)]
    pairs.append((dxi[0] - deta[m], ex * y[0] - x[m] * ey))
    pairs += [(dxi[j], ex * y[j]) for j in range(1, m + 1)]
    out["schlesinger_C"] = _max_residual(pairs)
    # rank-one property of A: all 2x2 minors vanish
    A = [[xa * yb for yb in y] for xa in x]
    minor_max = _most(_abs(A[i][k] * A[j][l] - A[i][l] * A[j][k])
                      for i in range(m + 1) for j in range(i + 1, m + 1)
                      for k in range(m + 1) for l in range(k + 1, m + 1))
    out["rank_one"] = minor_max / _powers(
        _most(_abs(v) for row in A for v in row), 2)

    if m == 1:
        e1 = p.params.e[0]
        t1 = _powers(s, -e1) * y[0]
        out["fold_x1"] = _max_residual([(x[1], -t1)])
        t2 = _powers(s, e1) * x[0]
        out["fold_y1"] = _max_residual([(y[1], t2)])
        out.update(_tracy_widom_residuals(s, p.params.nu[1], x, y, xi, eta,
                                          dx, dy, dxi, deta))
    return [d if isinstance(d, str) else row
            for d, row in zip(derivs, _dict_rows(out))]


def _tracy_widom_residuals(s, a, x, y, xi, eta, dx, dy, dxi, deta) -> dict:
    """The six relations of the classical hard-edge system at t = 4s.

    Variables: q = -i s^(a/2) x0, p = -i s^(-a/2) y0 + (a/2) q, u = -4 eta_0,
    v = -4 xi_0 + (a/2) u, with a = nu_1.
    """
    t = 4.0 * s
    x0, y0 = x[0], y[0]
    q = -1j * _powers(s, a / 2) * x0
    p = -1j * _powers(s, -a / 2) * y0 + 0.5 * a * q
    u = -4.0 * eta[0]
    v = -4.0 * xi[0] + 0.5 * a * u
    # d/dt = (1/4) d/ds
    dq = (-1j * (0.5 * a) * _powers(s, a / 2 - 1) * x0
          - 1j * _powers(s, a / 2) * dx[0]) / 4
    dp = ((-1j * (-0.5 * a) * _powers(s, -a / 2 - 1) * y0
           - 1j * _powers(s, -a / 2) * dy[0]) / 4 + 0.5 * a * dq)
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
    return {k: _norm_residual_rows(terms) for k, terms in rels.items()}


# ---------------------------------------------------------------------------
# the eta_0 jet
# ---------------------------------------------------------------------------

def eta_derivatives(state: HamiltonianState) -> ResolventJet:
    """eta_0 derivatives through order four, analytically from the flow.

    Differentiation never touches finite differences: the second derivatives
    of x_0, y_2 come from differentiating their own equations of motion; the
    fourth eta_0 derivative from the identity tying it to U, V, W, Z.  The
    jet is read off the state's pass, so ``verify`` and ``appendix_recover``
    share one per state.
    """
    if state.M != 2:
        raise ValueError("the resolvent jet is defined for M=2")
    return _read(state, _jets)


def _jets(p) -> list:
    """eta_derivatives of each row of the pass, row by row: a
    ``ResolventJet``, or the refusal of the row's right-hand side, of a
    vanishing eta_0' or of ``radical_F``.

    The complex formulas in their operation order, on the Python float parts
    that the physical branch leaves nonzero, as the right-hand sides run
    (x = iX, y = iY, so x0 y2 = -X0 Y2, and dx = i DX): each product has one
    nonzero partial product, and "* (1.0 / v)" keeps the rounding of numpy's
    complex division by v, so every value is the complex jet's bit for bit.
    """
    e1, e2, _ = p.params.e
    out = []
    for s, u, d in zip(p.s.tolist(), p.u, p.rows(_derivatives)):
        if isinstance(d, str):
            out.append(d)
            continue
        X0, _, _, _, _, Y2, _, _, XI2, E0, _, _, _ = _unpack_m2(u)
        DX0, DX1, _, _, DY1, DY2, _, _, DXI2, D1, _, _, _ = _unpack_m2(d)
        if D1 == 0:
            out.append("eta_0' vanished; the jet is undefined")
            continue
        inv = 1.0 / s
        DDX0 = (-D1 * X0 - E0 * DX0 - DX1 - DX0) * inv
        DDY2 = (-DXI2 * Y2 - XI2 * DY2 + DY1 - DY2) * inv
        U = -(s * X0 * DY2)
        V = -(s * DX0 * Y2)
        W = -(s ** 2 * X0 * DDY2)
        Z = -(s ** 2 * DDX0 * Y2)
        d2c = -(U + V) * inv
        d3c = (2 * U * V * (1.0 / D1) - (W + Z)) * (1.0 / s ** 2)
        d4c = (3 * (U * Z + V * W) * (1.0 / D1) + 3 * (W + Z) - e1 * (W - Z)
               + (1 + e2 - E0 + 6 * s * D1) * (U + V) - e1 * (U - V)
               - 2 * s * (D1 * D1)) * (1.0 / s ** 3)
        jet = (E0, D1, d2c, d3c, d4c)
        try:
            F = sigma_forms.radical_F(s, jet, e1, e2)
        except ValueError as exc:
            out.append(str(exc))
            continue
        out.append(ResolventJet(s=s, d=jet, F=F, U=U, V=V, params=p.params))
    return out


def trajectory_csv(traj: Trajectory) -> str:
    """CSV export: s, Re/Im of every variable, logE, residual columns.

    A row is s, the state's u without its last slot Im log E, and residuals,
    each value as "%.17g", from one format string per row (a join of
    per-value formats took 0.35 s on 8000 M=2 rows, the format string 0.28 s).
    """
    names = [f"{v}{m}" for v in ("x", "y", "xi", "eta")
             for m in range(traj.params.M + 1)]
    residuals = traj.first_integrals()
    res_names = sorted(residuals[0])
    cols = ["s"] + [f"{p}_{n}" for n in names for p in ("re", "im")] \
        + ["logE"] + [f"res_{r}" for r in res_names]
    row = ",".join(["%.17g"] * len(cols))
    lines = [",".join(cols)]
    for st, res in zip(traj.states, residuals):
        lines.append(row % (st.s, *st.u[:-1].tolist(),
                            *(res[r] for r in res_names)))
    return "\n".join(lines) + "\n"
