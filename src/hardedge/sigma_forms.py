"""Scalar differential relations satisfied by the resolvent eta_0 (M=2).

The two-matrix Hamiltonian system collapses onto a single function
``eta_0(s) = s d/ds log E_2(0;(0,s))``.  This module evaluates every scalar
relation that pins eta_0 down:

* the radical F (positive square root of an explicit quartic combination of
  eta_0 derivatives, equal to the bilinear -3 x0 y1 - 3 x1 y2 - e1 x0 y2 in
  the phase-space variables),
* the fourth-order polynomial ODE for eta_0, evaluated two independent ways
  (the typeset ten-block polynomial, and a reconstruction through the
  elimination pipeline that produced it),
* the M=1 sigma form (a Painleve III' specialization),
* the special-index third-order ODE and the identity 6 - 2F = eta_0' for
  nu = (0, -1/2, 0),
* the recovery formulas expressing all twelve Hamiltonian variables through
  the eta_0 jet, and the first-order ODE for the decoupling factor
  G = x_0/y_2,
* the six-term small-s series of eta_0 at nu = (0, -1/2, 0), an oracle for
  the integrated flow.

Residuals are normalized by the largest absolute summand of each relation so
tolerances are scale-free in s.  Everything here is a pure function of a
``ResolventJet``; building jets from trajectories lives in hamiltonian_flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import HardEdgeParams

__all__ = [
    "ResolventJet",
    "SPECIAL_NU",
    "eta0_power_series",
    "f_squared",
    "radical_F",
    "uvwz_from_jet",
    "quartic_blocks",
    "quartic_typeset_raw",
    "quartic_pipeline_raw",
    "quartic_ode_residual",
    "p3_sigma_residual",
    "special_case_residuals",
    "rep_formulas",
    "gode_residual",
    "appendix_recover",
]

# index set for which the third-order reduction is validated
SPECIAL_NU = (0.0, -0.5, 0.0)

_PI = math.pi
# eta_0 = sum_k c_k s^(k/2) for nu = (0, -1/2, 0) as (c_k, k/2) terms; next
# order is O(s^{7/2})
SPECIAL_ETA0_TERMS = (
    (-2.0 / math.sqrt(_PI), 0.5),
    (-2.0 * (4.0 - _PI) / _PI, 1.0),
    (-(32.0 / 3.0) * (3.0 - _PI) / _PI ** 1.5, 1.5),
    (-(16.0 / 9.0) * (72.0 - 32.0 * _PI + 3.0 * _PI ** 2) / _PI ** 2, 2.0),
    (-(64.0 / 45.0) * (360.0 - 200.0 * _PI + 27.0 * _PI ** 2) / _PI ** 2.5, 2.5),
    (-(512.0 / 675.0) * (2700.0 - 1800.0 * _PI + 347.0 * _PI ** 2
                         - 15.0 * _PI ** 3) / _PI ** 3, 3.0),
)


@dataclass(frozen=True)
class ResolventJet:
    """eta_0 and its first four derivatives at s, plus the bilinear data.

    d = (eta0, eta0', eta0'', eta0''', eta0'''').  F is the positive radical;
    U = s x0 y2' and V = s x0' y2.
    """

    s: float
    d: tuple
    F: float
    U: float
    V: float
    params: HardEdgeParams


def _norm_residual(terms) -> float:
    # |sum| over the largest |term|, on Python scalars: an array round trip
    # costs more than the sum
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale > 0 else 0.0


def eta0_power_series(terms, s: float) -> tuple:
    """(jet, loghead) of eta_0 = sum c s^p over the (c, p) terms.

    jet is (eta0, ..., eta0'''') at s and loghead is int_0^s eta0(t)/t dt,
    the head of the tau formula; every p must be positive.
    """
    d = [0.0] * 5
    loghead = 0.0
    for c, p in terms:
        fac = 1.0
        for m in range(5):
            d[m] += c * fac * s ** (p - m)
            fac *= (p - m)
        loghead += c * s ** p / p
    return tuple(d), loghead


def _f_squared_with_scale(s: float, d, e1: float, e2: float) -> tuple:
    """(f_squared, the largest magnitude among its six summands)."""
    terms = (4 * e1 ** 2 * d[1] ** 2, -(12 * e2 * d[1] ** 2),
             12 * d[0] * d[1] ** 2, -(36 * s * d[1] ** 3),
             9 * s ** 2 * d[2] ** 2, -(12 * s * d[1] * (d[2] + s * d[3])))
    # left to right as typeset: the builtin sum compensates from Python 3.12
    t0, t1, t2, t3, t4, t5 = terms
    return t0 + t1 + t2 + t3 + t4 + t5, max(map(abs, terms))


def f_squared(s: float, d, e1: float, e2: float) -> float:
    """The quartic combination of eta_0 derivatives whose root is F."""
    return _f_squared_with_scale(s, d, e1, e2)[0]


def radical_F(s: float, d, e1: float, e2: float) -> float:
    """Positive root of f_squared; tiny negatives are clipped to zero."""
    fsq, scale = _f_squared_with_scale(s, d, e1, e2)
    if fsq < -1e-10 * max(scale, 1e-300):
        raise ValueError(f"F^2 genuinely negative ({fsq:.3e}): wrong branch "
                         "or corrupted jet")
    return math.sqrt(max(fsq, 0.0))


def uvwz_from_jet(s: float, d, e1: float, e2: float):
    """(F, U, V, W, Z) from the jet alone.

    U, V solve their sum rule U + V = -s eta0'' together with the radical
    split V - U = (F + 2 e1 eta0')/3; W, Z solve their sum rule and the
    fourth-derivative relation, whose W - Z coefficient reduces to F/(2 eta0').
    """
    F = radical_F(s, d, e1, e2)
    D = (F + 2.0 * e1 * d[1]) / 3.0
    S1 = -s * d[2]
    U, V = (S1 - D) / 2.0, (S1 + D) / 2.0
    S2 = 2.0 * U * V / d[1] - s ** 2 * d[3]
    rhs = (s ** 3 * d[4] + 2.0 * s * d[1] ** 2 - 1.5 * S1 * S2 / d[1] - 3.0 * S2
           - (1.0 + e2 - d[0] + 6.0 * s * d[1]) * S1 - e1 * D)
    P = rhs * 2.0 * d[1] / F
    return F, U, V, (S2 + P) / 2.0, (S2 - P) / 2.0


# ---------------------------------------------------------------------------
# the fourth-order ODE, two ways
# ---------------------------------------------------------------------------

def quartic_blocks(jet: ResolventJet) -> dict:
    """The ten summand blocks of the fourth-order ODE, as typeset.

    Keys name the derivative structure: q* carry eta0'''', c* carry eta0''',
    b* carry eta0'', a0 is the eta0'-only block.
    """
    s, F = jet.s, jet.F
    h, d1, d2, d3, d4 = jet.d
    e1, e2, e3 = jet.params.e
    c27 = 27 * (e3 + s) + 2 * e1 ** 3 - 9 * e2 * e1
    c27b = 3 * (27 * (e3 + 4 * s) + 2 * e1 ** 3 - 9 * e2 * e1)
    B = {}
    B["q2"] = 27 * s ** 6 * d4 ** 2 * d1 ** 2
    B["q1"] = 27 * s ** 4 * (-F * d2 + 3 * s ** 2 * d2 ** 3 + 6 * s * d1 ** 3 * d2
                             + 2 * d1 ** 2 * (d2 + 3 * s * d3)
                             - 5 * s * d1 * d2 * (d2 + s * d3) + 4 * d1 ** 4) * d4
    B["c3"] = 81 * s ** 6 * d3 ** 3 * d1
    B["c2"] = (-27 * e1 ** 2 * s ** 4 * d1 ** 2 + 81 * e2 * s ** 4 * d1 ** 2
               + 18 * F * s ** 4 - 54 * s ** 6 * d2 ** 2 - 162 * s ** 5 * d1 * d2
               + 567 * s ** 5 * d1 ** 3 - 81 * s ** 4 * h * d1 ** 2
               + 243 * s ** 4 * d1 ** 2) * d3 ** 2
    B["c1"] = -3 * s ** 2 * (
        F * (15 * s * d2 - 2 * d1 * (e1 ** 2 - 3 * (e2 + 3 * s * d1 - 7 * h)))
        + 9 * s ** 2 * d1 * d2 ** 2 * (-2 * e1 ** 2 + 6 * e2 + 54 * s * d1
                                       - 6 * h + 11)
        + 4 * d1 * (9 * s * (e1 ** 2 - 3 * e2 + 3 * h - 3) * d1 ** 3 - c27 * d1
                    - 108 * s ** 2 * d1 ** 4 + 27 * h)
        - 18 * s * d1 ** 2 * d2 * (-e1 ** 2 + 3 * e2 + 25 * s * d1 - 3 * h + 3)
        - 45 * s ** 3 * d2 ** 3) * d3
    B["b4"] = 27 * s ** 4 * (-e1 ** 2 + 3 * e2 + 27 * s * d1 - 3 * h + 1) * d2 ** 4
    B["b3"] = -54 * s ** 3 * d1 * (-e1 ** 2 + 3 * e2 + 24 * s * d1 - 3 * h
                                   + 1) * d2 ** 3
    B["b2"] = -9 * s ** 2 * (
        F * (-e1 ** 2 + 3 * e2 + 18 * s * d1 + 6 * h + 1)
        - 3 * s * (4 * e1 ** 2 - 12 * e2 + 12 * h + 17) * d1 ** 3
        + 3 * (e1 ** 2 - 3 * e2 + 3 * h - 1) * d1 ** 2 + c27 * d1
        + 108 * s ** 2 * d1 ** 4 - 27 * h) * d2 ** 2
    B["b1"] = 6 * s * d1 * (
        F * (e1 ** 2 - 3 * (e2 + 6 * s * d1 - 7 * h))
        - 18 * s * (e1 ** 2 - 3 * e2 + 3 * h - 1) * d1 ** 3 + 2 * c27 * d1
        + 270 * s ** 2 * d1 ** 4 - 54 * h) * d2
    B["a0"] = -4 * d1 ** 2 * (
        F * (e1 ** 2 - 3 * e2 - 9 * s * d1 + 3 * h)
          * (e1 ** 2 - 3 * (e2 + 3 * s * d1 - 4 * h))
        + 27 * s ** 2 * (e1 ** 2 - 3 * e2 + 3 * h - 1) * d1 ** 4
        - 9 * s * c27 * d1 ** 2
        + (c27b * h + (e1 ** 2 - 3 * e2) * c27) * d1
        - 27 * h * (e1 ** 2 - 3 * e2 + 3 * h) - 243 * s ** 3 * d1 ** 5)
    return B


def quartic_typeset_raw(jet: ResolventJet) -> float:
    return sum(quartic_blocks(jet).values())


def quartic_ode_residual(jet: ResolventJet) -> float:
    """Typeset fourth-order ODE residual, normalized by sum |block|."""
    if jet.d[1] == 0.0:
        raise ValueError("eta0' = 0: the quartic reduction is undefined there")
    B = quartic_blocks(jet)
    return sum(B.values()) / sum(abs(v) for v in B.values())


def _pipeline_solve(jet: ResolventJet):
    """Recover (xi0, xi1, eta1, eta2) through the proof's elimination route.

    Uses the relation set {fourth integral, the two split trace integrals in
    their bilinear form, det(C - A) + e3 = 0}, i.e. the energy identity is
    deliberately left out so it can serve as the residual afterwards.  The
    determinant relation is quadratic only through (xi1 - eta1)^2, which the
    fourth integral fixes, so the system is linear.  Returns the solution,
    the system determinant, and the bilinear/UVWZ data.
    """
    s = jet.s
    h, d1 = jet.d[0], jet.d[1]
    e1, e2, e3 = jet.params.e
    F, U, V, W, Z = uvwz_from_jet(s, jet.d, e1, e2)
    xi2 = h - e1
    x0y1 = -(h - e1) * d1 + U
    x1y2 = h * d1 - V
    x0y2 = -d1
    delta = e2 + h * (h - e1) - h + s * d1          # xi1 - eta1
    a0, b0 = -s * d1 ** 2 + (1 + h - e1) * U + W, -d1
    a2, b2 = -s * d1 ** 2 + (1 + h) * V + Z, d1
    x1y1 = x0y1 * x1y2 / x0y2
    A = np.zeros((4, 4))
    rhs = np.zeros(4)
    A[0] = [0.0, -1.0, 1.0, 0.0]
    rhs[0] = s * x0y2 - h * xi2 - e2 + h
    A[1] = [3.0, 2 * e1 - 3 * h + 4, -e1 - 1, 0.0]
    rhs[1] = -(3 * e3 + e2 * (-2 * e1 + h - 4) + h * (e1 - h + 1) * (2 * e1 - h + 2)
               + 2 * s * x0y1 + s * x0y2 * (2 * e1 - h + 2) + s * x1y2)
    A[2] = [0.0, 1 - e1, -e1 + 3 * h - 4, 3.0]
    rhs[2] = -(e2 * (e1 + h - 1) - h * (e1 - h + 1) * (e1 + h - 2) - s * x0y1
               - s * x0y2 * (e1 + h - 2) - 2 * s * x1y2)
    # det(C - A) + e3 = 0 with rank-one products split through x0y2; the
    # quadratic part collapses to d1 * delta^2.
    c_xi0 = 1.0 + x0y1 + x1y2
    c_eta2 = -1.0 - x0y1 - x1y2
    c_xi1 = -h - a2 * b0 / x0y2 - xi2 * b0 * x1y2 / x0y2 - a0 - h * x1y2
    c_eta1 = (-xi2 - b2 * a0 / x0y2 + h * b2 * x0y1 / x0y2 - xi2 * x0y1 + a2)
    const = (e3 - a2 * a0 / x0y2 + h * a2 * x0y1 / x0y2 - xi2 * a0 * x1y2 / x0y2
             + h * xi2 * x1y1 + d1 * delta ** 2)
    A[3] = [c_xi0, c_xi1, c_eta1, c_eta2]
    rhs[3] = -const
    sol = np.linalg.solve(A, rhs)
    detA = float(np.linalg.det(A))
    return sol, detA, (F, U, V, W, Z)


def quartic_pipeline_raw(jet: ResolventJet) -> float:
    """The typeset polynomial value rebuilt through the elimination pipeline.

    The energy identity evaluated on the pipeline solution differs from the
    typeset polynomial by the exact factor -(3/2) det(A) F^2 / eta0', where
    det(A) is the determinant of the linear system as assembled above (the
    factor was identified numerically to 60 digits on random jets).
    """
    (xi0, xi1, eta1, eta2), detA, (F, U, V, W, Z) = _pipeline_solve(jet)
    s, h, d1 = jet.s, jet.d[0], jet.d[1]
    e1 = jet.params.e[0]
    energy = (U * Z - V * W + e1 * U * V - d1 * (h + s * (U - V) * d1)
              + d1 ** 2 * (-e1 * eta1 + h * (eta1 + xi1) + eta2 - xi0 + s))
    return -1.5 * detA * F ** 2 / d1 * energy


# ---------------------------------------------------------------------------
# M=1 sigma form and the special-index reductions
# ---------------------------------------------------------------------------

def p3_sigma_residual(s: float, eta0: float, d1: float, d2: float,
                      e1: float, e2: float) -> float:
    """Painleve III' sigma-form residual for the one-matrix resolvent."""
    terms = (s ** 2 * d2 ** 2,
             -e1 ** 2 * d1 ** 2,
             4 * d1 ** 2 * (s * d1 - eta0 + s + e2),
             -4 * eta0 * d1)
    return _norm_residual(terms)


def special_case_residuals(jet: ResolventJet) -> tuple:
    """(third_order, f_identity) residuals; only valid at nu = (0,-1/2,0).

    third_order is the normalized residual of the third-order ODE that the
    special-index resolvent empirically satisfies; f_identity checks
    |eta0' - 6 + 2F| against the scale max(|eta0'|, 6, 2F).
    """
    if tuple(jet.params.nu) != SPECIAL_NU:
        raise ValueError("special-case residuals require nu = (0, -1/2, 0)")
    s = jet.s
    h, d1, d2, d3, _ = jet.d
    terms = (-12 * s ** 2 * d1 * d3,
             9 * s ** 2 * d2 ** 2,
             -12 * s * d1 * d2,
             0.75 * d1 * (d1 * (-48 * s * d1 + 16 * h + 1) + 4),
             -9.0)
    return _norm_residual(terms), _norm_residual((d1, -6.0, 2.0 * jet.F))


# ---------------------------------------------------------------------------
# closed-form recovery of the Hamiltonian variables from the jet
# ---------------------------------------------------------------------------

def rep_formulas(jet: ResolventJet) -> dict:
    """Closed forms for xi0, xi1, eta1, eta2 and the bilinears x_i y_j.

    They solve the four relations {xi1 - eta1, the two split trace
    integrals, energy conservation} for the jet; ``appendix_recover`` checks
    them against a trajectory's own variables.
    """
    s, F = jet.s, jet.F
    h, d1, d2, d3, d4 = jet.d
    e1, e2, e3 = jet.params.e
    g = 3 + e1 - 3 * h
    out = {}
    out["xi0"] = (
        -g * (e1 ** 2 * (-F) + 3 * e2 * F + 3 * (9 - F) * h) / (162 * d1)
        + (1 / 162) * (9 * e1 * (3 * e2 * (h - 1) + 3 * e3 + (3 - F) * s
                                 - 3 * (h - 1) * h)
                       + 27 * (h * (4 * e2 - (3 - F) * s + (h - 2) * h + 1)
                               - 3 * e3 * (h + 1) + 3 * s)
                       - 6 * e1 ** 3 * (h - 1) - 9 * e1 ** 2 * (e2 + 2 * h)
                       + 2 * e1 ** 4)
        - (1 / 6) * s * (e1 - 3 * h + 1) * d1
        + (g * (s / (108 * d1 ** 2)) * (36 * s * d1 ** 3 / F + F)
           + s ** 2 / 6) * d2
        + g * (-s ** 2 * (e1 ** 2 - 3 * e2 + 3 * h - 3) / (18 * F * d1)
               + s ** 3 / F - F * s ** 2 / (72 * d1 ** 3)) * d2 ** 2
        - g * s ** 3 * d2 ** 3 / (4 * F * d1 ** 2)
        + g * s ** 4 * d2 ** 4 / (8 * F * d1 ** 3)
        + g * (-s ** 4 * d2 ** 2 / (4 * F * d1 ** 2)
               + s ** 3 * d2 / (2 * F * d1)
               + F * s ** 2 / (108 * d1 ** 2)) * d3
        + g * s ** 4 * d2 * d4 / (6 * F * d1))
    out["xi1"] = (
        (e1 ** 2 * (-F) + 3 * e2 * F + 3 * (9 - F) * h) / (54 * d1)
        + (1 / 54) * (-9 * (-6 * e2 + 3 * e3 + (3 - F) * s - 3 * (h - 1) * h)
                      + 9 * e1 * (e2 - 4 * h) - 2 * e1 ** 3)
        + 0.5 * s * d1
        - (s ** 2 * d1 / F + F * s / (36 * d1 ** 2)) * d2
        + (s ** 2 * (e1 ** 2 - 3 * e2 + 3 * h - 3) / (6 * F * d1)
           - 3 * s ** 3 / F + F * s ** 2 / (24 * d1 ** 3)) * d2 ** 2
        + 3 * s ** 3 * d2 ** 3 / (4 * F * d1 ** 2)
        - 3 * s ** 4 * d2 ** 4 / (8 * F * d1 ** 3)
        - (-3 * s ** 4 * d2 ** 2 / (4 * F * d1 ** 2)
           + 3 * s ** 3 * d2 / (2 * F * d1)
           + F * s ** 2 / (36 * d1 ** 2)) * d3
        - s ** 4 * d2 * d4 / (2 * F * d1))
    out["eta1"] = (
        (9 - F) * h / (18 * d1)
        + (1 / 54) * (-9 * (3 * e3 + (3 - F) * s + 3 * (h - 1) * h)
                      + 9 * e1 * (e2 + 2 * h) - 2 * e1 ** 3)
        - 0.5 * s * d1
        - (e1 ** 2 - 3 * e2) * (e1 ** 2 - 3 * e2 + 3 * h) * (2 / (27 * F)) * d1
        + (e1 ** 2 - 3 * e2) * (2 * s / (3 * F)) * d1 ** 2
        + (e1 ** 2 - 3 * (e2 + h)) * s * d2 / (9 * F)
        + (s ** 2 * (e1 ** 2 - 3 * e2 + 6 * h - 1) / (6 * F * d1)
           - 9 * s ** 3 / (2 * F)) * d2 ** 2
        + (s ** 2 * (e1 ** 2 - 3 * (e2 + h)) / (9 * F)
           - 5 * s ** 3 * d2 / (6 * F * d1) + s ** 3 * d1 / F) * d3
        + s ** 4 * d3 ** 2 / (3 * F * d1)
        - s ** 4 * d4 * d2 / (2 * F * d1))
    out["eta2"] = (
        h * (9 * (2 * e1 - 3 * h + 3) - F * (2 * e1 - 3 * h)) / (54 * d1)
        + (1 / 162) * (-4 * e1 ** 4 + 6 * (h - 1) * e1 ** 3
                       + 18 * (e2 + 2 * h) * e1 ** 2
                       - 9 * (2 * (3 - F) * s + 6 * e3 + 3 * e2 * (h - 1)
                              + 6 * (h - 1) * h) * e1
                       + 27 * (-3 * s + 3 * e3 * (h - 1)
                               + h * (3 * s - 2 * e2 + (h - 2) * h + 1)))
        - (1 / (162 * F)) * (8 * e1 ** 5 - 12 * (h - 1) * e1 ** 4
                             + 24 * (h - 2 * e2) * e1 ** 3
                             + 36 * (2 * e2 * (h - 1) - (h - 2) * h) * e1 ** 2
                             - 18 * (4 * e2 * (h - e2) - 3 * F * s) * e1
                             + 27 * (-4 * (e2 - h) * (e2 * (h - 1) + h)
                                     - F * s * (3 * h - 1))) * d1
        - 2 * (9 * h ** 2 + 3 * (2 * e1 ** 2 - 6 * e2 - 3) * h
               - (2 * e1 + 3) * (e1 ** 2 - 3 * e2)) * d1 ** 2 * s / (9 * F)
        + 6 * h * d1 ** 3 * s ** 2 / F
        + (2 * s ** 2 * h * d1 / F
           - s * (-9 * F * s - 12 * (2 * e1 + 3)
                  + (2 * e1 - 3 * h + 3) * (6 * (e2 + h + 2) - 2 * e1 ** 2))
             / (54 * F)) * d2
        + (-3 * (2 * e1 - 2 * h + 3) * s ** 3 / (2 * F)
           - (6 * e1 + (2 * e1 - 3 * h + 3) * (-e1 ** 2 + 3 * e2 - 6 * h - 2)
              + 9) * s ** 2 / (18 * F * d1)) * d2 ** 2
        + ((2 * e1 + 3 * h + 3) * d1 * s ** 3 / (3 * F)
           - 5 * (2 * e1 - 3 * h + 3) * d2 * s ** 3 / (18 * F * d1)
           - ((3 * (e2 + h + 2) - e1 ** 2) * (2 * e1 - 3 * h + 3)
              - 6 * (2 * e1 + 3)) * s ** 2 / (27 * F)) * d3
        + (2 * e1 - 3 * h + 3) * d3 ** 2 * s ** 4 / (9 * F * d1)
        - (2 * e1 - 3 * h + 3) * d2 * d4 * s ** 4 / (6 * F * d1))
    out["x0y1"] = (1 / 6) * (-F + 4 * e1 * d1 - 6 * h * d1 - 3 * s * d2)
    out["x1y2"] = (1 / 6) * (-F - 2 * e1 * d1 + 6 * h * d1 + 3 * s * d2)
    out["x0y2"] = -d1
    out["x0y0"] = (
        (1 / 54) * ((e1 * (e1 + 3) - 3 * e2) * F - 3 * (2 * F + 9) * h)
        + (1 / 54) * d1 * (9 * (2 * e1 + 1) * h + 9 * (3 * (e3 + s) - 4 * e2)
                           + e1 * (2 * e1 * (e1 + 3) - 9 * e2) - 9 * F * s
                           - 27 * h ** 2)
        - 0.5 * s * d1 ** 2 + 2 * s * d1 ** 3 / F
        + d2 * (-s * (e1 ** 2 - 3 * e2 + 3 * h - 3) * d1 / (3 * F)
                + (1 / 6) * s * (e1 - 3 * h - 1) + 7 * s ** 2 * d1 ** 2 / F
                - F * s / (18 * d1))
        + d2 ** 2 * (-s ** 2 * (e1 ** 2 - 3 * e2 + 3 * h + 6) / (6 * F)
                     + 3 * s ** 3 * d1 / F - F * s ** 2 / (24 * d1 ** 2))
        + 3 * s ** 4 * d2 ** 4 / (8 * F * d1 ** 2)
        + d3 * (-3 * s ** 4 * d2 ** 2 / (4 * F * d1) + 3 * s ** 2 * d1 / F
                + F * s ** 2 / (36 * d1) - s ** 2 / 6)
        + d4 * (s ** 4 * d2 / (2 * F) + s ** 3 * d1 / F))
    out["x1y1"] = ((1 / 18) * e1 * F
                   + (1 / 9) * (-3 * (3 * e1 + 1) * h + e1 ** 2 + 3 * e2
                                + 9 * h ** 2) * d1
                   + s * d1 ** 2 + (1 / 6) * s * (2 - 3 * e1 + 6 * h) * d2
                   + (1 / 3) * s ** 2 * d3)
    out["x2y2"] = (
        (1 / 54) * (-e1 * (e1 + 6) * F + 3 * e2 * F + 3 * (2 * F + 9) * h)
        + (1 / 54) * d1 * (9 * (2 * e2 - 3 * e3 + (F - 3) * s - 3 * h ** 2 + h)
                           + 9 * e1 * (e2 + 4 * h) - 2 * e1 ** 3
                           - 12 * e1 ** 2)
        - 0.5 * s * d1 ** 2 - 2 * s * d1 ** 3 / F
        + d2 * (s * (e1 ** 2 - 3 * e2 + 3 * h - 3) * d1 / (3 * F)
                + (1 / 6) * s * (2 * e1 - 3 * h - 1) - 7 * s ** 2 * d1 ** 2 / F
                + F * s / (18 * d1))
        + d2 ** 2 * (s ** 2 * (e1 ** 2 - 3 * e2 + 3 * h + 6) / (6 * F)
                     - 3 * s ** 3 * d1 / F + F * s ** 2 / (24 * d1 ** 2))
        - 3 * s ** 4 * d2 ** 4 / (8 * F * d1 ** 2)
        + d3 * (3 * s ** 4 * d2 ** 2 / (4 * F * d1) - 3 * s ** 2 * d1 / F
                - F * s ** 2 / (36 * d1) - s ** 2 / 6)
        + d4 * (-s ** 4 * d2 / (2 * F) - s ** 3 * d1 / F))
    return out


def gode_residual(jet: ResolventJet) -> float:
    """Residual of the first-order ODE for the decoupling factor G.

    G' is reconstructed from U, V via G'/G = (V - U)/(s x0 y2), so the check
    exercises the identity tying the G flow to the eta_0 jet.
    """
    s = jet.s
    h, d1, d2, d3, _ = jet.d
    e1, e2, _ = jet.params.e
    dlogG = (jet.V - jet.U) / (-s * d1)
    lhs1 = (3 * s * dlogG + 2 * e1) ** 2
    terms = (lhs1,
             -4 * e1 ** 2,
             -12 * (h - e2 - 3 * s * d1 - s * d2 / d1),
             12 * s ** 2 * (d3 / d1 - 0.75 * (d2 / d1) ** 2))
    return _norm_residual(terms)


def appendix_recover(state) -> dict:
    """Recovery residuals |closed form - trajectory value| per quantity.

    Builds the jet from the state, evaluates every closed recovery formula,
    and normalizes each difference by max(1, |trajectory value|).  Also
    includes the G-ODE residual under the key "gode".
    """
    from .hamiltonian_flow import eta_derivatives

    if state.M != 2:
        raise ValueError("recovery formulas exist for M=2 only")
    jet = eta_derivatives(state)
    rep = rep_formulas(jet)
    x, y = state.x, state.y
    actual = {
        "xi0": state.xi[0].real, "xi1": state.xi[1].real,
        "eta1": state.eta[1].real, "eta2": state.eta[2].real,
        "x0y1": (x[0] * y[1]).real, "x1y2": (x[1] * y[2]).real,
        "x0y2": (x[0] * y[2]).real, "x0y0": (x[0] * y[0]).real,
        "x1y1": (x[1] * y[1]).real, "x2y2": (x[2] * y[2]).real,
    }
    out = {k: abs(rep[k] - actual[k]) / max(1.0, abs(actual[k])) for k in actual}
    out["gode"] = gode_residual(jet)
    return out
