"""Small-s exponent classification and large-s tail analysis for M=2.

The fourth-order resolvent ODE admits algebraic solution classes
``eta_0 ~ C_1 s^{lambda_1}`` near s = 0; ``indicial_exponents`` enumerates
their exponents (and, for the fractional class, the admissible leading
coefficients).  At the other end the resolvent behaves like
``-3 * 2^(-4/3) s^(2/3)``, which integrates to the gap-probability tail
``log E = a_1 r^(4/3) + b_1 r^(2/3) + c_1`` in the variable r = 2 sqrt(s);
``fit_tail`` recovers those tail coefficients from sampled curves and
extrapolates the finite-r drift of a_1 away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import HardEdgeParams

__all__ = [
    "IndicialReport",
    "indicial_exponents",
    "tail_model",
    "TailFit",
    "fit_tail",
    "A1_PREDICTED",
]

# |a_1| limit from the resolvent's large-s law: 9 * 2^(-11/3)
A1_PREDICTED = 9.0 * 2.0 ** (-11.0 / 3.0)


@dataclass(frozen=True)
class IndicialReport:
    """Leading-exponent classification of eta_0 ~ C_1 s^lambda_1 at s = 0.

    fixed_exponents: the six values +-(nu_i - nu_j) + 1 (with multiplicity).
    quadratic_pair / halfinteger_pair: the two parameter-determined pairs.
    fractional_C1: the six leading coefficients of the s^(1/3) class, roots
    of 27 C^6 + 54 x C^3 - 27 y = 0.  delta1 and mu1 record the subleading
    large-s exponents (-2/3 and -1); no solver derives them here.
    """

    params: HardEdgeParams
    fixed_exponents: tuple
    lambda_zero: float
    quadratic_pair: tuple
    halfinteger_pair: tuple
    fractional_C1: tuple
    x_disc: float
    y_disc: float
    delta1: float = -2.0 / 3.0
    mu1: float = -1.0


def indicial_exponents(params: HardEdgeParams) -> IndicialReport:
    """All admissible leading exponents of the M=2 resolvent at s = 0."""
    if params.M != 2:
        raise ValueError("indicial classification applies to M=2")
    n0, n1, n2 = params.nu
    fixed = tuple(sgn * (a - b) + 1.0
                  for (a, b) in ((n0, n1), (n0, n2), (n1, n2))
                  for sgn in (1.0, -1.0))
    q = (n0 ** 2 + n1 ** 2 + n2 ** 2 - n0 * n1 - n0 * n2 - n1 * n2)
    root_q = math.sqrt(q) if q >= 0 else complex(0.0, math.sqrt(-q))
    quad_pair = (1.0 + 2.0 * root_q / math.sqrt(3.0),
                 1.0 - 2.0 * root_q / math.sqrt(3.0))
    disc = 4.0 * q - 1.0
    root_d = math.sqrt(disc) if disc >= 0 else complex(0.0, math.sqrt(-disc))
    half_pair = ((3.0 + math.sqrt(3.0) * root_d) / 6.0,
                 (3.0 - math.sqrt(3.0) * root_d) / 6.0)
    x_disc = ((n0 + n1 - 2 * n2) * (2 * n0 - n1 - n2) * (n0 - 2 * n1 + n2))
    y_disc = ((9 * (n0 - n1) ** 2 - 4) * (9 * (n0 - n2) ** 2 - 4)
              * (9 * (n1 - n2) ** 2 - 4)) / 27.0
    # 27 C^6 + 54 x C^3 - 27 y = 0  ->  C^3 = -x +- sqrt(x^2 + y)
    rad = complex(x_disc ** 2 + y_disc) ** 0.5
    roots = []
    for t in (-x_disc + rad, -x_disc - rad):
        if t == 0:
            roots.extend([0.0 + 0.0j] * 3)
            continue
        base = complex(t) ** (1.0 / 3.0)
        for k in range(3):
            roots.append(base * np.exp(2j * math.pi * k / 3.0))
    return IndicialReport(params=params, fixed_exponents=fixed,
                          lambda_zero=0.0, quadratic_pair=quad_pair,
                          halfinteger_pair=half_pair,
                          fractional_C1=tuple(roots),
                          x_disc=x_disc, y_disc=y_disc)


def tail_model(abscissa: float, which: str, variable: str = "s") -> float:
    """Closed-form large-argument models for eta_0 and log E.

    which: "eta0_leading" (only in s), "logE_leading", or "logE_refined"
    (the refined form is specific to the index set (0, -1/2, 0)).
    variable: "s" or "r" with s = r^2/4.
    """
    if abscissa <= 0:
        raise ValueError("abscissa must be positive")
    if variable == "r":
        s = abscissa ** 2 / 4.0
    elif variable == "s":
        s = abscissa
    else:
        raise ValueError("variable must be 's' or 'r'")
    if which == "eta0_leading":
        if variable != "s":
            raise ValueError("eta0_leading is defined in the s variable")
        return -3.0 * 2.0 ** (-4.0 / 3.0) * s ** (2.0 / 3.0)
    if which == "logE_leading":
        return -9.0 * 2.0 ** (-7.0 / 3.0) * s ** (2.0 / 3.0)
    if which == "logE_refined":
        return (-9.0 * 2.0 ** (-7.0 / 3.0) * s ** (2.0 / 3.0)
                - 3.0 * 2.0 ** (-5.0 / 3.0) * s ** (1.0 / 3.0))
    raise ValueError(f"unknown model {which!r}")


@dataclass(frozen=True)
class TailFit:
    """Coefficients of log E ~ a1 r^(4/3) + b1 r^(2/3) + c1.

    window records the r values used; a1_extrapolated, when requested, is the
    intercept of a least-squares fit a1(r) = a_inf + k r^(-2/3) over the five
    largest centers (the neglected tail term feeds the local a1 estimate at
    O(r^(-2/3))).
    """

    a1: float
    b1: float
    c1: float
    window: tuple
    a1_extrapolated: float | None = None
    residual: float = 0.0


def _design(rs: np.ndarray) -> np.ndarray:
    return np.vstack([rs ** (4.0 / 3.0), rs ** (2.0 / 3.0),
                      np.ones_like(rs)]).T


def fit_tail(points, mode: str = "local_triple", extrapolate: bool = False,
             center: float | None = None) -> TailFit:
    """Fit sampled (r, logE) pairs to the three-term tail model.

    mode "local_triple" solves the exact 3x3 system on (center-1, center,
    center+1) and attributes a1 to the center (default: the largest value of
    r with both neighbours present); "global_lsq" is linear least squares
    over all points.  Extrapolation runs local triples over the data and
    fits their drift against r^(-2/3).  A non-finite r or log E is refused.
    """
    pts = [(float(r), float(le)) for r, le in points]
    for r, le in pts:
        if not (math.isfinite(r) and math.isfinite(le)):
            raise ValueError(f"non-finite point at r={r:g}")
    pts.sort()
    rs = np.array([p[0] for p in pts])
    les = np.array([p[1] for p in pts])
    if len(rs) < 3:
        raise ValueError("need at least three points")
    if np.any(rs <= 0) or np.any(np.diff(rs) == 0):
        raise ValueError("r values must be positive and distinct")

    by_r = dict(pts)

    def triple_at(c: float) -> np.ndarray:
        window = [c - 1.0, c, c + 1.0]
        if any(w not in by_r for w in window):
            raise ValueError(f"local triple needs data at {window}")
        A = _design(np.array(window))
        return np.linalg.solve(A, np.array([by_r[w] for w in window]))

    if mode == "local_triple":
        c = center if center is not None else rs[-2]
        a1, b1, c1 = triple_at(c)
        window = (c - 1.0, c, c + 1.0)
        resid = 0.0
    elif mode == "global_lsq":
        A = _design(rs)
        if np.linalg.matrix_rank(A) < 3:
            raise ValueError("degenerate design matrix")
        coef, res, *_ = np.linalg.lstsq(A, les, rcond=None)
        a1, b1, c1 = coef
        window = tuple(rs)
        resid = float(np.sqrt(res[0] / len(rs))) if len(res) else 0.0
    else:
        raise ValueError(f"unknown mode {mode!r}")

    a1_ext = None
    if extrapolate:
        centers = [r for r in rs if (r - 1.0) in by_r and (r + 1.0) in by_r]
        centers = centers[-5:]
        if len(centers) < 2:
            raise ValueError("extrapolation needs at least two local triples")
        a1s = np.array([triple_at(c)[0] for c in centers])
        cs = np.array(centers)
        A = np.vstack([np.ones_like(cs), cs ** (-2.0 / 3.0)]).T
        coef, *_ = np.linalg.lstsq(A, a1s, rcond=None)
        a1_ext = float(coef[0])
    return TailFit(a1=float(a1), b1=float(b1), c1=float(c1), window=window,
                   a1_extrapolated=a1_ext, residual=resid)
