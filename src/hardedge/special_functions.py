"""Scalar special functions used throughout the package.

Every series here is a plain power series in double precision: the
regularized hyper-Bessel function 0F_M (M=1 is the Bessel case, J_v(2 sqrt x)
= x^(v/2) 0F1~(; v+1; -x)) and the Wright Bessel function, each as its first
``N_TERMS`` Taylor coefficients (the ``*_coefficients`` functions) for
``horner`` to evaluate, the path the kernels take.  Real Gamma / reciprocal
Gamma and elementary symmetric polynomials complete the module.  Horner's
rule in floating point is exact for slightly perturbed coefficients, so the
error of p(x) is at most gamma_2N * sum_j |c_j| |x|^j (Higham, *Accuracy and
Stability of Numerical Algorithms*, section 5.1).

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "N_TERMS",
    "GammaPoleError",
    "gamma_real",
    "reciprocal_gamma",
    "elementary_symmetric",
    "hyp0f_reg_coefficients",
    "wright_bessel_coefficients",
    "horner",
]

# Taylor terms kept in every series
N_TERMS = 100


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


def gamma_real(x: float) -> float:
    """Gamma(x) for real x away from the poles at 0, -1, -2, ...

    Negative non-integer arguments go through the reflection identity inside
    ``math.gamma``; relative accuracy is ~1e-15 on (-170, 170).
    """
    if x <= 0.0 and x == math.floor(x):
        raise GammaPoleError(f"Gamma pole at x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:  # pragma: no cover - guard
        raise GammaPoleError(f"Gamma evaluation failed at x={x}") from exc


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), entire in x: exactly 0.0 at non-positive integers."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x > 171.62:  # Gamma overflows double precision; reciprocal underflows
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except (ValueError, OverflowError):
        return 0.0


def horner(coeffs: np.ndarray, x: np.ndarray | float):
    """Evaluate sum_j coeffs[j] * x**j by Horner's rule (array friendly)."""
    result = np.zeros_like(np.asarray(x, dtype=float))
    for c in coeffs[::-1]:
        result = result * x + c
    return result


def hyp0f_reg_coefficients(bs, n_terms: int) -> np.ndarray:
    """Taylor coefficients c_j = prod_i 1/Gamma(b_i+j) / j! of 0F_M~(; bs; x).

    The reciprocal Gammas are multiplied left to right, then divided by j!.
    """
    c = np.empty(n_terms)
    fact = 1.0
    for j in range(n_terms):
        if j > 0:
            fact *= j
        prod = 1.0
        for b in bs:
            prod *= reciprocal_gamma(b + j)
        c[j] = prod / fact
    return c


def wright_bessel_coefficients(a: float, b: float, n_terms: int) -> np.ndarray:
    """Coefficients of x^j in the Wright Bessel series (sign folded in)."""
    c = np.empty(n_terms)
    fact = 1.0
    for j in range(n_terms):
        if j > 0:
            fact *= j
        c[j] = ((-1.0) ** j) * reciprocal_gamma(a + j * b) / fact
    return c


def elementary_symmetric(nus) -> tuple:
    """(e_1, ..., e_n) of the inputs; e_0 = 1 is implicit.

    Computed by the usual one-pass recurrence e_k += x * e_{k-1}.
    """
    vals = list(nus)
    if not vals:
        raise ValueError("elementary_symmetric needs a non-empty sequence")
    e = [1.0] + [0.0] * len(vals)
    for x in vals:
        for k in range(len(vals), 0, -1):
            e[k] += x * e[k - 1]
    return tuple(e[1:])
