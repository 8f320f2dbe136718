"""Hard-edge correlation kernels for products of complex Ginibre matrices.

Two kernel families live here:

* ``KernelBundle`` — the integrable-form kernel
  ``K_M(x, y) = sum_j phi_j(x) psi_j(y) / (x - y)`` for one matrix (M=1)
  and two matrices (M=2), built from regularized hyper-Bessel series 0F_M
  (0F1 is the Bessel case).  ``kernel_matrix`` is its only evaluator: one
  Horner sweep over the stacked series gives phi_j, phi_j' and psi_j at
  every abscissa, and the 0/0 diagonal is the exact limit
  K(x, x) = sum_j phi_j'(x) psi_j(x).  ``build_kernel_bundle`` caches one
  bundle per index set.
* ``borodin_kernel_matrix`` — the theta = 2 hard-edge kernel of the Laguerre
  Muttalib-Borodin ensemble, a u-integral of two Wright Bessel factors on
  one 16-node Gauss-Legendre rule on (0, 1) built at import.  With theta
  fixed at 2 and c an integer (``MBParams`` refuses other c) the integrand is
  entire in u, not a polynomial, so no finite rule is exact: 16 nodes reach
  the double-precision floor of the series on [0, 15]^2 by measurement (at
  c in {0, 1}; see ``_U``).  ``borodin_factor_tables`` tabulates both factors
  for a stack of node sets as node powers times per-c u tables, with each
  series cut once, at the argument cap |x u| <= 15, and refuses arguments
  past it; ``fredholm.mb_logdet_column`` takes its determinant from them, so
  the n x n matrix is a test reference.

The two families describe the same determinantal process: with
``c = 2 nu_1 + 1`` and ``nu_2 = nu_1 + 1/2``,

    K_M(x, y) = y**(-1/2) * K_mb(2 sqrt(y), 2 sqrt(x)),

i.e. the argument order is swapped between the two conventions (both kernels
are non-symmetric; gap probabilities are unaffected).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .special_functions import (
    N_TERMS,
    gamma_real,
    elementary_symmetric,
    hyp0f_reg_coefficients,
    wright_bessel_coefficients,
    horner,
    truncate_series,
)

__all__ = [
    "HardEdgeParams",
    "KernelBundle",
    "MBParams",
    "build_kernel_bundle",
    "kernel_value",
    "kernel_matrix",
    "borodin_factor_tables",
    "borodin_kernel_matrix",
    "mb_params_for_hardedge",
]

# Pairs with |x - y| < _DIAG_DELTA * max(x, y) take the exact diagonal value.
# Distinct Nystrom nodes are at least ~1e-4 apart relative to their size, so
# in practice only x == y (or a rounding-level offset) falls inside.
_DIAG_DELTA = 1e-5
# M=2 needs nu2 - nu1 bounded away from the integers.
_GENERIC_TOL = 1e-6
# Gauss-Legendre rule on (0, 1) for the Muttalib-Borodin u-integral.  On a
# 61 x 61 grid of [0.01, 15]^2 at c in {0, 1} the theta=2 kernel with 16 nodes
# is within 1.6e-12 of the 128-node value (64 nodes: 7.1e-13); at 7 points up
# to (15, 15) 16 and 64 nodes are both within 2.7e-11 of a 30-digit mpmath
# u-integral, the floor of the series.  8 nodes are off by up to 1.3e-5.
_U, _WU = np.polynomial.legendre.leggauss(16)
_U = 0.5 * (_U + 1.0)
_WU = 0.5 * _WU
# the Muttalib-Borodin factor series are cut once, at this cap on |x u|;
# fredholm refuses intervals past it
_ARG_MAX = 15.0


@dataclass(frozen=True)
class HardEdgeParams:
    """Index set nu_0..nu_M, M = len(nu) - 1, with symmetric-function data.

    nu[0] must be 0 (the product construction pins the first index there) and
    every nu_m must exceed -1 for integrability at the hard edge.  ``e``
    holds the elementary symmetric functions e_1..e_{M+1} of all nu's.
    """

    nu: tuple
    M: int = field(init=False)
    e: tuple = field(init=False)

    def __post_init__(self):
        nu = tuple(float(v) for v in self.nu)
        if len(nu) - 1 not in (1, 2):
            raise ValueError("only M in {1, 2} is supported")
        for m, v in enumerate(nu):
            if not np.isfinite(v):
                raise ValueError(f"nu_{m} must be finite, got {v}")
        if nu[0] != 0.0:
            raise ValueError("nu_0 must be 0")
        if any(v <= -1.0 for v in nu):
            raise ValueError("every nu_m must exceed -1")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "M", len(nu) - 1)
        object.__setattr__(self, "e", elementary_symmetric(nu))

    @classmethod
    def from_nu(cls, nu) -> "HardEdgeParams":
        return cls(nu)

    @property
    def generic(self) -> bool:
        """True when nu_2 - nu_1 is safely non-integer (M=2 requirement)."""
        if self.M != 2:
            return True
        diff = self.nu[2] - self.nu[1]
        return abs(diff - round(diff)) > _GENERIC_TOL


class KernelBundle:
    """Evaluators for the kernel functions phi_j, psi_j of K_M.

    Each phi_j and psi_j is a fixed linear combination of terms
    ``x**power * P(sign * x)`` where P is one of a few truncated power
    series.  The distinct series, followed by the derivatives of those that
    phi uses, are stacked into one coefficient array at construction, so
    phi_j, phi_j' and psi_j at every abscissa come out of a single Horner
    sweep.  Immutable after construction.
    """

    def __init__(self, params: HardEdgeParams):
        if params.M == 2 and not params.generic:
            raise ValueError(
                "nu_2 - nu_1 is within 1e-6 of an integer; the 0F2 kernel "
                "representation is not valid there")
        nu = params.nu
        # phi_j = sum_t phi_w[j, t] x**phi_pow[t] P_t(sign_t x) over the first
        # series rows; psi_j likewise over its (power, row) terms with psi_w
        if params.M == 1:
            n0, n1 = nu
            v = n1 - n0
            # J_v(2 sqrt(x)) = x^(v/2) * 0F1~(; v+1; -x)
            series = [hyp0f_reg_coefficients((v + 1.0,), N_TERMS),
                      hyp0f_reg_coefficients((v + 2.0,), N_TERMS)]
            signs = [-1.0, -1.0]
            phi_pow = [-n0, 1.0 - n0]
            psi_terms = [(n1, 0), (n1 + 1.0, 1)]
            phi_w = [[1.0, 0.0], [n0, 1.0]]
            psi_w = [[-n0, -1.0], [1.0, 0.0]]
        else:
            n0, n1, n2 = nu
            a1, a2 = n1 - n0, n2 - n0
            g12 = gamma_real(n2 - n1) * gamma_real(n1 - n2 + 1.0)
            g21 = gamma_real(n1 - n2) * gamma_real(n2 - n1 + 1.0)
            series = [hyp0f_reg_coefficients((a1 + k, a2 + k), N_TERMS)
                      for k in (1.0, 2.0, 3.0)]
            for shift in (-1.0, 0.0, 1.0):
                series += [hyp0f_reg_coefficients((a1 + shift, n1 - n2 + 1.0), N_TERMS),
                           hyp0f_reg_coefficients((a2 + shift, n2 - n1 + 1.0), N_TERMS)]
            signs = [-1.0] * 3 + [1.0] * 6
            phi_pow = [-n0, 1.0 - n0, 2.0 - n0]
            psi_terms = [(n1 if r % 2 else n2, r) for r in range(3, 9)]
            phi_w = [[-1.0, 0.0, 0.0],
                     [-n0, -1.0, 0.0],
                     [-n0 ** 2, 1.0 - 2.0 * n0, -1.0]]
            # psi_j mixes the (n1, n2) pairs at shifts -1, 0, +1
            psi_w = np.kron([[1.0, n0 - n1 - n2 + 1.0, n1 * n2],
                             [0.0, 1.0, -(n1 + n2)],
                             [0.0, 0.0, 1.0]], [g12, g21])
        coeffs = np.array(series)
        n_phi = len(phi_pow)
        deriv = coeffs[:n_phi, 1:] * np.arange(1.0, N_TERMS)
        deriv = np.hstack([deriv, np.zeros((n_phi, 1))])
        # (N_TERMS, rows, 1) against (rows, n) arguments in one Horner sweep
        self._coeffs = np.ascontiguousarray(np.vstack([coeffs, deriv]).T[:, :, None])
        self._signs = np.array(signs + signs[:n_phi])[:, None]
        self._n_series = len(series)
        self._phi_pow = np.array(phi_pow)[:, None]
        self._psi_pow = np.array([p for p, _ in psi_terms])[:, None]
        self._psi_rows = [r for _, r in psi_terms]
        self._phi_w = np.array(phi_w)
        self._psi_w = np.array(psi_w)

    def evaluate(self, x):
        """(phi, phi', psi), each of shape (M+1, len(x)), at x > 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = horner(self._coeffs, self._signs * x)
        n_phi = len(self._phi_pow)
        rows, drows = vals[:n_phi], vals[self._n_series:]
        xp = x ** self._phi_pow
        phi = self._phi_w @ (xp * rows)
        dphi = self._phi_w @ (xp * (self._phi_pow / x * rows
                                    + self._signs[:n_phi] * drows))
        psi = self._psi_w @ (x ** self._psi_pow * vals[self._psi_rows])
        return phi, dphi, psi


@functools.lru_cache(maxsize=32)
def build_kernel_bundle(params: HardEdgeParams) -> KernelBundle:
    """K_M's phi/psi evaluators, one per index set; M=2 requires generic nu."""
    return KernelBundle(params)


def kernel_value(bundle: KernelBundle, x: float, y: float) -> float:
    """K_M(x, y) for x, y > 0; the 1x1 case of ``kernel_matrix``."""
    return float(kernel_matrix(bundle, [x], [y])[0, 0])


def kernel_matrix(bundle: KernelBundle, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """K_M on the grid xs x ys, for xs, ys > 0.

    Off the diagonal K = sum_j phi_j(x) psi_j(y) / (x - y).  Pairs inside
    the relative window |x - y| < _DIAG_DELTA * max(x, y) take the exact
    limit K(x, x) = sum_j phi_j'(x) psi_j(x) at the row abscissa x, which
    holds because sum_j phi_j(x) psi_j(x) = 0.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("kernel_matrix requires x, y > 0")
    both = xs if np.array_equal(xs, ys) else np.concatenate([xs, ys])
    return _kernel_from_rows(xs, ys, *bundle.evaluate(both))


def _kernel_from_rows(xs, ys, phi, dphi, psi) -> np.ndarray:
    """``kernel_matrix`` from ``bundle.evaluate`` at xs, or at xs then ys."""
    nx = len(xs)
    psi_x, psi_y = psi[:, :nx], (psi[:, nx:] if psi.shape[1] > nx else psi)
    diag = np.sum(dphi[:, :nx] * psi_x, axis=0)
    diff = xs[:, None] - ys[None, :]
    near = np.abs(diff) < _DIAG_DELTA * np.maximum(xs[:, None], ys[None, :])
    K = (phi[:, :nx].T @ psi_y) / np.where(near, 1.0, diff)
    return np.where(near, diag[:, None], K)


@dataclass(frozen=True)
class MBParams:
    """theta = 2 Muttalib-Borodin hard-edge kernel parameters; theta is
    fixed and c an integer (see the module docstring)."""

    c: float

    def __post_init__(self):
        if not self.c > -1.0:
            raise ValueError("c must exceed -1")
        if not float(self.c).is_integer():
            raise ValueError("c must be an integer: the 16-node u-rule is "
                             "exact only where u^c is a polynomial")


@functools.lru_cache(maxsize=32)
def _wright_coefficients(c: float) -> tuple:
    """Read-only u tables of both factors, once per c, highest power first:
    UA[j, k] = a_j u_k^j w_k u_k^c and UB[m, k] = b_m u_k^(2m), with a_j and
    b_m the coefficients of W((c+1)/2, 1/2; .) and W(c+1, 2; .) cut by
    ``truncate_series`` at the argument cap, |x u| <= _ARG_MAX for A and
    (y u)^2 <= _ARG_MAX^2 for B (B's trailing terms underflow to 0.0)."""
    ca = truncate_series(wright_bessel_coefficients((c + 1.0) / 2.0, 0.5, N_TERMS),
                         _ARG_MAX)
    cb = truncate_series(wright_bessel_coefficients(c + 1.0, 2.0, N_TERMS),
                         _ARG_MAX ** 2)
    j = np.arange(len(ca))[::-1, None]
    m = np.arange(len(cb))[::-1, None]
    ua = ca[::-1, None] * _U ** j * (_WU * _U ** c)
    ub = cb[::-1, None] * _U ** (2 * m)
    ua.flags.writeable = False
    ub.flags.writeable = False
    return ua, ub


def _descending_powers(x: np.ndarray, n: int) -> np.ndarray:
    """x^(n-1), ..., x, 1 along a new leading axis, by repeated multiplication."""
    powers = np.empty((n,) + x.shape)
    powers[-1] = 1.0
    for i in range(n - 2, -1, -1):
        np.multiply(powers[i + 1], x, out=powers[i])
    return powers


def borodin_factor_tables(mb: MBParams, xs, ys) -> tuple:
    """A(x u) w u^c and B((y u)^2) on the u-rule; leading axes of xs and ys
    batch, and |x| or |y| past the cap ``_ARG_MAX`` is refused.

    Each table is a product of node powers with its per-c u table,
    A = X @ UA and B = X[even powers] @ UB, one matrix product per node row
    (so a row keeps its bits in any batch); when ys is xs one power table
    serves both.  The powers run from the highest down, so each entry sums
    its series in Horner's order: a term far under the sum's rounding is
    absorbed before the leading terms arrive, and the series cut at the cap
    gives the bits of all ``N_TERMS`` terms (measured on the table-1 columns,
    not guaranteed).  The error bound is Horner's, gamma_2N sum_j |c_j| |t|^j
    at argument t, up to a few roundings per term (Higham, section 5.1,
    bounds the power form alike).
    """
    ua, ub = _wright_coefficients(mb.c)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if max(np.abs(xs).max(initial=0.0), np.abs(ys).max(initial=0.0)) > _ARG_MAX:
        raise ValueError(f"|x|, |y| > {_ARG_MAX} is refused: the factor series "
                         "are cut at that argument cap")
    ja, jb = len(ua), 2 * len(ub) - 1
    X = _descending_powers(xs, max(ja, jb))
    Y = X if ys is xs else _descending_powers(ys, jb)
    # each leading-axis slice is a transposed (powers, nodes) matrix for BLAS
    return (np.moveaxis(X[len(X) - ja:], 0, -1) @ ua,
            np.moveaxis(Y[len(Y) - jb::2], 0, -1) @ ub)


def borodin_kernel_matrix(mb: MBParams, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """K^(c,2) on the grid xs x ys, 2 x^c A(x u) w u^c B((y u)^2) summed
    over the u-rule."""
    xs = np.asarray(xs, dtype=float)
    A, B = borodin_factor_tables(mb, xs, ys)
    return 2.0 * (xs ** mb.c)[:, None] * (A @ B.T)


def mb_params_for_hardedge(params: HardEdgeParams) -> MBParams:
    """The theta=2 Muttalib-Borodin parameters matching an M=2 index pair.

    Requires nu = (0, nu_1, nu_1 + 1/2); then c = 2 nu_1 + 1 and gap
    probabilities satisfy E_nu(0;(0,s)) = E_mb(0;(0, 2 sqrt(s))).
    """
    if params.M != 2:
        raise ValueError("the theta=2 correspondence needs M=2")
    n1, n2 = params.nu[1], params.nu[2]
    if abs(n2 - n1 - 0.5) > 1e-12:
        raise ValueError("theta=2 correspondence needs nu_2 = nu_1 + 1/2")
    return MBParams(c=2.0 * n1 + 1.0)
