"""Nystrom evaluation of Fredholm determinants det(1 - K) on (0, L).

The integral operator is discretized on an n-point Gauss-Legendre rule as
``D_ij = sqrt(w_i w_j) K(x_i, x_j)`` (valid for non-symmetric kernels) and
only the log-determinant of ``I - D`` is kept, from one
``numpy.linalg.slogdet`` call, so gap probabilities down to ~1e-12 survive
without underflow.  Node doubling from 16 nodes stops when
two successive log-determinants agree to the requested tolerance; the error
then falls exponentially in n whenever the discretized kernel is analytic on
the closed interval (Bornemann, Math. Comp. 79 (2010), arXiv:0804.2543).
The reference rule on (-1, 1) is built once per n and shared by every call
that asks for n nodes; only its scaling to (0, b) is computed per call.
``mb_logdet_column`` takes a Muttalib-Borodin table column (one c and n, every
r) from one batched factor-table sweep, then one K and one slogdet per r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    KernelBundle,
    MBParams,
    build_kernel_bundle,
    kernel_matrix,
    borodin_factor_tables,
    borodin_kernel_matrix,
)

__all__ = [
    "QuadratureRule",
    "make_rule",
    "fredholm_det",
    "GapPoint",
    "gap_probability_mb",
    "mb_logdet_column",
    "gap_probability_hardedge",
    "NonConvergedError",
]

# node doubling runs from _N_START up to the cap _N_MAX
_N_START = 16
_N_MAX = 256
# log-determinants past this interval length underflow double precision
_R_MAX = 15.0


class NonConvergedError(RuntimeError):
    """Node doubling hit the cap, or a determinant was refused (zero,
    non-finite or negative), before reaching the requested tolerance."""


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and weights; nodes are strictly interior."""

    n: int
    nodes: np.ndarray
    weights: np.ndarray


@functools.lru_cache(maxsize=32)
def _reference_rule(n: int) -> tuple:
    """Read-only Gauss-Legendre (nodes, weights) on (-1, 1), built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def make_rule(n: int, b: float) -> QuadratureRule:
    """The n-point Gauss-Legendre rule (degree 2n-1 exact) mapped to (0, b).

    The rule on (-1, 1) comes from a per-n cache, so repeated calls (node
    doubling, table cells) pay only for the scaling.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not b > 0:
        raise ValueError("need b > 0")
    x, w = _reference_rule(n)
    return QuadratureRule(n, 0.5 * b * x + 0.5 * b, 0.5 * b * w)


def fredholm_det(kernel, rule: QuadratureRule) -> float:
    """log det(1 - K) discretized on the rule.

    ``kernel(xs, ys)`` must return the matrix K(xs_i, ys_j) for 1-D node
    arrays.  A determinant that is zero to working precision, non-finite
    (a NaN or inf in K) or negative (the discretized operator left the
    physical regime) raises FloatingPointError.
    """
    K = np.asarray(kernel(rule.nodes, rule.nodes), dtype=float)
    sw = np.sqrt(rule.weights)
    sign, logdet = np.linalg.slogdet(np.eye(rule.n) - sw[:, None] * K * sw[None, :])
    if sign == 0:
        raise FloatingPointError("factorization singular to working precision")
    if not math.isfinite(logdet):
        raise FloatingPointError(f"Fredholm log-determinant is not finite ({logdet})")
    if sign < 0:
        raise FloatingPointError("Fredholm determinant lost positivity")
    return float(logdet)


@dataclass(frozen=True)
class GapPoint:
    """A converged gap probability: E, log E, the node count that met the
    tolerance and the last node-doubling step |delta log E|."""

    E: float
    logE: float
    node_count_used: int
    est_error: float


def _converge_logdet(kernel_fn, interval_len: float, target_tol: float):
    """Double n until |delta logdet| < target_tol; return (logdet, n, est)."""
    prev = None
    n = _N_START
    while n <= _N_MAX:
        try:
            logdet = fredholm_det(kernel_fn, make_rule(n, interval_len))
        except FloatingPointError as exc:
            raise NonConvergedError(f"{exc} at {n} nodes") from exc
        if prev is not None and abs(logdet - prev) < target_tol:
            return logdet, n, abs(logdet - prev)
        prev = logdet
        n *= 2
    raise NonConvergedError(
        f"no convergence to {target_tol} within {_N_MAX} nodes")


def _check_mb_interval(r: float) -> None:
    if not r > 0:
        raise ValueError("r must be positive")
    if r > _R_MAX:
        raise ValueError(f"r > {_R_MAX} is refused: E underflows double precision")


def gap_probability_mb(mb: MBParams, r: float, target_tol: float = 1e-9) -> GapPoint:
    """E^(c,2)(0;(0,r)) via the theta = 2 Muttalib-Borodin kernel determinant."""
    _check_mb_interval(r)
    kernel = functools.partial(borodin_kernel_matrix, mb)
    logdet, n, est = _converge_logdet(kernel, r, target_tol)
    return GapPoint(math.exp(logdet), logdet, n, est)


def mb_logdet_column(mb: MBParams, rs, n: int) -> list:
    """log det(1 - K^(c,2)) on (0, r) at n nodes for every r in rs, from one
    batched Horner sweep per factor over series cut to the largest r; a
    refused r's entry is its ``FloatingPointError``.

    On the table-1 columns every entry equals its own ``fredholm_det`` call
    and the full-series column bit for bit.  That is measured, not
    guaranteed: the guarantee is the Horner bound on each factor.
    """
    _check_mb_interval(max(rs))
    rules = [make_rule(n, float(r)) for r in rs]
    nodes = np.array([rule.nodes for rule in rules])
    column = []
    for rule, A, B in zip(rules, *borodin_factor_tables(mb, nodes, nodes)):
        kernel = functools.partial(borodin_kernel_matrix, mb, tables=(A, B))
        try:
            column.append(fredholm_det(kernel, rule))
        except FloatingPointError as exc:
            column.append(exc)
    return column


def gap_probability_hardedge(params_or_bundle, s: float,
                             target_tol: float = 1e-9) -> GapPoint:
    """E_M(0;(0,s)) by Nystrom discretization of K_M with node doubling.

    Every M goes through the substitution x = (t/2)^2 on (0, 2 sqrt(s)),
    where the kernel picks up the Jacobian u/2.  The endpoint factors
    y^{nu_j} of K_M become (u/2)^{2 nu_j}, so with every 2 nu_j an integer
    the discretized kernel is analytic and node doubling converges
    exponentially.  Other index sets keep an algebraic endpoint factor,
    converge slowly and may hit the node cap.
    """
    if not s > 0:
        raise ValueError("s must be positive")
    if isinstance(params_or_bundle, KernelBundle):
        bundle = params_or_bundle
    else:
        bundle = build_kernel_bundle(params_or_bundle)

    def kfn(ts, us):
        return kernel_matrix(bundle, (ts / 2.0) ** 2, (us / 2.0) ** 2) * (us / 2.0)

    logdet, n, est = _converge_logdet(kfn, 2.0 * math.sqrt(s), target_tol)
    return GapPoint(math.exp(logdet), logdet, n, est)
