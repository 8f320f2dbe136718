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
Every theta = 2 Muttalib-Borodin log-determinant comes from
``mb_logdet_column``, as a 16 x 16 determinant by Sylvester's identity.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# borodin_kernel_matrix stays bound here for perfbench to wrap
from .kernels import (KernelBundle, MBParams, build_kernel_bundle,  # noqa: F401
                      kernel_matrix, borodin_factor_tables, borodin_kernel_matrix,
                      _ARG_MAX)

__all__ = ["QuadratureRule", "make_rule", "hardedge_rule", "fredholm_det",
           "GapPoint", "gap_probability_mb", "mb_logdet_column",
           "gap_probability_hardedge", "NonConvergedError"]

# node doubling runs from _N_START up to the cap _N_MAX
_N_START = 16
_N_MAX = 256
# log-determinants past this interval length underflow double precision; the
# Muttalib-Borodin factor series are cut at the same cap on their argument
_R_MAX = _ARG_MAX


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


def hardedge_rule(n: int, s: float) -> tuple:
    """(rule, x, jac): the n-point rule on t in (0, 2 sqrt(s)), x = (t/2)^2 on
    (0, s) and the Jacobian t/2 that K(x, x) takes on its columns; the one
    discretization of ``gap_probability_hardedge`` and the flow's launch."""
    rule = make_rule(n, 2.0 * math.sqrt(s))
    half = rule.nodes / 2.0
    return rule, half ** 2, half


def _checked_logdet(sign, logdet) -> float:
    """log det from one slogdet entry; refuses a zero, non-finite or negative det."""
    if sign == 0:
        raise FloatingPointError("factorization singular to working precision")
    if not math.isfinite(logdet):
        raise FloatingPointError(f"Fredholm log-determinant is not finite ({logdet})")
    if sign < 0:
        raise FloatingPointError("Fredholm determinant lost positivity")
    return float(logdet)


def fredholm_det(K, rule: QuadratureRule) -> float:
    """log det(1 - K) discretized on the rule.

    K is the (n, n) kernel matrix on the rule's nodes, any change of
    variables already in it.  A determinant that is zero to working
    precision, non-finite (a NaN or inf in K) or negative raises
    FloatingPointError.
    """
    sw = np.sqrt(rule.weights)
    # a one-matrix stack: a 2-D slogdet's casts of its scalar results grew
    # traced memory by kilobytes over repeated flow launches (numpy 2.4)
    (sign,), (logdet,) = np.linalg.slogdet(
        (np.eye(rule.n) - sw[:, None] * K * sw[None, :])[None])
    return _checked_logdet(sign, logdet)


@dataclass(frozen=True)
class GapPoint:
    """A converged gap probability: E, log E, the node count that met the
    tolerance and the last node-doubling step |delta log E|."""

    E: float
    logE: float
    node_count_used: int
    est_error: float


def _converge_logdet(logdet_at, target_tol: float):
    """Double n until |delta logdet_at(n)| < target_tol; return (logdet, n, est)."""
    if not target_tol > 0:
        raise ValueError(f"target_tol must be positive, got {target_tol}")
    prev = None
    n = _N_START
    while n <= _N_MAX:
        try:
            logdet = logdet_at(n)
        except FloatingPointError as exc:
            raise NonConvergedError(f"{exc} at {n} nodes") from exc
        if prev is not None and abs(logdet - prev) < target_tol:
            return logdet, n, abs(logdet - prev)
        prev = logdet
        n *= 2
    raise NonConvergedError(
        f"no convergence to {target_tol} within {_N_MAX} nodes")


def gap_probability_mb(mb: MBParams, r: float, target_tol: float = 1e-9) -> GapPoint:
    """E^(c,2)(0;(0,r)) via the theta = 2 Muttalib-Borodin kernel determinant."""

    def logdet_at(n):
        (logdet,) = mb_logdet_column(mb, [r], n)
        if isinstance(logdet, FloatingPointError):
            raise logdet
        return logdet

    logdet, n, est = _converge_logdet(logdet_at, target_tol)
    return GapPoint(math.exp(logdet), logdet, n, est)


def mb_logdet_column(mb: MBParams, rs, n: int) -> list:
    """log det(1 - K^(c,2)) on (0, r) at n nodes for every r in rs; a
    refused r's entry is its ``FloatingPointError``.

    K^(c,2) = diag(2 x^c) A B^T with A, B the (n, 16) factor tables, so on a
    rule with weights w, det(I_n - W K) = det(I_16 - G), G = B^T diag(2 w x^c) A.
    One power table of the column's nodes, one product of it with each
    factor's u table (series cut at the r <= 15 cap) and one slogdet over
    the (len(rs), 16, 16) stack give every entry; a single-r call gives its
    column entry bit for bit.
    """
    if not min(rs) > 0:
        raise ValueError("r must be positive")
    if max(rs) > _R_MAX:
        raise ValueError(f"r > {_R_MAX} is refused: E underflows double precision")
    rules = [make_rule(n, float(r)) for r in rs]
    nodes = np.array([rule.nodes for rule in rules])
    weights = np.array([rule.weights for rule in rules])
    A, B = borodin_factor_tables(mb, nodes, nodes)
    G = np.swapaxes(B, 1, 2) @ ((2.0 * weights * nodes ** mb.c)[:, :, None] * A)
    column = []
    for sign, logdet in zip(*np.linalg.slogdet(np.eye(G.shape[-1]) - G)):
        try:
            column.append(_checked_logdet(sign, logdet))
        except FloatingPointError as exc:
            column.append(exc)
    return column


def gap_probability_hardedge(params_or_bundle, s: float,
                             target_tol: float = 1e-9) -> GapPoint:
    """E_M(0;(0,s)) by Nystrom discretization of K_M with node doubling.

    Every M is discretized on ``hardedge_rule``: x = (t/2)^2 on
    (0, 2 sqrt(s)), with the Jacobian u/2 on the kernel's columns.  The
    endpoint factors y^{nu_j} of K_M become (u/2)^{2 nu_j}, so with every
    2 nu_j an integer the discretized kernel is analytic and node doubling
    converges exponentially.  Other index sets keep an algebraic endpoint
    factor, converge slowly and may hit the node cap.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"s must be positive and finite, got {s}")
    bundle = (params_or_bundle if isinstance(params_or_bundle, KernelBundle)
              else build_kernel_bundle(params_or_bundle))

    def logdet_at(n):
        rule, x, jac = hardedge_rule(n, s)
        return fredholm_det(kernel_matrix(bundle, x, x) * jac, rule)

    logdet, n, est = _converge_logdet(logdet_at, target_tol)
    return GapPoint(math.exp(logdet), logdet, n, est)
