"""Monte Carlo sampling of the smallest squared singular value.

Samples the smallest eigenvalue of Y^dag Y for a product
Y = X_M ... X_1 of rectangular complex Gaussian matrices and compares
hard-edge-scaled empirical gap probabilities P(lambda_min > s/N_0) against
analytic curves.

Matrix model: Y has the singular values of the N_0 x N_0 upper-triangular
T = R_M ... R_2 B_1, so no Gaussian factor is drawn densely.

* B_1 is the Dumitriu-Edelman beta=2 bidiagonal (J. Math. Phys. 43
  (2002), math-ph/0206043) with a_j^2 ~ Gamma(N_0+nu_1-j) on the diagonal
  and b_j^2 ~ Gamma(N_0-1-j) above it: X_1 = U B_1 V^dag.
* Each R_m is the Bartlett triangular factor of an (N_0+nu_m) x N_0
  complex Gaussian: |r_jj|^2 ~ Gamma(N_0+nu_m-j), strictly upper entries
  CN(0, 1).  X_m U is again Gaussian for a unitary U independent of X_m,
  so the factors' unitaries are absorbed one by one (Akemann, Ipsen &
  Kieburg, PRE 88 (2013), arXiv:1307.7560), and a factor costs
  N_0 (N_0-1) normals instead of 2 N_0 (N_0+nu_m).

M = 1: sigma_min(B_1) is eigenvalue N_0 (zero-based) of the 2N_0 x 2N_0
Golub-Kahan tridiagonal (zero diagonal, off-diagonal a_0, b_0, a_1, b_1,
...), found by bisection to high relative accuracy in O(N_0) per step, so
N_0 is not capped.

M >= 2: lambda_min = 1/lambda_max(A) with A = T^-1 T^-dag, from LAPACK
ztrtri and zlauum; Y^dag Y is never formed, so lambda_min keeps its
relative accuracy as M grows, where the Gram route loses digits.  Power
iteration on A returns lambda_max when a Kato-Temple bound certifies it;
otherwise ``numpy.linalg.eigvalsh`` of the same A does.

The BLAS and LAPACK routines come from ``scipy.linalg``, imported by the
functions that call them, so importing hardedge does not load it.

Reproducibility: every sample runs on its own Philox counter-based stream
keyed by (seed, sample index), so results are bit-identical regardless of
execution order and safe to parallelize by index.  The sample sidecar names
the sampler, because different matrix models draw different streams from
the same seed.

Normalization: matrix entries have total unit variance (real and imaginary
parts of variance 1/2 each), the normalization of the hard-edge kernels;
it is calibrated against the one-matrix Bessel law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "McConfig",
    "McResult",
    "sample_min_singular_sq",
    "empirical_gap",
    "wilson_interval",
    "ks_distance",
]

# M >= 2 inverts an N_0 x N_0 triangle and forms A = T^-1 T^-dag, O(N_0^3)
# per sample; the bidiagonal M = 1 sampler has no cap
_N0_MAX = 512
# bisection absolute tolerance at twice the underflow threshold: the
# Golub-Kahan eigenvalues then converge to a few ulps relative
_ABSTOL = 2.0 * np.finfo(float).tiny
# power iteration: the certified relative error of lambda_max(A), and the
# steps tried before eigvalsh takes over
_POWER_RTOL = 1e-13
_POWER_STEPS = 50
_U64 = 0xFFFFFFFFFFFFFFFF
# a freshly keyed Philox: counter 0 and an empty output buffer
_PHILOX_ZERO = np.zeros(4, dtype=np.uint64)
_PHILOX_ZERO.flags.writeable = False


def _integer(name: str, value) -> int:
    """``value`` as an int; floats and bools are refused, not truncated."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class McConfig:
    """Sampler configuration; nu_int are the integer index offsets nu_1..nu_M."""

    M: int
    N0: int
    nu_int: tuple
    samples: int
    seed: int = 0

    def __post_init__(self):
        for name in ("M", "N0", "samples", "seed"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.N0 < 1:
            raise ValueError("N0 must be >= 1")
        if self.M >= 2 and self.N0 > _N0_MAX:
            raise ValueError(f"N0 must lie in [1, {_N0_MAX}] for M >= 2")
        nu = tuple(_integer("nu_int", v) for v in self.nu_int)
        if len(nu) != self.M:
            raise ValueError(f"expected {self.M} integer indices")
        if any(v < 0 for v in nu):
            raise ValueError("nu_int must be non-negative integers")
        object.__setattr__(self, "nu_int", nu)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    @property
    def dims(self) -> tuple:
        return (self.N0,) + tuple(self.N0 + v for v in self.nu_int)

    @property
    def sampler(self) -> str:
        """The matrix model the samples come from: "bidiagonal" or "triangular"."""
        return "bidiagonal" if self.M == 1 else "triangular"


@dataclass
class McResult:
    """Sampled smallest eigenvalues of Y^dag Y."""

    config: McConfig
    lambda_min: np.ndarray

    def __post_init__(self):
        if np.any(self.lambda_min <= 0):
            raise ValueError("smallest eigenvalues must be positive")


def _rng(seed: int, index: int,
         gen: np.random.Generator | None = None) -> np.random.Generator:
    """The Philox stream keyed (seed mod 2^64, index), at counter 0.

    Resets ``gen``'s bit generator in place (a new one if None) to the state
    ``Philox(key=...)`` starts in: the same stream, at a fraction of the cost
    of constructing a bit generator.
    """
    if gen is None:
        gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZERO,
                  "key": np.array([seed & _U64, index], dtype=np.uint64)},
        "buffer": _PHILOX_ZERO, "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen


def _factors(rng: np.random.Generator, n0: int, nu: tuple) -> tuple:
    """(a, b, [R_2, ..., R_M]): B_1's diagonal and superdiagonal, and the
    triangular factors (none at M = 1).

    One Gamma call draws a, b and every R_m's diagonal, in that order; one
    normal call then draws every R_m's strictly upper entries, row by row.
    """
    shapes = [np.arange(n0 + nu[0], nu[0], -1.0), np.arange(n0 - 1, 0, -1.0)]
    shapes += [np.arange(n0 + v, v, -1.0) for v in nu[1:]]
    g = np.sqrt(rng.standard_gamma(np.concatenate(shapes)))
    a, b, diagonals = g[:n0], g[n0:2 * n0 - 1], g[2 * n0 - 1:]
    rs = []
    if len(nu) > 1:
        k = n0 * (n0 - 1) // 2
        z = math.sqrt(0.5) * rng.standard_normal((len(nu) - 1, 2, k))
        upper = ~np.tri(n0, dtype=bool)
        for m in range(len(nu) - 1):
            r = np.zeros((n0, n0), dtype=complex)
            r[upper] = z[m, 0] + 1j * z[m, 1]
            r.flat[::n0 + 1] = diagonals[m * n0:(m + 1) * n0]
            rs.append(r)
    return a, b, rs


def _bidiagonal_lambda_min(a: np.ndarray, b: np.ndarray) -> float:
    """sigma_min^2 of the upper bidiagonal with diagonal a, superdiagonal b.

    LAPACK's dstebz is the bisection behind
    ``scipy.linalg.eigvalsh_tridiagonal(select="i")``, called directly: the
    wrapper's argument checks cost more than the bisection at small n0.
    """
    from scipy.linalg.lapack import dstebz
    n0 = a.size
    off = np.empty(2 * n0 - 1)
    off[0::2] = a
    off[1::2] = b
    # range 2 selects by one-based index: eigenvalue n0 + 1 is +sigma_min
    _, w, _, _, info = dstebz(np.zeros(2 * n0), off, 2, 0.0, 0.0,
                              n0 + 1, n0 + 1, _ABSTOL, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz bisection failed (info={info})")
    return float(w[0] * w[0])


def _upper_product(a: np.ndarray, b: np.ndarray, rs: list) -> np.ndarray:
    """T = R_M ... R_2 B_1, upper triangular with an exactly zero lower part.

    R_2 B_1 takes O(N_0^2): column j is a_j R[:, j] + b_{j-1} R[:, j-1].
    """
    from scipy.linalg.blas import ztrmm
    r = rs[0]
    t = r * a
    t[:, 1:] += r[:, :-1] * b
    for r in rs[1:]:
        t = ztrmm(1.0, r, t)
    return t


def _upper_lambda_min(t: np.ndarray) -> float:
    """sigma_min(t)^2 for an upper-triangular t whose strict lower part is 0.

    With A = t^-1 t^-dag (ztrtri, then zlauum for A's upper triangle),
    sigma_min^2 = 1/lambda_max(A).  Power iteration on A starts from its
    column with the largest diagonal entry.  Each step has the Rayleigh
    quotient mu <= lambda_max and the residual r = |A v - mu v|; as
    lambda_2^2 <= |A|_F^2 - mu^2, delta = mu - sqrt(|A|_F^2 - mu^2) bounds
    mu - lambda_2 from below.  When delta > r, the eigenvalue within r of mu
    is lambda_max, and Kato-Temple gives lambda_max - mu <= r^2/delta; mu is
    returned once that is at most _POWER_RTOL mu.  After _POWER_STEPS
    uncertified steps, ``numpy.linalg.eigvalsh`` of the same A decides.
    """
    from scipy.linalg.blas import zhemv
    from scipy.linalg.lapack import zlauum, ztrtri
    inv, info = ztrtri(t)
    if info:
        raise np.linalg.LinAlgError(
            f"ztrtri: triangular factor is singular (info={info})")
    A, _ = zlauum(inv, overwrite_c=1)   # upper triangle; the lower stays 0
    flat = A.ravel(order="K")
    d = A.diagonal().real
    f2 = float(2.0 * np.vdot(flat, flat).real - d @ d)
    k = int(np.argmax(d))
    v = np.concatenate((A[:k + 1, k], A[k, k + 1:].conj()))
    v /= math.sqrt(np.vdot(v, v).real)
    for _ in range(_POWER_STEPS):
        w = zhemv(1.0, A, v)
        mu = float(np.vdot(v, w).real)
        res = w - mu * v
        r = math.sqrt(np.vdot(res, res).real)
        delta = mu - math.sqrt(max(f2 - mu * mu, 0.0))
        if delta > r and r * r <= _POWER_RTOL * mu * delta:
            return 1.0 / mu
        v = w / math.sqrt(np.vdot(w, w).real)
    return float(1.0 / np.linalg.eigvalsh(A, UPLO="U")[-1])


def _sample_one(cfg: McConfig, index: int,
                gen: np.random.Generator | None = None) -> float:
    """lambda_min of sample ``index``; ``gen`` is reset, not reseeded."""
    a, b, rs = _factors(_rng(cfg.seed, index, gen), cfg.N0, cfg.nu_int)
    if not rs:
        return _bidiagonal_lambda_min(a, b)
    return _upper_lambda_min(_upper_product(a, b, rs))


def sample_min_singular_sq(cfg: McConfig) -> McResult:
    """Draw cfg.samples independent products; deterministic given the seed."""
    gen = np.random.Generator(np.random.Philox(key=0))
    lam = np.array([_sample_one(cfg, i, gen) for i in range(cfg.samples)])
    return McResult(config=cfg, lambda_min=lam)


def wilson_interval(k: int, n: int, z: float = 2.5758293035489004) -> tuple:
    """Wilson score interval for a binomial proportion (default 99%)."""
    if n == 0:
        raise ValueError("empty sample")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _checked_s_grid(s_grid) -> list:
    """s_grid as floats; a non-positive or non-finite s is refused by value."""
    for s in map(float, s_grid):
        if not 0 < s < math.inf:
            raise ValueError(f"s must be positive and finite, got {s}")
    return [float(s) for s in s_grid]


def empirical_gap(result: McResult, s_grid) -> list:
    """[(s, p_hat, ci_low, ci_high)]: empirical P(lambda_min > s/N0)."""
    lam = result.lambda_min
    out = []
    n = lam.size
    for s in _checked_s_grid(s_grid):
        k = int(np.count_nonzero(lam > s / result.config.N0))
        lo, hi = wilson_interval(k, n)
        out.append((s, k / n, lo, hi))
    return out


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def save_samples(result: McResult, path) -> None:
    """Persist raw samples as flat little-endian float64 plus a JSON sidecar.

    The sidecar (same path with ".json" appended) records the full sampler
    configuration and the matrix model, so the binary stream is reproducible
    bit for bit.
    """
    import json
    from pathlib import Path

    path = Path(path)
    result.lambda_min.astype("<f8").tofile(path)
    cfg = result.config
    sidecar = {
        "M": cfg.M, "N0": cfg.N0, "nu_int": list(cfg.nu_int),
        "samples": cfg.samples, "seed": cfg.seed, "sampler": cfg.sampler,
        "dtype": "<f8", "count": int(result.lambda_min.size),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")

