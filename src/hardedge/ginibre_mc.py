"""Monte Carlo sampling of the smallest squared singular value.

Samples the smallest eigenvalue of Y^dag Y for a product
Y = X_M ... X_1 of rectangular complex Gaussian matrices and compares
hard-edge-scaled empirical gap probabilities P(lambda_min > s/N_0) against
analytic curves.

Samplers:

* M = 1 uses the Dumitriu-Edelman beta=2 bidiagonal model (J. Math. Phys.
  43 (2002), math-ph/0206043): X has the singular values of an N_0 x N_0
  upper bidiagonal B with a_j^2 ~ Gamma(N_0+nu_1-j) on the diagonal and
  b_j^2 ~ Gamma(N_0-1-j) above it.  sigma_min(B) is eigenvalue N_0
  (zero-based) of the 2N_0 x 2N_0 Golub-Kahan tridiagonal (zero diagonal,
  off-diagonal a_0, b_0, a_1, b_1, ...), found by bisection to high
  relative accuracy, so B^T B is never formed and lambda_min stays
  positive.  Cost is O(N_0) per bisection step instead of O(N_0^3), so
  N_0 is not capped here.
* M >= 2 draws every factor densely, forms the product and takes the
  smallest eigenvalue of Y^dag Y with ``numpy.linalg.eigvalsh``
  (N_0 <= 512).

Reproducibility: every sample runs on its own Philox counter-based stream
keyed by (seed, sample index), so results are bit-identical regardless of
execution order and safe to parallelize by index.  The sample sidecar names
the sampler, because the two draw different streams from the same seed.

Variance conventions: the hard-edge kernel normalization corresponds to
matrix entries of total unit variance ("unit_total", real and imaginary
parts of variance 1/2 each; calibrated against the one-matrix Bessel law).
"unit_component" draws both parts with unit variance, which inflates each
eigenvalue by 2 per factor; empirical_gap removes the 2^M before scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstebz

__all__ = [
    "McConfig",
    "McResult",
    "sample_min_singular_sq",
    "empirical_gap",
    "wilson_interval",
    "ks_distance",
]

# the dense product (M >= 2) is O(N_0^3) per sample; the bidiagonal M = 1
# sampler has no cap
_N0_MAX = 512
# bisection absolute tolerance at twice the underflow threshold: the
# Golub-Kahan eigenvalues then converge to a few ulps relative
_ABSTOL = 2.0 * np.finfo(float).tiny


@dataclass(frozen=True)
class McConfig:
    """Sampler configuration; nu_int are the integer index offsets nu_1..nu_M."""

    M: int
    N0: int
    nu_int: tuple
    samples: int
    seed: int = 0
    variance_convention: str = "unit_total"

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.N0 < 1:
            raise ValueError("N0 must be >= 1")
        if self.M >= 2 and self.N0 > _N0_MAX:
            raise ValueError(f"N0 must lie in [1, {_N0_MAX}] for M >= 2")
        nu = tuple(int(v) for v in self.nu_int)
        if len(nu) != self.M:
            raise ValueError(f"expected {self.M} integer indices")
        if any(v < 0 for v in nu):
            raise ValueError("nu_int must be non-negative integers")
        object.__setattr__(self, "nu_int", nu)
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.variance_convention not in ("unit_total", "unit_component"):
            raise ValueError("unknown variance convention")

    @property
    def dims(self) -> tuple:
        return (self.N0,) + tuple(self.N0 + v for v in self.nu_int)

    @property
    def sampler(self) -> str:
        """The matrix model the samples come from: "bidiagonal" or "dense"."""
        return "bidiagonal" if self.M == 1 else "dense"


@dataclass
class McResult:
    """Sampled smallest eigenvalues of Y^dag Y."""

    config: McConfig
    lambda_min: np.ndarray

    def __post_init__(self):
        if np.any(self.lambda_min <= 0):
            raise ValueError("smallest eigenvalues must be positive")


def _bidiagonal_lambda_min(rng: np.random.Generator, n0: int, nu: int) -> float:
    """lambda_min of X^dag X, X (n0+nu) x n0 complex Gaussian (unit_total).

    Draws the bidiagonal's squared diagonal, then its squared off-diagonal,
    in one Gamma call.  LAPACK's dstebz is the bisection behind
    ``scipy.linalg.eigvalsh_tridiagonal(select="i")``, called directly: the
    wrapper's argument checks cost more than the bisection at small n0.
    """
    shapes = np.concatenate([np.arange(n0 + nu, nu, -1.0),
                             np.arange(n0 - 1, 0, -1.0)])
    ab = np.sqrt(rng.standard_gamma(shapes))
    off = np.empty(2 * n0 - 1)
    off[0::2] = ab[:n0]
    off[1::2] = ab[n0:]
    # range 2 selects by one-based index: eigenvalue n0 + 1 is +sigma_min
    _, w, _, _, info = dstebz(np.zeros(2 * n0), off, 2, 0.0, 0.0,
                              n0 + 1, n0 + 1, _ABSTOL, "E")
    if info:
        raise np.linalg.LinAlgError(f"dstebz bisection failed (info={info})")
    return float(w[0] * w[0])


def _sample_one(cfg: McConfig, index: int) -> float:
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, index],
                     dtype=np.uint64)))
    if cfg.M == 1:
        lam = _bidiagonal_lambda_min(rng, cfg.N0, cfg.nu_int[0])
        return lam if cfg.variance_convention == "unit_total" else 2.0 * lam
    dims = cfg.dims
    scale = math.sqrt(0.5) if cfg.variance_convention == "unit_total" else 1.0
    Y = None
    for m in range(1, cfg.M + 1):
        shape = (dims[m], dims[m - 1])
        X = scale * (rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
        Y = X if Y is None else X @ Y
    gram = Y.conj().T @ Y
    return float(np.linalg.eigvalsh(gram)[0])


def sample_min_singular_sq(cfg: McConfig) -> McResult:
    """Draw cfg.samples independent products; deterministic given the seed."""
    lam = np.array([_sample_one(cfg, i) for i in range(cfg.samples)])
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


def empirical_gap(result: McResult, s_grid) -> list:
    """[(s, p_hat, ci_low, ci_high)]: empirical P(lambda_min > s/N0).

    Applies the 2^M eigenvalue rescaling when the samples were drawn under
    the unit_component convention, so both conventions estimate the same
    scaled law.
    """
    cfg = result.config
    lam = result.lambda_min
    if cfg.variance_convention == "unit_component":
        lam = lam / 2.0 ** cfg.M
    out = []
    n = lam.size
    for s in s_grid:
        k = int(np.count_nonzero(lam > s / cfg.N0))
        lo, hi = wilson_interval(k, n)
        out.append((float(s), k / n, lo, hi))
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
        "samples": cfg.samples, "seed": cfg.seed,
        "variance_convention": cfg.variance_convention,
        "sampler": cfg.sampler,
        "dtype": "<f8", "count": int(result.lambda_min.size),
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_samples(path) -> McResult:
    """Rebuild an McResult from a binary sample file and its sidecar.

    Refuses a sidecar whose "sampler" is not the one this code uses for its
    M.  An M = 1 sidecar without the field was drawn from the dense stream,
    which this code no longer reproduces; M >= 2 files without it are dense.
    """
    import json
    from pathlib import Path

    path = Path(path)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    cfg = McConfig(M=sidecar["M"], N0=sidecar["N0"],
                   nu_int=tuple(sidecar["nu_int"]), samples=sidecar["samples"],
                   seed=sidecar["seed"],
                   variance_convention=sidecar["variance_convention"])
    sampler = sidecar.get("sampler", None if cfg.M == 1 else "dense")
    if sampler != cfg.sampler:
        raise ValueError(
            f"sidecar field 'sampler' is {sampler!r}, but M={cfg.M} samples "
            f"come from the {cfg.sampler!r} sampler, so the file cannot be "
            "reproduced")
    lam = np.fromfile(path, dtype=sidecar["dtype"])
    if lam.size != sidecar["count"]:
        raise ValueError("sample file length disagrees with its sidecar")
    return McResult(config=cfg, lambda_min=lam)
