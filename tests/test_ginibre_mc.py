import json
import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from hardedge.kernels import HardEdgeParams
from hardedge.fredholm import gap_probability_hardedge
from hardedge.ginibre_mc import (
    McConfig,
    _sample_one,
    sample_min_singular_sq,
    save_samples,
    empirical_gap,
    wilson_interval,
    ks_distance,
)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(M=1, N0=0, nu_int=(0,), samples=10)
    with pytest.raises(ValueError):
        McConfig(M=2, N0=1024, nu_int=(0, 0), samples=10)  # dense cap
    with pytest.raises(ValueError):
        McConfig(M=2, N0=4, nu_int=(0,), samples=10)      # wrong nu count
    with pytest.raises(ValueError):
        McConfig(M=1, N0=4, nu_int=(-1,), samples=10)
    with pytest.raises(ValueError):
        McConfig(M=1, N0=4, nu_int=(0,), samples=0)


def test_determinism_bit_identical():
    cfg = McConfig(M=2, N0=6, nu_int=(1, 2), samples=64, seed=123)
    a = sample_min_singular_sq(cfg)
    b = sample_min_singular_sq(cfg)
    assert np.array_equal(a.lambda_min, b.lambda_min)
    cfg2 = McConfig(M=2, N0=6, nu_int=(1, 2), samples=64, seed=124)
    c = sample_min_singular_sq(cfg2)
    assert not np.array_equal(a.lambda_min, c.lambda_min)


def test_single_entry_case_is_exponential():
    # N0 = 1, M = 1: lambda_min = |g|^2, exponential with mean E|g|^2
    n = 100_000
    cfg = McConfig(M=1, N0=1, nu_int=(0,), samples=n, seed=5)
    res = sample_min_singular_sq(cfg)
    mean = res.lambda_min.mean()
    assert abs(mean - 1.0) <= 3.0 / math.sqrt(n)    # exponential: sd = mean


def test_m2_smallest_eigenvalue_positive():
    cfg = McConfig(M=2, N0=2, nu_int=(0, 0), samples=200, seed=1)
    res = sample_min_singular_sq(cfg)
    assert np.all(res.lambda_min > 0)


def test_empirical_gap_is_survival_function():
    cfg = McConfig(M=1, N0=8, nu_int=(0,), samples=500, seed=2)
    res = sample_min_singular_sq(cfg)
    rows = empirical_gap(res, [0.0, 0.5, 1.0, 2.0])
    assert rows[0][1] == 1.0
    ps = [r[1] for r in rows]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    for _, p, lo, hi in rows:
        assert lo <= p <= hi


def test_m1_gap_matches_bessel_fredholm():
    cfg = McConfig(M=1, N0=50, nu_int=(0,), samples=10_000, seed=7)
    res = sample_min_singular_sq(cfg)
    params = HardEdgeParams.from_nu((0.0, 0.0))
    for s, p_hat, _, _ in empirical_gap(res, [0.5, 1.0, 2.0]):
        e = gap_probability_hardedge(params, s, target_tol=1e-9).E
        sd = math.sqrt(e * (1 - e) / cfg.samples)
        assert abs(p_hat - e) <= 3.0 * sd


def test_wilson_interval():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_ks_distance_basic():
    a = np.array([0.1, 0.2, 0.3])
    assert ks_distance(a, a) == 0.0
    b = a + 10.0
    assert ks_distance(a, b) == 1.0


@pytest.mark.parametrize("M,nu", [(1, (0,)), (2, (0, 0))])
def test_hard_edge_scaling_collapse(M, nu):
    # KS distance between scaled laws at N0 and 2 N0 shrinks with N0
    n = 3000
    lam = {}
    for n0 in (20, 40, 80):
        cfg = McConfig(M=M, N0=n0, nu_int=nu, samples=n, seed=31 + n0)
        lam[n0] = sample_min_singular_sq(cfg).lambda_min * n0
    d_small = ks_distance(lam[20], lam[40])
    d_large = ks_distance(lam[40], lam[80])
    assert d_large < d_small + 2.0 / math.sqrt(n)   # allow binomial noise


def test_save_and_load_samples(tmp_path):
    for cfg, sampler in ((McConfig(M=1, N0=5, nu_int=(2,), samples=50, seed=9),
                          "bidiagonal"),
                         (McConfig(M=2, N0=3, nu_int=(0, 1), samples=20, seed=9),
                          "dense")):
        res = sample_min_singular_sq(cfg)
        path = tmp_path / f"lam_m{cfg.M}.f64"
        save_samples(res, path)
        assert np.array_equal(np.fromfile(path, dtype="<f8"), res.lambda_min)
        sidecar = json.loads((tmp_path / f"lam_m{cfg.M}.f64.json").read_text())
        assert sidecar == {"M": cfg.M, "N0": cfg.N0, "nu_int": list(cfg.nu_int),
                           "samples": cfg.samples, "seed": 9,
                           "sampler": sampler, "dtype": "<f8",
                           "count": cfg.samples}


def _dense_m1_oracle(cfg: McConfig, seed: int) -> np.ndarray:
    """lambda_min of X^dag X for dense (N0+nu_1) x N0 complex Gaussian X.

    The M = 1 sampler before the bidiagonal model, drawn in one batch from
    an independent stream: a reference for the law, not for the bits.
    """
    n0, nu = cfg.N0, cfg.nu_int[0]
    rng = np.random.default_rng(seed)
    shape = (cfg.samples, n0 + nu, n0)
    X = math.sqrt(0.5) * (rng.standard_normal(shape)
                          + 1j * rng.standard_normal(shape))
    return np.linalg.eigvalsh(X.conj().transpose(0, 2, 1) @ X)[:, 0]


# the ids name the entries' normalization, total unit variance
@pytest.mark.parametrize("n0,nu1", [
    pytest.param(n0, nu1, id=f"{n0}-{nu1}-unit_total")
    for n0 in (5, 12) for nu1 in (0, 2)])
def test_bidiagonal_law_matches_dense_oracle(n0, nu1):
    n = 2000
    cfg = McConfig(M=1, N0=n0, nu_int=(nu1,), samples=n, seed=40 + n0 + nu1)
    lam = sample_min_singular_sq(cfg).lambda_min
    ref = _dense_m1_oracle(cfg, seed=80 + n0 + nu1)
    # two-sample KS at level 1e-3 (asymptotic Kolmogorov bound)
    crit = math.sqrt(-math.log(1e-3 / 2.0) / 2.0) * math.sqrt(2.0 / n)
    assert ks_distance(lam, ref) <= crit


def test_bidiagonal_matches_eigvalsh_tridiagonal_reference():
    # the sampler's single Gamma call and direct dstebz call give the bits of
    # two Gamma calls and scipy's eigvalsh_tridiagonal on the same stream
    for n0, nu in ((1, 0), (7, 3), (60, 0)):
        cfg = McConfig(M=1, N0=n0, nu_int=(nu,), samples=8, seed=21)
        for i in range(cfg.samples):
            rng = np.random.Generator(np.random.Philox(
                key=np.array([cfg.seed, i], dtype=np.uint64)))
            off = np.empty(2 * n0 - 1)
            off[0::2] = np.sqrt(rng.standard_gamma(np.arange(n0 + nu, nu, -1.0)))
            off[1::2] = np.sqrt(rng.standard_gamma(np.arange(n0 - 1, 0, -1.0)))
            sigma = eigvalsh_tridiagonal(
                np.zeros(2 * n0), off, select="i", select_range=(n0, n0),
                tol=2.0 * np.finfo(float).tiny)[0]
            assert _sample_one(cfg, i) == sigma * sigma


def test_m1_samples_are_per_index_streams():
    cfg = McConfig(M=1, N0=9, nu_int=(1,), samples=64, seed=77)
    lam = sample_min_singular_sq(cfg).lambda_min
    assert all(lam[i] == _sample_one(cfg, i) for i in range(cfg.samples))
    other = sample_min_singular_sq(McConfig(M=1, N0=9, nu_int=(1,),
                                            samples=64, seed=78))
    assert not np.array_equal(lam, other.lambda_min)


def test_m1_large_n0_is_exponential():
    # no N0 cap at M = 1: the exact law N0 lambda_min ~ Exp(1) at N0 = 1e4
    cfg = McConfig(M=1, N0=10_000, nu_int=(0,), samples=100, seed=3)
    res = sample_min_singular_sq(cfg)
    for s, _, lo, hi in empirical_gap(res, [0.5, 1.0, 2.0]):
        assert lo <= math.exp(-s) <= hi
