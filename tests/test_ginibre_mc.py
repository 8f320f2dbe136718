import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

import hardedge
from hardedge.ginibre_mc import (
    McConfig,
    _factors,
    _rng,
    _sample_one,
    _upper_lambda_min,
    _upper_product,
    sample_min_singular_sq,
    save_samples,
    empirical_gap,
    wilson_interval,
    ks_distance,
)


def test_scipy_linalg_loaded_at_first_sample():
    # a fresh interpreter: importing the package leaves scipy.linalg out, the
    # first Monte Carlo batch brings it in
    code = "\n".join([
        "import sys",
        "import hardedge, hardedge.cli",
        "assert 'scipy.linalg' not in sys.modules",
        "hardedge.sample_min_singular_sq(hardedge.McConfig(M=2, N0=4,"
        " nu_int=(0, 0), samples=2))",
        "assert 'scipy.linalg' in sys.modules",
    ])
    src = str(Path(hardedge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(M=1, N0=0, nu_int=(0,), samples=10)
    with pytest.raises(ValueError):
        McConfig(M=2, N0=1024, nu_int=(0, 0), samples=10)  # M >= 2 cap
    with pytest.raises(ValueError):
        McConfig(M=2, N0=4, nu_int=(0,), samples=10)      # wrong nu count
    with pytest.raises(ValueError):
        McConfig(M=1, N0=4, nu_int=(-1,), samples=10)
    with pytest.raises(ValueError):
        McConfig(M=1, N0=4, nu_int=(0,), samples=0)


@pytest.mark.parametrize("field, kwargs", [
    pytest.param("nu_int", dict(M=1, N0=4, nu_int=(0.5,), samples=10),
                 id="nu-half"),
    pytest.param("nu_int", dict(M=2, N0=4, nu_int=(1.9, True), samples=10),
                 id="nu-float-bool"),
    pytest.param("nu_int", dict(M=2, N0=4, nu_int=(1, True), samples=10),
                 id="nu-bool"),
    pytest.param("N0", dict(M=1, N0=4.0, nu_int=(0,), samples=10),
                 id="N0-float"),
    pytest.param("samples", dict(M=1, N0=4, nu_int=(0,), samples=2.5),
                 id="samples-float"),
    pytest.param("M", dict(M=1.0, N0=4, nu_int=(0,), samples=10),
                 id="M-float"),
    pytest.param("seed", dict(M=1, N0=4, nu_int=(0,), samples=10, seed=0.5),
                 id="seed-float"),
])
def test_config_refuses_non_integers(field, kwargs):
    # refused by name, never truncated
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        McConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = McConfig(M=np.int64(2), N0=np.int32(4),
                   nu_int=np.array([0, 3], dtype=np.uint8),
                   samples=np.int16(5), seed=np.uint64(2 ** 63 + 7))
    assert cfg == McConfig(M=2, N0=4, nu_int=(0, 3), samples=5,
                           seed=2 ** 63 + 7)
    assert all(type(v) is int for v in
               (cfg.M, cfg.N0, cfg.samples, cfg.seed) + cfg.nu_int)


def test_determinism_bit_identical():
    cfg = McConfig(M=2, N0=6, nu_int=(1, 2), samples=64, seed=123)
    a = sample_min_singular_sq(cfg)
    b = sample_min_singular_sq(cfg)
    assert np.array_equal(a.lambda_min, b.lambda_min)
    # one generator reset per sample draws what a fresh one per index draws
    assert all(a.lambda_min[i] == _sample_one(cfg, i)
               for i in range(cfg.samples))
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
    # s = 1e-4 lies below the smallest of these samples, 7.1e-4 scaled
    rows = empirical_gap(res, [1e-4, 0.5, 1.0, 2.0])
    assert rows[0][1] == 1.0
    ps = [r[1] for r in rows]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    for _, p, lo, hi in rows:
        assert lo <= p <= hi


@pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
def test_empirical_gap_refuses_a_non_positive_or_non_finite_s(s):
    res = sample_min_singular_sq(McConfig(M=2, N0=2, nu_int=(0, 0),
                                          samples=2, seed=1))
    with pytest.raises(ValueError,
                       match=f"^s must be positive and finite, got {s}$"):
        empirical_gap(res, [0.5, s])


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
                          "triangular")):
        res = sample_min_singular_sq(cfg)
        path = tmp_path / f"lam_m{cfg.M}.f64"
        save_samples(res, path)
        assert np.array_equal(np.fromfile(path, dtype="<f8"), res.lambda_min)
        sidecar = json.loads((tmp_path / f"lam_m{cfg.M}.f64.json").read_text())
        assert sidecar == {"M": cfg.M, "N0": cfg.N0, "nu_int": list(cfg.nu_int),
                           "samples": cfg.samples, "seed": 9,
                           "sampler": sampler, "dtype": "<f8",
                           "count": cfg.samples}


def _dense_product_oracle(cfg: McConfig, seed: int) -> np.ndarray:
    """lambda_min of Y^dag Y for the dense product Y = X_M ... X_1.

    Each X_m is a dense (N0+nu_m) x (N0+nu_{m-1}) complex Gaussian: the
    library's sampler before the bidiagonal (M = 1) and triangular (M >= 2)
    models, drawn in batches from an independent stream.  A reference for
    the law, not for the bits.
    """
    dims = cfg.dims
    rng = np.random.default_rng(seed)
    Y = None
    for m in range(1, cfg.M + 1):
        shape = (cfg.samples, dims[m], dims[m - 1])
        X = math.sqrt(0.5) * (rng.standard_normal(shape)
                              + 1j * rng.standard_normal(shape))
        Y = X if Y is None else X @ Y
    return np.linalg.eigvalsh(Y.conj().transpose(0, 2, 1) @ Y)[:, 0]


def _ks_critical(n: int, alpha: float) -> float:
    """Asymptotic Kolmogorov bound at level alpha, two samples of size n."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) * math.sqrt(2.0 / n)


# the ids name the entries' normalization, total unit variance
@pytest.mark.parametrize("n0,nu1", [
    pytest.param(n0, nu1, id=f"{n0}-{nu1}-unit_total")
    for n0 in (5, 12) for nu1 in (0, 2)])
def test_bidiagonal_law_matches_dense_oracle(n0, nu1):
    n = 2000
    cfg = McConfig(M=1, N0=n0, nu_int=(nu1,), samples=n, seed=40 + n0 + nu1)
    lam = sample_min_singular_sq(cfg).lambda_min
    ref = _dense_product_oracle(cfg, seed=80 + n0 + nu1)
    # two-sample KS at level 1e-3
    assert ks_distance(lam, ref) <= _ks_critical(n, 1e-3)


@pytest.mark.parametrize("n0,nu", [
    pytest.param(n0, nu, id=f"M{len(nu)}-{n0}-nu{''.join(map(str, nu))}")
    for n0, nu in ((6, (1, 2)), (6, (0, 0)), (12, (1, 2)), (12, (0, 0)),
                   (8, (0, 1, 0)))])
def test_triangular_law_matches_dense_oracle(n0, nu):
    n = 2000
    cfg = McConfig(M=len(nu), N0=n0, nu_int=nu, samples=n,
                   seed=500 + 10 * n0 + sum(nu))
    lam = sample_min_singular_sq(cfg).lambda_min
    ref = _dense_product_oracle(cfg, seed=600 + 10 * n0 + sum(nu))
    # two-sample KS at level 1e-6
    assert ks_distance(lam, ref) <= _ks_critical(n, 1e-6)


def _mp_sigma_min_sq(a, b, rs, dps=40):
    """sigma_min^2 of R_M ... R_2 B_1, formed and decomposed in mpmath."""
    n0 = a.size
    with mpmath.workdps(dps):
        t = mpmath.matrix(n0, n0)
        for j in range(n0):
            t[j, j] = mpmath.mpf(float(a[j]))
            if j + 1 < n0:
                t[j, j + 1] = mpmath.mpf(float(b[j]))
        for r in rs:
            t = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row]
                               for row in r]) * t
        return float(min(mpmath.svd_c(t, compute_uv=False)) ** 2)


@pytest.mark.parametrize("M,n0", [(2, 20), (4, 20), (6, 12)])
def test_triangular_lambda_min_matches_mpmath(M, n0):
    # the Gram route, eigvalsh(T^dag T) of the same T, misses by 6.7e-9 at
    # (4, 20) and by 4.5e-9 at (6, 12) on these factors
    for index in range(2):
        a, b, rs = _factors(_rng(17, index), n0, (0,) * M)
        lam = _upper_lambda_min(_upper_product(a, b, rs))
        ref = _mp_sigma_min_sq(a, b, rs)
        assert abs(lam - ref) <= 1e-12 * ref


def test_degenerate_lambda_min_takes_eigvalsh(monkeypatch):
    # two equal smallest singular values: no spectral gap to certify
    rng = np.random.default_rng(4)
    sv = np.array([0.5, 0.5, 1.0, 2.0, 3.0, 5.0])
    u, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6))
                        + 1j * rng.standard_normal((6, 6)))
    _, t = np.linalg.qr((u * sv) @ v.conj().T)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    assert _upper_lambda_min(t) == pytest.approx(0.25, rel=1e-12)
    assert calls == [(6, 6)]


def test_singular_triangle_is_refused():
    t = np.triu(np.ones((4, 4), dtype=complex))
    t[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="ztrtri"):
        _upper_lambda_min(t)


@pytest.mark.parametrize("seed,index", [(0, 0), (123, 5), (2 ** 63 + 7, 99),
                                        (-1, 3)])
def test_reset_stream_equals_constructed_stream(seed, index):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)

    def draws(gen):
        return [gen.standard_normal(7), gen.standard_gamma(np.arange(1.0, 6.0)),
                gen.integers(0, 2 ** 32, size=3, dtype=np.uint32),
                gen.bit_generator.random_raw(5)]

    ref = draws(np.random.Generator(np.random.Philox(key=key)))
    # a used generator, mid-buffer and holding a spare 32-bit word
    used = np.random.Generator(np.random.Philox(key=9))
    used.standard_normal(3)
    used.integers(0, 2 ** 32, dtype=np.uint32)
    for gen in (_rng(seed, index), _rng(seed, index, used)):
        assert all(np.array_equal(x, y) for x, y in zip(draws(gen), ref))


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
