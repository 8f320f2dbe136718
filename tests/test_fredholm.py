import math

import numpy as np
import pytest
import scipy.special

from hardedge.kernels import (
    HardEdgeParams,
    MBParams,
    build_kernel_bundle,
    kernel_matrix,
    borodin_kernel_matrix,
)
from hardedge import fredholm, kernels
from hardedge.cli import main
from hardedge.fredholm import (
    make_rule,
    fredholm_det,
    gap_probability_mb,
    mb_logdet_column,
    gap_probability_hardedge,
    NonConvergedError,
)
from hardedge.reference_data import TABLE1
from hardedge.special_functions import N_TERMS, wright_bessel_coefficients


def test_wright_coefficients_built_once_per_c(monkeypatch, tmp_path):
    # two gap evaluations and a table1 run build each factor's series once
    # per c, as read-only arrays
    built = []

    def counting(a, b, n_terms):
        built.append(2.0 * a - 1.0 if b == 0.5 else a - 1.0)
        return wright_bessel_coefficients(a, b, n_terms)

    monkeypatch.setattr(kernels, "wright_bessel_coefficients", counting)
    kernels._wright_coefficients.cache_clear()
    gap_probability_mb(MBParams(c=0.0), 2.0)
    gap_probability_mb(MBParams(c=0.0), 4.0)
    assert main(["table1", "--out", str(tmp_path)]) == 0
    assert sorted(built) == [0.0, 0.0, 1.0, 1.0]
    for coeffs in kernels._wright_coefficients(0.0):
        assert not coeffs.flags.writeable


def test_gauss_legendre_two_point_rule():
    rule = make_rule(2, 2.0)
    assert rule.nodes == pytest.approx([1 - 1 / math.sqrt(3), 1 + 1 / math.sqrt(3)])
    assert rule.weights == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_gauss_legendre_cubic_exactness(n):
    rule = make_rule(n, 1.0)
    assert float(rule.weights @ rule.nodes ** 3) == pytest.approx(0.25,
                                                                  abs=1e-14)


def test_rule_validation():
    with pytest.raises(ValueError):
        make_rule(1, 1.0)
    with pytest.raises(ValueError):
        make_rule(4, 0.0)


@pytest.fixture
def leggauss_calls(monkeypatch):
    """The n of every reference rule built, starting from an empty cache."""
    calls = []
    build = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return build(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    fredholm._reference_rule.cache_clear()
    yield calls
    fredholm._reference_rule.cache_clear()


def test_each_rule_built_once_per_n(leggauss_calls, tmp_path, capsys):
    params = HardEdgeParams.from_nu((0.0, 0.0))
    for _ in range(2):
        gap_probability_hardedge(params, 2.0)
    assert main(["table1", "--out", str(tmp_path)]) == 0
    assert {16, 32, 48, 96} <= set(leggauss_calls)
    assert len(leggauss_calls) == len(set(leggauss_calls))


def test_cached_rule_is_read_only(leggauss_calls):
    make_rule(16, 1.0)
    for arr in fredholm._reference_rule(16):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert leggauss_calls == [16]


@pytest.mark.parametrize("n", [16, 48, 96, 256])
def test_cached_rule_equals_direct_build(n):
    # the formula make_rule used before the cache, with a = 0 and b = L
    x, w = np.polynomial.legendre.leggauss(n)
    for L in (0.3, 2.0 * math.sqrt(7.0), 14.0):
        for rule in (make_rule(n, L), make_rule(n, L)):
            assert np.array_equal(rule.nodes, 0.5 * (L - 0.0) * x + 0.5 * (L + 0.0))
            assert np.array_equal(rule.weights, 0.5 * (L - 0.0) * w)


def test_batched_hardedge_rules_keep_every_bit():
    # hardedge_rules scales the reference rule for many s at once; row i is
    # hardedge_rule(n, ss[i])'s weights, nodes x and Jacobian, bit for bit
    ss = np.geomspace(1e-8, 12.0, 37)
    for n in (16, 64):
        weights, x, jac = fredholm.hardedge_rules(n, ss)
        assert weights.shape == x.shape == jac.shape == (len(ss), n)
        for s, row in zip(ss, zip(weights, x, jac)):
            rule, xs, js = fredholm.hardedge_rule(n, float(s))
            for got, want in zip(row, (rule.weights, xs, js)):
                assert got.tobytes() == want.tobytes()


def test_zero_kernel_determinant():
    rule = make_rule(12, 2.0)
    logdet = fredholm_det(np.zeros((12, 12)), rule)
    assert logdet == 0.0


def test_rank_one_kernel_determinant():
    # K(x,y) = x*y on (0,1): det = 1 - int x^2 = 2/3
    rule = make_rule(16, 1.0)
    logdet = fredholm_det(np.outer(rule.nodes, rule.nodes), rule)
    assert logdet == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("diagonal, message", [
    (lambda w: 1.0 / w, "factorization singular to working precision"),
    (lambda w: np.r_[2.0 / w[0], np.zeros(len(w) - 1)],
     "Fredholm determinant lost positivity"),
    (lambda w: np.r_[math.nan, np.zeros(len(w) - 1)],
     "Fredholm log-determinant is not finite (nan)"),
    (lambda w: np.r_[math.inf, np.zeros(len(w) - 1)],
     "Fredholm log-determinant is not finite (inf)"),
], ids=["singular", "negative", "nan", "inf"])
def test_determinant_refusals(diagonal, message):
    # K = diag(1/w) zeroes 1 - D on most of the diagonal, 2/w_0 alone makes
    # det(1 - D) = -1, and a NaN or inf entry makes log det non-finite; node
    # doubling names the node count at which the determinant was refused
    def logdet_at(n):
        rule = make_rule(n, 2.0)
        return fredholm_det(np.diag(diagonal(rule.weights)), rule)

    with np.errstate(invalid="ignore"):
        with pytest.raises(FloatingPointError) as exc:
            logdet_at(12)
        assert str(exc.value) == message
        with pytest.raises(NonConvergedError) as exc:
            fredholm._converge_logdet(logdet_at, 1e-9)
    assert str(exc.value) == f"{message} at 16 nodes"


def test_mb_determinant_reference_value():
    mb = MBParams(c=0.0)
    rule = make_rule(48, 4.0)
    logdet = fredholm_det(borodin_kernel_matrix(mb, rule.nodes, rule.nodes),
                          rule)
    assert logdet == pytest.approx(TABLE1[0][4][0], abs=1e-8)


def test_gap_probability_mb_reference_values():
    assert gap_probability_mb(MBParams(c=0.0), 1e-4).E == pytest.approx(
        1.0, abs=1e-3)
    assert gap_probability_mb(MBParams(c=1.0), 4.0).logE == pytest.approx(
        TABLE1[1][4][0], abs=1e-8)
    # at r = 14 the Wright-series cancellation floor (~5e-8) caps the
    # achievable node-doubling agreement, so the target is loosened there
    assert gap_probability_mb(MBParams(c=0.0), 14.0,
                              target_tol=5e-7).logE == pytest.approx(
        TABLE1[0][14][0], abs=1e-6)


def test_gap_probability_mb_refuses_underflow_range():
    with pytest.raises(ValueError):
        gap_probability_mb(MBParams(c=0.0), 15.5)


# The 16 x 16 Sylvester determinant and the n x n Nystrom one are the same
# number; they differ by the rounding of both, at most 6.5e-10 on the table-1
# cells (c=0, r=14, 96 nodes), 6.0e-11 at c=1 and 1e-13 for r <= 6.
SYLVESTER_VS_NYSTROM = 2e-9


@pytest.mark.parametrize("n", [48, 96])
@pytest.mark.parametrize("c", [0, 1])
def test_mb_logdet_column_equals_per_cell_determinants(c, n):
    # a single-r call keeps the bits of its column entry, and every table-1
    # cell matches the n x n determinant of borodin_kernel_matrix
    mb = MBParams(c=float(c))
    rs = list(range(4, 15))
    column = mb_logdet_column(mb, rs, n)
    for r, logdet in zip(rs, column):
        assert mb_logdet_column(mb, [r], n) == [logdet], (c, r, n)
        rule = make_rule(n, float(r))
        ref = fredholm_det(borodin_kernel_matrix(mb, rule.nodes, rule.nodes),
                           rule)
        assert abs(logdet - ref) <= SYLVESTER_VS_NYSTROM, (c, r, n)


# log E(0;(0,r)) at c=0 from a 40-digit mpmath Nystrom determinant (ROADMAP
# item 6); each bound sits ~18% above the 96-node double value's measured
# distance (1.7e-9 and 7.6e-8), so an evaluator that loses digits fails
@pytest.mark.parametrize("r, log_e, bound", [(10, -18.017880484845, 2e-9),
                                             (14, -27.3654491469389, 9e-8)])
def test_table1_floor_against_extended_precision(r, log_e, bound):
    (got,) = mb_logdet_column(MBParams(c=0.0), [r], 96)
    assert abs(got - log_e) <= bound


def test_truncated_series_keep_every_bit_of_the_full_series(monkeypatch, request):
    # table-1 columns and MB gap probabilities from the truncated Wright
    # series against the same calls on all N_TERMS terms
    mb_cases = [MBParams(c=float(c)) for c in (0, 1, 2)]
    rs = list(range(4, 15))
    columns = {(c, n): mb_logdet_column(mb_cases[c], rs, n)
               for c in (0, 1) for n in (48, 96)}
    gaps = {(c, r): gap_probability_mb(mb_cases[c], r).logE
            for c in (0, 1, 2) for r in (1.0, 4.0, 9.0)}
    monkeypatch.setattr(kernels, "truncate_series", lambda coeffs, x_max: coeffs)
    # the series are cut once per c, in the u tables' cache: rebuild them whole
    kernels._wright_coefficients.cache_clear()
    request.addfinalizer(kernels._wright_coefficients.cache_clear)
    assert len(kernels._wright_coefficients(0.0)[0]) == N_TERMS
    for (c, n), column in columns.items():
        assert column == mb_logdet_column(mb_cases[c], rs, n), (c, n)
    for (c, r), log_e in gaps.items():
        assert log_e == gap_probability_mb(mb_cases[c], r).logE, (c, r)


def test_node_doubling_convergence_rate():
    mb = MBParams(c=0.0)

    def logdet_at(n):
        rule = make_rule(n, 6.0)
        return fredholm_det(borodin_kernel_matrix(mb, rule.nodes, rule.nodes),
                            rule)

    vals = {n: logdet_at(n) for n in (8, 16, 32, 64)}
    deltas = [abs(vals[16] - vals[8]), abs(vals[32] - vals[16]),
              abs(vals[64] - vals[32])]
    for a, b in zip(deltas, deltas[1:]):
        if a < 1e-10:
            break
        assert b <= a / 10.0


@pytest.mark.parametrize("s", [1e-4, 12.5, 16.0, 20.0])
def test_hardedge_m1_exact_law(s):
    # E = exp(-s) at nu = (0, 0) for every s
    params = HardEdgeParams.from_nu((0.0, 0.0))
    pt = gap_probability_hardedge(params, s)
    assert abs(pt.logE + s) <= 1e-9


def test_hardedge_m1_against_trapezoid_oracle():
    # independent low-order oracle: 512-node trapezoid Nystrom determinant
    params = HardEdgeParams.from_nu((0.0, 0.0))
    bundle = build_kernel_bundle(params)
    s, n = 1.0, 512
    x = np.linspace(0.0, s, n + 1)
    x[0] = 1e-13   # the nu=(0,0) kernel is analytic at the left endpoint
    w = np.full(n + 1, s / n)
    w[0] *= 0.5
    w[-1] *= 0.5
    K = kernel_matrix(bundle, x, x)
    _, oracle = np.linalg.slogdet(np.eye(n + 1) - w[None, :] * K)
    pt = gap_probability_hardedge(params, s, target_tol=1e-10)
    assert abs(pt.E - math.exp(float(oracle))) <= 1e-6


def _bessel_oracle_logdet(a, s, n=64):
    # the classical Bessel kernel in xi on (0, 4 s), by scipy's J_a, with a
    # Nystrom rule in xi = t^2, t on (0, 2 sqrt(s)), and the Jacobian 2 t
    t, w = np.polynomial.legendre.leggauss(n)
    t = math.sqrt(s) * (t + 1.0)
    w = math.sqrt(s) * w * 2.0 * t
    ja, dja = scipy.special.jv(a, t), scipy.special.jvp(a, t)
    diff = t[:, None] ** 2 - t[None, :] ** 2
    np.fill_diagonal(diff, 1.0)
    K = (np.outer(ja, t * dja) - np.outer(t * dja, ja)) / (2.0 * diff)
    np.fill_diagonal(K, 0.25 * (ja ** 2 - scipy.special.jv(a + 1, t)
                                * scipy.special.jv(a - 1, t)))
    sw = np.sqrt(w)
    return np.linalg.slogdet(np.eye(n) - sw[:, None] * K * sw[None, :])[1]


@pytest.mark.parametrize("s", [2.0, 12.0])
@pytest.mark.parametrize("v", [-0.5, 0.5, 1.5])
def test_hardedge_m1_half_integer_against_bessel_oracle(v, s):
    # every 2 nu_j integer: the t = 2 sqrt(x) substitution converges fast
    pt = gap_probability_hardedge(HardEdgeParams.from_nu((0.0, v)), s)
    assert pt.node_count_used <= 32
    assert abs(pt.logE - _bessel_oracle_logdet(v, s)) <= 1e-9


@pytest.mark.parametrize("s,reason", [(12.0, "no convergence to 1e-09 within 256"),
                                      (16.0, "lost positivity at 16")])
def test_hardedge_refusal_is_non_converged(s, reason):
    # a determinant that lost positivity is refused like a capped doubling
    params = HardEdgeParams.from_nu((0.0, 0.25, -0.25))
    with pytest.raises(NonConvergedError, match=reason + " nodes"):
        gap_probability_hardedge(params, s)


@pytest.mark.parametrize("s", [0.01, 0.1, 4.0, 7.14])
@pytest.mark.parametrize("nu,c", [((0.0, -0.5, 0.0), 0.0), ((0.0, 0.0, 0.5), 1.0),
                                  ((0.0, 0.5, 1.0), 2.0)],
                         ids=["c0", "c1", "c2"])
def test_hardedge_m2_matches_mb_identity(nu, c, s):
    params = HardEdgeParams.from_nu(nu)
    sub = gap_probability_hardedge(params, s)
    mb = gap_probability_mb(MBParams(c=c), 2.0 * math.sqrt(s))
    assert abs(sub.logE - mb.logE) <= 1e-8


def test_gap_curve_monotone_and_bounded():
    mb = MBParams(c=0.0)
    pts = [gap_probability_mb(mb, r) for r in (0.5, 1.0, 2.0, 4.0)]
    es = [p.E for p in pts]
    assert all(0.0 < e <= 1.0 for e in es)
    assert all(b < a for a, b in zip(es, es[1:]))
    assert all(p.logE == pytest.approx(math.log(p.E), rel=1e-14, abs=1e-14)
               for p in pts)
