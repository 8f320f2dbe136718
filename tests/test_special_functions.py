import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from hardedge.special_functions import (
    N_TERMS,
    GammaPoleError,
    gamma_real,
    reciprocal_gamma,
    elementary_symmetric,
    horner,
    hyp0f_reg_coefficients,
    wright_bessel_coefficients,
)

SQRT_PI = math.sqrt(math.pi)


def test_gamma_classical_values():
    assert gamma_real(1.0) == 1.0
    assert gamma_real(0.5) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma_real(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_gamma_pole_raises(x):
    with pytest.raises(GammaPoleError):
        gamma_real(x)


def test_reciprocal_gamma_values():
    assert reciprocal_gamma(1.0) == 1.0
    assert reciprocal_gamma(0.0) == 0.0
    assert reciprocal_gamma(-2.0) == 0.0
    assert reciprocal_gamma(200.0) == 0.0  # Gamma overflow -> underflow


def test_reciprocal_gamma_times_gamma_is_one():
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        x = float(rng.uniform(-10.0, 10.0))
        if abs(x - round(x)) < 1e-3 and round(x) <= 0:
            continue
        count += 1
        assert abs(reciprocal_gamma(x) * gamma_real(x) - 1.0) < 1e-13


def _hyp0f2_reg(b1, b2, x):
    return horner(hyp0f_reg_coefficients((b1, b2), N_TERMS), x)


def _wright_bessel(a, b, x):
    return horner(wright_bessel_coefficients(a, b, N_TERMS), x)


def test_hyp0f2_reg_trivial():
    assert _hyp0f2_reg(1.0, 1.0, 0.0) == 1.0
    expected = 1.0 / (gamma_real(1.5) * gamma_real(2.0))
    assert _hyp0f2_reg(1.5, 2.0, 0.0) == pytest.approx(expected, rel=1e-15)


def test_hyp0f2_reg_against_long_summation_oracle():
    # independent 200-term high-precision summation
    with mpmath.workdps(50):
        oracle = mpmath.nsum(
            lambda j: (-2) ** j / (mpmath.factorial(j)
                                   * mpmath.gamma(1 + j) ** 2),
            [0, 199], method="direct")
        oracle = float(oracle)
    assert _hyp0f2_reg(1.0, 1.0, -2.0) == pytest.approx(oracle, abs=1e-14)


@given(b1=st.floats(0.3, 5.0), b2=st.floats(0.3, 5.0), x=st.floats(-5.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_hyp0f2_reg_symmetric_in_parameters(b1, b2, x):
    assert _hyp0f2_reg(b1, b2, x) == _hyp0f2_reg(b2, b1, x)


def test_wright_bessel_trivial():
    assert _wright_bessel(1.0, 1.0, 0.0) == 1.0
    assert _wright_bessel(0.5, 0.5, 0.0) == pytest.approx(1.0 / SQRT_PI,
                                                          rel=1e-15)


def test_wright_bessel_matches_classical_bessel():
    # J_{nu+1,1}(x) = x^(-nu/2) J_nu(2 sqrt x), J_nu by scipy
    for nu in (0.0, 0.5, 1.0):
        for x in np.linspace(0.25, 10.0, 14):
            lhs = _wright_bessel(nu + 1.0, 1.0, x)
            rhs = x ** (-nu / 2.0) * scipy.special.jv(nu, 2.0 * math.sqrt(x))
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


# Higham's a-priori bound for Horner's rule on N_TERMS coefficients:
# |fl(p(x)) - p(x)| <= gamma_2N * sum_j |c_j| |x|^j
_U = 2.0 ** -53
_GAMMA_2N = 2 * N_TERMS * _U / (1.0 - 2 * N_TERMS * _U)


def _series_rows():
    """(float coefficients, exact term j, arguments) for every series that
    KernelBundle and borodin_kernel_matrix stack, over the arguments they reach.

    The exact terms take the float parameters as exact binary values.
    """
    rows = []
    # M=1: 0F1~(; w+1; -x) = J_w(2 sqrt x) / x^(w/2) for w = v, v+1, at x
    # up to s = 20
    for v in (-0.5, 0.0, 1.0, 2.5):
        for w in (v, v + 1.0):
            rows.append((hyp0f_reg_coefficients((w + 1.0,), N_TERMS),
                         lambda j, w=mpmath.mpf(w):
                         mpmath.rgamma(w + j + 1) / mpmath.factorial(j),
                         np.linspace(-20.0, 0.0, 11)))
    # M=2: the r1-r3 rows and the (nu_1, nu_2) pairs at shifts -1, 0, +1,
    # at x = (t/2)^2 up to s = 12, with either sign
    for nu in ((0.0, -0.5, 0.0), (0.0, 0.0, 0.5), (0.0, 0.3, 1.1),
               (0.0, 0.25, -0.25), (0.0, 1.5, 0.0)):
        n0, n1, n2 = nu
        a1, a2 = n1 - n0, n2 - n0
        pairs = [(a1 + k, a2 + k) for k in (1.0, 2.0, 3.0)]
        for shift in (-1.0, 0.0, 1.0):
            pairs += [(a1 + shift, n1 - n2 + 1.0), (a2 + shift, n2 - n1 + 1.0)]
        for b1, b2 in pairs:
            rows.append((hyp0f_reg_coefficients((b1, b2), N_TERMS),
                         lambda j, b1=mpmath.mpf(b1), b2=mpmath.mpf(b2):
                         mpmath.rgamma(b1 + j) * mpmath.rgamma(b2 + j)
                         / mpmath.factorial(j),
                         np.linspace(-12.0, 12.0, 13)))
    # theta=2 Muttalib-Borodin: W((c+1)/2, 1/2; x u) with x u <= r = 15 and
    # W(c+1, 2; (y u)^2) with (y u)^2 <= 225
    for c in (0.0, 1.0):
        for a, b, x_max in (((c + 1.0) / 2.0, 0.5, 15.0), (c + 1.0, 2.0, 225.0)):
            rows.append((wright_bessel_coefficients(a, b, N_TERMS),
                         lambda j, a=mpmath.mpf(a), b=mpmath.mpf(b):
                         (-1) ** j * mpmath.rgamma(a + j * b) / mpmath.factorial(j),
                         np.linspace(0.0, x_max, 9)))
    return rows


def test_series_rows_within_horner_bound():
    # each row and its derivative, as the kernels evaluate them, against the
    # exact series at 40 digits (120 terms, so the truncation counts too)
    with mpmath.workdps(40):
        for coeffs, term, xs in _series_rows():
            exact = [term(j) for j in range(120)]
            dcoeffs = coeffs[1:] * np.arange(1.0, N_TERMS)
            for x in xs:
                for c, terms in ((coeffs, exact),
                                 (dcoeffs, [j * t for j, t in enumerate(exact)][1:])):
                    ref = mpmath.polyval(terms[::-1], mpmath.mpf(float(x)))
                    err = abs(float(horner(c, x)) - ref)
                    bound = _GAMMA_2N * float(horner(np.abs(c), abs(x)))
                    assert err <= bound, (x, err, bound)


def test_elementary_symmetric_examples():
    assert elementary_symmetric([0.0, -0.5, 0.0]) == (-0.5, 0.0, 0.0)
    assert elementary_symmetric([0.0, 1.0, 2.0]) == (3.0, 2.0, 0.0)
    assert elementary_symmetric([3.25]) == (3.25,)
    with pytest.raises(ValueError):
        elementary_symmetric([])


@given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_elementary_symmetric_matches_polynomial_expansion(vals):
    # prod (x + v) = sum e_k x^(n-k); compare against numpy's expansion
    es = elementary_symmetric(vals)
    poly = np.array([1.0])
    for v in vals:
        poly = np.convolve(poly, np.array([1.0, v]))
    scale = max(1.0, float(np.max(np.abs(poly))))
    for k, e in enumerate(es, start=1):
        assert abs(poly[k] - e) <= 1e-10 * scale
