import math

import mpmath
import numpy as np
import pytest

from hardedge.kernels import (
    HardEdgeParams,
    MBParams,
    build_kernel_bundle,
    kernel_value,
    kernel_matrix,
    borodin_factor_tables,
    borodin_kernel_matrix,
    mb_params_for_hardedge,
)
from hardedge.special_functions import N_TERMS, wright_bessel_coefficients

SQRT_PI = math.sqrt(math.pi)
VALIDATED_M2 = [(-0.5, 0.0), (0.0, 0.5)]


def test_params_validation():
    with pytest.raises(ValueError):
        HardEdgeParams.from_nu((0.5, 0.0))          # nu_0 != 0
    with pytest.raises(ValueError):
        HardEdgeParams.from_nu((0.0, -1.5, 0.0))    # below the edge
    with pytest.raises(ValueError):
        HardEdgeParams.from_nu((0.0, 0.1, 0.2, 0.3))  # M=3 unsupported
    for nu, message in (((0.0, math.nan), "nu_1 must be finite, got nan"),
                        ((0.0, 0.5, math.inf),
                         "nu_2 must be finite, got inf")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            HardEdgeParams.from_nu(nu)


def test_generic_condition_rejected():
    with pytest.raises(ValueError):
        build_kernel_bundle(HardEdgeParams.from_nu((0.0, 0.0, 1.0)))
    with pytest.raises(ValueError):
        build_kernel_bundle(HardEdgeParams.from_nu((0.0, 0.0, 0.9999999)))


def test_m1_phi0_at_origin():
    # phi_0(x) = J_0(2 sqrt x) at nu = (0, 0), so phi_0(0+) = 1
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, 0.0)))
    phi, _, _ = b.evaluate([1e-14])
    assert phi[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n1,n2", VALIDATED_M2)
def test_m2_orthogonality(n1, n2):
    # sum_j phi_j psi_j = 0, relative to the largest single product
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, n1, n2)))
    phi, _, psi = b.evaluate([0.1, 0.5, 1.0, 2.0, 5.0])
    prods = phi * psi
    assert np.max(np.abs(prods.sum(axis=0))) <= 1e-10 * np.max(np.abs(prods))


def test_m2_orthogonality_pointwise_example():
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, -0.5, 0.0)))
    phi, _, psi = b.evaluate([0.7])
    assert abs(float(phi[:, 0] @ psi[:, 0])) <= 1e-11


def test_m1_splitting_relations():
    # psi_1 = x^(nu0+nu1) phi_0 and phi_1 = -x^(-nu0-nu1) psi_0
    for nu1 in (0.0, 0.5):
        b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, nu1)))
        x = np.linspace(0.05, 10.0, 23)
        e1 = nu1
        phi, _, psi = b.evaluate(x)
        assert np.allclose(psi[1], x ** e1 * phi[0], atol=1e-12)
        assert np.allclose(phi[1], -x ** (-e1) * psi[0], atol=1e-12)


def test_m1_kernel_symmetry():
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, 0.0)))
    assert kernel_value(b, 0.3, 1.1) == pytest.approx(
        kernel_value(b, 1.1, 0.3), abs=1e-12)


def test_m2_diagonal_positive():
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, -0.5, 0.0)))
    assert kernel_value(b, 0.5, 0.5) > 0


def test_diagonal_limit_stability():
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, -0.5, 0.0)))
    x = 0.8
    delta = 1e-5

    def sym_avg(dl):
        return 0.5 * (kernel_value(b, x * (1 + dl), x)
                      + kernel_value(b, x * (1 - dl), x))

    diag = kernel_value(b, x, x)
    assert abs(diag - sym_avg(delta / 2)) <= 1e-8 * abs(diag)


def test_kernel_matrix_matches_scalar():
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, -0.5, 0.0)))
    xs = np.array([0.2, 0.5, 0.5 + 1e-9, 1.4])
    K = kernel_matrix(b, xs, xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert K[i, j] == pytest.approx(kernel_value(b, x, y), rel=1e-12)


@pytest.mark.parametrize("v", [-0.5, 0.0, 1.0, 2.5])
def test_m1_diagonal_against_mpmath(v):
    # K(x, x) = d/dx sum_j phi_j(x) psi_j(y) at y = x, with
    # phi = (x^(-v/2) J_v, x^((1-v)/2) J_{v+1}) and
    # psi = (-y^((v+1)/2) J_{v+1}, y^(v/2) J_v) at argument 2 sqrt(.)
    b = build_kernel_bundle(HardEdgeParams.from_nu((0.0, v)))

    def numerator(x, y):
        jx = [mpmath.besselj(v + k, 2 * mpmath.sqrt(x)) for k in (0, 1)]
        jy = [mpmath.besselj(v + k, 2 * mpmath.sqrt(y)) for k in (0, 1)]
        return (-x ** (-v / 2) * jx[0] * y ** ((v + 1) / 2) * jy[1]
                + x ** ((1 - v) / 2) * jx[1] * y ** (v / 2) * jy[0])

    with mpmath.workdps(40):
        for x in (0.05, 0.7, 3.0, 9.0):
            xm = mpmath.mpf(x)
            ref = float(mpmath.diff(lambda t: numerator(t, xm), xm))
            assert kernel_value(b, x, x) == pytest.approx(ref, rel=1e-12)


def test_borodin_trivial_values():
    assert borodin_kernel_matrix(MBParams(c=0.0), [0.0], [0.0])[0, 0] == pytest.approx(
        2.0 / SQRT_PI, rel=1e-13)
    assert borodin_kernel_matrix(MBParams(c=1.0), [0.0], [0.0])[0, 0] == 0.0


def test_borodin_inner_rule_self_convergence():
    # the fixed inner rule against the u-integral
    # theta x^c int_0^1 W((c+1)/theta, 1/theta; x u) W(c+1, theta; (y u)^theta) u^c du
    # by mpmath quadrature at 30 digits, for theta = 2, with 150-term series;
    # the integrand is entire in u, so mpmath's Gauss-Legendre (adaptive in
    # degree) resolves it in about a third of the tanh-sinh time
    def wright(a, b):
        return [(-1) ** j * mpmath.rgamma(a + j * b) / mpmath.factorial(j)
                for j in range(150)][::-1]

    with mpmath.workdps(30):
        for c in (0, 1):
            wa, wb = wright(mpmath.mpf(c + 1) / 2, mpmath.mpf(1) / 2), wright(c + 1, 2)
            # the last four reach the corner of [0, 15]^2 that table 1 and
            # the r <= 15 cap of gap_probability_mb use
            for x, y in ((1.0, 2.0), (0.3, 9.0), (12.0, 5.0), (14.0, 14.0),
                         (15.0, 15.0), (15.0, 0.5), (0.5, 15.0)):
                ref = 2 * x ** c * mpmath.quad(
                    lambda u: mpmath.polyval(wa, x * u)
                    * mpmath.polyval(wb, (y * u) ** 2) * u ** c, [0, 1],
                    method="gauss-legendre")
                got = borodin_kernel_matrix(MBParams(c=c), [x], [y])[0, 0]
                assert abs(got - float(ref)) <= 1e-10, (c, x, y)


def test_mb_params_validation():
    with pytest.raises(ValueError):
        MBParams(c=-1.0)
    with pytest.raises(ValueError):
        mb_params_for_hardedge(HardEdgeParams.from_nu((0.0, 0.3, 0.9)))
    # the 16-node u-rule is exact only at integer c; float integers pass
    with pytest.raises(ValueError, match="c must be an integer"):
        MBParams(c=1.5)
    with pytest.raises(ValueError, match="c must be an integer"):
        mb_params_for_hardedge(HardEdgeParams.from_nu((0.0, 0.25, 0.75)))
    assert MBParams(c=0.0).c == 0.0


@pytest.mark.parametrize("c", [0, 1])
def test_mb_hardedge_kernel_identity(c):
    # K_M(x, y) = y^(-1/2) K^(c,2)(2 sqrt y, 2 sqrt x); the finite-rank and
    # integral conventions orient the non-symmetric kernel oppositely.
    n1 = (c + 1) / 2.0 - 1.0
    params = HardEdgeParams.from_nu((0.0, n1, n1 + 0.5))
    b = build_kernel_bundle(params)
    mb = mb_params_for_hardedge(params)
    assert mb.c == pytest.approx(float(c))
    xs = np.linspace(0.4, 4.0, 5)
    ys = np.concatenate([xs, xs + 1e-3])   # diagonal included
    lhs = kernel_matrix(b, xs, ys)
    rhs = ys ** (-0.5) * borodin_kernel_matrix(mb, 2 * np.sqrt(ys), 2 * np.sqrt(xs)).T
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_kernel_value_example_against_mb():
    params = HardEdgeParams.from_nu((0.0, -0.5, 0.0))
    b = build_kernel_bundle(params)
    mb = mb_params_for_hardedge(params)
    x, y = 0.4, 0.9
    lhs = kernel_value(b, x, y)
    rhs = y ** (-0.5) * borodin_kernel_matrix(mb, [2 * math.sqrt(y)],
                                               [2 * math.sqrt(x)])[0, 0]
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_borodin_matrix_matches_scalar():
    # each grid entry equals the 1 x 1 evaluation at its pair
    mb = MBParams(c=0.0)
    xs = np.array([0.0, 0.7, 2.0])
    K = borodin_kernel_matrix(mb, xs, xs)
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            assert K[i, j] == pytest.approx(
                borodin_kernel_matrix(mb, [x], [y])[0, 0], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("c", [0.0, 1.0, 2.0])
def test_borodin_batched_tables_keep_every_bit(c):
    # reference: one cell, both factors as node powers (highest first, by
    # repeated multiplication) times u tables over the full 100-term series
    mb = MBParams(c=c)
    u, wu = np.polynomial.legendre.leggauss(16)
    u, wu = 0.5 * (u + 1.0), 0.5 * wu
    j = np.arange(N_TERMS)[::-1, None]
    ca = wright_bessel_coefficients((c + 1.0) / 2.0, 0.5, N_TERMS)[::-1, None]
    cb = wright_bessel_coefficients(c + 1.0, 2.0, N_TERMS)[::-1, None]
    ua, ub = ca * u ** j * (wu * u ** c), cb * u ** (2 * j)
    nodes = np.array([np.linspace(0.0, r, 12) for r in (1.0, 7.5, 15.0)])
    A, B = borodin_factor_tables(mb, nodes, nodes)
    for row, a, b in zip(nodes, A, B):
        powers = [np.ones_like(row)]
        for _ in range(2 * N_TERMS - 2):
            powers.append(powers[-1] * row)
        X = np.array(powers[::-1]).T
        ref = 2.0 * (row ** c)[:, None] * ((X[:, N_TERMS - 1:] @ ua)
                                           @ (X[:, ::2] @ ub).T)
        assert np.array_equal(borodin_kernel_matrix(mb, row, row), ref)
        a_row, b_row = borodin_factor_tables(mb, row, row)
        assert np.array_equal(a, a_row) and np.array_equal(b, b_row)


def test_borodin_tables_refuse_arguments_past_the_cap():
    mb = MBParams(c=0.0)
    borodin_factor_tables(mb, [15.0], [-15.0])
    for xs, ys in (([15.5], [1.0]), ([1.0], [0.0, -16.0])):
        with pytest.raises(ValueError, match="> 15.0 is refused"):
            borodin_factor_tables(mb, xs, ys)
    with pytest.raises(ValueError, match="argument cap"):
        borodin_kernel_matrix(mb, [1.0, 20.0], [1.0])
