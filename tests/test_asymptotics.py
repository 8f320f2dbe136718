import math

import numpy as np
import pytest

from hardedge.kernels import HardEdgeParams
from hardedge.asymptotics import (
    indicial_exponents,
    tail_model,
    fit_tail,
    A1_PREDICTED,
)
from hardedge.reference_data import TABLE1


def _poly_residual(c, x, y):
    return abs(27 * c ** 6 + 54 * x * c ** 3 - 27 * y)


def test_indicial_special_index_set(params_m2):
    rep = indicial_exponents(params_m2)
    assert sorted(set(rep.fixed_exponents)) == pytest.approx([0.5, 1.0, 1.5])
    assert sorted(rep.quadratic_pair) == pytest.approx(
        [1.0 - 1.0 / math.sqrt(3.0), 1.0 + 1.0 / math.sqrt(3.0)])
    assert rep.lambda_zero == 0.0
    assert rep.delta1 == -2.0 / 3.0 and rep.mu1 == -1.0


def test_indicial_roots_satisfy_polynomial():
    rng = np.random.default_rng(5)
    for _ in range(8):
        nu = (0.0, float(rng.uniform(-0.9, 1.5)), float(rng.uniform(-0.9, 1.5)))
        rep = indicial_exponents(HardEdgeParams.from_nu(nu))
        scale = max(1.0, abs(rep.x_disc), abs(rep.y_disc))
        for c in rep.fractional_C1:
            assert _poly_residual(c, rep.x_disc, rep.y_disc) <= 1e-10 * 27 * scale


def test_indicial_permutation_invariance():
    a = indicial_exponents(HardEdgeParams.from_nu((0.0, 0.3, 0.75)))
    b = indicial_exponents(HardEdgeParams.from_nu((0.0, 0.75, 0.3)))
    assert sorted(a.fixed_exponents) == pytest.approx(sorted(b.fixed_exponents))
    assert sorted(a.quadratic_pair) == pytest.approx(sorted(b.quadratic_pair))
    ra = sorted(np.round(np.array(a.fractional_C1), 10).tolist(),
                key=lambda z: (z.real, z.imag))
    rb = sorted(np.round(np.array(b.fractional_C1), 10).tolist(),
                key=lambda z: (z.real, z.imag))
    assert np.allclose(ra, rb)


def test_indicial_zero_root_when_y_vanishes():
    # |nu_1 - nu_0| = 2/3 kills one factor of the discriminant exactly
    rep = indicial_exponents(HardEdgeParams.from_nu((0.0, 2.0 / 3.0, 0.1)))
    assert rep.y_disc == 0.0
    assert any(c == 0.0 for c in rep.fractional_C1)


def test_indicial_requires_m2():
    with pytest.raises(ValueError):
        indicial_exponents(HardEdgeParams.from_nu((0.0, 0.0)))


def test_tail_model_values():
    assert tail_model(1.0, "eta0_leading") == pytest.approx(
        -3.0 * 2.0 ** (-4.0 / 3.0), rel=1e-14)
    assert tail_model(1.0, "logE_leading", variable="r") == pytest.approx(
        -9.0 * 2.0 ** (-11.0 / 3.0), rel=1e-14)
    assert A1_PREDICTED == pytest.approx(0.708705590566, abs=1e-12)
    # refined model adds a negative subleading term
    assert tail_model(8.0, "logE_refined") < tail_model(8.0, "logE_leading")


def test_tail_model_consistency_derivative():
    # d/ds of the logE model equals eta0_leading(s)/s
    s, h = 9.0, 1e-5
    d = (tail_model(s + h, "logE_leading") - tail_model(s - h, "logE_leading")) / (2 * h)
    assert d == pytest.approx(tail_model(s, "eta0_leading") / s, rel=1e-8)


def test_tail_model_validation():
    with pytest.raises(ValueError):
        tail_model(-1.0, "logE_leading")
    with pytest.raises(ValueError):
        tail_model(1.0, "nonsense")
    with pytest.raises(ValueError):
        tail_model(1.0, "logE_leading", variable="q")


def test_fit_tail_exact_recovery():
    a1, b1, c1 = -0.7, 0.1, 0.05
    rs = np.arange(4.0, 15.0)
    pts = [(r, a1 * r ** (4 / 3) + b1 * r ** (2 / 3) + c1) for r in rs]
    for mode in ("local_triple", "global_lsq"):
        fit = fit_tail(pts, mode=mode)
        assert fit.a1 == pytest.approx(a1, abs=1e-12)
        assert fit.b1 == pytest.approx(b1, abs=1e-12)
        assert fit.c1 == pytest.approx(c1, abs=1e-11)


@pytest.mark.parametrize("c", [0, 1])
def test_fit_tail_reference_table(c):
    pts = [(float(r), TABLE1[c][r][0]) for r in range(4, 15)]
    fit = fit_tail(pts, mode="local_triple", center=13.0)
    assert abs(fit.a1 - TABLE1[c][13][1]) <= 2e-3


def test_fit_tail_extrapolation():
    pts = [(float(r), TABLE1[0][r][0]) for r in range(4, 15)]
    fit = fit_tail(pts, mode="local_triple", center=13.0, extrapolate=True)
    assert abs(abs(fit.a1_extrapolated) - A1_PREDICTED) <= 5e-3


def test_fit_tail_a1_monotone_beyond_r6():
    pts = [(float(r), TABLE1[0][r][0]) for r in range(4, 15)]
    a1s = [abs(fit_tail(pts, mode="local_triple", center=float(c)).a1)
           for c in range(7, 14)]
    assert all(b > a for a, b in zip(a1s, a1s[1:]))


def test_fit_tail_global_residual_improves_toward_tail():
    pts = [(float(r), TABLE1[0][r][0]) for r in range(4, 15)]
    resids = [fit_tail(pts[i:i + 6], mode="global_lsq").residual
              for i in range(len(pts) - 5)]
    assert all(b < a for a, b in zip(resids, resids[1:]))


def test_fit_tail_validation():
    with pytest.raises(ValueError):
        fit_tail([(1.0, 0.0), (2.0, 0.1)])
    with pytest.raises(ValueError):
        fit_tail([(1.0, 0.0), (1.0, 0.1), (2.0, 0.2)])
    with pytest.raises(ValueError):
        fit_tail([(4.0, 0.0), (5.5, 0.1), (7.0, 0.2)], mode="local_triple",
                 center=5.5)
    # a refused table1 cell is written as nan; the fit names its r
    pts = [(float(r), TABLE1[0][r][0]) for r in range(4, 15)]
    pts[3] = (7.0, math.nan)
    with pytest.raises(ValueError, match="non-finite point at r=7"):
        fit_tail(pts, extrapolate=True)
