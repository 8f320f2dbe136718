#!/usr/bin/env python3
"""Monte Carlo vs analytic study of the hard-edge gap probability.

Samples products of complex Gaussian matrices at several matrix sizes,
compares the one-matrix empirical gap against the Bessel-kernel determinant,
and reports the two-matrix scaling collapse between consecutive sizes.
"""

import argparse
import math
import sys

from hardedge.kernels import HardEdgeParams
from hardedge.fredholm import gap_probability_hardedge
from hardedge.ginibre_mc import (
    McConfig, sample_min_singular_sq, empirical_gap, ks_distance,
)


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=10000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)

    print("== one matrix factor: empirical vs Bessel-kernel determinant ==")
    cfg = McConfig(M=1, N0=50, nu_int=(0,), samples=args.samples,
                   seed=args.seed)
    res = sample_min_singular_sq(cfg)
    params = HardEdgeParams.from_nu((0.0, 0.0))
    for s, p_hat, lo, hi in empirical_gap(res, [0.25, 0.5, 1.0, 2.0, 3.0]):
        e = gap_probability_hardedge(params, s, target_tol=1e-9).E
        sd = abs(p_hat - e) / math.sqrt(e * (1 - e) / cfg.samples)
        print(f"  s={s:4.2f}: p_hat={p_hat:.4f} [{lo:.4f},{hi:.4f}] "
              f"E={e:.4f}  sigma-dist={sd:.2f}")

    print("== two matrix factors: scaling collapse ==")
    n = max(1000, args.samples // 4)
    lam = {}
    for n0 in (20, 40, 80):
        c = McConfig(M=2, N0=n0, nu_int=(0, 0), samples=n,
                     seed=args.seed + n0)
        lam[n0] = sample_min_singular_sq(c).lambda_min * n0
    print(f"  KS(N0=20, N0=40) = {ks_distance(lam[20], lam[40]):.4f}")
    print(f"  KS(N0=40, N0=80) = {ks_distance(lam[40], lam[80]):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
