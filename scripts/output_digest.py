#!/usr/bin/env python3
"""One SHA-256 per output family of hardedge, to show a change byte-identical.

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py

Run it on two checkouts and compare the lines: equal digests mean the family's
outputs are the same bits.  Every family hashes values and refusal texts
alike, so a moved refusal shows too.

- trajectories: ``integrate`` at both certified index sets, three
  tolerances and grids that cross the resolvent handover at 0.1 and the
  grade edge 2.0 (states, log_gap, nfev);
- gap_hardedge: ``gap_probability_hardedge`` on an index-set x s grid that
  holds node-cap and lost-positivity refusals;
- gap_mb: ``gap_probability_mb`` at c = 0, 1, 2, the r = 15.5 refusal
  included;
- verify: both ``hardedge verify`` reports at --s-max 5, 10 and 25 (exit
  code, stdout, stderr);
- sigma: ``hardedge sigma`` at its default and at three other abscissas;
- table1: ``hardedge table1``'s table1.csv and table1_diff.json (the
  extrapolated a_1 and each cell's est_error);
- ode: ``hardedge ode --s-max 10``'s trajectory.csv at --nu 0 and at the
  default nu, each at --tol 1e-8 and 1e-12 (not its manifest, which holds
  a timestamp);
- residuals: every state's ``first_integral_residuals``,
  ``structural_residuals`` and ``rhs`` on both certified cases' verify
  grids, at tol 1e-8 and 1e-12, and on the Nystrom launch states at both
  certified index sets, s0 = 1e-5 and s0 = 0.05 to 1, each the one row of
  its own pass;
- jets: ``eta_derivatives`` and ``verification.jet_residuals`` on the
  Nystrom launch states at nu=(0,-1/2,0), s0 = 0.05 to 1, which no stepper
  touches (residuals hashed as floats, whatever their scalar type).
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from hardedge import cli
from hardedge import hamiltonian_flow as flow
from hardedge.fredholm import (NonConvergedError, gap_probability_hardedge,
                               gap_probability_mb)
from hardedge.kernels import HardEdgeParams, MBParams
from hardedge.verification import integrate_case, jet_residuals

FLOW_NU = ((0.0, 0.0), (0.0, -0.5, 0.0))
FLOW_TOLS = (1e-8, 1e-10, 1e-12)
FLOW_GRIDS = ((1e-4, 0.1, 2.0, 5.0), (0.05, 0.5, 1.0, 3.0), (1e-3, 0.01, 0.1),
              (0.1,), (0.2, 2.0), (2e-5, 0.3, 2.5, 10.0))
GAP_NU = ((0.0, 0.0), (0.0, 0.5), (0.0, -0.5), (0.0, 1.5), (0.0, -0.5, 0.0),
          (0.0, 0.0, 0.5), (0.0, 0.25, -0.25))
GAP_S = (0.01, 0.5, 2.0, 7.14, 12.0, 16.0)
MB_CASES = [(c, r, 1e-9) for c in (0.0, 1.0, 2.0) for r in (0.5, 2.0, 4.0, 9.0)]
MB_CASES += [(0.0, 14.0, 5e-7), (1.0, 15.5, 1e-9)]
JET_S0 = (0.05, 0.1, 0.25, 0.5, 1.0)
REFUSALS = (NonConvergedError, flow.FlowError, FloatingPointError, ValueError)


def _outcome(fn, *args, **kwargs):
    """fn's value, or the type and text of its refusal."""
    try:
        return fn(*args, **kwargs)
    except REFUSALS as exc:
        return f"{type(exc).__name__}: {exc}"


def trajectories(h):
    for nu in FLOW_NU:
        params = HardEdgeParams(nu)
        for tol in FLOW_TOLS:
            for grid in FLOW_GRIDS:
                traj = _outcome(flow.integrate, params, 1e-5, grid, tol=tol)
                if isinstance(traj, str):
                    h.update(traj.encode())
                    continue
                for st in traj.states:
                    h.update(repr(st.s).encode())
                    for arr in (st.x, st.y, st.xi, st.eta):
                        h.update(arr.tobytes())
                h.update(repr((traj.log_gap, traj.nfev)).encode())


def gap_hardedge(h):
    for nu in GAP_NU:
        params = HardEdgeParams(nu)
        for s in GAP_S:
            h.update(repr(_outcome(gap_probability_hardedge, params, s)).encode())


def gap_mb(h):
    for c, r, tol in MB_CASES:
        h.update(repr(_outcome(gap_probability_mb, MBParams(c=c), r,
                               target_tol=tol)).encode())


def _cli(argv) -> bytes:
    """(exit code, stdout, stderr) of one in-process ``hardedge`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return repr((code, out.getvalue(), err.getvalue())).encode()


def verify(h):
    for case in ("m1", "m2-special"):
        for s_max in ("5", "10", "25"):
            h.update(_cli(["verify", case, "--s-max", s_max]))


def sigma(h):
    h.update(_cli(["sigma"]))
    h.update(_cli(["sigma", "--s", "0.1", "3", "8"]))


def table1(h):
    with tempfile.TemporaryDirectory() as tmp:
        _cli(["table1", "--out", tmp])     # its stdout names tmp
        for name in ("table1.csv", "table1_diff.json"):
            h.update((Path(tmp) / name).read_bytes())


def ode(h):
    with tempfile.TemporaryDirectory() as tmp:
        for nu in (["--nu", "0"], []):
            for tol in ("1e-8", "1e-12"):
                out = Path(tmp) / f"{len(nu)}_{tol}"
                _cli(["ode", *nu, "--s-max", "10", "--tol", tol,
                      "--out", str(out)])      # its stdout names tmp
                h.update((out / "trajectory.csv").read_bytes())


def residuals(h):
    states = [st for case in ("m1", "m2-special") for tol in (1e-8, 1e-12)
              for st in integrate_case(case, tol=tol).states]
    states += [flow.launch_state(HardEdgeParams(nu), s0)
               for nu in FLOW_NU for s0 in (1e-5, *JET_S0)]
    for st in states:
        h.update(repr((flow.first_integral_residuals(st),
                       flow.structural_residuals(st))).encode())
        for arr in flow.rhs(st):
            h.update(arr.tobytes())


def jets(h):
    params = HardEdgeParams(FLOW_NU[1])
    for s0 in JET_S0:
        st = flow.launch_state(params, s0)
        h.update(repr(_outcome(flow.eta_derivatives, st)).encode())
        res = _outcome(jet_residuals, st)
        if not isinstance(res, str):
            res = {k: float(v) for k, v in res.items()}
        h.update(repr(res).encode())


FAMILIES = (trajectories, gap_hardedge, gap_mb, verify, sigma, table1, ode,
            residuals, jets)


def main() -> int:
    for family in FAMILIES:
        h = hashlib.sha256()
        family(h)
        print(f"{family.__name__} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
