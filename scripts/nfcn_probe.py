#!/usr/bin/env python3
"""Right-hand-side calls that DOP853's own count (NFCN) misses, by call form.

    PYTHONPATH=src python3 scripts/nfcn_probe.py

Steps y' = -y from y(0) = 1 in four legs of 0.5 (rtol 1e-10, atol 1e-12) with
scipy's compiled ``dopri853``, as ``hamiltonian_flow`` loads it, and prints,
per leg, the calls fun received minus NFCN (``iwork[16]``).  It tries iout=0
and iout=1 with a solout returning 1, each through a positional call and a
``*args`` call, and, as a control, iout=1 with a solout returning 2: Hairer's
code then re-evaluates fun at the start of every step without counting it.
Run it in several fresh processes: the iout=0 rows depend on what the C stack
held before the call, the others do not.

The last rows use the three-argument form of ``hamiltonian_flow.solve_ivp``:
fun(t, y, out) writes y' into a buffer handed over as the one extra argument
and returns it.  They print the same per-leg difference, and whether every
call of fun and of solout received that buffer: the wrapper passes the extra
arguments to both, so solout takes (x, y, out).
"""

import numpy as np

from hardedge.hamiltonian_flow import _dop853

calls = [0]
buffer = np.zeros(1)                    # out, in the buffer form
received = {"fun": [], "solout": []}    # per call there: did it get out?


def fun(t, y):
    calls[0] += 1
    return -y


def fun_into(t, y, out):
    calls[0] += 1
    received["fun"].append(out is buffer)
    return np.negative(y, out=out)


def returns(value):
    def solout(x, y, *extra):
        if extra:
            received["solout"].append(len(extra) == 1 and extra[0] is buffer)
        return value
    return solout


def uncounted(iout, solout, star, into=False):
    dopri853 = _dop853()
    work = np.zeros(32)
    work[1:4] = (0.9, 0.2, 10.0)
    iwork = np.zeros(21, np.int32)
    t, y, out = 0.0, np.ones(1), []
    f, extra = (fun_into, (buffer,)) if into else (fun, ())
    for t_next in (0.5, 1.0, 1.5, 2.0):
        calls[0] = 0
        args = (f, t, y, t_next, 1e-10, 1e-12, solout, iout, work, iwork,
                100_000, -1, extra)
        if star:
            t, y, _ = dopri853(*args)
        else:
            t, y, _ = dopri853(f, t, y, t_next, 1e-10, 1e-12, solout, iout,
                               work, iwork, 100_000, -1, extra)
        out.append(calls[0] - int(iwork[16]))
    return out


if __name__ == "__main__":
    for iout, value in ((0, 1), (1, 1), (1, 2)):
        for star in (False, True):
            form = "*args" if star else "positional"
            print(f"iout={iout} solout->{value} {form:>10}: uncounted per leg "
                  f"{uncounted(iout, returns(value), star)}")
    for value in (1, 2):
        for star in (False, True):
            form = "*args" if star else "positional"
            for seen in received.values():
                seen.clear()
            legs = uncounted(1, returns(value), star, into=True)
            got = "; ".join(f"{k} got out in {sum(v)} of {len(v)} calls"
                            for k, v in received.items())
            print(f"iout=1 solout->{value} {form:>10} fun(t, y, out): "
                  f"uncounted per leg {legs}; {got}")
