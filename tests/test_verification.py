import dataclasses

import numpy as np

from hardedge.verification import verify


def test_nudged_state_fails_where_nudged(traj_m2):
    states = [dataclasses.replace(st, eta=st.eta + np.array([1e-6, 0.0, 0.0]))
              if st.s == 0.5 else st for st in traj_m2.states]
    check = verify(dataclasses.replace(traj_m2, states=states))["first_integrals"]
    assert not check.ok
    assert check.worst_s == 0.5


def test_category_without_states_reads_zero(traj_m2):
    # every kept state lies below s = 0.05, where no jet or gap check runs
    short = dataclasses.replace(traj_m2, states=traj_m2.states[:4],
                                log_gap=traj_m2.log_gap[:4])
    assert short.states[-1].s < 0.05
    report = verify(short)
    for name in ("quartic", "appendix_recovery", "gap_vs_fredholm"):
        assert (report[name].max_residual, report[name].worst_s) == (0.0, None)
    assert report["first_integrals"].worst_s is not None
