import dataclasses
import math
from types import SimpleNamespace

from hardedge import fredholm
from hardedge import hamiltonian_flow as flow
from hardedge.verification import verify


def _nudged(st):
    """st with eta_0 moved by 1e-6, on a copy of its vector."""
    out = dataclasses.replace(st, u=st.u.copy())
    out.eta[0] += 1e-6
    return out


def test_nudged_state_fails_where_nudged(traj_m2):
    states = [_nudged(st) if st.s == 0.5 else st for st in traj_m2.states]
    check = verify(dataclasses.replace(traj_m2, states=states))["first_integrals"]
    assert not check.ok
    assert check.worst_s == 0.5


def test_category_without_states_reads_zero(traj_m2):
    # every kept state lies below s = 0.05, where no jet or gap check runs
    short = dataclasses.replace(traj_m2, states=traj_m2.states[:4])
    assert short.states[-1].s < 0.05
    report = verify(short)
    for name in ("quartic", "appendix_recovery", "gap_vs_fredholm"):
        assert (report[name].max_residual, report[name].worst_s) == (0.0, None)
    assert report["first_integrals"].worst_s is not None


def test_jet_and_gap_checks_cover_states_from_cut(traj_m1, traj_m2, monkeypatch):
    # the eta_0 jet and the Fredholm gap are taken at exactly the states with
    # s >= 0.05, at both M
    seen = {"jet": [], "gap": []}
    eta_derivatives = flow.eta_derivatives

    def record_jet(st):
        seen["jet"].append(st.s)
        return eta_derivatives(st)

    def record_gap(kind):
        def oracle(params, x, target_tol):
            seen["gap"].append((kind, x))
            return SimpleNamespace(logE=0.0)
        return oracle

    monkeypatch.setattr(flow, "eta_derivatives", record_jet)
    monkeypatch.setattr(fredholm, "gap_probability_hardedge", record_gap("s"))
    monkeypatch.setattr(fredholm, "gap_probability_mb", record_gap("r"))
    for traj, kind in ((traj_m1, "s"), (traj_m2, "r")):
        seen["jet"].clear()
        seen["gap"].clear()
        verify(traj)
        kept = [st.s for st in traj.states if st.s >= 0.05]
        assert kept and len(kept) < len(traj.states)
        # appendix_recover asks for the jet a second time at each state
        assert set(seen["jet"]) == (set(kept) if traj.params.M == 2 else set())
        assert seen["gap"] == [(kind, s if kind == "s" else 2.0 * math.sqrt(s))
                               for s in kept]


def test_oracle_refusal_fails_the_gap_check_only(traj_m1, monkeypatch):
    # from s = 2 on the oracle refuses: the gap check fails at the first
    # refused abscissa, asks no further, and every other category stays
    full = verify(traj_m1)
    asked = []
    oracle = fredholm.gap_probability_hardedge

    def refusing(params, s, target_tol):
        asked.append(s)
        if s >= 2.0:
            raise fredholm.NonConvergedError("refused here")
        return oracle(params, s, target_tol=target_tol)

    monkeypatch.setattr(fredholm, "gap_probability_hardedge", refusing)
    report = verify(traj_m1)
    gap = report.pop("gap_vs_fredholm")
    assert (gap.ok, gap.worst_s, gap.refused) == (False, 2.0, "refused here")
    assert gap.max_residual <= full["gap_vs_fredholm"].max_residual
    assert asked == [st.s for st in traj_m1.states if 0.05 <= st.s <= 2.0]
    assert report == {k: c for k, c in full.items() if k != "gap_vs_fredholm"}
