import json

import numpy as np
import pytest

from hardedge import cli, fredholm, verification
from hardedge import hamiltonian_flow as flow
from hardedge.cli import main
from hardedge.kernels import HardEdgeParams
from hardedge.reference_data import TABLE1


def test_gap_command(capsys):
    assert main(["gap", "--c", "0", "--r", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["logE"] == pytest.approx(TABLE1[0][4][0], abs=1e-8)
    assert 0.0 < payload["E"] < 1.0


def test_gap_has_no_theta_option():
    # theta is pinned at 2, the only value the 16-node u-rule certifies
    with pytest.raises(SystemExit) as exc:
        main(["gap", "--c", "0", "--theta", "1.5", "--r", "1"])
    assert exc.value.code == 2


def test_table1_degenerate_window(tmp_path, capsys):
    rc = main(["table1", "--out", str(tmp_path), "--r-min", "4",
               "--r-max", "4", "--nodes", "24"])
    assert rc == 0
    lines = (tmp_path / "table1.csv").read_text().strip().split("\n")
    # one layout: the a1 columns are empty without a triple
    assert lines[0] == "r,logE_c0,a1_c0,logE_c1,a1_c1"
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(TABLE1[0][4][0], abs=1e-7)
    assert row[2] == row[4] == ""
    assert (tmp_path / "table1_diff.json").exists()
    assert (tmp_path / "table1.manifest.json").exists()


def test_table1_with_a1_column(tmp_path):
    rc = main(["table1", "--out", str(tmp_path), "--r-min", "4",
               "--r-max", "6", "--nodes", "32"])
    assert rc == 0
    lines = (tmp_path / "table1.csv").read_text().strip().split("\n")
    assert lines[0] == "r,logE_c0,a1_c0,logE_c1,a1_c1"
    diff = json.loads((tmp_path / "table1_diff.json").read_text())
    assert all(cell["logE_abs_diff"] < 1e-6 for cell in diff["cells"])


def test_table1_csv_feeds_fit(tmp_path, capsys):
    # the a1 cells are empty at both ends of the range
    assert main(["table1", "--out", str(tmp_path), "--r-min", "4",
                 "--r-max", "9", "--nodes", "32"]) == 0
    assert main(["fit", str(tmp_path / "table1.csv"), "--extrapolate"]) == 0
    fit = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    diff = json.loads((tmp_path / "table1_diff.json").read_text())
    cell = [e for e in diff["cells"] if (e["c"], e["r"]) == (0, 8)][0]
    assert fit["window"] == [7.0, 8.0, 9.0]
    assert fit["a1"] == cell["a1"]
    assert fit["a1_extrapolated"] == diff["extrapolated_a1"]["0"]


@pytest.mark.parametrize("r_max, code", [(15, 0), (16, 2)])
def test_table1_refuses_r_max_past_cap(r_max, code, tmp_path, capsys,
                                       monkeypatch):
    # gap's cap, refused before any factor table is built
    if code:
        monkeypatch.setattr(fredholm, "borodin_factor_tables", _raises(
            AssertionError("a factor table was computed")))
    assert main(["table1", "--out", str(tmp_path), "--r-min", "14",
                 "--r-max", str(r_max), "--nodes", "24"]) == code
    err = capsys.readouterr().err
    if code:
        assert err == "error: r > 15.0 is refused: E underflows double precision\n"
        assert not (tmp_path / "table1.csv").exists()
    else:
        assert err == ""


def test_table1_refused_cell_leaves_the_others(tmp_path, capsys, monkeypatch):
    # at c=0, r=9 the factor tables keep one entry each, A = 1/w_0 and B = 1
    # at the first node, so G = B^T diag(2 w) A = diag(2, 0, ...) and
    # det(1 - G) = -1; only that cell may be refused
    assert main(["table1", "--out", str(tmp_path / "ok")]) == 0
    real = fredholm.borodin_factor_tables

    def flipped(mb, xs, ys):
        A, B = real(mb, xs, ys)
        for k, row in enumerate(xs):
            if mb.c == 0.0 and row[0] + row[-1] == pytest.approx(9.0):
                A[k], B[k] = 0.0, 0.0
                A[k, 0, 0] = 1.0 / fredholm.make_rule(len(row), 9.0).weights[0]
                B[k, 0, 0] = 1.0
        return A, B

    monkeypatch.setattr(fredholm, "borodin_factor_tables", flipped)
    assert main(["table1", "--out", str(tmp_path / "bad")]) == 0
    ok, bad = (json.loads((tmp_path / d / "table1_diff.json").read_text())
               for d in ("ok", "bad"))
    assert bad["failures"] == [{"c": 0, "r": 9, "error":
                                "Fredholm determinant lost positivity"}]
    rows = {d: [line.split(",") for line in
                (tmp_path / d / "table1.csv").read_text().splitlines()[1:]]
            for d in ("ok", "bad")}
    for good, got in zip(rows["ok"], rows["bad"]):
        r = int(good[0])
        assert got[3:] == good[3:]                      # the c=1 column
        assert got[1] == ("nan" if r == 9 else good[1])
        # the a1 triples centred at 8, 9 and 10 need r=9
        assert got[2] == ("" if r in (8, 9, 10) else good[2])
    cells = {(e["c"], e["r"]): e for e in ok["cells"]}
    for e in bad["cells"]:
        ref = {k: v for k, v in cells[(e["c"], e["r"])].items()
               if not (e["c"] == 0 and e["r"] in (8, 10) and k.startswith("a1"))}
        assert e == ref
    assert (0, 9) not in {(e["c"], e["r"]) for e in bad["cells"]}
    assert len(bad["cells"]) == 21


def test_verify_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("case", ["m1", "m2-special"])
def test_verify_m1_passes(case, tmp_path, capsys):
    rc = main(["verify", case, "--s-max", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / f"verify_{case}.json").read_text())
    assert report["pass"]
    for check in report["categories"].values():
        assert check["pass"]
        assert check["worst_s"] is None or 0.0 < check["worst_s"] <= 1.0


def test_verify_m2_special_passes_to_s_20(tmp_path):
    # launched from the Nystrom resolvent, the M=2 flow holds every category
    # to s=20, gap_vs_fredholm included (1.1e-7 there)
    assert main(["verify", "m2-special", "--s-max", "20",
                 "--out", str(tmp_path)]) == 0


def test_verify_integrates_up_to_s_max(monkeypatch, capsys):
    # an --s-max off the case's grid is still the last output abscissa
    seen = []
    real = cli.flow.integrate

    def recording(params, s0, s_targets, tol):
        seen.append(list(s_targets))
        return real(params, s0, s_targets, tol=tol)

    monkeypatch.setattr(cli.flow, "integrate", recording)
    for case in ("m1", "m2-special"):
        assert main(["verify", case, "--s-max", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["s_max"] == 3.0
    assert seen == [[1e-4, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0],
                    [1e-4, 1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0]]


def test_verify_failure_names_category_and_abscissa(monkeypatch, capsys):
    monkeypatch.setitem(verification.TOLERANCES, "folding", 0.0)
    assert main(["verify", "m1", "--s-max", "1.0"]) == 1
    out, err = capsys.readouterr()
    check = json.loads(out)["categories"]["folding"]
    assert not check["pass"] and check["max_residual"] > 0.0
    assert "folding" in err and f"s={check['worst_s']:g}" in err


@pytest.mark.parametrize("case, s_max, refusal", [
    ("m1", "40", "no convergence to 1e-09 within 256 nodes"),
    ("m2-special", "60", "r > 15.0 is refused"),
])
def test_verify_reports_past_fredholm_range(case, s_max, refusal, tmp_path,
                                            capsys):
    # the oracle refuses the last abscissa; the report still has every category
    assert main(["verify", case, "--s-max", s_max, "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    report = json.loads((tmp_path / f"verify_{case}.json").read_text())
    assert json.loads(out) == report and not report["pass"]
    gap = report["categories"]["gap_vs_fredholm"]
    assert not gap["pass"] and refusal in gap["refused"]
    assert gap["worst_s"] == float(s_max)
    assert f"gap_vs_fredholm refused at s={s_max}: {refusal}" in err
    assert list(report["categories"]) == list(verification._CATEGORIES[
        1 if case == "m1" else 2])
    for name in ("first_integrals", "schlesinger", "rank_one"):
        assert report["categories"][name]["pass"]


def _raises(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


@pytest.mark.parametrize("argv, patch, code, message", [
    pytest.param(["verify", "m1"],
                 (flow, "integrate", flow.FlowError("drift")), 1, "drift",
                 id="verify-flow-error"),
    pytest.param(["ode", "--nu", "0.5"], None, 1,
                 "the other nu wait for ROADMAP item 2, step 2",
                 id="ode-refusal"),
    pytest.param(["ode", "--nu", "0", "0", "0"], None, 2,
                 "only M in {1, 2} is supported", id="ode-m3"),
    pytest.param(["mc", "--samples", "10"],
                 (cli, "sample_min_singular_sq",
                  np.linalg.LinAlgError("Eigenvalues did not converge")),
                 1, "Eigenvalues did not converge", id="mc-linalg-error"),
    pytest.param(["gap", "--c", "-2", "--r", "4"], None, 2,
                 "c must exceed -1", id="gap-invalid-c"),
    pytest.param(["gap", "--c", "1.5", "--r", "4"], None, 2,
                 "c must be an integer: the 16-node u-rule is exact only "
                 "where u^c is a polynomial", id="gap-non-integer-c"),
    pytest.param(["mc", "--samples", "0"], None, 2, "samples must be >= 1",
                 id="mc-zero-samples"),
    pytest.param(["ode", "--points", "0"], None, 2,
                 "--points must be at least 2", id="ode-empty-grid"),
    pytest.param(["ode", "--points", "1"], None, 2,
                 "--points must be at least 2", id="ode-points-1"),
    pytest.param(["ode", "--s-max", "1e-4"], None, 2,
                 "--s-max must exceed 0.0001, the first output abscissa",
                 id="ode-s-max-at-first-abscissa"),
    pytest.param(["ode", "--s-max", "1e-5"], None, 2,
                 "--s-max must exceed 0.0001, the first output abscissa",
                 id="ode-s-max-below-first-abscissa"),
    pytest.param(["sigma", "--s", "0"], None, 2,
                 "--s values must exceed the launch point 1e-05",
                 id="sigma-s-zero"),
    pytest.param(["sigma", "--s", "0.5", "1e-5"], None, 2,
                 "--s values must exceed the launch point 1e-05",
                 id="sigma-s-at-launch"),
    pytest.param(["sigma", "--s", "1", "1"], None, 2,
                 "--s values must be distinct", id="sigma-s-repeated"),
    pytest.param(["fit", "/nonexistent/tail.csv"], None, 2,
                 "No such file or directory", id="fit-missing-file"),
])
def test_exit_code(argv, patch, code, message, monkeypatch, capsys, tmp_path):
    # main alone maps an exception to its exit code and one stderr line
    if patch is not None:
        module, name, exc = patch
        monkeypatch.setattr(module, name, _raises(exc))
    if argv[0] in ("mc", "ode"):
        argv = argv + ["--out", str(tmp_path)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_mc_oracle_refusal_exits_numerical(tmp_path, capsys, monkeypatch):
    # the M=1 oracle refuses at s=30, before any sample is drawn
    def no_sampling(cfg):
        raise AssertionError("sampled before the oracle refused")

    monkeypatch.setattr(cli, "sample_min_singular_sq", no_sampling)
    rc = main(["mc", "--n0", "10", "--samples", "200",
               "--s-grid", "0.5", "30", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no convergence" in err
    assert "Traceback" not in err


def test_mc_deterministic_output(tmp_path):
    args = ["mc", "--n0", "8", "--nu", "0", "--samples", "400",
            "--seed", "7", "--s-grid", "0.5", "1.0"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "mc_gap.csv").read_bytes()
    b = (tmp_path / "b" / "mc_gap.csv").read_bytes()
    assert a == b
    header = a.decode().split("\n")[0]
    assert header.endswith("E_analytic,sigma_distance")
    manifest = json.loads((tmp_path / "a" / "mc.manifest.json").read_text())
    assert manifest["seed"] == 7


def test_ode_export(tmp_path):
    rc = main(["ode", "--nu", "-0.5", "0.0",
               "--s-max", "1.0", "--points", "12", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",")
    log_e = data[:, header.index("logE")]
    assert np.all(np.diff(log_e) < 0)    # E decreasing in s
    res_cols = [i for i, h in enumerate(header) if h.startswith("res_")
                and not h.endswith("imag_leakage")]
    assert np.max(np.abs(data[:, res_cols])) < 1e-8
    manifest = json.loads((tmp_path / "ode.manifest.json").read_text())
    assert (manifest["parameters"]["M"], manifest["parameters"]["nu"]) == (
        2, [-0.5, 0.0])


def test_ode_m1_from_one_nu(tmp_path):
    # one --nu value is M=1; the manifest records M and the values given
    assert main(["ode", "--nu", "0", "--s-max", "1.0", "--points", "4",
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "ode.manifest.json").read_text())
    params = manifest["parameters"]
    assert (params["M"], params["nu"]) == (1, [0.0])
    assert not {"m", "nu1", "nu2"} & set(params)
    # the run's cost: the stepper's right-hand-side evaluations
    grid = np.geomspace(1e-4, 1.0, 4)
    assert manifest["diagnostics"] == {
        "nfev": flow.integrate(HardEdgeParams.from_nu((0.0, 0.0)), 1e-5,
                               grid).nfev}


@pytest.mark.parametrize("argv", [
    pytest.param(["ode", "--m", "1"], id="ode-m"),
    pytest.param(["ode", "--nu1", "0"], id="ode-nu1"),
    pytest.param(["mc", "--m", "2"], id="mc-m"),
    pytest.param(["sigma", "--nu1", "0"], id="sigma-nu1"),
    pytest.param(["indicial", "--nu1", "-0.5", "--nu2", "0"],
                 id="indicial-nu1-nu2"),
    pytest.param(["indicial", "--nu", "-0.5"], id="indicial-one-nu"),
    pytest.param(["indicial"], id="indicial-no-nu")])
def test_index_set_is_named_by_nu_alone(argv, capsys):
    # M is the number of --nu values, so no option states it again
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_sigma_command(capsys):
    rc = main(["sigma", "--s", "0.5", "1.0"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 2
    for entry in report:
        assert abs(entry["quartic"]) < 1e-6
        assert abs(entry["third_order"]) < 1e-6
        assert abs(entry["f_identity"]) < 1e-6


def test_fit_command(tmp_path, capsys):
    rs = np.arange(4.0, 15.0)
    a1, b1, c1 = -0.7, 0.1, 0.05
    path = tmp_path / "tail.csv"
    rows = [f"{r},{a1 * r ** (4 / 3) + b1 * r ** (2 / 3) + c1}" for r in rs]
    path.write_text("\n".join(rows) + "\n")
    rc = main(["fit", str(path), "--extrapolate"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a1"] == pytest.approx(a1, abs=1e-10)
    assert payload["a1_extrapolated"] == pytest.approx(a1, abs=1e-8)
    # the CSV format prints the same numbers under a one-line header
    assert main(["fit", str(path), "--extrapolate", "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.strip().split("\n")
    cols = ["a1", "b1", "c1", "residual", "a1_extrapolated"]
    assert header.split(",") == cols
    assert [float(v) for v in row.split(",")] == [payload[c] for c in cols]


def test_fit_command_refuses_nan_row(tmp_path, capsys):
    # the CSV of a table1 run with one refused cell
    rows = ["r,logE_c0"] + [f"{r},{TABLE1[0][r][0]!r}" for r in range(4, 12)]
    rows[3] = "6,nan"
    path = tmp_path / "table1.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit", str(path), "--extrapolate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite point at r=6\n"
    # a header without rows, as from a table1 run with every cell refused
    path.write_text("r,logE_c0\n")
    assert main(["fit", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path} has no (r, logE) rows\n"


def test_ode_launch_point_is_not_an_option():
    # every flow command launches at s0 = 1e-5
    with pytest.raises(SystemExit) as exc:
        main(["ode", "--s0", "0.1"])
    assert exc.value.code == 2


def test_ode_refuses_empty_grid(tmp_path, capsys):
    # refused in the option's own terms, before any file is written
    assert main(["ode", "--points", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: --points must be at least 2\n"
    assert not any(tmp_path.iterdir())


def test_indicial_command(capsys):
    rc = main(["indicial", "--nu", "-0.5", "0.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(set(payload["fixed_exponents"])) == [0.5, 1.0, 1.5]
    assert len(payload["fractional_C1"]) == 6


def test_mc_save_samples(tmp_path):
    rc = main(["mc", "--n0", "4", "--nu", "0", "--samples", "32",
               "--seed", "3", "--save-samples", "--out", str(tmp_path)])
    assert rc == 0
    raw = tmp_path / "lambda_min.f64"
    assert raw.exists()
    lam = np.fromfile(raw, dtype="<f8")
    assert lam.size == 32 and np.all(lam > 0)
    sidecar = json.loads((tmp_path / "lambda_min.f64.json").read_text())
    assert sidecar["seed"] == 3


def test_gap_csv_format(capsys):
    assert main(["gap", "--c", "0", "--r", "4", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].split(",")[0] == "c"
    vals = lines[1].split(",")
    assert float(vals[4]) == pytest.approx(TABLE1[0][4][0], abs=1e-8)
