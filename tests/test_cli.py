import json

import numpy as np
import pytest

from hardedge import cli, verification
from hardedge.cli import main
from hardedge.reference_data import TABLE1


def test_gap_command(capsys):
    assert main(["gap", "--c", "0", "--r", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["logE"] == pytest.approx(TABLE1[0][4][0], abs=1e-8)
    assert 0.0 < payload["E"] < 1.0


def test_gap_command_invalid_parameters(capsys):
    assert main(["gap", "--c", "-2", "--r", "4"]) == 2


def test_table1_degenerate_window(tmp_path, capsys):
    rc = main(["table1", "--out", str(tmp_path), "--r-min", "4",
               "--r-max", "4", "--nodes", "24"])
    assert rc == 0
    lines = (tmp_path / "table1.csv").read_text().strip().split("\n")
    assert lines[0] == "r,logE_c0,logE_c1"   # no a1 column without a triple
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(TABLE1[0][4][0], abs=1e-7)
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


def test_verify_failure_names_category_and_abscissa(monkeypatch, capsys):
    monkeypatch.setitem(verification.TOLERANCES, "folding", 0.0)
    assert main(["verify", "m1", "--s-max", "1.0"]) == 1
    out, err = capsys.readouterr()
    check = json.loads(out)["categories"]["folding"]
    assert not check["pass"] and check["max_residual"] > 0.0
    assert "folding" in err and f"s={check['worst_s']:g}" in err


def test_mc_rejects_zero_samples(tmp_path):
    assert main(["mc", "--samples", "0", "--out", str(tmp_path)]) == 2


def test_mc_oracle_refusal_exits_numerical(tmp_path, capsys, monkeypatch):
    # the M=1 oracle refuses at s=30, before any sample is drawn
    def no_sampling(cfg):
        raise AssertionError("sampled before the oracle refused")

    monkeypatch.setattr(cli, "sample_min_singular_sq", no_sampling)
    rc = main(["mc", "--m", "1", "--n0", "10", "--samples", "200",
               "--s-grid", "0.5", "30", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no convergence" in err
    assert "Traceback" not in err


def test_mc_deterministic_output(tmp_path):
    args = ["mc", "--m", "1", "--n0", "8", "--nu", "0", "--samples", "400",
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
    rc = main(["ode", "--m", "2", "--nu1", "-0.5", "--nu2", "0.0",
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


def test_fit_command_refuses_nan_row(tmp_path, capsys):
    # the CSV of a table1 run with one refused cell
    rows = ["r,logE_c0"] + [f"{r},{TABLE1[0][r][0]!r}" for r in range(4, 12)]
    rows[3] = "6,nan"
    path = tmp_path / "table1.csv"
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit", str(path), "--skip-rows", "1", "--extrapolate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fit failed: non-finite point at r=6" in captured.err


def test_ode_refuses_empty_grid(tmp_path, capsys):
    assert main(["ode", "--points", "0", "--out", str(tmp_path)]) == 2
    assert "integration failed: s_targets is empty" in capsys.readouterr().err


def test_fit_command_missing_file():
    assert main(["fit", "/nonexistent/tail.csv"]) == 2


def test_indicial_command(capsys):
    rc = main(["indicial", "--nu1", "-0.5", "--nu2", "0.0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(set(payload["fixed_exponents"])) == [0.5, 1.0, 1.5]
    assert len(payload["fractional_C1"]) == 6


def test_mc_save_samples(tmp_path):
    rc = main(["mc", "--m", "1", "--n0", "4", "--nu", "0", "--samples", "32",
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
