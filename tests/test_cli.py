import json
import math

import numpy as np
import pytest

from compactseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_design_json(capsys):
    code, out, err = run(capsys, "design", "--sigma2", "0.1", "--taps", "201")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert 0.257 <= obj["eta_p"] <= 0.267
    assert obj["status"] == "ok"
    assert len(obj["sequence"]["taps"]) == 201


def test_design_csv_and_seq_output(capsys, tmp_path):
    seq_path = tmp_path / "out.seq"
    code, out, _ = run(
        capsys, "design", "--sigma2", "0.5", "--taps", "31",
        "--format", "csv", "--seq-output", str(seq_path),
    )
    assert code == 0
    head, row = out.strip().splitlines()
    assert head.startswith("sigma2,alpha,lambda1")
    assert row.endswith(",ok")
    text = seq_path.read_text()
    assert text.startswith("# offset=-15\n")
    assert len(text.strip().splitlines()) == 32


def test_design_deterministic_bytes(capsys):
    _, a, _ = run(capsys, "design", "--sigma2", "0.3")
    _, b, _ = run(capsys, "design", "--sigma2", "0.3")
    assert a == b


def test_exit_codes(capsys):
    code, _, err = run(capsys, "design", "--sigma2", "-1")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "design", "--sigma2", "1e-9", "--taps", "21")
    assert code == 2 and "taps too few" in err
    code, _, err = run(capsys, "design", "--sigma2", "0.1", "--taps", "10")
    assert code == 1
    code, _, err = run(capsys, "curve", "--grid", "1:2:3")
    assert code == 1
    code, _, err = run(capsys, "curve", "--grid", "0:2:3:log")
    assert code == 1
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent/file.seq")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    # the solver tolerances are constants, not flags
    for argv in (("design", "--sigma2", "0.1"), ("curve",)):
        code, out, err = run(capsys, *argv, "--tol", "1e-10")
        assert code == 1 and out == "" and err.count("\n") == 1 and "--tol" in err


def test_analyze(capsys, tmp_path):
    p = tmp_path / "ex1.seq"
    p.write_text("1 0\n7 0\n2 0\n")
    code, out, _ = run(capsys, "analyze", "--input", str(p))
    assert code == 0
    obj = json.loads(out)
    assert obj["eta_l"] == pytest.approx(0.15854672481530894, rel=1e-12)
    assert obj["delta_wp2"] == pytest.approx(5.612244897959184, rel=1e-12)
    # infinite spread serializes as "inf"
    p2 = tmp_path / "sparse.seq"
    p2.write_text("# offset=-1\n1 0\n0 0\n1 0\n")
    code, out, _ = run(capsys, "analyze", "--input", str(p2))
    assert code == 0
    obj = json.loads(out)
    assert obj["delta_wp2"] == "inf"
    assert obj["eta_p"] == "inf"
    code, out, _ = run(capsys, "analyze", "--input", str(p), "--format", "csv")
    head, row = out.strip().splitlines()
    assert head.split(",")[0] == "mu_n"
    assert float(row.split(",")[1]) == pytest.approx(0.08950617283950617)


def test_analyze_extreme_tap_scales(capsys, tmp_path):
    # spreads are scale-invariant: tiny and huge taps report the unit-scale values
    def report(scale):
        p = tmp_path / "scaled.seq"
        p.write_text("".join(f"{v * scale!r} 0\n" for v in (1.0, 7.0, 2.0)))
        code, out, err = run(capsys, "analyze", "--input", str(p))
        assert code == 0 and err == ""
        return json.loads(out)

    unit = report(1.0)
    for scale in (1e-300, 1e160):
        obj = report(scale)
        assert set(obj) == set(unit)
        for key, value in unit.items():
            assert obj[key] == pytest.approx(value, rel=1e-12)


def test_curve_csv(capsys):
    code, out, _ = run(capsys, "curve", "--grid", "0.1:1:3:log")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma2,delta_n2,eta_p,eta_lower,eta_upper"
    assert len(lines) == 4
    row = [float(t) for t in lines[1].split(",")]
    assert row[0] == pytest.approx(0.1)
    assert row[3] <= row[2] <= row[4] + 5e-3


def test_curve_json_marks_failure(capsys):
    code, out, _ = run(
        capsys, "curve", "--grid", "1e-9:0.5:2:log", "--taps", "21",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["eta_p"] is None and rows[0]["error"]
    assert rows[1]["error"] is None


def test_mathieu_point_mode(capsys):
    code, out, _ = run(capsys, "mathieu", "--q", "-2.5", "--grid", "0:1:5:lin")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# q=-2.5 a0=")
    assert lines[1] == "theta,ce0"
    assert len(lines) == 7
    a0 = float(lines[0].split("a0=")[1])
    assert a0 == pytest.approx(-2.1530783, abs=1e-6)


def test_mathieu_table_mode(capsys):
    code, out, _ = run(capsys, "mathieu", "--grid", "1:5:3:log")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,a0"
    qs = [float(l.split(",")[0]) for l in lines[1:]]
    a0s = [float(l.split(",")[1]) for l in lines[1:]]
    assert qs == pytest.approx([1.0, math.sqrt(5.0), 5.0])
    assert a0s[0] == pytest.approx(-0.455138604, abs=1e-8)
    assert a0s == sorted(a0s, reverse=True)  # a0 decreases with q


def test_mathieu_non_finite_q(capsys):
    for argv in (["--q", "inf"], ["--grid", "1:inf:2:log"]):
        code, out, err = run(capsys, "mathieu", *argv)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.startswith("compactseq: error:") and err.count("\n") == 1


def test_negative_values_after_a_space(capsys):
    # exponent and grid forms that argparse would read as flags
    for value, flag_eq in (
        (["--q", "-1e-3"], ["--q=-1e-3"]),
        (["--grid", "-10:-0.25:40:lin"], ["--grid=-10:-0.25:40:lin"]),
        (["--q", "1", "--gr", "-1:0:2:lin"], ["--q", "1", "--gr=-1:0:2:lin"]),
    ):
        spaced = run(capsys, "mathieu", *value)
        joined = run(capsys, "mathieu", *flag_eq)
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""
    # a unique prefix of --sigma2 reaches the value check; --s could also be
    # --seq-output and stays argparse's error
    spaced = run(capsys, "design", "--sig", "-1e-3")
    assert spaced == run(capsys, "design", "--sig=-1e-3")
    assert spaced[:2] == (1, "") and "sigma2 must be positive and finite" in spaced[2]
    code, out, err = run(capsys, "design", "--s", "-1e-3")
    assert (code, out) == (1, "") and "ambiguous option" in err


def test_windows_scan(capsys):
    code, out, _ = run(capsys, "windows", "--family", "three_tap")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,param,delta_wp2,delta_n2,eta_p"
    assert all(l.startswith("three_tap,") for l in lines[1:])
    etas = [float(l.split(",")[4]) for l in lines[1:]]
    assert all(e >= 0.25 for e in etas)


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "design", "--sigma2", "0.2", "--taps", "51",
        "--output", str(out_path),
    )
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["sigma2"] == 0.2
