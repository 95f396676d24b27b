import argparse
import json
import math

import numpy as np
import pytest

from helpers import csv_reference

from compactseq import cli, mathieu
from compactseq.cli import _build_parser, _csv, main
from compactseq.eigen import EigenPair
from compactseq.windows import default_families


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
    # a point count that is not a whole number or below 1, and an unknown
    # grid kind, each give one error line
    for grid in ("1:2:x:log", "1:2:0:log", "1:2:3:cubic"):
        code, out, err = run(capsys, "curve", "--grid", grid)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("compactseq: error:")
    code, _, err = run(capsys, "analyze", "--input", "/nonexistent/file.seq")
    assert code == 1
    code, _, err = run(capsys, "nonsense")
    assert code == 1
    # a lin grid whose span stop - start overflows is refused, not sampled
    # at nan, nor its nan handed on as a q the user never gave
    for argv in (("mathieu", "--q", "1"), ("mathieu",)):
        code, out, err = run(capsys, *argv, "--grid", "-1e308:1e308:3:lin")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert err.startswith("compactseq: error: lin grid span")
    # the solver tolerances are constants, not flags
    for argv in (("design", "--sigma2", "0.1"), ("curve",)):
        code, out, err = run(capsys, *argv, "--tol", "1e-10")
        assert code == 1 and out == "" and err.count("\n") == 1 and "--tol" in err
    # refused before the grid is built: 2**50 + 1 taps would ask numpy for
    # petabytes, and 2**21 + 3 is the first odd count past the cap 2**21 + 1
    for taps in ("1125899906842625", "2097155"):
        for argv in (("design", "--sigma2", "0.1"), ("curve",)):
            code, out, err = run(capsys, *argv, "--taps", taps)
            assert code == 1 and out == ""
            assert err == "compactseq: error: taps must be at most 2097153\n"


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


def test_analyze_at_any_offset(capsys, tmp_path):
    p = tmp_path / "ex1.seq"
    for offset in (0, 10**12, 2**53, 10**20):
        p.write_text(f"# offset={offset}\n1\n7\n2\n")
        code, out, err = run(capsys, "analyze", "--input", str(p))
        assert code == 0 and err == ""
        obj = json.loads(out)
        assert (obj["delta_n2"], obj["eta_p"]) == (0.08950617283950617, 0.5023305618543713)
    # a time center past the float range is an input error, not a traceback
    p.write_text("# offset=1" + "0" * 400 + "\n1\n7\n2\n")
    code, out, err = run(capsys, "analyze", "--input", str(p))
    assert code == 1 and out == ""
    assert err == "compactseq: error: offset puts the time center beyond the float range\n"


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


def test_curve_below_double_precision_spread(capsys):
    # sqrt(1 + sigma2) rounds to 1 on this grid; eta_upper used to divide
    # by zero there and the traceback escaped main
    code, out, _ = run(capsys, "curve", "--grid", "1e-17:1e-16:2:log", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    for row in rows:
        assert abs(row["eta_upper"] - 0.25) <= 1e-15
        assert row["eta_p"] is None and row["error"]


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


def test_mathieu_point_header_is_the_table_row(capsys):
    for q in ("1e-3", "0.3", "7.25", "1e4", "-1e-3", "-0.3", "-7.25", "-1e4"):
        code, out, _ = run(capsys, "mathieu", "--q", q, "--grid", "0:1:2:lin")
        assert code == 0
        header = out.splitlines()[0]
        kinds = ("lin",) if q.startswith("-") else ("lin", "log")
        for kind in kinds:
            code, out, _ = run(capsys, "mathieu", f"--grid={q}:{q}:1:{kind}")
            assert code == 0
            assert header == "# q={} a0={}".format(*out.splitlines()[1].split(","))


def test_mathieu_non_finite_q(capsys):
    for argv in (["--q", "inf"], ["--grid", "1:inf:2:log"]):
        code, out, err = run(capsys, "mathieu", *argv)
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.startswith("compactseq: error:") and err.count("\n") == 1


def test_mathieu_grid_beyond_the_largest(capsys, monkeypatch):
    # refused before the grid is allocated: q = 1e30 would need about 3.6e8
    # rows and q = 1e300 more than numpy can index
    for argv in (["--q", "1e30"], ["--q", "-1e300"], ["--grid", "1e25:1e30:2:log"]):
        code, out, err = run(capsys, "mathieu", *argv)
        assert code == 2 and out == ""
        assert err.startswith("compactseq: solver failure:") and err.count("\n") == 1
        assert "half-length above 1048576" in err
    # tails still above 1e-12 on every grid take the same exit
    flat = lambda diag, offdiag: EigenPair(0.0, np.full(len(diag), 0.5), 0.0, 0.0)  # noqa: E731
    monkeypatch.setattr(mathieu, "min_eigenpair", flat)
    code, out, err = run(capsys, "mathieu", "--q", "2")
    assert code == 2 and out == ""
    assert err.startswith("compactseq: solver failure: coefficient tails not resolved")
    assert err.count("\n") == 1


def test_grid_too_large_to_allocate(capsys, monkeypatch):
    # a real 1e12-point grid may or may not fail at once, depending on the
    # host's overcommit policy, so the allocation failure is simulated
    def refuse(start, stop, num, **kwargs):
        raise MemoryError(f"Unable to allocate {8 * num} bytes")

    monkeypatch.setattr(np, "geomspace", refuse)
    monkeypatch.setattr(np, "linspace", refuse)
    for argv in (
        ["curve", "--grid", "0.01:1:1000000000000:log"],
        ["mathieu", "--grid", "0:1:1000000000000:lin"],
        ["mathieu", "--q", "1", "--grid", "0:1:1000000000000:lin"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "compactseq: error: Unable to allocate 8000000000000 bytes\n"


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
    # argparse's choices are the only check on --family: they name exactly
    # the stock families, and anything else is refused before a scan
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    choices = next(a for a in sub.choices["windows"]._actions if a.dest == "family").choices
    assert set(choices) == {"all"} | {f.name for f in default_families()}
    code, out, err = run(capsys, "windows", "--family", "kaiser")
    assert (code, out) == (1, "") and "invalid choice" in err


# help, missing and unknown commands, "--", negative values after a prefix,
# repeated flags, extra positionals, --tol, missing and bad values, an
# unwritable --output and runs that succeed; "{out}" is a missing directory
_PARSE_CASES = [
    ["-h"], ["--help"], ["-h", "design"], ["design", "-h"], ["analyze", "-h"],
    ["curve", "-h"], ["mathieu", "-h"], ["windows", "-h"], ["design", "--h"],
    ["design", "--sigma2", "0.5", "-h"], [], ["nope"], ["DESIGN"], ["des"],
    ["--", "design", "--sigma2", "0.5", "--taps", "5"], ["--", "mathieu"],
    ["design", "--", "--sigma2", "0.5"], ["design", "--sigma2", "0.5", "--taps", "5", "--"],
    ["design", "--sig", "-1e-3"], ["design", "--sig=-1e-3"], ["design", "--s", "-1"],
    ["design", "--sigma2", "0.5", "--t", "-5"],
    ["design", "--sigma2", "0.5", "--sigma2", "0.3", "--taps", "5"],
    ["mathieu", "--q", "1", "--q", "2", "--grid", "0:1:3:lin"],
    ["design", "--sigma2", "0.5", "--taps", "5", "extra"], ["windows", "three_tap"],
    ["design", "--sigma2", "0.1", "--tol", "1e-10"], ["curve", "--tol", "1e-10"],
    ["design", "--sigma2"], ["mathieu", "--q"], ["analyze"],
    ["design", "--sigma2", "abc"], ["design", "--sigma2", "0.5", "--taps", "x"],
    ["design", "--sigma2", "0.5", "--format", "xml"], ["windows", "--family", "kaiser"],
    ["windows", "--family", "three_tap", "--output", "{out}"],
    ["curve", "--grid", "0.01:1:2:log", "--taps", "5"],
    ["mathieu", "--q", "-1e-3", "--grid", "0:1:3:lin"], ["windows", "--family", "three_tap"],
]


def test_each_call_is_parsed_once(capsys, monkeypatch, tmp_path):
    # a known command goes straight to its own parser: one parse per call
    seq = tmp_path / "one.seq"
    seq.write_text("1\n")
    calls = []
    parse = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    for argv in (["design", "--sigma2", "0.5", "--taps", "5"], ["analyze", "--input", str(seq)],
                 ["curve", "--grid", "0.1:1:2:log", "--taps", "5"],
                 ["mathieu", "--q", "1", "--grid", "0:1:3:lin"],
                 ["windows", "--family", "three_tap"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == ["compactseq " + argv[0]], argv


def test_a_known_command_never_builds_the_top_level_parser(capsys, monkeypatch, tmp_path):
    # each command's parser is built alone, on its first call; the tree of
    # all five is built only for help and a missing or unknown command
    seq = tmp_path / "one.seq"
    seq.write_text("1\n")
    built = []
    build = cli._build_parser

    def spy():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", spy)
    for argv in (["design", "--sigma2", "0.5", "--taps", "5"], ["analyze", "--input", str(seq)],
                 ["curve", "--grid", "0.1:1:2:log", "--taps", "5"],
                 ["mathieu", "--q", "1", "--grid", "0:1:3:lin"],
                 ["windows", "--family", "three_tap"], ["design", "--sigma2", "abc"],
                 ["mathieu", "-h"]):
        try:
            run(capsys, *argv)
        except SystemExit:
            capsys.readouterr()
    assert built == []
    assert run(capsys, "nope")[0] == 1 and built == [1]


def test_dispatch_matches_the_top_level_parse(capsys, monkeypatch, tmp_path):
    # exit status (or help's SystemExit code), stdout and stderr are those of
    # a parse through the top-level parser alone, which main does when no
    # command parser is found for argv[0]
    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        return code, out.out, out.err

    out = str(tmp_path / "missing" / "scan.csv")
    cases = [[tok.format(out=out) for tok in argv] for argv in _PARSE_CASES]
    direct = [outcome(argv) for argv in cases]
    monkeypatch.setattr(cli, "_command_parser", lambda name: None)
    for argv, got in zip(cases, direct):
        assert got == outcome(argv), argv
    assert {0, 1, ("exit", 0)} <= {code for code, _, _ in direct}


_CSV_CELLS = [0.0, -0.0, 1.0, -2.5, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308,
              1e-310, 1.7976931348623157e308, 0.1, 1 / 3, None]


def test_csv_matches_the_rows_joined_one_by_one():
    # string, None, NaN, +-inf, -0.0 and subnormal cells, 1 to 6 columns
    # and 1 to 2000 rows, in lists and in numpy arrays
    rng = np.random.default_rng(7)
    for ncols in range(1, 7):
        for nrows in (1, 2, 3, 17, 2000):
            columns = []
            for j in range(ncols):
                picks = rng.integers(len(_CSV_CELLS), size=nrows)
                col = [_CSV_CELLS[i] for i in picks]
                if j % 3 == 2:
                    col = [f"s{i}" for i in picks]
                    if j == 5:
                        col = np.array(col)
                elif j % 3 == 1:
                    col = np.array([math.nan if c is None else c for c in col])
                columns.append(col)
            header = ",".join(f"c{j}" for j in range(ncols))
            assert _csv(header, columns) == csv_reference(header, columns), (ncols, nrows)


def test_unwritable_output(capsys, tmp_path):
    # the same exit 1 and error line as an unreadable --input, no traceback
    target = tmp_path / "missing" / "scan.csv"
    code, out, err = run(capsys, "windows", "--family", "three_tap", "--output", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("compactseq: error:") and str(target) in err
    assert not target.parent.exists()


def test_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "design", "--sigma2", "0.2", "--taps", "51",
        "--output", str(out_path),
    )
    assert code == 0 and out == ""
    obj = json.loads(out_path.read_text())
    assert obj["sigma2"] == 0.2
