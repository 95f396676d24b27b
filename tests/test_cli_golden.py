"""Golden bytes of the command-line output.

Each case runs ``compactseq.cli.main`` on a fixed argv and compares the
SHA-256 digest of its stdout (and of the ``--seq-output`` file) with a
pinned value, so any change to a printed digit, a key order or a line
ending fails here.  The cases cover all five subcommands in every output
format; the small-sigma2 designs are the ones where a changed input to
the dual root search first moves a printed lambda1.  A change that is
meant to move printed digits is checked first against
``test_design_values.py``, which pins the design and curve values to
1e-9 relative, ``test_mathieu_values.py`` and ``test_spread_values.py``,
which pin the mathieu and analyze values to 1e-13 relative.

The digests were recorded with numpy 2.4 on x86-64 Linux, under
OpenBLAS's SkylakeX kernel.  Float results can differ in the last digit
on another platform or numpy build, and on the same one under another
OpenBLAS kernel (``OPENBLAS_CORETYPE=Haswell``, ``Zen`` or ``Prescott``
moves most digests, ROADMAP item 18), while the value tests named above
pass under each.  After checking such a difference, print fresh digests
with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from compactseq.cli import _build_parser, main

# Sequence files for ``analyze``, written with repr so their bytes are fixed.
_K_REAL = np.arange(-20, 21)
_K_CPLX = np.arange(-16, 17)
SEQ_FILES = {
    "ex1.seq": "1 0\n7 0\n2 0\n",
    "real.seq": "# offset=-20\n" + "".join(
        f"{v!r} 0\n" for v in (np.exp(-_K_REAL**2 / 50.0) * (1 + 0.1 * _K_REAL)).tolist()
    ),
    "complex.seq": "# offset=-16\n" + "".join(
        f"{v.real!r} {v.imag!r}\n"
        for v in (np.exp(-_K_CPLX**2 / 40.0) * np.exp(0.7j * _K_CPLX)).tolist()
    ),
    "sparse.seq": "# offset=-1\n1 0\n0 0\n1 0\n",
    "single.seq": "0 0\n2.5 -1\n0 0\n",
}


def _cases():
    cases = []
    for s2 in ("3e-4", "1e-3", "0.1", "10"):
        for taps in ("201", "1001"):
            for fmt in ("json", "csv"):
                cases.append(("design", "--sigma2", s2, "--taps", taps, "--format", fmt))
    # the longest bench grid, and a coupling near 1e-150
    cases.append(("design", "--sigma2", "0.1", "--taps", "2001"))
    cases.append(("design", "--sigma2", "1e300", "--taps", "5"))
    for fmt in ("csv", "json"):
        cases.append(("curve", "--format", fmt))
        cases.append(("curve", "--grid", "1e-5:1:7:log", "--taps", "101", "--format", fmt))
        cases.append(("curve", "--grid", "1e-9:0.5:2:log", "--taps", "21", "--format", fmt))
    cases.append(("mathieu",))
    cases.append(("mathieu", "--q", "-2.5"))
    cases.append(("mathieu", "--grid", "1e-300:1e6:7:log"))
    cases.append(("mathieu", "--q", "7.25", "--grid", "0:6.283185307179586:64:lin"))
    cases.append(("windows", "--family", "all"))
    for name in SEQ_FILES:
        for fmt in ("json", "csv"):
            cases.append(("analyze", "--input", name, "--format", fmt))
    return cases


CASES = _cases()
# designs whose --seq-output file is pinned: the default grid, the longest
# bench grid and a coupling near 1e-150
SEQ_OUTPUT_CASES = [
    ("design", "--sigma2", "0.1", "--taps", "201"),
    ("design", "--sigma2", "0.1", "--taps", "2001"),
    ("design", "--sigma2", "1e300", "--taps", "5"),
]

GOLDEN = {
    "design --sigma2 3e-4 --taps 201 --format json": "2746c7b51eecab4076cf11f02519880457ff0af641de64e3c9a9da5a6942ce85",
    "design --sigma2 3e-4 --taps 201 --format csv": "2b160d475aa1637725302db414cdb32d233c0bd51d69d9a1e623df31696e0e57",
    "design --sigma2 3e-4 --taps 1001 --format json": "04b3e3122be702473a47be457f720ff179e532f59ed9f02b0c6775cb06b6f391",
    "design --sigma2 3e-4 --taps 1001 --format csv": "12afe7c09e49ab043e8c130a27ac07179edfb02e76da8310b68b78774b20d0a0",
    "design --sigma2 1e-3 --taps 201 --format json": "1e923773bdc14d71a6666c6ac5e1d4d23b1d1b4a0b921f3d63f270e5ea1886c5",
    "design --sigma2 1e-3 --taps 201 --format csv": "d6c666c40836c533b27df73f975aaa9073142cc31bb511641dc9357c8785ea66",
    "design --sigma2 1e-3 --taps 1001 --format json": "054e1a745e99f6fdab41f6d7bddb37c2c7e99a6ffc2c6c09bd4e842cca37106e",
    "design --sigma2 1e-3 --taps 1001 --format csv": "79cdd1be4e95aede97023fb6f31643788f54bdd9abc1bcada8d420b784e18094",
    "design --sigma2 0.1 --taps 201 --format json": "f83e9aa78d147be55427d0ce7aafbfee1264094de4002f3a02d3b0883bf64718",
    "design --sigma2 0.1 --taps 201 --format csv": "5ccdcc59a67d8a6da7feffe93cd8a9725f77acb754b61cca70b48b8c36cb063e",
    "design --sigma2 0.1 --taps 1001 --format json": "ee8abe2c8b689ba84a63f19f7aec7cc1be8f522cfb36f187e3db5f4b119eeecb",
    "design --sigma2 0.1 --taps 1001 --format csv": "e3ceddf19cd12c31205a9688bccce61eda3f75ede2ef58e30c2c4f7660b2554d",
    "design --sigma2 10 --taps 201 --format json": "9b60486b2f5e2d1f77c8f237b432d889fa9567b5f24635c98f2672b2c94332da",
    "design --sigma2 10 --taps 201 --format csv": "b675f307188183afbf011c5f8e6a624c9e6f51e90b304a96b8206c57cacdca52",
    "design --sigma2 10 --taps 1001 --format json": "b4a8c55917bd93e327183ff8c8299f0fd35921170790f1710897951ec1125ef7",
    "design --sigma2 10 --taps 1001 --format csv": "1956a81f341b11956efb29a5228f43a347c58213ee52afb87b945bc59ebd99af",
    "design --sigma2 0.1 --taps 2001": "c16d397b7fecae05c83f8a8cab193aea80cbd47185b9b5783387816e5e44d8ae",
    "design --sigma2 1e300 --taps 5": "3d8e4ee5e747461072a9b17e843195f558b300db5d63a41b71f54fff7a9ed862",
    "curve --format csv": "e82cc55e6a27488a0a05fdf1f0181af642fd90ba83dad70d3e7c1c172be81ee9",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "541b98967c25383d2afaba673a78697ba6bf4a714b608c3a8f2e1a1501107685",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "7479e599e1c9f7d687f9ca1cb88a95343eb887ad4892330840501aa4ea10e9e3",
    "curve --format json": "3f5b8c293c3cb23c58d0d29ecaec2c0265d57458885df284046ac0e31c8e243c",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "351fded60c8e491bec2a2a6f2aaad961009159f53144ff178d0bc6b7da821c29",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "8537420b51f9681bdc5f458d5fce5a62d7b2139fe5e2e1d95b90ed56a4420dbf",
    "mathieu": "97b2eeec6141ce63cce6f16c5a86542d9103a0b5ae7c83d1028a368184696000",
    "mathieu --q -2.5": "1951ee356276d7b56dc77fdb6a3b1012e08ec5ce06b46deddd403a217e656650",
    "mathieu --grid 1e-300:1e6:7:log": "fe4504e6efa70895c9397288631ff076e89aeeb80ee51993f08dcd80ed81fedd",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "6e6f5a21653240f93a172240bbe7ad3cdd50d4d4375296e7c934f0404c4892e3",
    "windows --family all": "89e01c21d9fd004556e67cad38cf240e11c35b5a04f803cf3e9d0bd917755965",
    "analyze --input ex1.seq --format json": "105c9806a8cc708d94df9cbdc60f144f2f13fcd8af6d9e5b7e895835edceb470",
    "analyze --input ex1.seq --format csv": "7d7b33eaf9b837a1c04ce2e0090dca196e83c0690ac6bb6b4bcf1d2c4c5be421",
    "analyze --input real.seq --format json": "51d284bcdaade6333234f544ec466aa1b54f492aeec7ab83d5f8fe31b133289c",
    "analyze --input real.seq --format csv": "cfa06546948d3598688172186842886bbafdffa57855e103bd91dbd0faee1d87",
    "analyze --input complex.seq --format json": "5a6dea144ec6ca113b00ceb6b506ddaff63d8c80d6c2e93c5d5f192a132eb82a",
    "analyze --input complex.seq --format csv": "349f7edeec0d9dbbc1820584fac3190eef11b9663435108280038b013328bbfc",
    "analyze --input sparse.seq --format json": "075544e5ec587839233f37a7cb3d32f03180a552e5f6f3227bb6b8713da4bb70",
    "analyze --input sparse.seq --format csv": "751623b996e08327ba689975abb43803555debb8b5bbd6b029bf670a6f88f6cb",
    "analyze --input single.seq --format json": "0a745730e9bdc5926d7595f15a266452ef989ce6c77e1861fc1f8d6674f1e3b6",
    "analyze --input single.seq --format csv": "c5f980e0c77eda8a8ecfb893e01a5cfe946341d70e7f1c7bf97685b7930801c9",
    "design --sigma2 0.1 --taps 201 --seq-output": "134a14dca8f24596e2faa5d4c9d7331a70a96467d617293cf159b489020b2df0",
    "design --sigma2 0.1 --taps 2001 --seq-output": "297386bb185bcb80d3010b08c5f990e8d7f6e1b4baa10e2996e1b0a32be38d25",
    "design --sigma2 1e300 --taps 5 --seq-output": "4fbc5eb50f29f8ebdd848d1c7fde424d781f3b6be479d39610a05900bbab210d",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _output(argv, directory) -> str:
    """stdout of one CLI run, sequence-file names resolved in ``directory``."""
    argv = [str(directory / a) if a in SEQ_FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _write_seq_files(directory):
    for name, text in SEQ_FILES.items():
        (directory / name).write_text(text)


@pytest.fixture
def seq_dir(tmp_path):
    _write_seq_files(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_bytes(argv, seq_dir):
    assert _digest(_output(argv, seq_dir)) == GOLDEN[" ".join(argv)]


def _seq_output(argv, directory) -> str:
    """The ``--seq-output`` file of one design run, written in ``directory``."""
    path = directory / "design.seq"
    _output(argv + ("--seq-output", str(path)), directory)
    return path.read_text()


@pytest.mark.parametrize("argv", SEQ_OUTPUT_CASES, ids=" ".join)
def test_seq_output_bytes(argv, tmp_path):
    assert _digest(_seq_output(argv, tmp_path)) == GOLDEN[" ".join(argv) + " --seq-output"]


def test_one_parser_serves_every_call(seq_dir):
    # the parser is built once per process; a rejected argv and the argv
    # before it must not leak into the next call's defaults or bytes
    assert _build_parser() is _build_parser()
    argvs = [("mathieu", "--q", "-2.5"), ("mathieu",), ("curve", "--format", "csv"),
             ("analyze", "--input", "ex1.seq", "--format", "json"),
             ("design", "--sigma2", "0.1", "--taps", "201", "--format", "csv"),
             ("windows", "--family", "all")]
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["design", "--tol", "1"]) == 1
        assert err.getvalue().startswith("compactseq: error:")
        assert _digest(_output(argv, seq_dir)) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_seq_files(tmp)
        print("GOLDEN = {")
        for argv in CASES:
            print(f'    "{" ".join(argv)}": "{_digest(_output(argv, tmp))}",')
        for argv in SEQ_OUTPUT_CASES:
            print(f'    "{" ".join(argv)} --seq-output": "{_digest(_seq_output(argv, tmp))}",')
        print("}")
