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

The digests were recorded with numpy 2.4 on x86-64 Linux.  Float results
can differ in the last digit on another platform or numpy build; after
checking such a difference, print fresh digests with

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
    for fmt in ("csv", "json"):
        cases.append(("curve", "--format", fmt))
        cases.append(("curve", "--grid", "1e-5:1:7:log", "--taps", "101", "--format", fmt))
        cases.append(("curve", "--grid", "1e-9:0.5:2:log", "--taps", "21", "--format", fmt))
    cases.append(("mathieu",))
    cases.append(("mathieu", "--q", "-2.5"))
    cases.append(("mathieu", "--q", "7.25", "--grid", "0:6.283185307179586:64:lin"))
    cases.append(("windows", "--family", "all"))
    for name in SEQ_FILES:
        for fmt in ("json", "csv"):
            cases.append(("analyze", "--input", name, "--format", fmt))
    return cases


CASES = _cases()
SEQ_OUTPUT_ARGV = ("design", "--sigma2", "0.1", "--taps", "201", "--seq-output")

GOLDEN = {
    "design --sigma2 3e-4 --taps 201 --format json": "ed761c110a246bf0b7a527721c09ad7c7e2db745f4e494628b7bc0f6e784d13a",
    "design --sigma2 3e-4 --taps 201 --format csv": "2b3bb5607203296ab088d01a9692f6df2d0739d4e3f574176776c0c84a16e021",
    "design --sigma2 3e-4 --taps 1001 --format json": "062a735e5ea00c9f935d11035d876ac50eb4ddd304d5eddfdc2d559e746c5367",
    "design --sigma2 3e-4 --taps 1001 --format csv": "f8160660bccde400e66f4a29da40507cc992f498be15d9e338b74a013eaf3edf",
    "design --sigma2 1e-3 --taps 201 --format json": "b9217fdcf6fbf0f33e91cbc328e756238a197e8ea8f6a5be9e458a412fc838b3",
    "design --sigma2 1e-3 --taps 201 --format csv": "931aff3ab84b99686031656a25734ce868a748ec189fd245f04a0036a4776f76",
    "design --sigma2 1e-3 --taps 1001 --format json": "aafb2f6c16e52b52c79a044c067d7132bf2d33534f23267fba6a721f5041c3b9",
    "design --sigma2 1e-3 --taps 1001 --format csv": "28c33bf26a7c28a8830e0b4dc632daa17deb3eb6ba4420a2682c0b22cc9de088",
    "design --sigma2 0.1 --taps 201 --format json": "68c9b7fbfef0368dba90e43eb17d2d102c600145fa6639837f2127937af734c6",
    "design --sigma2 0.1 --taps 201 --format csv": "f87e6d95e716de7b7d23449ef9239689cfcfd8b5d5eeea9245376827e459374f",
    "design --sigma2 0.1 --taps 1001 --format json": "81b9217e84be014b1de2bbceed944a35dc1d7982ae1ed383af58c264849438c1",
    "design --sigma2 0.1 --taps 1001 --format csv": "9e943cbd140a21665dc34c7ca6a3e1623eb35a57cc5c7dd832e69b38289d2d80",
    "design --sigma2 10 --taps 201 --format json": "87fdbc401378fd4d01f03a378d5c38bf2a929dfa515571ce64ed54d22920fd34",
    "design --sigma2 10 --taps 201 --format csv": "71c9fe2373246f33039d0f38a7ebc4efa16d731039bf6ae24df81be21d13ba74",
    "design --sigma2 10 --taps 1001 --format json": "50446f9b4690461febbb120ee21a9a851b914a11c5df9b380e2bc30be2239a94",
    "design --sigma2 10 --taps 1001 --format csv": "b05135f19c9c5b9f3f2c82729510f780c23d6110831a4e60c4570ea747dcbfcc",
    "curve --format csv": "09e26f54aec8c86e279b1c2228c3e12d3efe3927293fbb9580f38aeb1bb2bd35",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "053c2ed1e9d6b879429e39454578cf611aa2920057e96b9132cc9917ff739926",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "45942c34f0562fc5b655c1cc3e85691464927e0bcdd0d7d5cb6e807d9a2d30a8",
    "curve --format json": "5f002808d9d3b3e2edb2f9c2739f92fe724d4525569943b84b385821c597562b",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "e551f6188dabcf0e87c852115fe1457f33871fbc791ad0972a37f53448bfa639",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "0049e7f30a7dc235bf350b90165c68413a98a1e963914ff69761ec7ac48bf0b9",
    "mathieu": "b2abe327cf5b470ce50c6aec12c2815b30860f3a8fb4856298dc5d0f7d63092e",
    "mathieu --q -2.5": "30969ca0e33705a63c2973e36f09c818e1def30f312a5f594198cc0c11a795ec",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "03b61e0b5ad407bb75630c8a7152dc3e1e14df4a583d426a4a69a840bfafdc5a",
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
    "--seq-output": "0c6d903d667749f39e57d55176a31c980d78e69abea74ef68d140608dab5d54e",
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


def test_seq_output_bytes(tmp_path):
    path = tmp_path / "design.seq"
    _output(SEQ_OUTPUT_ARGV + (str(path),), tmp_path)
    assert _digest(path.read_text()) == GOLDEN["--seq-output"]


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
        _output(SEQ_OUTPUT_ARGV + (str(tmp / "design.seq"),), tmp)
        print(f'    "--seq-output": "{_digest((tmp / "design.seq").read_text())}",')
        print("}")
