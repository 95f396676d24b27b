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
    "design --sigma2 3e-4 --taps 201 --format json": "a66ceabbc78988fa12b87cc210a7b06d81e27bcb6f5a60880250c31e392cf150",
    "design --sigma2 3e-4 --taps 201 --format csv": "d08c26fa535504d326e251b64e85d8b411879009a1ccc0caba55f99422e4097b",
    "design --sigma2 3e-4 --taps 1001 --format json": "2c532140ab943670da9279de5bd3b1f287a85d43b8d535e6388f91b330a31b19",
    "design --sigma2 3e-4 --taps 1001 --format csv": "50e5dd8f0b8840f4a66178dcba98da62d7367f58de1a580bfac1c9f568591512",
    "design --sigma2 1e-3 --taps 201 --format json": "c2dd8c410bf157dc9b7e004d06d0934b5d2da241e3d526532ed8fed612c632f2",
    "design --sigma2 1e-3 --taps 201 --format csv": "c48e44f850a8cceccacd33e391f5bb37b5c717ae0c39315611c78d292e5ad4ce",
    "design --sigma2 1e-3 --taps 1001 --format json": "6d600622e868b10b1183f728ce62e8f46958dfc07aeeec74c5300a05f98a249e",
    "design --sigma2 1e-3 --taps 1001 --format csv": "42df2f29ac20a83d47ce46ad3e20c82dbbf25afaa3aec51b6448195c814c1519",
    "design --sigma2 0.1 --taps 201 --format json": "995e620c7bfa2f9257b36c27b539a5d448d39dbe60ea4d376190f02da8b63827",
    "design --sigma2 0.1 --taps 201 --format csv": "71ba4e022a2862f1860603e01ee12ab1dd82d7944df94115a0dc354f109c1355",
    "design --sigma2 0.1 --taps 1001 --format json": "3aa8ac93f205937425679ca13e17e3fd117481fbc445500b1d5dde0b492e199d",
    "design --sigma2 0.1 --taps 1001 --format csv": "2e5d3716ff5190d1b1b7e3b7194e03430582f30ce8436c07a683b2c5faf30d89",
    "design --sigma2 10 --taps 201 --format json": "165ce9553e3639f9b9392da0e30683da449924effe3aa9bed2bf99f41b95433a",
    "design --sigma2 10 --taps 201 --format csv": "fc20901ac22f4b959192410378da0eb84136b98bcaa684ca32b28611d3b36437",
    "design --sigma2 10 --taps 1001 --format json": "2865f1f9571af569f050f4410adec0f7a71e54c3b126ee2bf373fa67ff1932af",
    "design --sigma2 10 --taps 1001 --format csv": "41d301790b39a1cce6841042580923d3fc07f02a1d318ea4b6e5d34694ca2e01",
    "curve --format csv": "a6b947a5ee303dc16dbe244f8db5779b6fef6337e0a72ecf61e291013a92f3ad",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "9cb4c92583dfe42775c44b67e58f57f83f54c01fed54aeeefdc2e1815904dfef",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "0f0379835482c49643ce5c044b55cbb2fb50e34263d492d1b3287d2609b3234d",
    "curve --format json": "8698ec39d0c413323a0e0c1a0bfa07690569171748f0c72b2bd076c10a21dd1e",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "08f56e20491e4f52150b27ceb6cd93ba0b516054a68e0b3a0f069953db41dd4a",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "ca55fa7b0512a3a39aedbcd9f78f4c5950998c15a99f943a2bc1076cebaf66e4",
    "mathieu": "fbf12d2aacaecd8690ea39b4c70420646ae187a84e6e6d061f832bc22df87a9c",
    "mathieu --q -2.5": "1951ee356276d7b56dc77fdb6a3b1012e08ec5ce06b46deddd403a217e656650",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "65d18ccefcea9a24114f9e42ec6367b78986573b5879c7c18836bcb87afa522a",
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
    "--seq-output": "0b8aef6372f479f365379b05371574929488e105e9dc793f723089fb8955249a",
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
