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
    "design --sigma2 3e-4 --taps 201 --format json": "95184d1f3a945c0f7c5746187759ffc5ddec4e9f8a7343c76037d2dcde4c56cd",
    "design --sigma2 3e-4 --taps 201 --format csv": "5e5e9536ebd532307487d1d2729f75ef06d32fde3421bcc86c3f280888a740a8",
    "design --sigma2 3e-4 --taps 1001 --format json": "a36358bca9b494ea19605b5f2cb4e7bdc430aaf5713ad078b3a9df351ca5b878",
    "design --sigma2 3e-4 --taps 1001 --format csv": "68d77596a73b4a31db3d144d8b796654a151814a6f2650c0f2123b3fbb26fc86",
    "design --sigma2 1e-3 --taps 201 --format json": "ded0f5090910eb11d6b0fece2cc7d75233611dfcdfb301d8d7a579087dfa865e",
    "design --sigma2 1e-3 --taps 201 --format csv": "0eb03a3942050070cd9e4074669769c16e967c433fa26b64874c75be278ec2ea",
    "design --sigma2 1e-3 --taps 1001 --format json": "054e1a745e99f6fdab41f6d7bddb37c2c7e99a6ffc2c6c09bd4e842cca37106e",
    "design --sigma2 1e-3 --taps 1001 --format csv": "79cdd1be4e95aede97023fb6f31643788f54bdd9abc1bcada8d420b784e18094",
    "design --sigma2 0.1 --taps 201 --format json": "451f9ab849a90c8d2e7d5b3cf4bd5bff480ed0e10b943aacb6352890ed4518b8",
    "design --sigma2 0.1 --taps 201 --format csv": "bf2fbedbf76c82d161c0c133da53f7e3c2b4463da41977d5cd32ff3873d8e13c",
    "design --sigma2 0.1 --taps 1001 --format json": "a0504f4bd93c1b83e1ac8aa83994a0d0f6cbe5af471a67e00e16b2d51451acde",
    "design --sigma2 0.1 --taps 1001 --format csv": "c20bc17664838ec949544c176c8b04607f13ba1e3ca343c132c7496f665054dc",
    "design --sigma2 10 --taps 201 --format json": "0797bdf23150c972f822944f64842ff08f85c09e47971f7c8b3b47961a9b4ebe",
    "design --sigma2 10 --taps 201 --format csv": "fc808112cb6dbaca45bd4972b6f724b1d6cd331ec34cbdc6f130010b32dfb91b",
    "design --sigma2 10 --taps 1001 --format json": "0e4e17c4aa83998bd17ce84b3dc88a5e2f6464a8af94293b6417a5da0e50e163",
    "design --sigma2 10 --taps 1001 --format csv": "66f3ce671e172ca7c3ecda96c6e457da67eaf6fb5962794cf376e37498d8b764",
    "curve --format csv": "fe584a349048224077a5e086547157784bfd5fd93032598e2bb9fb259ad3022e",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "f0d2851264f63ac3548fc8f62538ac8c5c83ce7c8587cb0f3f1eea83fa132a42",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "28d880a46135e9189fcc509f436dbe4d9a12a2bb406f5a2a25358cd3fc54c418",
    "curve --format json": "bed17b11f9d33b6661912cdde058199eed6d86e179c47412db4416315981c96d",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "bcc73f0a0847a3b1152f7633041fc134c3abbcb4e34572498c9f8b7646759f82",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "d6a5efff4cfc8db42930bda07d69102a9662eeb518ea2436c2d411072f82585e",
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
    "--seq-output": "9daa449ce1882edd0ee36a515c4af2c2dcbe949706a651963a2be8522359438d",
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
