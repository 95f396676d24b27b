"""Golden bytes of the command-line output.

Each case runs ``compactseq.cli.main`` on a fixed argv and compares the
SHA-256 digest of its stdout (and of the ``--seq-output`` file) with a
pinned value, so any change to a printed digit, a key order or a line
ending fails here.  The cases cover all five subcommands in every output
format; the small-sigma2 designs are the ones where a changed input to
the dual bisection first moves a printed lambda1.

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

from compactseq.cli import main

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
    "design --sigma2 3e-4 --taps 201 --format json": "4c9f5031de9c05cdb7799b2f443e5069f47738b86c8f5a82504b979fef3ca4c0",
    "design --sigma2 3e-4 --taps 201 --format csv": "dca501304689abb68bf3267aad46ae69fa331262a1a7fbcc3ec31fe322d6dcb9",
    "design --sigma2 3e-4 --taps 1001 --format json": "fc2a634724006f4ccd30ad4e3d5eb9c7b66642a96ee18dde66762c2d56b0607d",
    "design --sigma2 3e-4 --taps 1001 --format csv": "b777cf0cd0e16a0ad324648b3bfb60fde5b43548ac216b87356feba7dbdea130",
    "design --sigma2 1e-3 --taps 201 --format json": "9f0b09c7dd66e7c0ea1a99110f7a64da388410f014f559476c590f8767833857",
    "design --sigma2 1e-3 --taps 201 --format csv": "df26c9955f3181622d8e07461dbfbf41e3136b95e484e1fd6463690311931737",
    "design --sigma2 1e-3 --taps 1001 --format json": "d224791c7062c43dc451dae4b9639996682b36a6b4caf550ad62b2b88b16f7d9",
    "design --sigma2 1e-3 --taps 1001 --format csv": "f12c7886e00ba97cd7ef15bbfcb69a243f4ba28c90b26a177585e13c7397f2db",
    "design --sigma2 0.1 --taps 201 --format json": "87ac2a085f15419a7b5ff47531aef88e64d013a9e670ebd5974fc4183ead8ad0",
    "design --sigma2 0.1 --taps 201 --format csv": "d44054b4c297a3e5d22a8cb7decfd0d805c7b5834cfb9d0873a5e47ace2640c3",
    "design --sigma2 0.1 --taps 1001 --format json": "43fd14fc773d9a5de492cab1974feb214658b9e14bbfda0bfceb21727857fbbc",
    "design --sigma2 0.1 --taps 1001 --format csv": "2d609c83a55123513aa19d5c1d9e82c1ffd5e1133daf96b8a9ad88a3a838ed8b",
    "design --sigma2 10 --taps 201 --format json": "f5c84308fa1fe685c81ab78cdfffc84d98f2cfc126d7cdee43e979fcb3f61e44",
    "design --sigma2 10 --taps 201 --format csv": "41f6d4532f2944f2bd596866efba6bc41f45d6c87d678d27fba55c71bc98169b",
    "design --sigma2 10 --taps 1001 --format json": "349ee404e2bcf2eb3625add64da84e6d49b471e586b422e292717e0d9e1cbce9",
    "design --sigma2 10 --taps 1001 --format csv": "52cdcad76e41ec51a775aa27ed04c62d8d87fbc0d5912df3868cedd97ed523c8",
    "curve --format csv": "6f18c2ff2896e7ae9fc0de92f55d9ea2db9b3877c7bb29e670885907472dd352",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "d89ef4cf89805e8bc170cdc14c744c7ecfafb52ebdc87ec352769b5942887a9a",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "aafa0aba316615b9cb5b939e4eb4f4f8726b8c88aebb5aae40b9dd0ef42ace48",
    "curve --format json": "87072bd4a24e2e5229630eb6d928aeb88984041ffb3b078482cb3afe76b3a8a5",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "03f87f726ecf82861997d5ad38c4fe54e8c6c8ea49ca968a4223ff5ea33c2d83",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "66c6a6c80c55138f19495230795b3afb94ff51756ef6bc20e77f1f9983d4f676",
    "mathieu": "6293465982a93b5b9abf417dba3dba51e9c032657531fe9f361288f231a6f90e",
    "mathieu --q -2.5": "7f40f57c68966a0b8ba98f6d19d691856ffa12cdaabf971c454938a6c33f6686",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "2ddce9212f658ae8bc1e79a1fcb22c8c19bb49076a80b25b4c75fdcf33fd020c",
    "windows --family all": "89e01c21d9fd004556e67cad38cf240e11c35b5a04f803cf3e9d0bd917755965",
    "analyze --input ex1.seq --format json": "105c9806a8cc708d94df9cbdc60f144f2f13fcd8af6d9e5b7e895835edceb470",
    "analyze --input ex1.seq --format csv": "7d7b33eaf9b837a1c04ce2e0090dca196e83c0690ac6bb6b4bcf1d2c4c5be421",
    "analyze --input real.seq --format json": "8c4bea3b9ca252b93fc13e36ac663c352c25fd600da6b938faa60a60cdb5d366",
    "analyze --input real.seq --format csv": "8caf8217e73f35ad3209dd4c619b9c1d0b17bdebfd72fdecedfebb6a7d9ec924",
    "analyze --input complex.seq --format json": "1c02c169642ce3e5b8e08b5ec1e5ea27f3c5f6ba981c6c6468e87bafdd221c84",
    "analyze --input complex.seq --format csv": "e6cfb5a3952bcf3d92c82fdd50df0c9c0635d41902ff9ebf7d7e868fe8bbddfb",
    "analyze --input sparse.seq --format json": "075544e5ec587839233f37a7cb3d32f03180a552e5f6f3227bb6b8713da4bb70",
    "analyze --input sparse.seq --format csv": "751623b996e08327ba689975abb43803555debb8b5bbd6b029bf670a6f88f6cb",
    "analyze --input single.seq --format json": "0a745730e9bdc5926d7595f15a266452ef989ce6c77e1861fc1f8d6674f1e3b6",
    "analyze --input single.seq --format csv": "c5f980e0c77eda8a8ecfb893e01a5cfe946341d70e7f1c7bf97685b7930801c9",
    "--seq-output": "916c05d4d040286ccff8262c8d17b210f986adec0e9ec69e217414cb669c8bba",
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
