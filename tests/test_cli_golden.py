"""Golden bytes of the command-line output.

Each case runs ``compactseq.cli.main`` on a fixed argv and compares the
SHA-256 digest of its stdout (and of the ``--seq-output`` file) with a
pinned value, so any change to a printed digit, a key order or a line
ending fails here.  The cases cover all five subcommands in every output
format; the small-sigma2 designs are the ones where a changed input to
the dual root search first moves a printed lambda1.  A change that is
meant to move printed digits is checked first against
``test_design_values.py``, which pins the design and curve values to
1e-9 relative.

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
    "design --sigma2 3e-4 --taps 201 --format json": "d82066e35bd77484af68329cd2ee9be4c78a06886fce310ad1542b23a3135180",
    "design --sigma2 3e-4 --taps 201 --format csv": "7c15f0617a3681573ba764850fd34ccb992c0ea63b1116f96a786d544b133481",
    "design --sigma2 3e-4 --taps 1001 --format json": "92c1d5690f01b9466f2c438e07ff453b01b79b6617babbceab658205241ab95d",
    "design --sigma2 3e-4 --taps 1001 --format csv": "d53b0b543756c824921c0c40eb82d2fa68fb5963b0916ac223398f42c80839e1",
    "design --sigma2 1e-3 --taps 201 --format json": "08c024651c715c107c40b72b1b6f098ae5ce4c45735de1e9ed1d921b3083b456",
    "design --sigma2 1e-3 --taps 201 --format csv": "93751a5d1642898824401fc0f49a4e5fc4e0160e905ddce20f2352f34ff1cae6",
    "design --sigma2 1e-3 --taps 1001 --format json": "2dafd5453d9185aaa07ed1ece5a6f626bb34e98f3d350488e546834d3e985b19",
    "design --sigma2 1e-3 --taps 1001 --format csv": "a27aaa2c6c5c23962ff09f03d5fa32ea50bbd46464e583cf1c985a0a0f22e4f3",
    "design --sigma2 0.1 --taps 201 --format json": "b76e99c3c86fbbe54b90b2365b690acee8332016e6a0fda7fefaf6a96067b3e9",
    "design --sigma2 0.1 --taps 201 --format csv": "58c17c83a5e9973da5996f782fa371bf5588a4832239942b15f413e82a8cc586",
    "design --sigma2 0.1 --taps 1001 --format json": "3005958e9801662351ac914c308fcd5c041f8a9097abd15ecd8c7b37df54649a",
    "design --sigma2 0.1 --taps 1001 --format csv": "62607f5a4d2ec34e7fa0fcd611fcc0aea5e3f21ec4bc0a23176b8f32a78c195d",
    "design --sigma2 10 --taps 201 --format json": "dd1187ea143f2f6a1ca1f73dd2bff5605c12a96bf4421c3fd2aad58afb2c4f72",
    "design --sigma2 10 --taps 201 --format csv": "78bcc050084f200f5d67a5c7575792b8af634cf384d9ca0a2b6a4d57cb51c0d6",
    "design --sigma2 10 --taps 1001 --format json": "231e3ca7d299dd3b23f363e7f3845212cc209c3c3ec293481a14da83c045f474",
    "design --sigma2 10 --taps 1001 --format csv": "cfb733ef953f3f0ea18e07d50f233d23298e6ad413004f201f6dd895c4d5021f",
    "curve --format csv": "ed55b64694983d88f97cf45dfb47e4e87205bd8146330a5326d26c6f6a9620ff",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "c40a5a6f46899e0ae26cafdf07c61d424d0572b5f22376cc133e2a82de81bc9a",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "e867caa3ab170805a00f59b8c88997facf95c4cb044a26148b380d18ddf54790",
    "curve --format json": "83a1a19f4832edc4366e74abe85b79e21e70368a8280119b08c072f35619c1fe",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "1b3b4a4d12d4f40fc760184e187a7f6b6d2d84942510c86203420766acab3b32",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "2282023b5893ec607fd2a9e010a51c52126d066f2650db58a69fff67138b1937",
    "mathieu": "6293465982a93b5b9abf417dba3dba51e9c032657531fe9f361288f231a6f90e",
    "mathieu --q -2.5": "7f40f57c68966a0b8ba98f6d19d691856ffa12cdaabf971c454938a6c33f6686",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "2ddce9212f658ae8bc1e79a1fcb22c8c19bb49076a80b25b4c75fdcf33fd020c",
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
    "--seq-output": "609893751f481d2a5554d24d0ae5da1fe11b85e4a93a17295458620af8678c2e",
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
