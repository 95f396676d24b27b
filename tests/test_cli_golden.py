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
    "design --sigma2 3e-4 --taps 201 --format json": "7b76ea457e411cb7a3a0a51d90945af3e6234dae48fd913b63dd9b1924fd06e7",
    "design --sigma2 3e-4 --taps 201 --format csv": "81c40e2338903f8f2ef88e03cde6317f59c0492c9de0c10e8f8a786514ad12e7",
    "design --sigma2 3e-4 --taps 1001 --format json": "39fc22dfe4b22b5d3ce9c9c197f4f3593107275c1797036e7dddf1496ae23c6b",
    "design --sigma2 3e-4 --taps 1001 --format csv": "d72447d028c685c07b2647a337dda2b807a884129a97d7622d8847465f758e55",
    "design --sigma2 1e-3 --taps 201 --format json": "0bb17a77f08d197d83a7c8951e8ae71591c1bf68120d002066e9246af1b4c18c",
    "design --sigma2 1e-3 --taps 201 --format csv": "35c5ef350437d2eff323092dd58fd550219bcac576a8de1bcc6ac935ae2d7a70",
    "design --sigma2 1e-3 --taps 1001 --format json": "7c262e3a13b5f6e0707b856143434b0e02cc665d0470bd33440a657eae1dbb9f",
    "design --sigma2 1e-3 --taps 1001 --format csv": "1ae75a5cff6c60c0247c6ea9e51292c6b243c7618fba19ad6b954e9a6759a158",
    "design --sigma2 0.1 --taps 201 --format json": "ee5c9b5d1dc6e48ae259b60a84b4059cd6503322d28be2fcf57a8c7b79df16c7",
    "design --sigma2 0.1 --taps 201 --format csv": "1cb5d9ad494db4acda0a2207509f107ce346752d365d4e04b5831489c1d0075c",
    "design --sigma2 0.1 --taps 1001 --format json": "690ffe80fa279ec0f9c9c0a60d42c5e364ad100c03d3b1586eace98e84cf82ba",
    "design --sigma2 0.1 --taps 1001 --format csv": "a99edf5ef08234b54bd0755b098187ea0df1186017a7e3038e9b6f66e35c2a1d",
    "design --sigma2 10 --taps 201 --format json": "18d508e3d83df11407446ccd20931715c48ac6dd6d3be70f9e59661c1e48de14",
    "design --sigma2 10 --taps 201 --format csv": "75f3956e9a3a8a6daa87d9b8fcc9fadbe2fa11a7cc810a81b2112c9422d9f17f",
    "design --sigma2 10 --taps 1001 --format json": "27a1f1278a9c76b581b34561dd5934d193999498d45d629aebab70fdd0ee634f",
    "design --sigma2 10 --taps 1001 --format csv": "25e52a9655c4c8dc60a1a9bbf7c6547e027f697c6ecd47ae9f7fd159cc430f54",
    "design --sigma2 0.1 --taps 2001": "07bd63e865ffcbce38f8c1078d864747be5af9cfb48068f2436eccffa35491a7",
    "design --sigma2 1e300 --taps 5": "76e866e2d19d0a14fddb57ace13e1337b37ec490b35f8b89fb106fcc253e7dce",
    "curve --format csv": "6f1337c7ab88955599c06e2bab1e9c9ef50f8ed912fda8c4b0d1dab32204644c",
    "curve --grid 1e-5:1:7:log --taps 101 --format csv": "4faab8d97f2c0ddf8c74f7c82172cacc01e60083b22f23ae7d19be14a7013e41",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format csv": "56449e3c6f980cd690a083638040434cfeefb160a6c30f08d661fbd538f9faff",
    "curve --format json": "d37dd2d37fedc0155a4eadafe6182c3e984c115fe52fc92a82d62db86b5d37ec",
    "curve --grid 1e-5:1:7:log --taps 101 --format json": "16c33bde894cce2e77fdd1cd90df4b4261ff58623c35a5536b7e22ba3970211b",
    "curve --grid 1e-9:0.5:2:log --taps 21 --format json": "67555d6667d00bea6d957673b19041b3625481b01a1be76ebb43e4d74d5acc47",
    "mathieu": "686a1132cfe26801f1522651033fb9f6cee0b884b9e01dcc15930513d3078c25",
    "mathieu --q -2.5": "cde709cebda965156629f2ab88cd21ff0e19400157bd2461198fdee7e61792e8",
    "mathieu --grid 1e-300:1e6:7:log": "1f34c9c08da67426d9993955ae9917a914f974b39ef30cdce03fb727fa4117fa",
    "mathieu --q 7.25 --grid 0:6.283185307179586:64:lin": "2f14b0cf748f38439536ddddb7ccc031929cb2abb0b55cf83b49f8bbb697dd80",
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
    "design --sigma2 0.1 --taps 201 --seq-output": "b52ff11617a4a62d40a0c5d63d860c9fb7631c5f9f83d7349f292ad4d41ed9f6",
    "design --sigma2 0.1 --taps 2001 --seq-output": "ca0177b6e4f4e24e03d63f2698d09f91a40159aafd1687bf172aa2a9f0f8232e",
    "design --sigma2 1e300 --taps 5 --seq-output": "befe43790d4f5e84707496e43011df3c916e4d28e6270d19f8736ed7fe3059ac",
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
