import json
import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    design_json_reference,
    dtft,
    indices,
    modulus,
    norm2,
    parse_sequence_reference,
    sequence_text_reference,
    shift,
)

from compactseq.cli import _design_json, main
from compactseq.design import design_max_compact
from compactseq.sequence import (
    Sequence,
    _format_taps,
    autocorrelation,
    parse_sequence,
    read_sequence,
    write_sequence,
)
from compactseq.spreads import measure

EX1 = Sequence(np.array([1.0, 7.0, 2.0]))


def test_construction_validation():
    with pytest.raises(ValueError):
        Sequence(np.array([]))
    with pytest.raises(ValueError):
        Sequence(np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        Sequence(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        Sequence(np.array([1.0, np.inf]))
    for offset in (1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="offset must be an integer"):
            Sequence([1.0], offset=offset)
    s = Sequence([1, 2], offset=-3)
    assert s.taps.dtype == np.complex128
    assert list(indices(s)) == [-3, -2]
    assert len(s) == 2


def test_construction_from_complex_arrays():
    # a contiguous complex128 array is kept, not copied; any other is copied
    c = np.array([1 + 2j, 3 - 1j, 0.5j, 2.0, -1 + 0j, 4j])
    s = Sequence(c, offset=2)
    assert s.taps is c and not c.flags.writeable
    view = np.array([1 + 2j, 3 - 1j, 0.5j, -0.0, -1 + 0j, 4j])[::2]
    s = Sequence(view)
    assert s.taps.tobytes() == np.array(view).tobytes()
    assert s.taps.flags.c_contiguous and not s.taps.flags.writeable
    # measure views the taps as float pairs, which a strided array refused
    assert repr(measure(s)) == repr(measure(Sequence(view.copy())))
    with pytest.raises(ValueError, match="taps must be a nonempty 1-d array"):
        Sequence(np.ones((2, 3), dtype=complex))
    for bad in (math.nan, math.inf, -math.inf):  # only an imaginary part
        with pytest.raises(ValueError, match="taps must be finite"):
            Sequence(np.array([1.0 + 0j, complex(2.0, bad)]))
    for zeros in (np.zeros(3, dtype=complex), np.array([-0.0 - 0.0j, 0j])):
        with pytest.raises(ValueError, match="at least one nonzero tap"):
            Sequence(zeros)


def test_taps_are_frozen():
    s = Sequence([1.0, 2.0])
    with pytest.raises(ValueError):
        s.taps[0] = 5.0


def test_norm2():
    assert norm2(EX1) == 54.0
    assert norm2(Sequence([3j, 4.0])) == pytest.approx(25.0, abs=0)


def test_shift_and_modulus():
    s = shift(EX1, -1)
    assert s.offset == -1
    assert np.all(s.taps == EX1.taps)
    m = modulus(Sequence([3 + 4j, -2.0], offset=2))
    assert m.offset == 2
    assert np.allclose(m.taps, [5.0, 2.0])
    assert np.all(m.taps.imag == 0)


def test_dtft_values():
    # X(0) is the plain tap sum; X(pi) alternates signs
    assert dtft(EX1, 0.0) == pytest.approx(10.0)
    assert dtft(EX1, np.pi) == pytest.approx(-4.0, abs=1e-12)
    # offset enters as a phase: shifting by 1 multiplies by e^{-jw}
    w = 0.7
    assert dtft(shift(EX1, 1), w) == pytest.approx(np.exp(-1j * w) * dtft(EX1, w))


def test_dtft_periodicity_and_parseval():
    rng = np.random.default_rng(7)
    s = Sequence(rng.normal(size=9) + 1j * rng.normal(size=9), offset=-4)
    w = np.linspace(-3.0, 3.0, 11)
    assert np.allclose(dtft(s, w), dtft(s, w + 2 * np.pi), atol=1e-10)
    # mean of |X|^2 over a period equals the energy (rectangle rule is
    # exact for trig polynomials below the grid bandwidth)
    grid = -np.pi + 2 * np.pi * np.arange(64) / 64
    assert np.mean(np.abs(dtft(s, grid)) ** 2) == pytest.approx(norm2(s), rel=1e-12)


def test_autocorrelation():
    assert autocorrelation(EX1, 0) == pytest.approx(54.0)
    assert autocorrelation(EX1, 1) == pytest.approx(21.0)
    assert autocorrelation(EX1, 2) == pytest.approx(2.0)
    assert autocorrelation(EX1, 3) == 0j
    assert autocorrelation(EX1, -5) == 0j
    s = Sequence([1 + 2j, -1j, 0.5])
    for m in range(-3, 4):
        assert autocorrelation(s, -m) == pytest.approx(
            np.conj(autocorrelation(s, m))
        )
    # autocorrelation ignores the offset
    assert autocorrelation(shift(s, 4), 1) == pytest.approx(autocorrelation(s, 1))
    # a lag that is not a whole number is refused, not truncated
    for m in (1.5, "1", math.inf, math.nan):
        with pytest.raises(ValueError):
            autocorrelation(EX1, m)


def test_text_round_trip(tmp_path):
    s = Sequence([1.25 - 3j, 0.0, 7.5], offset=-2)
    path = tmp_path / "seq.txt"
    write_sequence(s, path)
    back = read_sequence(path)
    assert back.offset == -2
    assert np.array_equal(back.taps, s.taps)


def test_parse_header_optional():
    s = parse_sequence("1 0\n7 0\n2 0\n")
    assert s.offset == 0
    assert np.allclose(s.taps, [1, 7, 2])
    s = parse_sequence("# offset=-4\n\n1.5 2.5\n")
    assert s.offset == -4
    assert s.taps[0] == 1.5 + 2.5j
    # a single column means a real tap
    s = parse_sequence("3\n-1\n")
    assert np.allclose(s.taps, [3, -1])
    with pytest.raises(ValueError):
        parse_sequence("1 2 3 4\n")
    with pytest.raises(ValueError):
        parse_sequence("# offset=0\n")


def test_read_skips_a_byte_order_mark(tmp_path):
    # Notepad and PowerShell start a UTF-8 file with U+FEFF
    path = tmp_path / "bom.txt"
    path.write_text("\ufeff# offset=3\n1 2\n", encoding="utf-8")
    s = read_sequence(path)
    assert s.offset == 3
    assert s.taps.tolist() == [1 + 2j]


@pytest.mark.parametrize("width", [1, 2])
def test_a_uniform_file_is_read_by_loadtxt(monkeypatch, width):
    # a broken check in front of numpy's reader would show only in timings
    import compactseq.sequence as sequence

    calls = []
    loadtxt = sequence.np.loadtxt

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(sequence.np, "loadtxt", spy)
    row = " ".join(["-1.25"] * width)
    text = "# offset=-7\n" + "".join(f"{row}\n" for _ in range(500))
    s = parse_sequence(text)
    assert len(calls) == 1
    assert s.offset == -7
    assert s.taps.tolist() == [complex(-1.25, -1.25 if width == 2 else 0.0)] * 500


MIXED_TEXTS = [
    "1 2\n# a note\n\n3\n  \n4 -5\n",  # comment and blank lines between taps
    "-0.0\n1 2\n",  # a one-column -0.0, on the first line
    "1 2\n3 4\n7\n",  # a one-column last line
    "1 2\n5\n3 4\n",  # a lone one-column line among pairs
    "# offset=-3\n2\n-0.0 -0.0\n1e-310\n# offset=4\n-1e300 0\n",
]


@pytest.mark.parametrize("text", MIXED_TEXTS, ids=repr)
def test_mixed_columns_read_as_the_reference_does(text):
    # a file mixing ``re`` and ``re im`` lines is read as pairs, a one-column
    # line as (re, 0); taps are compared as integers, so -0.0 is told from 0.0
    got, want = parse_sequence(text), parse_sequence_reference(text)
    assert got.offset == want.offset
    assert np.array_equal(got.taps.view(np.int64), want.taps.view(np.int64))


def test_text_format_shape(tmp_path):
    path = tmp_path / "seq.txt"
    write_sequence(Sequence([1.0, -2.5j], offset=3), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# offset=3"
    assert lines[1] == "1.0 0.0"
    assert lines[2] == "0.0 -2.5"


def test_csv_and_json_mirror(tmp_path, capsys):
    # the design report's JSON sequence mirrors its --seq-output text file
    path = tmp_path / "design.seq"
    argv = ["design", "--sigma2", "0.5", "--taps", "31", "--seq-output", str(path)]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)["sequence"]
    back = read_sequence(path)
    assert obj["offset"] == back.offset == -15
    assert obj["taps"] == back.taps.real.tolist()
    assert np.all(back.taps.imag == 0)


# taps that the palindrome-aware writers must print as the per-tap ones do:
# palindromes of odd, even and unit length, a palindrome with one tap moved
# by an ulp, signed-zero mirror pairs (equal as values, not as bits),
# subnormals and values near 1e+-300, and complex palindromes with and
# without a signed-zero imaginary mirror pair
TAP_CASES = [
    [3.0],
    [2.0, 2.0],
    [1.0, 2.0],
    [1.0, 2.0, 1.0],
    [1.0, 2.0, 2.0, 1.0],
    [0.5, 1.0, 3.0, 1.0, 0.5],
    [0.5, 1.0, 3.0, 1.0, math.nextafter(0.5, 1.0)],
    [-0.0, 1.0, 0.0],
    [0.0, -1.0, -0.0, -1.0, 0.0],
    [5e-324, 1e-300, 1e300, 1e-300, 5e-324],
    [2.2250738585072014e-308, -1.7976931348623157e308, 2.2250738585072014e-308],
    [-5e-324, 1e-310, -5e-324, 1e300],
    [1 + 2j, 3 - 1j, 1 + 2j],
    [1j, 2 - 1e-300j, 2 - 1e-300j, 1j],
    [1 + 0j, 2.0, complex(1.0, -0.0)],
]


@pytest.mark.parametrize("taps", TAP_CASES, ids=repr)
def test_mirrored_writers_match_the_per_tap_ones(taps, tmp_path):
    x = Sequence(taps, offset=-2)
    res = replace(design_max_compact(0.5, taps=31), sequence=x)
    assert _design_json(res) == design_json_reference(res)
    path = tmp_path / "x.seq"
    write_sequence(x, path)
    assert path.read_bytes().decode("utf-8") == sequence_text_reference(x)


def test_palindrome_taps_are_formatted_once(tmp_path):
    # a design's vector is its even half mirrored: 16 of its 31 taps are
    # formatted, and its JSON and sequence file still read as the per-tap
    # writers print them; a signed-zero mirror pair formats every tap
    res = design_max_compact(0.5, taps=31)
    seen = []
    assert _format_taps(res.sequence.taps.real, lambda t: seen.append(t) or repr(t))
    assert len(seen) == 16
    assert _design_json(res) == design_json_reference(res)
    path = tmp_path / "design.seq"
    write_sequence(res.sequence, path)
    assert path.read_text() == sequence_text_reference(res.sequence)
    seen.clear()
    assert _format_taps(np.array([-0.0, 1.0, 0.0]), lambda t: seen.append(t) or repr(t)) == [
        "-0.0", "1.0", "0.0"]
    assert len(seen) == 3
