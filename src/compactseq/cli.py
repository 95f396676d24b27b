"""Command-line front end.

Subcommands
-----------
design   solve for the maximally compact sequence at one sigma2 (JSON)
analyze  spread report for a sequence file (JSON)
curve    sweep the optimal-compactness curve over a sigma2 grid (CSV)
mathieu  ce0 samples for one q, or an a0(q) table over a q grid (CSV)
windows  spread scan of the stock window families (CSV)

Grids are given as ``start:stop:points:log`` or ``start:stop:points:lin``.
Output goes to stdout unless ``--output`` names a file.  With the same
numpy build on the same CPU, bytes are a pure function of the flags, so
reruns reproduce them exactly; another CPU or build can move a last digit,
as BLAS kernels and numpy's SIMD loops are chosen per CPU.  Exit status is
0 on success, 1 for invalid arguments or inputs (a ``--taps`` above
2**21 + 1, the grid cap, a ``--grid`` too large to allocate and an
unwritable ``--output`` among them), 2 when a solve fails, the requested
constraint is unattainable at the given tap count or a Mathieu q needs a
grid beyond the largest.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .design import (
    _DEFAULT_TAPS,
    DesignConvergenceError,
    UnattainableSpreadError,
    design_max_compact,
    sweep_curve,
)
from .eigen import EigenConvergenceError
from .mathieu import MathieuGridError, ce0, char_value_a0
from .sequence import _format_taps, read_sequence, write_sequence
from .spreads import measure
from .windows import WINDOW_NAMES, default_families, spread_scan

__all__ = ["main"]

_SOLVER_ERRORS = (
    UnattainableSpreadError, DesignConvergenceError, EigenConvergenceError, MathieuGridError
)
_NUMERIC_FLAGS = ("--sigma2", "--taps", "--q", "--grid")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's 2
        raise ValueError(message)


def _join_negative_values(argv) -> list:
    """Rewrite ``--q -1e-3`` as ``--q=-1e-3``, also for a prefix like ``--sig``:
    argparse takes a token that starts with '-' for a value only in the forms
    -12 and -1.5."""
    out = []
    for tok in argv:
        if (tok.startswith("-") and not tok.startswith("--") and out and len(out[-1]) > 2
                and any(f.startswith(out[-1]) for f in _NUMERIC_FLAGS)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"grid must be start:stop:points:log|lin, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from None
    kind = parts[3]
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid endpoints must be finite, got {text!r}")
    if points < 1:
        raise ValueError("grid needs at least one point")
    if kind == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log grid endpoints must be positive")
        return np.geomspace(start, stop, points)
    if kind == "lin":
        if not math.isfinite(stop - start):  # linspace would step by inf
            raise ValueError(f"lin grid span stop - start must be finite, got {text!r}")
        return np.linspace(start, stop, points)
    raise ValueError(f"grid kind must be log or lin, got {kind!r}")


def _json_value(v):
    """JSON-ready form of a value: a record becomes an object of its fields,
    a complex number [re, im], NaN null and an infinity the string "inf" or
    "-inf"."""
    if is_dataclass(v):
        return {f.name: _json_value(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else repr(v)
    return v


def _design_json(res) -> str:
    """The design record as one JSON line, its sequence the object
    {"offset", "taps": real taps}, byte for byte what ``json.dumps`` prints.
    The other fields go through one ``json.dumps`` with an empty taps list,
    and the taps' reprs, each palindrome tap formatted once, are spliced in
    where it stood."""
    seq = res.sequence
    record = {f.name: _json_value(getattr(res, f.name)) for f in fields(res)[:-1]}
    record["sequence"] = {"offset": seq.offset, "taps": []}  # the record's last field
    taps = ", ".join(_format_taps(seq.taps.real, repr))
    return json.dumps(record).replace('"taps": []', f'"taps": [{taps}]', 1) + "\n"


def _columns(records, drop) -> list:
    """One CSV column per field of the dataclass records, except those in
    ``drop``; a complex field fills two, real then imaginary part."""
    cols = []
    for f in fields(records[0]):
        if f.name in drop:
            continue
        col = np.array([getattr(r, f.name) for r in records])
        cols += [col.real, col.imag] if col.dtype.kind == "c" else [col]
    return cols


def _csv(header: str, columns) -> str:
    """CSV text: ``header``, then one row per index into the columns, all cells
    and separators in one join: strings as is, other cells as floats (None is nan) with repr."""
    cells = (["", ","] * (len(columns) - 1) + ["", "\n"]) * len(columns[0])  # cells, separators
    for j, col in enumerate(columns):
        cells[2 * j::2 * len(columns)] = (
            col if isinstance(col[0], str) else map(repr, np.asarray(col, dtype=float).tolist()))
    return header + "\n" + "".join(cells)


def _run_design(args) -> str:
    res = design_max_compact(args.sigma2, taps=args.taps)
    if args.seq_output:
        write_sequence(res.sequence, args.seq_output)
    if args.format == "json":
        return _design_json(res)
    return _csv(
        "sigma2,alpha,lambda1,lambda2,delta_n2,eta_p,"
        "duality_gap,constraint_gap,eig_residual,tail_mass,status",
        _columns([res], drop=("sequence",)),
    )


def _run_analyze(args) -> str:
    rep = measure(read_sequence(args.input))
    if args.format == "json":
        return json.dumps(_json_value(rep)) + "\n"
    return _csv(
        "mu_n,delta_n2,tau_re,tau_im,delta_wp2,mu_wl,delta_wl2,eta_p,eta_l",
        _columns([rep], drop=("mu_wp",)),
    )


def _run_curve(args) -> str:
    points = sweep_curve(_parse_grid(args.grid), taps=args.taps)
    if args.format == "json":
        return json.dumps([_json_value(p) for p in points]) + "\n"
    drop = ("tail_mass", "status", "error")  # readers take every CSV cell for a float
    return _csv("sigma2,delta_n2,eta_p,eta_lower,eta_upper", _columns(points, drop=drop))


def _run_mathieu(args) -> str:
    if args.q is not None:
        ev = ce0(args.q, _parse_grid(args.grid or "0:3.141592653589793:257:lin"))
        return f"# q={ev.q!r} a0={ev.a0!r}\n" + _csv("theta,ce0", [ev.thetas, ev.values])
    qs = _parse_grid(args.grid or "0.25:100:40:log")
    return _csv("q,a0", [qs, [char_value_a0(q) for q in qs]])


def _run_windows(args) -> str:
    fams = default_families()
    if args.family != "all":
        fams = [f for f in fams if f.name == args.family]
    points = [p for f in fams for p in spread_scan(f)]
    return _csv("family,param,delta_wp2,delta_n2,eta_p", _columns(points, drop=("error",)))


_COMMANDS = {  # each command's help line
    "design": "maximally compact sequence for one sigma2",
    "analyze": "spread report for a sequence file",
    "curve": "optimal curve over a sigma2 grid",
    "mathieu": "ce0 samples for one q, or an a0 table",
    "windows": "spread scan of the stock window families",
}


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The parser of the command ``name``, built on its first call."""
    p = _Parser(prog=f"compactseq {name}")
    if name == "design":
        p.add_argument("--sigma2", type=float, required=True,
                       help="target periodic frequency spread (> 0)")
        p.add_argument("--taps", type=int, default=_DEFAULT_TAPS,
                       help="odd grid length (default %(default)s)")
        p.add_argument("--seq-output", help="also write the sequence file here")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(run=_run_design)
    elif name == "analyze":
        p.add_argument("--input", required=True, help="sequence file ('re im' lines)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(run=_run_analyze)
    elif name == "curve":
        p.add_argument("--grid", default="0.01:10:25:log",
                       help="sigma2 grid start:stop:points:log|lin")
        p.add_argument("--taps", type=int, default=_DEFAULT_TAPS)
        p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.set_defaults(run=_run_curve)
    elif name == "mathieu":
        p.add_argument("--q", type=float, help="evaluate ce0 at this q")
        p.add_argument("--grid",
                       help="theta grid with --q (default 0:pi:257:lin), "
                            "else q grid (default 0.25:100:40:log)")
        p.set_defaults(run=_run_mathieu)
    else:
        p.add_argument("--family", default="all",
                       choices=("all", "gaussian", "three_tap") + WINDOW_NAMES)
        p.set_defaults(run=_run_windows)
    p.add_argument("--output", help="write here instead of stdout")
    return p


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="compactseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        sub.add_parser(name, help=text)
        sub.choices[name] = _command_parser(name)  # the one main parses with
    return parser


def main(argv=None) -> int:
    """Run one command line ``argv``, the arguments without the program name
    (default ``sys.argv[1:]``), and return its exit status: 0 on success, 1
    for invalid arguments or inputs, 2 for a solver failure (see the module
    docstring).  A known command is parsed by its own parser alone; the
    top-level parser serves help and a missing or unknown command."""
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    command = _command_parser(argv[0]) if argv and argv[0] in _COMMANDS else None
    try:
        args = command.parse_args(argv[1:]) if command else _build_parser().parse_args(argv)
        text = args.run(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"compactseq: error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as exc:
        print(f"compactseq: solver failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
