"""Command-line front end.

Subcommands
-----------
design   solve for the maximally compact sequence at one sigma2 (JSON)
analyze  spread report for a sequence file (JSON)
curve    sweep the optimal-compactness curve over a sigma2 grid (CSV)
mathieu  ce0 samples for one q, or an a0(q) table over a q grid (CSV)
windows  spread scan of the stock window families (CSV)

Grids are given as ``start:stop:points:log`` or ``start:stop:points:lin``.
Output goes to stdout unless ``--output`` names a file; bytes are a pure
function of the flags, so reruns reproduce them exactly.  Exit status is
0 on success, 1 for invalid arguments or inputs, 2 when a solve fails or
the requested constraint is unattainable at the given tap count.
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
    DesignConvergenceError,
    UnattainableSpreadError,
    design_max_compact,
    sweep_curve,
)
from .eigen import EigenConvergenceError
from .mathieu import ce0, char_value_a0
from .sequence import Sequence, read_sequence, write_sequence
from .spreads import measure
from .windows import WINDOW_NAMES, default_families, spread_scan

__all__ = ["main"]

_SOLVER_ERRORS = (UnattainableSpreadError, DesignConvergenceError, EigenConvergenceError)
_NUMERIC_FLAGS = ("--sigma2", "--taps", "--q", "--grid")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags, not argparse's 2
        raise _CliError(message)


def _join_negative_values(argv) -> list:
    """Rewrite ``--q -1e-3`` as ``--q=-1e-3``, also for a prefix like ``--sig``:
    argparse takes a token that starts with '-' for a value only in the forms
    -12 and -1.5."""
    out = []
    for tok in argv:
        numeric = out and len(out[-1]) > 2 and any(f.startswith(out[-1]) for f in _NUMERIC_FLAGS)
        if numeric and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 4:
        raise _CliError(f"grid must be start:stop:points:log|lin, got {text!r}")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _CliError(f"bad grid {text!r}: {exc}") from None
    kind = parts[3]
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _CliError(f"grid endpoints must be finite, got {text!r}")
    if points < 1:
        raise _CliError("grid needs at least one point")
    if kind == "log":
        if start <= 0 or stop <= 0:
            raise _CliError("log grid endpoints must be positive")
        return np.geomspace(start, stop, points)
    if kind == "lin":
        return np.linspace(start, stop, points)
    raise _CliError(f"grid kind must be log or lin, got {kind!r}")


def _json_value(v):
    """JSON-ready form of a value: a record becomes an object of its fields,
    a Sequence its offset and real taps, a complex number [re, im], NaN
    null and an infinity the string "inf" or "-inf"."""
    if isinstance(v, Sequence):
        return {"offset": v.offset, "taps": v.taps.real.tolist()}
    if is_dataclass(v):
        return {f.name: _json_value(getattr(v, f.name)) for f in fields(v)}
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, float) and not math.isfinite(v):
        return None if math.isnan(v) else repr(v)
    return v


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
    """CSV text: ``header``, then one row per index into the columns.  Strings
    are written as is, other columns as floats (None is nan) with repr."""
    cells = [
        col if isinstance(col[0], str) else map(repr, np.asarray(col, dtype=float).tolist())
        for col in columns
    ]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _run_design(args) -> str:
    res = design_max_compact(args.sigma2, taps=args.taps)
    if args.seq_output:
        write_sequence(res.sequence, args.seq_output)
    if args.format == "json":
        return json.dumps(_json_value(res)) + "\n"
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
    return _csv("sigma2,delta_n2,eta_p,eta_lower,eta_upper", _columns(points, drop=("error",)))


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
        if not fams:
            raise _CliError(f"unknown family {args.family!r}")
    points = [p for f in fams for p in spread_scan(f)]
    return _csv("family,param,delta_wp2,delta_n2,eta_p", _columns(points, drop=("error",)))


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="compactseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="maximally compact sequence for one sigma2")
    p.add_argument("--sigma2", type=float, required=True,
                   help="target periodic frequency spread (> 0)")
    p.add_argument("--taps", type=int, default=201, help="odd grid length (default 201)")
    p.add_argument("--seq-output", help="also write the sequence file here")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_run_design)

    p = sub.add_parser("analyze", help="spread report for a sequence file")
    p.add_argument("--input", required=True, help="sequence file ('re im' lines)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_run_analyze)

    p = sub.add_parser("curve", help="optimal curve over a sigma2 grid")
    p.add_argument("--grid", default="0.01:10:25:log",
                   help="sigma2 grid start:stop:points:log|lin")
    p.add_argument("--taps", type=int, default=201)
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(run=_run_curve)

    p = sub.add_parser("mathieu", help="ce0 samples for one q, or an a0 table")
    p.add_argument("--q", type=float, help="evaluate ce0 at this q")
    p.add_argument("--grid",
                   help="theta grid with --q (default 0:pi:257:lin), "
                        "else q grid (default 0.25:100:40:log)")
    p.set_defaults(run=_run_mathieu)

    p = sub.add_parser("windows", help="spread scan of the stock window families")
    p.add_argument("--family", default="all",
                   choices=("all", "gaussian", "three_tap") + WINDOW_NAMES)
    p.set_defaults(run=_run_windows)

    for sp in sub.choices.values():
        sp.add_argument("--output", help="write here instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
        text = args.run(args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"compactseq: error: {exc}", file=sys.stderr)
        return 1
    except _SOLVER_ERRORS as exc:
        print(f"compactseq: solver failure: {exc}", file=sys.stderr)
        return 2
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
