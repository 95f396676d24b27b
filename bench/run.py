"""compactseq benchmark: drives the CLI in-process on seeded workloads.

    python3 bench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of
that root and nowhere else.  One client calls ``compactseq.cli.main(argv)``
in a closed loop, one item after another, repeating passes over the
workload's seeded batch until ``--seconds`` have elapsed (whole passes
only).  Outputs are checked against independent oracles after the timed
passes.  BLAS is pinned to one thread.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead.

The human-readable report goes to stderr.  The last two stdout lines are
a JSON record of the run (seed, commit, machine, every metric with its
unit, outcome counts) and the result object
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import os

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import oracles
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_PER_PASS = 2
REF_EVERY_S = 0.1
MIN_PASSES = 3
DENSE_CHECKS = 8

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _git_commit(root: Path):
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _setup(workload: str, seed: int, workdir: Path):
    """Import the package afresh and generate the inputs; returns the time.

    numpy and the standard library stay loaded; only ``compactseq`` modules
    are dropped and re-executed, so this times the package's own import
    plus input generation.
    """
    for name in [m for m in sys.modules if m == "compactseq" or m.startswith("compactseq.")]:
        del sys.modules[name]
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    cli = importlib.import_module("compactseq.cli")
    workdir.mkdir(parents=True)
    items = workloads.make_items(workload, seed, str(workdir))
    return cli, items, time.perf_counter() - t0


def _call(main, argv):
    """Run one CLI invocation; returns (seconds, exit code or None, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # the CLI let it escape: a failed item
            rc, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if rc not in (0, None):
        error = err.getvalue().strip() or f"exit {rc}"
    return t1 - t0, rc, out.getvalue(), error


def _run_passes(setup, seconds, trace, tracer, min_passes):
    """Closed loop over the batch until ``seconds`` pass; whole passes only.

    At least ``min_passes`` untraced passes run (and as many traced ones,
    alternating, with ``trace``), so every item has several timings.  The
    set-up runs SETUP_PER_PASS times before each pass, so its timings too
    are spread over the run.
    """
    run = {"passes": [], "setup_times": [], "raw_setup_times": [], "nondeterministic": set()}
    passes, outputs = run["passes"], None
    speed = hostspeed.SpeedLog(REF_EVERY_S)
    t_end = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_PER_PASS):
            speed.sample(force=True)
            t0 = time.perf_counter()
            cli, items, dt = setup()
            speed.sample(force=True)
            run["raw_setup_times"].append(dt)
            run["setup_times"].append(dt * speed.scale(t0, t0 + dt))
        timed = [it for it in items if not it.probe]
        outputs = outputs or [None] * len(timed)
        traced = trace and len(passes) % 2 == 1
        gc.collect()
        call = tracer.install(cli.main) if traced else cli.main
        times, starts, failed = [], [], 0
        try:
            for i, item in enumerate(timed):
                speed.sample()
                tracer.item = i
                starts.append(time.perf_counter())
                dt, rc, out, error = _call(call, item.argv)
                times.append(dt)
                failed += error is not None
                if outputs[i] is None:
                    outputs[i] = (rc, out, error)
                elif outputs[i] != (rc, out, error):
                    run["nondeterministic"].add(i)
        finally:
            tracer.uninstall()
        speed.sample(force=True)
        scales = np.array([speed.scale(t, t + dt) for t, dt in zip(starts, times)])
        passes.append({"traced": traced, "raw": np.array(times), "times": np.array(times) * scales,
                       "failed": failed, "layers": tracer.summary(scales) if traced else None})
        enough = len(passes) >= min_passes * (2 if trace else 1)
        if enough and time.perf_counter() >= t_end:
            run.update(cli=cli, items=items, outputs=outputs)
            return run


def _judge(main, items, outputs, nondeterministic, seed):
    """Oracle verdicts for the timed items (first-pass outputs) and the probes."""
    rng = np.random.default_rng([seed, 99])
    timed = [it for it in items if not it.probe]
    designs = [i for i, it in enumerate(timed) if it.kind == "design"
               and it.data["taps"] <= oracles.DENSE_MAX_TAPS]
    dense = set(rng.permutation(designs)[:DENSE_CHECKS].tolist())
    verdicts = []
    for i, (item, (rc, out, error)) in enumerate(zip(timed, outputs)):
        verdicts.append(_verdict(item, rc, out, error, dense=i in dense,
                                 deterministic=i not in nondeterministic))
    for item in (it for it in items if it.probe):
        _, rc, out, error = _call(main, item.argv)
        verdicts.append(_verdict(item, rc, out, error, dense=False, deterministic=True))
    return verdicts


def _verdict(item, rc, out, error, dense, deterministic):
    v = {"kind": item.kind, "probe": item.probe, "argv": item.argv,
         "failed": error is not None, "wrong": False, "flagged": False, "why": error or ""}
    if error is None:
        ok, flagged, why = oracles.check(item, out, dense=dense)
        if ok and not deterministic:
            ok, why = False, "output differs between passes"
        v.update(wrong=not ok, flagged=flagged, why=why)
    return v


def _item_times(passes, traced, key="times"):
    """Each item's median timing over the untraced (or traced) passes."""
    return np.median([p[key] for p in passes if p["traced"] == traced], axis=0)


def _end_to_end(passes, setup_s, peak_rss_mb):
    times = _item_times(passes, traced=False)
    wall = float(times.sum())
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items_per_s": times.size / wall,
        "item_ms.p50": 1e3 * float(np.percentile(times, 50)),
        "item_ms.p90": 1e3 * float(np.percentile(times, 90)),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(passes):
    """Per-pass layer metrics: self times are medians over the traced passes;
    work counts come from the first traced pass (they repeat exactly)."""
    traced = [p for p in passes if p["traced"]]

    def self_s(name):
        return float(np.median([p["layers"]["self_s"].get(name, 0.0) for p in traced]))

    first = traced[0]["layers"]
    calls, rows, pairs = first["calls"], first["rows"], first["child_calls"]

    def count(name):
        return calls.get(name, 0)

    def ratio(parents, child):
        num = sum(pairs.get((p, child), 0) for p in parents)
        den = sum(count(p) for p in parents)
        return num / den if den else 0.0

    eig_rows = rows.get("eigen.min_eigenpair", 0)
    mathieu = ("mathieu.char_value_a0", "mathieu.ce0")
    overhead = _item_times(passes, traced=True).sum() / _item_times(passes, traced=False).sum()
    return {
        "eigen.min_eigenpair.calls": count("eigen.min_eigenpair"),
        "eigen.min_eigenpair.self_s": self_s("eigen.min_eigenpair"),
        "eigen.min_eigenpair.us_per_row":
            1e6 * self_s("eigen.min_eigenpair") / eig_rows if eig_rows else 0.0,
        "design.design_max_compact.self_s": self_s("design.design_max_compact"),
        "design.solves_per_design": ratio(("design.design_max_compact",), "eigen.min_eigenpair"),
        "design.sweep_curve.self_s": self_s("design.sweep_curve"),
        "bounds.self_s": self_s("bounds.eta_lower") + self_s("bounds.eta_upper"),
        "sequence.autocorrelation.calls": count("sequence.autocorrelation"),
        "sequence.autocorrelation.self_s": self_s("sequence.autocorrelation"),
        "spreads.measure.calls": count("spreads.measure"),
        "spreads.measure.self_s": self_s("spreads.measure"),
        "spreads.autocorr_per_measure": ratio(("spreads.measure",), "sequence.autocorrelation"),
        "windows.spread_scan.self_s": self_s("windows.spread_scan"),
        "sequence.read_sequence.calls": count("sequence.read_sequence"),
        "sequence.read_sequence.self_s": self_s("sequence.read_sequence"),
        "mathieu.char_value_a0.self_s": self_s("mathieu.char_value_a0"),
        "mathieu.ce0.self_s": self_s("mathieu.ce0"),
        "mathieu.solves_per_eval": ratio(mathieu, "eigen.min_eigenpair"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.overhead_frac": float(overhead) - 1.0,
    }


def _layer_table(passes):
    traced = [p for p in passes if p["traced"]]
    calls = traced[0]["layers"]["calls"]
    self_s = {name: float(np.median([p["layers"]["self_s"][name] for p in traced]))
              for name in calls if calls[name]}
    total = sum(self_s.values())
    lines = ["  self time per pass (median over traced passes), by span, and share of the total:"]
    for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:32s} {s:10.4f} s  {100 * s / total:5.1f}%  {calls[name]:8d} calls")
    return lines


class SetupError(RuntimeError):
    """The checkout has no compactseq sources to benchmark."""


def run_benchmark(workload, seed, seconds, trace, spans=None, min_passes=MIN_PASSES):
    """One benchmark run; returns (result object, full record, report lines)."""
    src = ROOT / "src"
    if not (src / "compactseq" / "cli.py").is_file():
        raise SetupError(f"no compactseq sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    workdir = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    try:
        cli = _setup(workload, seed, workdir)[0]
        if not Path(cli.__file__).resolve().is_relative_to(src):
            raise SetupError(f"compactseq imported from {cli.__file__}, not {src}")
        tracer = Tracer()
        run = _run_passes(lambda: _setup(workload, seed, workdir),
                          seconds, trace, tracer, min_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        passes, items, outputs = run["passes"], run["items"], run["outputs"]
        verdicts = _judge(run["cli"].main, items, outputs, run["nondeterministic"], seed)
        if spans and trace:
            tracer.write(spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    designs = [v for v in verdicts if v["kind"] == "design"]
    outcomes = {
        "fail_frac": sum(v["failed"] for v in verdicts) / len(verdicts),
        "wrong_frac": sum(v["wrong"] for v in verdicts) / len(verdicts),
        "flagged_frac": sum(v["flagged"] for v in designs) / len(designs) if designs else 0.0,
    }
    metrics = _end_to_end(passes, statistics.median(run["setup_times"]), peak_rss_mb)
    layers = _per_layer(passes) if trace else {}
    metrics.update(layers)
    metrics.update(outcomes)

    plain = [p for p in passes if not p["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "commit": _git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_ENV},
        "batch_items": len(outputs),
        "probe_items": len(items) - len(outputs),
        "passes": len(passes),
        "setup_repeats": len(run["setup_times"]),
        "traced_passes": len(passes) - len(plain),
        "untraced_sites": tracer.missing,
        "problems": [{k: v[k] for k in ("kind", "probe", "argv", "failed", "wrong", "why")}
                     for v in verdicts if v["failed"] or v["wrong"]],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "raw_wall_s": float(_item_times(passes, traced=False, key="raw").sum()),
        "raw_setup_s": statistics.median(run["raw_setup_times"]),
    }

    report = [f"compactseq bench: {workload} seed={seed} trace={int(trace)} "
              f"items={record['batch_items']} passes={record['passes']} "
              f"commit={record['commit']}"]
    report += [f"  {k:36s} {v:14.6g} {UNITS[k]}" for k, v in metrics.items()]
    for prob in record["problems"]:
        tag = "probe" if prob["probe"] else "item"
        report.append(f"  {tag} {'failed' if prob['failed'] else 'wrong'}: "
                      f"{' '.join(prob['argv'][:2])} ... {prob['why'][:100]}")
    if trace:
        report += _layer_table(passes)

    section = "per_layer" if trace else "end_to_end"
    result = {
        "correct": not any(v["wrong"] for v in verdicts if not v["probe"]),
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in SPEC[section]},
    }
    return result, record, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write the last traced pass's spans here")
    args = parser.parse_args(argv)
    try:
        result, record, report = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), args.spans)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report), file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
