#!/usr/bin/env python3
"""Benchmark for greenlight: four workloads, end-to-end and per-layer metrics.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload drain_grid --seed 0 --seconds 25 --trace 0

The program is imported from `src/` of the same checkout. The run prints
a metric table, writes a result file under `bench/out/results/` and
prints one JSON line last. With `--trace 1` the run alternates untraced
and traced passes and reports per-layer metrics instead; the spans go to
`bench/out/spans/`. The exit code is 1 when an output check fails and 2
when the run cannot start.

Compare two sets of result files (directories or files):

    python3 bench/run.py --compare parent_results/ change_results/

See bench/BENCHMARK.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import LAYERS, PER_LAYER, Tracer, layer_metrics
from workloads import PROBE_MS, WORKLOADS, Recorder, reference_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_PROBES = 8  # reference probes before each set-up
TRACE_MIN_PASSES = 4  # two untraced and two traced


def fresh_import():
    """Import greenlight (and its CLI) from this checkout, discarding any earlier import."""
    for name in [m for m in sys.modules if m == "greenlight" or m.startswith("greenlight.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gl = importlib.import_module("greenlight")
    importlib.import_module("greenlight.cli")
    if Path(gl.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"greenlight imported from {gl.__file__}, not from {SRC}")
    return gl


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(args):
    workload = WORKLOADS[args.workload]()
    gl = fresh_import()  # loads numpy and writes bytecode before set-up is timed
    work_dir = Path(args.out) / "work" / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.files(gl, work_dir)
    setup, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            reference_probe()
            setup_probes.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        gl = fresh_import()
        workload.setup(gl)
        setup.append(time.perf_counter() - t0)
    setup_speed = PROBE_MS / (statistics.median(setup_probes) * 1000.0)

    tracer = Tracer() if args.trace else None
    workload.prepare(gl, args.seed, tracer)
    rec = Recorder()
    passes = []  # (traced, seconds)
    min_passes = TRACE_MIN_PASSES if args.trace else workload.min_passes
    workload.start(rec)
    last_wall = 0.0  # wall time of the latest pass, probes included
    started = time.perf_counter()
    try:
        # Start another pass while at least half of one fits, so a run
        # measures about --seconds on average whatever its pass length.
        while len(passes) < min_passes or time.perf_counter() + last_wall / 2 - started < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            rec.start_pass(len(passes), tracer if traced else None)
            if traced:
                tracer.install()
                token = tracer.begin("pass")
            probed = rec.probe_seconds
            t0 = time.perf_counter()
            try:
                workload.run_pass(gl, rec)
            finally:
                seconds = time.perf_counter() - t0 - (rec.probe_seconds - probed)
                rec.tracer = None
                if traced:
                    tracer.end(token)
                    tracer.uninstall()
            passes.append((traced, seconds))
            last_wall = time.perf_counter() - t0
    finally:
        workload.stop()
    workload.check(gl, rec)

    named = {"setup_s": (statistics.median(setup) * setup_speed, "s")}
    named.update(workload.named_metrics(rec))
    named["failed_share"] = (rec.failed / rec.attempted if rec.attempted else 0.0, "ratio")
    named["probe_ms"] = (rec.probe_ms(), "ms")
    named["setup_probe_ms"] = (statistics.median(setup_probes) * 1000.0, "ms")
    aliases = {
        "setup_s": "setup_s",
        "work_per_s": workload.rate_name,
        "call_ms_p50": f"{workload.latency_name}_p50",
        "call_ms_p90": f"{workload.latency_name}_p90",
    }
    end_to_end = {g: named[n][0] for g, n in aliases.items()}

    per_layer = None
    slices = None
    if args.trace:
        plain = [s for t, s in passes if not t]
        traced = [s for t, s in passes if t]
        overhead = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        per_name, slices = tracer.summarize()
        per_layer = layer_metrics(tracer, per_name, len(traced), sum(traced) * 1e9,
                                  workload.explored_share(), overhead)

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "passes": {"untraced": sum(1 for t, _ in passes if not t), "traced": sum(1 for t, _ in passes if t)},
        "setup_s_samples": setup,
        "probes": {"run": len(rec.probes), "set-up": len(setup_probes), "probe_ms_nominal": PROBE_MS},
        "attempted": rec.attempted,
        "failed": rec.failed,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in rec.checks],
        "end_to_end": end_to_end,
        "aliases": aliases,
        "named": {n: {"value": v, "unit": u} for n, (v, u) in named.items()},
        "per_layer": per_layer,
        "absent_hooks": tracer.absent if tracer else [],
        "report": workload.report(rec),
    }
    return result, tracer, slices


def print_report(result, slices):
    env = result["environment"]
    print(f"greenlight benchmark: workload {result['workload']}, seed {result['seed']}, "
          f"trace {result['trace']}, {result['seconds']} s")
    print(f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}, commit {env['commit']}")
    print(f"passes: {result['passes']['untraced']} untraced, {result['passes']['traced']} traced")
    generic = {n: g for g, n in result["aliases"].items()}
    print(f"\n{'end-to-end metric':<24}{'value':>16}  {'unit':<7}gated as")
    for name, m in result["named"].items():
        print(f"{name:<24}{m['value']:>16.6g}  {m['unit']:<7}{generic.get(name, '')}")
    for key, value in result["report"].items():
        if key == "slices":
            print(f"\n{'slice':<12}{'inputs':>8}{'nodes':>10}{'ms p50':>10}")
            for label, row in value.items():
                print(f"{label:<12}{row['inputs']:>8}{row['nodes']:>10}{row['ms_p50']:>10.3f}")
        else:
            print(f"{key}: {value}")
    if result["per_layer"] is not None:
        units = {n: u for n, u, _b in PER_LAYER}
        print(f"\n{'per-layer metric':<34}{'value':>14}  unit")
        for name, value in result["per_layer"].items():
            print(f"{name:<34}{value:>14.6g}  {units[name]}")
        print("\nself time by slice (ms per traced pass; share of the slice's wall time)")
        passes = result["passes"]["traced"]
        print(f"{'slice':<22}{'wall':>10}" + "".join(f"{layer:>10}" for layer in LAYERS))
        for label in sorted(slices):
            row = slices[label]
            wall = row.get("wall", 0) or sum(row.get(layer, 0) for layer in LAYERS)
            cells = "".join(f"{row.get(layer, 0) / wall if wall else 0:>10.1%}" for layer in LAYERS)
            print(f"{label or '(between calls)':<22}{wall / 1e6 / passes:>10.2f}{cells}")
        for dotted in result["absent_hooks"]:
            print(f"hook absent: {dotted}")
    failed = [c for c in result["checks"] if not c["ok"]]
    print(f"\nchecks: {len(result['checks']) - len(failed)} of {len(result['checks'])} passed")
    for c in failed:
        print(f"CHECK FAILED: {c['name']} ({c['detail']})")
    print(f"operations: {result['attempted']} attempted, {result['failed']} failed")


def final_line(result, spec):
    kind = "per_layer" if result["trace"] else "end_to_end"
    values = result[kind]
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def load_results(path):
    p = Path(path)
    files = sorted(p.rglob("*.json")) if p.is_dir() else [p]
    out = {}
    for f in files:
        data = json.loads(f.read_text(encoding="utf-8"))
        if "workload" in data:
            out.setdefault((data["workload"], data["trace"]), []).append(data)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, bound, better):
    ma, mb = statistics.median(a), statistics.median(b)
    if len(set(a) | set(b)) == 1:
        return "same"
    if bound is None or ma == 0:
        return "moved"
    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / ma
    if worse > bound:
        return "REGRESSED"
    if spread > bound:
        return "unresolved"
    b_wins = max(b) < min(a) if better == "lower" else min(b) > max(a)
    if -worse > spread and b_wins:
        return "improved"
    return "within bound"


def compare(path_a, path_b, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    a_runs, b_runs = load_results(path_a), load_results(path_b)
    for key in sorted(set(a_runs) | set(b_runs)):
        ra, rb = a_runs.get(key, []), b_runs.get(key, [])
        print(f"\n== {key[0]}, trace {key[1]}: {len(ra)} runs in A, {len(rb)} runs in B")
        if not ra or not rb:
            continue
        rows = []
        for section in ("end_to_end", "per_layer", "named"):
            skip = set(ra[0]["aliases"].values()) if section == "named" else set()
            names = [n for n in (ra[0][section] or {}) if n not in skip]
            for name in names:
                def value(r):
                    v = (r[section] or {}).get(name)
                    return v["value"] if isinstance(v, dict) else v
                a = [value(r) for r in ra if value(r) is not None]
                b = [value(r) for r in rb if value(r) is not None]
                if a and b:
                    rows.append((name, a, b, bounds.get(name) if section == "end_to_end" else None,
                                 better.get(name, "lower")))
        print(f"{'metric':<34}{'A median':>12}{'A q1..q3':>22}{'B median':>12}{'B q1..q3':>22}"
              f"{'delta':>9}  verdict")
        for name, a, b, bound, direction in rows:
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            delta = f"{(mb - ma) / ma:+.1%}" if ma else "-"
            print(f"{name:<34}{ma:>12.5g}{f'{qa[0]:.4g}..{qa[1]:.4g}':>22}{mb:>12.5g}"
                  f"{f'{qb[0]:.4g}..{qb[1]:.4g}':>22}{delta:>9}  {verdict(a, b, bound, direction)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="greenlight benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out"), help="directory for result files")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two sets of result files")
    args = parser.parse_args(argv)
    try:
        spec = load_benchmark()
        if args.compare:
            compare(*args.compare, spec)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be nonnegative")
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        result, tracer, slices = run(args)
        line = final_line(result, spec)
    except (ImportError, OSError, KeyError, RuntimeError, ValueError) as exc:
        print(f"benchmark cannot run: {exc!r}", file=sys.stderr)
        return 2

    out = Path(args.out)
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result, slices)
    print(f"result file: {path}")
    if tracer is not None:
        spans_dir = out / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans = spans_dir / f"{result['workload']}-seed{result['seed']}.csv"
        tracer.write_spans(spans)
        print(f"spans: {spans} ({len(tracer.spans)} spans)")
    print(line)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
