#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, summarised as a BENCH_<n>.json file.

Run from a git checkout that holds both commits:

    python3 tools/pairs.py PARENT CHANGE --workloads plan_deep,drain_grid \\
        --n 10 --seconds 25 --out BENCH_32.json

Pair i runs seed first_seed + i of every workload in the order given.
Even pairs run the parent first, odd pairs the change. Every run extracts
its side with `git archive` into a fresh directory outside the checkout
and runs that copy's own `bench/run.py` with PYTHONDONTWRITEBYTECODE=1,
so each side runs the harness committed with it and finds no bytecode
cache. The file holds, per workload and end-to-end metric, each side's
median and quartiles and the number of pairs the change won (ties count
for neither), plus each run's values. Per-slice `ms_p50` medians are kept
where a workload reports slices, and drain_grid's sweep digests by seed.
The table printed last gives, per workload and metric, the change median
against the parent median, the pairs won and the parent's quartile spread.
The exit code is 1 when a run fails or reports a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def commit_of(rev: str) -> str:
    done = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def extract(commit: str, dest: Path) -> None:
    """Write the tree of `commit` into the empty directory `dest`."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", commit], stdout=subprocess.PIPE) as archive:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.returncode != 0:
        raise RuntimeError(f"git archive {commit} exited with {archive.returncode}")


def run_side(commit: str, workload: str, seed: int, seconds: float, work: Path) -> dict:
    """One benchmark run of `commit` from a fresh copy; returns its result file."""
    copy = work / "tree"
    extract(commit, copy)
    out = work / "out"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    path = out / "results" / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        raise RuntimeError(f"{' '.join(cmd)} exited with {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(path.read_text(encoding="utf-8"))
    result["exit_code"] = done.returncode
    return result


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """One workload's entry from its pairs: [{"parent": result, "change": result}, ...]."""
    metrics = {}
    for name, direction in better.items():
        a = [r["parent"]["end_to_end"][name] for r in runs]
        b = [r["change"]["end_to_end"][name] for r in runs]
        won = sum(1 for x, y in zip(a, b) if (y < x if direction == "lower" else y > x))
        metrics[name] = {
            "better": direction,
            "parent_median": round(statistics.median(a), 6),
            "change_median": round(statistics.median(b), 6),
            "parent_q1_q3": [round(v, 6) for v in quartiles(a)],
            "change_q1_q3": [round(v, 6) for v in quartiles(b)],
            "change_better_in": won,
        }
    entry = {
        "pairs": len(runs),
        "metrics": metrics,
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in SIDES},
        "attempted": {side: sum(r[side]["attempted"] for r in runs) for side in SIDES},
        "correct": {side: all(r[side]["failed"] == 0 and r[side]["exit_code"] == 0 for r in runs)
                    for side in SIDES},
        "runs": [
            {"seed": r["seed"], "first": r["first"],
             **{side: {n: round(r[side]["end_to_end"][n], 6) for n in better} for side in SIDES}}
            for r in runs
        ],
    }
    slices = runs[0]["parent"]["report"].get("slices")
    if slices:
        entry["slice_ms_p50"] = {
            label: {f"{side}_median": round(statistics.median(
                r[side]["report"]["slices"][label]["ms_p50"] for r in runs), 6) for side in SIDES}
            for label in slices
        }
    if "sweep_csv_sha256" in runs[0]["parent"]["report"]:
        entry["sweep_csv_sha256_by_seed"] = {
            side: {str(r["seed"]): r[side]["report"]["sweep_csv_sha256"] for r in runs}
            for side in SIDES
        }
    return entry


def table(workloads: dict) -> str:
    """Change median against parent median, pairs won and parent IQR, one row per metric."""
    lines = [f"{'workload':<14}{'metric':<13}{'parent':>14}{'change':>14}{'delta':>9}"
             f"{'won':>8}{'parent IQR':>12}"]
    for name, entry in workloads.items():
        for metric, m in entry["metrics"].items():
            pa, ch = m["parent_median"], m["change_median"]
            q1, q3 = m["parent_q1_q3"]
            delta = f"{(ch - pa) / pa:+.1%}" if pa else "-"
            iqr = f"{(q3 - q1) / pa:.1%}" if pa else "-"
            lines.append(f"{name:<14}{metric:<13}{pa:>14.6g}{ch:>14.6g}{delta:>9}"
                         f"{m['change_better_in']:>4} of {entry['pairs']:<2}{iqr:>11}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the parent commit (any git revision)")
    parser.add_argument("change", help="the change commit (any git revision)")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--n", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--first-seed", type=int, default=0, help="seed of pair 0")
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write")
    args = parser.parse_args(argv)
    names = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if args.n < 1 or not names:
        parser.error("--n must be >= 1 and --workloads must name a workload")
    commits = {"parent": commit_of(args.parent), "change": commit_of(args.change)}
    spec = json.loads(subprocess.run(["git", "show", f"{commits['change']}:BENCHMARK.json"],
                                     capture_output=True, text=True, check=True).stdout)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in names}
    work = Path(tempfile.mkdtemp(prefix="greenlight-pairs-"))
    try:
        for i in range(args.n):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in names:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    where = work / f"{w}-{seed}-{side}"
                    pair[side] = run_side(commits[side], w, seed, args.seconds, where)
                    shutil.rmtree(where)
                    e2e = pair[side]["end_to_end"]
                    print(f"pair {i} {w} {side}: " + ", ".join(f"{n} {e2e[n]:.6g}" for n in better),
                          flush=True)
                runs[w].append(pair)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = runs[names[0]][0]["parent"]["environment"]
    workloads = {w: summarise(runs[w], better) for w in names}
    doc = {
        "what": "parent and change medians of interleaved benchmark pairs, per workload",
        "command": f"python3 bench/run.py --workload <workload> --seed <{args.first_seed} + pair index>"
                   f" --seconds {args.seconds:g} --trace 0",
        "pairs_per_workload": {w: args.n for w in names},
        "order": f"pair i runs seed {args.first_seed} + i of {', then '.join(names)}; even pairs run"
                 " the parent first, odd pairs the change; every run extracts its side with git"
                 " archive into a fresh directory and runs without a bytecode cache"
                 " (PYTHONDONTWRITEBYTECODE=1)",
        "quartiles": "statistics.quantiles(method='inclusive') over the pairs' runs",
        "parent": {"commit": commits["parent"]},
        "change": {"commit": commits["change"]},
        "host": {k: env[k] for k in ("cpu", "nproc", "python", "numpy")},
        "workloads": workloads,
        "notes": ["failed and attempted are summed over each side's runs; runs lists every"
                  " pair's end-to-end values"],
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(table(workloads))
    print(f"wrote {args.out}")
    return 0 if all(all(e["correct"].values()) for e in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
