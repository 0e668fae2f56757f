"""Command-line surface: optimize, simulate, sweep, phases, validate.

Exit codes: 0 on success, 2 for unparseable or invalid inputs (JSON
errors are reported with line and column) and for an `--out` path that
cannot be written. No valid instance lacks a schedule: a lone path is
always a feasible phase, so the starvation guard always has a candidate.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .dynamics import DynamicsConfig
from .errors import FileFormatError, GreenlightError, InvalidSpecError
from .fileio import (
    _instance_problems,
    _instance_spec,
    _load_json,
    _write_text,
    load_instance,
    load_snapshot,
    write_wait_log,
)
from .model import IntersectionSpec, _as_enum, _check_int, _check_intensity, enumerate_feasible_phases
from .policies import PolicyKind
from .simulator import EpisodeStats, SimConfig, SimMode, WaitLogEntry, run_episode
from .solver import SolverConfig, optimize_schedule

EXIT_OK = 0
EXIT_INVALID = 2

SWEEP_HEADER = (
    "intensity,policy,seed,mean_wait_ticks,mean_wait_seconds,"
    "std_wait_ticks,max_wait_ticks,throughput,terminated"
)

DEFAULT_INTENSITIES = tuple(round(0.1 * i, 1) for i in range(1, 11))


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: the intensity grid, seeds, and policy set."""

    intensities: tuple[float, ...] = DEFAULT_INTENSITIES
    runs: int = 20
    policies: tuple[PolicyKind, ...] = (PolicyKind.HORIZON, PolicyKind.F1, PolicyKind.F2)
    base_seed: int = 0

    def __post_init__(self) -> None:
        policies = tuple(_as_enum(PolicyKind, p, "policy") for p in self.policies)
        object.__setattr__(self, "policies", policies)
        _check_int(self.runs, "runs", 1)
        _check_int(self.base_seed, "base_seed", 0)
        if not self.intensities:
            raise GreenlightError("at least one intensity required")
        for x in self.intensities:
            _check_intensity(x)
        if not self.policies:
            raise GreenlightError("at least one policy required")


def sweep_episodes(
    spec: IntersectionSpec,
    sweep: SweepSpec,
    mode: SimMode,
    solver_cfg: SolverConfig,
) -> Iterator[tuple[float, PolicyKind, int, EpisodeStats, tuple[WaitLogEntry, ...]]]:
    """Run every episode of a sweep, yielding (intensity, policy, seed,
    stats, wait log) in CSV order: intensity-major, then policy, then
    seed base_seed + run. Episodes use solver_cfg's dynamics.

    `run_episode` is read from this module's globals at each call, so a
    wrapper on `greenlight.cli.run_episode` sees every episode.
    """
    for intensity in sweep.intensities:
        for policy in sweep.policies:
            for seed in range(sweep.base_seed, sweep.base_seed + sweep.runs):
                cfg = SimConfig(spec, intensity, seed, mode)
                stats, log = run_episode(cfg, policy, solver_cfg)
                yield intensity, policy, seed, stats, log


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("empty intensity list")
    return values


def _policy_list(text: str) -> tuple[PolicyKind, ...]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            out.append(_as_enum(PolicyKind, tok, "policy"))
        except InvalidSpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    if not out:
        raise argparse.ArgumentTypeError("empty policy list")
    return tuple(out)


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    """The timing and search flags of optimize, simulate and sweep."""
    dyn, cfg = DynamicsConfig(), SolverConfig()
    p.add_argument("--phase-ticks", type=int, default=dyn.phase_ticks, help="ticks each phase is held")
    p.add_argument("--slow-start", type=int, default=dyn.slow_start, help="departure-free ticks after a path turns green")
    p.add_argument("--horizon", type=int, default=cfg.horizon, help="number of phases planned jointly")
    p.add_argument("--wmax", type=int, default=cfg.wmax, help="starvation threshold in ticks; 0 disables the guard")


def _solver_from(args: argparse.Namespace) -> SolverConfig:
    """The solver settings, carrying the one DynamicsConfig a command uses.
    Every command plans on the maximal phases, `SolverConfig`'s default."""
    dyn = DynamicsConfig(args.phase_ticks, args.slow_start)
    wmax = None if args.wmax == 0 else args.wmax
    return SolverConfig(horizon=args.horizon, wmax=wmax, dynamics=dyn)


def _check_out_dir(out: str | None) -> None:
    """Fail before any search or episode runs if `out` names a directory,
    its parent is not an existing directory, or the OS refuses the path
    (a name too long, say), in the `<path>: <reason>` form of a failed
    write. It calls `os.stat` itself: which errors pathlib's `is_dir`
    swallows differs between Python versions. Creates and truncates
    nothing."""
    if out is None:
        return
    p = Path(out)
    try:
        try:
            is_dir = stat.S_ISDIR(os.stat(p).st_mode)
        except FileNotFoundError:
            # nothing there yet; a parent that is a file fails the stat
            # above with ENOTDIR, so one that exists is a directory
            os.stat(p.parent)
            is_dir = False
    except OSError as exc:
        raise FileFormatError(f"{p}: {exc.strerror or exc}") from exc
    if is_dir:
        raise FileFormatError(f"{p}: {os.strerror(errno.EISDIR)}")


def cmd_optimize(args: argparse.Namespace) -> int:
    spec = load_instance(args.instance)
    snap = load_snapshot(args.snapshot, spec)
    cfg = _solver_from(args)
    _check_out_dir(args.out)
    sol = optimize_schedule(spec, snap, spec.all_closed(), cfg)
    for idx, ph in enumerate(sol.schedule, 1):
        opened = " ".join(str(i) for i in ph.open_paths())
        print(f"phase {idx}: open {opened}")
    print(f"cost: {sol.cost}")
    print(f"nodes: {sol.nodes_explored}")
    print(f"elapsed_seconds: {sol.elapsed_seconds:.6f}")
    if args.out:
        report = {
            "schedule": [list(ph.open_paths()) for ph in sol.schedule],
            "cost": sol.cost,
            "nodes_explored": sol.nodes_explored,
            "elapsed_seconds": sol.elapsed_seconds,
        }
        _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_instance(args.instance)
    solver_cfg = _solver_from(args)
    cfg = SimConfig(
        spec=spec,
        intensity=args.intensity,
        seed=args.seed,
        mode=SimMode(args.mode),
    )
    _check_out_dir(args.out)
    stats, log = run_episode(cfg, PolicyKind(args.policy), solver_cfg)
    print(f"mean_wait_ticks: {stats.mean_wait:.6f}")
    print(f"mean_wait_seconds: {stats.mean_wait_seconds:.6f}")
    print(f"std_wait_ticks: {stats.std_wait:.6f}")
    print(f"max_wait_ticks: {stats.max_wait}")
    print(f"throughput: {stats.throughput}")
    print(f"rejected_arrivals: {stats.rejected_arrivals}")
    print(f"starvation_events: {stats.starvation_events}")
    print(f"terminated: {str(stats.terminated).lower()}")
    print(f"ticks: {stats.ticks}")
    if args.out:
        write_wait_log(log, args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_instance(args.instance)
    solver_cfg = _solver_from(args)
    sweep = SweepSpec(
        intensities=args.intensity,
        runs=args.runs,
        policies=args.policy,
        base_seed=args.seed,
    )
    _check_out_dir(args.out)

    lines = [SWEEP_HEADER]
    cells = []  # (intensity, policy, stats of its runs), in sweep order
    for intensity, policy, seed, stats, _ in sweep_episodes(
        spec, sweep, SimMode(args.mode), solver_cfg
    ):
        lines.append(
            f"{intensity:.6f},{policy.value},{seed},"
            f"{stats.mean_wait:.6f},{stats.mean_wait_seconds:.6f},"
            f"{stats.std_wait:.6f},{stats.max_wait},"
            f"{stats.throughput},{str(stats.terminated).lower()}"
        )
        if seed == sweep.base_seed:
            cells.append((intensity, policy.value, []))
        cells[-1][2].append(stats)

    csv_text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, csv_text)
        summary_stream = sys.stdout
    else:
        sys.stdout.write(csv_text)
        summary_stream = sys.stderr

    for intensity, policy, runs in cells:
        mean = sum(s.mean_wait for s in runs) / len(runs)
        std = sum(s.std_wait for s in runs) / len(runs)
        stuck = sum(not s.terminated for s in runs)
        line = (
            f"intensity {intensity:.2f} {policy}: "
            f"mean_wait_ticks={mean:.6f} std_wait_ticks={std:.6f}"
        )
        if stuck:
            line += f" non_terminated={stuck}"
        print(line, file=summary_stream)
    return EXIT_OK


def cmd_phases(args: argparse.Namespace) -> int:
    spec = load_instance(args.instance)
    phases = enumerate_feasible_phases(spec.conflicts, maximal_only=args.maximal)
    for ph in phases:
        print(ph)
    print(f"count: {len(phases)}")
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    data = _load_json(args.instance)
    problems = _instance_problems(data)
    if problems:
        print("\n".join(problems))
        return EXIT_INVALID
    pairs = _instance_spec(data).conflicts.pairs()
    print("ok")
    print(f"conflict pairs: {len(pairs)}")
    for i, j in pairs:
        print(f"{i} {j}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlight",
        description="Constraint-based traffic signal scheduling at a single junction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="plan a k-phase schedule for one snapshot")
    p_opt.add_argument("--instance", required=True, help="junction JSON file")
    p_opt.add_argument("--snapshot", required=True, help="queue snapshot JSON file")
    _add_plan_flags(p_opt)
    p_opt.add_argument("--out", help="write a JSON report here")
    p_opt.set_defaults(fn=cmd_optimize)

    p_sim = sub.add_parser("simulate", help="run one seeded episode")
    p_sim.add_argument("--instance", required=True, help="junction JSON file")
    p_sim.add_argument("--policy", default="horizon", choices=[p.value for p in PolicyKind])
    p_sim.add_argument("--mode", default="drain", choices=[m.value for m in SimMode])
    p_sim.add_argument("--intensity", type=float, required=True, help="load level in [0, 1]")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_plan_flags(p_sim)
    p_sim.add_argument("--out", help="write the per-vehicle wait log CSV here")
    p_sim.set_defaults(fn=cmd_simulate)

    sweep = SweepSpec()
    p_sweep = sub.add_parser("sweep", help="compare policies across load levels")
    p_sweep.add_argument("--instance", required=True, help="junction JSON file")
    p_sweep.add_argument(
        "--intensity",
        type=_float_list,
        default=sweep.intensities,
        help="comma-separated load levels (default 0.1..1.0)",
    )
    p_sweep.add_argument("--runs", type=int, default=sweep.runs, help="episodes per (intensity, policy)")
    p_sweep.add_argument("--seed", type=int, default=sweep.base_seed, help="base seed; episode seed = base + run")
    p_sweep.add_argument(
        "--policy",
        type=_policy_list,
        default=sweep.policies,
        help="comma-separated subset of horizon,f1,f2",
    )
    p_sweep.add_argument("--mode", default="drain", choices=[m.value for m in SimMode])
    _add_plan_flags(p_sweep)
    p_sweep.add_argument("--out", help="write the CSV here instead of stdout")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_ph = sub.add_parser("phases", help="list feasible phases of an instance")
    p_ph.add_argument("--instance", required=True, help="junction JSON file")
    p_ph.add_argument("--maximal", action="store_true", help="list only maximal phases")
    p_ph.set_defaults(fn=cmd_phases)

    p_val = sub.add_parser("validate", help="check an instance file and list conflicts")
    p_val.add_argument("--instance", required=True, help="junction JSON file")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GreenlightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
