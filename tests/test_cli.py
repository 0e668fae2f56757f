"""End-to-end tests for the command-line interface."""

import hashlib
import json
import re
import time
from pathlib import Path

import pytest

import greenlight.cli as cli
import greenlight.simulator as simulator
from greenlight import (
    MAX_FEASIBLE_PHASES,
    IntersectionSpec,
    SolverConfig,
    exhaustive_oracle,
    load_instance,
    load_snapshot,
    save_instance,
    save_snapshot,
)
from greenlight.cli import SWEEP_HEADER, main

from helpers import snapshot_with

DATA = Path(__file__).parent / "data"
INSTANCE = str(DATA / "instance_default.json")
SNAPSHOT = str(DATA / "snapshot_sample.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_flag_defaults_are_the_config_defaults():
    # no flag keeps its own copy of a default the config classes hold
    parse = cli.build_parser().parse_args
    optimize = parse(["optimize", "--instance", INSTANCE, "--snapshot", SNAPSHOT])
    simulate = parse(["simulate", "--instance", INSTANCE, "--intensity", "0.5"])
    sweep = parse(["sweep", "--instance", INSTANCE])
    for args in (optimize, simulate, sweep):
        assert cli._solver_from(args) == SolverConfig()
    spec = cli.SweepSpec()
    assert (sweep.intensity, sweep.runs, sweep.policy, sweep.seed) == (
        spec.intensities, spec.runs, spec.policies, spec.base_seed
    )


def test_optimize_matches_committed_golden(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--instance", INSTANCE, "--snapshot", SNAPSHOT
    )
    assert code == 0
    got = [l for l in out.splitlines() if not l.startswith("elapsed_seconds:")]
    golden = (DATA / "golden_optimize.txt").read_text().splitlines()
    assert got == golden
    elapsed = [l for l in out.splitlines() if l.startswith("elapsed_seconds:")]
    assert len(elapsed) == 1
    assert re.fullmatch(r"elapsed_seconds: \d+\.\d{6}", elapsed[0])


def test_committed_golden_agrees_with_oracle():
    # the golden file was produced once from the exhaustive enumeration;
    # re-prove it here so the commitment stays honest
    spec = load_instance(INSTANCE)
    snap = load_snapshot(SNAPSHOT, spec)
    orc = exhaustive_oracle(spec, snap, spec.all_closed(), SolverConfig())
    golden = (DATA / "golden_optimize.txt").read_text().splitlines()
    cost_line = next(l for l in golden if l.startswith("cost: "))
    assert int(cost_line.split(": ")[1]) == orc.cost
    phase_lines = [l for l in golden if l.startswith("phase ")]
    got_opens = [
        tuple(int(x) for x in l.split("open ")[1].split()) for l in phase_lines
    ]
    assert got_opens == [p.open_paths() for p in orc.schedule]


def test_optimize_writes_json_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "optimize",
        "--instance",
        INSTANCE,
        "--snapshot",
        SNAPSHOT,
        "--out",
        str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    cost_line = next(l for l in out.splitlines() if l.startswith("cost: "))
    assert report["cost"] == int(cost_line.split(": ")[1])
    assert len(report["schedule"]) == 3
    assert report["nodes_explored"] > 0
    assert report["elapsed_seconds"] >= 0.0


def test_optimize_empty_snapshot_costs_zero(capsys, tmp_path):
    spec = load_instance(INSTANCE)
    snap_path = tmp_path / "empty.json"
    save_snapshot(snapshot_with(spec, {}), snap_path)
    code, out, _ = run_cli(
        capsys, "optimize", "--instance", INSTANCE, "--snapshot", str(snap_path)
    )
    assert code == 0
    assert "cost: 0" in out.splitlines()


def test_optimize_guard_on_complete_conflict_graph_opens_overdue_path(capsys, tmp_path):
    # the worst case for the starvation guard: every pair of the 12 paths
    # conflicts, so the only phases are the single-path ones, maximal and
    # all-feasible alike; one vehicle on the last path is overdue, and
    # path 0 holds a heavier queue the planner would rather serve. A
    # phase opening path 11 still exists.
    doc = json.loads(Path(INSTANCE).read_text())
    doc["conflict_matrix"] = [[int(i != j) for j in range(12)] for i in range(12)]
    instance = tmp_path / "complete.json"
    instance.write_text(json.dumps(doc))
    snap = tmp_path / "overdue.json"
    snap.write_text(json.dumps({"tick": 0, "queues": [[[5, 0]] * 6] + [[]] * 10 + [[[1, 60]]]}))
    code, out, err = run_cli(
        capsys, "optimize", "--instance", str(instance), "--snapshot", str(snap)
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "phase 1: open 11"
    # without the guard the planner serves path 0 first
    code, out, _ = run_cli(
        capsys, "optimize", "--instance", str(instance), "--snapshot", str(snap), "--wmax", "0"
    )
    assert (code, out.splitlines()[0]) == (0, "phase 1: open 0")


def test_phases_zero_matrix_counts_4095(capsys, tmp_path):
    # with no conflicts every nonempty subset of the 12 paths is a phase
    doc = json.loads(Path(INSTANCE).read_text())
    doc["conflict_matrix"] = [[0] * 12 for _ in range(12)]
    free = tmp_path / "free.json"
    free.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "phases", "--instance", str(free))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 4095"
    assert lines[0] == "{0}"
    assert len(lines) == 4096


def test_phases_maximal_listing(capsys):
    code, out, _ = run_cli(capsys, "phases", "--instance", INSTANCE, "--maximal")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 12"
    assert lines[0] == "{0,1,2,3,6,9}"


@pytest.mark.parametrize(
    "arms, flags, digest",
    [
        (4, (), "128e809d047e334f3318e662c7abb4a4008e4222c647f05531e83df0456be50f"),
        (4, ("--maximal",), "e03515b46c2387c95a002a84d9022f15fb85d89900580c93a2dbaf413341e886"),
        (9, ("--maximal",), "18810e2cf41f1be1f6a51bcfecd8d401ddcaeb9837c8344f11ade222ea6fc6a6"),
    ],
    ids=["arms4", "arms4-maximal", "arms9-maximal"],
)
def test_phases_stdout_is_pinned(capsys, tmp_path, arms, flags, digest):
    # every listed phase and the count, byte for byte: 335 and 12 phases
    # on 4 arms, 156 maximal ones on 9 (the all-feasible list exits 2 there)
    instance = tmp_path / "instance.json"
    save_instance(IntersectionSpec.standard(arms), instance)
    code, out, err = run_cli(capsys, "phases", "--instance", str(instance), *flags)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_phases_on_nine_arms_exits_2_fast_but_maximal_lists(capsys, tmp_path):
    # 27 paths: the all-feasible list passes the cap, the maximal one is small
    big = tmp_path / "nine.json"
    save_instance(IntersectionSpec.standard(9), big)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "phases", "--instance", str(big))
    assert code == 2
    assert time.perf_counter() - t0 < 5.0
    assert str(MAX_FEASIBLE_PHASES) in err
    assert out == ""
    code, out, _ = run_cli(capsys, "phases", "--instance", str(big), "--maximal")
    assert code == 0
    assert out.splitlines()[-1] == "count: 156"


def test_validate_ok_lists_conflict_pairs(capsys):
    code, out, _ = run_cli(capsys, "validate", "--instance", INSTANCE)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ok"
    assert lines[1] == "conflict pairs: 16"
    listed = [tuple(int(x) for x in l.split()) for l in lines[2:]]
    spec = load_instance(INSTANCE)
    assert listed == list(spec.conflicts.pairs())


def test_validate_reads_the_instance_once(capsys, monkeypatch):
    # the pairs listed come from the document validate checked, not from
    # a second read of a file that may have changed in between
    reads = []

    def counting(path, load=cli._load_json):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "_load_json", counting)
    monkeypatch.setattr("greenlight.fileio._load_json", counting)
    code, out, _ = run_cli(capsys, "validate", "--instance", INSTANCE)
    assert code == 0 and out.startswith("ok\nconflict pairs: 16\n")
    assert reads == [INSTANCE]


def test_validate_asymmetric_matrix_exits_2(capsys, tmp_path):
    doc = json.loads(Path(INSTANCE).read_text())
    matrix = [[0] * 12 for _ in range(12)]
    matrix[0][1] = 1
    doc["conflict_matrix"] = matrix
    bad = tmp_path / "asym.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--instance", str(bad))
    assert code == 2
    assert "asymmetric at (0,1)" in out.splitlines()


def test_validate_reports_every_problem_on_its_own_line(capsys, tmp_path):
    doc = {
        "arms": 4,
        "paths": [
            {"entry": 0, "turn": "L"},
            {"entry": 0, "turn": "L"},
            {"entry": 9, "turn": "S"},
        ],
        "max_queue_len": 0,
        "conflict_matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    bad = tmp_path / "many.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", "--instance", str(bad))
    assert code == 2
    lines = out.splitlines()
    assert any("duplicate path at index 1" in l for l in lines)
    assert any("entry 9 outside" in l for l in lines)
    assert any("max_queue_len must be >= 1" in l for l in lines)
    assert any("diagonal nonzero at (0,0)" in l for l in lines)
    assert len(lines) == 4


def write_lenient_matrix_instance(tmp_path):
    # an explicit matrix skips the geometry, which once let a duplicate
    # path and an out-of-range entry arm through every subcommand but validate
    doc = {
        "arms": 4,
        "paths": [
            {"entry": 0, "turn": "L"},
            {"entry": 0, "turn": "L"},
            {"entry": 9, "turn": "S"},
        ],
        "max_queue_len": 3,
        "conflict_matrix": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    }
    path = tmp_path / "lenient.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_phases_rejects_what_validate_rejects_despite_explicit_matrix(capsys, tmp_path):
    instance = write_lenient_matrix_instance(tmp_path)
    code, out, err = run_cli(capsys, "phases", "--instance", instance)
    assert code == 2
    assert out == ""
    assert "duplicate path at index 1 (same as 0)" in err
    assert "path 2 entry 9 outside [0, 4)" in err


def test_optimize_rejects_what_validate_rejects_despite_explicit_matrix(capsys, tmp_path):
    instance = write_lenient_matrix_instance(tmp_path)
    snapshot = tmp_path / "empty.json"
    snapshot.write_text('{"tick": 0, "queues": [[], [], []]}')
    code, out, err = run_cli(
        capsys, "optimize", "--instance", instance, "--snapshot", str(snapshot)
    )
    assert code == 2
    assert out == ""
    assert "duplicate path at index 1 (same as 0)" in err
    assert "path 2 entry 9 outside [0, 4)" in err
    code, out, _ = run_cli(capsys, "validate", "--instance", instance)
    assert code == 2
    assert out.splitlines() == [
        "duplicate path at index 1 (same as 0)",
        "path 2 entry 9 outside [0, 4)",
    ]


def sweep_args(out_path=None):
    args = [
        "sweep",
        "--instance",
        INSTANCE,
        "--intensity",
        "0.25,0.5",
        "--runs",
        "2",
        "--policy",
        "f1,f2",
        "--seed",
        "5",
    ]
    if out_path is not None:
        args += ["--out", str(out_path)]
    return args


def test_sweep_csv_shape_and_fields(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, *sweep_args(out_path))
    assert code == 0
    # with --out the CSV goes to the file and the summary to stdout
    assert out.startswith("intensity 0.25 f1:")
    lines = out_path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    # rows = intensities x policies x runs
    assert len(lines) == 1 + 2 * 2 * 2
    float_field = r"\d+\.\d{6}"
    row_re = re.compile(
        rf"^{float_field},(f1|f2),\d+,{float_field},{float_field},"
        rf"{float_field},\d+,\d+,(true|false)$"
    )
    for row in lines[1:]:
        assert row_re.fullmatch(row), row
    seeds = [int(r.split(",")[2]) for r in lines[1:]]
    assert set(seeds) == {5, 6}


def test_sweep_without_out_prints_csv_to_stdout(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep",
        "--instance",
        INSTANCE,
        "--intensity",
        "0.25",
        "--runs",
        "1",
        "--policy",
        "f2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    # the human summary moves to stderr so the CSV stream stays clean
    assert err.startswith("intensity 0.25 f2:")


def test_sweep_zero_intensity_rows_are_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--instance",
        INSTANCE,
        "--intensity",
        "0",
        "--runs",
        "1",
        "--policy",
        "horizon,f1,f2",
    )
    assert code == 0
    for row in out.splitlines()[1:]:
        fields = row.split(",")
        assert fields[3] == "0.000000"
        assert fields[8] == "true"


def test_sweep_summary_counts_unterminated_episodes(capsys, monkeypatch):
    # a cap too short for a full drain ends every episode unterminated:
    # each CSV row reads false and the cell's summary line counts them
    monkeypatch.setattr(simulator, "TICK_CAP", 12)
    code, out, err = run_cli(
        capsys, "sweep", "--instance", INSTANCE, "--intensity", "1", "--runs", "2", "--policy", "f2"
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2 and all(row.split(",")[8] == "false" for row in rows)
    assert err.startswith("intensity 1.00 f2: mean_wait_ticks=")
    assert err.endswith(" non_terminated=2\n") and err.count("\n") == 1


def test_simulate_prints_stats_and_writes_log(capsys, tmp_path):
    log_path = tmp_path / "log.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate",
        "--instance",
        INSTANCE,
        "--intensity",
        "0.3",
        "--policy",
        "f2",
        "--seed",
        "3",
        "--out",
        str(log_path),
    )
    assert code == 0
    lines = out.splitlines()
    keys = [l.split(":")[0] for l in lines]
    assert keys == [
        "mean_wait_ticks",
        "mean_wait_seconds",
        "std_wait_ticks",
        "max_wait_ticks",
        "throughput",
        "rejected_arrivals",
        "starvation_events",
        "terminated",
        "ticks",
    ]
    throughput = int(next(l for l in lines if l.startswith("throughput:")).split()[1])
    log_lines = log_path.read_text().splitlines()
    assert log_lines[0] == "seed,policy,path,priority,enter_tick,exit_tick,wait_ticks"
    assert len(log_lines) == 1 + throughput
    assert all(row.split(",")[0] == "3" for row in log_lines[1:])
    assert all(row.split(",")[1] == "f2" for row in log_lines[1:])


def test_simulate_horizon_drains_faster_than_f2(capsys):
    # same seed and load, both must terminate; the planner should not
    # lose on mean wait at this depth of congestion
    def mean_of(policy):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--instance",
            INSTANCE,
            "--intensity",
            "1.0",
            "--policy",
            policy,
            "--seed",
            "11",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("mean_wait_ticks:"))
        assert "terminated: true" in out
        return float(line.split()[1])

    assert mean_of("horizon") < mean_of("f2")


def test_instance_roundtrip_through_cli_files(tmp_path, capsys):
    # regenerating the bundled instance byte for byte guards the committed file
    spec = IntersectionSpec.standard(max_queue_len=10)
    regenerated = tmp_path / "instance.json"
    save_instance(spec, regenerated)
    assert regenerated.read_text() == Path(INSTANCE).read_text()
