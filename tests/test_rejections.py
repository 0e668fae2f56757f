"""The package's input rejections: one table per input boundary.

Each table's test states its boundary's contract once, and each row is
one rule, the input and the reason it is refused:

- instance files: `load_instance` raises FileFormatError naming the file
  and the reason, and `greenlight validate` exits 2 with the same text;
- snapshot files: `load_snapshot` and `save_snapshot` raise the row's
  error type; an error of the file itself names the file, and a refused
  save writes nothing;
- CLI invocations: exit 2, nothing on stdout, one `error: ...` line on
  stderr (argparse's usage error for a flag it cannot parse), no search
  or episode run and no file created;
- the Python API: a call raises exactly the row's error type, and the
  message carries the row's fragment. The rejections that the model,
  dynamics, solver and simulator suites check stay there.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import greenlight.cli as cli
from greenlight import (
    ConflictMatrix,
    DynamicsConfig,
    IntersectionSpec,
    Movement,
    Phase,
    SimConfig,
    SolverConfig,
    TrafficSnapshot,
    VehicleRecord,
    append_arrivals,
    build_conflict_matrix,
    decide_f1,
    decode_snapshot,
    exhaustive_oracle,
    exit_arm,
    initial_green_ages,
    load_instance,
    load_snapshot,
    optimize_schedule,
    rollout_cost,
    run_episode,
    save_instance,
    save_snapshot,
    standard_movements,
    step,
)
from greenlight.errors import (
    ConstraintViolationError,
    DimensionError,
    FileFormatError,
    GreenlightError,
    InvalidGeometryError,
    InvalidSpecError,
    MalformedArrayError,
)

from helpers import snapshot_with, spec12

DATA = Path(__file__).parent / "data"


def write(path, content):
    """Write a row's file: bytes as given, a str as UTF-8 text, anything else as JSON."""
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))


def instance(**fields):
    """A two-path instance document with `fields` set."""
    doc = {"arms": 4, "paths": [{"entry": 0, "turn": "L"}, {"entry": 1, "turn": "L"}],
           "max_queue_len": 3}
    return {**doc, **fields}


def queue_array(capacity, slot=None, value=0):
    """The empty (12, 2, capacity) queue array, with `value` at `slot`."""
    arr = np.zeros((12, 2, capacity), dtype=np.int64)
    if slot is not None:
        arr[slot] = value
    return arr


# file content (None: no file) -> a fragment of the reason
INSTANCE_ROWS = {
    "missing_file": (None, "No such file or directory"),
    "json_error_position": ('{\n  "arms": 4,\n}\n', "line 3 column 1: Expecting property name"),
    "not_utf8": (b"\xff\xfe{}", "not UTF-8 text: invalid start byte at byte 0"),
    "nested_too_deeply": ("[" * 1000, "JSON nested too deeply"),
    "not_an_object": ([], "instance must be a JSON object"),
    "boolean_arms": (instance(arms=True), "arms must be an integer, got True"),
    "two_arms": (instance(arms=2), "arms must be >= 3, got 2"),
    "missing_paths": ('{"arms": 4, "max_queue_len": 3}', "paths must be a nonempty list"),
    "path_not_an_object": (instance(paths=[1]), "path 0 must be an object"),
    "non_integer_entry": (instance(paths=[{"entry": "0", "turn": "L"}]),
                          "path 0 entry must be an integer"),
    "bad_turn_token": (instance(paths=[{"entry": 0, "turn": "U"}]),
                       "path 0 turn must be one of L, S, R"),
    "bad_driving_side": (instance(driving_side="middle"), "driving_side must be 'left' or 'right'"),
    "non_boolean_merge_conflicts": (instance(merge_conflicts=0), "merge_conflicts must be a boolean"),
    "matrix_not_a_list": (instance(conflict_matrix={}), "conflict_matrix must be a list of rows"),
    "wrong_matrix_dimension": (instance(conflict_matrix=[[0]]),
                               "conflict_matrix has 1 rows, instance has 2 paths"),
    "ragged_matrix": (instance(conflict_matrix=[[0, 1], [1]]), "matrix row 1 is not length 2"),
    "non_binary_matrix": (instance(conflict_matrix=[[0, 2], [2, 0]]),
                          "matrix entry (0,1) must be 0 or 1"),
}


@pytest.mark.parametrize("content, reason", INSTANCE_ROWS.values(), ids=list(INSTANCE_ROWS))
def test_instance_file_rejected(tmp_path, capsys, content, reason):
    # validate prints the problems one per line, or, for a file that is
    # not JSON, the error line every subcommand prints
    path = tmp_path / "instance.json"
    if content is not None:
        write(path, content)
    with pytest.raises(FileFormatError) as exc:
        load_instance(path)
    message, prefix = str(exc.value), f"{path}: "
    assert message.startswith(prefix) and reason in message
    assert cli.main(["validate", "--instance", str(path)]) == 2
    listed = "".join(f"{p}\n" for p in message[len(prefix):].split("; "))
    assert capsys.readouterr() in [(listed, ""), ("", f"error: {message}\n")]


def test_validate_lists_the_constructors_integer_messages(tmp_path, capsys):
    # validate and the constructors share one integer rule and its text
    path = tmp_path / "instance.json"
    write(path, instance(arms=True, max_queue_len=0))
    assert cli.main(["validate", "--instance", str(path)]) == 2
    lines = ["arms must be an integer, got True", "max_queue_len must be >= 1, got 0"]
    assert capsys.readouterr() == ("".join(f"{line}\n" for line in lines), "")
    for make, line in zip((lambda: IntersectionSpec(True, MOVES, 3),
                           lambda: IntersectionSpec(4, MOVES, 0)), lines):
        with pytest.raises(GreenlightError, match=f"^{line}$"):
            make()


def queues(*front, tick=0):
    """A queues-form snapshot of 12 paths: `front` first, the rest empty."""
    return {"tick": tick, "queues": [*front] + [[]] * (12 - len(front))}


SNAPSHOT_SPEC = spec12(max_queue_len=2)
EMPTY = snapshot_with(SNAPSHOT_SPEC, {})  # the 12 empty queues of any default junction
# file content, or a call saving to the path -> error type, reason fragment
SNAPSHOT_ROWS = {
    "not_an_object": ([], FileFormatError, "snapshot must be a JSON object"),
    "non_integer_tick": (queues(tick=1.5), FileFormatError, "tick must be an integer"),
    "negative_tick": (queues(tick=-1), FileFormatError, "tick must be >= 0"),
    "both_forms": ({"queues": [], "array": []}, FileFormatError, "exactly one of 'queues' or 'array'"),
    "neither_form": ({"tick": 0}, FileFormatError, "exactly one of 'queues' or 'array'"),
    "queues_not_a_list": ({"queues": {}}, FileFormatError, "queues must be a list"),
    "queue_not_a_list": ({"queues": [5]}, FileFormatError, "queue 0 must be a list"),
    "malformed_vehicle_pair": (queues([[1, 0, 9]]), FileFormatError,
                               "queue 0 vehicle 0 must be a [priority, wait] pair"),
    "non_integer_priority": (queues([["1", 0]]), FileFormatError,
                             "queue 0 vehicle 0 priority must be an integer"),
    "zero_priority_vehicle": (queues([[0, 3]]), InvalidSpecError, "priority must be >= 1, got 0"),
    "wrong_queue_count": ({"queues": [[]]}, DimensionError, "snapshot has 1 queues, instance has 12"),
    "ragged_array": ({"array": [[[1, 0], [0]]]}, FileFormatError, "array form is ragged"),
    "float_array": ({"array": [[[0.5, 0], [0, 0]]]}, MalformedArrayError, "must hold integers"),
    "broken_array_padding": ({"array": queue_array(2, (0, 0, 1), 5).tolist()}, MalformedArrayError,
                             "queue 0: empty slot before an occupied one"),
    "save_array_form_without_spec": (partial(save_snapshot, EMPTY, form="array"),
                                     InvalidSpecError, "array form needs the intersection spec"),
    "save_unknown_form": (partial(save_snapshot, EMPTY, form="yaml"),
                          InvalidSpecError, "unknown snapshot form 'yaml'"),
}


@pytest.mark.parametrize("content, error, reason", SNAPSHOT_ROWS.values(), ids=list(SNAPSHOT_ROWS))
def test_snapshot_file_rejected(tmp_path, content, error, reason):
    path = tmp_path / "snapshot.json"
    saving = callable(content)
    if not saving:
        write(path, content)
    with pytest.raises(error) as exc:
        content(path) if saving else load_snapshot(path, SNAPSHOT_SPEC)
    assert exc.type is error and reason in str(exc.value)
    # only an error of the file itself names it; a refused save writes nothing
    assert str(exc.value).startswith(f"{path}: ") == (error is FileFormatError)
    assert path.exists() != saving


LONG = "x" * 300 + ".csv"  # one name of more than 255 bytes
OPTIMIZE = "optimize --instance {instance} --snapshot {snapshot}"
SIMULATE = "simulate --instance {instance} --intensity 0.3"
SWEEP = "sweep --instance {instance} --intensity 0.25 --runs 1 --policy f2"
# argv -> the last line on stderr; {tmp} holds the files of CLI_FILES
CLI_ROWS = {
    "optimize_out_in_missing_dir": (f"{OPTIMIZE} --out {{tmp}}/missing/report.json",
                                    "error: {tmp}/missing/report.json: No such file or directory"),
    "optimize_out_is_a_dir": (f"{OPTIMIZE} --out {{tmp}}/a_dir", "error: {tmp}/a_dir: Is a directory"),
    "optimize_malformed_snapshot": ("optimize --instance {instance} --snapshot {tmp}/gap.json",
                                    "error: queue 0: empty slot before an occupied one"),
    "optimize_negative_tick": ("optimize --instance {instance} --snapshot {tmp}/tick.json",
                               "error: {tmp}/tick.json: tick must be >= 0, got -1"),
    "optimize_unparseable_snapshot": (
        "optimize --instance {instance} --snapshot {tmp}/broken.json",
        "error: {tmp}/broken.json: line 1 column 12: Expecting property name enclosed in double quotes"),
    "optimize_snapshot_not_utf8": ("optimize --instance {instance} --snapshot {tmp}/utf16.json",
                                   "error: {tmp}/utf16.json: not UTF-8 text: invalid start byte at byte 0"),
    "simulate_instance_nested_too_deeply": ("simulate --instance {tmp}/deep.json --intensity 0.3",
                                            "error: {tmp}/deep.json: JSON nested too deeply"),
    "simulate_negative_wmax": (f"{SIMULATE} --wmax -5",
                               "error: wmax must be >= 5, got -5"),
    "simulate_out_in_missing_dir": (f"{SIMULATE} --out {{tmp}}/missing/waits.csv",
                                    "error: {tmp}/missing/waits.csv: No such file or directory"),
    "simulate_out_under_a_file": (f"{SIMULATE} --out {{tmp}}/a_file/waits.csv",
                                  "error: {tmp}/a_file/waits.csv: Not a directory"),
    "simulate_out_is_a_dir": (f"{SIMULATE} --out {{tmp}}/a_dir", "error: {tmp}/a_dir: Is a directory"),
    "simulate_out_name_too_long": (f"{SIMULATE} --out {{tmp}}/{LONG}",
                                   f"error: {{tmp}}/{LONG}: File name too long"),
    "sweep_out_in_missing_dir": (f"{SWEEP} --out {{tmp}}/missing/sweep.csv",
                                 "error: {tmp}/missing/sweep.csv: No such file or directory"),
    "sweep_out_under_a_file": (f"{SWEEP} --out {{tmp}}/a_file/sweep.csv",
                               "error: {tmp}/a_file/sweep.csv: Not a directory"),
    "sweep_out_is_a_dir": (f"{SWEEP} --out {{tmp}}/a_dir", "error: {tmp}/a_dir: Is a directory"),
    "sweep_intensity_out_of_range": ("sweep --instance {instance} --intensity 1.5",
                                     "error: intensity must be in [0, 1], got 1.5"),
    "sweep_zero_runs": (f"{SWEEP} --runs 0", "error: runs must be >= 1, got 0"),
    "sweep_intensity_not_floats": (
        f"{SWEEP} --intensity a,b",
        "greenlight sweep: error: argument --intensity: not a comma-separated float list: 'a,b'"),
    "sweep_intensity_empty": (f"{SWEEP} --intensity ,",
                              "greenlight sweep: error: argument --intensity: empty intensity list"),
    "sweep_unknown_policy": (
        f"{SWEEP} --policy x",
        "greenlight sweep: error: argument --policy: unknown policy 'x'; expected horizon, f1, f2"),
    "sweep_policy_empty": (f"{SWEEP} --policy ,",
                           "greenlight sweep: error: argument --policy: empty policy list"),
    # seconds are ticks times simulator.TICK_SECONDS, and every command
    # plans on the maximal phases; no command sets either
    **{
        f"{cmd}_{name}": (f"{argv} --{flag}", f"greenlight: error: unrecognized arguments: --{flag}")
        for cmd, argv in (("optimize", OPTIMIZE), ("simulate", SIMULATE), ("sweep", SWEEP))
        for name, flag in (("tick_seconds", "tick-seconds 5"), ("maximal", "maximal"),
                           ("no_maximal", "no-maximal"))
    },
}
CLI_FILES = {
    "a_file": "",
    "gap.json": {"tick": 0, "array": queue_array(10, (0, 0, 1), 5).tolist()},
    "broken.json": '{"tick": 0,,}',
    "tick.json": queues(tick=-1),
    "utf16.json": '{"tick": 0}'.encode("utf-16"),
    "deep.json": "[" * 1000,
}


@pytest.mark.parametrize("argv, message", CLI_ROWS.values(), ids=list(CLI_ROWS))
def test_cli_invocation_rejected(tmp_path, capsys, monkeypatch, argv, message):
    (tmp_path / "a_dir").mkdir()
    for name, content in CLI_FILES.items():
        write(tmp_path / name, content)
    before = sorted(tmp_path.rglob("*"))
    calls = []
    for name in ("optimize_schedule", "run_episode"):
        monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
    places = {"tmp": tmp_path, "instance": DATA / "instance_default.json",
              "snapshot": DATA / "snapshot_sample.json"}
    try:
        code = cli.main([token.format(**places) for token in argv.split()])
    except SystemExit as exc:  # argparse refused a flag
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    line = message.format(**places) + "\n"
    if line.startswith("error: "):
        assert err == line
    else:
        assert err.startswith("usage: greenlight ") and err.endswith("\n" + line)
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


SPEC = spec12()  # 12 paths, queues of at most 6
MOVES = standard_movements(4)
CROSSING = Phase(sum(1 << i for i in SPEC.conflicts.pairs()[0]), 12)  # opens a conflicting pair
# every integer count, seed and record field of the API, each checked by
# model._check_int: row name -> field, error type, lower bound, and a call
# given the field's value
INT_FIELDS = {
    "exit_arm_arms": ("arms", InvalidGeometryError, 3, lambda x: exit_arm(MOVES[0], x)),
    "exit_arm_entry_arm": ("entry_arm", InvalidGeometryError, 0,
                           lambda x: exit_arm(Movement(x, "L"), 4)),
    "phase_width": ("width", DimensionError, 1, lambda x: Phase(0, x)),
    "phase_mask": ("mask", DimensionError, 0, lambda x: Phase(x, 3)),
    "record_priority": ("priority", InvalidSpecError, 1, lambda x: VehicleRecord(x)),
    "record_wait": ("wait", InvalidSpecError, 0, lambda x: VehicleRecord(1, x)),
    "spec_arms": ("arms", InvalidGeometryError, 3, lambda x: IntersectionSpec(x, MOVES[:1], 1)),
    "spec_max_queue_len": ("max_queue_len", InvalidSpecError, 1,
                           lambda x: IntersectionSpec.standard(max_queue_len=x)),
    "snapshot_tick": ("tick", InvalidSpecError, 0,
                      lambda x: SPEC.validate_snapshot(TrafficSnapshot(x, EMPTY.queues))),
    "dynamics_phase_ticks": ("phase_ticks", InvalidSpecError, 1,
                             lambda x: DynamicsConfig(phase_ticks=x, slow_start=0)),
    "dynamics_slow_start": ("slow_start", InvalidSpecError, 0, lambda x: DynamicsConfig(slow_start=x)),
    "solver_horizon": ("horizon", InvalidSpecError, 1, lambda x: SolverConfig(horizon=x)),
    # above phase_ticks * slow_start = 4, the longest forced wait of a fresh green
    "solver_wmax": ("wmax", InvalidSpecError, 5, lambda x: SolverConfig(wmax=x)),
    "sim_seed": ("seed", InvalidSpecError, 0, lambda x: SimConfig(SPEC, 0.5, seed=x)),
    "sim_episode_ticks": ("episode_ticks", InvalidSpecError, 0,
                          lambda x: SimConfig(SPEC, 0.5, episode_ticks=x)),
    "sweep_runs": ("runs", InvalidSpecError, 1, lambda x: cli.SweepSpec(runs=x)),
    "sweep_base_seed": ("base_seed", InvalidSpecError, 0, lambda x: cli.SweepSpec(base_seed=x)),
}
# call -> error type, message fragment; the rejections of the model,
# dynamics, solver and simulator suites are checked there
API_ROWS = {
    "phase_width_zero": (lambda: Phase(0, 0), DimensionError, "width must be >= 1, got 0"),
    "phase_mask_too_wide": (lambda: Phase(8, 3), DimensionError, "mask 0x8 does not fit width 3"),
    "phase_is_open_past_width": (lambda: Phase(1, 3).is_open(5), DimensionError,
                                 "path 5 outside range(3)"),
    "phase_is_open_negative": (lambda: Phase(1, 3).is_open(-1), DimensionError,
                               "path -1 outside range(3)"),
    "matrix_empty": (lambda: ConflictMatrix(np.zeros((0, 0))), DimensionError,
                     "conflict matrix must cover at least one path"),
    "matrix_conflicts_row_out_of_range": (lambda: SPEC.conflicts.conflicts(12, 0), DimensionError,
                                          "path pair (12, 0) outside range(12)"),
    "matrix_conflicts_column_negative": (lambda: SPEC.conflicts.conflicts(0, -1), DimensionError,
                                         "path pair (0, -1) outside range(12)"),
    "spec_two_arms": (lambda: IntersectionSpec(2, MOVES[:1], 1), InvalidGeometryError,
                      "arms must be >= 3, got 2"),
    "spec_no_paths": (lambda: IntersectionSpec(4, (), 1), InvalidSpecError,
                      "at least one path required"),
    "spec_matrix_of_three_paths": (
        lambda: IntersectionSpec(4, MOVES, 1, conflicts=ConflictMatrix(np.zeros((3, 3)))),
        DimensionError, "conflict matrix covers 3 paths, instance has 12"),
    "dynamics_negative_slow_start": (lambda: DynamicsConfig(slow_start=-1), InvalidSpecError,
                                     "slow_start must be >= 0"),
    "sim_negative_seed": (lambda: SimConfig(SPEC, 0.5, seed=-1), InvalidSpecError,
                          "seed must be >= 0, got -1"),
    "sim_negative_episode_ticks": (lambda: SimConfig(SPEC, 0.5, episode_ticks=-1),
                                   InvalidSpecError, "episode_ticks must be >= 0"),
    "arrivals_for_11_of_12_paths": (lambda: append_arrivals(SPEC, EMPTY, ((),) * 11),
                                    InvalidSpecError, "arrivals cover 11 paths, expected 12"),
    "snapshot_negative_tick": (lambda: SPEC.validate_snapshot(TrafficSnapshot(-5, EMPTY.queues)),
                               InvalidSpecError, "tick must be >= 0, got -5"),
    "step_negative_tick": (lambda: step(SPEC, TrafficSnapshot(-5, EMPTY.queues), SPEC.all_closed(),
                                        [0] * 12, DynamicsConfig()),
                           InvalidSpecError, "tick must be >= 0, got -5"),
    "optimize_negative_tick": (lambda: optimize_schedule(SPEC, TrafficSnapshot(-1, EMPTY.queues),
                                                         SPEC.all_closed(), SolverConfig()),
                               InvalidSpecError, "tick must be >= 0, got -1"),
    **{
        f"{name}_from_conflicting_prev_phase": (call, ConstraintViolationError,
                                               f"phase {CROSSING} opens conflicting paths")
        for name, call in (
            ("optimize", lambda: optimize_schedule(SPEC, EMPTY, CROSSING, SolverConfig(horizon=2))),
            ("oracle", lambda: exhaustive_oracle(SPEC, EMPTY, CROSSING, SolverConfig(horizon=2))),
            ("rollout_cost", lambda: rollout_cost(SPEC, EMPTY, (SPEC.all_closed(),), CROSSING,
                                                  DynamicsConfig())),
            ("initial_green_ages", lambda: initial_green_ages(SPEC, CROSSING, DynamicsConfig())),
        )
    },
    **{
        f"f1_snapshot_of_{n}_queues": (
            lambda n=n: decide_f1(TrafficSnapshot(0, ((),) * n), SPEC.conflicts),
            DimensionError, f"snapshot has {n} queues, matrix has 12 paths")
        for n in (11, 13)
    },
    "decode_negative_tick": (lambda: decode_snapshot(queue_array(6), SPEC, tick=-3),
                             InvalidSpecError, "tick must be >= 0, got -3"),
    "sweep_zero_runs": (lambda: cli.SweepSpec(runs=0), InvalidSpecError, "runs must be >= 1, got 0"),
    "sweep_no_intensities": (lambda: cli.SweepSpec(intensities=()), GreenlightError,
                             "at least one intensity required"),
    "sweep_no_policies": (lambda: cli.SweepSpec(policies=()), GreenlightError,
                          "at least one policy required"),
    # a token that names no Turn, DrivingSide, SimMode or PolicyKind value
    **{
        name: (call, InvalidSpecError, fragment)
        for name, fragment, call in (
            ("movement_unknown_turn", "unknown turn 'U'", lambda: Movement(0, "U")),
            ("exit_arm_unknown_side", "unknown driving side 'middle'",
             lambda: exit_arm(MOVES[0], 4, "middle")),
            ("conflict_matrix_unknown_side", "unknown driving side 'up'",
             lambda: build_conflict_matrix(4, MOVES, "up")),
            ("spec_unknown_side", "unknown driving side 'Left'",
             lambda: IntersectionSpec(4, MOVES, 1, driving_side="Left")),
            ("sim_unknown_mode", "unknown mode 'burst'", lambda: SimConfig(SPEC, 0.5, mode="burst")),
            ("sweep_spec_unknown_policy", "unknown policy 'f3'",
             lambda: cli.SweepSpec(policies=("f1", "f3"))),
            ("run_episode_unknown_policy", "unknown policy 'F1'",
             lambda: run_episode(SimConfig(SPEC, 0.5), "F1")),
        )
    },
    "save_instance_into_missing_dir": (lambda: save_instance(SPEC, DATA / "absent" / "x.json"),
                                       FileFormatError, "absent/x.json: No such file or directory"),
    # the guard and the search's pre-check read wmax in ways that agree
    # only on ints: at 60.5 the search and the oracle differ in 273 of
    # 600 plans, and nan turned the guard and the starvation count off
    **{
        f"solver_wmax_{label}": (lambda bad=bad: SolverConfig(wmax=bad), InvalidSpecError,
                                 f"wmax must be an integer, got {bad!r}")
        for label, bad in (("60_5", 60.5), ("nan", float("nan")), ("str", "60"),
                           ("numpy_int", np.int64(60)))
    },
    **{
        f"sim_intensity_{label}": (lambda bad=bad: SimConfig(SPEC, bad), InvalidSpecError,
                                   f"intensity must be a real number, got {bad!r}")
        for label, bad in (("bool", True), ("str", "0.5"))
    },
    # a non-bool flag would be read for its truth, so "no" would merge and
    # save a file load_instance refuses; the message starts with that
    # file check's text
    **{
        f"{name}_merge_conflicts_{label}": (lambda make=make, bad=bad: make(bad), InvalidSpecError,
                                            f"merge_conflicts must be a boolean, got {bad!r}")
        for name, make in (
            ("spec", lambda x: IntersectionSpec.standard(merge_conflicts=x)),
            ("spec_with_matrix", lambda x: IntersectionSpec(4, MOVES, 1, merge_conflicts=x,
                                                            conflicts=SPEC.conflicts)),
            ("conflict_matrix", lambda x: build_conflict_matrix(4, MOVES, merge_conflicts=x)),
        )
        for label, bad in (("str", "no"), ("int", 1), ("none", None))
    },
    # a flag read for its truth: "no" planned on the maximal list, 0 on the
    # all-feasible one, and phase_masks cached a list under each such key
    **{
        f"solver_maximal_only_{label}": (lambda bad=bad: SolverConfig(maximal_only=bad),
                                         InvalidSpecError,
                                         f"maximal_only must be a boolean, got {bad!r}")
        for label, bad in (("str", "no"), ("int", 0), ("none", None))
    },
    # a float or a bool in an integer field: not an int, whatever its value
    **{
        f"{name}_{label}": (lambda make=make, bad=bad: make(bad), error,
                            f"{field} must be an integer, got {bad!r}")
        for name, (field, error, _, make) in INT_FIELDS.items()
        for label, bad in (("float", 1.5), ("bool", True))
    },
}


@pytest.mark.parametrize("call, error, fragment", API_ROWS.values(), ids=list(API_ROWS))
def test_api_call_rejected(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and fragment in str(exc.value)


def test_refused_flags_leave_only_bool_keys_in_the_phase_cache():
    spec = spec12()
    for bad in ("no", 0, 1, None):
        with pytest.raises(InvalidSpecError):
            optimize_schedule(spec, EMPTY, spec.all_closed(), SolverConfig(maximal_only=bad))
    for flag in (True, False):
        optimize_schedule(spec, EMPTY, spec.all_closed(), SolverConfig(horizon=1, maximal_only=flag))
    assert [type(key) for key in spec.conflicts._masks] == [bool, bool]


@pytest.mark.parametrize("field, error, low, make", INT_FIELDS.values(), ids=list(INT_FIELDS))
def test_integer_field_takes_its_lower_bound(field, error, low, make):
    make(low)
    with pytest.raises(error) as exc:
        make(low - 1)
    assert exc.type is error and str(exc.value) == f"{field} must be >= {low}, got {low - 1}"
