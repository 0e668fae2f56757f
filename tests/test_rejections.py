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
    Phase,
    SimConfig,
    append_arrivals,
    load_instance,
    load_snapshot,
    lower_bound,
    save_instance,
    save_snapshot,
    standard_movements,
)
from greenlight.errors import (
    DimensionError,
    FileFormatError,
    GreenlightError,
    InvalidGeometryError,
    InvalidSpecError,
    MalformedArrayError,
)

from helpers import spec12

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
    "boolean_arms": (instance(arms=True), "arms must be an integer"),
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


def queues(*front, tick=0):
    """A queues-form snapshot of 12 paths: `front` first, the rest empty."""
    return {"tick": tick, "queues": [*front] + [[]] * (12 - len(front))}


SNAPSHOT_SPEC = spec12(max_queue_len=2)
EMPTY = SNAPSHOT_SPEC.empty_snapshot()  # the 12 empty queues of any default junction
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
    "float_array": ({"array": [[[0.5, 0], [0, 0]]]}, FileFormatError, "array form must hold integers"),
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
    "optimize_unparseable_snapshot": (
        "optimize --instance {instance} --snapshot {tmp}/broken.json",
        "error: {tmp}/broken.json: line 1 column 12: Expecting property name enclosed in double quotes"),
    "optimize_snapshot_not_utf8": ("optimize --instance {instance} --snapshot {tmp}/utf16.json",
                                   "error: {tmp}/utf16.json: not UTF-8 text: invalid start byte at byte 0"),
    "simulate_instance_nested_too_deeply": ("simulate --instance {tmp}/deep.json --intensity 0.3",
                                            "error: {tmp}/deep.json: JSON nested too deeply"),
    "simulate_negative_wmax": (f"{SIMULATE} --wmax -5",
                               "error: wmax must exceed phase_ticks * slow_start = 4"),
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
    "sweep_zero_runs": (f"{SWEEP} --runs 0", "error: runs must be >= 1"),
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
    **{
        f"{cmd}_{seconds}_tick_seconds": (f"{argv} --tick-seconds {seconds} --out {{tmp}}/out.csv",
                                          "error: tick_seconds must be finite and positive")
        for cmd, argv in (("simulate", SIMULATE), ("sweep", SWEEP))
        for seconds in ("nan", "inf")
    },
}
CLI_FILES = {
    "a_file": "",
    "gap.json": {"tick": 0, "array": queue_array(10, (0, 0, 1), 5).tolist()},
    "broken.json": '{"tick": 0,,}',
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
# call -> error type, message fragment; the rejections of the model,
# dynamics, solver and simulator suites are checked there
API_ROWS = {
    "phase_width_zero": (lambda: Phase(0, 0), DimensionError, "phase width must be positive"),
    "phase_mask_too_wide": (lambda: Phase(8, 3), DimensionError, "mask 0x8 does not fit width 3"),
    "matrix_empty": (lambda: ConflictMatrix(np.zeros((0, 0))), DimensionError,
                     "conflict matrix must cover at least one path"),
    "spec_two_arms": (lambda: IntersectionSpec(2, MOVES[:1], 1), InvalidGeometryError,
                      "need at least 3 arms"),
    "spec_no_paths": (lambda: IntersectionSpec(4, (), 1), InvalidSpecError,
                      "at least one path required"),
    "spec_matrix_of_three_paths": (
        lambda: IntersectionSpec(4, MOVES, 1, conflicts=ConflictMatrix(np.zeros((3, 3)))),
        DimensionError, "conflict matrix covers 3 paths, instance has 12"),
    "dynamics_negative_slow_start": (lambda: DynamicsConfig(slow_start=-1), InvalidSpecError,
                                     "slow_start must be >= 0"),
    "lower_bound_negative_ticks": (lambda: lower_bound(EMPTY, -1), InvalidSpecError,
                                   "remaining_ticks must be >= 0"),
    "sim_negative_seed": (lambda: SimConfig(SPEC, 0.5, seed=-1), InvalidSpecError,
                          "seed must be nonnegative"),
    "sim_negative_episode_ticks": (lambda: SimConfig(SPEC, 0.5, episode_ticks=-1),
                                   InvalidSpecError, "episode_ticks must be >= 0"),
    "arrivals_for_11_of_12_paths": (lambda: append_arrivals(SPEC, EMPTY, ((),) * 11),
                                    InvalidSpecError, "arrivals cover 11 paths, expected 12"),
    "sweep_zero_runs": (lambda: cli.SweepSpec(runs=0), GreenlightError, "runs must be >= 1"),
    "sweep_no_intensities": (lambda: cli.SweepSpec(intensities=()), GreenlightError,
                             "at least one intensity required"),
    "sweep_no_policies": (lambda: cli.SweepSpec(policies=()), GreenlightError,
                          "at least one policy required"),
    "save_instance_into_missing_dir": (lambda: save_instance(SPEC, DATA / "absent" / "x.json"),
                                       FileFormatError, "absent/x.json: No such file or directory"),
}


@pytest.mark.parametrize("call, error, fragment", API_ROWS.values(), ids=list(API_ROWS))
def test_api_call_rejected(call, error, fragment):
    with pytest.raises(error) as exc:
        call()
    assert exc.type is error and fragment in str(exc.value)
