"""Tests for instance, snapshot, and wait-log serialization."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    DrivingSide,
    IntersectionSpec,
    TrafficSnapshot,
    VehicleRecord,
    WaitLogEntry,
    format_wait_log,
    load_instance,
    load_snapshot,
    save_instance,
    save_snapshot,
    standard_movements,
    write_wait_log,
)
from greenlight.cli import main
from greenlight.errors import FileFormatError, GreenlightError, InvalidSpecError
from greenlight.fileio import WAIT_LOG_HEADER

DEFAULT_DOC = json.loads(
    (Path(__file__).parent / "data" / "instance_default.json").read_text()
)


def sample_snapshot(spec):
    queues = [()] * spec.num_paths
    queues[0] = (VehicleRecord(3, 7), VehicleRecord(1, 2))
    queues[5] = (VehicleRecord(10, 0),)
    return TrafficSnapshot(4, tuple(queues))


def test_instance_roundtrip_default_geometry(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=9, driving_side=DrivingSide.RIGHT)
    path = tmp_path / "junction.json"
    save_instance(spec, path)
    assert load_instance(path) == spec
    # the derived matrix is reproducible, so the file omits it
    assert "conflict_matrix" not in path.read_text()


def test_instance_roundtrip_explicit_matrix(tmp_path):
    cm = ConflictMatrix(np.zeros((12, 12), dtype=bool))
    spec = IntersectionSpec(
        arms=4, paths=standard_movements(4), max_queue_len=5, conflicts=cm
    )
    path = tmp_path / "junction.json"
    save_instance(spec, path)
    assert "conflict_matrix" in path.read_text()
    loaded = load_instance(path)
    assert loaded == spec
    assert loaded.conflicts == cm


def test_instance_reports_json_error_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "arms": 4,\n}\n')
    with pytest.raises(FileFormatError) as exc:
        load_instance(path)
    assert "line 3" in str(exc.value)
    assert "column" in str(exc.value)


def test_instance_missing_key(tmp_path):
    path = tmp_path / "nopaths.json"
    path.write_text('{"arms": 4, "max_queue_len": 3}')
    with pytest.raises(FileFormatError) as exc:
        load_instance(path)
    assert "paths" in str(exc.value)


def test_instance_rejects_bad_turn_token(tmp_path):
    path = tmp_path / "badturn.json"
    path.write_text(
        '{"arms": 4, "paths": [{"entry": 0, "turn": "U"}], "max_queue_len": 3}'
    )
    with pytest.raises(FileFormatError) as exc:
        load_instance(path)
    assert "turn" in str(exc.value)


def test_instance_rejects_bad_driving_side(tmp_path):
    path = tmp_path / "badside.json"
    path.write_text(
        '{"arms": 4, "paths": [{"entry": 0, "turn": "L"}],'
        ' "max_queue_len": 3, "driving_side": "middle"}'
    )
    with pytest.raises(FileFormatError):
        load_instance(path)


def test_instance_rejects_non_binary_matrix(tmp_path):
    path = tmp_path / "badmatrix.json"
    path.write_text(
        '{"arms": 4, "paths": [{"entry": 0, "turn": "L"}, {"entry": 1, "turn": "L"}],'
        ' "max_queue_len": 3, "conflict_matrix": [[0, 2], [2, 0]]}'
    )
    with pytest.raises(FileFormatError) as exc:
        load_instance(path)
    assert "0 or 1" in str(exc.value)


def test_instance_rejects_ragged_matrix(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(
        '{"arms": 4, "paths": [{"entry": 0, "turn": "L"}, {"entry": 1, "turn": "L"}],'
        ' "max_queue_len": 3, "conflict_matrix": [[0, 1], [1]]}'
    )
    with pytest.raises(FileFormatError):
        load_instance(path)


def test_instance_rejects_wrong_matrix_dimension(tmp_path):
    path = tmp_path / "wrongdim.json"
    path.write_text(
        '{"arms": 4, "paths": [{"entry": 0, "turn": "L"}, {"entry": 1, "turn": "L"}],'
        ' "max_queue_len": 3, "conflict_matrix": [[0]]}'
    )
    with pytest.raises(GreenlightError):
        load_instance(path)


def test_instance_boolean_arms_rejected(tmp_path):
    path = tmp_path / "boolarms.json"
    path.write_text(
        '{"arms": true, "paths": [{"entry": 0, "turn": "L"}], "max_queue_len": 3}'
    )
    with pytest.raises(FileFormatError):
        load_instance(path)


def test_snapshot_roundtrip_queues_form(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=6)
    snap = sample_snapshot(spec)
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    assert load_snapshot(path, spec) == snap


def test_snapshot_roundtrip_array_form(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=6)
    snap = sample_snapshot(spec)
    path = tmp_path / "snap_array.json"
    save_snapshot(snap, path, spec=spec, form="array")
    assert load_snapshot(path, spec) == snap


def test_snapshot_requires_exactly_one_form(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    both = tmp_path / "both.json"
    both.write_text('{"tick": 0, "queues": [], "array": []}')
    with pytest.raises(FileFormatError) as exc:
        load_snapshot(both, spec)
    assert "exactly one" in str(exc.value)
    neither = tmp_path / "neither.json"
    neither.write_text('{"tick": 0}')
    with pytest.raises(FileFormatError):
        load_snapshot(neither, spec)


def test_snapshot_rejects_malformed_vehicle_pair(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "badpair.json"
    queues = [[[1, 0, 9]]] + [[] for _ in range(11)]
    path.write_text('{"tick": 0, "queues": %s}' % queues)
    with pytest.raises(FileFormatError) as exc:
        load_snapshot(path, spec)
    assert "vehicle" in str(exc.value)


def test_snapshot_rejects_zero_priority_vehicle(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "zeropri.json"
    queues = [[[0, 3]]] + [[] for _ in range(11)]
    path.write_text('{"tick": 0, "queues": %s}' % queues)
    with pytest.raises(GreenlightError):
        load_snapshot(path, spec)


def test_snapshot_rejects_broken_array_padding(tmp_path):
    # a gap in the zero padding means the file was assembled by hand
    # and wrongly; decode must refuse it
    spec = IntersectionSpec.standard(max_queue_len=3)
    arr = np.zeros((12, 2, 3), dtype=int)
    arr[0, 0, 1] = 5
    path = tmp_path / "gap.json"
    path.write_text('{"tick": 0, "array": %s}' % arr.tolist())
    with pytest.raises(GreenlightError):
        load_snapshot(path, spec)


def test_snapshot_rejects_ragged_array(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "raggedarr.json"
    path.write_text('{"tick": 0, "array": [[[1, 0], [0]]]}')
    with pytest.raises(FileFormatError):
        load_snapshot(path, spec)


def test_snapshot_rejects_float_array(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "floats.json"
    path.write_text('{"tick": 0, "array": [[[0.5, 0], [0, 0]]]}')
    with pytest.raises(FileFormatError):
        load_snapshot(path, spec)


def test_snapshot_rejects_wrong_queue_count(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "short.json"
    path.write_text('{"tick": 0, "queues": [[]]}')
    with pytest.raises(GreenlightError):
        load_snapshot(path, spec)


def test_snapshot_negative_tick_rejected(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    path = tmp_path / "negtick.json"
    path.write_text('{"tick": -1, "queues": %s}' % [[] for _ in range(12)])
    with pytest.raises(FileFormatError):
        load_snapshot(path, spec)


def test_save_snapshot_array_form_needs_spec(tmp_path):
    spec = IntersectionSpec.standard(max_queue_len=2)
    with pytest.raises(InvalidSpecError):
        save_snapshot(spec.empty_snapshot(), tmp_path / "x.json", form="array")
    with pytest.raises(InvalidSpecError):
        save_snapshot(spec.empty_snapshot(), tmp_path / "x.json", form="yaml")


def test_wait_log_formatting(tmp_path):
    entries = [
        WaitLogEntry(7, "f2", 3, 10, 0, 5, 5),
        WaitLogEntry(7, "f2", 0, 1, 2, 9, 7),
    ]
    text = format_wait_log(entries)
    assert text == (
        "seed,policy,path,priority,enter_tick,exit_tick,wait_ticks\n"
        "7,f2,3,10,0,5,5\n"
        "7,f2,0,1,2,9,7\n"
    )
    path = tmp_path / "log.csv"
    write_wait_log(entries, path)
    assert path.read_text() == text
    assert text.startswith(WAIT_LOG_HEADER + "\n")


def test_missing_file_reports_path(tmp_path):
    target = tmp_path / "absent.json"
    with pytest.raises(FileFormatError) as exc:
        load_instance(target)
    assert "absent.json" in str(exc.value)


def _matrix(doc):
    """The document's explicit matrix, first installing a zero one sized
    to its paths when it has none."""
    if "conflict_matrix" not in doc:
        n = len(doc.get("paths", DEFAULT_DOC["paths"]))
        doc["conflict_matrix"] = [[0] * n for _ in range(n)]
    return doc["conflict_matrix"]


def _row(doc, i):
    m = _matrix(doc)
    return m[i % len(m)]


def _mutate(doc, kind, i):
    paths = doc.get("paths")
    if kind == "drop_key":
        keys = sorted(doc)
        if keys:
            del doc[keys[i % len(keys)]]
    elif kind == "duplicate_path" and isinstance(paths, list):
        paths.append(copy.deepcopy(paths[i % len(paths)]))
    elif kind == "entry_out_of_range" and isinstance(paths, list):
        paths[i % len(paths)]["entry"] = (-1, 4, 9)[i % 3]
    elif kind == "bool_arms":
        doc["arms"] = True
    elif kind == "bad_turn" and isinstance(paths, list):
        paths[i % len(paths)]["turn"] = ("U", "l", ["L"], 1)[i % 4]
    elif kind == "bad_side":
        doc["driving_side"] = ("middle", "LEFT", 0)[i % 3]
    elif kind == "explicit_matrix":
        _matrix(doc)
    elif kind == "asymmetric":
        row = _row(doc, i)
        j = (i + 1) % len(row)
        row[j] = 1 - row[j] if row[j] in (0, 1) else 1
    elif kind == "ragged":
        _row(doc, i).pop()
    elif kind == "nonzero_diagonal":
        m = _matrix(doc)
        k = i % len(m)
        if len(m[k]) > k:
            m[k][k] = 1
    elif kind == "non_binary":
        row = _row(doc, i)
        row[i % len(row)] = (2, -1, 0.5, "1", None)[i % 5]
    elif kind == "wrong_row_count":
        _matrix(doc).pop()


MUTATIONS = (
    "drop_key",
    "duplicate_path",
    "entry_out_of_range",
    "bool_arms",
    "bad_turn",
    "bad_side",
    "explicit_matrix",
    "asymmetric",
    "ragged",
    "nonzero_diagonal",
    "non_binary",
    "wrong_row_count",
)


@given(
    st.lists(
        st.tuples(st.sampled_from(MUTATIONS), st.integers(min_value=0, max_value=30)),
        min_size=1,
        max_size=2,
    )
)
@settings(max_examples=300, deadline=None)
def test_property_validate_and_load_instance_agree(mutations):
    # both entry points share one rule set: validate exits 0 exactly when
    # load_instance returns, and lists the problems its error names
    doc = copy.deepcopy(DEFAULT_DOC)
    for kind, i in mutations:
        _mutate(doc, kind, i)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate", "--instance", str(path)])
        try:
            spec = load_instance(path)
        except FileFormatError as exc:
            assert code == 2
            prefix = f"{path}: "
            assert str(exc).startswith(prefix)
            assert out.getvalue().splitlines() == str(exc)[len(prefix):].split("; ")
        else:
            assert code == 0
            lines = out.getvalue().splitlines()
            assert lines[:2] == ["ok", f"conflict pairs: {len(spec.conflicts.pairs())}"]
