"""Tests for instance, snapshot, and wait-log serialization."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
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
from greenlight.errors import FileFormatError
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
    # the matrix entries may also be booleans or whole floats; two left
    # turns never cross, so the saved file keeps the matrix, as 0/1
    lenient = {"arms": 4, "paths": [{"entry": 0, "turn": "L"}, {"entry": 1, "turn": "L"}],
               "max_queue_len": 5, "conflict_matrix": [[0, True], [1.0, 0]]}
    path.write_text(json.dumps(lenient))
    loaded = load_instance(path)
    assert loaded.conflicts == ConflictMatrix(np.array([[0, 1], [1, 0]]))
    save_instance(loaded, path)
    # True == 1 == 1.0, so check the types as well
    saved = json.loads(path.read_text())["conflict_matrix"]
    assert saved == [[0, 1], [1, 0]]
    assert all(type(x) is int for row in saved for x in row)


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
