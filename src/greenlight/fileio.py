"""JSON instance and snapshot files, plus the wait-log CSV writer.

Instance files describe a junction: arms, movements, queue capacity,
driving side, merge policy, and optionally an explicit conflict matrix
overriding the geometric one. One collector, `_instance_problems`,
holds every instance rule: `load_instance` raises on what it finds and
`greenlight validate` prints it, so both accept the same files, and
`_instance_spec` builds the junction from the one document both read.

Snapshot files carry queue contents either as nested [priority, wait]
pairs or as the flat (P, 2, L) array form.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FileFormatError, InvalidSpecError
from .model import (
    MIN_ARMS,
    ConflictMatrix,
    DrivingSide,
    IntersectionSpec,
    Movement,
    TrafficSnapshot,
    Turn,
    VehicleRecord,
    _check_int,
    _int_problem,
    _is_int,
    build_conflict_matrix,
    decode_snapshot,
    encode_snapshot,
)
from .simulator import WaitLogEntry

WAIT_LOG_HEADER = "seed,policy,path,priority,enter_tick,exit_tick,wait_ticks"
_TURN_TOKENS = tuple(t.value for t in Turn)
_SIDE_TOKENS = tuple(s.value for s in DrivingSide)


def _load_json(path: str | Path):
    """The parsed document; a file that cannot be read, is not UTF-8, is
    not JSON or nests past the recursion limit raises FileFormatError in
    the `<path>: <reason>` form of a failed write."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileFormatError(f"{p}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{p}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise FileFormatError(f"{p}: JSON nested too deeply") from exc


def _write_text(path: str | Path, text: str) -> None:
    """Write text as UTF-8 with no newline translation; a path that
    cannot be written raises FileFormatError naming it, as reads do."""
    p = Path(path)
    try:
        with p.open("w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise FileFormatError(f"{p}: {exc.strerror or exc}") from exc


def _as_int(value, what: str, path: str | Path) -> int:
    if not _is_int(value):
        raise FileFormatError(f"{path}: {what} must be an integer")
    return value


def _instance_problems(data) -> list[str]:
    """Every problem with an instance document, in document order.

    An empty list means `load_instance` builds the spec; `validate`
    prints the same list, one problem per line.
    """
    if not isinstance(data, dict):
        return ["instance must be a JSON object"]
    problems: list[str] = []

    arms = data.get("arms")
    problem = _int_problem(arms, "arms", MIN_ARMS)
    if problem is not None:
        problems.append(problem)
    if not _is_int(arms):
        arms = None

    raw_paths = data.get("paths")
    n_paths = 0
    if not isinstance(raw_paths, list) or not raw_paths:
        problems.append("paths must be a nonempty list")
    else:
        n_paths = len(raw_paths)
        seen = {}
        for idx, item in enumerate(raw_paths):
            if not isinstance(item, dict):
                problems.append(f"path {idx} must be an object")
                continue
            entry = item.get("entry")
            turn = item.get("turn")
            if not _is_int(entry):
                problems.append(f"path {idx} entry must be an integer")
                continue
            if arms is not None and not 0 <= entry < arms:
                problems.append(f"path {idx} entry {entry} outside [0, {arms})")
            # a tuple, not a set: a list or object token must not raise
            if turn not in _TURN_TOKENS:
                problems.append(f"path {idx} turn must be one of L, S, R")
                continue
            key = (entry, turn)
            if key in seen:
                problems.append(f"duplicate path at index {idx} (same as {seen[key]})")
            else:
                seen[key] = idx

    problem = _int_problem(data.get("max_queue_len"), "max_queue_len", 1)
    if problem is not None:
        problems.append(problem)

    if data.get("driving_side", "left") not in _SIDE_TOKENS:
        problems.append("driving_side must be 'left' or 'right'")
    if not isinstance(data.get("merge_conflicts", False), bool):
        problems.append("merge_conflicts must be a boolean")

    matrix = data.get("conflict_matrix")
    if matrix is None:
        return problems
    if not isinstance(matrix, list):
        problems.append("conflict_matrix must be a list of rows")
        return problems
    rows = len(matrix)
    if n_paths and rows != n_paths:
        problems.append(f"conflict_matrix has {rows} rows, instance has {n_paths} paths")
    square = True
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != rows:
            problems.append(f"matrix row {i} is not length {rows}")
            square = False
            continue
        for j, x in enumerate(row):
            if x not in (0, 1):
                problems.append(f"matrix entry ({i},{j}) must be 0 or 1")
    if square:
        for i in range(rows):
            if matrix[i][i]:
                problems.append(f"diagonal nonzero at ({i},{i})")
            for j in range(i + 1, rows):
                if matrix[i][j] != matrix[j][i]:
                    problems.append(f"asymmetric at ({i},{j})")
    return problems


def load_instance(path: str | Path) -> IntersectionSpec:
    """Read and validate a junction description.

    Raises one FileFormatError naming the file and every problem that
    `_instance_problems` finds, joined by "; ".
    """
    data = _load_json(path)
    problems = _instance_problems(data)
    if problems:
        raise FileFormatError(f"{path}: " + "; ".join(problems))
    return _instance_spec(data)


def _instance_spec(data) -> IntersectionSpec:
    """The junction of a parsed document `_instance_problems` found no problem in."""
    matrix = data.get("conflict_matrix")
    return IntersectionSpec(
        arms=data["arms"],
        paths=tuple(Movement(p["entry"], p["turn"]) for p in data["paths"]),
        max_queue_len=data["max_queue_len"],
        driving_side=data.get("driving_side", "left"),
        merge_conflicts=data.get("merge_conflicts", False),
        conflicts=None if matrix is None else ConflictMatrix(np.array(matrix, dtype=bool)),
    )


def save_instance(spec: IntersectionSpec, path: str | Path) -> None:
    """Write a junction description; the conflict matrix is emitted only
    when it differs from the one its geometry would derive."""
    doc: dict = {
        "arms": spec.arms,
        "paths": [{"entry": m.entry_arm, "turn": m.turn.value} for m in spec.paths],
        "max_queue_len": spec.max_queue_len,
        "driving_side": spec.driving_side.value,
        "merge_conflicts": spec.merge_conflicts,
    }
    derived = build_conflict_matrix(
        spec.arms, spec.paths, spec.driving_side, spec.merge_conflicts
    )
    if spec.conflicts != derived:
        doc["conflict_matrix"] = spec.conflicts.as_array().astype(int).tolist()
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def load_snapshot(path: str | Path, spec: IntersectionSpec) -> TrafficSnapshot:
    """Read a snapshot in either the queues form or the array form."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: snapshot must be a JSON object")
    tick = data.get("tick", 0)
    _check_int(tick, f"{path}: tick", 0, FileFormatError)
    has_queues = "queues" in data
    has_array = "array" in data
    if has_queues == has_array:
        raise FileFormatError(f"{path}: snapshot needs exactly one of 'queues' or 'array'")

    if has_array:
        try:
            arr = np.asarray(data["array"])
        except ValueError:
            raise FileFormatError(f"{path}: array form is ragged") from None
        return decode_snapshot(arr, spec, tick=tick)

    raw = data["queues"]
    if not isinstance(raw, list):
        raise FileFormatError(f"{path}: queues must be a list")
    queues = []
    for i, rq in enumerate(raw):
        if not isinstance(rq, list):
            raise FileFormatError(f"{path}: queue {i} must be a list")
        records = []
        for j, pair in enumerate(rq):
            if not isinstance(pair, list) or len(pair) != 2:
                raise FileFormatError(
                    f"{path}: queue {i} vehicle {j} must be a [priority, wait] pair"
                )
            pri = _as_int(pair[0], f"queue {i} vehicle {j} priority", path)
            wait = _as_int(pair[1], f"queue {i} vehicle {j} wait", path)
            records.append(VehicleRecord(priority=pri, wait=wait))
        queues.append(tuple(records))
    snap = TrafficSnapshot(tick=tick, queues=tuple(queues))
    spec.validate_snapshot(snap)
    return snap


def save_snapshot(
    s: TrafficSnapshot,
    path: str | Path,
    spec: IntersectionSpec | None = None,
    form: str = "queues",
) -> None:
    """Write a snapshot; the array form needs the spec for its capacity."""
    if form == "queues":
        doc = {
            "tick": s.tick,
            "queues": [[[v.priority, v.wait] for v in q] for q in s.queues],
        }
    elif form == "array":
        if spec is None:
            raise InvalidSpecError("array form needs the intersection spec")
        doc = {"tick": s.tick, "array": encode_snapshot(s, spec).tolist()}
    else:
        raise InvalidSpecError(f"unknown snapshot form {form!r}")
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def format_wait_log(entries: tuple[WaitLogEntry, ...] | list[WaitLogEntry]) -> str:
    """Render wait-log rows as CSV text with a trailing newline."""
    lines = [WAIT_LOG_HEADER]
    for e in entries:
        lines.append(
            f"{e.seed},{e.policy},{e.path},{e.priority},"
            f"{e.enter_tick},{e.exit_tick},{e.wait_ticks}"
        )
    return "\n".join(lines) + "\n"


def write_wait_log(
    entries: tuple[WaitLogEntry, ...] | list[WaitLogEntry], path: str | Path
) -> None:
    """Write the per-vehicle wait log as a CSV file."""
    _write_text(path, format_wait_log(entries))
