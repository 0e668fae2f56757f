"""Intersection model: movements, conflicts, phases, and queue snapshots.

An intersection has A arms labelled clockwise. Every path is a movement
(entry arm, turn) and owns one FIFO vehicle queue of bounded length L.
Two paths conflict when their trajectories cross inside the junction;
a phase (bit vector over paths) is feasible when no two open paths
conflict. A ConflictMatrix stores the conflict graph once, as one
neighbour bit mask per path. Neither phase list scans the 2^P subsets:
the maximal phases are the maximal cliques of the compatibility graph,
and all feasible phases come from a recursion over independent sets
whose work grows with the number found, capped at MAX_FEASIBLE_PHASES.
Both lists are cached on the ConflictMatrix as int masks (`phase_masks`),
each with the incidence matrix that f1 (maximal) and the search
(all-feasible) read; a `Phase` is built only where a caller receives one.
`_set_bits` indexes the set bits of a mask for every module. Queue state
round-trips through a (P, 2, L) integer array: plane 0 holds priorities
front to back, plane 1 the waiting times, and unused slots are zero in
both planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import ceil
from numbers import Real
from typing import TypeVar

import numpy as np

from .errors import (
    ConstraintViolationError,
    DimensionError,
    InvalidGeometryError,
    InvalidSpecError,
    MalformedArrayError,
    TooManyPhasesError,
)

MIN_ARMS = 3
DEFAULT_ARMS = 4
DEFAULT_MAX_QUEUE_LEN = 21
# All-feasible enumeration stops past this many phases: standard(8) has
# 115,967 and fits, standard(9) has 498,175 and does not.
MAX_FEASIBLE_PHASES = 1 << 17


class Turn(str, Enum):
    """Turn direction relative to the entry arm."""

    LEFT = "L"
    STRAIGHT = "S"
    RIGHT = "R"


class DrivingSide(str, Enum):
    LEFT = "left"
    RIGHT = "right"


_E = TypeVar("_E", bound=Enum)


def _as_enum(kind: type[_E], token: object, name: str) -> _E:
    """`token` as a member of the str enum `kind`: a member, or its value.

    Every entry point that takes a Turn, DrivingSide, SimMode or
    PolicyKind converts its token here, so the code behind it can compare
    members by identity. An unknown token raises InvalidSpecError.
    """
    try:
        return kind(token)
    except ValueError:
        expected = ", ".join(m.value for m in kind)
        raise InvalidSpecError(f"unknown {name} {token!r}; expected {expected}") from None


def _is_int(value: object) -> bool:
    """The library's one integer test: exactly `int`, so bools, floats and numpy ints fail."""
    return type(value) is int


def _int_problem(value: object, name: str, low: int) -> str | None:
    """The one rule for an integer count, seed or record field: None for an
    int (`_is_int`) of at least `low`, else the message naming the field.
    `_check_int` raises it; an instance file's validation lists it."""
    if not _is_int(value):
        return f"{name} must be an integer, got {value!r}"
    if value < low:
        return f"{name} must be >= {low}, got {value}"
    return None


def _check_int(value: object, name: str, low: int, error: type[Exception] = InvalidSpecError) -> None:
    """`_int_problem`'s rule, raised as `error`. Every `Phase` and record
    construction runs it, so it asks for the message only on a failure."""
    if not _is_int(value) or value < low:
        raise error(_int_problem(value, name, low))


def _check_bool(value: object, name: str) -> None:
    """The one rule for a flag: exactly a bool, never a value read for its truth."""
    if type(value) is not bool:
        raise InvalidSpecError(f"{name} must be a boolean, got {value!r}")


@dataclass(frozen=True)
class Movement:
    """One traffic path: vehicles entering at entry_arm and turning `turn`."""

    entry_arm: int
    turn: Turn

    def __post_init__(self) -> None:
        object.__setattr__(self, "turn", _as_enum(Turn, self.turn, "turn"))


def exit_arm(movement: Movement, arms: int, side: DrivingSide = DrivingSide.LEFT) -> int:
    """Arm where `movement` leaves the junction, with arms labelled clockwise.

    For left-hand driving a left turn exits the next arm clockwise, straight
    exits two arms over, and a right turn exits the previous arm; the mapping
    is mirrored for right-hand driving.
    """
    side = _as_enum(DrivingSide, side, "driving side")
    _check_int(arms, "arms", MIN_ARMS, InvalidGeometryError)
    _check_int(movement.entry_arm, "entry_arm", 0, InvalidGeometryError)
    if movement.entry_arm >= arms:
        raise InvalidGeometryError(
            f"entry arm {movement.entry_arm} out of range for {arms} arms"
        )
    near, far = (1, arms - 1) if side is DrivingSide.LEFT else (arms - 1, 1)
    offset = {Turn.LEFT: near, Turn.STRAIGHT: 2, Turn.RIGHT: far}[movement.turn]
    return (movement.entry_arm + offset) % arms


def standard_movements(arms: int = DEFAULT_ARMS) -> tuple[Movement, ...]:
    """All (entry, turn) combinations, entry-major, turns in L/S/R order."""
    return tuple(
        Movement(entry, turn) for entry in range(arms) for turn in Turn
    )


_BITS_MAXSIZE = 1 << 16
# mask -> indices of its set bits, shared by every call (see _set_bits)
_bits: dict[int, tuple[int, ...]] = {}


def _set_bits(m: int) -> tuple[int, ...]:
    """Indices of the set bits of mask m, ascending, stored in `_bits`.

    `Phase.open_paths`, `is_feasible_phase` and the solver's search read
    `_bits` first and call this on a miss. The answer depends on m
    alone, not on the call, junction or queue, so one index serves them
    all; keys are ints and values tuples, so no caller can change what
    another reads. It is cleared once it holds `_BITS_MAXSIZE` = 65,536
    entries (about 190 B each by tracemalloc, so about 12 MB at most).
    """
    if len(_bits) >= _BITS_MAXSIZE:
        _bits.clear()
    got = _bits[m] = tuple(i for i in range(m.bit_length()) if m >> i & 1)
    return got


@dataclass(frozen=True)
class Phase:
    """Set of simultaneously open paths, packed into a bit mask of width P."""

    mask: int
    width: int

    def __post_init__(self) -> None:
        _check_int(self.width, "width", 1, DimensionError)
        _check_int(self.mask, "mask", 0, DimensionError)
        if self.mask >= 1 << self.width:
            raise DimensionError(
                f"mask {self.mask:#x} does not fit width {self.width}"
            )

    def is_open(self, path: int) -> bool:
        if not 0 <= path < self.width:
            raise DimensionError(f"path {path} outside range({self.width})")
        return bool(self.mask >> path & 1)

    def open_paths(self) -> tuple[int, ...]:
        got = _bits.get(self.mask)
        return _set_bits(self.mask) if got is None else got

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.open_paths())) + "}"


def _slot(arm: int, entry: bool, side: DrivingSide) -> int:
    # Each arm contributes an exit point and an entry point on the boundary
    # circle; clockwise under left-hand driving the exit point comes first.
    if side is DrivingSide.LEFT:
        return 2 * arm + (1 if entry else 0)
    return 2 * arm + (0 if entry else 1)


def _strictly_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
    # Chords {a,b} and {c,d} on an n-point circle. Precondition: the four
    # endpoints are distinct, as in build_conflict_matrix, where the paths
    # differ in entry arm and in exit arm and an entry slot never equals an
    # exit slot (they differ in parity, see _slot). The chords then cross
    # iff exactly one of c, d lies on the arc a -> b; neither is a.
    def inside(x: int) -> bool:
        return (x - a) % n < (b - a) % n

    return inside(c) != inside(d)


class ConflictMatrix:
    """Symmetric boolean P x P matrix of pairwise path conflicts.

    Instances are immutable values that store one neighbour bit mask per
    path, which every accessor reads, and the mask of the paths with no
    neighbour. Derived structures (the maximal and
    all-feasible phase lists as int masks, one incidence matrix per list,
    the clique cover) are computed lazily, at most once per matrix, and
    cached; nothing is kept per phase. No `Phase` is cached:
    `maximal_phases()` builds fresh ones from the masks.
    """

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=bool)
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise DimensionError(f"conflict matrix must be square, got {data.shape}")
        if data.shape[0] == 0:
            raise DimensionError("conflict matrix must cover at least one path")
        if data.diagonal().any():
            raise InvalidSpecError("a path cannot conflict with itself")
        if not np.array_equal(data, data.T):
            raise InvalidSpecError("conflict matrix must be symmetric")
        self._neighbors = tuple(
            sum(1 << j for j in np.flatnonzero(row).tolist()) for row in data
        )
        self._masks: dict[bool, tuple[int, ...]] = {}  # keyed by maximal_only
        # paths that conflict with nothing: the AND of the maximal masks
        self._free = sum(1 << i for i, m in enumerate(self._neighbors) if not m)
        self._incidence: dict[bool, np.ndarray] = {}  # keyed by maximal_only
        self._cliques: tuple[tuple[int, ...], ...] | None = None

    @property
    def paths(self) -> int:
        return len(self._neighbors)

    def conflicts(self, i: int, j: int) -> bool:
        p = self.paths
        if not (0 <= i < p and 0 <= j < p):
            raise DimensionError(f"path pair ({i}, {j}) outside range({p})")
        return bool(self._neighbors[i] >> j & 1)

    def as_array(self) -> np.ndarray:
        """A fresh P x P boolean array of the conflicts."""
        p = self.paths
        return np.array([[m >> j & 1 for j in range(p)] for m in self._neighbors], dtype=bool)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All conflicting pairs (i, j) with i < j, in row-major order."""
        p = self.paths
        return tuple((i, j) for i in range(p) for j in range(i + 1, p) if self.conflicts(i, j))

    def neighbor_masks(self) -> tuple[int, ...]:
        """For each path, the bit mask of paths it conflicts with."""
        return self._neighbors

    def phase_masks(self, maximal_only: bool) -> tuple[int, ...]:
        """Open-path masks of one phase list, ascending, built once.

        With `maximal_only`, the phases no path can be added to; else every
        nonempty feasible phase, which raises TooManyPhasesError once more
        than MAX_FEASIBLE_PHASES are found.
        """
        got = self._masks.get(maximal_only)
        if got is None:
            build = _maximal_independent_sets if maximal_only else _independent_sets
            got = self._masks[maximal_only] = tuple(build(self._neighbors))
        return got

    def maximal_phases(self) -> tuple[Phase, ...]:
        """A fresh tuple of the phases no path can be added to, ascending."""
        return tuple(Phase(m, self.paths) for m in self.phase_masks(True))

    def clique_cover(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cliques of the conflict graph, each of two or more paths.

        Every feasible phase opens at most one path of each clique. The
        cover is greedy by degree: seed a clique with the uncovered path of
        most conflicts that still conflicts with an uncovered path, then
        add the uncovered path of most conflicts that conflicts with every
        member, until none is left; ties go to the lowest index. Paths left
        over stay singletons and are not listed. Each clique is ascending.
        """
        if self._cliques is None:
            self._cliques = _greedy_clique_cover(self.neighbor_masks())
        return self._cliques

    def incidence(self, maximal_only: bool) -> np.ndarray:
        """Read-only (phases x paths) int64 0/1 matrix of one phase list.

        Row j marks the open paths of phase_masks(maximal_only)[j], so
        `incidence @ v` sums v over each phase's open paths in one product.
        The rows are unpacked from each mask's little-endian bytes, which
        works for any number of paths. At 8 bytes per path per phase (about
        22 MB for standard(8)'s 115,967 feasible phases) it is built on
        first call, not with the list.
        """
        got = self._incidence.get(maximal_only)
        if got is None:
            masks = self.phase_masks(maximal_only)
            width = (self.paths + 7) // 8
            packed = np.frombuffer(
                b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8
            ).reshape(len(masks), width)
            bits = np.unpackbits(packed, axis=1, count=self.paths, bitorder="little")
            got = self._incidence[maximal_only] = bits.astype(np.int64)
            got.setflags(write=False)
        return got

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConflictMatrix) and self._neighbors == other._neighbors

    def __hash__(self) -> int:
        return hash(self._neighbors)

    def __repr__(self) -> str:
        return f"ConflictMatrix(paths={self.paths}, pairs={len(self.pairs())})"


def _path_exits(arms: int, paths: tuple[Movement, ...], side: DrivingSide) -> list[int]:
    """Each path's exit arm; rejects a repeated path or an entry arm out of range."""
    seen = set()
    for m in paths:
        if m in seen:
            raise InvalidSpecError(f"duplicate path {m}")
        seen.add(m)
    return [exit_arm(m, arms, side) for m in paths]


def build_conflict_matrix(
    arms: int,
    paths: tuple[Movement, ...],
    side: DrivingSide = DrivingSide.LEFT,
    merge_conflicts: bool = False,
) -> ConflictMatrix:
    """Derive the conflict matrix from junction geometry.

    Each path is drawn as a chord of the junction boundary from its entry
    point to its exit point (every arm has one entry and one exit point,
    mirrored by driving side). Two paths conflict when their chords
    strictly cross. Paths sharing an entry arm never conflict; paths
    merging into the same exit arm conflict only when `merge_conflicts`
    is set.
    """
    side = _as_enum(DrivingSide, side, "driving side")
    _check_bool(merge_conflicts, "merge_conflicts")
    n = len(paths)
    exits = _path_exits(arms, paths, side)
    data = np.zeros((n, n), dtype=bool)
    circle = 2 * arms
    for i in range(n):
        for j in range(i + 1, n):
            a, b = paths[i], paths[j]
            if a.entry_arm == b.entry_arm:
                continue
            if exits[i] == exits[j]:
                data[i, j] = data[j, i] = merge_conflicts
                continue
            pts = (
                _slot(a.entry_arm, True, side),
                _slot(exits[i], False, side),
                _slot(b.entry_arm, True, side),
                _slot(exits[j], False, side),
            )
            data[i, j] = data[j, i] = _strictly_cross(*pts, circle)
    return ConflictMatrix(data)


def is_feasible_phase(phase: Phase, conflicts: ConflictMatrix) -> bool:
    """True when no two open paths conflict, read from the neighbour masks."""
    if phase.width != conflicts.paths:
        raise DimensionError(f"phase width {phase.width} != matrix size {conflicts.paths}")
    neighbors = conflicts.neighbor_masks()
    mask = phase.mask
    for i in phase.open_paths():
        if neighbors[i] & mask:
            return False
    return True


def _check_phase(phase: Phase, conflicts: ConflictMatrix) -> None:
    """The one rule for a stepped phase or a plan's `prev_phase`: the
    matrix's width (DimensionError) and no conflict (ConstraintViolationError)."""
    if not is_feasible_phase(phase, conflicts):
        raise ConstraintViolationError(f"phase {phase} opens conflicting paths")


def _greedy_clique_cover(neighbors: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Disjoint cliques of two or more paths, greedy by degree (see clique_cover)."""
    # path order: most conflicts first, then lowest index
    order = sorted(range(len(neighbors)), key=lambda i: (-neighbors[i].bit_count(), i))
    free = (1 << len(neighbors)) - 1
    cliques = []
    for seed in order:
        common = neighbors[seed] & free
        if not free >> seed & 1 or not common:
            continue
        members = [seed]
        while common:
            pick = next(i for i in order if common >> i & 1)
            members.append(pick)
            common &= neighbors[pick]
        for i in members:
            free &= ~(1 << i)
        cliques.append(tuple(sorted(members)))
    return tuple(cliques)


def _independent_sets(neighbors: tuple[int, ...]) -> list[int]:
    """Masks of all nonempty independent sets, ascending.

    Each step adds the lowest path still free and drops that path's
    conflicts (and every lower path) from the free set, so every set is
    reached exactly once and the work grows with the number of sets.
    Raises TooManyPhasesError as soon as more than MAX_FEASIBLE_PHASES
    are found.
    """
    out: list[int] = []

    def grow(mask: int, free: int) -> None:
        while free:
            low = free & -free
            free ^= low
            grown = mask | low
            out.append(grown)
            if len(out) > MAX_FEASIBLE_PHASES:
                raise TooManyPhasesError(
                    f"more than {MAX_FEASIBLE_PHASES} feasible phases on {len(neighbors)} paths; "
                    "list maximal phases instead"
                )
            grow(grown, free & ~neighbors[low.bit_length() - 1])

    grow(0, (1 << len(neighbors)) - 1)
    out.sort()
    return out


def _maximal_independent_sets(neighbors: tuple[int, ...]) -> list[int]:
    """Masks of all maximal independent sets, ascending.

    They are the maximal cliques of the compatibility graph, found by
    Bron-Kerbosch with Tomita pivoting (Bron & Kerbosch 1973; Tomita,
    Tanaka & Takahashi 2006). Branching only on the candidates that are
    not compatible with the pivot bounds the worst case by O(3^(P/3));
    on the standard junctions the work tracks the number of cliques.
    """
    full = (1 << len(neighbors)) - 1
    compatible = [full & ~n & ~(1 << i) for i, n in enumerate(neighbors)]
    out: list[int] = []

    def expand(clique: int, cand: int, excluded: int) -> None:
        if not cand:
            if not excluded:
                out.append(clique)
            return
        # pivot: the vertex compatible with the most remaining candidates
        pool = cand | excluded
        best = -1
        while pool:
            low = pool & -pool
            pool ^= low
            u = low.bit_length() - 1
            reach = (cand & compatible[u]).bit_count()
            if reach > best:
                best, pivot = reach, u
        branch = cand & ~compatible[pivot]
        while branch:
            low = branch & -branch
            branch ^= low
            v = low.bit_length() - 1
            expand(clique | low, cand & compatible[v], excluded & compatible[v])
            cand ^= low
            excluded |= low

    expand(0, full, 0)
    out.sort()
    return out


def enumerate_feasible_phases(
    conflicts: ConflictMatrix, maximal_only: bool = False
) -> list[Phase]:
    """All nonempty feasible phases in ascending bit-vector order.

    With `maximal_only`, only phases to which no further path can be
    added. Returns a fresh list of `Phase` objects built from the
    matrix's cached `phase_masks`; the all-feasible list raises
    TooManyPhasesError past MAX_FEASIBLE_PHASES phases.
    """
    return [Phase(m, conflicts.paths) for m in conflicts.phase_masks(maximal_only)]


class _Aging:
    __slots__ = ("_older",)  # the record one tick older, once built; not a field


@dataclass(frozen=True)
class VehicleRecord(_Aging):
    """One queued vehicle: its priority class and accumulated waiting ticks.

    Records are shared immutable values; `step` ages one into the successor
    stored on it (`_older_than`). Pickles and copies carry the fields only.
    """

    priority: int
    wait: int = 0

    def __post_init__(self) -> None:
        _check_int(self.priority, "priority", 1)
        _check_int(self.wait, "wait", 0)

    def __reduce__(self) -> tuple[type, tuple[int, int]]:
        return VehicleRecord, (self.priority, self.wait)


def _older_than(v: VehicleRecord) -> VehicleRecord:
    """The record (priority, wait + 1) that `v` ages into: built on the
    first call and stored on `v`, the same instance on every later one."""
    older = getattr(v, "_older", None)
    if older is None:
        older = VehicleRecord(v.priority, v.wait + 1)
        object.__setattr__(v, "_older", older)
    return older


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable queue state of every path at one tick."""

    tick: int
    queues: tuple[tuple[VehicleRecord, ...], ...]

    @property
    def paths(self) -> int:
        return len(self.queues)

    def is_empty(self) -> bool:
        return not any(self.queues)


def _check_intensity(intensity: float) -> None:
    """The one rule for a load level: a real number, not a bool, in [0, 1],
    which nan also fails."""
    if isinstance(intensity, bool) or not isinstance(intensity, Real):
        raise InvalidSpecError(f"intensity must be a real number, got {intensity!r}")
    if not 0.0 <= intensity <= 1.0:
        raise InvalidSpecError(f"intensity must be in [0, 1], got {intensity}")


@dataclass(frozen=True)
class IntersectionSpec:
    """Static description of one junction: geometry, paths, and conflicts."""

    arms: int
    paths: tuple[Movement, ...]
    max_queue_len: int
    driving_side: DrivingSide = DrivingSide.LEFT
    merge_conflicts: bool = False
    conflicts: ConflictMatrix = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        side = _as_enum(DrivingSide, self.driving_side, "driving side")
        object.__setattr__(self, "driving_side", side)
        _check_int(self.arms, "arms", MIN_ARMS, InvalidGeometryError)
        if not self.paths:
            raise InvalidSpecError("at least one path required")
        _check_int(self.max_queue_len, "max_queue_len", 1)
        _path_exits(self.arms, self.paths, self.driving_side)
        _check_bool(self.merge_conflicts, "merge_conflicts")
        if self.conflicts is None:
            built = build_conflict_matrix(self.arms, self.paths, side, self.merge_conflicts)
            object.__setattr__(self, "conflicts", built)
        if self.conflicts.paths != len(self.paths):
            raise DimensionError(
                f"conflict matrix covers {self.conflicts.paths} paths, "
                f"instance has {len(self.paths)}"
            )

    @classmethod
    def standard(
        cls,
        arms: int = DEFAULT_ARMS,
        max_queue_len: int = DEFAULT_MAX_QUEUE_LEN,
        driving_side: DrivingSide = DrivingSide.LEFT,
        merge_conflicts: bool = False,
    ) -> "IntersectionSpec":
        """The default junction: every (entry, turn) movement present."""
        return cls(
            arms=arms,
            paths=standard_movements(arms),
            max_queue_len=max_queue_len,
            driving_side=driving_side,
            merge_conflicts=merge_conflicts,
        )

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def all_closed(self) -> Phase:
        return Phase(0, self.num_paths)

    def validate_snapshot(self, s: TrafficSnapshot) -> None:
        _check_int(s.tick, "tick", 0)
        if s.paths != self.num_paths:
            raise DimensionError(
                f"snapshot has {s.paths} queues, instance has {self.num_paths}"
            )
        if max(map(len, s.queues)) > self.max_queue_len:
            i, q = next((i, q) for i, q in enumerate(s.queues) if len(q) > self.max_queue_len)
            raise DimensionError(
                f"queue {i} holds {len(q)} vehicles, limit {self.max_queue_len}"
            )

    def fill_count(self, intensity: float) -> int:
        """Seeded vehicles per path for a load level in [0, 1]."""
        _check_intensity(intensity)
        # round away float error first: 0.28 * 25 is 7.000000000000001
        return ceil(round(intensity * self.max_queue_len, 9))


def encode_snapshot(s: TrafficSnapshot, spec: IntersectionSpec) -> np.ndarray:
    """Pack queues into a (P, 2, L) int array, zero-padded at the back."""
    spec.validate_snapshot(s)
    out = np.zeros((spec.num_paths, 2, spec.max_queue_len), dtype=np.int64)
    for i, q in enumerate(s.queues):
        for j, v in enumerate(q):
            out[i, 0, j] = v.priority
            out[i, 1, j] = v.wait
    return out


def decode_snapshot(
    array: np.ndarray, spec: IntersectionSpec, tick: int = 0
) -> TrafficSnapshot:
    """Rebuild a snapshot from its (P, 2, L) array form.

    Rejects arrays that do not hold integers (a float, bool or object
    array would be truncated or cast) and arrays whose zero padding is
    broken: a zero-priority slot in front of a nonzero one, a wait on an
    empty slot, or negative entries. The rebuilt snapshot passes
    `spec.validate_snapshot`, which also refuses a negative tick.
    """
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.integer):
        raise MalformedArrayError(f"queue array must hold integers, got dtype {array.dtype}")
    expected = (spec.num_paths, 2, spec.max_queue_len)
    if array.shape != expected:
        raise DimensionError(f"expected array shape {expected}, got {array.shape}")
    if (array < 0).any():
        raise MalformedArrayError("negative entries in queue array")
    queues = []
    for i in range(spec.num_paths):
        pri = array[i, 0]
        wait = array[i, 1]
        n = int(np.count_nonzero(pri))
        if (pri[:n] == 0).any():
            raise MalformedArrayError(f"queue {i}: empty slot before an occupied one")
        if (wait[n:] != 0).any():
            raise MalformedArrayError(f"queue {i}: wait recorded on an empty slot")
        queues.append(
            tuple(
                VehicleRecord(priority=int(pri[j]), wait=int(wait[j]))
                for j in range(n)
            )
        )
    snap = TrafficSnapshot(tick=tick, queues=tuple(queues))
    spec.validate_snapshot(snap)
    return snap
