"""Intersection model: movements, conflicts, phases, and queue snapshots.

An intersection has A arms labelled clockwise. Every path is a movement
(entry arm, turn) and owns one FIFO vehicle queue of bounded length L.
Two paths conflict when their trajectories cross inside the junction;
a phase (bit vector over paths) is feasible when no two open paths
conflict. Neither phase list scans the 2^P subsets: the maximal phases
are the maximal cliques of the compatibility graph, and all feasible
phases come from a recursion over independent sets whose work grows
with the number found, capped at MAX_FEASIBLE_PHASES. Both lists are
cached on the ConflictMatrix. One bounded index from a mask to its set
bits (`_set_bits`) serves `Phase.open_paths`, `is_feasible_phase` and
the solver. Queue state round-trips through a (P, 2, L) integer array:
plane 0 holds priorities front to back, plane 1 the waiting times, and
unused slots are zero in both planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import ceil

import numpy as np

from .errors import (
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


@dataclass(frozen=True)
class Movement:
    """One traffic path: vehicles entering at entry_arm and turning `turn`."""

    entry_arm: int
    turn: Turn


def exit_arm(movement: Movement, arms: int, side: DrivingSide = DrivingSide.LEFT) -> int:
    """Arm where `movement` leaves the junction, with arms labelled clockwise.

    For left-hand driving a left turn exits the next arm clockwise, straight
    exits two arms over, and a right turn exits the previous arm; the mapping
    is mirrored for right-hand driving.
    """
    if arms < MIN_ARMS:
        raise InvalidGeometryError(f"need at least {MIN_ARMS} arms, got {arms}")
    if not 0 <= movement.entry_arm < arms:
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

    The answer depends on m alone, so one index serves every call,
    junction and queue. It is cleared once it holds `_BITS_MAXSIZE`
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
        if self.width <= 0:
            raise DimensionError("phase width must be positive")
        if not 0 <= self.mask < (1 << self.width):
            raise DimensionError(
                f"mask {self.mask:#x} does not fit width {self.width}"
            )

    def is_open(self, path: int) -> bool:
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

    Instances are immutable values; derived structures (per-path conflict
    bit masks, the maximal-phase list and its open paths, the all-feasible
    list and its parent links, the clique cover) are computed lazily, at
    most once per matrix, and cached, as are the masks
    `is_feasible_phase` has accepted.
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
        self._data = data
        self._data.setflags(write=False)
        self._neighbor_masks: tuple[int, ...] | None = None
        self._maximal: tuple[Phase, ...] | None = None
        self._maximal_paths: tuple[tuple[int, ...], ...] | None = None
        self._feasible: tuple[Phase, ...] | None = None
        self._links: tuple[tuple[int, int], ...] | None = None
        self._cliques: tuple[tuple[int, ...], ...] | None = None
        self._proven_feasible: set[int] = set()  # masks is_feasible_phase accepted

    @property
    def paths(self) -> int:
        return self._data.shape[0]

    def conflicts(self, i: int, j: int) -> bool:
        return bool(self._data[i, j])

    def as_array(self) -> np.ndarray:
        return self._data

    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All conflicting pairs (i, j) with i < j."""
        rows, cols = np.nonzero(np.triu(self._data))
        return tuple(zip(rows.tolist(), cols.tolist()))

    def neighbor_masks(self) -> tuple[int, ...]:
        """For each path, the bit mask of paths it conflicts with."""
        if self._neighbor_masks is None:
            masks = []
            for i in range(self.paths):
                m = 0
                for j in np.nonzero(self._data[i])[0].tolist():
                    m |= 1 << j
                masks.append(m)
            self._neighbor_masks = tuple(masks)
        return self._neighbor_masks

    def maximal_phases(self) -> tuple[Phase, ...]:
        """Phases no path can be added to, in ascending mask order."""
        if self._maximal is None:
            masks = _maximal_independent_sets(self.neighbor_masks())
            self._maximal = tuple(Phase(m, self.paths) for m in masks)
        return self._maximal

    def maximal_open_paths(self) -> tuple[tuple[int, ...], ...]:
        """Each maximal phase's open paths, aligned with maximal_phases()."""
        if self._maximal_paths is None:
            self._maximal_paths = tuple(ph.open_paths() for ph in self.maximal_phases())
        return self._maximal_paths

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

    def feasible_phases(self) -> tuple[Phase, ...]:
        """All nonempty feasible phases in ascending mask order.

        Raises TooManyPhasesError once more than MAX_FEASIBLE_PHASES are
        found.
        """
        if self._feasible is None:
            masks = _independent_sets(self.neighbor_masks())
            self._feasible = tuple(Phase(m, self.paths) for m in masks)
        return self._feasible

    def feasible_links(self) -> tuple[tuple[int, int], ...]:
        """Each all-feasible phase's parent, aligned with feasible_phases().

        Entry j is (parent, low): low is the lowest path phase j opens,
        and parent is the position in feasible_phases() of phase j without
        low, or -1 when that leaves the empty set. The list is downward
        closed, so the parent is in it, and ascending, so parent < j: a
        phase's open paths are its parent's plus low (the parent link of
        reverse search, Avis & Fukuda 1996). Built on first call, not with
        the list.
        """
        if self._links is None:
            phases = self.feasible_phases()
            at = {ph.mask: j for j, ph in enumerate(phases)}
            at[0] = -1
            links = []
            for ph in phases:
                low = ph.mask & -ph.mask
                links.append((at[ph.mask ^ low], low.bit_length() - 1))
            self._links = tuple(links)
        return self._links

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConflictMatrix) and np.array_equal(
            self._data, other._data
        )

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


def _check_phase_width(phase: Phase, paths: int) -> None:
    """The one width rule for a phase applied to a junction of `paths` paths."""
    if phase.width != paths:
        raise DimensionError(f"phase width {phase.width} != matrix size {paths}")


def is_feasible_phase(phase: Phase, conflicts: ConflictMatrix) -> bool:
    """True when no two open paths conflict; accepted masks are remembered on the matrix."""
    _check_phase_width(phase, conflicts.paths)
    mask = phase.mask
    if mask in conflicts._proven_feasible:
        return True
    neighbors = conflicts.neighbor_masks()
    for i in phase.open_paths():
        if neighbors[i] & mask:
            return False
    conflicts._proven_feasible.add(mask)
    return True


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
    added. Returns a fresh list copied from the matrix's cached
    `maximal_phases()` or `feasible_phases()`; the latter raises
    TooManyPhasesError past MAX_FEASIBLE_PHASES phases.
    """
    if maximal_only:
        return list(conflicts.maximal_phases())
    return list(conflicts.feasible_phases())


@dataclass(frozen=True)
class VehicleRecord:
    """One queued vehicle: its priority class and accumulated waiting ticks."""

    priority: int
    wait: int = 0

    def __post_init__(self) -> None:
        if self.priority < 1:
            raise InvalidSpecError(f"priority must be >= 1, got {self.priority}")
        if self.wait < 0:
            raise InvalidSpecError(f"wait must be >= 0, got {self.wait}")


@dataclass(frozen=True)
class TrafficSnapshot:
    """Immutable queue state of every path at one tick."""

    tick: int
    queues: tuple[tuple[VehicleRecord, ...], ...]

    @property
    def paths(self) -> int:
        return len(self.queues)

    def queue_lengths(self) -> tuple[int, ...]:
        return tuple(len(q) for q in self.queues)

    def total_vehicles(self) -> int:
        return sum(len(q) for q in self.queues)

    def is_empty(self) -> bool:
        return all(not q for q in self.queues)


def _check_intensity(intensity: float) -> None:
    """The one range rule for a load level: [0, 1], which nan also fails."""
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
        if self.arms < MIN_ARMS:
            raise InvalidGeometryError(f"need at least {MIN_ARMS} arms")
        if not self.paths:
            raise InvalidSpecError("at least one path required")
        if self.max_queue_len < 1:
            raise InvalidSpecError("max_queue_len must be >= 1")
        _path_exits(self.arms, self.paths, self.driving_side)
        if self.conflicts is None:
            object.__setattr__(
                self,
                "conflicts",
                build_conflict_matrix(
                    self.arms, self.paths, self.driving_side, self.merge_conflicts
                ),
            )
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

    def empty_snapshot(self, tick: int = 0) -> TrafficSnapshot:
        return TrafficSnapshot(tick=tick, queues=tuple(() for _ in self.paths))

    def all_closed(self) -> Phase:
        return Phase(0, self.num_paths)

    def validate_snapshot(self, s: TrafficSnapshot) -> None:
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

    Rejects arrays whose zero padding is broken: a zero-priority slot in
    front of a nonzero one, a wait on an empty slot, or negative entries.
    """
    array = np.asarray(array)
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
    return TrafficSnapshot(tick=tick, queues=tuple(queues))
