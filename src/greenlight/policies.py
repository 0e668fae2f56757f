"""Signal controllers: the receding-horizon optimizer and two baselines.

All three emit one feasible phase per decision point and are compared
like-for-like: a decision is taken every `phase_ticks` ticks from a
fresh snapshot. F1 greedily opens the compatible phase covering the
most queued vehicles; F2 rotates through a fixed cycle blind to queue
contents; the horizon controller plans k phases ahead and applies only
the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidCycleError
from .model import ConflictMatrix, IntersectionSpec, Phase, TrafficSnapshot
from .solver import SolverConfig, optimize_schedule


class PolicyKind(str, Enum):
    """Controller selector; values double as CLI and CSV tokens."""

    HORIZON = "horizon"
    F1 = "f1"
    F2 = "f2"


@dataclass
class ControllerState:
    """Mutable per-episode controller context.

    prev_phase is the phase applied in the last block (all red before the
    first). f2_cycle is used by F2 only; a nonempty cycle must open every
    path at least once, checked once here rather than on every decision.
    """

    prev_phase: Phase
    f2_cycle: tuple[Phase, ...] = ()

    def __post_init__(self) -> None:
        if not self.f2_cycle:
            return
        width = self.f2_cycle[0].width
        covered = 0
        for ph in self.f2_cycle:
            covered |= ph.mask
        if covered != (1 << width) - 1:
            missing = [i for i in range(width) if not covered >> i & 1]
            raise InvalidCycleError(f"f2 cycle never opens paths {missing}")


def default_f2_cycle(spec: IntersectionSpec) -> tuple[Phase, ...]:
    """Fixed-time cycle: every maximal phase in ascending bit-vector order."""
    return spec.conflicts.maximal_phases()


def make_controller_state(spec: IntersectionSpec, policy: PolicyKind) -> ControllerState:
    """Fresh controller context: everything red."""
    cycle = default_f2_cycle(spec) if policy is PolicyKind.F2 else ()
    return ControllerState(prev_phase=spec.all_closed(), f2_cycle=cycle)


def decide_horizon_opt(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    st: ControllerState,
    cfg: SolverConfig,
) -> Phase:
    """Plan k phases from the fresh snapshot, apply only the first."""
    return optimize_schedule(spec, s, st.prev_phase, cfg).schedule[0]


def decide_f1(s: TrafficSnapshot, conflicts: ConflictMatrix) -> Phase:
    """Congestion-greedy baseline: open the most queued vehicles at once.

    Scans the maximal feasible phases in ascending bit-vector order and
    keeps the first one maximizing total queued vehicles over its open
    paths, so ties go to the lexicographically smallest phase. The open
    paths of each maximal phase come from the matrix's cache.
    """
    counts = [len(q) for q in s.queues]
    best: Phase | None = None
    best_cover = -1
    for ph, open_paths in zip(conflicts.maximal_phases(), conflicts.maximal_open_paths()):
        cover = 0
        for i in open_paths:
            cover += counts[i]
        if cover > best_cover:
            best_cover = cover
            best = ph
    if best is None:
        raise InvalidCycleError("no maximal phases available")
    return best


def decide_f2(tick: int, st: ControllerState, phase_ticks: int) -> Phase:
    """Fixed-time baseline: rotate the cycle, one phase per block.

    The cycle's path coverage was checked when the state was built.
    """
    cycle = st.f2_cycle
    if not cycle:
        raise InvalidCycleError("f2 cycle is empty")
    return cycle[(tick // phase_ticks) % len(cycle)]
