"""Signal controllers: the receding-horizon optimizer and two baselines.

All three emit one feasible phase per decision point and are compared
like-for-like: a decision is taken every `phase_ticks` ticks from a
fresh snapshot. F1 greedily opens the compatible phase covering the
most queued vehicles; F2 rotates through the junction's maximal phases
blind to queue contents; the horizon controller plans k phases ahead
and applies only the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import ConflictMatrix, IntersectionSpec, Phase, TrafficSnapshot
from .solver import SolverConfig, optimize_schedule


class PolicyKind(str, Enum):
    """Controller selector; values double as CLI and CSV tokens."""

    HORIZON = "horizon"
    F1 = "f1"
    F2 = "f2"


@dataclass
class ControllerState:
    """The horizon controller's context: the phase applied in the last
    block, all red before the first."""

    prev_phase: Phase


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
    # a matrix has a path, hence a maximal phase, whose cover >= 0 sets best
    best_cover = -1
    for ph, open_paths in zip(conflicts.maximal_phases(), conflicts.maximal_open_paths()):
        cover = 0
        for i in open_paths:
            cover += counts[i]
        if cover > best_cover:
            best_cover = cover
            best = ph
    return best


def decide_f2(tick: int, conflicts: ConflictMatrix, phase_ticks: int) -> Phase:
    """Fixed-time baseline: rotate the maximal phases, one per block.

    One revolution opens every path: a single path is a feasible phase,
    and every feasible phase lies inside some maximal one.
    """
    cycle = conflicts.maximal_phases()
    return cycle[(tick // phase_ticks) % len(cycle)]
