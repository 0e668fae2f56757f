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

import numpy as np

from .errors import DimensionError
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

    Scores every maximal feasible phase by the queued vehicles over its
    open paths in one product with the matrix's cached maximal incidence
    (`ConflictMatrix.incidence`) and keeps the first maximum, so ties go
    to the lexicographically smallest phase. A snapshot of another width
    than the matrix raises DimensionError.
    """
    if s.paths != conflicts.paths:
        raise DimensionError(f"snapshot has {s.paths} queues, matrix has {conflicts.paths} paths")
    cover = conflicts.incidence(True) @ np.array([len(q) for q in s.queues])
    return Phase(conflicts.phase_masks(True)[int(cover.argmax())], conflicts.paths)


def decide_f2(tick: int, conflicts: ConflictMatrix, phase_ticks: int) -> Phase:
    """Fixed-time baseline: rotate the maximal phases, one per block.

    One revolution opens every path: a single path is a feasible phase,
    and every feasible phase lies inside some maximal one.
    """
    cycle = conflicts.phase_masks(True)
    return Phase(cycle[(tick // phase_ticks) % len(cycle)], conflicts.paths)
