"""Constraint-based traffic signal scheduling for a single junction.

The package models an intersection as per-path vehicle queues with
priorities and waiting times, derives which signal phases may be shown
together from a geometric conflict test, and plans signal schedules by
exact branch-and-bound search over a receding horizon. A seeded
simulator and two classical baselines support like-for-like delay
comparisons across load levels.
"""

from .dynamics import DynamicsConfig, StepOutcome, initial_green_ages, rollout_cost, step
from .errors import (
    ConstraintViolationError,
    DimensionError,
    FileFormatError,
    GreenlightError,
    InvalidGeometryError,
    InvalidSpecError,
    MalformedArrayError,
    OracleTooLargeError,
    TooManyPhasesError,
)
from .fileio import (
    format_wait_log,
    load_instance,
    load_snapshot,
    save_instance,
    save_snapshot,
    write_wait_log,
)
from .model import (
    DEFAULT_ARMS,
    DEFAULT_MAX_QUEUE_LEN,
    MAX_FEASIBLE_PHASES,
    MIN_ARMS,
    ConflictMatrix,
    DrivingSide,
    IntersectionSpec,
    Movement,
    Phase,
    TrafficSnapshot,
    Turn,
    VehicleRecord,
    build_conflict_matrix,
    decode_snapshot,
    encode_snapshot,
    enumerate_feasible_phases,
    exit_arm,
    is_feasible_phase,
    standard_movements,
)
from .policies import (
    ControllerState,
    PolicyKind,
    decide_f1,
    decide_f2,
    decide_horizon_opt,
)
from .simulator import (
    PRIORITY_CLASSES,
    TICK_CAP,
    EpisodeStats,
    SimConfig,
    SimMode,
    WaitLogEntry,
    append_arrivals,
    generate_arrivals,
    run_episode,
    seed_initial_queues,
)
from .solver import (
    SolverConfig,
    Solution,
    candidate_phases,
    exhaustive_oracle,
    optimize_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ConflictMatrix",
    "ConstraintViolationError",
    "ControllerState",
    "DEFAULT_ARMS",
    "DEFAULT_MAX_QUEUE_LEN",
    "DimensionError",
    "DrivingSide",
    "DynamicsConfig",
    "EpisodeStats",
    "FileFormatError",
    "GreenlightError",
    "IntersectionSpec",
    "InvalidGeometryError",
    "InvalidSpecError",
    "MAX_FEASIBLE_PHASES",
    "MIN_ARMS",
    "MalformedArrayError",
    "Movement",
    "OracleTooLargeError",
    "PRIORITY_CLASSES",
    "Phase",
    "PolicyKind",
    "SimConfig",
    "SimMode",
    "Solution",
    "SolverConfig",
    "StepOutcome",
    "TICK_CAP",
    "TooManyPhasesError",
    "TrafficSnapshot",
    "Turn",
    "VehicleRecord",
    "WaitLogEntry",
    "append_arrivals",
    "build_conflict_matrix",
    "candidate_phases",
    "decide_f1",
    "decide_f2",
    "decide_horizon_opt",
    "decode_snapshot",
    "encode_snapshot",
    "enumerate_feasible_phases",
    "exhaustive_oracle",
    "exit_arm",
    "format_wait_log",
    "generate_arrivals",
    "initial_green_ages",
    "is_feasible_phase",
    "load_instance",
    "load_snapshot",
    "optimize_schedule",
    "rollout_cost",
    "run_episode",
    "save_instance",
    "save_snapshot",
    "seed_initial_queues",
    "standard_movements",
    "step",
    "write_wait_log",
]
