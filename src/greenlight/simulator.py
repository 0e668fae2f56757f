"""Stochastic episode harness: seeded queues, arrivals, and delay stats.

All randomness in an episode flows from one seeded PCG64 generator in a
documented draw order: initial queues first (paths ascending, vehicles
front to back), then per tick one Bernoulli draw per path ascending plus
one priority draw per realized arrival. Identical configs therefore give
bit-identical episodes on any platform. `run_episode` reads its arrival
draws from blocks of one vector draw each; numpy yields the same doubles
in the same order as scalar draws, so the stream is unchanged.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import numpy as np

from .dynamics import initial_green_ages, step
from .errors import InvalidSpecError
from .model import IntersectionSpec, TrafficSnapshot, VehicleRecord, _as_enum, _check_int, _check_intensity
from .policies import (
    ControllerState,
    PolicyKind,
    decide_f1,
    decide_f2,
    decide_horizon_opt,
)
from .solver import SolverConfig

PRIORITY_CLASSES: tuple[tuple[int, float], ...] = ((10, 0.02), (3, 0.08), (1, 0.90))
ARRIVAL_RATE_SCALE = 0.3
TICK_SECONDS = 5.0
TICK_CAP = 100_000
_DRAW_BLOCK = 4096
# each class's one wait-0 record, shared by its seeded vehicles and arrivals:
# the root of the chain of successors that `step` ages them along
_CLASS_RECORD = {weight: VehicleRecord(weight) for weight, _ in PRIORITY_CLASSES}


class SimMode(str, Enum):
    """Episode shape: drain a seeded load, or run a fixed-length arrival process."""

    DRAIN = "drain"
    STEADY = "steady"


@dataclass(frozen=True)
class SimConfig:
    """The traffic of one episode: junction, load, seed, shape and length.

    Arrivals and priorities follow the module constants
    ARRIVAL_RATE_SCALE and PRIORITY_CLASSES; the timing an episode runs
    under comes from the SolverConfig passed to `run_episode`.
    """

    spec: IntersectionSpec
    intensity: float
    seed: int = 0
    mode: SimMode = SimMode.DRAIN
    episode_ticks: int = 500

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", _as_enum(SimMode, self.mode, "mode"))
        _check_intensity(self.intensity)
        _check_int(self.seed, "seed", 0)
        _check_int(self.episode_ticks, "episode_ticks", 0)


@dataclass(frozen=True)
class EpisodeStats:
    """Delay statistics over an episode's departed vehicles.

    mean_wait and std_wait are unweighted over departures (std is the
    population standard deviation); both are 0.0 when nothing departed.
    mean_wait_seconds is mean_wait times TICK_SECONDS, for reporting.
    starvation_events counts vehicles, departed or still queued at the
    end, whose wait exceeded the starvation threshold. terminated means
    the episode ended by its own rule rather than the safety cap.
    """

    mean_wait: float
    mean_wait_seconds: float
    std_wait: float
    max_wait: int
    throughput: int
    rejected_arrivals: int
    starvation_events: int
    terminated: bool
    ticks: int


@dataclass(frozen=True)
class WaitLogEntry:
    """One departed vehicle; wait_ticks always equals exit_tick - enter_tick."""

    seed: int
    policy: str
    path: int
    priority: int
    enter_tick: int
    exit_tick: int
    wait_ticks: int


def _priority_of(u: float, classes: tuple[tuple[int, float], ...]) -> int:
    """Map one uniform draw to a priority weight by inverse CDF over the class list order."""
    cum = 0.0
    for weight, prob in classes:
        cum += prob
        if u < cum:
            return weight
    return classes[-1][0]


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """`rng.random()`'s doubles from `_DRAW_BLOCK` blocks, each drawn at its first `next`."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def seed_initial_queues(cfg: SimConfig, rng: np.random.Generator | None = None) -> TrafficSnapshot:
    """Fill every path with ceil(intensity * capacity) fresh vehicles.

    Priorities are drawn path by path, front to back. Passing an rng lets
    an episode continue the same stream for its arrivals; otherwise a
    generator is seeded from cfg.seed. All uniforms come from one vector
    draw, which yields the same doubles as one scalar `rng.random()` per
    vehicle, and map to classes through `_priority_of`.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
    fill = cfg.spec.fill_count(cfg.intensity)
    paths = cfg.spec.num_paths
    draws = rng.random(paths * fill).tolist()
    records = [_CLASS_RECORD[_priority_of(u, PRIORITY_CLASSES)] for u in draws]
    queues = tuple(tuple(records[i * fill : (i + 1) * fill]) for i in range(paths))
    return TrafficSnapshot(tick=0, queues=queues)


def generate_arrivals(
    cfg: SimConfig, tick: int, rng: np.random.Generator
) -> tuple[tuple[VehicleRecord, ...], ...]:
    """Per-path arrivals for one tick: at most one vehicle per path.

    Each path ascending consumes one uniform draw for its Bernoulli
    trial (probability intensity * ARRIVAL_RATE_SCALE) and, on arrival,
    one more for the priority, keeping the stream layout fixed. `rng`
    may be a plain Generator or `run_episode`'s buffered reader of the
    same stream; both give the same arrivals. `tick` is not read: the
    draws depend on the stream position alone. It stays in the signature
    because callers, the benchmark's steady workload among them, pass it.
    """
    p = cfg.intensity * ARRIVAL_RATE_SCALE
    u = rng.random
    out = []
    for _ in range(cfg.spec.num_paths):
        if u() < p:
            out.append((_CLASS_RECORD[_priority_of(u(), PRIORITY_CLASSES)],))
        else:
            out.append(())
    return tuple(out)


def append_arrivals(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    arrivals: tuple[tuple[VehicleRecord, ...], ...],
) -> tuple[TrafficSnapshot, int]:
    """Append arrivals to queues with room; reject the rest, counted.

    Only queues that received an arrival are rebuilt; the others are
    shared with `s`.
    """
    if len(arrivals) != spec.num_paths:
        raise InvalidSpecError(
            f"arrivals cover {len(arrivals)} paths, expected {spec.num_paths}"
        )
    cap = spec.max_queue_len
    rejected = 0
    queues = list(s.queues)
    for i, incoming in enumerate(arrivals):
        if incoming:
            kept = tuple(incoming[: max(cap - len(queues[i]), 0)])
            queues[i] += kept
            rejected += len(incoming) - len(kept)
    return TrafficSnapshot(s.tick, tuple(queues)), rejected


def run_episode(
    cfg: SimConfig,
    policy: PolicyKind,
    solver_cfg: SolverConfig | None = None,
) -> tuple[EpisodeStats, tuple[WaitLogEntry, ...]]:
    """Drive one policy through one seeded episode.

    A decision is taken every phase_ticks ticks from the fresh snapshot;
    dynamics advance one tick at a time through `step`, called once per
    tick with the snapshot as its second argument; in Steady mode
    arrivals are appended after every tick. Drain episodes end when all
    queues empty, or hit the safety cap and report terminated=False. The
    wait log records one row per departed vehicle in departure order. A
    vehicle's wait counts every tick since it joined its queue, so its
    enter tick is the departure tick minus its wait.

    Every policy runs under solver_cfg's dynamics (default SolverConfig()),
    and starvation events count waits above its wmax. Arrival draws are
    read from block vector draws of the episode's generator, one double
    at a time in stream order: the uniforms scalar draws would give, and
    none at all in a drain episode.
    """
    policy = _as_enum(PolicyKind, policy, "policy")
    spec = cfg.spec
    if solver_cfg is None:
        solver_cfg = SolverConfig()
    dyn = solver_cfg.dynamics

    # loop invariants, read once; `step`, the arrival functions and the
    # decision functions are still looked up in this module on every call,
    # so a wrapper set on the module sees each tick and each decision
    drain = cfg.mode is SimMode.DRAIN
    seed = cfg.seed
    label = policy.value
    phase_ticks = dyn.phase_ticks

    rng = np.random.Generator(np.random.PCG64(seed))
    state = seed_initial_queues(cfg, rng)
    draws = SimpleNamespace(random=_uniforms(rng).__next__)
    phase = spec.all_closed()
    st = ControllerState(phase)
    ages = initial_green_ages(spec, phase, dyn)
    log: list[WaitLogEntry] = []
    rejected = 0
    terminated = True

    while True:
        t = state.tick
        if drain:
            if state.is_empty():
                break
            if t >= TICK_CAP:
                terminated = False
                break
        elif t >= cfg.episode_ticks:
            break

        if t % phase_ticks == 0:
            if policy is PolicyKind.HORIZON:
                st.prev_phase = phase
                phase = decide_horizon_opt(spec, state, st, solver_cfg)
            elif policy is PolicyKind.F1:
                phase = decide_f1(state, spec.conflicts)
            else:
                phase = decide_f2(t, spec.conflicts, phase_ticks)

        out = step(spec, state, phase, ages, dyn)
        for i, rec in out.departed:
            wait = rec.wait
            log.append(WaitLogEntry(seed, label, i, rec.priority, t - wait, t, wait))
        ages = out.green_age
        state = out.next

        if not drain:
            arrivals = generate_arrivals(cfg, state.tick, draws)
            state, rej = append_arrivals(spec, state, arrivals)
            rejected += rej

    waits = [e.wait_ticks for e in log]
    mean = float(np.mean(waits)) if waits else 0.0
    std = float(np.std(waits)) if waits else 0.0
    peak = max(waits) if waits else 0
    starvation = 0
    if solver_cfg.wmax is not None:
        starvation = sum(1 for w in waits if w > solver_cfg.wmax)
        starvation += sum(
            1 for q in state.queues for v in q if v.wait > solver_cfg.wmax
        )
    stats = EpisodeStats(
        mean_wait=mean,
        mean_wait_seconds=mean * TICK_SECONDS,
        std_wait=std,
        max_wait=peak,
        throughput=len(log),
        rejected_arrivals=rejected,
        starvation_events=starvation,
        terminated=terminated,
        ticks=state.tick,
    )
    return stats, tuple(log)
