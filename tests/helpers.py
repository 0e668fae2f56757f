"""Junctions, snapshots, references and hypothesis strategies shared by the test modules."""

from collections import deque
from functools import cache
from itertools import accumulate

import numpy as np
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    EpisodeStats,
    IntersectionSpec,
    Phase,
    PolicyKind,
    SimMode,
    SolverConfig,
    TrafficSnapshot,
    VehicleRecord,
    WaitLogEntry,
    decide_f1,
    decide_f2,
    optimize_schedule,
)
from greenlight.errors import InvalidSpecError
from greenlight.simulator import ARRIVAL_RATE_SCALE, PRIORITY_CLASSES, TICK_CAP, TICK_SECONDS


def spec12(max_queue_len=6):
    """The default four-arm junction: 12 paths, 16 conflicting pairs."""
    return IntersectionSpec.standard(max_queue_len=max_queue_len)


def snapshot_with(spec, path_queues, tick=0):
    """A snapshot of `spec` whose queues are {path: [(priority, wait), ...]},
    front vehicle first; paths not named are empty."""
    queues = [()] * spec.num_paths
    for path, vehicles in path_queues.items():
        queues[path] = tuple(VehicleRecord(p, w) for p, w in vehicles)
    return TrafficSnapshot(tick, tuple(queues))


def lower_bound(s: TrafficSnapshot, remaining_ticks: int) -> int:
    """Admissible lower bound on any feasible continuation's cost.

    A vehicle behind j others cannot leave before j ticks have passed, so
    over R remaining ticks it pays at least priority * min(j, R) no matter
    which phases are chosen, even ignoring slow starts and conflicts.
    """
    if remaining_ticks < 0:
        raise InvalidSpecError("remaining_ticks must be >= 0")
    total = 0
    for q in s.queues:
        for j, v in enumerate(q):
            total += v.priority * min(j, remaining_ticks)
    return total


def bellman_plan(spec, s, prev_phase, cfg):
    """The optimal k-block plan by Bellman's recursion (Bellman 1957), as (cost, schedule).

    A tick's cost is the priority still queued, so after j blocks the cost
    of the rest of a plan depends only on j, each path's departed count and
    the previous phase. The guard reads front waits, and a front wait is the
    snapshot's wait at the departed count plus j x phase_ticks, so it is a
    function of the same state. Candidates are tried in ascending mask order
    and a value is replaced only by a strictly lower one, which keeps the
    lexicographically smallest optimum, the search's tie-break. One block of
    one path is priced by a plain tick loop, so nothing is shared with the
    solver's tables or with `step`.
    """
    ticks, slow = cfg.dynamics.phase_ticks, cfg.dynamics.slow_start
    paths = spec.num_paths
    priorities = [[v.priority for v in q] for q in s.queues]
    waits = [[v.wait for v in q] for q in s.queues]
    masks = spec.conflicts.phase_masks(cfg.maximal_only)

    @cache
    def block(i, departed, warm, open_):
        """Path i's cost over one block and its departed count after it."""
        cost = 0
        for t in range(ticks):
            # a warm path has been green slow ticks already when the block starts
            if open_ and departed < len(priorities[i]) and (warm or t >= slow):
                departed += 1
            cost += sum(priorities[i][departed:])
        return cost, departed

    @cache
    def best(j, departed, prev):
        """The cheapest (cost, masks) from block j, lexicographically first on ties."""
        if j == cfg.horizon:
            return 0, ()
        candidates = masks
        if cfg.wmax is not None:
            # longest front wait first, then lowest path index
            fronts = [(waits[i][d] + j * ticks, -i) for i, d in enumerate(departed)
                      if d < len(waits[i])]
            wait, neg = max(fronts, default=(-1, 0))
            if wait >= cfg.wmax:
                candidates = [m for m in masks if m >> -neg & 1]
        found = None
        for m in candidates:
            priced = [block(i, departed[i], prev >> i & 1, m >> i & 1) for i in range(paths)]
            rest, tail = best(j + 1, tuple(d for _, d in priced), m)
            total = sum(c for c, _ in priced) + rest
            if found is None or total < found[0]:
                found = (total, (m,) + tail)
        return found

    cost, schedule = best(0, (0,) * paths, prev_phase.mask)
    return cost, tuple(Phase(m, paths) for m in schedule)


def implicit_wait_episode(cfg, policy, solver_cfg=None):
    """`run_episode` rebuilt on implicit waits, as (stats, wait log, summed tick cost).

    Each path is a deque of (priority, enter tick), so a vehicle's wait is
    the tick minus its enter tick and no record is ever aged. The draws come
    from a plain Generator in the documented order: the initial queues path
    by path, front to back, then per tick one Bernoulli draw per path
    ascending and one priority draw per arrival, drawn even when the queue
    is full. Rejections, green ages and the statistics are worked out here.
    Of the library only the decisions are called: `decide_f1`, `decide_f2`
    and `optimize_schedule`, each on a snapshot of fresh records. The
    summed cost adds the priority still queued after every tick.
    """
    spec, solver_cfg = cfg.spec, solver_cfg or SolverConfig()
    ticks, slow = solver_cfg.dynamics.phase_ticks, solver_cfg.dynamics.slow_start
    rate = cfg.intensity * ARRIVAL_RATE_SCALE
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    weights = [w for w, _ in PRIORITY_CLASSES]
    cuts = list(accumulate(prob for _, prob in PRIORITY_CLASSES))

    def priority():  # inverse CDF over the class list order
        u = rng.random()
        return next((w for w, cut in zip(weights, cuts) if u < cut), weights[-1])

    fill = spec.fill_count(cfg.intensity)
    queues = [deque((priority(), 0) for _ in range(fill)) for _ in range(spec.num_paths)]
    ages = [0] * spec.num_paths
    phase, log, rejected, cost, t = spec.all_closed(), [], 0, 0, 0
    load = sum(p for q in queues for p, _ in q)  # the priority queued
    while (any(queues) and t < TICK_CAP) if cfg.mode is SimMode.DRAIN else t < cfg.episode_ticks:
        if t % ticks == 0:
            snap = TrafficSnapshot(t, tuple(tuple(VehicleRecord(p, t - e) for p, e in q) for q in queues))
            if policy is PolicyKind.HORIZON:
                phase = optimize_schedule(spec, snap, phase, solver_cfg).schedule[0]
            elif policy is PolicyKind.F1:
                phase = decide_f1(snap, spec.conflicts)
            else:
                phase = decide_f2(t, spec.conflicts, ticks)
        for i, q in enumerate(queues):
            if phase.mask >> i & 1:
                if q and ages[i] >= slow:
                    p, e = q.popleft()
                    load -= p
                    log.append(WaitLogEntry(cfg.seed, policy.value, i, p, e, t, t - e))
                ages[i] += 1
            else:
                ages[i] = 0
        t += 1
        cost += load
        if cfg.mode is SimMode.STEADY:
            for q in queues:
                if rng.random() < rate:
                    p = priority()
                    if len(q) < spec.max_queue_len:
                        q.append((p, t))
                        load += p
                    else:
                        rejected += 1
    waits = [e.wait_ticks for e in log]
    wmax = solver_cfg.wmax
    queued = [t - e for q in queues for _, e in q]
    mean = float(np.mean(waits)) if waits else 0.0
    stats = EpisodeStats(
        mean, mean * TICK_SECONDS, float(np.std(waits)) if waits else 0.0, max(waits, default=0),
        len(log), rejected, 0 if wmax is None else sum(w > wmax for w in waits + queued),
        not (cfg.mode is SimMode.DRAIN and any(queues)), t,
    )
    return stats, tuple(log), cost


def symmetric_array_strategy(max_paths=10):
    """Random symmetric boolean arrays with a zero diagonal, at any density.

    Each pair conflicts with a probability drawn from [0, 1] first, so the
    empty graph (every subset feasible) and the complete graph (only
    singletons) are as reachable as the graphs in between.
    """

    @st.composite
    def build(draw):
        p = draw(st.integers(min_value=1, max_value=max_paths))
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        pairs = p * (p - 1) // 2
        draws = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                              min_size=pairs, max_size=pairs))
        data = np.zeros((p, p), dtype=bool)
        data[np.triu_indices(p, 1)] = [u < density for u in draws]
        return data | data.T

    return build()


def symmetric_matrix_strategy(max_paths=10):
    """The conflict matrices of the arrays `symmetric_array_strategy` draws."""
    return symmetric_array_strategy(max_paths).map(ConflictMatrix)
