"""Exact k-step schedule search: branch and bound plus a brute-force oracle.

The optimizer explores candidate phases depth-first in ascending
bit-vector order, pruning a branch as soon as its accrued cost plus an
admissible lower bound cannot strictly beat the incumbent. Because the
first minimum-cost leaf reached in that order is the lexicographically
smallest one, the returned schedule is deterministic and matches the
oracle's tie-break exactly. The search holds each candidate as its int
mask (`ConflictMatrix.phase_masks`) and wraps only its result in `Phase`.

Since slow_start < phase_ticks, a path entering a block is either warm
(open in the previous phase, so it can release a vehicle on the first
tick) or cold (it waits slow_start ticks first); its exact green age
does not matter. Per path the search therefore reads tables indexed by
departed count (`_tables`, memoised across calls): the block cost while
closed, the cost and new departed count when opened warm or cold, and
one bound row per depth. A node sums the closed-path costs and bounds
once, and each candidate adjusts only its own open paths by table
lookups.

Four further cuts leave schedules, costs and the tie-break unchanged,
and each is explained beside its code. Three are in `optimize_schedule`:
a greedy dive that seeds the incumbent, the scoring of all-feasible
candidates by one integer matrix-vector product per node, and on maximal
lists the conflict-free paths priced once per call. The fourth is a
clique bound on the last block (`_clique_terms`). A mask's open paths
come from the shared index of `model._set_bits`.

The oracle instead chains one-block `dynamics.rollout_cost` calls, each
from the state and phase the previous block left. A path open in the
previous phase starts a block at age slow_start; its true age is at least
phase_ticks > slow_start, and `step` only tests age >= slow_start, so the
same vehicles leave on every tick. The two routes share no cost code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import inf

import numpy as np

from .dynamics import DynamicsConfig, rollout_cost
from .errors import OracleTooLargeError
from .model import (
    IntersectionSpec,
    Phase,
    TrafficSnapshot,
    _bits,
    _check_bool,
    _check_int,
    _check_phase,
    _set_bits,
)

DEFAULT_ORACLE_CAP = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters: horizon, candidate policy, starvation threshold.

    The guard (`wmax`) makes the first phase serve the longest-overdue
    front vehicle once any front vehicle has waited wmax ticks. In drain
    mode that bounds every wait by wmax + phase_ticks x paths (108 ticks
    on the default junction), which C6 checks. It watches front vehicles
    only, so under steady overload a deep queue can outlast it.

    The command line plans on the maximal phases only. Only Python plans
    over every feasible phase, as `SolverConfig(maximal_only=False)`;
    the benchmark's plan_wide workload measures that mode.
    """

    horizon: int = 3
    maximal_only: bool = True
    wmax: int | None = 60
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)

    def __post_init__(self) -> None:
        _check_int(self.horizon, "horizon", 1)
        _check_bool(self.maximal_only, "maximal_only")
        if self.wmax is not None:
            # guard threshold must exceed the worst forced wait of a
            # freshly green queue, or the guard can thrash; an int, since
            # the guard, the search's pre-check and the starvation count
            # read the threshold in three ways that agree only on ints
            dyn = self.dynamics
            _check_int(self.wmax, "wmax", dyn.phase_ticks * dyn.slow_start + 1)


@dataclass(frozen=True)
class Solution:
    """A schedule with its exact cost and search effort accounting.

    nodes_explored counts candidate-phase applications: one per phase
    tried at any depth of the search tree, and nodes_by_depth splits that
    count by the depth the phase was tried at (index 0 is the first
    block). The oracle counts the same events without pruning, and the
    search's tree is a pruned copy of the oracle's with the same
    candidates at every state, so optimize_schedule never exceeds it,
    in total or at any depth. The
    greedy dive that seeds the incumbent is not counted. It expands at
    most k nodes, trying every candidate at each, so counting it could
    exceed the oracle: on an empty snapshot of two crossing paths at
    k = 2, dive plus search would count 4 + 4 = 8 against the oracle's 6.
    """

    schedule: tuple[Phase, ...]
    cost: int
    nodes_by_depth: tuple[int, ...]
    elapsed_seconds: float

    @property
    def nodes_explored(self) -> int:
        return sum(self.nodes_by_depth)


def _guard_target(front_waits: list[int | None], wmax: int | None) -> int | None:
    """Path the starvation guard forces open, or None.

    `front_waits[i]` is the wait of path i's front vehicle, None for an
    empty queue. The target is the longest wait of at least wmax, ties
    going to the lowest path index.
    """
    if wmax is None:
        return None
    target = None
    worst = wmax - 1
    for i, w in enumerate(front_waits):
        if w is not None and w > worst:
            worst = w
            target = i
    return target


def _phases_opening(base: tuple[int, ...], target: int) -> tuple[int, ...]:
    """The phase masks of `base` that open path `target`, in base's order.

    Never empty when `base` is a matrix's maximal or all-feasible list:
    no path of a valid `ConflictMatrix` conflicts with itself, so
    {target} is a feasible phase, in the all-feasible list and inside
    some maximal one.
    """
    return tuple(m for m in base if m >> target & 1)


def candidate_phases(
    spec: IntersectionSpec, s: TrafficSnapshot, cfg: SolverConfig
) -> tuple[Phase, ...]:
    """Phases eligible for the next decision, in ascending bit-vector order.

    Membership depends on queue contents only: any feasible phase may
    follow any other, and switching costs live in the dynamics. When the
    starvation guard is enabled and some front vehicle has waited wmax
    ticks or more, only phases opening the longest-waiting such path are
    returned, ties going to the lowest path index. The list is never
    empty for any valid `ConflictMatrix`: a lone path is a feasible
    phase, so some maximal phase opens each path (see `_phases_opening`).
    Only the all-feasible list can fail, with `TooManyPhasesError`.
    """
    spec.validate_snapshot(s)
    masks = spec.conflicts.phase_masks(cfg.maximal_only)
    target = _guard_target([q[0].wait if q else None for q in s.queues], cfg.wmax)
    if target is not None:
        masks = _phases_opening(masks, target)
    return tuple([Phase(m, spec.num_paths) for m in masks])


@lru_cache(maxsize=1 << 10)
def _tables(priorities: tuple[int, ...], big_d: int, small_s: int, k: int):
    """One path's block and bound tables, indexed by departed count d.

    Returns (closed, cold_bound, cold, warm). closed[d] is the block cost
    while the path stays closed. The other three hold one row per depth:
    cold_bound[depth][d] bounds the rest of the horizon after a block that
    left the path closed, and cold[depth][d] / warm[depth][d] hold (cost
    plus bound change, cost change, new d) for a block that opens the path
    cold or warm, both changes taken against closed[d] and
    cold_bound[depth][d]. Rows are filled only at the departed counts
    reachable at their depth; the search never reads the other entries.

    The bound is slow-start aware. Over the R ticks after a block, the
    j-th vehicle still queued pays at least min(j, R) if the block left
    the path open, and min(j + slow_start, R) if it left it closed,
    because a closed path must turn green again before anyone leaves. It
    is admissible, and never below the plain bound sum(priority x min(j,
    R)) that ignores slow starts and conflicts; the search-bound
    admissibility property in tests/test_solver.py checks both.

    The tables are a pure function of the key (queue priorities front to
    back, phase_ticks, slow_start, k), so one build is shared by every
    path, decision and episode with that key. Everything returned is a
    tuple, so no caller can change what another reads. The bound is 1,024
    entries, not bytes: an entry's size scales with k x (queue length + 1).
    At the default sizes (k = 3, queues of up to 21 vehicles) an entry is
    about 4.5 KB (tracemalloc), so the memo holds about 5 MB at most there;
    a larger horizon or longer queues keep a proportionally larger memo.
    On the C3 drain grid about 93% of lookups hit the memo.
    """
    n = len(priorities)
    # ps[x] = sum of the first x priorities; iw[x] = sum of
    # position-weighted priorities, positions 0-based
    ps = [0] * (n + 1)
    iw = [0] * (n + 1)
    for j, p in enumerate(priorities):
        ps[j + 1] = ps[j] + p
        iw[j + 1] = iw[j] + j * p
    total = ps[n]

    def tail(d: int, r: int, lag: int) -> int:
        # sum of priority * min(position + lag, r) over the vehicles from d
        # on, positions counted from d: the least they pay over the next r
        # ticks if the front cannot leave before `lag` ticks have passed
        m = d + r - lag if r > lag else d
        if m > n:
            m = n
        span = ps[m] - ps[d]
        return (iw[m] - iw[d]) - (d - lag) * span + r * (total - ps[m])

    closed = tuple(big_d * (total - x) for x in ps)
    cold_bound, cold, warm = [], [], []
    reach = {0}
    for depth in range(k):
        r = (k - depth - 1) * big_d
        cb = [0] * (n + 1)
        rows = ([None] * (n + 1), [None] * (n + 1))
        ahead = set(reach)
        for d in reach:
            b = tail(d, r, small_s) if r else 0
            cb[d] = b
            for row, avail in zip(rows, (big_d - small_s, big_d)):
                e = d + avail if d + avail < n else n
                span = ps[e] - ps[d]
                # departer t leaves at in-block tick (D - avail + 1) + t
                # and skips paying for avail - t ticks
                saved = (iw[e] - iw[d]) - (d + avail) * span
                row[d] = (saved + (tail(e, r, 0) if r else 0) - b, saved, e)
                ahead.add(e)
        cold_bound.append(tuple(cb))
        cold.append(tuple(rows[0]))
        warm.append(tuple(rows[1]))
        reach = ahead
    return closed, tuple(cold_bound), tuple(cold), tuple(warm)


def _clique_terms(cliques, live, d, opening, cold_last, warm_last):
    """One node's clique correction to the last block's bound, at depth k - 2.

    After a candidate block, the per-path bound prices the last block as
    closed[e] + s for every queued path, where s <= 0 is its cost change
    if it opens there (warm if the candidate opened it, else cold), that
    is as if every path alone held the block. `cliques` is the junction's
    cover by disjoint cliques (`ConflictMatrix.clique_cover`). A feasible
    phase opens at most one member of a clique, the colour-class argument
    of Tomita & Seki's MCQ (2003), so the clique's last block costs at
    least the members' closed costs plus the least s among them: the
    bound rises by min(s) - sum(s). That holds whenever every phase the
    search may try is feasible, so for maximal and all-feasible
    candidates alike and under the guard, which only removes candidates;
    the bound stays admissible. A feasible candidate opens at most one
    member too, so the rise is `extra` when it opens none and
    `extra + delta[i]` when it opens member i, built from the table rows
    the node already reads. Returns (extra, delta), delta indexed by path
    and 0 outside the cliques. Cliques with fewer than two queued members
    rise by 0 and are skipped.
    """
    extra = 0
    delta = [0] * len(d)
    for clique in cliques:
        members = [i for i in clique if live >> i & 1]
        if len(members) < 2:
            continue
        shut = [cold_last[i][d[i]][1] for i in members]
        # the two least s and the member holding the least; every s <= 0
        total = low = second = 0
        at = -1
        for i, s in zip(members, shut):
            total += s
            if s < low:
                low, second, at = s, low, i
            elif s < second:
                second = s
        extra += low - total
        # opening i swaps its s for `opened`: the sum moves by opened - s
        # and the least s becomes min(opened, least of the others)
        for i, s in zip(members, shut):
            opened = warm_last[i][opening[i][2]][1]
            other = second if i == at else low
            delta[i] = s - low - (opened - other if opened > other else 0)
    return extra, delta


def optimize_schedule(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    prev_phase: Phase,
    cfg: SolverConfig,
) -> Solution:
    """Find the cheapest k-phase schedule by pruned depth-first search.

    Returns the lexicographically smallest schedule among those of
    minimal rollout cost. Search state is incremental: per-path departed
    counts, the mask of paths still queued, and the warm set (the
    previous phase's mask, since slow_start < phase_ticks). Block costs
    and the bound come from the per-path tables of `_tables`, so a
    candidate costs one lookup per open queued path, and its open paths
    come from the shared index of `model._set_bits`.

    Greedy dive. For k > 1 the incumbent is seeded before the search,
    the primal heuristic of branch and bound (Land & Doig 1960): the
    same `dfs`, with the same tables, guard filter and node expansion,
    follows at each depth the first candidate of least accrued cost plus
    bound, down to one leaf of exact cost c. The search then starts from
    best_cost = c + 1 with no incumbent schedule. Costs are integers, so
    the `total >= best_cost` prune discards only totals above c until
    the search reaches its own first leaf; every leaf of cost at most c,
    the optimum included, is still reached in ascending mask order, and
    ties keep the oracle's lexicographic winner with no flag for a
    heuristic incumbent. The dive's own path is never pruned, since its
    totals never exceed c. The dive's expansions are not counted in
    `nodes_explored`.

    Incidence scores. On the all-feasible list a node scores every
    candidate, the sum of its open paths' changes, in one product
    `incidence @ change` (`ConflictMatrix.incidence`); a guard filter
    takes its phases' rows once per call and target. A leaf or
    dive node keeps the first argmin, the last incumbent an ascending
    scan would set, and at a leaf only under the limit `best_cost -
    accrued - closed_total`; any other node keeps every candidate under
    the limit, in order. Only the kept ones reach the per-candidate loop
    every list shares, which reads their open paths, tests them again
    against the incumbent of the moment, and holds the leaf update, the
    clique re-test, the child state and the recursion. The scores are
    the same integers in the same order, so node counts do not change
    either. The product is int64, since a float64 one goes to BLAS,
    whose time on 7 arms varied from 0.14 to 8 ms between runs on a
    2-vCPU Xeon (int64: 0.4-0.7 ms). The maximal list keeps per-path
    sums: on the same machine (Python 3.11, numpy 2.4) the product made
    plan_deep slower, by +15% in p50 and +50% in p90 at every node, +5%
    in p90 at dive nodes only and +8% at dive and leaf nodes.

    Clique bound. At depth k - 2 a candidate that passes the per-path
    test is tested again against the last-block bound of `_clique_terms`.
    A node builds those terms only once its first candidate passes, since
    most candidates there fail the per-path test anyway; tightening every
    candidate on entry cost more than the nodes it saved. The dive keeps
    the per-path bound, and k = 1 never reads the cover. On the 50 C8
    snapshots at k = 3 nodes fall from 32,712 to 10,476.

    Conflict-free paths. On a maximal list, guarded or not, a queued path
    that conflicts with nothing (`ConflictMatrix._free`: the near turns of
    a standard junction, none with `merge_conflicts`) is open in every
    block of every schedule: cold or warm in the first as `prev_phase`
    left it, warm after. At every node its accrued cost plus its exact
    open-path bound tail(e, r, 0) is then one constant C, so every prune,
    dive pick and leaf comparison moves by C on both sides. The search
    leaves such paths out of `live`, prices them once from the same table
    rows and adds C to the cost. The guard reads their front waits at
    their fixed departed counts, so candidate lists and nodes_by_depth do
    not change. All-feasible lists, where such a path may stay closed,
    never take this step.

    Guard reads. Set-up reads each queue's priorities once (the `_tables`
    key) and its waits in the first (k - 1) x phase_ticks + 1 records only.
    A block departs at most phase_ticks vehicles a path, so every front the
    search reads lies there, and `oldest` still bounds them all.
    """
    t0 = time.perf_counter()
    spec.validate_snapshot(s)
    _check_phase(prev_phase, spec.conflicts)
    dyn = cfg.dynamics
    big_d = dyn.phase_ticks
    k = cfg.horizon
    wmax = cfg.wmax
    paths = spec.num_paths

    base = spec.conflicts.phase_masks(cfg.maximal_only)

    queues = s.queues
    lens = [len(q) for q in queues]
    closed, cold_bounds, colds, warms = zip(
        *(_tables(tuple([v.priority for v in q]), big_d, dyn.slow_start, k) for q in queues)
    )
    # per depth: each path's cold bound row, then its open rows by warmth
    levels = [
        (
            [b[depth] for b in cold_bounds],
            ([c[depth] for c in colds], [w[depth] for w in warms]),
        )
        for depth in range(k)
    ]
    reach = (k - 1) * big_d + 1  # no front the guard reads lies deeper (see the docstring)
    oldest = max([v.wait for q in queues for v in q[:reach]], default=-1)
    # all-feasible lists are scored by one product (see the docstring);
    # a guard target maps to its phases and, for them, their incidence rows
    incidence = None if cfg.maximal_only else spec.conflicts.incidence(False)
    guarded: dict[int, tuple[tuple[int, ...], np.ndarray | None]] = {}
    bits = _bits
    # the clique bound prices the last block at depth k - 2 (see the
    # docstring); k = 1 never reaches it and never reads the cover
    last = k - 2
    if k > 1:
        cliques = spec.conflicts.clique_cover()
        last_rows = levels[k - 1][1]

    best_cost: int | None = None
    best_schedule: tuple[int, ...] | None = None
    by_depth = [0] * k
    chosen: list[int] = []

    def dfs(depth: int, accrued: int, d: list[int], warm: int, live: int, dive: bool) -> None:
        # warm: mask of paths open in the previous block; live: mask of
        # paths with vehicles still queued; dive: follow only the first
        # candidate of least total, down to one leaf
        nonlocal best_cost, best_schedule
        cands = base
        scores = incidence
        elapsed = depth * big_d
        # no front wait can reach wmax before the oldest one in reach does
        if wmax is not None and oldest + elapsed >= wmax:
            fw = [queues[i][d[i]].wait + elapsed if live >> i & 1 else None for i in range(paths)]
            for i, w in fronts[depth]:
                fw[i] = w
            target = _guard_target(fw, wmax)
            if target is not None:
                got = guarded.get(target)
                if got is None:
                    got = guarded[target] = (
                        _phases_opening(base, target),
                        None if incidence is None else incidence[incidence[:, target] == 1],
                    )
                cands, scores = got
        by_depth[depth] += len(cands)
        leaf = depth == k - 1
        bound_row, rows = levels[depth]
        queued = bits.get(live)
        if queued is None:
            queued = _set_bits(live)
        closed_cost = 0
        closed_total = 0
        # each queued path's table entry if opened, and that entry's
        # cost plus bound change on its own
        opening = [None] * paths
        change = [0] * paths
        for i in queued:
            di = d[i]
            c = closed[i][di]
            closed_cost += c
            closed_total += c + bound_row[i][di]
            entry = opening[i] = rows[warm >> i & 1][i][di]
            change[i] = entry[0]
        if scores is not None:
            # one product scores every candidate (see the docstring)
            gain = scores @ np.array(change)
            if dive:
                cands = (cands[int(gain.argmin())],)
            else:
                limit = inf if best_cost is None else best_cost - accrued - closed_total
                if leaf:
                    j = int(gain.argmin())
                    cands = (cands[j],) if gain[j] < limit else ()
                else:
                    cands = [cands[j] for j in np.flatnonzero(gain < limit).tolist()]
        elif dive:
            # keep the first candidate of least total; all share accrued +
            # closed_total, so compare the open paths' changes
            low = None
            for ph in cands:
                m = ph & live
                opened = bits.get(m)
                if opened is None:
                    opened = _set_bits(m)
                gain = 0
                for i in opened:
                    gain += change[i]
                if low is None or gain < low:
                    low, pick = gain, ph
            cands = (pick,)
        # clique terms of this node, built when its first candidate passes
        # the per-path test; the dive keeps the per-path bound
        tighten = depth == last and not dive
        terms = None
        for ph in cands:
            m = ph & live
            opened = bits.get(m)
            if opened is None:
                opened = _set_bits(m)
            total = accrued + closed_total
            for i in opened:
                total += change[i]
            if best_cost is not None and total >= best_cost:
                continue
            if leaf:
                # bounds are 0 after the last block, so total is the cost
                best_cost = total
                best_schedule = (*chosen, ph)
                continue
            if tighten:
                if terms is None:
                    terms = extra, delta = _clique_terms(cliques, live, d, opening, *last_rows)
                total += extra
                for i in opened:
                    total += delta[i]
                if total >= best_cost:
                    continue
            acc = accrued + closed_cost
            d2 = d.copy()
            live2 = live
            for i in opened:
                _, dc, e = opening[i]
                acc += dc
                d2[i] = e
                if e == lens[i]:
                    live2 &= ~(1 << i)
            chosen.append(ph)
            dfs(depth + 1, acc, d2, ph, live2, dive)
            chosen.pop()

    live0 = sum(1 << i for i in range(paths) if lens[i])
    # queued conflict-free paths are priced once, out of `live`, and the
    # guard reads their fixed fronts per depth (see the docstring)
    free = live0 & spec.conflicts._free if cfg.maximal_only else 0
    fixed_cost = 0
    fronts: list = [()] * k
    if free:
        live0 ^= free
        fronts = [[] for _ in range(k)]
        for i in _set_bits(free):
            e, w = 0, prev_phase.mask >> i & 1
            for depth in range(k):
                if e < lens[i]:
                    fronts[depth].append((i, queues[i][e].wait + depth * big_d))
                _, dc, nxt = levels[depth][1][w][i][e]
                fixed_cost += closed[i][e] + dc
                e, w = nxt, 1
    if k > 1:
        dfs(0, 0, [0] * paths, prev_phase.mask, live0, True)
        # start one above the dive's cost (see the docstring)
        best_cost += 1
        best_schedule = None
        by_depth = [0] * k
    dfs(0, 0, [0] * paths, prev_phase.mask, live0, False)
    assert best_schedule is not None and best_cost is not None
    schedule = tuple([Phase(m, paths) for m in best_schedule])
    return Solution(schedule, best_cost + fixed_cost, tuple(by_depth), time.perf_counter() - t0)


def exhaustive_oracle(
    spec: IntersectionSpec,
    s: TrafficSnapshot,
    prev_phase: Phase,
    cfg: SolverConfig,
) -> Solution:
    """Enumerate every candidate schedule and keep the cheapest.

    Each candidate block is costed by `rollout_cost` from the state the
    blocks before it left, with the previous block's phase as its
    `prev_phase`, and a leaf's cost is the sum of its blocks. That is
    exact because slow_start < phase_ticks (see the module docstring), and
    it shares no cost code with optimize_schedule's tables. Ties break to
    the lexicographically smallest schedule, same as the optimizer.
    Refuses instances whose enumeration could exceed DEFAULT_ORACLE_CAP
    schedules, read at each call and projected from the unguarded
    candidate count, which bounds every depth.
    """
    t0 = time.perf_counter()
    spec.validate_snapshot(s)
    width = len(spec.conflicts.phase_masks(cfg.maximal_only))
    cap = DEFAULT_ORACLE_CAP
    if width ** cfg.horizon > cap:
        raise OracleTooLargeError(f"{width}^{cfg.horizon} schedules exceed the cap of {cap}")

    best_cost: int | None = None
    best_schedule: tuple[Phase, ...] | None = None
    by_depth = [0] * cfg.horizon
    prefix: list[Phase] = []

    def recurse(depth: int, state: TrafficSnapshot, prev: Phase, accrued: int) -> None:
        nonlocal best_cost, best_schedule
        if depth == cfg.horizon:
            if best_cost is None or accrued < best_cost:
                best_cost = accrued
                best_schedule = tuple(prefix)
            return
        for ph in candidate_phases(spec, state, cfg):
            by_depth[depth] += 1
            cost, nxt = rollout_cost(spec, state, (ph,), prev, cfg.dynamics)
            prefix.append(ph)
            recurse(depth + 1, nxt, ph, accrued + cost)
            prefix.pop()

    recurse(0, s, prev_phase, 0)
    assert best_schedule is not None and best_cost is not None
    return Solution(best_schedule, best_cost, tuple(by_depth), time.perf_counter() - t0)
