"""Exact k-step schedule search: branch and bound plus a brute-force oracle.

The optimizer explores candidate phases depth-first in ascending
bit-vector order, pruning a branch as soon as its accrued cost plus an
admissible lower bound cannot strictly beat the incumbent. Because the
first minimum-cost leaf reached in that order is the lexicographically
smallest one, the returned schedule is deterministic and matches the
oracle's tie-break exactly.

For k > 1 the incumbent is seeded before the search by one greedy dive
(the primal heuristic of branch and bound, Land & Doig 1960): from the
root it follows, at each depth, the first candidate of least accrued
cost plus bound, down to one leaf of exact cost c. The search then
starts from best_cost = c + 1 with no incumbent schedule. Costs are
integers, so the usual `total >= best_cost` prune discards only totals
above c until the search reaches its own first leaf; every leaf of cost
at most c, the optimum included, is still reached in ascending mask
order, and ties keep the oracle's lexicographic winner with no flag for
a heuristic incumbent. The dive's own path is never pruned, since its
totals never exceed c.

Since slow_start < phase_ticks, a path entering a block is either warm
(open in the previous phase, so it can release a vehicle on the first
tick) or cold (it waits slow_start ticks first); its exact green age
does not matter. Per path the search therefore reads tables indexed by
departed count: the block cost while closed, the cost and new departed
count when opened warm or cold, and one bound row per depth. A node
sums the closed-path costs and bounds once, and each candidate adjusts
only its own open paths by table lookups.

The tables depend only on the queue's priorities, phase_ticks,
slow_start and k, and the search only reads them, so they are memoised
across calls, decisions and episodes: a bounded `functools.lru_cache`
of 1,024 entries keyed on exactly those four values. An entry's size
scales with k x (queue length + 1); at the default sizes (k = 3, queues
of up to 21 vehicles) the memo holds about 5 MB at most. Sharing is safe
because the tables are nested tuples, which no caller can change. On
the C3 drain grid about 93% of lookups hit the memo.

The index from a mask to the indices of its set bits (the paths it
opens) is shared the same way: `_bits`, a plain dict at module level in
`model.py`, filled on first use by `model._set_bits` and cleared once
it holds `_BITS_MAXSIZE` = 65,536 entries, about 12 MB at most.
`Phase.open_paths()` and `is_feasible_phase` read the same index. A
mask's set bits depend on the mask alone, not on the call, junction or
queue, so one index serves every call; keys are plain ints and values
are tuples, so no caller can change what another reads.

All-feasible candidates are scored from their parents. The list of
`ConflictMatrix.feasible_phases()` is downward closed and ascending, so a
phase without its lowest open path is another phase earlier in the list,
or the empty set (`ConflictMatrix.feasible_links`, the parent link of
reverse search, Avis & Fukuda 1996). A candidate's score at a node, the
sum of its open paths' changes, is then its parent's score plus one
change, read from the node's table as branch and bound scores a child
from its node (Land & Doig 1960); a path with nothing queued changes
nothing. On the unfiltered all-feasible list a node therefore runs one
fused loop of one table read per candidate, and keeps the candidates
under the incumbent; at a leaf, and in the dive, each kept one tightens
the limit, as it would become the incumbent. Only the kept ones reach
the per-candidate loop that every list shares, which reads their open
paths from `_bits`, tests them again against the incumbent of the
moment, and holds the leaf update, the clique re-test, the child state
and the recursion. The scores are the same integers in the same order,
so schedules, costs, the tie-break and node counts do not change. The
maximal list keeps the per-path sums, since no maximal phase contains
another and none has a parent in it. Guard-filtered lists keep them
too: a phase whose lowest path is the guard's target has its parent
outside the list.

The bound is slow-start aware. Over the R ticks after a block, the j-th
vehicle still queued on a path pays at least min(j, R) if the block
left the path open, and min(j + slow_start, R) if it left it closed,
because a closed path must turn green again before anyone leaves. The
bound is admissible and never below `dynamics.lower_bound`.

That per-path bound prices each path as if it alone held every remaining
block. At depth k - 2, where one block remains after the candidate's,
the search tightens it with a cover of the conflict graph by disjoint
cliques (`ConflictMatrix.clique_cover`). A feasible phase opens at most
one path of a clique, the colour-class argument of Tomita & Seki's MCQ
(2003), so a clique's last block costs at least its members' closed
costs plus the largest single saving among them, not the sum of their
savings. The rise is admissible whenever every phase the search may try
is feasible: for maximal and all-feasible candidates alike, and under
the guard, which only removes candidates. A feasible candidate also
opens at most one member of each clique, so a node's rise is one
constant plus one adjustment per opened path (`_clique_terms`), built
from the same table rows the node already reads.

The clique bound is applied lazily. It only re-tests candidates that
pass the per-path test, and a node builds its terms when its first
candidate passes; most candidates at depth k - 2 fail that test anyway.
Tightening every candidate of such a node on entry cost more than the
nodes it saved. The greedy dive keeps the per-path bound, and k = 1
never reads the cover. Schedules and costs are unchanged, since the
bound stays admissible; only nodes fall. On the 50 C8 snapshots at k = 3
they fall from 32,712 to 10,476.

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

from .dynamics import DynamicsConfig, rollout_cost
from .errors import InvalidSpecError, OracleTooLargeError
from .model import (
    IntersectionSpec,
    Phase,
    TrafficSnapshot,
    _bits,
    _check_phase_width,
    _set_bits,
)

DEFAULT_ORACLE_CAP = 1_000_000


@dataclass(frozen=True)
class SolverConfig:
    """Search parameters: horizon, candidate policy, starvation threshold."""

    horizon: int = 3
    maximal_only: bool = True
    wmax: int | None = 60
    dynamics: DynamicsConfig = field(default_factory=DynamicsConfig)

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise InvalidSpecError("horizon must be >= 1")
        if self.wmax is not None:
            # guard threshold must exceed the worst forced wait of a
            # freshly green queue, or the guard can thrash
            floor = self.dynamics.phase_ticks * self.dynamics.slow_start
            if self.wmax <= floor:
                raise InvalidSpecError(
                    f"wmax must exceed phase_ticks * slow_start = {floor}"
                )


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


def _base_phases(spec: IntersectionSpec, cfg: SolverConfig) -> tuple[Phase, ...]:
    if cfg.maximal_only:
        return spec.conflicts.maximal_phases()
    return spec.conflicts.feasible_phases()


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


def _phases_opening(base: tuple[Phase, ...], target: int) -> tuple[Phase, ...]:
    """The phases of `base` that open path `target`, in base's order.

    Never empty when `base` is a matrix's maximal or all-feasible list:
    no path of a valid `ConflictMatrix` conflicts with itself, so
    {target} is a feasible phase, in the all-feasible list and inside
    some maximal one.
    """
    return tuple(ph for ph in base if ph.is_open(target))


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
    base = _base_phases(spec, cfg)
    target = _guard_target([q[0].wait if q else None for q in s.queues], cfg.wmax)
    if target is None:
        return base
    return _phases_opening(base, target)


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

    The tables are a pure function of the key (queue priorities front to
    back, phase_ticks, slow_start, k), so one build is shared by every
    path, decision and episode with that key. Everything returned is a
    tuple, so no caller can change what another reads. The bound is 1,024
    entries, not bytes: an entry's size scales with k x (queue length + 1).
    At the default sizes (k = 3, queues of up to 21 vehicles) an entry is
    about 4.5 KB (tracemalloc), so the memo holds about 5 MB at most there;
    a larger horizon or longer queues keep a proportionally larger memo.
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
    is as if every path opened. A feasible phase opens at most one member
    of a clique, so the clique's last block costs at least the members'
    closed costs plus the least s among them: the bound rises by
    min(s) - sum(s). A feasible candidate opens at most one member too, so
    the rise is `extra` when it opens none and `extra + delta[i]` when it
    opens member i. Returns (extra, delta), delta indexed by path and 0
    outside the cliques. Cliques with fewer than two queued members rise
    by 0 and are skipped.
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
    and the slow-start-aware bound come from per-path tables, memoised
    across calls by `_tables`, so a candidate costs one lookup per open
    queued path. The open paths of a mask come from `_bits`, the
    shared mask index of `model.py` (bounded by `_BITS_MAXSIZE` entries;
    safe to share because a mask's set bits depend on nothing else and
    its entries are int keys and tuple values).
    On the unfiltered all-feasible list a candidate instead costs one
    lookup: its parent's score plus its lowest path's change, and only
    those under the incumbent go on to the shared loop (see the module
    docstring).

    For k > 1 a greedy dive through the same `dfs` (same tables, guard
    filter and node expansion) first reaches one leaf of cost c, and the
    search starts from best_cost = c + 1: it prunes strictly above c, so
    every minimal leaf and the tie-break survive (see the module
    docstring). The dive's expansions are not counted in `nodes_explored`.

    At depth k - 2 a candidate that passes the per-path bound is tested
    again against the clique bound: every feasible phase opens at most
    one path of each clique of the junction's conflict cover, so at most
    one member of a clique can save in the last block. That holds for
    every candidate list and under the guard, so the bound stays
    admissible and the result is the same. A node builds its clique
    terms only once its first candidate passes the per-path test (see
    the module docstring); the dive and k = 1 skip them.
    """
    t0 = time.perf_counter()
    spec.validate_snapshot(s)
    _check_phase_width(prev_phase, spec.num_paths)
    dyn = cfg.dynamics
    big_d = dyn.phase_ticks
    k = cfg.horizon
    wmax = cfg.wmax
    paths = spec.num_paths

    base = _base_phases(spec, cfg)

    lens = [len(q) for q in s.queues]
    waits = [[v.wait for v in q] for q in s.queues]
    closed, cold_bounds, colds, warms = zip(
        *(_tables(tuple([v.priority for v in q]), big_d, dyn.slow_start, k) for q in s.queues)
    )
    # per depth: each path's cold bound row, then its open rows by warmth
    levels = [
        (
            [b[depth] for b in cold_bounds],
            ([c[depth] for c in colds], [w[depth] for w in warms]),
        )
        for depth in range(k)
    ]
    oldest = max((w for q in waits for w in q), default=-1)
    # the all-feasible list scores each candidate from its parent (see the
    # module docstring); gains[j] holds candidate j's score at the node
    # being scored, and gains[-1] stays 0 for the empty parent of singletons
    links = None if cfg.maximal_only else spec.conflicts.feasible_links()
    if links is not None:
        gains = [0] * (len(base) + 1)
    guarded: dict[int, tuple[Phase, ...]] = {}
    bits = _bits
    # the clique bound prices the last block at depth k - 2 (see the
    # module docstring); k = 1 never reaches it and never reads the cover
    last = k - 2
    if k > 1:
        cliques = spec.conflicts.clique_cover()
        last_rows = levels[k - 1][1]

    best_cost: int | None = None
    best_schedule: tuple[Phase, ...] | None = None
    by_depth = [0] * k
    chosen: list[Phase] = []

    def dfs(depth: int, accrued: int, d: list[int], warm: int, live: int, dive: bool) -> None:
        # warm: mask of paths open in the previous block; live: mask of
        # paths with vehicles still queued; dive: follow only the first
        # candidate of least total, down to one leaf
        nonlocal best_cost, best_schedule
        cands = base
        elapsed = depth * big_d
        # no front wait can reach wmax before the oldest vehicle's does
        if wmax is not None and oldest + elapsed >= wmax:
            target = _guard_target(
                [waits[i][d[i]] + elapsed if live >> i & 1 else None for i in range(paths)],
                wmax,
            )
            if target is not None:
                cands = guarded.get(target)
                if cands is None:
                    cands = guarded[target] = _phases_opening(base, target)
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
        if links is not None and cands is base:
            # one table read per candidate: its score is its parent's plus
            # the change of its lowest path (0 unless queued). Keep those
            # under the incumbent. At a leaf each kept one becomes the
            # incumbent, so tighten as the loop below will; the dive
            # tightens from no limit, so its last kept is the first least
            limit = inf if dive or best_cost is None else best_cost - accrued - closed_total
            tight = leaf or dive
            kept = []
            for j, (parent, low) in enumerate(links):
                gain = gains[j] = gains[parent] + change[low]
                if gain < limit:
                    kept.append(cands[j])
                    if tight:
                        limit = gain
            cands = kept[-1:] if dive else kept
        elif dive:
            # keep the first candidate of least total; all share accrued +
            # closed_total, so compare the open paths' changes
            low = None
            for ph in cands:
                m = ph.mask & live
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
            m = ph.mask & live
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
            dfs(depth + 1, acc, d2, ph.mask, live2, dive)
            chosen.pop()

    live0 = sum(1 << i for i in range(paths) if lens[i])
    if k > 1:
        dfs(0, 0, [0] * paths, prev_phase.mask, live0, True)
        # prune strictly above the dive's cost until the search's own first
        # leaf, so every leaf of cost <= it is still reached in mask order
        best_cost += 1
        best_schedule = None
        by_depth = [0] * k
    dfs(0, 0, [0] * paths, prev_phase.mask, live0, False)
    assert best_schedule is not None and best_cost is not None
    return Solution(best_schedule, best_cost, tuple(by_depth), time.perf_counter() - t0)


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
    width = len(_base_phases(spec, cfg))
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
