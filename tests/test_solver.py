"""Tests for the branch-and-bound schedule search and its brute-force twin."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    DynamicsConfig,
    IntersectionSpec,
    Movement,
    Phase,
    SolverConfig,
    TrafficSnapshot,
    Turn,
    SimConfig,
    VehicleRecord,
    candidate_phases,
    enumerate_feasible_phases,
    exhaustive_oracle,
    load_instance,
    lower_bound,
    optimize_schedule,
    rollout_cost,
    save_instance,
    seed_initial_queues,
    standard_movements,
)
from greenlight.cli import main as cli_main
from greenlight.errors import InvalidSpecError, OracleTooLargeError, TooManyPhasesError
import greenlight.solver as solver
from greenlight.solver import _bits, _clique_terms, _set_bits, _tables


def snapshot_with(spec, path_queues, tick=0):
    queues = [()] * spec.num_paths
    for path, vehicles in path_queues.items():
        queues[path] = tuple(VehicleRecord(p, w) for p, w in vehicles)
    return TrafficSnapshot(tick, tuple(queues))


def zero_conflict_spec(paths=3, max_queue_len=3):
    cm = ConflictMatrix(np.zeros((paths, paths), dtype=bool))
    return IntersectionSpec(
        arms=4,
        paths=standard_movements(4)[:paths],
        max_queue_len=max_queue_len,
        conflicts=cm,
    )


def crossing_pair_spec(max_queue_len=3):
    # two straights that cross; the only maximal phases are {0} and {1}
    return IntersectionSpec(
        arms=4,
        paths=(Movement(0, Turn.STRAIGHT), Movement(1, Turn.STRAIGHT)),
        max_queue_len=max_queue_len,
    )


def test_solver_config_defaults():
    cfg = SolverConfig()
    assert cfg.horizon == 3
    assert cfg.maximal_only is True
    assert cfg.wmax == 60


def test_solver_config_rejects_bad_values():
    with pytest.raises(InvalidSpecError):
        SolverConfig(horizon=0)
    # the guard threshold must exceed one full slow-started block
    with pytest.raises(InvalidSpecError):
        SolverConfig(wmax=4, dynamics=DynamicsConfig(phase_ticks=4, slow_start=1))


def test_candidates_without_guard_or_restriction():
    # zero conflicts over 3 paths: all 2^3 - 1 subsets qualify
    spec = zero_conflict_spec(3)
    cfg = SolverConfig(maximal_only=False)
    phases = candidate_phases(spec, spec.empty_snapshot(), spec.all_closed(), cfg)
    assert len(phases) == 7
    assert [p.mask for p in phases] == list(range(1, 8))


def test_candidates_restricted_to_maximal():
    spec = zero_conflict_spec(3)
    cfg = SolverConfig(maximal_only=True)
    phases = candidate_phases(spec, spec.empty_snapshot(), spec.all_closed(), cfg)
    assert [p.mask for p in phases] == [7]


def test_all_feasible_candidates_fail_fast_on_nine_arms():
    # standard(9) has 498,175 feasible phases, past the enumeration cap;
    # its 156 maximal phases still plan
    spec = IntersectionSpec.standard(9, max_queue_len=2)
    s = snapshot_with(spec, {0: [(1, 0)]})
    with pytest.raises(TooManyPhasesError):
        optimize_schedule(
            spec, s, spec.all_closed(), SolverConfig(horizon=1, maximal_only=False)
        )
    sol = optimize_schedule(spec, s, spec.all_closed(), SolverConfig(horizon=1))
    assert sol.schedule[0].is_open(0)


def test_guard_forces_overdue_path_open():
    # front vehicle on path 5 has hit the threshold: every candidate
    # must show path 5 green
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=60)
    s = snapshot_with(spec, {5: [(1, 60)], 0: [(1, 3)]})
    phases = candidate_phases(spec, s, spec.all_closed(), cfg)
    assert phases
    assert all(p.is_open(5) for p in phases)


def test_guard_prefers_longest_wait():
    # waits 70 on path 2 and 65 on path 9: path 2 is older, so all
    # candidates open path 2
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=60)
    s = snapshot_with(spec, {2: [(1, 70)], 9: [(1, 65)]})
    phases = candidate_phases(spec, s, spec.all_closed(), cfg)
    assert phases
    assert all(p.is_open(2) for p in phases)


def test_guard_wait_tie_breaks_to_lowest_index():
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=60)
    s = snapshot_with(spec, {9: [(1, 70)], 2: [(1, 70)]})
    phases = candidate_phases(spec, s, spec.all_closed(), cfg)
    assert phases
    assert all(p.is_open(2) for p in phases)


def test_guard_disabled_ignores_waits():
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=None)
    s = snapshot_with(spec, {5: [(1, 999)]})
    phases = candidate_phases(spec, s, spec.all_closed(), cfg)
    assert any(not p.is_open(5) for p in phases)


def test_optimize_empty_snapshot_takes_lex_smallest():
    # every schedule costs 0, so the tie-break picks the smallest maximal
    # phase at every depth
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(horizon=3)
    sol = optimize_schedule(spec, spec.empty_snapshot(), spec.all_closed(), cfg)
    first = spec.conflicts.maximal_phases()[0]
    assert sol.schedule == (first, first, first)
    assert sol.cost == 0


def test_optimize_single_green_vehicle_costs_nothing():
    # one priority-1 vehicle on path 0, previous phase already open
    # there: it departs on the first held tick, cost 0
    spec = IntersectionSpec.standard(max_queue_len=6)
    dyn = DynamicsConfig(phase_ticks=2, slow_start=1)
    cfg = SolverConfig(horizon=1, dynamics=dyn)
    s = snapshot_with(spec, {0: [(1, 0)]})
    prev = spec.conflicts.maximal_phases()[0]
    sol = optimize_schedule(spec, s, prev, cfg)
    assert sol.schedule[0].is_open(0)
    assert sol.cost == 0


def test_optimize_two_path_hand_case():
    # path 0 holds two priority-1 vehicles, path 1 one priority-5; D=1,
    # S=0, k=2. Serving path 1 first costs 2 + 1 = 3, every other order
    # pays the heavy vehicle at least once: 11, 7, or 4. Minimum is
    # ({1}, {0}) at cost 3.
    spec = crossing_pair_spec()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0)], 1: [(5, 0)]})
    dyn = DynamicsConfig(phase_ticks=1, slow_start=0)
    cfg = SolverConfig(horizon=2, dynamics=dyn)
    sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
    assert [p.mask for p in sol.schedule] == [0b10, 0b01]
    assert sol.cost == 3


def test_oracle_two_paths_visits_four_schedules():
    # 2 maximal phases at depth 2: 2 first moves plus 4 completions,
    # nodes_explored = 6 and the 4 leaves are the 4 schedules
    spec = crossing_pair_spec()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0)], 1: [(5, 0)]})
    dyn = DynamicsConfig(phase_ticks=1, slow_start=0)
    cfg = SolverConfig(horizon=2, dynamics=dyn)
    orc = exhaustive_oracle(spec, s, spec.all_closed(), cfg)
    assert orc.nodes_explored == 6
    assert orc.cost == 3
    # cross-check the minimum against direct rollouts of all schedules
    phases = spec.conflicts.maximal_phases()
    costs = {}
    for a in phases:
        for b in phases:
            costs[(a.mask, b.mask)] = rollout_cost(
                spec, s, (a, b), spec.all_closed(), dyn
            )[0]
    assert len(costs) == 4
    assert orc.cost == min(costs.values())


def test_oracle_empty_snapshot_costs_nothing():
    spec = IntersectionSpec.standard(max_queue_len=4)
    cfg = SolverConfig(horizon=2)
    orc = exhaustive_oracle(spec, spec.empty_snapshot(), spec.all_closed(), cfg)
    assert orc.cost == 0


def test_oracle_refuses_oversized_search():
    spec = IntersectionSpec.standard(max_queue_len=4)
    cfg = SolverConfig(horizon=3)
    with pytest.raises(OracleTooLargeError):
        exhaustive_oracle(spec, spec.empty_snapshot(), spec.all_closed(), cfg, cap=100)
    # the guard narrows the root to 3 phases (3^3 = 27), but it lifts once
    # the overdue vehicle leaves, so 3 x 12 x 12 = 432 leaves lie below it
    guarded = snapshot_with(spec, {1: [(1, 70), (1, 0)]})
    with pytest.raises(OracleTooLargeError):
        exhaustive_oracle(spec, guarded, spec.all_closed(), cfg, cap=27)


def random_junction(rng, paths, max_queue_len):
    """A junction of `paths` paths, each pair conflicting with probability 0.4."""
    data = np.zeros((paths, paths), dtype=bool)
    for i in range(paths):
        for j in range(i + 1, paths):
            if rng.random() < 0.4:
                data[i, j] = data[j, i] = True
    return IntersectionSpec(
        arms=4,
        paths=standard_movements(4)[:paths],
        max_queue_len=max_queue_len,
        conflicts=ConflictMatrix(data),
    )


# (slow_start, phase_ticks) pairs drawn by random_instance; (1, 4) is the
# default, and the pairs with slow_start > 0 are where warm and cold
# paths differ
TIMINGS = ((0, 1), (0, 2), (1, 2), (1, 4), (2, 4))


def random_instance(rng):
    """One random small instance: spec, snapshot, prev phase, solver config."""
    p = int(rng.integers(2, 6))
    max_queue_len = int(rng.integers(1, 4))
    spec = random_junction(rng, p, max_queue_len)
    queues = []
    for _ in range(p):
        n = int(rng.integers(0, max_queue_len + 1))
        queues.append(
            tuple(
                VehicleRecord(int(rng.integers(1, 6)), int(rng.integers(0, 20)))
                for _ in range(n)
            )
        )
    s = TrafficSnapshot(0, tuple(queues))
    slow_start, phase_ticks = TIMINGS[int(rng.integers(0, len(TIMINGS)))]
    dyn = DynamicsConfig(phase_ticks=phase_ticks, slow_start=slow_start)
    maximal_only = bool(rng.integers(0, 2))
    cfg = SolverConfig(
        horizon=int(rng.integers(1, 4)),
        maximal_only=maximal_only,
        wmax=60,
        dynamics=dyn,
    )
    base = candidate_phases(spec, s, spec.all_closed(), cfg)
    while len(base) ** cfg.horizon > 800 and cfg.horizon > 1:
        cfg = SolverConfig(
            horizon=cfg.horizon - 1,
            maximal_only=maximal_only,
            wmax=60,
            dynamics=dyn,
        )
    prev_choices = [spec.all_closed()] + list(base)
    prev = prev_choices[int(rng.integers(0, len(prev_choices)))]
    return spec, s, prev, cfg


def assert_search_equals_oracle(sol, orc, horizon):
    """Same schedule and cost, and no more nodes than the oracle at any depth."""
    assert sol.schedule == orc.schedule
    assert sol.cost == orc.cost
    assert len(sol.nodes_by_depth) == len(orc.nodes_by_depth) == horizon
    assert sum(sol.nodes_by_depth) == sol.nodes_explored
    assert sum(orc.nodes_by_depth) == orc.nodes_explored
    assert all(a <= b for a, b in zip(sol.nodes_by_depth, orc.nodes_by_depth))


def test_search_matches_oracle_on_random_instances():
    # paired runs: equal cost, identical schedule under the shared
    # tie-break, and pruning never visits more nodes than enumeration,
    # at any depth
    rng = np.random.default_rng(20260816)
    for _ in range(60):
        spec, s, prev, cfg = random_instance(rng)
        sol = optimize_schedule(spec, s, prev, cfg)
        orc = exhaustive_oracle(spec, s, prev, cfg)
        assert_search_equals_oracle(sol, orc, cfg.horizon)
        replay, _ = rollout_cost(spec, s, sol.schedule, prev, cfg.dynamics)
        assert replay == sol.cost


def guard_active_instance(rng, spec, horizon):
    """A snapshot whose guard fires at the root, entered from an open phase.

    Other waits lie in [30, 90), so some fronts cross wmax only at a
    deeper block; one random path is made overdue at the root.
    """
    queues = []
    for _ in range(spec.num_paths):
        n = int(rng.integers(0, spec.max_queue_len + 1))
        queues.append(
            [VehicleRecord(int(rng.integers(1, 6)), int(rng.integers(30, 90))) for _ in range(n)]
        )
    overdue = int(rng.integers(0, spec.num_paths))
    front = VehicleRecord(int(rng.integers(1, 6)), int(rng.integers(60, 90)))
    queues[overdue] = [front] + queues[overdue][: spec.max_queue_len - 1]
    s = TrafficSnapshot(0, tuple(tuple(q) for q in queues))
    feasible = enumerate_feasible_phases(spec.conflicts, maximal_only=False)
    prev = feasible[int(rng.integers(0, len(feasible)))]
    return s, prev, SolverConfig(horizon=horizon, wmax=60)


@pytest.mark.parametrize("horizon", [2, 3])
def test_search_matches_oracle_with_guard_at_default_timing(horizon):
    # default dynamics (D=4, S=1), so warm and cold paths differ; the
    # guard fires at the root and may retarget deeper; prev is open
    rng = np.random.default_rng(4100 + horizon)
    specs = [
        random_junction(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        for _ in range(25)
    ]
    specs += [IntersectionSpec.standard(max_queue_len=4)] * 8
    for spec in specs:
        s, prev, cfg = guard_active_instance(rng, spec, horizon)
        assert prev.mask
        assert max(q[0].wait for q in s.queues if q) >= cfg.wmax
        sol = optimize_schedule(spec, s, prev, cfg)
        orc = exhaustive_oracle(spec, s, prev, cfg)
        assert_search_equals_oracle(sol, orc, horizon)


def test_search_beats_a_strictly_suboptimal_greedy_dive():
    # path 0 holds two priority-1 vehicles, path 1 one priority-2; D=1,
    # S=0, k=2. At the root both phases total 3 (block cost plus bound):
    # {0} pays 1 + 2 and its bound is 0, {1} pays 2 and its bound is 1.
    # The dive keeps the first, {0}, and its best finish {1} costs 3 + 1
    # = 4. The optimum serves the heavy vehicle first: 2 + 1 = 3.
    spec = crossing_pair_spec()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0)], 1: [(2, 0)]})
    dyn = DynamicsConfig(phase_ticks=1, slow_start=0)
    cfg = SolverConfig(horizon=2, dynamics=dyn)
    p0, p1 = spec.conflicts.maximal_phases()
    assert rollout_cost(spec, s, (p0, p1), spec.all_closed(), dyn)[0] == 4
    sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
    orc = exhaustive_oracle(spec, s, spec.all_closed(), cfg)
    assert sol.schedule == orc.schedule == (p1, p0)
    assert sol.cost == orc.cost == 3
    assert sol.nodes_explored <= orc.nodes_explored


def test_search_keeps_the_lex_smallest_optimum_when_the_dive_ties():
    # path 0 holds one priority-1 vehicle, path 1 two; D=1, S=0, k=2. At
    # the root {0} totals 2 + 1 = 3 and {1} totals 2 + 0 = 2, so the dive
    # takes {1}, then {0}: cost 2 + 1 = 3, the optimum. ({0}, {1}) also
    # costs 3 and is lexicographically smaller; its root total equals the
    # dive's cost, so only a strict prune above that cost still finds it.
    spec = crossing_pair_spec()
    s = snapshot_with(spec, {0: [(1, 0)], 1: [(1, 0), (1, 0)]})
    dyn = DynamicsConfig(phase_ticks=1, slow_start=0)
    cfg = SolverConfig(horizon=2, dynamics=dyn)
    p0, p1 = spec.conflicts.maximal_phases()
    assert rollout_cost(spec, s, (p1, p0), spec.all_closed(), dyn)[0] == 3
    sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
    orc = exhaustive_oracle(spec, s, spec.all_closed(), cfg)
    assert sol.schedule == orc.schedule == (p0, p1)
    assert sol.cost == orc.cost == 3
    assert sol.nodes_explored <= orc.nodes_explored


def test_search_matches_oracle_on_tie_heavy_instances():
    # every priority is 1, so many schedules share the optimal cost; in
    # some instances the greedy dive's leaf ties with a lexicographically
    # smaller optimum, in others it misses the optimum. Maximal and
    # all-feasible candidates, k = 2 and 3, any feasible previous phase
    rng = np.random.default_rng(20261018)
    checked = 0
    for horizon in (2, 3):
        for maximal_only in (True, False):
            for _ in range(100):
                spec = random_junction(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
                queues = tuple(
                    tuple(
                        VehicleRecord(1, int(rng.integers(0, 20)))
                        for _ in range(int(rng.integers(0, spec.max_queue_len + 1)))
                    )
                    for _ in range(spec.num_paths)
                )
                s = TrafficSnapshot(0, queues)
                slow_start, phase_ticks = TIMINGS[int(rng.integers(0, len(TIMINGS)))]
                dyn = DynamicsConfig(phase_ticks=phase_ticks, slow_start=slow_start)
                cfg = SolverConfig(horizon=horizon, maximal_only=maximal_only, dynamics=dyn)
                feasible = enumerate_feasible_phases(spec.conflicts, maximal_only=False)
                prev = feasible[int(rng.integers(0, len(feasible)))]
                if len(candidate_phases(spec, s, prev, cfg)) ** horizon > 800:
                    continue
                sol = optimize_schedule(spec, s, prev, cfg)
                orc = exhaustive_oracle(spec, s, prev, cfg)
                assert sol.schedule == orc.schedule
                assert sol.cost == orc.cost
                assert sol.nodes_explored <= orc.nodes_explored
                checked += 1
    assert checked >= 300


def test_search_bound_is_admissible_and_above_lower_bound():
    # the bound the search adds after a first block, read from the path
    # tables as the search reads it, against the exact cheapest
    # continuation: never above it, never below lower_bound
    rng = np.random.default_rng(31)
    for _ in range(40):
        spec, s, prev, cfg = random_instance(rng)
        dyn = cfg.dynamics
        rest = int(rng.integers(1, 3))
        tables = [
            _tables(tuple(v.priority for v in q), dyn.phase_ticks, dyn.slow_start, rest + 1)
            for q in s.queues
        ]
        # maximal continuations reach the unrestricted optimum
        free = SolverConfig(horizon=rest, wmax=None, dynamics=dyn)
        for first in enumerate_feasible_phases(spec.conflicts, maximal_only=False):
            bound = 0
            for i, (_, cold_bound, cold, warm) in enumerate(tables):
                bound += cold_bound[0][0]
                if first.is_open(i):
                    both, cost, _ = (warm if prev.is_open(i) else cold)[0][0]
                    bound += both - cost
            _, after = rollout_cost(spec, s, (first,), prev, dyn)
            best = exhaustive_oracle(spec, after, first, free).cost
            assert lower_bound(after, rest * dyn.phase_ticks) <= bound <= best


def last_block_inputs():
    """Random instances and guard-active states, each with its first phases.

    Small junctions try every feasible phase first; the default junction
    tries the all-feasible candidates its guard leaves.
    """
    rng = np.random.default_rng(4747)
    out = []
    for _ in range(40):
        spec, s, prev, cfg = random_instance(rng)
        out.append((spec, s, prev, cfg, spec.conflicts.feasible_phases()))
    for _ in range(15):
        spec = random_junction(rng, int(rng.integers(3, 7)), int(rng.integers(2, 5)))
        s, prev, cfg = guard_active_instance(rng, spec, 2)
        out.append((spec, s, prev, cfg, spec.conflicts.feasible_phases()))
    spec = IntersectionSpec.standard(max_queue_len=4)
    for _ in range(2):
        s, prev, cfg = guard_active_instance(rng, spec, 2)
        wide = SolverConfig(horizon=2, maximal_only=False, dynamics=cfg.dynamics)
        out.append((spec, s, prev, cfg, candidate_phases(spec, s, prev, wide)))
    return out


def test_clique_bound_lies_between_path_bound_and_best_continuation():
    # one block left after the first, as at depth k - 2 of the search. The
    # per-path bound prices the last block as if every path opened; the
    # clique bound opens at most one path per clique. Both are read from
    # the tables as the search reads them, and checked against last-block
    # costs from rollout_cost, which shares no code with the tables, and
    # against the exact best continuation. First phases range over
    # all-feasible candidate lists
    checked = 0
    for spec, s, prev, cfg, firsts in last_block_inputs():
        dyn = cfg.dynamics
        paths = spec.num_paths
        cliques = spec.conflicts.clique_cover()
        singles = [i for i in range(paths) if not any(i in c for c in cliques)]
        tables = [
            _tables(tuple(v.priority for v in q), dyn.phase_ticks, dyn.slow_start, 2)
            for q in s.queues
        ]
        live = sum(1 << i for i, q in enumerate(s.queues) if q)
        opening = [(t[3] if prev.is_open(i) else t[2])[0][0] for i, t in enumerate(tables)]
        last_cold = [t[2][1] for t in tables]
        last_warm = [t[3][1] for t in tables]
        extra, delta = _clique_terms(cliques, live, [0] * paths, opening, last_cold, last_warm)
        free = SolverConfig(horizon=1, wmax=None, dynamics=dyn)
        guarded = SolverConfig(
            horizon=1, maximal_only=cfg.maximal_only, wmax=cfg.wmax, dynamics=dyn
        )
        for first in firsts:
            opened = [i for i in first.open_paths() if live >> i & 1]
            path_bound = sum(cold_bound[0][0] for _, cold_bound, _, _ in tables)
            path_bound += sum(opening[i][0] - opening[i][1] for i in opened)
            clique_bound = path_bound + extra + sum(delta[i] for i in opened)
            _, after = rollout_cost(spec, s, (first,), prev, dyn)
            # the last block with every path closed, and each path's change
            # when it alone opens
            shut = rollout_cost(spec, after, (spec.all_closed(),), first, dyn)[0]
            gain = [
                rollout_cost(spec, after, (Phase(1 << i, paths),), first, dyn)[0] - shut
                for i in range(paths)
            ]
            assert path_bound == shut + sum(gain)
            assert clique_bound == (
                shut + sum(min(gain[i] for i in c) for c in cliques) + sum(gain[i] for i in singles)
            )
            # maximal continuations reach the unrestricted optimum, and the
            # guard only removes candidates
            best = exhaustive_oracle(spec, after, first, free).cost
            assert path_bound <= clique_bound <= best
            assert best <= exhaustive_oracle(spec, after, first, guarded).cost
            checked += clique_bound > path_bound
    assert checked > 50


def test_search_matches_oracle_on_a_loaded_explicit_matrix(tmp_path):
    # a conflict matrix that no geometry derives, written to an instance
    # file and read back, so the search runs on the loaded matrix's cover
    rng = np.random.default_rng(6061)
    data = np.zeros((8, 8), dtype=bool)
    for i in range(8):
        for j in range(i + 1, 8):
            data[i, j] = data[j, i] = rng.random() < 0.5
    path = tmp_path / "explicit.json"
    save_instance(
        IntersectionSpec(
            arms=4,
            paths=standard_movements(4)[:8],
            max_queue_len=3,
            conflicts=ConflictMatrix(data),
        ),
        str(path),
    )
    spec = load_instance(str(path))
    assert np.array_equal(spec.conflicts.as_array(), data)
    assert max(len(c) for c in spec.conflicts.clique_cover()) >= 3
    feasible = spec.conflicts.feasible_phases()
    checked = 0
    for horizon in (2, 3):
        for maximal_only in (True, False):
            width = len(spec.conflicts.maximal_phases() if maximal_only else feasible)
            if width**horizon > 1500:
                continue
            for snapshot in range(6):
                if snapshot % 2:
                    s, prev, _ = guard_active_instance(rng, spec, horizon)
                else:
                    s = TrafficSnapshot(0, tuple(
                        tuple(
                            VehicleRecord(int(rng.integers(1, 6)), int(rng.integers(0, 20)))
                            for _ in range(int(rng.integers(0, 4)))
                        )
                        for _ in range(8)
                    ))
                    prev = feasible[int(rng.integers(0, len(feasible)))]
                cfg = SolverConfig(horizon=horizon, maximal_only=maximal_only)
                sol = optimize_schedule(spec, s, prev, cfg)
                orc = exhaustive_oracle(spec, s, prev, cfg)
                assert_search_equals_oracle(sol, orc, horizon)
                checked += 1
    assert checked >= 12


def test_maximal_restriction_preserves_optimal_cost():
    # opening extra compatible paths never hurts, so restricting the
    # search to maximal phases must land on the same cost
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec, s, prev, cfg = random_instance(rng)
        if prev.mask and prev.mask not in {
            p.mask for p in spec.conflicts.maximal_phases()
        }:
            prev = spec.all_closed()
        k = min(cfg.horizon, 2)
        wide = SolverConfig(
            horizon=k, maximal_only=False, wmax=60, dynamics=cfg.dynamics
        )
        narrow = SolverConfig(
            horizon=k, maximal_only=True, wmax=60, dynamics=cfg.dynamics
        )
        assert (
            optimize_schedule(spec, s, prev, narrow).cost
            == optimize_schedule(spec, s, prev, wide).cost
        )


def test_guard_shapes_first_phase_of_solution():
    # whenever some front vehicle is overdue, the chosen schedule starts
    # by serving the oldest such path
    rng = np.random.default_rng(99)
    spec = IntersectionSpec.standard(max_queue_len=4)
    cfg = SolverConfig(horizon=2, wmax=30)
    for _ in range(20):
        queues = {}
        overdue = []
        for path in range(12):
            if rng.random() < 0.3:
                wait = int(rng.integers(0, 50))
                queues[path] = [(1, wait)]
                if wait >= 30:
                    overdue.append((wait, path))
        if not overdue:
            queues[3] = [(1, 44)]
            overdue.append((44, 3))
        s = snapshot_with(spec, queues)
        oldest = max(w for w, _ in overdue)
        target = min(p for w, p in overdue if w == oldest)
        sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
        assert sol.schedule[0].is_open(target)


def test_prefixing_previous_best_is_admissible():
    # a (k-1)-step optimum extended by one more phase can never beat the
    # k-step optimum; the k-step cost is bounded by any such extension
    spec = crossing_pair_spec(max_queue_len=3)
    s = snapshot_with(spec, {0: [(1, 0), (2, 1)], 1: [(3, 0)]})
    dyn = DynamicsConfig(phase_ticks=2, slow_start=1)
    short = optimize_schedule(
        spec, s, spec.all_closed(), SolverConfig(horizon=2, dynamics=dyn)
    )
    full = optimize_schedule(
        spec, s, spec.all_closed(), SolverConfig(horizon=3, dynamics=dyn)
    )
    for extension in spec.conflicts.maximal_phases():
        extended, _ = rollout_cost(
            spec, s, short.schedule + (extension,), spec.all_closed(), dyn
        )
        assert full.cost <= extended


def test_solution_reports_elapsed_time():
    spec = IntersectionSpec.standard(max_queue_len=4)
    sol = optimize_schedule(
        spec, spec.empty_snapshot(), spec.all_closed(), SolverConfig(horizon=1)
    )
    assert sol.elapsed_seconds >= 0.0


# (phase_ticks, slow_start) pairs for the memo tests
MEMO_TIMINGS = ((4, 1), (2, 1), (3, 2))


@given(
    st.lists(st.integers(min_value=1, max_value=10), max_size=21),
    st.integers(min_value=1, max_value=5),
    st.sampled_from(MEMO_TIMINGS),
)
@settings(max_examples=150)
def test_property_memoised_tables_equal_fresh_build(priorities, k, timing):
    big_d, small_s = timing
    key = (tuple(priorities), big_d, small_s, k)
    # twice, so the second read is a hit whatever the first one was
    assert _tables(*key) == _tables.__wrapped__(*key)
    assert _tables(*key) == _tables.__wrapped__(*key)


def assert_tuples_all_the_way_down(x):
    assert isinstance(x, tuple)
    for item in x:
        if isinstance(item, (tuple, list, dict, set)):
            assert_tuples_all_the_way_down(item)
        else:
            assert item is None or isinstance(item, int)


def test_memoised_tables_are_tuples_all_the_way_down():
    for priorities in ((), (1,), (10, 3, 1, 1), tuple(range(1, 22))):
        for k in (1, 3, 5):
            tables = _tables(priorities, 4, 1, k)
            assert len(tables) == 4
            assert_tuples_all_the_way_down(tables)


def memo_inputs():
    """C8 snapshots at k = 3 and k = 5, and guard-active states with an open prev phase."""
    packed = IntersectionSpec.standard(max_queue_len=10)
    inputs = []
    for seed in range(50):
        s = seed_initial_queues(SimConfig(spec=packed, intensity=1.0, seed=seed))
        inputs.append((packed, s, packed.all_closed(), SolverConfig(horizon=3)))
    for seed in range(2):
        s = seed_initial_queues(SimConfig(spec=packed, intensity=1.0, seed=seed))
        inputs.append((packed, s, packed.all_closed(), SolverConfig(horizon=5)))
    rng = np.random.default_rng(808)
    for horizon in (2, 3):
        for _ in range(10):
            spec = IntersectionSpec.standard(max_queue_len=4)
            s, prev, cfg = guard_active_instance(rng, spec, horizon)
            inputs.append((spec, s, prev, cfg))
    return inputs


def test_cold_and_warm_memo_give_identical_solutions():
    inputs = memo_inputs()
    _tables.cache_clear()
    cold = [optimize_schedule(*args) for args in inputs]
    assert _tables.cache_info().misses > 0
    hits = _tables.cache_info().hits
    warm = [optimize_schedule(*args) for args in inputs]
    assert _tables.cache_info().hits > hits
    for (_, _, prev, _), a, b in zip(inputs, cold, warm):
        assert a.schedule == b.schedule
        assert a.cost == b.cost
        assert a.nodes_explored == b.nodes_explored
    assert any(prev.mask for _, _, prev, _ in inputs)


def test_table_memo_stays_bounded_after_drain_sweep(tmp_path):
    instance = tmp_path / "instance.json"
    out = tmp_path / "sweep.csv"
    save_instance(IntersectionSpec.standard(), str(instance))
    code = cli_main(
        [
            "sweep", "--instance", str(instance), "--intensity", "0.5,1.0",
            "--runs", "3", "--policy", "horizon", "--out", str(out),
        ]
    )
    assert code == 0
    info = _tables.cache_info()
    assert info.maxsize == 1 << 10
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > 0


def width_inputs(rng, spec, snapshots=2):
    """Seeded snapshots of `spec` with a random subset of paths emptied,
    each with a random feasible (or all-closed) previous phase."""
    feasible = (spec.all_closed(),) + spec.conflicts.feasible_phases()
    out = []
    for seed in range(snapshots):
        full = seed_initial_queues(SimConfig(spec=spec, intensity=1.0, seed=seed))
        keep = rng.random(spec.num_paths) < 0.7
        s = TrafficSnapshot(0, tuple(q if k else () for q, k in zip(full.queues, keep)))
        out.append((s, feasible[int(rng.integers(0, len(feasible)))]))
    return out


def test_search_matches_oracle_across_widths_sharing_the_bit_index():
    # 9, 12 and 15 paths read one mask index; the second pass runs the
    # widths in reverse, so it reads entries the other widths made
    rng = np.random.default_rng(3145)
    specs = [IntersectionSpec.standard(arms=a, max_queue_len=2) for a in (3, 4, 5)]
    inputs = {spec.arms: width_inputs(rng, spec) for spec in specs}
    _bits.clear()
    for order in (specs, specs[::-1]):
        for spec in order:
            for maximal_only in (True, False):
                conflicts = spec.conflicts
                n = len(conflicts.maximal_phases() if maximal_only else conflicts.feasible_phases())
                for k in (1, 2, 3):
                    # deeper plans only while the oracle enumerates at
                    # most 1,500 schedules, to keep its rollouts quick
                    if k > 1 and n**k > 1500:
                        continue
                    cfg = SolverConfig(horizon=k, maximal_only=maximal_only)
                    for s, prev in inputs[spec.arms]:
                        sol = optimize_schedule(spec, s, prev, cfg)
                        orc = exhaustive_oracle(spec, s, prev, cfg)
                        assert sol.schedule == orc.schedule
                        assert sol.cost == orc.cost
                        assert sol.nodes_explored <= orc.nodes_explored
    # masks of the 15-path junction reach past the 9-path one's bits
    assert max(_bits).bit_length() > 9


def test_bit_index_stays_bounded_without_changing_plans(monkeypatch):
    spec = IntersectionSpec.standard(max_queue_len=3)
    rng = np.random.default_rng(2718)
    plans = [
        (s, prev, SolverConfig(horizon=k, maximal_only=maximal_only))
        for s, prev in width_inputs(rng, spec, snapshots=3)
        for k, maximal_only in ((1, False), (2, True), (3, True))
    ]

    def solve_all():
        return [
            (sol.schedule, sol.cost, sol.nodes_explored)
            for sol in (optimize_schedule(spec, s, prev, cfg) for s, prev, cfg in plans)
        ]

    _bits.clear()
    reference = solve_all()
    assert len(_bits) > 8

    sizes = []

    def recorded(m):
        got = _set_bits(m)
        sizes.append(len(_bits))
        return got

    monkeypatch.setattr(solver, "_BITS_MAXSIZE", 8)
    monkeypatch.setattr(solver, "_set_bits", recorded)
    _bits.clear()
    assert solve_all() == reference
    assert len(sizes) > 8
    assert max(sizes) == 8
