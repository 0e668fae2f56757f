"""Tests for the branch-and-bound schedule search and its brute-force twin."""

import os
from functools import cache

import numpy as np
import pytest
from hypothesis import Phase as HypothesisPhase
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    DynamicsConfig,
    IntersectionSpec,
    Movement,
    Phase,
    PolicyKind,
    SolverConfig,
    TrafficSnapshot,
    Turn,
    SimConfig,
    SimMode,
    VehicleRecord,
    candidate_phases,
    enumerate_feasible_phases,
    exhaustive_oracle,
    initial_green_ages,
    load_instance,
    optimize_schedule,
    rollout_cost,
    run_episode,
    save_instance,
    seed_initial_queues,
    standard_movements,
)
import greenlight.cli as cli
from greenlight.cli import main as cli_main
from greenlight.errors import DimensionError, InvalidSpecError, OracleTooLargeError, TooManyPhasesError
import greenlight.model as model
import greenlight.simulator as simulator
import greenlight.solver as solver
from greenlight.model import _bits, _set_bits
from greenlight.solver import _clique_terms, _phases_opening, _tables

from helpers import bellman_plan, lower_bound, snapshot_with, symmetric_matrix_strategy


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
    phases = candidate_phases(spec, snapshot_with(spec, {}), cfg)
    assert len(phases) == 7
    assert [p.mask for p in phases] == list(range(1, 8))


def test_candidates_restricted_to_maximal():
    spec = zero_conflict_spec(3)
    cfg = SolverConfig(maximal_only=True)
    phases = candidate_phases(spec, snapshot_with(spec, {}), cfg)
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
    phases = candidate_phases(spec, s, cfg)
    assert phases
    assert all(p.is_open(5) for p in phases)


def test_guard_prefers_longest_wait():
    # waits 70 on path 2 and 65 on path 9: path 2 is older, so all
    # candidates open path 2
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=60)
    s = snapshot_with(spec, {2: [(1, 70)], 9: [(1, 65)]})
    phases = candidate_phases(spec, s, cfg)
    assert phases
    assert all(p.is_open(2) for p in phases)


def test_guard_wait_tie_breaks_to_lowest_index():
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=60)
    s = snapshot_with(spec, {9: [(1, 70)], 2: [(1, 70)]})
    phases = candidate_phases(spec, s, cfg)
    assert phases
    assert all(p.is_open(2) for p in phases)


@given(symmetric_matrix_strategy(), st.booleans())
@example(ConflictMatrix(~np.eye(10, dtype=bool)), True)
@example(ConflictMatrix(~np.eye(10, dtype=bool)), False)
@settings(max_examples=100)
def test_property_guard_always_has_a_candidate(cm, maximal_only):
    # a lone path never conflicts with itself, so it is a feasible phase
    # inside some maximal one: every path has a phase opening it, even on
    # the complete conflict graph, and the guard never runs out
    spec = IntersectionSpec(
        arms=4, paths=standard_movements(4)[: cm.paths], max_queue_len=2, conflicts=cm
    )
    cfg = SolverConfig(maximal_only=maximal_only, wmax=60)
    base = cm.phase_masks(maximal_only)
    for i in range(cm.paths):
        opening = _phases_opening(base, i)
        assert opening
        assert all(m >> i & 1 for m in opening)
        # path i alone is overdue; every other front vehicle is one tick short
        queues = {j: [(1, 59)] for j in range(cm.paths)}
        queues[i] = [(1, 60)]
        got = candidate_phases(spec, snapshot_with(spec, queues), cfg)
        assert got == tuple(Phase(m, cm.paths) for m in opening)


def test_guard_disabled_ignores_waits():
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(wmax=None)
    s = snapshot_with(spec, {5: [(1, 999)]})
    phases = candidate_phases(spec, s, cfg)
    assert any(not p.is_open(5) for p in phases)


def test_optimize_empty_snapshot_takes_lex_smallest():
    # every schedule costs 0, so the tie-break picks the smallest maximal
    # phase at every depth
    spec = IntersectionSpec.standard(max_queue_len=6)
    cfg = SolverConfig(horizon=3)
    sol = optimize_schedule(spec, snapshot_with(spec, {}), spec.all_closed(), cfg)
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
    orc = exhaustive_oracle(spec, snapshot_with(spec, {}), spec.all_closed(), cfg)
    assert orc.cost == 0


def test_oracle_refuses_oversized_search(monkeypatch):
    # the cap is read when the oracle is called
    spec = IntersectionSpec.standard(max_queue_len=4)
    cfg = SolverConfig(horizon=3)
    monkeypatch.setattr(solver, "DEFAULT_ORACLE_CAP", 100)
    with pytest.raises(OracleTooLargeError, match="cap of 100"):
        exhaustive_oracle(spec, snapshot_with(spec, {}), spec.all_closed(), cfg)
    # the guard narrows the root to 3 phases (3^3 = 27), but it lifts once
    # the overdue vehicle leaves, so 3 x 12 x 12 = 432 leaves lie below it
    guarded = snapshot_with(spec, {1: [(1, 70), (1, 0)]})
    monkeypatch.setattr(solver, "DEFAULT_ORACLE_CAP", 27)
    with pytest.raises(OracleTooLargeError):
        exhaustive_oracle(spec, guarded, spec.all_closed(), cfg)


def assert_search_equals_oracle(sol, orc, horizon):
    """Same schedule and cost, and no more nodes than the oracle at any depth."""
    assert sol.schedule == orc.schedule
    assert sol.cost == orc.cost
    assert len(sol.nodes_by_depth) == len(orc.nodes_by_depth) == horizon
    assert sum(sol.nodes_by_depth) == sol.nodes_explored
    assert sum(orc.nodes_by_depth) == orc.nodes_explored
    assert all(a <= b for a, b in zip(sol.nodes_by_depth, orc.nodes_by_depth))


# (phase_ticks, slow_start) pairs of the random-junction properties: the
# default, the memo timings, three with slow_start = 0 or phase_ticks - 1,
# and (4, 2)
JUNCTION_TIMINGS = ((4, 1), (2, 1), (3, 2), (1, 0), (2, 0), (4, 3), (4, 2))
# the most schedules (candidates ** k) a drawn case may hand to the oracle
ORACLE_BUDGET = 1500


@st.composite
def random_junction_cases(draw, max_paths=8):
    """A random junction, timing, guard, horizon, candidate list, state and prev.

    The matrix has 1 to max_paths paths at any density. wmax is None or
    phase_ticks * slow_start + 1 to + 12, so with waits of 0 to 24 the
    guard fires at the root or deeper in many draws. In about half the
    draws every priority is 1, so many schedules tie at the optimum. prev
    is all red or any feasible phase. Draws whose unguarded candidates **
    k exceed ORACLE_BUDGET are skipped.
    """
    cm = draw(symmetric_matrix_strategy(max_paths))
    spec = IntersectionSpec(
        arms=4, paths=standard_movements(4)[: cm.paths], max_queue_len=6, conflicts=cm
    )
    phase_ticks, slow_start = draw(st.sampled_from(JUNCTION_TIMINGS))
    floor = phase_ticks * slow_start
    cfg = SolverConfig(
        horizon=draw(st.integers(min_value=1, max_value=4)),
        maximal_only=draw(st.booleans()),
        wmax=draw(st.none() | st.integers(min_value=floor + 1, max_value=floor + 12)),
        dynamics=DynamicsConfig(phase_ticks=phase_ticks, slow_start=slow_start),
    )
    assume(len(cm.phase_masks(cfg.maximal_only)) ** cfg.horizon <= ORACLE_BUDGET)
    top = draw(st.sampled_from((1, 5)))
    vehicle = st.builds(
        VehicleRecord, st.integers(min_value=1, max_value=top), st.integers(min_value=0, max_value=24)
    )
    queues = draw(
        st.lists(
            st.lists(vehicle, max_size=6).map(tuple), min_size=cm.paths, max_size=cm.paths
        )
    )
    prev = draw(st.just(spec.all_closed()) | st.sampled_from(enumerate_feasible_phases(cm)))
    return spec, TrafficSnapshot(0, tuple(queues)), prev, cfg


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
    # the default junction at default dynamics (D=4, S=1), so warm and
    # cold paths differ; the guard fires at the root and may retarget
    # deeper; prev is open
    rng = np.random.default_rng(4100 + horizon)
    spec = IntersectionSpec.standard(max_queue_len=4)
    for _ in range(8):
        s, prev, cfg = guard_active_instance(rng, spec, horizon)
        assert prev.mask
        assert max(q[0].wait for q in s.queues if q) >= cfg.wmax
        sol = optimize_schedule(spec, s, prev, cfg)
        orc = exhaustive_oracle(spec, s, prev, cfg)
        assert_search_equals_oracle(sol, orc, horizon)


def reach_case(horizon, queues):
    """A default-junction plan entered from a phase that opens path 1."""
    spec = IntersectionSpec.standard()
    prev = next(Phase(m, spec.num_paths) for m in spec.conflicts.phase_masks(True) if m >> 1 & 1)
    return spec, snapshot_with(spec, queues), prev, SolverConfig(horizon=horizon)


def test_guard_fires_at_the_last_record_a_plan_can_reach():
    # k = 3, D = 4: path 1 stays warm for two blocks and puts its index-8
    # vehicle (wait 55 + 8 >= 60) in front at depth 2, the deepest record
    # the set-up reads; every vehicle before it stays under wmax there
    queues = {1: [(5, 40)] * 8 + [(1, 55)] + [(1, 10)] * 3, 4: [(5, 30)] * 6,
              8: [(3, 20)] * 4, 2: [(2, 10)] * 3}
    spec, s, prev, cfg = reach_case(3, queues)
    assert max(v.wait for q in s.queues for v in q[:8]) + 8 < cfg.wmax <= s.queues[1][8].wait + 8
    sol = optimize_schedule(spec, s, prev, cfg)
    orc = exhaustive_oracle(spec, s, prev, cfg)
    assert_search_equals_oracle(sol, orc, 3)
    # the guard keeps path 1 open in the last block; unguarded, it closes
    assert sol.schedule[2].is_open(1)
    loose = optimize_schedule(spec, s, prev, SolverConfig(horizon=3, wmax=None))
    assert not loose.schedule[2].is_open(1) and loose.cost < sol.cost


@pytest.mark.parametrize("horizon", [1, 2])
def test_waits_past_the_reach_do_not_move_a_plan(horizon):
    # the vehicle at index (k - 1) x D + 1 of path 1 is overdue, but no
    # block can bring it to the front; every front stays under wmax
    deep = (horizon - 1) * 4 + 1

    def queues(wait):
        return {1: [(2, 30)] * deep + [(1, wait)] + [(1, 5)] * 2, 4: [(3, 40)] * 5, 8: [(1, 50)] * 2}

    spec, s, prev, cfg = reach_case(horizon, queues(70))
    oldest = max(v.wait for q in s.queues for v in q[:deep])
    assert oldest + deep - 1 < cfg.wmax < s.queues[1][deep].wait
    sol = optimize_schedule(spec, s, prev, cfg)
    orc = exhaustive_oracle(spec, s, prev, cfg)
    assert_search_equals_oracle(sol, orc, horizon)
    young = optimize_schedule(*reach_case(horizon, queues(0)))
    assert (young.schedule, young.cost, young.nodes_by_depth) == (
        sol.schedule, sol.cost, sol.nodes_by_depth)


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


def test_all_feasible_plan_on_the_c8_snapshot_is_pinned():
    # the 4-arm all-feasible k = 2 plan of C8's seed-0 snapshot, pinned:
    # its cost, schedule and nodes per depth (all 335 candidates at each)
    spec = IntersectionSpec.standard(max_queue_len=10)
    s = seed_initial_queues(SimConfig(spec=spec, intensity=1.0, seed=0))
    sol = optimize_schedule(spec, s, spec.all_closed(), SolverConfig(horizon=2, maximal_only=False))
    assert sol.cost == 1045
    assert sol.nodes_by_depth == (335, 335)
    assert [ph.open_paths() for ph in sol.schedule] == [(0, 1, 3, 6, 9, 11)] * 2


@given(random_junction_cases(max_paths=4), st.integers(min_value=1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_search_bound_is_admissible_and_above_lower_bound(case, rest):
    # the bound the search adds after a first block, read from the path
    # tables as the search reads it, against the exact cheapest
    # continuation over `rest` blocks: never above it, never below
    # lower_bound
    spec, s, prev, cfg = case
    dyn = cfg.dynamics
    tables = [
        _tables(tuple(v.priority for v in q), dyn.phase_ticks, dyn.slow_start, rest + 1)
        for q in s.queues
    ]
    # maximal continuations reach the unrestricted optimum
    free = SolverConfig(horizon=rest, wmax=None, dynamics=dyn)
    for first in enumerate_feasible_phases(spec.conflicts):
        bound = 0
        for i, (_, cold_bound, cold, warm) in enumerate(tables):
            bound += cold_bound[0][0]
            if first.is_open(i):
                both, cost, _ = (warm if prev.is_open(i) else cold)[0][0]
                bound += both - cost
        _, after = rollout_cost(spec, s, (first,), prev, dyn)
        best = exhaustive_oracle(spec, after, first, free).cost
        assert lower_bound(after, rest * dyn.phase_ticks) <= bound <= best


def check_last_block_bounds(spec, s, prev, cfg, firsts):
    """Check the last block's per-path and clique bounds after each first phase.

    One block is left after the first, as at depth k - 2 of the search.
    Returns how many first phases the clique bound lies strictly above
    the per-path bound at.
    """
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
    guarded = SolverConfig(horizon=1, maximal_only=cfg.maximal_only, wmax=cfg.wmax, dynamics=dyn)
    rises = 0
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
        rises += clique_bound > path_bound
    return rises


@given(random_junction_cases(max_paths=5))
@settings(max_examples=50, deadline=None)
def test_clique_bound_lies_between_path_bound_and_best_continuation(case):
    # the per-path bound prices the last block as if every path opened;
    # the clique bound opens at most one path per clique. Both are read
    # from the tables as the search reads them, and checked against
    # last-block costs from rollout_cost, which shares no code with the
    # tables, and against the exact best continuation, after every
    # feasible first phase
    check_last_block_bounds(*case, enumerate_feasible_phases(case[0].conflicts))


def test_clique_bound_on_guard_states_of_the_default_junction():
    # as above on seeded guard states of the default junction, after each
    # all-feasible candidate its guard leaves
    rng = np.random.default_rng(4747)
    spec = IntersectionSpec.standard(max_queue_len=4)
    rises = 0
    for _ in range(2):
        s, prev, cfg = guard_active_instance(rng, spec, 2)
        wide = SolverConfig(horizon=2, maximal_only=False, dynamics=cfg.dynamics)
        rises += check_last_block_bounds(spec, s, prev, cfg, candidate_phases(spec, s, wide))
    # both states together give 232
    assert rises >= 232


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
    feasible = enumerate_feasible_phases(spec.conflicts)
    checked = 0
    for horizon in (2, 3):
        for maximal_only in (True, False):
            width = len(spec.conflicts.phase_masks(maximal_only))
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


@given(random_junction_cases())
@settings(max_examples=200, deadline=None)
def test_property_search_equals_oracle_on_random_junctions(case):
    # 1-8 paths at any density, seven timings, the guard on or off, k =
    # 1-4, both candidate lists, prev all red or any feasible phase, and
    # unit priorities in about half the draws, where the greedy dive's
    # leaf may tie with a lexicographically smaller optimum: same schedule
    # and cost as the oracle, no more nodes at any depth, and the schedule
    # replayed by rollout_cost costs what the search reported. All-feasible
    # lists are scored by the incidence product, guard-filtered ones by the
    # incidence rows of the phases that open the guard's target
    spec, s, prev, cfg = case
    sol = optimize_schedule(spec, s, prev, cfg)
    orc = exhaustive_oracle(spec, s, prev, cfg)
    assert_search_equals_oracle(sol, orc, cfg.horizon)
    assert rollout_cost(spec, s, sol.schedule, prev, cfg.dynamics)[0] == sol.cost


# (arms, horizon, maximal_only, wmax) of the reference's cases inside the
# oracle's range; the queues come from guard_active_instance
BELLMAN_ORACLE_CASES = [
    (4, 2, True, None), (4, 2, True, 60), (4, 3, True, None), (4, 3, True, 60), (3, 2, False, 60),
]


@pytest.mark.parametrize("arms, horizon, maximal_only, wmax", BELLMAN_ORACLE_CASES)
def test_bellman_reference_equals_the_oracle(arms, horizon, maximal_only, wmax):
    # the recursion over (block, departed counts, previous phase) finds the
    # oracle's schedule and cost, the guard on or off, on both candidate lists
    spec = IntersectionSpec.standard(arms, max_queue_len=4)
    rng = np.random.default_rng(5200 + 10 * arms + horizon)
    for _ in range(2):
        s, prev, _ = guard_active_instance(rng, spec, horizon)
        cfg = SolverConfig(horizon=horizon, maximal_only=maximal_only, wmax=wmax)
        orc = exhaustive_oracle(spec, s, prev, cfg)
        assert bellman_plan(spec, s, prev, cfg) == (orc.cost, orc.schedule)


DEEP_SPEC = IntersectionSpec.standard(max_queue_len=8)


@st.composite
def deep_plan_cases(draw):
    """A plan on the default junction at k = 4 or 5, too deep for the oracle in tier-1.

    wmax is 60 or None. Waits are multiples of phase_ticks up to 68, so
    front waits often tie, as in a drain, and the guard fires at the root,
    only at a deeper block, or never. prev is all red or any feasible phase.
    """
    cfg = SolverConfig(horizon=draw(st.sampled_from((4, 5))), wmax=draw(st.sampled_from((60, None))))
    waits = st.integers(min_value=0, max_value=17).map(lambda n: 4 * n)
    vehicle = st.builds(VehicleRecord, st.sampled_from((1, 3, 10)), waits)
    queues = draw(st.lists(st.lists(vehicle, max_size=8).map(tuple), min_size=12, max_size=12))
    prev = draw(st.just(DEEP_SPEC.all_closed())
                | st.sampled_from(enumerate_feasible_phases(DEEP_SPEC.conflicts)))
    return TrafficSnapshot(0, tuple(queues)), prev, cfg


@given(deep_plan_cases())
@settings(
    max_examples=8,
    deadline=None,
    phases=[p for p in HypothesisPhase if p is not HypothesisPhase.shrink],
)
def test_property_search_equals_bellman_reference_at_depth_four_and_five(case):
    # where the oracle would enumerate 12^4 or 12^5 schedules, too slow for
    # tier-1, the search returns the reference's schedule and cost. A
    # failure reports its first example unshrunk: each shrink step would
    # re-solve a deep plan with the reference, for minutes in all
    s, prev, cfg = case
    sol = optimize_schedule(DEEP_SPEC, s, prev, cfg)
    assert (sol.cost, sol.schedule) == bellman_plan(DEEP_SPEC, s, prev, cfg)


@cache
def drain_grid_decisions():
    """(spec, snapshot, prev_phase, cfg) of every horizon decision of the C3 drain grid.

    C3's sweep (4 intensities, the default junction at queue cap 21 and
    default settings) at seeds 0-4, horizon episodes only, since f1 and
    f2 never plan: 342 decisions.
    """
    seen = []
    real = simulator.decide_horizon_opt

    def spy(spec, s, st, cfg):
        seen.append((spec, s, st.prev_phase, cfg))
        return real(spec, s, st, cfg)

    sweep = cli.SweepSpec(intensities=(0.25, 0.5, 0.75, 1.0), runs=5, policies=(PolicyKind.HORIZON,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "decide_horizon_opt", spy)
        for _ in cli.sweep_episodes(IntersectionSpec.standard(), sweep, SimMode.DRAIN, SolverConfig()):
            pass
    return tuple(seen)


def test_drain_grid_decisions_equal_the_bellman_reference():
    # the states the C3 grid really plans from, with queues of up to 21,
    # past the oracle's reach: the search returns the reference's schedule
    # and cost. Tier-1 checks every tenth decision and each episode's first,
    # where all four near turns are queued, so the conflict-free paths are
    # priced apart; GREENLIGHT_ALL_DECISIONS=1 checks all 342
    decisions = drain_grid_decisions()
    assert len(decisions) == 342
    firsts = [j for j, (_, s, _, _) in enumerate(decisions) if s.tick == 0]
    assert len(firsts) == 20
    assert all(decisions[j][1].queues[i] for j in firsts for i in (0, 3, 6, 9))
    checked = sorted(set(firsts) | set(range(0, len(decisions), 10)))
    if os.environ.get("GREENLIGHT_ALL_DECISIONS") == "1":
        checked = range(len(decisions))
    for j in checked:
        spec, s, prev, cfg = decisions[j]
        sol = optimize_schedule(spec, s, prev, cfg)
        assert (sol.cost, sol.schedule) == bellman_plan(spec, s, prev, cfg), j


def free_path_cases():
    """Deterministic plans around the conflict-free paths, as pytest params.

    On standard(4) paths 0, 3, 6 and 9 (the near turns) conflict with
    nothing, and path 1 conflicts with 4, 5, 8 and 10.
    """
    four = IntersectionSpec.standard(max_queue_len=8)
    loaded = {i: [(3, 8), (1, 4), (2, 0)] for i in range(12)}
    # the guard targets near turn 0 (front wait 70); without that front it
    # would target path 4 (62), which conflicts with the heavy path 1
    guard_on_free = snapshot_with(
        four, {0: [(1, 70), (1, 10), (1, 5)], 4: [(1, 62)], 1: [(10, 0)] * 6, 5: [(2, 30)]}
    )
    assert solver._guard_target([q[0].wait if q else None for q in guard_on_free.queues], 60) == 0
    # path 3 empties in block 1 and path 0 in block 2; path 6's lone
    # vehicle (wait 58) leaves in block 1, before path 2's front (57)
    # crosses wmax at depth 1
    emptying = snapshot_with(
        four, {3: [(2, 5), (1, 0)], 0: [(1, 0)] * 6, 6: [(1, 58)], 2: [(1, 57), (5, 0)],
               7: [(3, 20)] * 3, 10: [(4, 10)] * 2}
    )
    some_free = Phase(0b11, 12)  # near turn 0 and straight 1: opens one free path
    cases = []
    for k in (2, 3, 4):
        cases.append(pytest.param(four, guard_on_free, four.all_closed(), SolverConfig(horizon=k),
                                  id=f"guard-targets-a-free-path-k{k}"))
        cases.append(pytest.param(four, emptying, Phase(0b1001001111, 12), SolverConfig(horizon=k),
                                  id=f"free-queue-empties-k{k}"))
    s = snapshot_with(four, loaded)
    for name, prev in (("closed", four.all_closed()), ("open", Phase(0b1001001111, 12)),
                       ("partly-open", some_free)):
        for k in (1, 3, 5):
            cases.append(pytest.param(four, s, prev, SolverConfig(horizon=k, wmax=None),
                                      id=f"prev-{name}-k{k}"))
    for arms, ks in ((3, (3, 5)), (5, (2, 4))):
        spec = IntersectionSpec.standard(arms, max_queue_len=6)
        s = snapshot_with(spec, {i: [(1 + i % 3, 4 * i), (2, 0)] for i in range(spec.num_paths)})
        for k in ks:
            cases.append(pytest.param(spec, s, spec.all_closed(), SolverConfig(horizon=k),
                                      id=f"standard{arms}-k{k}"))
    cases.append(pytest.param(four, snapshot_with(four, loaded), four.all_closed(),
                              SolverConfig(horizon=1, maximal_only=False), id="all-feasible-k1"))
    merged = IntersectionSpec.standard(max_queue_len=8, merge_conflicts=True)
    for k in (2, 4):
        cases.append(pytest.param(merged, snapshot_with(merged, loaded), merged.all_closed(),
                                  SolverConfig(horizon=k), id=f"merge-conflicts-k{k}"))
    tiny = zero_conflict_spec(max_queue_len=4)
    s = snapshot_with(tiny, {0: [(1, 0)] * 4, 1: [(2, 61), (1, 0)], 2: [(5, 0)]})
    for maximal_only in (True, False):
        for k in (2, 5):
            cases.append(pytest.param(tiny, s, Phase(0b001, 3),
                                      SolverConfig(horizon=k, maximal_only=maximal_only),
                                      id=f"no-conflicts-maximal-{maximal_only}-k{k}"))
    return cases


@pytest.mark.parametrize("spec, s, prev, cfg", free_path_cases())
def test_search_prices_conflict_free_paths_exactly(spec, s, prev, cfg):
    # the search prices queued conflict-free paths once on maximal lists:
    # the same schedule and cost as the oracle (k <= 3, with no more nodes
    # at any depth) or the Bellman reference (k = 4-5), and the schedule
    # replays at its reported cost
    sol = optimize_schedule(spec, s, prev, cfg)
    if cfg.horizon <= 3:
        assert_search_equals_oracle(sol, exhaustive_oracle(spec, s, prev, cfg), cfg.horizon)
    else:
        assert (sol.cost, sol.schedule) == bellman_plan(spec, s, prev, cfg)
    assert rollout_cost(spec, s, sol.schedule, prev, cfg.dynamics)[0] == sol.cost


def test_conflict_free_mask_is_the_and_of_the_maximal_phases():
    # the cached mask the search reads: the near turns of standard
    # junctions, none with merge_conflicts, every path with no conflicts
    for arms in (3, 4, 5, 6):
        cm = IntersectionSpec.standard(arms).conflicts
        together = (1 << cm.paths) - 1
        for m in cm.phase_masks(True):
            together &= m
        assert cm._free == together == sum(1 << i for i in range(0, cm.paths, 3))
    assert IntersectionSpec.standard(merge_conflicts=True).conflicts._free == 0
    assert zero_conflict_spec().conflicts._free == 0b111
    assert crossing_pair_spec().conflicts._free == 0


@given(random_junction_cases(max_paths=6))
@settings(max_examples=100, deadline=None)
def test_maximal_restriction_preserves_optimal_cost(case):
    # with the guard off, opening extra compatible paths never hurts: a
    # superset phase releases at least the same vehicles and leaves at
    # least the same paths warm. So the maximal optimum equals the
    # all-feasible one. At k = 1 this also holds with the guard on, since
    # every guarded feasible phase lies inside a guarded maximal one.
    # Deeper, the guard can break it; see the next test
    spec, s, prev, cfg = case
    wmax = cfg.wmax if cfg.horizon == 1 else None
    narrow, wide = (
        SolverConfig(horizon=cfg.horizon, maximal_only=m, wmax=wmax, dynamics=cfg.dynamics)
        for m in (True, False)
    )
    assert optimize_schedule(spec, s, prev, narrow).cost == optimize_schedule(spec, s, prev, wide).cost


def test_maximal_candidates_can_cost_more_under_the_guard():
    # documented behaviour, not a defect of the search: with the guard on
    # and k > 1 the maximal optimum can lie above the all-feasible one.
    # Path 2 conflicts with paths 0 and 1; D = 4, S = 3, wmax = 14, k = 2.
    # Paths 0 and 2 hold one vehicle of wait 10, path 1 two vehicles. Both
    # maximal roots leave a front of wait 14: after {0,1} the guard forces
    # {2}, after {2} it forces {0,1}. The all-feasible root {1} leaves
    # paths 0 and 2 tied at 14, the tie goes to path 0, and {0,1} then
    # reopens path 1 warm: 2 cheaper despite a dearer first block
    spec = IntersectionSpec(
        arms=4,
        paths=standard_movements(4)[:3],
        max_queue_len=3,
        conflicts=ConflictMatrix(np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=bool)),
    )
    s = snapshot_with(spec, {0: [(2, 10)], 1: [(1, 2), (3, 0)], 2: [(2, 10)]})
    dyn = DynamicsConfig(phase_ticks=4, slow_start=3)
    costs = {}
    for wmax in (14, None):
        for maximal_only in (True, False):
            cfg = SolverConfig(horizon=2, maximal_only=maximal_only, wmax=wmax, dynamics=dyn)
            sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
            orc = exhaustive_oracle(spec, s, spec.all_closed(), cfg)
            assert_search_equals_oracle(sol, orc, 2)
            costs[wmax, maximal_only] = sol.cost, [str(ph) for ph in sol.schedule]
    assert costs[14, True] == (47, ["{0,1}", "{2}"])
    assert costs[14, False] == (45, ["{1}", "{0,1}"])
    assert costs[None, True][0] == costs[None, False][0] == 37


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


# Seeded drain instances of the default junction with short queues, as
# (max_queue_len, intensity, seed); chosen before any was solved
DRAIN_OPTIMUM_CASES = [(3, 0.5, 0), (3, 1.0, 1), (4, 0.5, 2), (4, 1.0, 3)]


@pytest.mark.parametrize("max_queue_len, intensity, seed", DRAIN_OPTIMUM_CASES)
def test_full_drain_optimum_bounds_the_horizon_controller(max_queue_len, intensity, seed):
    # A drain episode has no arrivals, so it is one planning problem. With
    # the guard off, raise k until the optimal plan empties every queue:
    # that plan is optimal for the whole episode, since any longer
    # schedule costs at least its first k blocks. Replayed through
    # rollout_cost, every plan costs what the search reported. A queued
    # vehicle pays its priority each tick, so the controller's episode
    # costs the sum of priority x wait over its wait log, and no
    # controller, the guarded k = 3 one included, can go below the optimum.
    spec = IntersectionSpec.standard(max_queue_len=max_queue_len)
    sim = SimConfig(spec=spec, intensity=intensity, seed=seed)
    s = seed_initial_queues(sim)
    prev = spec.all_closed()
    for k in range(1, 13):
        cfg = SolverConfig(horizon=k, wmax=None)
        optimum = optimize_schedule(spec, s, prev, cfg)
        cost, after = rollout_cost(spec, s, optimum.schedule, prev, cfg.dynamics)
        assert cost == optimum.cost
        if after.is_empty():
            break
    else:
        pytest.fail("no plan of up to 12 blocks drains every queue")
    stats, log = run_episode(sim, PolicyKind.HORIZON)
    assert stats.terminated and len(log) == sum(map(len, s.queues))
    assert sum(e.priority * e.wait_ticks for e in log) >= optimum.cost


@pytest.mark.parametrize("prev", [Phase(0b111, 3), Phase(1, 20)])
def test_prev_phase_of_the_wrong_width_is_rejected(prev):
    spec = IntersectionSpec.standard(max_queue_len=4)
    s = snapshot_with(spec, {0: [(1, 0)]})
    cfg = SolverConfig(horizon=1)
    for call in (
        lambda: optimize_schedule(spec, s, prev, cfg),
        lambda: exhaustive_oracle(spec, s, prev, cfg),
        lambda: rollout_cost(spec, s, (spec.all_closed(),), prev, cfg.dynamics),
        lambda: initial_green_ages(spec, prev, cfg.dynamics),
    ):
        with pytest.raises(DimensionError, match=f"phase width {prev.width} != matrix size 12"):
            call()


def test_solution_reports_elapsed_time():
    spec = IntersectionSpec.standard(max_queue_len=4)
    sol = optimize_schedule(
        spec, snapshot_with(spec, {}), spec.all_closed(), SolverConfig(horizon=1)
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
    feasible = [spec.all_closed(), *enumerate_feasible_phases(spec.conflicts)]
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
                n = len(conflicts.phase_masks(maximal_only))
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

    monkeypatch.setattr(model, "_BITS_MAXSIZE", 8)
    monkeypatch.setattr(solver, "_set_bits", recorded)
    _bits.clear()
    assert solve_all() == reference
    assert len(sizes) > 8
    assert max(sizes) == 8
