"""Tests for the three controllers: horizon optimizer, F1 greedy, F2 fixed-time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    ControllerState,
    DynamicsConfig,
    IntersectionSpec,
    Phase,
    PolicyKind,
    SolverConfig,
    TrafficSnapshot,
    VehicleRecord,
    decide_f1,
    decide_f2,
    decide_horizon_opt,
    default_f2_cycle,
    exhaustive_oracle,
    is_feasible_phase,
    make_controller_state,
    rollout_cost,
    standard_movements,
)
from greenlight.errors import InvalidCycleError


def spec12():
    return IntersectionSpec.standard(max_queue_len=6)


def snapshot_with(spec, path_queues, tick=0):
    queues = [()] * spec.num_paths
    for path, vehicles in path_queues.items():
        queues[path] = tuple(VehicleRecord(p, w) for p, w in vehicles)
    return TrafficSnapshot(tick, tuple(queues))


def test_policy_tokens():
    assert PolicyKind.HORIZON.value == "horizon"
    assert PolicyKind.F1.value == "f1"
    assert PolicyKind.F2.value == "f2"


def test_make_controller_state_starts_red():
    spec = spec12()
    st_ = make_controller_state(spec, PolicyKind.HORIZON)
    assert st_.prev_phase == spec.all_closed()
    assert st_.f2_cycle == ()
    assert make_controller_state(spec, PolicyKind.F2).f2_cycle == default_f2_cycle(spec)


def test_default_f2_cycle_is_maximal_phases():
    spec = spec12()
    cycle = default_f2_cycle(spec)
    assert cycle == spec.conflicts.maximal_phases()
    assert len(cycle) == 12


def test_horizon_empty_snapshot_takes_lex_smallest_maximal():
    spec = spec12()
    st_ = make_controller_state(spec, PolicyKind.HORIZON)
    phase = decide_horizon_opt(spec, spec.empty_snapshot(), st_, SolverConfig(horizon=2))
    assert phase == spec.conflicts.maximal_phases()[0]


def test_horizon_first_phase_matches_oracle():
    spec = spec12()
    s = snapshot_with(spec, {1: [(1, 0), (1, 0)], 4: [(5, 2)], 10: [(3, 0)]})
    cfg = SolverConfig(horizon=2)
    st_ = make_controller_state(spec, PolicyKind.HORIZON)
    chosen = decide_horizon_opt(spec, s, st_, cfg)
    oracle = exhaustive_oracle(spec, s, st_.prev_phase, cfg)
    assert chosen == oracle.schedule[0]


def test_f1_includes_only_occupied_path():
    # 5 vehicles on path 0 and nothing else: max coverage requires bit 0
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0)] * 5})
    assert decide_f1(s, spec.conflicts).is_open(0)


def test_f1_empty_ties_to_lex_smallest():
    spec = spec12()
    assert decide_f1(spec.empty_snapshot(), spec.conflicts) == (
        spec.conflicts.maximal_phases()[0]
    )


def test_f1_prefers_combined_coverage():
    # path 0 fights everyone, paths 1..3 are mutually compatible; 5 on
    # path 0 against 3 + 3 split: the pair phase covers 6 and wins
    data = np.zeros((4, 4), dtype=bool)
    for j in (1, 2, 3):
        data[0, j] = data[j, 0] = True
    spec = IntersectionSpec(
        arms=4,
        paths=standard_movements(4)[:4],
        max_queue_len=6,
        conflicts=ConflictMatrix(data),
    )
    s = snapshot_with(spec, {0: [(1, 0)] * 5, 1: [(1, 0)] * 3, 2: [(1, 0)] * 3})
    phase = decide_f1(s, spec.conflicts)
    assert phase.mask == 0b1110
    assert not phase.is_open(0)


def test_f2_tick_zero_takes_first_phase():
    spec = spec12()
    st_ = make_controller_state(spec, PolicyKind.F2)
    assert decide_f2(0, st_, 4) == st_.f2_cycle[0]


def test_f2_index_arithmetic():
    # four-phase cycle, D=4: tick 9 sits in block 9 // 4 = 2, index 2
    spec = spec12()
    maximal = spec.conflicts.maximal_phases()
    by_mask = {p.mask: p for p in maximal}
    lefts = (1 << 0) | (1 << 3) | (1 << 6) | (1 << 9)
    cycle = tuple(
        by_mask[lefts | extra]
        for extra in ((1 << 1) | (1 << 2), (1 << 4) | (1 << 5),
                      (1 << 7) | (1 << 8), (1 << 10) | (1 << 11))
    )
    st_ = ControllerState(prev_phase=spec.all_closed(), f2_cycle=cycle)
    assert decide_f2(9, st_, 4) == cycle[2]
    # wraps around after one full cycle
    assert decide_f2(16, st_, 4) == cycle[0]


def test_f2_singleton_cycle_gives_equal_green_time():
    # a cycle of one singleton phase per path opens every path for
    # exactly D ticks per revolution
    spec = spec12()
    cycle = tuple(Phase(1 << i, 12) for i in range(12))
    st_ = ControllerState(prev_phase=spec.all_closed(), f2_cycle=cycle)
    d = 4
    green = [0] * 12
    for tick in range(12 * d):
        phase = decide_f2(tick, st_, d)
        for i in phase.open_paths():
            green[i] += 1
    assert green == [d] * 12


def test_f2_is_blind_to_queues():
    spec = spec12()
    st_ = make_controller_state(spec, PolicyKind.F2)
    for tick in (0, 3, 17, 120):
        assert decide_f2(tick, st_, 4) == decide_f2(tick, st_, 4)
    # the signature admits no snapshot at all; two states with the same
    # cycle agree regardless of their history
    other = ControllerState(
        prev_phase=spec.conflicts.maximal_phases()[3],
        f2_cycle=st_.f2_cycle,
    )
    assert decide_f2(17, st_, 4) == decide_f2(17, other, 4)


def test_f2_rejects_cycle_missing_paths():
    spec = spec12()
    with pytest.raises(InvalidCycleError):
        ControllerState(
            prev_phase=spec.all_closed(),
            f2_cycle=(spec.conflicts.maximal_phases()[0],),
        )


def test_f2_rejects_empty_cycle():
    spec = spec12()
    st_ = make_controller_state(spec, PolicyKind.HORIZON)
    with pytest.raises(InvalidCycleError):
        decide_f2(0, st_, 4)


def queue_counts_strategy():
    return st.lists(
        st.integers(min_value=0, max_value=6), min_size=12, max_size=12
    )


@given(queue_counts_strategy())
@settings(max_examples=100)
def test_property_f1_coverage_is_maximal(counts):
    spec = spec12()
    s = snapshot_with(
        spec, {i: [(1, 0)] * n for i, n in enumerate(counts) if n}
    )
    chosen = decide_f1(s, spec.conflicts)
    cover = sum(counts[i] for i in chosen.open_paths())
    for phase in spec.conflicts.maximal_phases():
        assert cover >= sum(counts[i] for i in phase.open_paths())


def reference_f1(s, phases):
    """The plain scan: first phase in list order with the most queued vehicles."""
    best, best_cover = None, -1
    for ph in phases:
        cover = sum(len(s.queues[i]) for i in ph.open_paths())
        if cover > best_cover:
            best, best_cover = ph, cover
    return best


def test_f1_matches_reference_scan_on_random_queues():
    # the cached open paths of the matrix's maximal phases pick what the
    # plain scan picks, ties included
    rng = np.random.default_rng(606)
    specs = [IntersectionSpec.standard(a, max_queue_len=6) for a in (3, 4, 5)]
    for spec in specs:
        cm = spec.conflicts
        maximal = cm.maximal_phases()
        for _ in range(60):
            # few distinct lengths, so cover ties are common
            counts = rng.integers(0, 3, size=spec.num_paths) * int(rng.integers(1, 4))
            s = snapshot_with(spec, {i: [(1, 0)] * int(n) for i, n in enumerate(counts) if n})
            assert decide_f1(s, cm) == reference_f1(s, maximal)
        assert cm.maximal_open_paths() is cm.maximal_open_paths()
        assert cm.maximal_open_paths() == tuple(ph.open_paths() for ph in maximal)


@given(queue_counts_strategy(), st.integers(min_value=0, max_value=400))
@settings(max_examples=50)
def test_property_all_policies_emit_feasible_phases(counts, tick):
    spec = spec12()
    s = snapshot_with(
        spec, {i: [(1, 0)] * n for i, n in enumerate(counts) if n}, tick=tick
    )
    cm = spec.conflicts
    st_h = make_controller_state(spec, PolicyKind.HORIZON)
    st_2 = make_controller_state(spec, PolicyKind.F2)
    cfg = SolverConfig(horizon=1)
    assert is_feasible_phase(decide_horizon_opt(spec, s, st_h, cfg), cm)
    assert is_feasible_phase(decide_f1(s, cm), cm)
    assert is_feasible_phase(decide_f2(tick, st_2, 4), cm)


def test_horizon_one_step_never_loses_to_baselines():
    # with k=1 the optimizer minimizes the exact one-block rollout, so
    # its pick can never cost more than either baseline's pick
    rng = np.random.default_rng(42)
    spec = spec12()
    dyn = DynamicsConfig()
    cfg = SolverConfig(horizon=1, dynamics=dyn)
    for _ in range(25):
        queues = {
            i: [(int(rng.integers(1, 6)), 0)] * int(rng.integers(0, 5))
            for i in range(12)
        }
        s = snapshot_with(spec, {i: v for i, v in queues.items() if v})
        st_h = make_controller_state(spec, PolicyKind.HORIZON)
        st_2 = make_controller_state(spec, PolicyKind.F2)
        prev = st_h.prev_phase
        chosen = decide_horizon_opt(spec, s, st_h, cfg)
        cost_of = lambda ph: rollout_cost(spec, s, (ph,), prev, dyn)[0]
        assert cost_of(chosen) <= cost_of(decide_f1(s, spec.conflicts))
        assert cost_of(chosen) <= cost_of(decide_f2(s.tick, st_2, dyn.phase_ticks))
