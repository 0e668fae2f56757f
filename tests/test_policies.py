"""Tests for the three controllers: horizon optimizer, F1 greedy, F2 fixed-time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    ConflictMatrix,
    ControllerState,
    DrivingSide,
    DynamicsConfig,
    IntersectionSpec,
    PolicyKind,
    SolverConfig,
    decide_f1,
    decide_f2,
    decide_horizon_opt,
    exhaustive_oracle,
    is_feasible_phase,
    rollout_cost,
    standard_movements,
)

from helpers import snapshot_with, spec12, symmetric_matrix_strategy


def test_policy_tokens():
    assert PolicyKind.HORIZON.value == "horizon"
    assert PolicyKind.F1.value == "f1"
    assert PolicyKind.F2.value == "f2"


def test_horizon_empty_snapshot_takes_lex_smallest_maximal():
    spec = spec12()
    st_ = ControllerState(spec.all_closed())
    phase = decide_horizon_opt(spec, snapshot_with(spec, {}), st_, SolverConfig(horizon=2))
    assert phase == spec.conflicts.maximal_phases()[0]


def test_horizon_first_phase_matches_oracle():
    spec = spec12()
    s = snapshot_with(spec, {1: [(1, 0), (1, 0)], 4: [(5, 2)], 10: [(3, 0)]})
    cfg = SolverConfig(horizon=2)
    st_ = ControllerState(spec.all_closed())
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
    assert decide_f1(snapshot_with(spec, {}), spec.conflicts) == (
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
    assert decide_f2(0, spec.conflicts, 4) == spec.conflicts.maximal_phases()[0]


def test_f2_index_arithmetic():
    # twelve maximal phases, D=4: tick 9 sits in block 9 // 4 = 2, index 2
    cm = spec12().conflicts
    maximal = cm.maximal_phases()
    assert len(maximal) == 12
    assert decide_f2(9, cm, 4) == maximal[2]
    # wraps around after one full revolution of 12 * 4 ticks
    assert decide_f2(48, cm, 4) == maximal[0]
    assert decide_f2(55, cm, 4) == maximal[1]
    # the block length is the decision period, not a constant
    assert decide_f2(9, cm, 2) == maximal[4]


def test_f2_is_blind_to_queues():
    # the signature admits no snapshot and no controller state: the phase
    # follows from the tick and the junction alone, so a junction with
    # other queue limits gets the same rotation
    cm = spec12().conflicts
    other = IntersectionSpec.standard(max_queue_len=10).conflicts
    assert other is not cm
    for tick in (0, 3, 17, 120):
        assert decide_f2(tick, cm, 4) == decide_f2(tick, other, 4)


def assert_f2_revolution_opens_every_path(cm, phase_ticks):
    maximal = cm.maximal_phases()
    covered = 0
    for i, ph in enumerate(maximal):
        covered |= ph.mask
        # every tick of block i shows maximal phase i
        for tick in range(i * phase_ticks, (i + 1) * phase_ticks):
            assert decide_f2(tick, cm, phase_ticks) == ph
    assert covered == (1 << cm.paths) - 1


@given(symmetric_matrix_strategy(), st.integers(min_value=1, max_value=6))
@settings(max_examples=100)
def test_property_f2_revolution_opens_every_path(cm, phase_ticks):
    # a single path is a feasible phase and extends to a maximal one, so
    # the maximal phases cover every path and one revolution opens them
    assert_f2_revolution_opens_every_path(cm, phase_ticks)


@pytest.mark.parametrize("arms", [3, 4, 5, 6])
@pytest.mark.parametrize("side", list(DrivingSide))
def test_f2_revolution_opens_every_path_on_standard_junctions(arms, side):
    cm = IntersectionSpec.standard(arms, driving_side=side).conflicts
    assert_f2_revolution_opens_every_path(cm, 4)


def queue_counts_strategy():
    return st.lists(
        st.integers(min_value=0, max_value=6), min_size=12, max_size=12
    )


def reference_f1(s, phases):
    """The plain scan: first phase in list order with the most queued vehicles."""
    best, best_cover = None, -1
    for ph in phases:
        cover = sum(len(s.queues[i]) for i in ph.open_paths())
        if cover > best_cover:
            best, best_cover = ph, cover
    return best


@given(st.integers(min_value=3, max_value=10), st.data())
@settings(max_examples=200)
def test_property_f1_matches_reference_scan(arms, data):
    # the product with the matrix's maximal incidence picks what the plain
    # scan picks, on up to 279 maximal phases of 30 paths; queue lengths
    # are 0, 1 or 2 times one scale of 1-3, so cover ties are common and
    # the first maximal phase must win them
    spec = IntersectionSpec.standard(arms, max_queue_len=6)
    scale = data.draw(st.integers(min_value=1, max_value=3))
    units = data.draw(st.lists(st.integers(0, 2), min_size=spec.num_paths, max_size=spec.num_paths))
    s = snapshot_with(spec, {i: [(1, 0)] * (n * scale) for i, n in enumerate(units)})
    cm = spec.conflicts
    assert decide_f1(s, cm) == reference_f1(s, cm.maximal_phases())


@given(queue_counts_strategy(), st.integers(min_value=0, max_value=400))
@settings(max_examples=50)
def test_property_all_policies_emit_feasible_phases(counts, tick):
    spec = spec12()
    s = snapshot_with(
        spec, {i: [(1, 0)] * n for i, n in enumerate(counts) if n}, tick=tick
    )
    cm = spec.conflicts
    st_h = ControllerState(spec.all_closed())
    cfg = SolverConfig(horizon=1)
    assert is_feasible_phase(decide_horizon_opt(spec, s, st_h, cfg), cm)
    assert is_feasible_phase(decide_f1(s, cm), cm)
    assert is_feasible_phase(decide_f2(tick, cm, 4), cm)


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
        st_h = ControllerState(spec.all_closed())
        prev = st_h.prev_phase
        chosen = decide_horizon_opt(spec, s, st_h, cfg)
        cost_of = lambda ph: rollout_cost(spec, s, (ph,), prev, dyn)[0]
        assert cost_of(chosen) <= cost_of(decide_f1(s, spec.conflicts))
        assert cost_of(chosen) <= cost_of(decide_f2(s.tick, spec.conflicts, dyn.phase_ticks))
