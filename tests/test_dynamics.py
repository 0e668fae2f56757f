"""Tests for the one-tick transition, trajectory cost, and the search bound."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    DynamicsConfig,
    IntersectionSpec,
    Movement,
    Phase,
    PolicyKind,
    SimConfig,
    SimMode,
    SolverConfig,
    TrafficSnapshot,
    Turn,
    VehicleRecord,
    enumerate_feasible_phases,
    initial_green_ages,
    rollout_cost,
    run_episode,
    seed_initial_queues,
    step,
)
from greenlight import simulator
from greenlight.errors import (
    ConstraintViolationError,
    DimensionError,
    InvalidSpecError,
)

from helpers import lower_bound, snapshot_with, spec12


def test_config_defaults():
    cfg = DynamicsConfig()
    assert cfg.phase_ticks == 4
    assert cfg.slow_start == 1


def test_config_rejects_slow_start_not_below_phase_ticks():
    # a held phase must get at least one serving tick
    with pytest.raises(InvalidSpecError):
        DynamicsConfig(phase_ticks=1, slow_start=1)
    with pytest.raises(InvalidSpecError):
        DynamicsConfig(phase_ticks=4, slow_start=4)


def test_config_rejects_nonpositive_phase_ticks():
    with pytest.raises(InvalidSpecError):
        DynamicsConfig(phase_ticks=0, slow_start=0)


def test_step_closed_path_only_ages():
    # two priority-1 vehicles with waits (0,0) on a closed path: nobody
    # leaves, waits become (1,1), both still pay, tick_cost = 1 + 1 = 2
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0)]})
    out = step(spec, s, spec.all_closed(), [0] * 12, DynamicsConfig())
    assert out.departed == ()
    assert [v.wait for v in out.next.queues[0]] == [1, 1]
    assert out.tick_cost == 2
    assert out.next.tick == 1


def test_step_slow_start_blocks_departure():
    # path turned green this tick (age 0 < S=1): the front vehicle stays
    # and its wait climbs from 5 to 6
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 5)]})
    phase = Phase(1, 12)
    out = step(spec, s, phase, [0] * 12, DynamicsConfig(phase_ticks=4, slow_start=1))
    assert out.departed == ()
    assert [v.wait for v in out.next.queues[0]] == [6]
    assert out.tick_cost == 1


def test_step_warm_green_departs_front():
    # age 1 >= S=1: front leaves recorded at wait 5, the queue behind it
    # ages to (3), tick_cost only counts the remaining vehicle
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 5), (1, 2)]})
    phase = Phase(1, 12)
    out = step(spec, s, phase, [1] + [0] * 11, DynamicsConfig())
    assert out.departed == ((0, VehicleRecord(1, 5)),)
    assert [v.wait for v in out.next.queues[0]] == [3]
    assert out.tick_cost == 1


def test_step_departure_is_fifo_one_per_tick():
    spec = spec12()
    s = snapshot_with(spec, {0: [(2, 9), (5, 9), (1, 9)]})
    phase = Phase(1, 12)
    out = step(spec, s, phase, [3] + [0] * 11, DynamicsConfig())
    # only the front departs even though three are ready; cost = 5 + 1
    assert out.departed == ((0, VehicleRecord(2, 9)),)
    assert len(out.next.queues[0]) == 2
    assert out.tick_cost == 6


def test_step_rejects_infeasible_phase():
    # paths 1 and 4 conflict in the default geometry
    spec = spec12()
    with pytest.raises(ConstraintViolationError):
        step(
            spec,
            snapshot_with(spec, {}),
            Phase((1 << 1) | (1 << 4), 12),
            [0] * 12,
            DynamicsConfig(),
        )


def test_feasible_phase_stepped_first_does_not_admit_an_infeasible_one():
    # paths 1 and 4 each pass alone, stepped repeatedly; their union
    # conflicts and must still be refused on the same matrix
    spec = spec12()
    for mask in (1 << 1, 1 << 4):
        for _ in range(3):
            step(spec, snapshot_with(spec, {}), Phase(mask, 12), [0] * 12, DynamicsConfig())
    with pytest.raises(ConstraintViolationError):
        step(spec, snapshot_with(spec, {}), Phase((1 << 1) | (1 << 4), 12), [0] * 12, DynamicsConfig())


def test_step_rejects_an_oversize_queue_by_index():
    spec = spec12()
    s = snapshot_with(spec, {7: [(1, 0)] * 7})
    with pytest.raises(DimensionError, match=r"queue 7 holds 7 vehicles, limit 6"):
        step(spec, s, spec.all_closed(), [0] * 12, DynamicsConfig())


def test_step_rejects_wrong_age_vector_length():
    spec = spec12()
    with pytest.raises(DimensionError):
        step(spec, snapshot_with(spec, {}), spec.all_closed(), [0] * 5, DynamicsConfig())


def test_initial_green_ages_warm_open_paths():
    spec = spec12()
    cfg = DynamicsConfig(phase_ticks=4, slow_start=1)
    ages = initial_green_ages(spec, Phase(0b101, 12), cfg)
    assert ages == [1, 0, 1] + [0] * 9


def test_rollout_empty_snapshot_costs_nothing():
    spec = spec12()
    schedule = (Phase(1, 12), Phase(2, 12))
    total, final = rollout_cost(
        spec, snapshot_with(spec, {}), schedule, spec.all_closed(), DynamicsConfig()
    )
    assert total == 0
    assert final.is_empty
    assert final.tick == 2 * 4


def test_rollout_already_green_vehicle_departs_free():
    # one priority-1 vehicle on path 0, phase already green before the
    # plan starts (so no slow start applies): it departs on the first
    # tick and never pays, total cost 0
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0)]})
    cfg = DynamicsConfig(phase_ticks=2, slow_start=1)
    phase = Phase(1, 12)
    total, final = rollout_cost(spec, s, (phase,), phase, cfg)
    assert total == 0
    assert final.is_empty


def test_rollout_closed_path_pays_every_tick():
    # one priority-1 vehicle, path closed for both scheduled phases,
    # D=1: it pays 1 per tick for 2 ticks, total 2
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0)]})
    cfg = DynamicsConfig(phase_ticks=1, slow_start=0)
    closed = Phase(1 << 1, 12)
    total, final = rollout_cost(spec, s, (closed, closed), spec.all_closed(), cfg)
    assert total == 2
    assert [v.wait for v in final.queues[0]] == [2]


def test_rollout_rejects_empty_schedule():
    spec = spec12()
    with pytest.raises(InvalidSpecError):
        rollout_cost(spec, snapshot_with(spec, {}), (), spec.all_closed(), DynamicsConfig())


def test_rollout_green_age_resets_on_reopen():
    # phase A then phase B then A again with S=1, D=2: path 0 is closed
    # during B, so its age restarts and the first A tick after reopening
    # serves nobody
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0), (1, 0)]})
    cfg = DynamicsConfig(phase_ticks=2, slow_start=1)
    a, b = Phase(1, 12), Phase(1 << 1, 12)
    total, final = rollout_cost(spec, s, (a, b, a), spec.all_closed(), cfg)
    # tick by tick departures on path 0: slow start, depart, closed,
    # closed, slow start again, depart; 3 - 2 = 1 vehicle remains
    assert len(final.queues[0]) == 1
    # costs per tick: 3, 2, 2, 2, 2, 1 summed = 12
    assert total == 12


def test_lower_bound_empty_and_zero_horizon():
    spec = spec12()
    assert lower_bound(snapshot_with(spec, {}), 7) == 0
    s = snapshot_with(spec, {0: [(4, 0)], 5: [(2, 3)]})
    assert lower_bound(s, 0) == 0


def test_lower_bound_three_vehicles():
    # positions 0,1,2 with R=2: min(i, R) gives 0 + 1 + 2 = 3
    spec = spec12()
    s = snapshot_with(spec, {0: [(1, 0), (1, 0), (1, 0)]})
    assert lower_bound(s, 2) == 3


def test_lower_bound_weights_by_priority():
    # path with priorities (2, 5): 0*2 + 1*5 = 5 once R >= 1
    spec = spec12()
    s = snapshot_with(spec, {0: [(2, 0), (5, 0)]})
    assert lower_bound(s, 9) == 5
    # R=1 caps position 1 at 1, same value here
    assert lower_bound(s, 1) == 5


def tri_spec():
    # three-arm junction, one left turn per arm; small enough that every
    # schedule can be enumerated
    return IntersectionSpec(
        arms=3,
        paths=(
            Movement(0, Turn.LEFT),
            Movement(1, Turn.LEFT),
            Movement(2, Turn.LEFT),
        ),
        max_queue_len=3,
    )


def tri_snapshot_strategy():
    vehicle = st.tuples(
        st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=9)
    )
    queue = st.lists(vehicle, max_size=3)
    return st.tuples(queue, queue, queue)


@given(tri_snapshot_strategy(), st.integers(min_value=1, max_value=3), st.data())
@settings(max_examples=50)
def test_property_rollout_equals_summed_tick_costs(raw_queues, k, data):
    # re-accumulate the trajectory one step at a time and compare, then
    # chain one-block rollouts, each from the previous block's phase: a
    # path open across blocks starts each at age slow_start instead of
    # its true age, which slow_start < phase_ticks makes exact
    spec = tri_spec()
    cfg = data.draw(st.sampled_from((DynamicsConfig(phase_ticks=2, slow_start=1), DynamicsConfig())))
    s = snapshot_with(spec, dict(enumerate(raw_queues)))
    # every left turn is compatible, so the one maximal phase opens all
    # three paths; schedules also draw the partial phases, so paths close
    # and reopen between blocks
    phases = enumerate_feasible_phases(spec.conflicts, maximal_only=False)
    schedule = tuple(data.draw(st.lists(st.sampled_from(phases), min_size=k, max_size=k)))
    prev = data.draw(st.sampled_from((spec.all_closed(),) + spec.conflicts.maximal_phases()))

    total, final = rollout_cost(spec, s, schedule, prev, cfg)

    acc = 0
    cur = s
    ages = initial_green_ages(spec, prev, cfg)
    for phase in schedule:
        ages = [a if phase.is_open(i) else 0 for i, a in enumerate(ages)]
        for _ in range(cfg.phase_ticks):
            out = step(spec, cur, phase, ages, cfg)
            acc += out.tick_cost
            cur = out.next
            ages = [a + 1 if phase.is_open(i) else 0 for i, a in enumerate(ages)]
    assert total == acc
    assert final == cur

    chained = 0
    cur = s
    for block_prev, phase in zip((prev,) + schedule, schedule):
        cost, cur = rollout_cost(spec, cur, (phase,), block_prev, cfg)
        chained += cost
    assert chained == total
    assert cur == final


def reference_step(spec, s, phase, green_age, cfg):
    """One tick written out plainly, building a fresh record per vehicle."""
    departed = []
    queues = []
    tick_cost = 0
    for i, q in enumerate(s.queues):
        if q and phase.is_open(i) and green_age[i] >= cfg.slow_start:
            departed.append((i, q[0]))
            q = q[1:]
        aged = tuple(VehicleRecord(v.priority, v.wait + 1) for v in q)
        tick_cost += sum(v.priority for v in aged)
        queues.append(aged)
    ages = tuple(green_age[i] + 1 if phase.is_open(i) else 0 for i in range(spec.num_paths))
    return TrafficSnapshot(s.tick + 1, tuple(queues)), tuple(departed), tick_cost, ages


STEP_TIMINGS = (
    DynamicsConfig(),
    DynamicsConfig(phase_ticks=2, slow_start=1),
    DynamicsConfig(phase_ticks=3, slow_start=2),
)


@given(st.data())
@settings(max_examples=200)
def test_property_step_matches_fresh_record_reference(data):
    # equality with the plain tick also pins its consequences: vehicles are
    # conserved, survivors age by exactly one, the cost is the survivors'
    # priority sum; the all-red phase is drawn too, where nobody leaves.
    # The range around 1 << 16 keeps the fixed-seed draws as they are; at
    # any wait a record ages into the successor built on its first tick
    spec = spec12()
    wait = st.one_of(st.integers(0, 300), st.integers((1 << 16) - 2, (1 << 16) + 300))
    vehicle = st.tuples(st.integers(1, 10), wait)
    raw = data.draw(st.lists(st.lists(vehicle, max_size=6), min_size=12, max_size=12))
    s = snapshot_with(spec, dict(enumerate(raw)), tick=data.draw(st.integers(0, 1000)))
    phase = data.draw(st.sampled_from([spec.all_closed(), *enumerate_feasible_phases(spec.conflicts)]))
    ages = data.draw(st.lists(st.integers(0, 4), min_size=12, max_size=12))
    cfg = data.draw(st.sampled_from(STEP_TIMINGS))

    out = step(spec, s, phase, ages, cfg)
    ref_next, ref_departed, ref_cost, ref_ages = reference_step(spec, s, phase, ages, cfg)
    assert out.next == ref_next
    assert out.departed == ref_departed
    assert out.tick_cost == ref_cost
    assert out.green_age == ref_ages
    for q in out.next.queues:
        for v in q:
            assert type(v) is VehicleRecord
            assert v == VehicleRecord(v.priority, v.wait)


def overloaded_episodes():
    """An overloaded steady f2 episode and a guard-off drain, whose waits
    run long."""
    spec = IntersectionSpec.standard()
    return [
        run_episode(SimConfig(spec=spec, intensity=1.0, seed=3, mode=SimMode.STEADY), PolicyKind.F2),
        run_episode(SimConfig(spec=spec, intensity=1.0, seed=3), PolicyKind.F2, SolverConfig(wmax=None)),
    ]


def test_class_roots_chain_up_to_the_longest_wait_of_their_class(monkeypatch):
    episodes = overloaded_episodes()
    # on fresh class roots the same episodes give the same results, and each
    # root's successors walk (p, 1), (p, 2), ... up to exactly the longest
    # wait a vehicle of its class reached, departed or still queued
    roots = {p: VehicleRecord(p) for p in simulator._CLASS_RECORD}
    monkeypatch.setattr(simulator, "_CLASS_RECORD", roots)
    longest = dict.fromkeys(roots, 0)
    real_step = simulator.step

    def spy(*args):
        out = real_step(*args)
        for v in (v for q in out.next.queues for v in q):
            longest[v.priority] = max(longest[v.priority], v.wait)
        return out

    monkeypatch.setattr(simulator, "step", spy)
    assert overloaded_episodes() == episodes
    for p, v in roots.items():
        w = 0
        while hasattr(v, "_older"):
            v, w = v._older, w + 1
            assert type(v) is VehicleRecord and v == VehicleRecord(p, w)
        assert w == longest[p] > 0


def test_step_ages_seeded_vehicles_into_their_successors():
    spec = IntersectionSpec.standard()
    s = seed_initial_queues(SimConfig(spec=spec, intensity=1.0, seed=5))
    # a seeded vehicle is its class's one record; each tick ages every
    # vehicle that stays into the successor of the record it held before
    for q in s.queues:
        for v in q:
            assert v is simulator._CLASS_RECORD[v.priority]
    phase = enumerate_feasible_phases(spec.conflicts)[0]
    ages = [1] * spec.num_paths
    for _ in range(3):
        out = step(spec, s, phase, ages, DynamicsConfig())
        assert out.departed
        left = [q[1:] if phase.is_open(i) else q for i, q in enumerate(s.queues)]
        assert [len(q) for q in out.next.queues] == [len(q) for q in left]
        for before, after in zip(left, out.next.queues):
            assert all(new is old._older for old, new in zip(before, after))
        s, ages = out.next, out.green_age


def test_step_ages_caller_built_records():
    # priority 7 is no simulator class and wait 10**6 lies past every class
    # chain: both queues age into successors built for them, open and closed
    spec = spec12()
    far = 10**6
    s = snapshot_with(spec, {0: [(7, far), (7, far), (1, far)], 5: [(7, far), (3, 2)]})
    phase = Phase(1, 12)
    for ages in ([1] * 12, [0] * 12):
        out = step(spec, s, phase, ages, DynamicsConfig())
        ref_next, ref_departed, ref_cost, ref_ages = reference_step(spec, s, phase, ages, DynamicsConfig())
        assert out.next == ref_next
        assert out.departed == ref_departed
        assert out.tick_cost == ref_cost
        assert out.green_age == ref_ages
        assert all(type(v) is VehicleRecord for q in out.next.queues for v in q)
    assert out.next.queues[0] == (VehicleRecord(7, far + 1),) * 2 + (VehicleRecord(1, far + 1),)
    # the second tick from the same snapshot reused the successors the first built
    assert all(new is old._older for old, new in zip(s.queues[0], out.next.queues[0]))


def test_copies_and_pickles_of_an_aged_record_carry_its_fields_only():
    # a 5,000-tick chain of successors hangs off the root; a copy or a
    # pickle that walked it would recurse past the interpreter's limit
    spec = spec12()
    root = VehicleRecord(3)
    s = TrafficSnapshot(0, ((root,),) + ((),) * 11)
    for _ in range(5000):
        s = step(spec, s, spec.all_closed(), [0] * 12, DynamicsConfig()).next
    assert s.queues[0] == (VehicleRecord(3, 5000),)
    copies = [pickle.loads(pickle.dumps(root, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies + [copy.copy(root), copy.deepcopy(root)]:
        assert type(c) is VehicleRecord and c == root and c is not root
        assert not hasattr(c, "_older")
    assert [f.name for f in dataclasses.fields(root)] == ["priority", "wait"]
    assert dataclasses.asdict(root) == {"priority": 3, "wait": 0}
    assert root == VehicleRecord(3) and hash(root) == hash(VehicleRecord(3))
    assert repr(root) == "VehicleRecord(priority=3, wait=0)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        root._older = VehicleRecord(3, 1)


@given(tri_snapshot_strategy(), st.integers(min_value=1, max_value=2))
@settings(max_examples=50)
def test_property_lower_bound_is_admissible(raw_queues, k):
    # the bound must sit at or below the cost of every feasible schedule
    spec = tri_spec()
    cfg = DynamicsConfig(phase_ticks=2, slow_start=1)
    s = snapshot_with(spec, dict(enumerate(raw_queues)))
    phases = enumerate_feasible_phases(spec.conflicts, maximal_only=False)
    bound = lower_bound(s, k * cfg.phase_ticks)

    def all_schedules(depth):
        if depth == 0:
            yield ()
            return
        for rest in all_schedules(depth - 1):
            for p in phases:
                yield (p,) + rest

    for schedule in all_schedules(k):
        total, _ = rollout_cost(spec, s, schedule, spec.all_closed(), cfg)
        assert bound <= total


def test_rollout_is_deterministic():
    spec = spec12()
    s = snapshot_with(spec, {0: [(3, 1)], 4: [(1, 0), (2, 2)], 7: [(10, 5)]})
    phases = enumerate_feasible_phases(spec.conflicts, maximal_only=True)
    schedule = (phases[0], phases[3], phases[7])
    first = rollout_cost(spec, s, schedule, spec.all_closed(), DynamicsConfig())
    second = rollout_cost(spec, s, schedule, spec.all_closed(), DynamicsConfig())
    assert first == second
