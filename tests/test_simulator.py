"""Tests for the seeded episode runner and its statistics."""

import math
from collections import deque

import numpy as np
import pytest

import greenlight.simulator as simulator
from greenlight import (
    DynamicsConfig,
    EpisodeStats,
    IntersectionSpec,
    Movement,
    PolicyKind,
    SimConfig,
    SimMode,
    SolverConfig,
    Turn,
    VehicleRecord,
    append_arrivals,
    draw_priority,
    generate_arrivals,
    run_episode,
    seed_initial_queues,
)
from greenlight.errors import InvalidSpecError


def spec12(max_queue_len=10):
    return IntersectionSpec.standard(max_queue_len=max_queue_len)


def test_sim_config_validation():
    spec = spec12()
    with pytest.raises(InvalidSpecError):
        SimConfig(spec=spec, intensity=1.5)


def test_seed_zero_intensity_is_empty():
    cfg = SimConfig(spec=spec12(), intensity=0.0)
    assert seed_initial_queues(cfg).is_empty()


def test_seed_full_intensity_packs_every_lane():
    cfg = SimConfig(spec=spec12(max_queue_len=10), intensity=1.0, seed=3)
    s = seed_initial_queues(cfg)
    assert s.queue_lengths() == (10,) * 12
    assert all(v.wait == 0 for q in s.queues for v in q)


def test_seed_partial_intensity_rounds_up():
    # ceil(0.25 * 10) = 3 vehicles per path
    cfg = SimConfig(spec=spec12(max_queue_len=10), intensity=0.25)
    assert seed_initial_queues(cfg).queue_lengths() == (3,) * 12


def test_seed_same_seed_same_snapshot():
    cfg = SimConfig(spec=spec12(), intensity=0.7, seed=11)
    assert seed_initial_queues(cfg) == seed_initial_queues(cfg)


def test_seed_priorities_follow_class_mix():
    # 12 paths times 50 slots = 600 draws; the 90 percent class must
    # dominate and nothing outside the class list may appear
    spec = spec12(max_queue_len=50)
    cfg = SimConfig(spec=spec, intensity=1.0, seed=5)
    s = seed_initial_queues(cfg)
    weights = [v.priority for q in s.queues for v in q]
    assert set(weights) <= {1, 3, 10}
    ones = weights.count(1)
    # binomial(600, 0.9): mean 540, sigma about 7.3; stay within 5 sigma
    assert 503 <= ones <= 577


def reference_seed_queues(cfg, rng):
    """One scalar draw_priority call per vehicle, paths ascending, front to back."""
    fill = cfg.spec.fill_count(cfg.intensity)
    return tuple(
        tuple(
            VehicleRecord(draw_priority(rng, simulator.PRIORITY_CLASSES), 0)
            for _ in range(fill)
        )
        for _ in range(cfg.spec.num_paths)
    )


def test_seed_vector_draw_matches_scalar_reference():
    # same records in the same order, and the stream left at the same
    # point, so the episode's next draw is unchanged too
    for spec in (spec12(), IntersectionSpec.standard(3, max_queue_len=7)):
        for intensity in (0.0, 0.1, 0.5, 1.0):
            for seed in range(4):
                cfg = SimConfig(spec=spec, intensity=intensity, seed=seed)
                ours = np.random.Generator(np.random.PCG64(seed))
                ref = np.random.Generator(np.random.PCG64(seed))
                assert seed_initial_queues(cfg, ours).queues == reference_seed_queues(cfg, ref)
                assert ours.random() == ref.random()


@pytest.mark.parametrize(
    "classes",
    [
        ((1, 1.0),),
        ((5, 0.3), (2, 0.3), (1, 0.4)),
        # sums to 0.9999999999999999, so a draw can fall past the last sum
        ((7, 0.1), (1, 0.7), (3, 0.2)),
        ((4, 0.0), (2, 0.5), (9, 0.0), (1, 0.5)),
    ],
)
def test_priority_of_inverse_cdf(classes):
    # u lands in the first class whose running sum exceeds it; a draw at
    # or past the last running sum, which float rounding can leave short
    # of 1, takes the last class; zero-probability classes never occur
    cum = 0.0
    for weight, prob in classes:
        if prob > 0:
            assert simulator._priority_of(cum, classes) == weight
            assert simulator._priority_of(cum + prob / 2, classes) == weight
        cum += prob
    assert simulator._priority_of(cum, classes) == classes[-1][0]
    assert simulator._priority_of(np.nextafter(1.0, 0.0), classes) == classes[-1][0]
    rng = np.random.Generator(np.random.PCG64(0))
    drawn = {simulator._priority_of(u, classes) for u in rng.random(2000).tolist()}
    assert drawn == {w for w, prob in classes if prob > 0}


def test_arrivals_probability_zero_never_arrive():
    cfg = SimConfig(
        spec=spec12(), intensity=0.0, mode=SimMode.STEADY, episode_ticks=50
    )
    rng = np.random.Generator(np.random.PCG64(0))
    for tick in range(50):
        assert generate_arrivals(cfg, tick, rng) == ((),) * 12


def test_arrivals_full_queue_rejected_and_counted():
    spec = spec12(max_queue_len=2)
    full = seed_initial_queues(SimConfig(spec=spec, intensity=1.0, seed=1))
    arrivals = (((VehicleRecord(1, 0),)) ,) + ((),) * 11
    appended, rejected = append_arrivals(spec, full, arrivals)
    assert rejected == 1
    assert appended.queue_lengths() == full.queue_lengths()


def test_arrival_frequency_matches_bernoulli_rate():
    # two-path junction, p = 0.5 * 0.3 = 0.15 per path per tick; over
    # 10^5 ticks that is 2 * 10^5 trials, sigma = sqrt(n p (1-p)) ~ 160
    spec = IntersectionSpec(
        arms=4,
        paths=(Movement(0, Turn.STRAIGHT), Movement(1, Turn.STRAIGHT)),
        max_queue_len=5,
    )
    cfg = SimConfig(spec=spec, intensity=0.5, mode=SimMode.STEADY, seed=123)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    count = 0
    for tick in range(100_000):
        count += sum(len(a) for a in generate_arrivals(cfg, tick, rng))
    expected = 200_000 * 0.15
    sigma = math.sqrt(200_000 * 0.15 * 0.85)
    assert abs(count - expected) <= 3 * sigma


def test_drain_zero_intensity_ends_immediately():
    cfg = SimConfig(spec=spec12(), intensity=0.0)
    stats, log = run_episode(cfg, PolicyKind.F2)
    assert stats == EpisodeStats(
        mean_wait=0.0,
        mean_wait_seconds=0.0,
        std_wait=0.0,
        max_wait=0,
        throughput=0,
        rejected_arrivals=0,
        starvation_events=0,
        terminated=True,
        ticks=0,
    )
    assert log == ()


def test_f2_first_block_vehicle_waits_one_tick():
    # one vehicle per path, D=2, S=1: the first cycle phase opens paths
    # {0,1,2,3,6,9} at tick 0, slow start eats tick 0, so those six
    # vehicles depart at tick 1 having waited exactly 1 tick
    spec = spec12(max_queue_len=10)
    dyn = DynamicsConfig(phase_ticks=2, slow_start=1)
    cfg = SimConfig(spec=spec, intensity=0.05, seed=0)
    stats, log = run_episode(cfg, PolicyKind.F2, SolverConfig(dynamics=dyn))
    assert stats.terminated
    assert stats.throughput == 12
    first_block = [e for e in log if e.exit_tick == 1]
    assert sorted(e.path for e in first_block) == [0, 1, 2, 3, 6, 9]
    for e in first_block:
        assert e.enter_tick == 0
        assert e.wait_ticks == 1


def test_same_seed_reproduces_episode_exactly():
    cfg = SimConfig(spec=spec12(), intensity=0.6, seed=17)
    a_stats, a_log = run_episode(cfg, PolicyKind.HORIZON)
    b_stats, b_log = run_episode(cfg, PolicyKind.HORIZON)
    assert a_stats == b_stats
    assert a_log == b_log


def test_drain_conserves_seeded_vehicles():
    # a terminated drain run departs exactly the seeded population
    spec = spec12(max_queue_len=8)
    for intensity in (0.25, 0.5, 1.0):
        cfg = SimConfig(spec=spec, intensity=intensity, seed=2)
        seeded = 12 * spec.fill_count(intensity)
        for policy in (PolicyKind.HORIZON, PolicyKind.F1, PolicyKind.F2):
            stats, log = run_episode(cfg, policy)
            assert stats.terminated
            assert stats.throughput == seeded
            assert len(log) == seeded
            assert stats.rejected_arrivals == 0


def test_steady_accounting_against_replayed_stream():
    # big lanes so nothing is rejected: the arrival stream can then be
    # replayed draw for draw and bounds the departures
    spec = spec12(max_queue_len=50)
    cfg = SimConfig(
        spec=spec,
        intensity=0.5,
        seed=9,
        mode=SimMode.STEADY,
        episode_ticks=60,
    )
    stats, log = run_episode(cfg, PolicyKind.F2)
    assert stats.rejected_arrivals == 0
    assert stats.ticks == 60
    assert stats.throughput == len(log)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    seeded = seed_initial_queues(cfg, rng).total_vehicles()
    generated = 0
    for t in range(stats.ticks):
        generated += sum(len(a) for a in generate_arrivals(cfg, t + 1, rng))
    assert stats.throughput <= seeded + generated
    # seeded vehicles enter at 0, generated ones strictly later
    assert sum(1 for e in log if e.enter_tick == 0) <= seeded
    assert sum(1 for e in log if e.enter_tick > 0) <= generated


def test_wait_log_is_internally_consistent():
    cfg = SimConfig(spec=spec12(), intensity=0.5, seed=4)
    stats, log = run_episode(cfg, PolicyKind.F1)
    for e in log:
        assert e.wait_ticks == e.exit_tick - e.enter_tick
        assert e.seed == 4
        assert e.policy == "f1"
        assert e.priority in (1, 3, 10)
        assert 0 <= e.path < 12


def test_stats_agree_with_second_pass_over_log():
    cfg = SimConfig(spec=spec12(), intensity=0.75, seed=21)
    solver_cfg = SolverConfig(dynamics=DynamicsConfig(tick_seconds=2.5))
    stats, log = run_episode(cfg, PolicyKind.F2, solver_cfg)
    waits = [e.wait_ticks for e in log]
    assert stats.throughput == len(waits)
    assert math.isclose(stats.mean_wait, float(np.mean(waits)), rel_tol=1e-12)
    assert math.isclose(stats.std_wait, float(np.std(waits)), rel_tol=1e-12)
    assert stats.max_wait == max(waits)
    assert math.isclose(
        stats.mean_wait_seconds, stats.mean_wait * solver_cfg.dynamics.tick_seconds
    )


def test_starvation_events_counted_from_threshold():
    # a tight threshold makes the fixed-time baseline exceed it; the
    # counter must equal a recount over the departed waits
    spec = spec12(max_queue_len=6)
    dyn = DynamicsConfig()
    solver_cfg = SolverConfig(wmax=8, dynamics=dyn)
    cfg = SimConfig(spec=spec, intensity=1.0, seed=6)
    stats, log = run_episode(cfg, PolicyKind.F2, solver_cfg=solver_cfg)
    assert stats.terminated
    recount = sum(1 for e in log if e.wait_ticks > 8)
    assert recount > 0
    assert stats.starvation_events == recount


def test_safety_cap_reports_unterminated(monkeypatch):
    # shrink the cap so a heavy drain cannot finish; the run must end
    # cleanly with terminated False instead of raising
    monkeypatch.setattr(simulator, "TICK_CAP", 12)
    cfg = SimConfig(spec=spec12(max_queue_len=10), intensity=1.0, seed=0)
    stats, log = run_episode(cfg, PolicyKind.F2)
    assert not stats.terminated
    assert stats.ticks == 12
    assert stats.throughput == len(log)
    assert stats.throughput < 120


@pytest.mark.parametrize("policy", [PolicyKind.F1, PolicyKind.F2])
def test_steady_enter_ticks_replay_the_draw_order(policy):
    # Deep queues reject nothing, so each path is a FIFO of the vehicles
    # the documented draw order creates: the seeded queues at tick 0, then
    # the arrivals appended after the step of tick t - 1, at tick t.
    cfg = SimConfig(
        spec=spec12(max_queue_len=60),
        intensity=0.5,
        seed=4,
        mode=SimMode.STEADY,
        episode_ticks=300,
    )
    stats, log = run_episode(cfg, policy)
    assert stats.rejected_arrivals == 0
    assert len(log) > 300

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    initial = seed_initial_queues(cfg, rng)
    fifo = [deque((0, v.priority) for v in q) for q in initial.queues]
    for tick in range(1, cfg.episode_ticks + 1):
        for i, incoming in enumerate(generate_arrivals(cfg, tick, rng)):
            fifo[i].extend((tick, v.priority) for v in incoming)
    for e in log:
        assert (e.enter_tick, e.priority) == fifo[e.path].popleft()
