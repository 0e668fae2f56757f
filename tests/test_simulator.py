"""Tests for the seeded episode runner and its statistics."""

import math
import os
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

import greenlight.cli as cli
import greenlight.simulator as simulator
from greenlight import (
    ConflictMatrix,
    ControllerState,
    DrivingSide,
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
    WaitLogEntry,
    append_arrivals,
    build_conflict_matrix,
    decide_f1,
    decide_f2,
    decide_horizon_opt,
    exit_arm,
    generate_arrivals,
    initial_green_ages,
    load_instance,
    run_episode,
    save_instance,
    seed_initial_queues,
    standard_movements,
    step,
)
from greenlight.errors import InvalidSpecError

from helpers import implicit_wait_episode, spec12


def test_sim_config_validation():
    spec = spec12(10)
    with pytest.raises(InvalidSpecError):
        SimConfig(spec=spec, intensity=1.5)


def test_frozen_spec_and_sim_config_hash():
    spec = IntersectionSpec.standard()
    assert hash(spec) == hash(IntersectionSpec.standard())
    assert hash(SimConfig(spec, 0.5)) == hash(SimConfig(IntersectionSpec.standard(), 0.5))


def test_string_tokens_behave_like_their_enums(tmp_path):
    # Turn, DrivingSide, SimMode and PolicyKind are str enums, so a token
    # compares equal to its member; each entry point turns it into the
    # member, and the branches behind it see the same junction and episode
    paths = tuple(Movement(m.entry_arm, m.turn.value) for m in standard_movements(4))
    assert all(type(m.turn) is Turn for m in paths)
    for side in DrivingSide:
        by_token = IntersectionSpec(4, paths, 3, driving_side=side.value)
        by_enum = IntersectionSpec.standard(max_queue_len=3, driving_side=side)
        assert by_token == by_enum and by_token.driving_side is side
        assert by_token.conflicts == by_enum.conflicts == build_conflict_matrix(4, paths, side.value)
        assert [exit_arm(m, 4, side.value) for m in paths] == [exit_arm(m, 4, side) for m in paths]
    spec = IntersectionSpec.standard(max_queue_len=3)
    save_instance(IntersectionSpec(4, paths, 3), tmp_path / "tokens.json")
    assert load_instance(tmp_path / "tokens.json") == spec
    for mode in SimMode:
        assert SimConfig(spec, 0.5, mode=mode.value).mode is mode
        for policy in PolicyKind:
            by_token = run_episode(SimConfig(spec, 0.5, 3, mode.value, episode_ticks=60), policy.value)
            assert by_token == run_episode(SimConfig(spec, 0.5, 3, mode, episode_ticks=60), policy)
    assert cli.SweepSpec(policies=("f2", "horizon")).policies == (PolicyKind.F2, PolicyKind.HORIZON)


def test_seed_zero_intensity_is_empty():
    cfg = SimConfig(spec=spec12(10), intensity=0.0)
    assert seed_initial_queues(cfg).is_empty()


def test_seed_full_intensity_packs_every_lane():
    cfg = SimConfig(spec=spec12(max_queue_len=10), intensity=1.0, seed=3)
    s = seed_initial_queues(cfg)
    assert tuple(len(q) for q in s.queues) == (10,) * 12
    assert all(v.wait == 0 for q in s.queues for v in q)


def test_seed_partial_intensity_rounds_up():
    # ceil(0.25 * 10) = 3 vehicles per path
    cfg = SimConfig(spec=spec12(max_queue_len=10), intensity=0.25)
    assert tuple(len(q) for q in seed_initial_queues(cfg).queues) == (3,) * 12


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
    """One scalar priority draw per vehicle, paths ascending, front to back."""
    fill = cfg.spec.fill_count(cfg.intensity)
    return tuple(
        tuple(
            VehicleRecord(simulator._priority_of(rng.random(), simulator.PRIORITY_CLASSES), 0)
            for _ in range(fill)
        )
        for _ in range(cfg.spec.num_paths)
    )


def test_seed_vector_draw_matches_scalar_reference():
    # same records in the same order, and the stream left at the same
    # point, so the episode's next draw is unchanged too; without an rng
    # the seed alone fixes the snapshot
    for spec in (spec12(10), IntersectionSpec.standard(3, max_queue_len=7)):
        for intensity in (0.0, 0.1, 0.5, 1.0):
            for seed in range(4):
                cfg = SimConfig(spec=spec, intensity=intensity, seed=seed)
                ours = np.random.Generator(np.random.PCG64(seed))
                ref = np.random.Generator(np.random.PCG64(seed))
                expected = reference_seed_queues(cfg, ref)
                assert seed_initial_queues(cfg, ours).queues == expected
                assert seed_initial_queues(cfg).queues == expected
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
        spec=spec12(10), intensity=0.0, mode=SimMode.STEADY, episode_ticks=50
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
    assert tuple(map(len, appended.queues)) == tuple(map(len, full.queues))


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
    cfg = SimConfig(spec=spec12(10), intensity=0.0)
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
    cfg = SimConfig(spec=spec12(10), intensity=0.6, seed=17)
    a_stats, a_log = run_episode(cfg, PolicyKind.HORIZON)
    b_stats, b_log = run_episode(cfg, PolicyKind.HORIZON)
    assert a_stats == b_stats
    assert a_log == b_log


def complete_conflict_spec(max_queue_len):
    # every pair of paths conflicts, so each phase opens one path: the
    # junction where a starved path is hardest to serve
    return IntersectionSpec(
        arms=4,
        paths=standard_movements(4),
        max_queue_len=max_queue_len,
        conflicts=ConflictMatrix(~np.eye(12, dtype=bool)),
    )


def test_drain_conserves_seeded_vehicles():
    # a terminated drain run departs exactly the seeded population, also
    # on the complete conflict graph, where no policy may deadlock
    for spec in (spec12(max_queue_len=8), complete_conflict_spec(8)):
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
    seeded = sum(len(q) for q in seed_initial_queues(cfg, rng).queues)
    generated = 0
    for t in range(stats.ticks):
        generated += sum(len(a) for a in generate_arrivals(cfg, t + 1, rng))
    assert stats.throughput <= seeded + generated
    # seeded vehicles enter at 0, generated ones strictly later
    assert sum(1 for e in log if e.enter_tick == 0) <= seeded
    assert sum(1 for e in log if e.enter_tick > 0) <= generated


def test_wait_log_is_internally_consistent():
    cfg = SimConfig(spec=spec12(10), intensity=0.5, seed=4)
    stats, log = run_episode(cfg, PolicyKind.F1)
    for e in log:
        assert e.wait_ticks == e.exit_tick - e.enter_tick
        assert e.seed == 4
        assert e.policy == "f1"
        assert e.priority in (1, 3, 10)
        assert 0 <= e.path < 12


def test_stats_agree_with_second_pass_over_log():
    cfg = SimConfig(spec=spec12(10), intensity=0.75, seed=21)
    stats, log = run_episode(cfg, PolicyKind.F2)
    waits = [e.wait_ticks for e in log]
    assert stats.throughput == len(waits)
    assert math.isclose(stats.mean_wait, float(np.mean(waits)), rel_tol=1e-12)
    assert math.isclose(stats.std_wait, float(np.std(waits)), rel_tol=1e-12)
    assert stats.max_wait == max(waits)
    assert stats.mean_wait_seconds == stats.mean_wait * simulator.TICK_SECONDS


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


def block_reader(seed):
    """`run_episode`'s arrival reader: `.random` is the next double of `_uniforms`."""
    draws = simulator._uniforms(np.random.Generator(np.random.PCG64(seed)))
    return SimpleNamespace(random=draws.__next__)


def test_buffered_uniforms_match_the_scalar_stream():
    # past two block refills, the reader hands out the doubles that one
    # scalar random() per draw gives from the same seed, in order
    n = 2 * simulator._DRAW_BLOCK + 17
    for seed in (0, 7):
        reader = block_reader(seed)
        scalar = np.random.Generator(np.random.PCG64(seed))
        assert [reader.random() for _ in range(n)] == [scalar.random() for _ in range(n)]


def test_arrivals_from_the_reader_equal_arrivals_from_a_generator():
    cfg = SimConfig(spec=spec12(10), intensity=1.0, seed=5, mode=SimMode.STEADY)
    reader = block_reader(cfg.seed)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    # about 12 * 1.3 draws a tick, so 700 ticks cross two refills
    for tick in range(700):
        assert generate_arrivals(cfg, tick, reader) == generate_arrivals(cfg, tick, rng)


def episode_stream_use(monkeypatch, cfg):
    """The episode generator's state right after seeding and at the end."""
    seen = {}
    seed_queues = simulator.seed_initial_queues

    def spy(cfg, rng=None):
        out = seed_queues(cfg, rng)
        seen["rng"], seen["after_seeding"] = rng, rng.bit_generator.state
        return out

    monkeypatch.setattr(simulator, "seed_initial_queues", spy)
    run_episode(cfg, PolicyKind.F1)
    return seen["after_seeding"], seen["rng"].bit_generator.state


def test_drain_episode_draws_no_uniforms_after_seeding(monkeypatch):
    drain = SimConfig(spec=spec12(10), intensity=0.5, seed=3)
    seeded, final = episode_stream_use(monkeypatch, drain)
    assert final == seeded
    # the same spy sees a steady episode draw its arrivals
    steady = SimConfig(spec=spec12(10), intensity=0.5, seed=3, mode=SimMode.STEADY, episode_ticks=5)
    seeded, final = episode_stream_use(monkeypatch, steady)
    assert final != seeded


def reference_episode(cfg, policy, solver_cfg=None):
    """`run_episode` replayed through the public tick: `step` once per tick,
    `generate_arrivals` on a raw Generator, then `append_arrivals`."""
    spec = cfg.spec
    solver_cfg = solver_cfg or SolverConfig()
    dyn = solver_cfg.dynamics
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    state = seed_initial_queues(cfg, rng)
    phase = spec.all_closed()
    st = ControllerState(phase)
    ages = initial_green_ages(spec, phase, dyn)
    log, rejected, terminated = [], 0, True
    while True:
        t = state.tick
        if cfg.mode is SimMode.DRAIN:
            if state.is_empty():
                break
            if t >= simulator.TICK_CAP:
                terminated = False
                break
        elif t >= cfg.episode_ticks:
            break
        if t % dyn.phase_ticks == 0:
            if policy is PolicyKind.HORIZON:
                st.prev_phase = phase
                phase = decide_horizon_opt(spec, state, st, solver_cfg)
            elif policy is PolicyKind.F1:
                phase = decide_f1(state, spec.conflicts)
            else:
                phase = decide_f2(t, spec.conflicts, dyn.phase_ticks)
        out = step(spec, state, phase, ages, dyn)
        log += [
            WaitLogEntry(cfg.seed, policy.value, i, v.priority, t - v.wait, t, v.wait)
            for i, v in out.departed
        ]
        state, ages = out.next, out.green_age
        if cfg.mode is SimMode.STEADY:
            state, rej = append_arrivals(spec, state, generate_arrivals(cfg, state.tick, rng))
            rejected += rej
    waits = [e.wait_ticks for e in log]
    mean = float(np.mean(waits)) if waits else 0.0
    wmax = solver_cfg.wmax
    starved = 0
    if wmax is not None:
        starved = sum(w > wmax for w in waits) + sum(
            v.wait > wmax for q in state.queues for v in q
        )
    stats = EpisodeStats(
        mean_wait=mean,
        mean_wait_seconds=mean * simulator.TICK_SECONDS,
        std_wait=float(np.std(waits)) if waits else 0.0,
        max_wait=max(waits, default=0),
        throughput=len(log),
        rejected_arrivals=rejected,
        starvation_events=starved,
        terminated=terminated,
        ticks=state.tick,
    )
    return stats, tuple(log)


@pytest.mark.parametrize("policy", [PolicyKind.F1, PolicyKind.F2, PolicyKind.HORIZON])
@pytest.mark.parametrize("mode", [SimMode.DRAIN, SimMode.STEADY])
def test_run_episode_equals_the_step_reference_loop(policy, mode):
    # short queues at full load make steady episodes reject arrivals and
    # a tight wmax makes the guard and the starvation count take part
    cases = [
        (SimConfig(spec=spec12(10), intensity=0.5, seed=s, mode=mode, episode_ticks=150), None)
        for s in (0, 1, 2)
    ]
    full = SimConfig(
        spec=spec12(max_queue_len=6), intensity=1.0, seed=3, mode=mode, episode_ticks=150
    )
    cases.append((full, SolverConfig(wmax=12)))
    for cfg, solver_cfg in cases:
        ours = run_episode(cfg, policy, solver_cfg)
        assert ours == reference_episode(cfg, policy, solver_cfg)
        assert ours[0].throughput > 0
    # `full` ran last
    assert ours[0].starvation_events > 0
    assert (ours[0].rejected_arrivals > 0) == (mode is SimMode.STEADY)


def implicit_wait_cases(mode):
    """(cfg, solver_cfg) pairs held to `implicit_wait_episode`: the step
    reference's cases, plus a guard-off steady one; with
    GREENLIGHT_ALL_EPISODES=1, the 63 episodes per mode of the full set."""
    if os.environ.get("GREENLIGHT_ALL_EPISODES") == "1":
        cases = [
            (SimConfig(IntersectionSpec.standard(), x, seed=s, mode=mode, episode_ticks=1000), None)
            for x in (0.25, 0.5, 0.75, 1.0) for s in range(5)
        ]
        return cases + [(SimConfig(spec12(6), 1.0, seed=3, mode=mode, episode_ticks=1000), SolverConfig(wmax=12))]
    cases = [
        (SimConfig(spec12(10), 0.5, seed=s, mode=mode, episode_ticks=150), None) for s in (0, 1, 2)
    ]
    cases.append((SimConfig(spec12(6), 1.0, seed=3, mode=mode, episode_ticks=150), SolverConfig(wmax=12)))
    if mode is SimMode.STEADY:
        cases.append((SimConfig(spec12(6), 1.0, seed=3, mode=mode, episode_ticks=150), SolverConfig(wmax=None)))
    return cases


@pytest.mark.parametrize("policy", [PolicyKind.F1, PolicyKind.F2, PolicyKind.HORIZON])
@pytest.mark.parametrize("mode", [SimMode.DRAIN, SimMode.STEADY])
def test_run_episode_equals_the_implicit_wait_reference(policy, mode):
    # a reference that shares no dynamics, seeding or arrival code: equal
    # stats and wait logs check the aging of queued records end to end, and
    # a drained episode's tick costs sum to its priority-weighted waits
    for cfg, solver_cfg in implicit_wait_cases(mode):
        stats, log, cost = implicit_wait_episode(cfg, policy, solver_cfg)
        assert run_episode(cfg, policy, solver_cfg) == (stats, log)
        assert stats.throughput > 0
        if mode is SimMode.DRAIN:
            assert stats.terminated
            assert cost == sum(e.priority * e.wait_ticks for e in log)


@pytest.mark.parametrize("mode", [SimMode.DRAIN, SimMode.STEADY])
def test_horizon_decisions_see_the_phase_stepped_on_the_previous_tick(monkeypatch, mode):
    # decide_horizon_opt reads st.prev_phase: all red at tick 0, then the
    # phase `step` applied on the tick before the decision
    spec = spec12(10)
    stepped, seen = [], []
    real_step, real_decide = simulator.step, simulator.decide_horizon_opt

    def spy_step(spec, s, phase, *rest):
        stepped.append((s.tick, phase))
        return real_step(spec, s, phase, *rest)

    def spy_decide(spec, s, st, cfg):
        seen.append((s.tick, st.prev_phase))
        return real_decide(spec, s, st, cfg)

    monkeypatch.setattr(simulator, "step", spy_step)
    monkeypatch.setattr(simulator, "decide_horizon_opt", spy_decide)
    cfg = SimConfig(spec=spec, intensity=0.75, seed=4, mode=mode, episode_ticks=120)
    run_episode(cfg, PolicyKind.HORIZON)
    assert seen[0] == (0, spec.all_closed())
    phase_at = dict(stepped)
    assert len(seen) > 10
    for tick, prev in seen[1:]:
        assert prev == phase_at[tick - 1]
        assert prev.mask


@pytest.mark.parametrize("policy", [PolicyKind.F1, PolicyKind.F2, PolicyKind.HORIZON])
def test_run_episode_calls_the_hooked_tick_functions_once_per_tick(monkeypatch, policy):
    # the contract the benchmark's tick timer and traced hooks read: each
    # tick calls `step` once, with the snapshot second; a steady tick then
    # draws and appends its arrivals once each, and a drain tick neither
    calls = {"step": [], "generate_arrivals": [], "append_arrivals": []}
    for name, seen in calls.items():
        real = getattr(simulator, name)

        def spy(*args, real=real, seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(simulator, name, spy)
    for mode in SimMode:
        for seen in calls.values():
            seen.clear()
        cfg = SimConfig(spec=spec12(10), intensity=0.5, seed=2, mode=mode, episode_ticks=60)
        stats, _ = run_episode(cfg, policy)
        assert stats.ticks > 0
        assert [args[1].tick for args in calls["step"]] == list(range(stats.ticks))
        steady = range(1, stats.ticks + 1) if mode is SimMode.STEADY else range(0)
        assert [args[1] for args in calls["generate_arrivals"]] == list(steady)
        assert [args[1].tick for args in calls["append_arrivals"]] == list(steady)
