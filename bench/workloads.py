"""The four benchmark workloads.

Each workload is a closed loop in one thread: every call starts after the
previous one returns. A run builds its inputs from the workload seed,
then repeats one fixed pass over them until the run time is used up, so
per-pass counts are the same in every pass. Output checks run outside
the timed calls.

Between the timed calls of an untraced pass the recorder runs a fixed
reference probe, and every reported time is scaled by how fast the
probe ran in the same pass (see `Recorder.scales`).

A workload has five steps: `files` writes input files once, `setup` is
the timed set-up (junctions and the first phase enumeration), `prepare`
builds the seeded inputs, `run_pass` makes the timed calls, and `check`
verifies the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from tracer import Patch, guard_target


# Median time of `reference_probe` on an otherwise idle 2-vCPU Xeon VM; reported
# times are in ms at this probe speed.
PROBE_MS = 2.5
PROBE_EVERY = 0.015  # seconds between probes while timed calls run


def reference_probe():
    """Fixed interpreter work (integers, tuples, a dict), like the solver's inner loop.

    The program's code does not run here, so a change to the program
    leaves the probe's time alone, while a busy host slows both alike.
    """
    seen = {}
    acc = 0
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFF
        key = (m, i & 7)
        seen[key] = seen.get(key, 0) + 1
        acc ^= m >> (i & 3)
    return acc, len(seen)


@dataclass
class Call:
    label: str
    seconds: float
    traced: bool
    work: int
    pass_index: int
    op: object  # identifies the operation, the same in every pass


class Recorder:
    """Timed calls, reference probes, failures and checks of one run."""

    def __init__(self):
        self.calls: list[Call] = []
        self.tracer = None  # set while a traced pass runs
        self.pass_index = 0
        self.op = 0
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.probes: list[tuple[int, float]] = []  # (pass index, seconds)
        self.probe_seconds = 0.0  # total probe time, left out of every timed span
        self.last_probe = time.perf_counter()

    def probe(self):
        """Run the reference probe if PROBE_EVERY seconds have passed since the last one.

        Traced passes run no probe, so their spans cover the program only.
        """
        if self.tracer is not None:
            return
        t0 = time.perf_counter()
        if t0 - self.last_probe < PROBE_EVERY:
            return
        reference_probe()
        self.last_probe = time.perf_counter()
        self.probes.append((self.pass_index, self.last_probe - t0))
        self.probe_seconds += self.last_probe - t0

    def probe_ms(self):
        """Median probe time of the run in ms; 0 without probes."""
        return statistics.median(s for _p, s in self.probes) * 1000.0 if self.probes else 0.0

    def scales(self):
        """Pass index -> PROBE_MS over the median probe time of that pass.

        A time multiplied by its pass's scale reads as it would on a host
        where the probe takes PROBE_MS. Other tenants of a small VM slow
        the probe and the program alike, and their load changes within
        seconds, so each pass is scaled by its own probes.
        """
        times = {}
        for p, seconds in self.probes:
            times.setdefault(p, []).append(seconds)
        return {p: PROBE_MS / (statistics.median(v) * 1000.0) for p, v in times.items()}

    def start_pass(self, index, tracer):
        self.pass_index, self.op, self.tracer = index, 0, tracer

    def call(self, label, fn, *args, work=1, key=None):
        """Time fn(*args) as one operation; None if it raised.

        `work` is the work units the call completed, or a function of its
        result that returns them. `key` names the operation when a pass
        runs it more than once; by default it is the call's position in
        the pass.
        """
        tracer = self.tracer
        token = tracer.begin("call:" + label) if tracer else None
        self.attempted += 1
        op = self.op if key is None else key
        self.op += 1
        probed = self.probe_seconds
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            seconds = time.perf_counter() - t0 - (self.probe_seconds - probed)
            if tracer:
                tracer.end(token)
        units = work(result) if callable(work) else work
        self.calls.append(Call(label, seconds, tracer is not None, units, self.pass_index, op))
        self.probe()
        return result

    def check(self, name, ok, detail=""):
        self.attempted += 1
        self.failed += not ok
        self.checks.append((name, bool(ok), detail))

    def untraced(self):
        return [c for c in self.calls if not c.traced]


def typical(samples, scales):
    """Median scaled time of each operation over the passes that ran it.

    `samples` are (operation, seconds, pass index); each time is multiplied
    by its pass's scale from `Recorder.scales`.
    """
    times = {}
    for op, seconds, p in samples:
        times.setdefault(op, []).append(seconds * scales[p])
    return {op: statistics.median(v) for op, v in times.items()}


def percentile_ms(seconds):
    """(p50, p90, n) in ms over n distinct operations."""
    ms = sorted(s * 1000.0 for s in seconds)
    if len(ms) < 2:
        return (ms[0], ms[0], 1) if ms else (0.0, 0.0, 0)
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8], len(ms)


class Workload:
    name = ""
    rate_name = ""  # end-to-end name of work per second
    latency_name = ""  # end-to-end name prefix of the timed call's latency
    min_passes = 2

    def files(self, gl, work_dir):
        pass

    def setup(self, gl):
        raise NotImplementedError

    def prepare(self, gl, seed, tracer):
        raise NotImplementedError

    def start(self, rec):
        pass

    def stop(self):
        pass

    def run_pass(self, gl, rec):
        raise NotImplementedError

    def check(self, gl, rec):
        raise NotImplementedError

    def latency_ops(self, rec):
        """(operation, seconds, pass index) of the untraced calls whose latency is reported."""
        return [(c.op, c.seconds, c.pass_index) for c in rec.untraced()]

    def busy_ops(self, rec):
        """(operation, seconds, pass index) that add up to the busy time of an untraced pass."""
        return self.latency_ops(rec)

    def named_metrics(self, rec):
        """End-to-end metrics under this workload's own names: name -> (value, unit).

        Each operation counts with the median of its repeats: latency
        percentiles are over the distinct operations, and the rate is their
        work over the sum of their medians. All times are scaled by their
        pass's probe speed.
        """
        scales = rec.scales()
        work = sum({c.op: c.work for c in rec.untraced()}.values())
        busy = sum(typical(self.busy_ops(rec), scales).values())
        p50, p90, n = percentile_ms(typical(self.latency_ops(rec), scales).values())
        return {
            self.rate_name: (work / busy if busy else 0.0, "1/s"),
            f"{self.latency_name}_p50": (p50, "ms"),
            f"{self.latency_name}_p90": (p90, "ms"),
            "latency_samples": (n, "count"),
        }

    def explored_share(self):
        """Optimizer nodes over oracle nodes on the checked sample; 0 without one."""
        return 0.0

    def report(self, rec):
        """Extra facts for the result file (hashes, per-slice tables)."""
        return {}


class DrainGrid(Workload):
    """The C3 grid as a user runs it: `greenlight sweep` in-process."""

    name = "drain_grid"
    rate_name = "ticks_per_s"
    latency_name = "decision_ms"
    RUNS = 20  # 240 episodes: the C3 grid
    INTENSITIES = "0.25,0.5,0.75,1.0"

    def files(self, gl, work_dir):
        self.instance = str(work_dir / "instance_default.json")
        self.csv = work_dir / "sweep.csv"
        gl.save_instance(gl.IntersectionSpec.standard(), self.instance)

    def setup(self, gl):
        spec = gl.load_instance(self.instance)
        spec.conflicts.maximal_phases()

    def prepare(self, gl, seed, tracer):
        self.argv = [
            "sweep", "--instance", self.instance, "--intensity", self.INTENSITIES,
            "--runs", str(self.RUNS), "--seed", str(seed * self.RUNS),
            "--policy", "horizon,f1,f2", "--out", str(self.csv),
        ]
        self.gl = gl
        self.texts = []
        self.decisions = []  # (pass index, seconds) of untraced passes
        self.ticks = 0
        self.margins = {}

    def start(self, rec):
        # One perf_counter pair per horizon decision, and a tick count per
        # episode; the traced run's hooks stack on top of these.
        def time_decision(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                if rec.tracer is None:
                    self.decisions.append((rec.pass_index, time.perf_counter() - t0))
                    rec.probe()
                return result
            return timed

        def count_ticks(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.ticks += result[0].ticks
                return result
            return counted

        self.patch = Patch()
        self.timer_found = self.patch.wrap("greenlight.simulator.decide_horizon_opt", time_decision)
        self.counter_found = self.patch.wrap("greenlight.cli.run_episode", count_ticks)

    def stop(self):
        self.patch.restore()

    def _sweep(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.gl.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"greenlight sweep exited with {code}")
        return code

    def _take_ticks(self, _result):
        ticks, self.ticks = self.ticks, 0
        return ticks

    def run_pass(self, gl, rec):
        if rec.call("sweep", self._sweep, work=self._take_ticks) is None:
            return
        text = self.csv.read_text(encoding="utf-8")
        self.texts.append(text)
        rows = self._rows(text)
        stuck = sum(1 for r in rows if r["terminated"] != "true")
        rec.attempted += len(rows)
        rec.failed += stuck

    @staticmethod
    def _rows(text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]

    def check(self, gl, rec):
        rec.check("decision timer hook present", self.timer_found)
        rec.check("tick counter hook present", self.counter_found)
        rec.check("sweep ran", bool(self.texts))
        if not self.texts:
            return
        rows = self._rows(self.texts[0])
        expected = 4 * 3 * self.RUNS
        rec.check("sweep rows", len(rows) == expected, f"{len(rows)} of {expected}")
        rec.check("sweep csv byte-identical across passes", len(set(self.texts)) == 1,
                  f"{len(self.texts)} passes")
        stuck = sum(1 for r in rows if r["terminated"] != "true")
        rec.check("every drain episode terminates", stuck == 0, f"{stuck} did not")
        rec.check("horizon decisions timed", bool(self.decisions))

    def latency_ops(self, rec):
        ops, seen = [], {}
        for p, seconds in self.decisions:
            seen[p] = seen.get(p, -1) + 1
            ops.append((seen[p], seconds, p))
        return ops

    def busy_ops(self, rec):
        # decisions, plus the rest of each sweep as one more operation
        rest = [("rest", c.seconds - sum(s for p, s in self.decisions if p == c.pass_index), c.pass_index)
                for c in rec.untraced()]
        return self.latency_ops(rec) + rest

    def named_metrics(self, rec):
        out = super().named_metrics(rec)
        if not self.texts:
            return out
        rows = self._rows(self.texts[0])
        cell = {}
        for r in rows:
            cell.setdefault((float(r["intensity"]), r["policy"]), []).append(float(r["mean_wait_ticks"]))
        horizon = [r for r in rows if r["policy"] == "horizon"]
        margins = {}
        for x in sorted({k[0] for k in cell}):
            h = statistics.mean(cell[(x, "horizon")])
            f2 = statistics.mean(cell[(x, "f2")])
            margins[x] = 100.0 * (f2 - h) / f2 if f2 else 0.0
        self.margins = margins
        out["mean_wait_ticks"] = (statistics.mean(float(r["mean_wait_ticks"]) for r in horizon), "ticks")
        out["max_wait_ticks"] = (max(int(r["max_wait_ticks"]) for r in horizon), "ticks")
        out["f2_margin_pct"] = (min(m for x, m in margins.items() if x >= 0.5), "%")
        return out

    def report(self, rec):
        if not self.texts:
            return {}
        return {
            "sweep_csv_sha256": hashlib.sha256(self.texts[0].encode("utf-8")).hexdigest(),
            "sweep_args": " ".join(self.argv[3:-2]),
            "f2_margin_pct_by_intensity": {f"{x:.2f}": m for x, m in self.margins.items()},
        }


class SteadyFixed(Workload):
    """Long steady-mode episodes under the two fixed-time baselines.

    The reported latency is one tick: the time from one `step` call of an
    episode to the next, which covers the decision, the step and the
    arrivals of that tick.
    """

    name = "steady_fixed"
    rate_name = "ticks_per_s"
    latency_name = "tick_ms"
    TICKS = 1000

    def setup(self, gl):
        self.spec = gl.IntersectionSpec.standard()
        self.spec.conflicts.maximal_phases()

    def prepare(self, gl, seed, tracer):
        # Two thirds of the episodes have short queues, a third are overloaded.
        plan = [(0.5, 16 * seed + j) for j in range(16)] + [(1.0, 16 * seed + j) for j in range(8)]
        self.episodes = []
        for intensity, s in plan:
            for policy in (gl.PolicyKind.F1, gl.PolicyKind.F2):
                cfg = gl.SimConfig(spec=self.spec, intensity=intensity, seed=s,
                                   mode=gl.SimMode.STEADY, episode_ticks=self.TICKS)
                self.episodes.append((f"{policy.value}-{intensity:.2f}-s{s}", cfg, policy))
        self.first = {}
        self.repeat_ok = True
        self.offered = 0
        self.ticks = []  # ((episode, tick), seconds, pass index) of untraced passes
        self.last_step = None

    def start(self, rec):
        def time_tick(fn):
            def timed(*args, **kwargs):
                if rec.tracer is None:
                    now = time.perf_counter()
                    if self.last_step is not None:
                        self.ticks.append(((self.episode, args[1].tick), now - self.last_step,
                                           rec.pass_index))
                    rec.probe()
                    self.last_step = time.perf_counter()
                return fn(*args, **kwargs)
            return timed

        self.patch = Patch()
        self.timer_found = self.patch.wrap("greenlight.simulator.step", time_tick)

    def stop(self):
        self.patch.restore()

    def run_pass(self, gl, rec):
        for self.episode, (label, cfg, policy) in enumerate(self.episodes):
            self.last_step = None
            out = rec.call(label, gl.run_episode, cfg, policy, work=lambda r: r[0].ticks)
            if out is None:
                continue
            if label not in self.first:
                self.first[label] = out
            elif out != self.first[label]:
                self.repeat_ok = False

    def check(self, gl, rec):
        rec.check("tick timer hook present", self.timer_found)
        rec.check("ticks timed", bool(self.ticks))
        rec.check("every episode ran", len(self.first) == len(self.episodes))
        rec.check("seeded episodes identical across passes", self.repeat_ok)
        bad = sum(1 for _s, log in self.first.values() for e in log
                  if e.wait_ticks != e.exit_tick - e.enter_tick)
        rec.check("wait_ticks == exit_tick - enter_tick", bad == 0, f"{bad} rows differ")
        # Offered arrivals, replayed from the simulator's documented draw
        # order: the initial queues, then one arrival draw per path and tick.
        self.offered = 0
        for label, cfg, _policy in self.episodes:
            rng = np.random.Generator(np.random.PCG64(cfg.seed))
            gl.seed_initial_queues(cfg, rng)
            for t in range(1, cfg.episode_ticks + 1):
                self.offered += sum(len(a) for a in gl.generate_arrivals(cfg, t, rng))
        rejected = sum(stats.rejected_arrivals for stats, _ in self.first.values())
        rec.check("rejected arrivals within offered", rejected <= self.offered,
                  f"{rejected} of {self.offered}")

    def latency_ops(self, rec):
        return self.ticks

    def busy_ops(self, rec):
        return [(c.op, c.seconds, c.pass_index) for c in rec.untraced()]

    def named_metrics(self, rec):
        out = super().named_metrics(rec)
        waits = [e.wait_ticks for _s, log in self.first.values() for e in log]
        if waits:
            out["mean_wait_ticks"] = (statistics.mean(waits), "ticks")
            out["max_wait_ticks"] = (max(waits), "ticks")
        rejected = sum(stats.rejected_arrivals for stats, _ in self.first.values())
        out["rejected_share"] = (rejected / self.offered if self.offered else 0.0, "ratio")
        return out


class PlanWorkload(Workload):
    """A fixed batch of planning calls, checked on a sample against the oracle.

    A pass runs in ROUNDS rounds. Each round makes every call outside
    SLOW once, plus its share of the SLOW calls, so the short calls
    repeat more often and their medians rest on more repeats.
    """

    rate_name = "plans_per_s"
    latency_name = "plan_ms"
    SAMPLE: dict[str, int] = {}
    SLOW: tuple[str, ...] = ()
    ROUNDS = 1

    def prepare_inputs(self, gl, seed, tracer):
        raise NotImplementedError

    def prepare(self, gl, seed, tracer):
        self.inputs = self.prepare_inputs(gl, seed, tracer)
        fast = [i for i, inp in enumerate(self.inputs) if inp[0] not in self.SLOW]
        slow = [i for i, inp in enumerate(self.inputs) if inp[0] in self.SLOW]
        self.order = [i for r in range(self.ROUNDS) for i in fast + slow[r::self.ROUNDS]]
        self.results = {}
        self.oracle_nodes = self.sample_nodes = 0
        self.repeat_ok = True
        rng = np.random.default_rng(seed)
        self.sample = []
        for label, count in self.SAMPLE.items():
            idx = [i for i, inp in enumerate(self.inputs) if inp[0] == label]
            self.sample += sorted(rng.choice(idx, size=min(count, len(idx)), replace=False).tolist())

    def run_pass(self, gl, rec):
        for i in self.order:
            label, spec, s, prev, cfg = self.inputs[i]
            sol = rec.call(label, gl.optimize_schedule, spec, s, prev, cfg, key=i)
            if sol is None:
                continue
            key = (sol.schedule, sol.cost, sol.nodes_explored)
            if i not in self.results:
                self.results[i] = key
            elif key != self.results[i]:
                self.repeat_ok = False

    def check(self, gl, rec):
        rec.check("every plan ran", len(self.results) == len(self.inputs))
        rec.check("plans identical across passes", self.repeat_ok)
        self.oracle_nodes = self.sample_nodes = 0
        for i in self.sample:
            label, spec, s, prev, cfg = self.inputs[i]
            if i not in self.results:
                continue
            schedule, cost, nodes = self.results[i]
            try:
                orc = gl.exhaustive_oracle(spec, s, prev, cfg)
            except Exception as exc:
                rec.check(f"oracle agrees on {label} #{i}", False, repr(exc))
                continue
            ok = orc.schedule == schedule and orc.cost == cost
            rec.check(f"oracle agrees on {label} #{i}", ok, f"cost {cost} vs {orc.cost}")
            self.oracle_nodes += orc.nodes_explored
            self.sample_nodes += nodes

    def explored_share(self):
        return self.sample_nodes / self.oracle_nodes if self.oracle_nodes else 0.0

    def report(self, rec):
        """Per-slice calls, nodes and median call in ms, over the distinct inputs."""
        best = typical(self.latency_ops(rec), rec.scales())
        table = {}
        for i, (label, *_rest) in enumerate(self.inputs):
            row = table.setdefault(label, {"inputs": 0, "nodes": 0, "ms": []})
            row["inputs"] += 1
            row["nodes"] += self.results.get(i, (None, None, 0))[2]
            if i in best:
                row["ms"].append(best[i] * 1000.0)
        for row in table.values():
            row["ms_p50"] = statistics.median(row.pop("ms")) if row["ms"] else 0.0
        return {"slices": table}


class PlanDeep(PlanWorkload):
    """Maximal candidates at k=3 and k=5: the solver alone."""

    name = "plan_deep"
    C8_SEEDS = 50
    PACKED_SEEDS = range(50, 100)
    K5_C8 = 2
    GUARDED = 15
    SAMPLE = {"k3-c8": 1, "k3-guard": 2}
    SLOW = ("k5-c8",)
    ROUNDS = 2

    def setup(self, gl):
        self.packed = gl.IntersectionSpec.standard(max_queue_len=10)
        self.default = gl.IntersectionSpec.standard()
        self.packed.conflicts.maximal_phases()
        self.default.conflicts.maximal_phases()

    def _guarded_states(self, gl, seed):
        """(snapshot, prev_phase) at guarded decisions of a steady horizon episode."""
        found = []

        def record(fn):
            def recorded(spec, s, st, cfg):
                if guard_target(s, cfg.wmax) is not None and st.prev_phase.mask:
                    found.append((s, st.prev_phase))
                return fn(spec, s, st, cfg)
            return recorded

        patch = Patch()
        if not patch.wrap("greenlight.simulator.decide_horizon_opt", record):
            raise RuntimeError("greenlight.simulator.decide_horizon_opt is absent")
        try:
            cfg = gl.SimConfig(spec=self.default, intensity=0.75, seed=seed,
                               mode=gl.SimMode.STEADY, episode_ticks=400)
            gl.run_episode(cfg, gl.PolicyKind.HORIZON)
        finally:
            patch.restore()
        return found

    def prepare_inputs(self, gl, seed, tracer):
        k3 = gl.SolverConfig(horizon=3)
        k5 = gl.SolverConfig(horizon=5)
        # The C8 snapshots and 50 more of the same kind are a fixed instance
        # set, so the seed does not move the k=3 calls that hold the p50 and
        # p90; it picks the guard-active states, some of which land among them.
        def packed(i):
            return gl.seed_initial_queues(gl.SimConfig(spec=self.packed, intensity=1.0, seed=i))

        c8 = [packed(i) for i in range(self.C8_SEEDS)]
        more = [packed(i) for i in self.PACKED_SEEDS]
        closed = self.packed.all_closed()
        states = self._guarded_states(gl, seed)
        picks = np.random.default_rng(seed).choice(len(states), size=min(self.GUARDED, len(states)),
                                                   replace=False)
        guarded = [states[i] for i in sorted(picks.tolist())]
        return (
            [("k3-c8", self.packed, s, closed, k3) for s in c8]
            + [("k3-packed", self.packed, s, closed, k3) for s in more]
            + [("k5-c8", self.packed, s, closed, k5) for s in c8[: self.K5_C8]]
            + [("k3-guard", self.default, s, prev, k3) for s, prev in guarded]
            + [("k5-guard", self.default, s, prev, k5) for s, prev in guarded]
        )


class PlanWide(PlanWorkload):
    """All feasible phases as candidates: phase enumeration on every call."""

    name = "plan_wide"
    ARMS = (3, 4, 5, 6, 7)
    # The cheap 3-arm calls put the p50 near the middle of the 4-arm calls
    # rather than at their slow end.
    K1_CALLS = {3: 48, 4: 64, 5: 32, 6: 4, 7: 1}
    K2_C8_SEEDS = 1
    SAMPLE = {"k1-arms3": 1, "k1-arms4": 1, "k1-arms5": 1}
    SLOW = ("k1-arms6", "k1-arms7", "k2-arms4")
    ROUNDS = 3

    def setup(self, gl):
        self.specs = {a: gl.IntersectionSpec.standard(a, max_queue_len=10) for a in self.ARMS}
        self.feasible = {a: gl.enumerate_feasible_phases(spec.conflicts, maximal_only=False)
                         for a, spec in self.specs.items()}

    def prepare_inputs(self, gl, seed, tracer):
        k1 = gl.SolverConfig(horizon=1, maximal_only=False)
        k2 = gl.SolverConfig(horizon=2, maximal_only=False)
        if tracer is not None:
            for a, spec in self.specs.items():
                tracer.feasible[id(spec.conflicts)] = self.feasible[a]
        inputs = []
        for a in self.ARMS:
            spec = self.specs[a]
            for j in range(self.K1_CALLS[a]):
                sim = gl.SimConfig(spec=spec, intensity=1.0, seed=seed * 64 + j)
                inputs.append((f"k1-arms{a}", spec, gl.seed_initial_queues(sim), spec.all_closed(), k1))
        # k=2 uses fixed C8 snapshots: its node count varies widely by draw.
        spec = self.specs[4]
        for j in range(self.K2_C8_SEEDS):
            sim = gl.SimConfig(spec=spec, intensity=1.0, seed=j)
            inputs.append(("k2-arms4", spec, gl.seed_initial_queues(sim), spec.all_closed(), k2))
        return inputs


WORKLOADS = {w.name: w for w in (DrainGrid, SteadyFixed, PlanDeep, PlanWide)}
