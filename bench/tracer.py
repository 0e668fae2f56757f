"""Name hooks and in-memory spans for the traced benchmark run.

Every hook wraps a name that a caller looks up at call time, such as
`greenlight.simulator.step`, the name the episode loop calls. The
wrapper records one span (id, parent id, name, start, end) and, for a
few hooks, a count read from the call's arguments or result. A hook
whose target no longer exists is reported as absent and skipped, so a
refactor that moves a function does not crash the benchmark.

Spans stay in memory until the run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import itertools
import time
from collections import defaultdict

# The traced layer of each metric family; spans the benchmark opens itself
# belong to the "bench" layer.
LAYERS = ("bench", "cli", "fileio", "simulator", "policies", "solver", "model", "dynamics")


def _step_extra(tracer, args, result):
    tracer.counts["dynamics.step.vehicles"] += sum(len(q) for q in args[1].queues)


def _enumerate_extra(tracer, args, result):
    tracer.counts["model.enumerate.masks"] += 1 << args[0].paths
    tracer.counts["model.enumerate.found"] += len(result)


def _episode_extra(tracer, args, result):
    tracer.counts["simulator.episodes"] += 1
    tracer.counts["simulator.ticks"] += result[0].ticks


def _optimize_extra(tracer, args, result):
    spec, s, _prev, cfg = args[:4]
    counts = tracer.counts
    counts["solver.nodes"] += result.nodes_explored
    target = guard_target(s, cfg.wmax)
    counts["solver.guarded"] += target is not None
    if cfg.maximal_only:
        base = spec.conflicts.maximal_phases()
    else:
        base = tracer.feasible.get(id(spec.conflicts))
    if base is not None:
        counts["solver.root_candidates"] += root_count(base, target)
        counts["solver.root_known"] += 1


# (dotted name the caller looks up, metric family, layer, count extractor)
HOOKS = (
    ("greenlight.cli.cmd_sweep", "cli.sweep", "cli", None),
    ("greenlight.cli.load_instance", "fileio.load_instance", "fileio", None),
    ("greenlight.cli.run_episode", "simulator.episode", "simulator", _episode_extra),
    ("greenlight.run_episode", "simulator.episode", "simulator", _episode_extra),
    ("greenlight.simulator.seed_initial_queues", "simulator.seed_queues", "simulator", None),
    ("greenlight.simulator.generate_arrivals", "simulator.generate_arrivals", "simulator", None),
    ("greenlight.simulator.append_arrivals", "simulator.append_arrivals", "simulator", None),
    ("greenlight.simulator.step", "dynamics.step", "dynamics", _step_extra),
    ("greenlight.simulator.decide_horizon_opt", "policies.decide_horizon", "policies", None),
    ("greenlight.simulator.decide_f1", "policies.decide_f1", "policies", None),
    ("greenlight.simulator.decide_f2", "policies.decide_f2", "policies", None),
    ("greenlight.policies.optimize_schedule", "solver.optimize", "solver", _optimize_extra),
    ("greenlight.optimize_schedule", "solver.optimize", "solver", _optimize_extra),
    ("greenlight.model.enumerate_feasible_phases", "model.enumerate", "model", _enumerate_extra),
    ("greenlight.solver.enumerate_feasible_phases", "model.enumerate", "model", _enumerate_extra),
)


def guard_target(s, wmax):
    """Path the starvation guard forces open at the root, or None."""
    if wmax is None:
        return None
    target, worst = None, -1
    for i, q in enumerate(s.queues):
        if q and q[0].wait >= wmax and q[0].wait > worst:
            target, worst = i, q[0].wait
    return target


def root_count(base, target):
    """Root candidates left after the guard filters `base`."""
    if target is None:
        return len(base)
    return sum(1 for ph in base if ph.mask >> target & 1)


def resolve(dotted):
    """(owner object, attribute) for a dotted name, or None if absent."""
    module, _, attr = dotted.rpartition(".")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Patch:
    """Replace named callables with wrappers and put the originals back."""

    def __init__(self):
        self._saved = []

    def wrap(self, dotted, make_wrapper):
        found = resolve(dotted)
        if found is None:
            return False
        owner, attr = found
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts recorded by the hooks while installed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.layer_of = {}
        self.spans = []
        self.counts = defaultdict(int)
        # all feasible phases per conflict matrix, registered by workloads
        # that plan over them, so root candidates are counted without
        # enumerating inside a hook
        self.feasible = {}
        self.absent = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patch = Patch()
        self._installed = False

    def name_id(self, name, layer):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
        return self._name_ids[name]

    def begin(self, name):
        """Open a span from the benchmark's own code; returns a token for end()."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, self.name_id(name, "bench"), time.perf_counter_ns()

    def end(self, token):
        t1 = time.perf_counter_ns()
        sid, parent, nid, t0 = token
        self._stack.pop()
        self.spans.append((sid, parent, nid, t0, t1))

    def _wrapper(self, nid, extra):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, nid, t0, t1))
                if extra is not None:
                    try:
                        extra(self, args, result)
                    except (AttributeError, IndexError, TypeError):
                        self.counts["trace.extra_errors"] += 1
                return result

            return traced

        return make

    def install(self):
        if self._installed:
            return
        self.absent = []
        for dotted, family, layer, extra in HOOKS:
            nid = self.name_id(family, layer)
            if not self._patch.wrap(dotted, self._wrapper(nid, extra)):
                self.absent.append(dotted)
        self._installed = True

    def uninstall(self):
        self._patch.restore()
        self._installed = False

    def summarize(self):
        """Per-name calls, total ns and self ns, plus per-slice layer self ns.

        A slice is the label of the nearest enclosing benchmark call span
        (named "call:<label>"); spans outside any call fall in slice "".
        """
        child_ns = defaultdict(int)
        parent_of = {}
        for sid, parent, _nid, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
            parent_of[sid] = parent
        name_of = {sid: self.names[nid] for sid, _p, nid, _a, _b in self.spans}
        slice_of = {0: ""}

        def slice_label(sid):
            path = []
            while sid not in slice_of:
                name = name_of[sid]
                if name.startswith("call:"):
                    slice_of[sid] = name[5:]
                    break
                path.append(sid)
                sid = parent_of[sid]
            label = slice_of[sid]
            for p in path:
                slice_of[p] = label
            return label

        per_name = defaultdict(lambda: [0, 0, 0])
        per_slice = defaultdict(lambda: defaultdict(int))
        for sid, _parent, nid, t0, t1 in self.spans:
            name = self.names[nid]
            own = (t1 - t0) - child_ns[sid]
            entry = per_name[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += own
            per_slice[slice_label(sid)][self.layer_of[name]] += own
            if name.startswith("call:"):
                per_slice[name[5:]]["wall"] += t1 - t0
        return per_name, per_slice

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, nid, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{self.names[nid]},{t0},{t1}\n")


# Per-layer metrics of a traced run: (name, unit, better). Counts and
# totals are per pass; ".us" metrics are means per call.
PER_LAYER = (
    ("model.enumerate.calls", "count", "lower"),
    ("model.enumerate.ms", "ms", "lower"),
    ("model.enumerate.masks", "count", "lower"),
    ("model.enumerate.yield", "ratio", "higher"),
    ("model.self_share", "ratio", "lower"),
    ("dynamics.step.calls", "count", "lower"),
    ("dynamics.step.us", "us", "lower"),
    ("dynamics.step.vehicles", "count", "lower"),
    ("dynamics.step.share", "ratio", "lower"),
    ("solver.optimize.calls", "count", "lower"),
    ("solver.optimize.ms", "ms", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.nodes_per_call", "count", "lower"),
    ("solver.us_per_node", "us", "lower"),
    ("solver.explored_share", "ratio", "lower"),
    ("solver.guarded_share", "ratio", "lower"),
    ("solver.root_candidates", "count", "lower"),
    ("solver.self_share", "ratio", "lower"),
    ("policies.decide_horizon.calls", "count", "lower"),
    ("policies.decide_f1.calls", "count", "lower"),
    ("policies.decide_f2.calls", "count", "lower"),
    ("policies.decide_horizon.self_ms", "ms", "lower"),
    ("policies.decide_f1.us", "us", "lower"),
    ("policies.decide_f2.us", "us", "lower"),
    ("policies.self_share", "ratio", "lower"),
    ("simulator.episodes", "count", "higher"),
    ("simulator.ticks", "count", "lower"),
    ("simulator.decisions", "count", "lower"),
    ("simulator.self_ms", "ms", "lower"),
    ("simulator.arrivals.us", "us", "lower"),
    ("simulator.seed_queues.ms", "ms", "lower"),
    ("simulator.self_share", "ratio", "lower"),
    ("fileio.load_instance.ms", "ms", "lower"),
    ("fileio.self_share", "ratio", "lower"),
    ("cli.sweep.self_ms", "ms", "lower"),
    ("cli.self_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, per_name, passes, pass_ns, explored_share, overhead_pct):
    """Per-layer metrics from the span summary and counts of `passes` traced passes."""
    counts = tracer.counts

    def calls(name):
        return per_name[name][0] if name in per_name else 0

    def total_ns(name):
        return per_name[name][1] if name in per_name else 0

    def self_ns(name):
        return per_name[name][2] if name in per_name else 0

    layer_self = defaultdict(int)
    for name, (_n, _total, own) in per_name.items():
        layer_self[tracer.layer_of[name]] += own

    enum_calls = calls("model.enumerate")
    steps = calls("dynamics.step")
    plans = calls("solver.optimize")
    nodes = counts["solver.nodes"]
    decides = [calls(f"policies.decide_{p}") for p in ("horizon", "f1", "f2")]
    m = {
        "model.enumerate.calls": enum_calls / passes,
        "model.enumerate.ms": total_ns("model.enumerate") / 1e6 / passes,
        "model.enumerate.masks": counts["model.enumerate.masks"] / passes,
        "model.enumerate.yield": _ratio(counts["model.enumerate.found"], counts["model.enumerate.masks"]),
        "dynamics.step.calls": steps / passes,
        "dynamics.step.us": _ratio(total_ns("dynamics.step") / 1e3, steps),
        "dynamics.step.vehicles": _ratio(counts["dynamics.step.vehicles"], steps),
        "dynamics.step.share": _ratio(self_ns("dynamics.step"), pass_ns),
        "solver.optimize.calls": plans / passes,
        "solver.optimize.ms": total_ns("solver.optimize") / 1e6 / passes,
        "solver.nodes": nodes / passes,
        "solver.nodes_per_call": _ratio(nodes, plans),
        "solver.us_per_node": _ratio(self_ns("solver.optimize") / 1e3, nodes),
        "solver.explored_share": explored_share,
        "solver.guarded_share": _ratio(counts["solver.guarded"], plans),
        "solver.root_candidates": _ratio(counts["solver.root_candidates"], counts["solver.root_known"]),
        "policies.decide_horizon.calls": decides[0] / passes,
        "policies.decide_f1.calls": decides[1] / passes,
        "policies.decide_f2.calls": decides[2] / passes,
        "policies.decide_horizon.self_ms": self_ns("policies.decide_horizon") / 1e6 / passes,
        "policies.decide_f1.us": _ratio(total_ns("policies.decide_f1") / 1e3, decides[1]),
        "policies.decide_f2.us": _ratio(total_ns("policies.decide_f2") / 1e3, decides[2]),
        "simulator.episodes": counts["simulator.episodes"] / passes,
        "simulator.ticks": counts["simulator.ticks"] / passes,
        "simulator.decisions": sum(decides) / passes,
        "simulator.self_ms": self_ns("simulator.episode") / 1e6 / passes,
        "simulator.arrivals.us": _ratio(
            (total_ns("simulator.generate_arrivals") + total_ns("simulator.append_arrivals")) / 1e3,
            calls("simulator.generate_arrivals"),
        ),
        "simulator.seed_queues.ms": total_ns("simulator.seed_queues") / 1e6 / passes,
        "fileio.load_instance.ms": total_ns("fileio.load_instance") / 1e6 / passes,
        "cli.sweep.self_ms": self_ns("cli.sweep") / 1e6 / passes,
        "trace.unattributed_share": _ratio(layer_self["bench"], pass_ns),
        "trace.overhead_pct": overhead_pct,
    }
    for layer in ("model", "solver", "policies", "simulator", "fileio", "cli"):
        m[f"{layer}.self_share"] = _ratio(layer_self[layer], pass_ns)
    return m
