"""Watching the tick dynamics: slow start, departures, and cost.

Run with: python3 demos/02_step_dynamics.py
"""

from greenlight import (
    DynamicsConfig,
    IntersectionSpec,
    Phase,
    TrafficSnapshot,
    VehicleRecord,
    step,
)


def show(s: TrafficSnapshot) -> str:
    parts = []
    for i, q in enumerate(s.queues):
        if q:
            parts.append(f"path {i}: " + " ".join(f"(p{v.priority},w{v.wait})" for v in q))
    return "; ".join(parts) if parts else "empty"


def main() -> None:
    spec = IntersectionSpec.standard(max_queue_len=10)
    cfg = DynamicsConfig(phase_ticks=4, slow_start=1)

    queues = [()] * 12
    queues[1] = (VehicleRecord(3, 0), VehicleRecord(1, 0))
    queues[4] = (VehicleRecord(1, 0),)
    state = TrafficSnapshot(0, tuple(queues))
    print("Two queues: path 1 holds priorities (3, 1), path 4 holds (1).")
    print("Paths 1 and 4 conflict, so a phase may open only one of them.\n")
    print(f"tick 0: {show(state)}")

    phase = Phase(1 << 1, 12)
    ages = [0] * 12
    for tick in range(3):
        out = step(spec, state, phase, ages, cfg)
        ages = out.green_age
        state = out.next
        left = ", ".join(f"path {p} vehicle (p{v.priority}) after waiting {v.wait}"
                         for p, v in out.departed) or "nobody"
        print(f"tick {state.tick}: departed {left}; cost {out.tick_cost}; "
              f"now {show(state)}")

    print("\nThe first tick served nobody: a freshly opened path spends")
    print(f"slow_start={cfg.slow_start} tick warming up. Each later tick")
    print("sends the front vehicle through. The tick cost is the priority")
    print("sum of everyone still waiting, so clearing the heavy vehicle")
    print("early is what a good schedule buys.")


if __name__ == "__main__":
    main()
