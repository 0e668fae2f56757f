"""Exact schedule search: pruned branch and bound versus full enumeration.

Run with: python3 demos/03_schedule_search.py
"""

from greenlight import (
    IntersectionSpec,
    SimConfig,
    SolverConfig,
    exhaustive_oracle,
    optimize_schedule,
    seed_initial_queues,
)


def main() -> None:
    spec = IntersectionSpec.standard(max_queue_len=10)
    sim = SimConfig(spec=spec, intensity=0.8, seed=12)
    snapshot = seed_initial_queues(sim)
    print("A junction seeded to 80% capacity: every path holds 8 vehicles")
    print("with random priorities. Planning 3 phases ahead (12 maximal")
    print("phases per step means 12^3 = 1728 candidate schedules).\n")

    cfg = SolverConfig(horizon=3)
    best = optimize_schedule(spec, snapshot, spec.all_closed(), cfg)
    brute = exhaustive_oracle(spec, snapshot, spec.all_closed(), cfg)

    print("pruned search:")
    for i, ph in enumerate(best.schedule, 1):
        print(f"  phase {i}: {ph}")
    print(f"  cost {best.cost}, nodes {best.nodes_explored}, "
          f"{best.elapsed_seconds * 1000:.1f}ms")
    print(f"  nodes by depth {best.nodes_by_depth}")
    print("full enumeration:")
    print(f"  cost {brute.cost}, nodes {brute.nodes_explored}, "
          f"{brute.elapsed_seconds * 1000:.1f}ms")
    print(f"  nodes by depth {brute.nodes_by_depth}")

    assert best.cost == brute.cost
    assert best.schedule == brute.schedule
    saved = 100 * (1 - best.nodes_explored / brute.nodes_explored)
    print(f"\nSame schedule, same cost, {saved:.0f}% of the tree never")
    print("visited: the admissible bound (each path serves at most one")
    print("vehicle per tick, and a path left red waits out its slow start")
    print("before the next) lets whole subtrees be discarded as soon as")
    print("their accrued cost plus the bound reaches the incumbent. The")
    print("incumbent starts from one greedy dive (the cheapest-looking")
    print("phase at each step); the search then discards only branches")
    print("above the dive's cost until it reaches a leaf of its own, so")
    print("ties still go to the lexicographically first schedule.")
    print("\nBefore the last step the bound is tightened once more.")
    print("Paths that cross form cliques, and a phase opens at most one")
    print("path of each, so only one of them can gain from the last")
    print("block. A candidate that passes the first test is checked")
    print("against that sharper bound, which is why so few last-step")
    print("nodes remain.")


if __name__ == "__main__":
    main()
