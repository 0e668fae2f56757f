"""Mean waits across load levels, small edition.

A handful of seeds per point keeps this quick; the CLI runs the full
grid and writes a CSV you can plot (see docs/plotting.md):

    greenlight sweep --instance instance.json \
        --intensity 0.25,0.5,0.75,1.0 --runs 20 --out sweep.csv

Run with: python3 demos/05_load_sweep.py
"""

from statistics import mean

from greenlight import IntersectionSpec, PolicyKind, SimMode, SolverConfig
from greenlight.cli import SweepSpec, sweep_episodes

INTENSITIES = (0.25, 0.5, 0.75, 1.0)
POLICIES = (PolicyKind.HORIZON, PolicyKind.F1, PolicyKind.F2)
SWEEP = SweepSpec(intensities=INTENSITIES, runs=5, policies=POLICIES)


def main() -> None:
    waits = {}
    for intensity, policy, _, stats, _ in sweep_episodes(
        IntersectionSpec.standard(), SWEEP, SimMode.DRAIN, SolverConfig()
    ):
        waits.setdefault((intensity, policy), []).append(stats.mean_wait)

    print(f"Drain episodes, {SWEEP.runs} seeds per point, mean wait in ticks.\n")
    header = f"{'intensity':>9s}" + "".join(f"{p.value:>10s}" for p in POLICIES)
    print(header)
    print("-" * len(header))
    for intensity in INTENSITIES:
        row = [f"{intensity:9.2f}"]
        row += [f"{mean(waits[intensity, policy]):10.2f}" for policy in POLICIES]
        print("".join(row))

    print("\nThe planner's lead over both fixed rules widens as the junction")
    print("fills up: with every lane contended, choosing the next phase by")
    print("looking ahead beats both greedy counting and blind rotation.")


if __name__ == "__main__":
    main()
