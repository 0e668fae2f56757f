"""Junctions, snapshots, references and hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from greenlight import ConflictMatrix, IntersectionSpec, TrafficSnapshot, VehicleRecord
from greenlight.errors import InvalidSpecError


def spec12(max_queue_len=6):
    """The default four-arm junction: 12 paths, 16 conflicting pairs."""
    return IntersectionSpec.standard(max_queue_len=max_queue_len)


def snapshot_with(spec, path_queues, tick=0):
    """A snapshot of `spec` whose queues are {path: [(priority, wait), ...]},
    front vehicle first; paths not named are empty."""
    queues = [()] * spec.num_paths
    for path, vehicles in path_queues.items():
        queues[path] = tuple(VehicleRecord(p, w) for p, w in vehicles)
    return TrafficSnapshot(tick, tuple(queues))


def lower_bound(s: TrafficSnapshot, remaining_ticks: int) -> int:
    """Admissible lower bound on any feasible continuation's cost.

    A vehicle behind j others cannot leave before j ticks have passed, so
    over R remaining ticks it pays at least priority * min(j, R) no matter
    which phases are chosen, even ignoring slow starts and conflicts.
    """
    if remaining_ticks < 0:
        raise InvalidSpecError("remaining_ticks must be >= 0")
    total = 0
    for q in s.queues:
        for j, v in enumerate(q):
            total += v.priority * min(j, remaining_ticks)
    return total


def symmetric_array_strategy(max_paths=10):
    """Random symmetric boolean arrays with a zero diagonal, at any density.

    Each pair conflicts with a probability drawn from [0, 1] first, so the
    empty graph (every subset feasible) and the complete graph (only
    singletons) are as reachable as the graphs in between.
    """

    @st.composite
    def build(draw):
        p = draw(st.integers(min_value=1, max_value=max_paths))
        density = draw(st.floats(min_value=0.0, max_value=1.0))
        pairs = p * (p - 1) // 2
        draws = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                              min_size=pairs, max_size=pairs))
        data = np.zeros((p, p), dtype=bool)
        data[np.triu_indices(p, 1)] = [u < density for u in draws]
        return data | data.T

    return build()


def symmetric_matrix_strategy(max_paths=10):
    """The conflict matrices of the arrays `symmetric_array_strategy` draws."""
    return symmetric_array_strategy(max_paths).map(ConflictMatrix)
