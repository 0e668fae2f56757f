"""Hypothesis strategies shared by the test modules."""

import numpy as np
from hypothesis import strategies as st

from greenlight import ConflictMatrix


def symmetric_matrix_strategy(max_paths=10):
    """Random symmetric conflict matrices with a zero diagonal."""

    def build(p, bits):
        data = np.zeros((p, p), dtype=bool)
        data[np.triu_indices(p, 1)] = bits
        return ConflictMatrix(data | data.T)

    return st.integers(min_value=1, max_value=max_paths).flatmap(
        lambda p: st.builds(
            build, st.just(p), st.lists(st.booleans(), min_size=p * (p - 1) // 2,
                                        max_size=p * (p - 1) // 2)
        )
    )
