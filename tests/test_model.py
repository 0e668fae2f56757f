"""Tests for intersection geometry, conflict construction, and phase enumeration."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenlight import (
    MAX_FEASIBLE_PHASES,
    ConflictMatrix,
    DrivingSide,
    IntersectionSpec,
    Movement,
    Phase,
    TrafficSnapshot,
    Turn,
    VehicleRecord,
    build_conflict_matrix,
    decode_snapshot,
    encode_snapshot,
    enumerate_feasible_phases,
    exit_arm,
    is_feasible_phase,
    load_instance,
    save_instance,
    standard_movements,
)
from greenlight.errors import (
    DimensionError,
    InvalidGeometryError,
    InvalidSpecError,
    MalformedArrayError,
    TooManyPhasesError,
)


def test_exit_arm_straight_is_opposite():
    # arms labeled clockwise, straight from arm 0 lands on arm 2
    assert exit_arm(Movement(0, Turn.STRAIGHT), 4) == 2


def test_exit_arm_left_turn_left_driving():
    # southbound vehicle entering at arm 0 turns left onto arm 1
    assert exit_arm(Movement(0, Turn.LEFT), 4, DrivingSide.LEFT) == 1


def test_exit_arm_right_turn_from_arm_three():
    # right turn under left driving: (3 + 4 - 1) mod 4 = 2
    assert exit_arm(Movement(3, Turn.RIGHT), 4, DrivingSide.LEFT) == 2


def test_exit_arm_right_driving_mirrors_left():
    # mirrored: left becomes (entry + A - 1), right becomes (entry + 1)
    assert exit_arm(Movement(0, Turn.LEFT), 4, DrivingSide.RIGHT) == 3
    assert exit_arm(Movement(0, Turn.RIGHT), 4, DrivingSide.RIGHT) == 1


def test_exit_arm_rejects_degenerate_geometry():
    with pytest.raises(InvalidGeometryError):
        exit_arm(Movement(0, Turn.LEFT), 2)


def test_exit_arm_differs_from_entry():
    for arms in (3, 4, 5, 6):
        for m in standard_movements(arms):
            for side in (DrivingSide.LEFT, DrivingSide.RIGHT):
                assert exit_arm(m, arms, side) != m.entry_arm


def test_standard_movements_are_entry_major():
    ms = standard_movements(4)
    assert len(ms) == 12
    assert ms[0] == Movement(0, Turn.LEFT)
    assert ms[1] == Movement(0, Turn.STRAIGHT)
    assert ms[2] == Movement(0, Turn.RIGHT)
    assert ms[11] == Movement(3, Turn.RIGHT)


def test_crossing_straights_conflict():
    # entry 0 straight occupies chord 0->2, entry 1 straight chord 1->3;
    # endpoints interleave around the circle, so the paths compete
    spec = IntersectionSpec.standard()
    n_straight = spec.paths.index(Movement(0, Turn.STRAIGHT))
    e_straight = spec.paths.index(Movement(1, Turn.STRAIGHT))
    assert spec.conflicts.conflicts(n_straight, e_straight)


def test_opposite_right_turns_do_not_conflict():
    # entry 0 right exits arm 3, entry 2 right exits arm 1; the chords
    # 0->3 and 2->1 sit on disjoint sides of the circle, no crossing
    spec = IntersectionSpec.standard()
    n_right = spec.paths.index(Movement(0, Turn.RIGHT))
    s_right = spec.paths.index(Movement(2, Turn.RIGHT))
    assert not spec.conflicts.conflicts(n_right, s_right)


def test_same_entry_arm_never_conflicts():
    spec = IntersectionSpec.standard()
    for i, j in combinations(range(12), 2):
        if spec.paths[i].entry_arm == spec.paths[j].entry_arm:
            assert not spec.conflicts.conflicts(i, j)


def test_default_conflict_pairs_golden():
    # frozen from the chord-crossing rule on the 12 standard movements
    expected = (
        (1, 4), (1, 5), (1, 8), (1, 10),
        (2, 5), (2, 7), (2, 10), (2, 11),
        (4, 7), (4, 8), (4, 11),
        (5, 8), (5, 10),
        (7, 10), (7, 11),
        (8, 11),
    )
    assert IntersectionSpec.standard().conflicts.pairs() == expected


def test_conflict_matrix_symmetric_false_diagonal():
    arr = IntersectionSpec.standard().conflicts.as_array()
    assert np.array_equal(arr, arr.T)
    assert not arr.diagonal().any()


def test_duplicate_paths_rejected():
    paths = (Movement(0, Turn.LEFT), Movement(0, Turn.LEFT))
    with pytest.raises(InvalidSpecError):
        build_conflict_matrix(4, paths)


def test_conflict_matrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        ConflictMatrix(np.zeros((3, 4), dtype=bool))


def test_conflict_matrix_rejects_asymmetry():
    data = np.zeros((3, 3), dtype=bool)
    data[0, 1] = True
    with pytest.raises(InvalidSpecError):
        ConflictMatrix(data)


def test_conflict_matrix_rejects_self_conflict():
    data = np.zeros((3, 3), dtype=bool)
    data[1, 1] = True
    with pytest.raises(InvalidSpecError):
        ConflictMatrix(data)


def test_all_closed_phase_is_feasible():
    spec = IntersectionSpec.standard()
    assert is_feasible_phase(Phase(0, 12), spec.conflicts)


def test_single_path_phases_are_feasible():
    spec = IntersectionSpec.standard()
    for i in range(12):
        assert is_feasible_phase(Phase(1 << i, 12), spec.conflicts)


def test_crossing_straights_make_infeasible_phase():
    # paths 1 and 4 are the two crossing straights from the golden pair list
    spec = IntersectionSpec.standard()
    assert not is_feasible_phase(Phase((1 << 1) | (1 << 4), 12), spec.conflicts)


def test_is_feasible_phase_width_mismatch():
    spec = IntersectionSpec.standard()
    with pytest.raises(DimensionError):
        is_feasible_phase(Phase(1, 3), spec.conflicts)


def test_zero_matrix_yields_all_nonempty_subsets():
    # sum of C(12, n) for n = 1..12 is 2^12 - 1 = 4095
    cm = ConflictMatrix(np.zeros((12, 12), dtype=bool))
    assert len(enumerate_feasible_phases(cm, maximal_only=False)) == 4095


def test_complete_conflict_graph_leaves_singletons():
    data = ~np.eye(12, dtype=bool)
    cm = ConflictMatrix(data)
    phases = enumerate_feasible_phases(cm, maximal_only=False)
    assert [p.mask for p in phases] == [1 << i for i in range(12)]
    assert enumerate_feasible_phases(cm, maximal_only=True) == phases


def brute_force_feasible_masks(cm):
    """Filter every nonempty subset by the pairwise conflict test."""
    masks = np.arange(1, 1 << cm.paths, dtype=np.int64)
    keep = np.ones(masks.size, dtype=bool)
    for i, j in combinations(range(cm.paths), 2):
        if cm.conflicts(i, j):
            keep &= (masks >> i & masks >> j & 1) == 0
    return masks[keep].tolist()


def brute_force_maximal_masks(cm, feasible_masks):
    """Keep the feasible masks that no single further path can extend."""
    feasible = np.array(feasible_masks, dtype=np.int64)
    keep = np.ones(feasible.size, dtype=bool)
    for i in range(cm.paths):
        keep &= ~np.isin(feasible | 1 << i, feasible) | (feasible >> i & 1 == 1)
    return feasible[keep].tolist()


def test_default_feasible_count_matches_subset_oracle():
    cm = IntersectionSpec.standard().conflicts
    oracle = brute_force_feasible_masks(cm)
    phases = enumerate_feasible_phases(cm, maximal_only=False)
    assert [p.mask for p in phases] == oracle
    # golden count for the 16-pair default matrix
    assert len(phases) == 335


def test_default_maximal_phases_golden():
    cm = IntersectionSpec.standard().conflicts
    maximal = enumerate_feasible_phases(cm, maximal_only=True)
    assert len(maximal) == 12
    # smallest maximal phase: the four lefts plus the entry-0 straight
    # and right, mask 0b001001001111
    assert maximal[0].open_paths() == (0, 1, 2, 3, 6, 9)
    assert str(maximal[0]) == "{0,1,2,3,6,9}"


def test_maximal_phases_cannot_grow():
    cm = IntersectionSpec.standard().conflicts
    feasible = {p.mask for p in enumerate_feasible_phases(cm, maximal_only=False)}
    for phase in enumerate_feasible_phases(cm, maximal_only=True):
        assert phase.mask in feasible
        for i in range(12):
            if not phase.is_open(i):
                assert (phase.mask | (1 << i)) not in feasible


def test_phases_listed_in_ascending_mask_order():
    cm = IntersectionSpec.standard().conflicts
    masks = [p.mask for p in enumerate_feasible_phases(cm, maximal_only=False)]
    assert masks == sorted(masks)


def random_spec_strategy():
    def build(arms, side, merge):
        return IntersectionSpec.standard(
            arms=arms, max_queue_len=3, driving_side=side, merge_conflicts=merge
        )

    return st.builds(
        build,
        st.integers(min_value=3, max_value=6),
        st.sampled_from([DrivingSide.LEFT, DrivingSide.RIGHT]),
        st.booleans(),
    )


@given(random_spec_strategy())
@settings(max_examples=50)
def test_property_conflict_matrix_shape(spec):
    arr = spec.conflicts.as_array()
    assert arr.shape == (spec.num_paths, spec.num_paths)
    assert np.array_equal(arr, arr.T)
    assert not arr.diagonal().any()


def conflict_matrix_strategy(max_paths=6):
    def build(p, pair_bits):
        data = np.zeros((p, p), dtype=bool)
        idx = 0
        for i in range(p):
            for j in range(i + 1, p):
                if pair_bits >> idx & 1:
                    data[i, j] = data[j, i] = True
                idx += 1
        return ConflictMatrix(data)

    return st.integers(min_value=2, max_value=max_paths).flatmap(
        lambda p: st.builds(
            build,
            st.just(p),
            st.integers(min_value=0, max_value=(1 << (p * (p - 1) // 2)) - 1),
        )
    )


@given(conflict_matrix_strategy(), st.integers(min_value=0, max_value=63))
@settings(max_examples=100)
def test_property_feasibility_is_independent_set(cm, raw_mask):
    mask = raw_mask & ((1 << cm.paths) - 1)
    phase = Phase(mask, cm.paths)
    bits = [i for i in range(cm.paths) if mask >> i & 1]
    independent = all(not cm.conflicts(i, j) for i, j in combinations(bits, 2))
    assert is_feasible_phase(phase, cm) == independent


@given(conflict_matrix_strategy(max_paths=10))
@settings(max_examples=50)
def test_property_enumeration_matches_subset_filter(cm):
    phases = enumerate_feasible_phases(cm, maximal_only=False)
    assert [p.mask for p in phases] == brute_force_feasible_masks(cm)


@given(conflict_matrix_strategy(max_paths=10))
@settings(max_examples=50)
def test_property_maximal_phases_are_maximal(cm):
    # the whole list, order included: sound and complete
    expected = brute_force_maximal_masks(cm, brute_force_feasible_masks(cm))
    phases = enumerate_feasible_phases(cm, maximal_only=True)
    assert [p.mask for p in phases] == expected


def test_clique_cover_of_the_default_junction():
    # greedy by degree: path 1 (4 conflicts, lowest index) seeds the first
    # clique; the four left turns conflict with nothing and stay out
    cm = IntersectionSpec.standard(4).conflicts
    assert cm.clique_cover() == ((1, 4, 8), (2, 5, 10), (7, 11))
    assert cm.clique_cover() is cm.clique_cover()


def test_conflict_free_matrix_has_no_cliques():
    assert ConflictMatrix(np.zeros((5, 5), dtype=bool)).clique_cover() == ()


@given(conflict_matrix_strategy(max_paths=10))
@settings(max_examples=100)
def test_property_clique_cover_is_disjoint_cliques(cm):
    seen = set()
    for clique in cm.clique_cover():
        assert len(clique) >= 2
        assert list(clique) == sorted(clique)
        assert all(cm.conflicts(i, j) for i, j in combinations(clique, 2))
        assert seen.isdisjoint(clique)
        seen.update(clique)
    # greedy leaves no conflicting pair both uncovered
    rest = [i for i in range(cm.paths) if i not in seen]
    assert not any(cm.conflicts(i, j) for i, j in combinations(rest, 2))
    # a feasible phase opens at most one path of each clique
    for phase in cm.feasible_phases():
        for clique in cm.clique_cover():
            assert sum(phase.is_open(i) for i in clique) <= 1


@pytest.mark.parametrize("arms", [3, 4, 5, 6])
def test_maximal_phases_match_subset_filter_on_standard_junctions(arms):
    for side in DrivingSide:
        for merge in (False, True):
            cm = IntersectionSpec.standard(
                arms, driving_side=side, merge_conflicts=merge
            ).conflicts
            expected = brute_force_maximal_masks(cm, brute_force_feasible_masks(cm))
            assert [p.mask for p in cm.maximal_phases()] == expected


@pytest.mark.parametrize("arms", [3, 4, 5, 6, 7, 8])
def test_maximal_phases_are_the_maximal_feasible_phases(arms):
    cm = IntersectionSpec.standard(arms).conflicts
    feasible = [p.mask for p in cm.feasible_phases()]
    expected = brute_force_maximal_masks(cm, feasible)
    assert [p.mask for p in cm.maximal_phases()] == expected


@pytest.mark.parametrize(
    "arms,feasible,maximal",
    [(7, 27_007, 49), (8, 115_967, 92), (9, None, 156), (10, None, 279)],
)
def test_standard_phase_counts(arms, feasible, maximal):
    cm = IntersectionSpec.standard(arms).conflicts
    assert len(cm.maximal_phases()) == maximal
    if feasible is not None:
        assert len(cm.feasible_phases()) == feasible


def test_feasible_phase_cap_fits_eight_arms_not_nine():
    assert 115_967 <= MAX_FEASIBLE_PHASES < 498_175
    cm = IntersectionSpec.standard(9).conflicts
    with pytest.raises(TooManyPhasesError, match=str(MAX_FEASIBLE_PHASES)):
        cm.feasible_phases()
    with pytest.raises(TooManyPhasesError):
        enumerate_feasible_phases(cm, maximal_only=False)


def test_phase_lists_are_built_once_and_copied_out():
    cm = IntersectionSpec.standard().conflicts
    assert cm.feasible_phases() is cm.feasible_phases()
    assert cm.maximal_phases() is cm.maximal_phases()
    listed = enumerate_feasible_phases(cm, maximal_only=False)
    assert isinstance(listed, list)
    listed.clear()
    assert len(enumerate_feasible_phases(cm, maximal_only=False)) == 335
    assert len(cm.feasible_phases()) == 335


def small_spec():
    return IntersectionSpec.standard(max_queue_len=4)


def test_encode_layout_example():
    # queue [(pri 3, wait 7), (pri 1, wait 2)] with L=4 lays out as
    # priorities (3,1,0,0) and waits (7,2,0,0)
    spec = small_spec()
    queues = [()] * 12
    queues[0] = (VehicleRecord(3, 7), VehicleRecord(1, 2))
    arr = encode_snapshot(TrafficSnapshot(0, tuple(queues)), spec)
    assert arr.shape == (12, 2, 4)
    assert arr[0, 0].tolist() == [3, 1, 0, 0]
    assert arr[0, 1].tolist() == [7, 2, 0, 0]


def test_encode_empty_queue_is_zero_rows():
    spec = small_spec()
    arr = encode_snapshot(spec.empty_snapshot(), spec)
    assert not arr.any()


def test_decode_rejects_occupied_after_empty_slot():
    spec = small_spec()
    arr = encode_snapshot(spec.empty_snapshot(), spec)
    arr[0, 0, 1] = 3
    with pytest.raises(MalformedArrayError):
        decode_snapshot(arr, spec)


def test_decode_rejects_wait_on_empty_slot():
    spec = small_spec()
    arr = encode_snapshot(spec.empty_snapshot(), spec)
    arr[0, 1, 0] = 5
    with pytest.raises(MalformedArrayError):
        decode_snapshot(arr, spec)


def test_decode_rejects_negative_entries():
    spec = small_spec()
    arr = encode_snapshot(spec.empty_snapshot(), spec)
    arr[0, 0, 0] = -1
    with pytest.raises(MalformedArrayError):
        decode_snapshot(arr, spec)


def test_decode_rejects_wrong_shape():
    spec = small_spec()
    with pytest.raises(DimensionError):
        decode_snapshot(np.zeros((12, 3, 4), dtype=np.int64), spec)


def snapshot_strategy(spec):
    vehicle = st.builds(
        VehicleRecord,
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=50),
    )
    queue = st.lists(vehicle, max_size=spec.max_queue_len).map(tuple)
    return st.builds(
        TrafficSnapshot,
        st.integers(min_value=0, max_value=1000),
        st.tuples(*[queue] * spec.num_paths),
    )


@given(snapshot_strategy(small_spec()))
@settings(max_examples=100)
def test_property_encode_decode_roundtrip(s):
    # the array form carries no clock, so the tick rides alongside
    spec = small_spec()
    assert decode_snapshot(encode_snapshot(s, spec), spec, tick=s.tick) == s


def test_spec_rejects_overlong_queue():
    spec = small_spec()
    queues = [()] * 12
    queues[3] = tuple(VehicleRecord(1, 0) for _ in range(5))
    with pytest.raises(DimensionError):
        spec.validate_snapshot(TrafficSnapshot(0, tuple(queues)))


def test_spec_rejects_zero_capacity():
    with pytest.raises(InvalidSpecError):
        IntersectionSpec.standard(max_queue_len=0)


def test_vehicle_record_rejects_bad_fields():
    with pytest.raises(InvalidSpecError):
        VehicleRecord(0, 0)
    with pytest.raises(InvalidSpecError):
        VehicleRecord(1, -1)


def test_fill_count_rounds_up():
    spec = IntersectionSpec.standard(max_queue_len=10)
    # ceil(0.25 * 10) = 3, ceil(0) = 0, full lane is exactly L
    assert spec.fill_count(0.25) == 3
    assert spec.fill_count(0.0) == 0
    assert spec.fill_count(1.0) == 10


def test_explicit_conflict_matrix_still_checks_paths(tmp_path):
    # an explicit matrix replaces the geometric one, not the path rules
    cm = ConflictMatrix(np.zeros((3, 3), dtype=bool))
    with pytest.raises(InvalidSpecError):
        IntersectionSpec(
            arms=4,
            paths=(Movement(0, Turn.LEFT), Movement(0, Turn.LEFT), Movement(1, Turn.STRAIGHT)),
            max_queue_len=3,
            conflicts=cm,
        )
    with pytest.raises(InvalidGeometryError):
        IntersectionSpec(
            arms=4,
            paths=(Movement(0, Turn.LEFT), Movement(1, Turn.LEFT), Movement(9, Turn.STRAIGHT)),
            max_queue_len=3,
            conflicts=cm,
        )
    spec = IntersectionSpec(
        arms=4,
        paths=(Movement(0, Turn.LEFT), Movement(1, Turn.LEFT), Movement(2, Turn.STRAIGHT)),
        max_queue_len=3,
        conflicts=cm,
    )
    path = tmp_path / "explicit.json"
    save_instance(spec, path)
    assert load_instance(path) == spec


def test_explicit_conflict_matrix_override():
    cm = ConflictMatrix(np.zeros((12, 12), dtype=bool))
    spec = IntersectionSpec(
        arms=4, paths=standard_movements(4), max_queue_len=4, conflicts=cm
    )
    assert spec.conflicts == cm
    assert len(enumerate_feasible_phases(spec.conflicts, maximal_only=True)) == 1
