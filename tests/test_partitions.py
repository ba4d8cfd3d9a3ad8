import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import (
    CycleType,
    DomainError,
    fixed_point_free_partitions,
    is_even,
    partitions,
)
from oracles import partition_count


def as_part_sets(stream):
    return {ct.part_list() for ct in stream}


def test_partitions_of_zero_is_single_empty_type():
    result = list(partitions(0))
    assert result == [CycleType()]
    assert result[0].support == 0


def test_partition_examples():
    assert as_part_sets(partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    assert sum(1 for _ in partitions(10)) == 42


@pytest.mark.parametrize("m", range(0, 31))
@pytest.mark.parametrize("walk", [partitions, fixed_point_free_partitions], ids=lambda walk: walk.__name__)
def test_partitions_order_is_reverse_lexicographic(walk, m):
    # psi witness annotations keep the first type in this order
    got = [ct.part_list() for ct in walk(m)]
    assert all(a > b for a, b in zip(got, got[1:])), got


@pytest.mark.parametrize("m", range(0, 41))
def test_partition_counts_match_pentagonal_recurrence(m):
    assert sum(1 for _ in partitions(m)) == partition_count(m)


def test_fixed_point_free_examples():
    assert list(fixed_point_free_partitions(1)) == []
    assert as_part_sets(fixed_point_free_partitions(5)) == {(5,), (3, 2)}
    assert as_part_sets(fixed_point_free_partitions(4)) == {(4,), (2, 2)}
    assert list(fixed_point_free_partitions(0)) == [CycleType()]


@pytest.mark.parametrize("m", range(0, 26))
def test_fixed_point_free_equals_filtered_partitions(m):
    filtered = {ct.part_list() for ct in partitions(m) if all(k >= 2 for k in ct.part_list())}
    assert as_part_sets(fixed_point_free_partitions(m)) == filtered


def test_each_partition_has_right_support():
    for m in (0, 1, 7, 12):
        for ct in partitions(m):
            assert ct.support == m


def test_parity_examples():
    assert is_even(CycleType())
    assert not is_even(CycleType.from_parts([2]))
    assert not is_even(CycleType.from_parts([3, 2]))
    assert is_even(CycleType.from_parts([3]))
    assert is_even(CycleType.from_parts([2, 2]))
    assert is_even(CycleType.from_parts([4, 2, 1]))
    # against the sign of an explicit permutation: the parity of its inversion count
    for m in range(8):
        for ct in partitions(m):
            perm, start = [], 0
            for k in ct.part_list():
                perm += [start + (i + 1) % k for i in range(k)]
                start += k
            inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
            assert is_even(ct) == (inversions % 2 == 0), ct


parts_strategy = st.lists(st.integers(min_value=1, max_value=9), max_size=8)


@settings(max_examples=300, deadline=None)
@given(parts_strategy, parts_strategy)
def test_parity_is_additive_under_disjoint_union(a, b):
    ct_a, ct_b = CycleType.from_parts(a), CycleType.from_parts(b)
    assert is_even(ct_a.combine(ct_b)) == (is_even(ct_a) == is_even(ct_b))


@settings(max_examples=300, deadline=None)
@given(parts_strategy)
def test_cycle_type_is_canonical(parts):
    ct = CycleType.from_parts(parts)
    assert ct == CycleType.from_parts(sorted(parts))
    assert ct.support == sum(parts)
    assert ct.cycle_count == len(parts)
    assert list(ct.part_list()) == sorted(parts, reverse=True)


def test_cycle_type_validation():
    with pytest.raises(DomainError):
        CycleType(((0, 1),))
    with pytest.raises(DomainError):
        CycleType(((3, 0),))
    with pytest.raises(DomainError):
        CycleType(((2, 1), (3, 1)))  # not decreasing
    with pytest.raises(DomainError):
        partitions(-1)
    with pytest.raises(DomainError):
        fixed_point_free_partitions(-2)


def test_cycle_type_helpers():
    ct = CycleType.from_parts([4, 2, 2, 1])
    assert ct.multiplicity(2) == 2
    assert ct.multiplicity(7) == 0
    assert str(ct) == "4+2+2+1"
    assert str(CycleType()) == "e"
    assert ct.combine(CycleType.from_parts([2])).multiplicity(2) == 3


def test_streams_are_lazy():
    stream = partitions(300)  # would be astronomically large as a list
    first = next(stream)
    assert first.part_list() == (300,)
