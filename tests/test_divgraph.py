import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import EDGES, VERTICES, ChainResult, DomainError, GroupKind, height, longest_chain
from class_spectrum.classes import moved_class_sizes
from oracles import brute_chain_height, quadratic_longest_chain

values_small = st.frozensets(st.integers(min_value=1, max_value=10**6), max_size=12)
values_any = st.frozensets(st.integers(min_value=1, max_value=10**30), max_size=40)
# products of small powers of 2, 3, 5, 7: many divisors and many equally long chains
smooth = st.builds(
    lambda a, b, c, d: 2**a * 3**b * 5**c * 7**d,
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(0, 2),
    st.integers(0, 2),
)
values_tied = st.lists(smooth, max_size=40)


def test_examples():
    assert height([2, 4, 8, 16]) == ChainResult(4, (2, 4, 8, 16), VERTICES)
    assert height([3, 5, 7]).height == 1
    assert height([3, 6, 1]) == ChainResult(3, (1, 3, 6), VERTICES)
    assert height([], VERTICES).height == 0
    assert height([], EDGES).height == 0
    assert height([2, 4, 8, 16], EDGES).height == 3
    assert height([7], EDGES).height == 0
    assert height([7], VERTICES).height == 1


def test_duplicates_are_ignored():
    assert height([2, 2, 4, 4]).height == 2


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        height([0, 2])
    with pytest.raises(DomainError):
        height([-3])
    with pytest.raises(DomainError):
        height([2, 4], "paths")


def test_witness_realizes_height_and_divides():
    values = [3, 9, 18, 5, 15, 90, 7, 1]
    result = height(values)
    assert len(result.witness) == result.height
    for a, b in zip(result.witness, result.witness[1:]):
        assert a < b and b % a == 0
    assert set(result.witness) <= set(values)


def test_deterministic_witness():
    first = height([6, 2, 3, 12, 24])
    second = height([24, 12, 3, 2, 6])
    assert first == second


@settings(max_examples=1000, deadline=None)
@given(values_any)
def test_doubling_bound(values):
    h, _ = longest_chain(values)
    if values:
        assert h <= max(values).bit_length()
    else:
        assert h == 0


@settings(max_examples=1000, deadline=None)
@given(values_small, st.integers(min_value=1, max_value=10**9))
def test_scaling_invariance(values, c):
    h, _ = longest_chain(values)
    scaled_h, _ = longest_chain(c * v for v in values)
    assert h == scaled_h


@settings(max_examples=1000, deadline=None)
@given(values_small, values_small)
def test_monotone_in_vertex_set(a, b):
    h_a, _ = longest_chain(a)
    h_ab, _ = longest_chain(a | b)
    assert h_a <= h_ab


@settings(max_examples=1000, deadline=None)
@given(values_small)
def test_matches_subset_enumeration(values):
    h, witness = longest_chain(values)
    assert h == brute_chain_height(values)
    assert len(witness) == h


@settings(max_examples=1000, deadline=None)
@given(values_tied)
def test_matches_quadratic_dp_with_ties(values):
    assert longest_chain(values) == quadratic_longest_chain(values)


@pytest.mark.parametrize("kind", [GroupKind.SYM, GroupKind.ALT])
def test_matches_quadratic_dp_on_moved_class_sizes(kind):
    for i in range(21):
        values = moved_class_sizes(kind, i).values
        assert longest_chain(values) == quadratic_longest_chain(values), i
