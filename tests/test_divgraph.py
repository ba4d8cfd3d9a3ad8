import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import EDGES, VERTICES, ChainResult, DomainError, GroupKind, height, longest_chain
from class_spectrum.classes import moved_class_sizes, psi_members
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
# a tall chain 2^0..2^k mixed with arbitrary values and with multiples of its
# powers: up to 41 levels and more, against about 13 for the smooth values
values_deep = st.builds(
    lambda k, mixed: {2**j for j in range(k + 1)} | mixed,
    st.integers(0, 40),
    st.frozensets(
        st.one_of(
            st.integers(min_value=1, max_value=10**15),
            st.builds(lambda a, b: 2**a * b, st.integers(0, 45), st.integers(1, 99)),
        ),
        max_size=30,
    ),
)


class CountedInt(int):
    """An int that counts the remainders taken with it as the dividend."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.remainders = 0
        return self

    def __mod__(self, other):
        self.remainders += 1
        return int.__mod__(self, other)


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


@settings(max_examples=500, deadline=None)
@given(values_deep)
def test_matches_quadratic_dp_on_deep_levels(values):
    assert longest_chain(values) == quadratic_longest_chain(values)


# (n, t = p, the largest prime <= n): residual supports 13 to 29, heights up to 62
@pytest.mark.parametrize("n, t", [(126, 113), (540, 523), (906, 887), (1356, 1327)])
@pytest.mark.parametrize("kind", [GroupKind.SYM, GroupKind.ALT])
def test_matches_quadratic_dp_on_psi_families(kind, n, t):
    values = [size for size, _ in psi_members(kind, n, t)]
    assert longest_chain(values) == quadratic_longest_chain(values)


def test_bisection_scans_logarithmically_many_levels():
    chain = [2**j for j in range(60)]
    # odd values in one octave: none is divisible by a chain element but 1 or
    # by another of them, so each joins level 1 after scanning levels 1 and 0
    odd = [CountedInt(2**60 + 2 * i + 1) for i in range(200)]
    assert longest_chain(chain + odd) == (60, tuple(chain))
    for i, v in enumerate(odd):
        # level 1 holds 2 and the i odd values before v; level 0 holds 1
        probes_above_level_1 = v.remainders - (i + 1) - 1
        assert probes_above_level_1 <= len(chain).bit_length(), i
