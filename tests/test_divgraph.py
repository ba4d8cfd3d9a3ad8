import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import EDGES, VERTICES, DomainError, GroupKind, divgraph, longest_chain
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


# 30 to 80 values of one octave, none dividing another, each times a smooth
# factor, mixed with a chain 2^0..2^k: levels far wider than divgraph.BLOCK,
# whose block gcds share small factors with the values that probe them. One
# seeded generator draws them, which keeps each example cheap to generate.
SMOOTH_FACTORS = [2**a * 3**b * 5**c * 7**d for a in range(6) for b in range(4) for c in range(3) for d in range(3)]
values_wide = st.builds(
    lambda k, rng: {2**j for j in range(k + 1)}
    | {m * rng.choice(SMOOTH_FACTORS) for m in rng.sample(range(128, 256), rng.randint(30, 80))},
    st.integers(0, 20),
    st.randoms(use_true_random=True),
)


class CountedInt(int):
    """An int that records the divisors of the remainders taken with it as the dividend."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.divisors = []
        return self

    def __mod__(self, other):
        self.divisors.append(other)
        return int.__mod__(self, other)


def test_examples():
    assert longest_chain([2, 4, 8, 16]) == (4, (2, 4, 8, 16))
    assert longest_chain([3, 5, 7]) == (1, (3,))
    assert longest_chain([3, 6, 1]) == (3, (1, 3, 6))
    assert longest_chain([]) == (0, ())
    assert longest_chain([7]) == (1, (7,))


def test_duplicates_are_ignored():
    assert longest_chain([2, 2, 4, 4]) == (2, (2, 4))


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        longest_chain([0, 2])
    with pytest.raises(DomainError):
        longest_chain([-3])


def test_kept_height_applies_the_convention_to_longest_chain():
    assert divgraph.height([2, 4, 8, 16]) == divgraph.ChainResult(4, (2, 4, 8, 16), VERTICES)
    assert divgraph.height([2, 4, 8, 16], EDGES) == divgraph.ChainResult(3, (2, 4, 8, 16), EDGES)
    assert divgraph.height([], EDGES).height == 0
    assert divgraph.height([7], EDGES).height == 0
    with pytest.raises(DomainError):
        divgraph.height([2, 4], "paths")


def test_witness_realizes_height_and_divides():
    values = [3, 9, 18, 5, 15, 90, 7, 1]
    h, witness = longest_chain(values)
    assert len(witness) == h
    for a, b in zip(witness, witness[1:]):
        assert a < b and b % a == 0
    assert set(witness) <= set(values)


def test_deterministic_witness():
    first = longest_chain([6, 2, 3, 12, 24])
    second = longest_chain([24, 12, 3, 2, 6])
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
    # by another of them, so each joins level 1 after probing levels 1 and 0
    odd = [CountedInt(2**60 + 2 * i + 1) for i in range(200)]
    assert longest_chain(chain + odd) == (60, tuple(chain))
    above_level_1 = set(chain[2:])
    for i, v in enumerate(odd):
        # level j >= 2 holds 2^j alone, one block whose gcd 2^j screens it
        # out with one remainder, so remainders taken against 2^j count probes
        probes_above_level_1 = sum(d in above_level_1 for d in v.divisors)
        assert probes_above_level_1 <= len(chain).bit_length(), i


def test_block_whose_gcd_divides_v_is_scanned():
    # 6, 10 and 14 share one block of gcd 2, which divides 22 although none of them does
    v = CountedInt(22)
    values = [6, 10, 14, v, 66]
    assert longest_chain(values) == (2, (6, 66))
    assert v.divisors == [2, 6, 10, 14]
    assert longest_chain(values) == quadratic_longest_chain(values)


def test_smallest_divisor_in_a_later_block():
    # one octave, so one level: eight multiples of 7 (one block of gcd 7),
    # then eight multiples of 3 (gcd 3), of which 1056 and 1062 divide v
    sevens = list(range(1001, 1051, 7))
    threes = list(range(1053, 1077, 3))
    v = CountedInt(2**5 * 3**2 * 11 * 59)
    values = sevens + threes + [v]
    assert longest_chain(values) == (2, (1056, v))
    # the first block is skipped on its gcd and the second scanned up to 1056
    assert v.divisors == [7, 3, 1053, 1056]
    assert longest_chain(values) == quadratic_longest_chain(values)


@settings(max_examples=300, deadline=None)
@given(values_wide)
def test_matches_quadratic_dp_on_wide_levels(values):
    assert longest_chain(values) == quadratic_longest_chain(values)


def test_screen_skips_a_level_coprime_to_v():
    # 64 multiples of the prime 101 in one octave fill one level of eight
    # blocks, each of gcd 101; v is coprime to 101, so one remainder per
    # block rules the whole level out and no member is probed
    level = [101 * m for m in range(64, 128)]
    v = CountedInt(2**40 + 1)
    values = level + [v]
    assert longest_chain(values) == (1, (level[0],))
    assert len(v.divisors) <= 8
    assert not set(v.divisors) & set(level)
    assert longest_chain(values) == quadratic_longest_chain(values)
