import math
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import EDGES, VERTICES, DomainError, GroupKind, divgraph, longest_chain
from class_spectrum.classes import moved_class_sizes, psi_members, psi_set
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


class CountedCofactor(int):
    """An int that records the dividends of the remainders taken with it as the divisor."""

    def __new__(cls, value):
        self = super().__new__(cls, value)
        self.dividends = []
        return self

    def __rmod__(self, other):
        self.dividends.append(other)
        return int.__rmod__(self, other)


class WatchedMultiple(int):
    """A common multiple that makes its cofactor of one watched value a CountedCofactor."""

    def __new__(cls, value, watched):
        self = super().__new__(cls, value)
        self.watched = watched
        return self

    def __floordiv__(self, other):
        cofactor = int.__floordiv__(self, other)
        if other == self.watched:
            cofactor = self.cofactor = CountedCofactor(cofactor)
        return cofactor


def cofactor_mode(values):
    # whether longest_chain runs on cofactors of the values' lcm
    return divgraph._common_multiple(sorted(set(values))) is not None


def test_examples():
    assert longest_chain([2, 4, 8, 16]) == (4, (2, 4, 8, 16))
    assert longest_chain([3, 5, 7]) == (1, (3,))
    assert longest_chain([3, 6, 1]) == (3, (1, 3, 6))
    assert longest_chain([]) == (0, ())
    assert longest_chain([7]) == (1, (7,))


def test_duplicates_are_ignored():
    assert longest_chain([2, 2, 4, 4]) == (2, (2, 4))


def test_rejects_bad_inputs():
    # lcm(0, 4) == 0 would pass the cofactor bound, so values are checked first
    for values in ([0, 2], [-3], [4, 0], [4, -8, 8]):
        with pytest.raises(DomainError, match="values >= 1"):
            longest_chain(values)


PRIMES_60 = [p for p in range(2, 282) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize(
    "values, multiple",
    [
        (PRIMES_60, None),  # pairwise coprime: the lcm passes 2 * 9 bits
        ([2, 4, 8, 16], 16),
        ([11, 13], 143),  # 8 bits: exactly at 2 * 4 bits
        ([7, 11, 13], None),  # 1001 has 10 bits
        ([1], 1),
        # 7 * 2^18 lies within the bound, but 7 does not divide the seed 2^18
        ([7] + [2**j for j in range(11, 19)], None),
    ],
    ids=["primes", "powers", "at-bound", "past-bound", "one", "stray-below-seed"],
)
def test_cofactor_mode_only_within_twice_the_largest_bits(values, multiple):
    assert divgraph._common_multiple(sorted(set(values))) == multiple
    assert longest_chain(values) == quadratic_longest_chain(values)


def test_largest_scan_family_takes_the_cofactor_mode():
    # the 7,373 sizes of psi(1360, 1327), of 338 bits; their lcm has 343
    values = psi_set(GroupKind.SYM, 1360, 1327).values
    assert len(values) == 7373 and values[-1].bit_length() == 338
    multiple = divgraph._common_multiple(list(values))
    assert multiple == math.lcm(*values) and multiple.bit_length() == 343


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
    # every size of the family divides n!/(n - m)!, m = n - t, so the DP ran on cofactors
    assert math.perm(n, n - t) % divgraph._common_multiple(sorted(set(values))) == 0


@settings(max_examples=300, deadline=None)
@given(values_tied, values_wide)
def test_oracle_families_take_both_modes(tied, wide):
    # a smooth lcm divides 2^5 3^3 5^2 7^2, which has 21 bits, so tied values
    # whose largest has 11 bits or more pass the bit test and take the
    # cofactor DP exactly when every value divides the lcm of the largest
    # BLOCK; each wide family's lcm takes in dozens of primes above 7 and
    # takes the plain DP
    if tied and max(tied).bit_length() > 10:
        vals = sorted(set(tied))
        seed = math.lcm(*vals[-divgraph.BLOCK :])
        assert cofactor_mode(tied) == all(seed % v == 0 for v in vals)
    assert not cofactor_mode(wide)


@pytest.mark.parametrize("family", [values_tied, values_deep, values_wide], ids=["tied", "deep", "wide"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cofactor_mode_matches_plain_dp(family, data):
    # each mode forced on every family, deep and wide ones included
    values = data.draw(family)
    with patch.object(divgraph, "_common_multiple", lambda vals: math.lcm(*vals)):
        cofactor = longest_chain(values)
    with patch.object(divgraph, "_common_multiple", lambda vals: None):
        assert cofactor == longest_chain(values)


@pytest.mark.parametrize("family", [values_tied, values_deep, values_any], ids=["tied", "deep", "any"])
@pytest.mark.parametrize(
    "common_multiple", [lambda vals: math.lcm(*vals), lambda vals: None], ids=["cofactor", "plain"]
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_limit_gives_the_full_result_or_the_stop(family, common_multiple, data):
    # a height of at most k comes back whole; a taller one stops at the
    # value that opens level index k, as (k + 1, ())
    values = data.draw(family)
    full = quadratic_longest_chain(values)
    with patch.object(divgraph, "_common_multiple", common_multiple):
        for k in range(full[0] + 2):
            assert longest_chain(values, limit=k) == (full if full[0] <= k else (k + 1, ())), k


def test_limit_stops_before_the_remaining_values_are_probed(monkeypatch):
    # 1, 2, 4 fill levels 0 to 2 and 8 opens level 3, so with limit=3 the DP
    # stops at 8: 3 and 6, taken before it, probe the levels, and 9 to 24,
    # taken after it, are never probed, as a value or as a cofactor
    before = [CountedInt(3), CountedInt(6)]
    after = [CountedInt(v) for v in (9, 12, 16, 24)]
    values = [1, 2, 4, 8] + before + after
    monkeypatch.setattr(divgraph, "_common_multiple", lambda vals: None)
    assert longest_chain(values, limit=3) == (4, ())
    assert all(v.divisors for v in before)
    assert not any(v.divisors for v in after)
    multiple = WatchedMultiple(math.lcm(*values), 16)
    monkeypatch.setattr(divgraph, "_common_multiple", lambda vals: multiple)
    assert longest_chain(values, limit=3) == (4, ())
    assert multiple.cofactor.dividends == []
    # without the stop, the same values are probed
    assert longest_chain(values) == quadratic_longest_chain(values) == (5, (1, 2, 4, 8, 16))
    assert multiple.cofactor.dividends
    monkeypatch.setattr(divgraph, "_common_multiple", lambda vals: None)
    assert longest_chain(values) == (5, (1, 2, 4, 8, 16))
    assert all(v.divisors for v in after)


def test_bisection_scans_logarithmically_many_levels():
    chain = [2**j for j in range(60)]
    # odd values in one octave: none is divisible by a chain element but 1 or
    # by another of them, so each joins level 1 after probing levels 1 and 0
    odd = [CountedInt(2**60 + 2 * i + 1) for i in range(200)]
    assert not cofactor_mode(chain + odd)
    assert longest_chain(chain + odd) == (60, tuple(chain))
    above_level_1 = set(chain[2:])
    for i, v in enumerate(odd):
        # level j >= 2 holds 2^j alone, one block whose gcd 2^j screens it
        # out with one remainder, so remainders taken against 2^j count probes
        probes_above_level_1 = sum(d in above_level_1 for d in v.divisors)
        assert probes_above_level_1 <= len(chain).bit_length(), i


def test_block_whose_gcd_divides_v_is_scanned():
    # 6, 10 and 14 share one block of gcd 2, which divides 22 although none
    # of them does; three Mersenne primes, taken after v, force the plain DP
    v = CountedInt(22)
    values = [6, 10, 14, v, 66, 2**61 - 1, 2**89 - 1, 2**107 - 1]
    assert not cofactor_mode(values)
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
    assert not cofactor_mode(values)
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
    assert not cofactor_mode(values)
    assert longest_chain(values) == (1, (level[0],))
    assert len(v.divisors) <= 8
    assert not set(v.divisors) & set(level)
    assert longest_chain(values) == quadratic_longest_chain(values)


def test_cofactor_screen_skips_a_block_whose_lcm_the_cofactor_does_not_divide(monkeypatch):
    # the values of test_smallest_divisor_in_a_later_block, forced into
    # cofactor mode: the first block's cofactor lcm is N // 7, which v's
    # cofactor N // v does not divide, as 7 does not divide v, so the block is
    # skipped unscanned; the second block's is N // 3, so it is scanned up to
    # 1056's cofactor
    sevens = list(range(1001, 1051, 7))
    threes = list(range(1053, 1077, 3))
    v = 2**5 * 3**2 * 11 * 59
    values = sevens + threes + [v]
    plain = longest_chain(values)
    multiple = WatchedMultiple(math.lcm(*values), v)
    monkeypatch.setattr(divgraph, "_common_multiple", lambda vals: multiple)
    assert longest_chain(values) == (2, (1056, v)) == plain
    assert multiple.cofactor.dividends == [multiple // d for d in (7, 3, 1053, 1056)]
