import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bytewise_primes

from class_spectrum import (
    DomainError,
    bound_report,
    chebyshev_sweep,
    check_omega_lemma,
    factorial_ratio,
    omega_set,
    shared_table,
    sieve,
)
from class_spectrum import primes


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_sieve_small():
    table = sieve(10)
    assert table.primes_in(0, 10) == [2, 3, 5, 7]
    assert not table.is_prime(0) and not table.is_prime(1)
    assert table.count(10) == 4


def test_sieve_pi_100():
    assert sieve(100).count(100) == 25


def test_sieve_pi_million_with_sampled_cross_check():
    table = sieve(1_000_000)
    assert table.count(1_000_000) == 78498
    rng = random.Random(17)
    for k in rng.sample(range(1_000_000), 300):
        assert table.is_prime(k) == trial_division_is_prime(k)


def test_sieve_segment_boundaries():
    limit = (1 << 20) + 50
    table = sieve(limit)
    for k in range((1 << 20) - 30, limit + 1):
        assert table.is_prime(k) == trial_division_is_prime(k)


def pack_bit_by_bit(flags: bytearray) -> bytearray:
    """Bit k of byte k >> 3 set exactly when flags[k] is set."""
    bits = bytearray((len(flags) + 7) // 8)
    for k, flag in enumerate(flags):
        if flag:
            bits[k >> 3] |= 1 << (k & 7)
    return bits


@pytest.mark.parametrize("limit", list(range(71)) + [(1 << 20) - 1, 1 << 20, (1 << 20) + 1, (1 << 21) + 13])
def test_sieve_bits_match_bytewise_oracle(limit):
    assert sieve(limit)._bits == pack_bit_by_bit(bytewise_primes(limit))


SMALL_LIMIT = 300
SMALL_TABLE = sieve(SMALL_LIMIT)
SMALL_FLAGS = bytewise_primes(SMALL_LIMIT)


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-3, max_value=SMALL_LIMIT), st.integers(min_value=-3, max_value=SMALL_LIMIT))
def test_primes_in_matches_bytewise_oracle(lo, hi):
    expected = [k for k in range(max(lo, 0), hi + 1) if SMALL_FLAGS[k]]
    assert SMALL_TABLE.primes_in(lo, hi) == expected


def test_primes_in_byte_edges():
    edges = [-3, 0, 1, 2, 7, 8, 9, 15, 16, 17, 293, 296, 299, 300]
    for lo in edges:
        for hi in edges:
            expected = [k for k in range(max(lo, 0), hi + 1) if SMALL_FLAGS[k]]
            assert SMALL_TABLE.primes_in(lo, hi) == expected, (lo, hi)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-3, max_value=400), st.integers(min_value=SMALL_LIMIT + 1, max_value=400))
def test_primes_in_above_limit_raises(lo, hi):
    with pytest.raises(DomainError):
        SMALL_TABLE.primes_in(lo, hi)


def test_count_prefix_edges():
    table = sieve(50)
    assert table.count(0) == 0
    assert table.count(1) == 0
    assert table.count(2) == 1
    assert [table.count(x) for x in range(2, 12)] == [1, 2, 2, 3, 3, 4, 4, 4, 4, 5]
    assert table.count(-1) == 0
    with pytest.raises(DomainError):
        table.count(51)


def test_prev_prime():
    table = sieve(100)
    assert table.prev_prime(100) == 97
    assert table.prev_prime(97) == 97
    assert table.prev_prime(2) == 2
    assert table.prev_prime(1) is None


def _degree_primes_from_list(primes, n):
    # primes = table.primes_in(2, limit): p is its last prime <= n, r its last
    # prime <= n // 2 (kept when 2r > p + 1), and Omega(n) the slice between
    k = bisect.bisect_right(primes, n)
    h = bisect.bisect_right(primes, n // 2)
    p = primes[k - 1]
    r = primes[h - 1] if h and 2 * primes[h - 1] > p + 1 else None
    return p, r, len(primes[h:k])


def test_degree_primes_matches_prime_lists():
    table = sieve(20000)
    primes = table.primes_in(2, 20000)
    for n in range(3, 20001):
        assert table.degree_primes(n) == _degree_primes_from_list(primes, n), n
    for n in range(3, 20001, 97):
        # the slice is the primes_in list of (n/2, n] itself
        omega = primes[bisect.bisect_right(primes, n // 2) : bisect.bisect_right(primes, n)]
        assert omega == table.primes_in(n // 2 + 1, n), n
    # n = 6 is the smallest degree with 2r = p + 1 (p = 5, r = 3): no r
    assert table.degree_primes(6) == (5, None, 1)
    assert table.degree_primes(26) == (23, 13, 3)


@pytest.mark.parametrize("limit", [2, 3, 4, 6, 10, 26, 97, 100])
def test_degree_primes_at_the_limit_of_a_small_sieve(limit):
    table = sieve(limit)
    assert table.degree_primes(limit) == _degree_primes_from_list(table.primes_in(2, limit), limit)
    with pytest.raises(DomainError):
        table.degree_primes(limit + 1)
    with pytest.raises(DomainError):
        table.degree_primes(1)


def test_degree_primes_r_examples():
    table = shared_table(1361)
    assert table.degree_primes(23)[1] is None
    assert table.degree_primes(30)[1] is None
    assert table.degree_primes(24)[1] is None
    assert table.degree_primes(26)[1] == 13
    assert table.degree_primes(1360)[1] == 677


def test_degree_primes_r_constraints():
    # r is the prime maximizing 2r under p + 1 < 2r <= n, if any
    table = shared_table(1361)
    for n in range(23, 1362):
        p, r, _ = table.degree_primes(n)
        assert p == table.prev_prime(n)
        if r is not None:
            assert table.is_prime(r)
            assert p + 1 < 2 * r <= n
            # maximal: no prime r' with r < r' <= n // 2
            assert table.prev_prime(n // 2) == r
        else:
            assert all(
                not (table.is_prime(c) and p + 1 < 2 * c)
                for c in range((p + 1) // 2 + 1, n // 2 + 1)
            )


def test_omega_examples():
    assert omega_set(10).omega == (7,)
    assert omega_set(10).p == 7
    assert omega_set(10).count == 1
    data = omega_set(23)
    assert data.omega == (13, 17, 19, 23)
    assert data.p == 23
    assert omega_set(1360).p == 1327


def test_omega_boundaries():
    # strict lower bound: for even n the halving prime is excluded
    assert 7 not in omega_set(14).omega
    assert omega_set(14).omega == (11, 13)
    # t = n included when n is prime
    assert omega_set(13).omega[-1] == 13
    with pytest.raises(DomainError):
        omega_set(2)


def test_omega_count_equals_pi_difference():
    table = sieve(2000)
    for n in range(3, 2001):
        data = omega_set(n)
        assert data.count == table.count(n) - table.count(n // 2)
        assert data.count >= 1  # Bertrand, empirically
        assert data.p in data.omega
        assert all(table.is_prime(t) and n // 2 < t <= n for t in data.omega)


def test_factorial_ratio_examples():
    assert factorial_ratio(5, 5) == 1
    assert factorial_ratio(5, 3) == 20
    assert factorial_ratio(1362, 1361) == 1362
    with pytest.raises(DomainError):
        factorial_ratio(3, 5)


def test_factorial_ratio_times_p_factorial_is_n_factorial():
    for n in list(range(0, 60)) + [123, 456, 999, 1500, 2000]:
        for p in {0, 1, n // 3, n // 2, max(n - 1, 0), n}:
            if p <= n:
                assert factorial_ratio(n, p) * math.factorial(p) == math.factorial(n)


def test_bound_report_examples():
    r100 = bound_report(100)
    assert r100.pi_exact == 25
    assert r100.lower_holds
    assert not r100.upper_holds  # 25 >= 1.106 * 100 / ln 100 = 24.016...
    assert 24.0 < r100.upper < 24.1

    r11 = bound_report(11)
    assert r11.pi_exact == 5
    assert r11.lower_holds
    assert 4.2 < r11.lower < 4.3

    r1360 = bound_report(1360)
    assert r1360.p == 1327
    assert r1360.gap == 33
    assert r1360.gap_bound_holds  # 33 < 1360^0.525 = 44.3...


def test_bound_report_flags_match_chebyshev_sweep():
    sweep = chebyshev_sweep(10, 10_000)
    lower_bad = set(sweep.lower_violations)
    upper_bad = set(sweep.upper_violations)
    gap_bad = set(sweep.gap_violations)
    for x in range(11, 10_001):
        report = bound_report(x)
        assert (report.lower_holds, report.upper_holds, report.gap_bound_holds) == (
            x not in lower_bad,
            x not in upper_bad,
            x not in gap_bad,
        ), x


def test_bound_report_domain():
    with pytest.raises(DomainError):
        bound_report(10)


def test_gap_bound_is_exact_power_comparison():
    report = bound_report(1360)
    assert (report.gap**40 < 1360**21) == report.gap_bound_holds


def test_sweep_quick():
    result = chebyshev_sweep(10, 10_000)
    assert result.lower_violations == ()
    assert 100 in result.upper_violations
    # the gap bound read pointwise fails once in this range: the 113 -> 127
    # gap gives 126 - 113 = 13 > 126^0.525 = 12.66..., exactly 13^40 > 126^21
    assert result.gap_violations == (126,)
    assert result.checked == 9990


def test_sweep_rejects_reversed_interval():
    with pytest.raises(DomainError):
        chebyshev_sweep(100, 50)
    empty = chebyshev_sweep(100, 100)
    assert empty.checked == 0
    assert empty.lower_violations == empty.upper_violations == empty.gap_violations == ()


def test_shared_table_grows_on_demand(monkeypatch):
    # every prime-data function reads shared_table, so each must grow it
    # past its first 2^16-entry build when asked about a larger degree
    monkeypatch.setattr(primes, "_shared", None)
    small = shared_table(100)
    assert small.limit == 2**16
    assert shared_table(50) is small
    fresh = sieve(200_006)

    def degree_primes(n):
        return shared_table(n).degree_primes(n)

    calls = [
        (200_003, omega_set, lambda data: data.omega == tuple(fresh.primes_in(100_002, 200_003))),
        (200_003, bound_report, lambda r: (r.pi_exact, r.p) == (fresh.count(200_003), 200_003)),
        (200_003, check_omega_lemma, lambda c: c.p == 200_003 and c.holds and fresh.is_prime(200_003)),
        (
            200_006,
            check_omega_lemma,
            lambda c: (c.p, c.omega_count) == (fresh.prev_prime(200_006), fresh.count(200_006) - fresh.count(100_003)),
        ),
        (200_003, degree_primes, lambda d: d == (200_003, None, fresh.count(200_003) - fresh.count(100_001))),
        (
            200_006,
            degree_primes,
            lambda d: d == (fresh.prev_prime(200_006), 100_003, fresh.count(200_006) - fresh.count(100_003))
            and fresh.prev_prime(100_003) == 100_003 > (fresh.prev_prime(200_006) + 1) // 2,
        ),
    ]
    for n, function, matches in calls:
        monkeypatch.setattr(primes, "_shared", small)
        answer = function(n)
        # growth is geometric: at least twice the old limit
        assert primes._shared.limit == max(n, 2 * small.limit), function.__name__
        assert matches(answer), (function.__name__, n)


def test_rising_degrees_rebuild_the_shared_table_logarithmically_often(monkeypatch):
    # 300 rising degrees past 2^16: the first builds the table at 65,537,
    # and growing to twice the old limit builds only one more, where growing
    # to each degree in turn built 300
    monkeypatch.setattr(primes, "_shared", None)
    limits = []

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(primes, "sieve", counted)
    answers = [(check_omega_lemma(n), shared_table(n).degree_primes(n)) for n in range(65_537, 65_837)]
    # sieve also recurses for its base primes; only the table builds pass 2^16
    assert [limit for limit in limits if limit > 2**16] == [65_537, 131_074]
    fresh = sieve(65_836)
    for n, (check, degree) in zip(range(65_537, 65_837), answers):
        p, count = fresh.prev_prime(n), fresh.count(n) - fresh.count(n // 2)
        r = fresh.prev_prime(n // 2)
        assert (check.p, check.omega_count) == (p, count), n
        assert degree == (p, r if 2 * r > p + 1 else None, count), n
