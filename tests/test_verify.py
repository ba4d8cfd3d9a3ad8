import json
import math
import random
import sys

import pytest

from class_spectrum import verify
from class_spectrum import (
    EDGES,
    FAIL,
    INDETERMINATE,
    PASS,
    REFERENCE_CHAIN_BOUNDS,
    VERTICES,
    CycleType,
    DomainError,
    GroupKind,
    OmegaSweep,
    check_case,
    check_omega_lemma,
    class_size,
    hz_table,
    longest_chain,
    moved_class_sizes,
    omega_sweep,
    phi_set,
    psi_set,
    scan_range,
    shared_table,
    spectrum,
)
from class_spectrum.verify import SHARED_FACTOR_BITS, jsonable

SYM, ALT = GroupKind.SYM, GroupKind.ALT


def test_check_omega_threshold_examples():
    assert not check_omega_lemma(1360).holds
    assert check_omega_lemma(1361).holds  # prime: ratio is the empty product
    assert check_omega_lemma(1362).holds
    check = check_omega_lemma(1360)
    assert check.p == 1327
    assert check.omega_count == 94
    assert check.ratio_bits == 343
    assert check.pow2_bits == 95


def test_check_omega_prime_degrees_hold_trivially():
    for n in (23, 29, 101, 1361):
        check = check_omega_lemma(n)
        assert check.holds and check.ratio_bits == 1


def per_degree_sweep(start: int, stop: int, table) -> OmegaSweep:
    """The OmegaSweep of one check_omega_lemma call per degree in [start, stop]."""
    checks = (check_omega_lemma(n, table) for n in range(start, stop + 1))
    failures = tuple(check for check in checks if not check.holds)
    return OmegaSweep(start=start, stop=stop, checked=stop - start + 1, failures=failures)


@pytest.mark.parametrize("start", [3, 4, 5, 1361, 1362, 1390, 1391, 1392, 5777, 5778, 5779])
def test_omega_sweep_matches_per_degree_checks(start):
    table = shared_table(20000)
    next_prime = table.primes_in(start + 1, 2 * start + 2)[0]
    for stop in sorted({start, start + 1, next_prime, 6000}):
        assert omega_sweep(start, stop, table) == per_degree_sweep(start, stop, table), stop


def test_omega_sweep_agrees_with_single_checks():
    table = shared_table(20000)
    assert omega_sweep(3, 20000, table) == per_degree_sweep(3, 20000, table)


def test_omega_sweep_known_counterexample_window():
    # the threshold inequality has exact counterexamples above 1361; their
    # extent is frozen here so regressions in either direction are caught
    swept = omega_sweep(1362, 20000)
    failing = [check.n for check in swept.failures]
    assert len(failing) == 202
    assert failing[0] == 1391
    assert failing[-1] == 5778
    first = swept.failures[0]
    assert first.omega_count == 96 and first.ratio_bits == 105 and first.p == 1381


def test_hz_table_structure_and_reference_rows():
    rows = {row.m: row for row in hz_table(18)}
    assert set(rows) == set(range(2, 19))
    assert rows[2].reference_bound == 1
    assert rows[18].reference_bound == 69
    assert rows[14].reference_bound is None
    # spot values derivable by hand from the small fixed-point-free sets
    assert rows[2].computed[(SYM, VERTICES)] == 1
    assert rows[2].computed[(ALT, VERTICES)] == 0
    assert rows[4].computed[(ALT, VERTICES)] == 2
    assert rows[4].computed[(SYM, VERTICES)] == 4
    assert rows[4].computed[(SYM, EDGES)] == 1


def test_hz_table_matrix_frozen():
    expected = {
        2: (1, 0, 0, 0),
        3: (2, 0, 1, 0),
        4: (4, 1, 2, 0),
        5: (5, 1, 3, 0),
        6: (7, 2, 4, 0),
        7: (9, 3, 5, 0),
        8: (12, 5, 7, 1),
        9: (15, 7, 9, 2),
        10: (19, 10, 11, 3),
        11: (22, 12, 13, 4),
        12: (27, 16, 17, 7),
        13: (32, 20, 19, 8),
        18: (77, 60, 51, 35),
    }
    rows = {row.m: row for row in hz_table(18)}
    for m, (sv, se, av, ae) in expected.items():
        row = rows[m]
        assert row.computed[(SYM, VERTICES)] == sv
        assert row.computed[(SYM, EDGES)] == se
        assert row.computed[(ALT, VERTICES)] == av
        assert row.computed[(ALT, EDGES)] == ae


def test_hz_table_each_reference_row_met_by_some_combination():
    for row in hz_table(18):
        if row.reference_bound is None:
            continue
        assert min(row.computed.values()) <= row.reference_bound


def _r_by_rule(n):
    # r re-derived from prev_prime rather than read from degree_primes, the
    # query check_case makes: the largest prime r <= n // 2, kept when 2r > p + 1
    table = shared_table(n)
    r = table.prev_prime(n // 2)
    return r if 2 * r > table.prev_prime(n) + 1 else None


def test_r_trick_wins_strictly_wherever_r_exists():
    # ties keep the direct strategy, so an "r-trick" certificate at every
    # degree with an r says h(psi at 2r) < h(psi at p) strictly there: the
    # fact that lets a scan skip the direct candidate at those degrees
    report = scan_range(23, 1361, jobs=2)
    with_r = [cert for cert in report.certificates if _r_by_rule(cert.n) is not None]
    assert len(with_r) == 696 and len(report.certificates) == 2678
    assert [cert for cert in with_r if cert.strategy != verify.STRATEGY_R_TRICK] == []


def test_certificates_agree_with_the_lemma_and_the_r_rule():
    # check_case reads p, r and |Omega(n)| from one degree_primes query and
    # does not call check_omega_lemma; every certificate must agree with the
    # lemma record and with r re-derived from prev_prime
    report = scan_range(23, 400)
    assert len(report.certificates) == 2 * (400 - 23 + 1)
    for cert in report.certificates:
        lemma = check_omega_lemma(cert.n)
        r = _r_by_rule(cert.n)
        assert cert.omega_count == lemma.omega_count
        if cert.strategy == verify.STRATEGY_R_TRICK:
            assert r is not None and (cert.r, cert.t_star) == (r, 2 * r)
        else:
            assert (cert.r, cert.t_star) == (None, lemma.p)


def test_check_case_examples():
    cert = check_case(23, ALT)
    assert cert.verdict == PASS
    assert cert.strategy == "direct-psi-p"
    assert cert.support_m == 0
    assert cert.h_value == 0
    assert cert.omega_count == 4
    assert cert.witness_chain == ()

    cert24 = check_case(24, SYM)
    assert cert24.verdict == PASS
    assert cert24.support_m == 1
    assert cert24.h_value == 0

    for kind in (SYM, ALT):
        cert1360 = check_case(1360, kind)
        assert cert1360.verdict == PASS
        assert cert1360.strategy == "r-trick"
        assert cert1360.r == 677
        assert cert1360.t_star == 1354
        assert cert1360.support_m == 6
        assert cert1360.h_value <= 6
        assert cert1360.omega_count == 94


def test_check_case_witness_is_rederivable_chain():
    for n, kind in ((25, SYM), (100, SYM), (1360, ALT), (60, ALT)):
        cert = check_case(n, kind)
        assert len(cert.witness_chain) == cert.h_value
        assert cert.h_value_edges == max(cert.h_value - 1, 0)
        assert cert.h_value <= cert.h_sum_bound
        for a, b in zip(cert.witness_chain, cert.witness_chain[1:]):
            assert a < b and b % a == 0
        for value, lam in zip(cert.witness_chain, cert.witness_cycle_types):
            assert 2 <= lam.support <= cert.support_m
            assert value in class_size(kind, n, lam)


def test_check_case_requires_scan_domain():
    with pytest.raises(DomainError):
        check_case(22, SYM)
    with pytest.raises(DomainError, match="support_cap >= 0"):
        check_case(100, SYM, support_cap=-1)


def test_check_case_tightest_counterexample_degree():
    # the smallest margin |omega| - h over the 202 degrees in (1361, 5778]
    # where the threshold inequality fails
    cert = check_case(1398, SYM)
    assert cert.strategy == verify.STRATEGY_DIRECT
    assert (cert.t_star, cert.support_m) == (1381, 17)
    assert cert.h_value == 26 and cert.omega_count == 96
    assert cert.verdict == PASS


def test_check_case_indeterminate_when_cap_blocks_all_strategies():
    cert = check_case(1360, SYM, support_cap=5)
    assert cert.verdict == INDETERMINATE
    assert cert.reason is not None and "exceeds cap" in cert.reason
    assert cert.witness_chain == ()
    assert cert.strategy == verify.STRATEGY_DIRECT
    assert cert.t_star == 1327 and cert.support_m == 33
    assert cert.h_sum_bound == 0 and cert.h_value_edges == 0


def test_check_case_takes_r_trick_when_cap_skips_direct():
    cert = check_case(1360, SYM, support_cap=10)
    assert cert.strategy == verify.STRATEGY_R_TRICK
    assert cert.support_m == 6
    assert cert.h_value == 4
    assert cert.reason is None
    assert cert.verdict == PASS


def test_check_case_reruns_identical_except_elapsed():
    first = jsonable(check_case(150, ALT))
    second = jsonable(check_case(150, ALT))
    first.pop("elapsed")
    second.pop("elapsed")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_scan_single_degree():
    report = scan_range(23, 23)
    assert len(report.certificates) == 2
    assert report.counts == {PASS: 2, FAIL: 0, INDETERMINATE: 0}
    assert report.all_passed
    kinds = [cert.kind for cert in report.certificates]
    assert kinds == [GroupKind.ALT, GroupKind.SYM]  # sorted by kind value


def test_scan_parallel_matches_serial():
    serial = scan_range(23, 60, jobs=1)
    parallel = scan_range(23, 60, jobs=2)
    assert serial.summary_dict() == parallel.summary_dict()
    for a, b in zip(serial.certificates, parallel.certificates):
        da, db = jsonable(a), jsonable(b)
        da.pop("elapsed")
        db.pop("elapsed")
        assert da == db


@pytest.mark.parametrize("cpus, expected", [(64, [4]), (2, [2]), (None, [])])
def test_scan_pool_capped_by_tasks_and_cpus(monkeypatch, cpus, expected):
    # 23..24 x {sym, alt} is 4 tasks; a pool never gets more workers than
    # tasks or CPUs, and a one-worker pool falls back to the serial loop.
    # A pool is handed the costliest (highest) degrees first.
    sizes = []
    degrees = []

    class SerialPool:
        """Stand-in for ProcessPoolExecutor that records its size and maps in-process."""

        def __init__(self, max_workers, mp_context=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            degrees.extend(n for n, _, _ in items)
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    report = scan_range(23, 24, jobs=5000)
    assert sizes == expected
    assert degrees == ([24, 24, 23, 23] if expected else [])
    assert report.summary_dict() == scan_range(23, 24, jobs=1).summary_dict()


def test_scan_summary_has_no_timing_fields():
    report = scan_range(23, 25)
    assert "elapsed" not in json.dumps(report.summary_dict())


def test_scan_range_validation():
    with pytest.raises(DomainError):
        scan_range(22, 30)
    with pytest.raises(DomainError):
        scan_range(40, 30)
    with pytest.raises(DomainError, match="support_cap >= 0"):
        scan_range(23, 24, support_cap=-1)
    for jobs in (0, -1):
        with pytest.raises(DomainError, match="jobs >= 1"):
            scan_range(23, 24, jobs=jobs)
    with pytest.raises(DomainError, match="distinct kinds"):
        scan_range(23, 24, kinds=(ALT, SYM, ALT))


def test_reference_bounds_table():
    assert REFERENCE_CHAIN_BOUNDS == {
        2: 1,
        3: 2,
        4: 3,
        5: 5,
        6: 6,
        7: 8,
        8: 11,
        9: 14,
        10: 18,
        11: 21,
        12: 26,
        13: 30,
        18: 69,
    }


@pytest.mark.parametrize("kind", [SYM, ALT])
def test_moved_heights_from_centralizer_orders_match_class_sizes(kind):
    for i in range(35):
        h, _ = longest_chain(moved_class_sizes(kind, i).values)
        assert verify._moved_heights(kind, i) == h


@pytest.fixture
def digits_lifted():
    # the reference str() of a value past the int/str digit limit needs it lifted
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    yield
    set_limit(limit)


def _plain_strings(values):
    # the element rule of jsonable without the shared factor
    return [str(v) if type(v) is int else jsonable(v) for v in values]


@pytest.fixture
def shared_factor_calls(monkeypatch):
    calls = []
    through_factor = verify._through_factor

    def counted(values, g):
        calls.append(g)
        return through_factor(values, g)

    monkeypatch.setattr(verify, "_through_factor", counted)
    return calls


@pytest.mark.parametrize("kind", [SYM, ALT])
@pytest.mark.parametrize("n, t", [(1360, 1327), (1358, 1327), (700, 691), (100, 51)])
def test_jsonable_phi_families_match_str(digits_lifted, shared_factor_calls, kind, n, t):
    values = phi_set(kind, n, t).values
    assert jsonable(values) == [str(v) for v in values]
    # every size is a multiple of n!/((n-t)! t), or of its half for Alt; the
    # families whose factor passes the threshold are written through it
    assert bool(shared_factor_calls) == ((math.perm(n, t) // t).bit_length() > SHARED_FACTOR_BITS)


def test_jsonable_alt_phi_family_includes_split_halves():
    values = phi_set(ALT, 1360, 1327).values
    sym = set(phi_set(SYM, 1360, 1327).values)
    assert any(2 * v in sym and v not in sym for v in values)


@pytest.mark.parametrize("kind", [SYM, ALT])
def test_jsonable_psi_and_full_spectrum_match_str(digits_lifted, kind):
    for family in (psi_set(kind, 1360, 1327), psi_set(kind, 100, 51), spectrum(kind, 45)):
        assert jsonable(family.values) == [str(v) for v in family.values]


def test_jsonable_fabricated_shared_factor_is_exact(digits_lifted, shared_factor_calls):
    rng = random.Random(14)
    g = rng.getrandbits(4096) | 1 << 4095
    quotients = [rng.getrandbits(12000) for _ in range(40)] + [0, 1, -3, -(rng.getrandbits(9000))]
    values = [g * q for q in quotients]
    assert jsonable(values) == [str(v) for v in values]
    assert shared_factor_calls == [g]  # the quotients include 1
    assert max(len(str(v)) for v in values) > 4300  # past the default digit limit


def test_jsonable_other_lists_keep_the_element_rule(digits_lifted, shared_factor_calls):
    at = 1 << SHARED_FACTOR_BITS - 1  # the smallest factor with SHARED_FACTOR_BITS bits
    big = at << 100
    cases = [
        [big * 3, big * 5, CycleType.from_parts([3, 2, 2])],
        [big * 3, True, big * 5],
        (CycleType.from_parts([5]), big, big * 7),
        [big * 3, big * 5, 1.5],
        [big * 11],
        (big,),
        [],
        list(range(36000)),
        [2, big * 3, big * 5],
        [at // 2 * 3, at // 2 * 5],  # a shared factor one bit short
    ]
    for case in cases:
        assert jsonable(case) == _plain_strings(case)
    assert jsonable([True, False, 3]) == [True, False, "3"]
    assert shared_factor_calls == []
    # with one more bit the same list goes through its factor
    assert jsonable([at * 3, at * 5]) == [str(at * 3), str(at * 5)]
    assert shared_factor_calls == [at]
