import itertools
import json
import math
import multiprocessing.pool
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from class_spectrum import divgraph, verify
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
    bound_report,
    chebyshev_sweep,
    check_case,
    check_omega_lemma,
    class_size,
    hz_table,
    longest_chain,
    moved_class_sizes,
    omega_set,
    omega_sweep,
    phi_set,
    psi_members,
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


def test_hz_table_refuses_empty_or_repeated_kinds():
    # no kinds would give rows with nothing computed, and a repeated kind
    # would compute its columns twice
    for max_m, kinds in ((3, ()), (4, (SYM, SYM))):
        with pytest.raises(DomainError, match="distinct kinds"):
            hz_table(max_m, kinds=kinds)


def test_hz_table_each_reference_row_met_by_some_combination():
    for row in hz_table(18):
        if row.reference_bound is None:
            continue
        assert min(row.computed.values()) <= row.reference_bound


def _r_by_rule(n):
    # r re-derived from prev_prime rather than read from degree_primes, the
    # query check_case's plan (_candidates) makes: the largest prime
    # r <= n // 2, kept when 2r > p + 1
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
    # check_case reads p, r and |Omega(n)| from its plan's degree_primes
    # query and does not call check_omega_lemma; every certificate must agree
    # with the lemma record and with r re-derived from prev_prime
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hz_table(1), "needs max_m >= 2"),
        (lambda: check_omega_lemma(2), "needs n >= 3"),
        (lambda: omega_sweep(2, 10), "3 <= start <= stop"),
        (lambda: omega_sweep(30, 29), "3 <= start <= stop"),
    ],
    ids=["hz-table-below-2", "omega-below-3", "sweep-below-3", "sweep-reversed"],
)
def test_refusals_name_the_bound(call, message):
    with pytest.raises(DomainError) as refused:
        call()
    assert message in str(refused.value)


def test_check_case_tightest_counterexample_degree():
    # the smallest margin |omega| - h over the 202 degrees in (1361, 5778]
    # where the threshold inequality fails
    cert = check_case(1398, SYM)
    assert cert.strategy == verify.STRATEGY_DIRECT
    assert (cert.t_star, cert.support_m) == (1381, 17)
    assert cert.h_value == 26 and cert.omega_count == 96
    assert cert.verdict == PASS


def test_check_case_indeterminate_when_cap_blocks_all_strategies():
    # the first degree where SUPPORT_CAP refuses both candidates: p = 520451, r = 260231
    cert = check_case(520523, SYM)
    assert cert.verdict == INDETERMINATE
    assert cert.reason == (
        "direct-psi-p: residual support 72 exceeds cap 60; r-trick: residual support 61 exceeds cap 60"
    )
    assert cert.witness_chain == ()
    assert cert.strategy == verify.STRATEGY_DIRECT
    assert cert.t_star == 520451 and cert.support_m == 72
    assert cert.h_sum_bound == 0 and cert.h_value_edges == 0


def test_check_case_takes_r_trick_when_cap_skips_direct():
    # the first degree where SUPPORT_CAP refuses the direct candidate
    p, r, _ = shared_table(31458).degree_primes(31458)
    assert 31458 - p == verify.SUPPORT_CAP + 1
    for kind in (SYM, ALT):
        cert = check_case(31458, kind)
        assert cert.strategy == verify.STRATEGY_R_TRICK
        assert (cert.r, cert.t_star, cert.support_m) == (r, 2 * r, 4)
        assert cert.reason is None
        assert cert.verdict == PASS


@pytest.mark.parametrize(
    "n, p, omega_count, built, reasons",
    [
        # prime: the direct strategy alone, at support 0
        (1361, 1361, 95, [(verify.STRATEGY_DIRECT, None, 1361)], ""),
        (1360, 1327, 94, [(verify.STRATEGY_R_TRICK, 677, 1354), (verify.STRATEGY_DIRECT, None, 1327)], ""),
        (
            31458,
            31397,
            1553,
            [(verify.STRATEGY_R_TRICK, 15727, 31454)],
            "direct-psi-p: residual support 61 exceeds cap 60",
        ),
        (
            520523,
            520451,
            20242,
            [],
            "direct-psi-p: residual support 72 exceeds cap 60; r-trick: residual support 61 exceeds cap 60",
        ),
    ],
)
def test_candidates_plans_each_degree(n, p, omega_count, built, reasons):
    # the plan check_case follows: the candidates it builds, r-trick first,
    # and the skip reasons, direct first, joined as an INDETERMINATE
    # certificate gives them
    plan_p, plan_omega, plan_built, skipped = verify._candidates(n)
    assert (plan_p, plan_omega, plan_built) == (p, omega_count, built)
    assert "; ".join(skipped) == reasons


def test_check_case_reruns_identical_except_elapsed():
    first = jsonable(check_case(150, ALT))
    second = jsonable(check_case(150, ALT))
    first.pop("elapsed")
    second.pop("elapsed")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("n", [1345, 1360])
@pytest.mark.parametrize("kind", [SYM, ALT])
def test_check_case_cofactor_dp_matches_the_plain_dp(monkeypatch, kind, n):
    # at 1345 there is no r, so the kept direct witness (28 values for Sym,
    # 17 for Alt) comes from the cofactor DP; at 1360 both candidates run
    cofactor = check_case(n, kind)  # also fills _moved_heights up to each support
    common_multiple = divgraph._common_multiple
    multiples = []

    def recording(vals):
        multiples.append(common_multiple(vals))
        return multiples[-1]

    monkeypatch.setattr(divgraph, "_common_multiple", recording)
    assert check_case(n, kind)._replace(elapsed=0) == cofactor._replace(elapsed=0)
    # each family's lcm divides n!/(n - m)!, so every one takes the cofactor DP
    p, r, _ = shared_table(n).degree_primes(n)
    # the r-trick's family is evaluated first
    supports = ([] if r is None else [n - 2 * r]) + [n - p]
    assert len(multiples) == len(supports)
    for multiple, m in zip(multiples, supports):
        assert multiple is not None and math.perm(n, m) % multiple == 0, m
    monkeypatch.setattr(divgraph, "_common_multiple", lambda vals: None)
    assert check_case(n, kind)._replace(elapsed=0) == cofactor._replace(elapsed=0)
    if n == 1345:
        assert (cofactor.strategy, len(cofactor.witness_chain)) == (verify.STRATEGY_DIRECT, {SYM: 28, ALT: 17}[kind])


@pytest.mark.parametrize("kind", [SYM, ALT])
def test_check_case_stops_the_direct_dp_at_the_r_trick_height(monkeypatch, kind):
    # at 1360 the r-trick's DP runs whole, and the direct one gets its height
    # as the limit and stops once it is taller
    n = 1360
    p, r, _ = shared_table(n).degree_primes(n)
    calls = []

    def spy(values, **limit):
        values = set(values)
        result = longest_chain(values, **limit)
        if limit:  # _moved_heights calls longest_chain without one
            calls.append((values, limit["limit"], result))
        return result

    monkeypatch.setattr(verify, "longest_chain", spy)
    cert = check_case(n, kind)
    assert cert.strategy == verify.STRATEGY_R_TRICK
    (r_values, r_limit, r_result), (direct_values, direct_limit, direct_result) = calls
    assert r_values == set(verify._psi_sizes(kind, n, 2 * r)) and r_limit is None
    assert r_result == (cert.h_value, cert.witness_chain)
    assert direct_values == set(verify._psi_sizes(kind, n, p))
    assert direct_limit == cert.h_value
    assert direct_result == (cert.h_value + 1, ())


@pytest.mark.parametrize("kind", [SYM, ALT])
def test_check_case_tie_keeps_the_direct_strategy(monkeypatch, kind):
    # give the direct candidate the r-trick's family: the tie keeps the
    # direct strategy with t* = p, as the full DP without a limit does
    n = 1360
    p, r, _ = shared_table(n).degree_primes(n)
    psi_sizes = verify._psi_sizes
    monkeypatch.setattr(verify, "_psi_sizes", lambda kind, n, t: psi_sizes(kind, n, 2 * r if t == p else t))
    tied = check_case(n, kind)
    assert (tied.strategy, tied.r, tied.t_star) == (verify.STRATEGY_DIRECT, None, p)
    assert (tied.h_value, tied.witness_chain) == longest_chain(psi_sizes(kind, n, 2 * r))
    monkeypatch.setattr(verify, "longest_chain", lambda values, limit=None: longest_chain(values))
    assert check_case(n, kind)._replace(elapsed=0) == tied._replace(elapsed=0)


@pytest.mark.parametrize("kind", [SYM, ALT])
def test_check_case_checks_a_stopped_dp_against_its_bound(monkeypatch, kind):
    # every per-support bound but the first set to 0, so every summed bound
    # is the r-trick's height h: the r-trick meets it, and the stopped
    # direct DP's lower bound h + 1 exceeds it
    n = 1360
    h = check_case(n, kind).h_value
    monkeypatch.setattr(verify, "_moved_heights", lambda kind, i: h if i == 1 else 0)
    with pytest.raises(
        verify.ChainBoundViolation, match=f"direct-psi-p: direct height at least {h + 1} exceeds summed bound {h};"
    ):
        check_case(n, kind)


def _check_case_by_members(n, kind):
    # check_case as it was before families were read from core states: each
    # candidate fills a full size -> first type dict from psi_members, runs
    # the plain DP on its keys, and the kept candidate's dict annotates the
    # witness
    p, r, omega_count = shared_table(n).degree_primes(n)
    candidates = [(verify.STRATEGY_DIRECT, None, p)] + ([] if r is None else [(verify.STRATEGY_R_TRICK, r, 2 * r)])
    best, skipped = None, []
    for strategy, r_value, t_star in candidates:
        m = n - t_star
        if m > verify.SUPPORT_CAP:
            skipped.append(f"{strategy}: residual support {m} exceeds cap {verify.SUPPORT_CAP}")
            continue
        members = {}
        for value, ct in psi_members(kind, n, t_star):
            members.setdefault(value, ct)
        h_value, witness = longest_chain(members)
        if best is None or h_value < best[0]:
            h_sum = sum(longest_chain(moved_class_sizes(kind, i).values)[0] for i in range(1, m + 1))
            best = (h_value, strategy, r_value, t_star, h_sum, witness, members)
    indeterminate = (0, verify.STRATEGY_DIRECT, None, p, 0, (), {})
    h_value, strategy, r_value, t_star, h_sum, witness, members = best or indeterminate
    verdict = INDETERMINATE if best is None else PASS if omega_count > h_value else FAIL
    return verify.Certificate(
        n=n,
        kind=kind,
        strategy=strategy,
        r=r_value,
        t_star=t_star,
        support_m=n - t_star,
        omega_count=omega_count,
        h_value=h_value,
        h_value_edges=max(h_value - 1, 0),
        h_sum_bound=h_sum,
        verdict=verdict,
        witness_chain=witness,
        witness_cycle_types=tuple(members[v] for v in witness),
        elapsed=0,
        reason="; ".join(skipped) if best is None else None,
    )


@pytest.mark.parametrize("n", [1345, 1360, 31458, 520523])
@pytest.mark.parametrize("kind", [SYM, ALT])
def test_check_case_matches_full_members_annotation(kind, n):
    # check_case gives cycle types only to the kept witness, walking
    # psi_members just until every witness value has its first type; the
    # certificate must be the one a full size -> type dict gives
    assert check_case(n, kind)._replace(elapsed=0) == _check_case_by_members(n, kind)


def test_scan_walks_partitions_only_to_the_witness_supports():
    # in a fresh interpreter, so no earlier test has filled the caches: hz_table
    # builds the core-state layers once, to its largest support, before any
    # row reads them, and a scan walks fixed-point-free partitions
    # (classes._fpf_cores) no further than the largest support of a witness
    # type it records
    code = (
        "from class_spectrum import classes, verify\n"
        "calls = []\n"
        "core_states = classes._core_states\n"
        "classes._core_states = lambda m: calls.append(m) or core_states(m)\n"
        "verify.hz_table(33)\n"
        "print(calls)\n"
        "report = verify.scan_range(1340, 1361)\n"
        "print(classes._fpf_cores.cache_info().currsize)\n"
        "print(max(ct.support for cert in report.certificates for ct in cert.witness_cycle_types))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    calls, walked, largest = proc.stdout.splitlines()
    assert calls == "[33]"
    assert 1 <= int(walked) <= int(largest)


def test_scan_builds_the_core_layers_once():
    # in a fresh interpreter, so no earlier test has filled the caches: the
    # residual support rises and falls with the prime gaps across a scan, so
    # the scan builds the core-state layers once, before its first case, to
    # the largest support a candidate of the range needs, not to SUPPORT_CAP
    code = (
        "from class_spectrum import classes, verify\n"
        "calls = []\n"
        "core_states = classes._core_states\n"
        "classes._core_states = lambda m: calls.append(m) or core_states(m)\n"
        "report = verify.scan_range(23, 200)\n"
        "print(len(calls), *calls)\n"
        "print(max(cert.support_m for cert in report.certificates))\n"
    )
    src = str(Path(verify.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    calls, largest = proc.stdout.splitlines()
    count, built = map(int, calls.split())
    assert count == 1
    assert int(largest) <= built < verify.SUPPORT_CAP


def test_scan_single_degree():
    report = scan_range(23, 23)
    assert len(report.certificates) == 2
    assert report.counts == {PASS: 2, FAIL: 0, INDETERMINATE: 0}
    assert report.all_passed
    kinds = [cert.kind for cert in report.certificates]
    assert kinds == [GroupKind.ALT, GroupKind.SYM]  # sorted by kind value


def test_scan_parallel_matches_serial(monkeypatch):
    # two CPUs, whatever the machine or its affinity mask allows, so the scan
    # forks a real two-worker pool and its certificates come back pickled
    pools = []

    class RecordingPool(multiprocessing.pool.Pool):
        def __init__(self, processes=None, *args, **kwargs):
            pools.append(processes)
            super().__init__(processes, *args, **kwargs)

    # a context's Pool() imports the class from multiprocessing.pool when called
    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    serial = scan_range(23, 60, jobs=1)
    assert pools == []
    parallel = scan_range(23, 60, jobs=2)
    assert pools == [2]
    # no worker outlives the scan
    assert multiprocessing.active_children() == []
    assert serial.summary_dict() == parallel.summary_dict()
    for a, b in zip(serial.certificates, parallel.certificates):
        da, db = jsonable(a), jsonable(b)
        da.pop("elapsed")
        db.pop("elapsed")
        assert da == db


def test_every_record_type_survives_a_pickle_round_trip():
    # the fork pool sends certificates, with their cycle types, back pickled;
    # every record type must come back equal and of its own type
    cert = check_case(1360, SYM)
    records = [
        cert,
        cert.witness_cycle_types[0],
        scan_range(23, 23),
        hz_table(3)[0],
        check_omega_lemma(1360),
        omega_sweep(1360, 1362),
        omega_set(30),
        bound_report(100),
        chebyshev_sweep(10, 50),
        spectrum(SYM, 5),
        divgraph.height([2, 4, 3, 8]),
    ]
    assert len({type(r) for r in records}) == 11
    for record in records:
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert type(back) is type(record)
            assert back == record


def _recording_pool(monkeypatch, cpu_count, affinity):
    """Replace the pool with an in-process stand-in and fix the CPU sources.

    Returns the lists that receive each pool's size and the degrees handed
    to it. Affinity None stands for a platform without affinity masks.
    """
    sizes = []
    degrees = []

    class SerialPool:
        """Stand-in for multiprocessing.pool.Pool that records its size and maps in-process."""

        def __init__(self, processes=None, initializer=None, initargs=(), maxtasksperchild=None, context=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, iterable, chunksize=None):
            tasks = list(iterable)
            degrees.extend(n for n, _ in tasks)
            return list(itertools.starmap(func, tasks))

    # a context's Pool() imports the class from multiprocessing.pool when called
    monkeypatch.setattr(multiprocessing.pool, "Pool", SerialPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpu_count)
    if affinity is None:
        monkeypatch.delattr(verify.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    return sizes, degrees


@pytest.mark.parametrize("cpus, expected", [(64, [4]), (2, [2]), (None, [])])
def test_scan_pool_capped_by_tasks_and_cpus(monkeypatch, cpus, expected):
    # 23..24 x {sym, alt} is 4 tasks; a pool never gets more workers than
    # tasks or CPUs, and a one-worker pool falls back to the serial loop.
    # cpus None is a platform with neither an affinity mask nor a CPU count.
    # A pool is handed the tasks in scan order.
    sizes, degrees = _recording_pool(monkeypatch, cpus, None if cpus is None else range(cpus))
    report = scan_range(23, 24, jobs=5000)
    assert sizes == expected
    assert degrees == ([23, 23, 24, 24] if expected else [])
    assert report.summary_dict() == scan_range(23, 24, jobs=1).summary_dict()


def test_scan_pool_sized_by_the_affinity_mask(monkeypatch):
    # pinned to one CPU of a 64-CPU machine, the scan runs serially instead
    # of forking two workers onto that CPU
    sizes, degrees = _recording_pool(monkeypatch, 64, {0})
    report = scan_range(23, 24, jobs=2)
    assert (sizes, degrees) == ([], [])
    assert report.summary_dict() == scan_range(23, 24, jobs=1).summary_dict()


def test_scan_summary_has_no_timing_fields():
    report = scan_range(23, 25)
    assert "elapsed" not in json.dumps(report.summary_dict())


def test_scan_range_validation():
    with pytest.raises(DomainError):
        scan_range(22, 30)
    with pytest.raises(DomainError):
        scan_range(40, 30)
    for jobs in (0, -1):
        with pytest.raises(DomainError, match="jobs >= 1"):
            scan_range(23, 24, jobs=jobs)
    for kinds in ((ALT, SYM, ALT), ()):
        with pytest.raises(DomainError, match="distinct kinds"):
            scan_range(23, 24, kinds=kinds)


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


class _Count(int):
    pass


class _Items(list):
    pass


@pytest.mark.parametrize(
    "obj, name",
    [(object(), "object"), (_Count(3), "_Count"), (_Items([1, 2]), "_Items"), ({"n": {1, 2}}, "set")],
    ids=["object", "int-subclass", "list-subclass", "set-in-dict"],
)
def test_jsonable_refuses_other_types(obj, name):
    # types are matched exactly: a subclass of a scalar, tuple or list is no record
    with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
        jsonable(obj)
