import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import class_spectrum
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_spectrum import (
    CycleType,
    DomainError,
    EnumerationCapError,
    GroupKind,
    Spectrum,
    class_size,
    fixed_point_free_partitions,
    group_order,
    is_even,
    moved_class_sizes,
    omega_set,
    partitions,
    phi_set,
    psi_members,
    psi_set,
    spectrum,
)
from class_spectrum import classes
from class_spectrum.classes import _core, _core_states, _fpf_cores, _layer_sizes, _psi_sizes
from class_spectrum.errors import InvariantError
from oracles import (
    admissible,
    centralizer_order_sym,
    class_sizes_where,
    conjugacy_classes,
    cycle_lengths,
    phi_by_partitions,
    psi_first_types,
    spectrum_by_partitions,
    support,
)

SYM, ALT = GroupKind.SYM, GroupKind.ALT
KINDS = (SYM, ALT)


def ct(*parts):
    return CycleType.from_parts(parts)


def test_group_kind_parse():
    assert GroupKind.parse("Sym") is SYM
    assert GroupKind.parse("alt") is ALT
    with pytest.raises(DomainError):
        GroupKind.parse("dihedral")


def test_group_order_examples():
    assert group_order(SYM, 4) == 24
    assert group_order(ALT, 5) == 60
    assert group_order(ALT, 1) == 1
    assert group_order(ALT, 2) == 1
    assert group_order(SYM, 0) == 1


def _centralizer_from_core(lam, n):
    # the Sym_n centralizer order that _core's (support, z, even) implies
    c, z, _ = _core(lam)
    return math.factorial(n - c) * z


def test_centralizer_order_examples():
    for lam, n, order in ((ct(2), 4, 4), (ct(), 5, 120), (ct(5), 5, 5), (ct(3, 2, 2), 9, 48)):
        assert centralizer_order_sym(lam, n) == _centralizer_from_core(lam, n) == order


def test_centralizer_merges_explicit_fixed_points():
    # (1) padded into degree 2 is the identity, whose centralizer is all of S_2
    assert _core(ct(1)) == _core(ct())
    assert _core(ct(2, 1)) == _core(ct(2))
    assert centralizer_order_sym(ct(1), 2) == _centralizer_from_core(ct(1), 2) == 2
    assert centralizer_order_sym(ct(2, 1), 4) == _centralizer_from_core(ct(2, 1), 4) == 4


def test_centralizer_against_explicit_commuting_count():
    from oracles import conj, group_elements

    x = (1, 0, 2, 3)  # cycle type (2) in S_4
    commuting = sum(1 for g in group_elements("sym", 4) if conj(g, x) == x)
    assert commuting == centralizer_order_sym(ct(2), 4) == _centralizer_from_core(ct(2), 4)


def test_centralizer_support_check():
    # a type that moves more points than the degree has no class
    with pytest.raises(DomainError, match="covers 5 points, exceeding degree 4"):
        class_size(SYM, 4, ct(5))


def test_class_size_examples():
    assert class_size(SYM, 4, ct(2)) == [6]
    assert class_size(ALT, 5, ct(5)) == [12, 12]
    assert class_size(ALT, 4, ct(3)) == [4, 4]
    assert class_size(ALT, 4, ct(2, 2)) == [3]


def test_class_size_rejects_odd_type_in_alt():
    with pytest.raises(DomainError):
        class_size(ALT, 4, ct(2))


def test_class_size_degenerate_alternating_groups():
    assert class_size(ALT, 0, ct()) == [1]
    assert class_size(ALT, 1, ct(1)) == [1]
    assert class_size(ALT, 2, ct(1, 1)) == [1]


def test_spectrum_examples():
    assert spectrum(SYM, 4).values == (1, 3, 6, 8)
    assert spectrum(ALT, 5).values == (1, 12, 15, 20)
    assert spectrum(SYM, 1).values == (1,)
    assert spectrum(ALT, 2).values == (1,)


def test_spectrum_cap_refusal():
    with pytest.raises(EnumerationCapError, match="exceeds the degree cap 5; pass a cap of at least 10"):
        spectrum(SYM, 10, cap=5)
    with pytest.raises(EnumerationCapError, match="degree cap -1;"):
        spectrum(SYM, 10, cap=-1)
    assert spectrum(SYM, 10, cap=None).values == spectrum(SYM, 10).values


@pytest.mark.parametrize("n", range(1, 31))
@pytest.mark.parametrize("kind", KINDS)
def test_state_dp_matches_partition_walk(kind, n):
    assert spectrum(kind, n).values == spectrum_by_partitions(kind, n)
    for t in range(n // 2 + 1, n + 1):
        assert phi_set(kind, n, t).values == phi_by_partitions(kind, n, t), t


@pytest.mark.parametrize("m", range(0, 35))
def test_core_packs_the_state_of_core_states(m):
    # both producers of cores, the walk behind _fpf_cores and the DP behind
    # spectrum and phi_set, must agree on each core's parity; Sym sizes
    # ignore the parity, so no size comparison would catch a core filed in
    # the wrong dict. m runs one past 33, the scan's largest residual support
    # (1360 - 1327)
    layer = _core_states(m)[m]
    walked = set()
    for lam in fixed_point_free_partitions(m):
        support, z, even = _core(lam)
        assert support == m and z in layer[not even], lam
        walked.add((z, even))
    assert walked == {(z, odd == 0) for odd, zs in enumerate(layer) for z in zs}
    # each _fpf_cores row keeps its core as a layer holding that one core
    rows = [(z, odd == 0) for _, layer in _fpf_cores(m) for odd, zs in enumerate(layer) for z in zs]
    assert len(rows) == len(_fpf_cores(m)) and set(rows) == walked


@pytest.mark.parametrize("kind", KINDS)
def test_psi_set_from_core_states_matches_psi_members(kind):
    # psi_set reads the cached core-state layers and psi_members walks the
    # fixed-point-free partitions; both must give the same family. (1360,
    # 1327) is the scan's widest direct family, residual support 33
    cases = [(n, t) for n in range(0, 31) for t in range(0, n + 1)] + [(1360, 1327)]
    for n, t in cases:
        assert psi_set(kind, n, t).values == tuple(sorted({v for v, _ in psi_members(kind, n, t)})), (n, t)


@pytest.mark.parametrize("kind", KINDS)
def test_moved_class_sizes_from_core_states_match_fpf_rows(kind):
    for i in range(0, 34):
        walked = {s for ct, *_ in _fpf_cores(i) if admissible(kind, i, ct) for s in class_size(kind, i, ct)}
        assert set(moved_class_sizes(kind, i).values) == walked, i


def test_moved_class_sizes_examples():
    assert moved_class_sizes(SYM, 4).values == (3, 6)
    assert moved_class_sizes(SYM, 1).values == ()
    assert moved_class_sizes(ALT, 4).values == (3,)
    assert moved_class_sizes(ALT, 2).values == ()
    assert moved_class_sizes(SYM, 0).values == (1,)


def test_phi_set_examples():
    assert phi_set(SYM, 5, 5).values == (24,)
    assert phi_set(SYM, 5, 4).values == (30,)
    assert phi_set(SYM, 6, 4).values == (90,)
    # t = 1 forces n = 1, the identity; the transposition of degree 2 is odd, so Alt_2 has none
    for kind in KINDS:
        assert phi_set(kind, 1, 1).values == (1,)
        assert phi_set(kind, 2, 2).values == ((1,) if kind is SYM else ())


def test_phi_set_range_check():
    with pytest.raises(DomainError):
        phi_set(SYM, 6, 3)  # t <= n/2
    with pytest.raises(DomainError):
        phi_set(SYM, 6, 7)


HUGE = 10**23  # past sys.maxsize, where math.factorial and math.perm refuse without naming the argument


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: group_order(SYM, -1), "group degree must be >= 0"),
        (lambda: group_order(ALT, sys.maxsize + 1), f"got {sys.maxsize + 1}"),
        (lambda: spectrum(SYM, 0), "needs n >= 1"),
        (lambda: moved_class_sizes(SYM, -1), "needs i >= 0"),
        (lambda: moved_class_sizes(ALT, HUGE), f"got {HUGE}"),
        (lambda: psi_set(SYM, HUGE, HUGE), f"got {HUGE}"),
        (lambda: phi_set(ALT, HUGE, HUGE), f"got {HUGE}"),
    ],
    ids=["order-negative", "order-huge", "spectrum-zero", "moved-negative", "moved-huge", "psi-huge", "phi-huge"],
)
def test_degree_refusals_name_the_bound(call, message):
    # each is a DomainError, raised before any factorial or family is built
    with pytest.raises(DomainError) as refused:
        call()
    assert message in str(refused.value)


def test_psi_set_examples():
    assert psi_set(SYM, 10, 7).values == (45, 240)
    assert psi_set(SYM, 6, 2).values == (15, 40, 45, 90)
    for kind in KINDS:
        assert psi_set(kind, 8, 7).values == ()
        assert psi_set(kind, 8, 8).values == ()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(1, 31))
def test_class_equation(kind, n):
    total = 0
    for lam in partitions(n):
        if kind is ALT and n >= 2 and not is_even(lam):
            continue
        total += sum(class_size(kind, n, lam))
    assert total == group_order(kind, n)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 7))
def test_families_match_orbit_oracle_small(kind, n):
    key = kind.value
    assert set(spectrum(kind, n).values) == class_sizes_where(key, n, lambda g: True)
    assert set(moved_class_sizes(kind, n).values) == class_sizes_where(
        key, n, lambda g: support(g) == n
    )
    for t in range(n // 2 + 1, n + 1):
        assert set(phi_set(kind, n, t).values) == class_sizes_where(
            key, n, lambda g, t=t: t in cycle_lengths(g)
        )
    for t in range(0, n + 1):
        assert set(psi_set(kind, n, t).values) == class_sizes_where(
            key, n, lambda g, t=t: 2 <= support(g) <= n - t
        )


@pytest.mark.parametrize("n", range(2, 9))
def test_splitting_criterion_matches_oracle(n):
    by_type: dict[tuple[int, ...], list[int]] = {}
    for cls in conjugacy_classes("alt", n):
        member = next(iter(cls))
        by_type.setdefault(cycle_lengths(member), []).append(len(cls))
    for lam in partitions(n):
        if not is_even(lam):
            continue
        expected = sorted(by_type[lam.part_list()])
        assert sorted(class_size(ALT, n, lam)) == expected
        padded = lam.part_list()
        splits = len(expected) == 2
        assert splits == (all(k % 2 == 1 for k in padded) and len(set(padded)) == len(padded))


def _odd_distinct(lengths):
    return all(k % 2 for k in lengths) and len(set(lengths)) == len(lengths)


@pytest.mark.parametrize("n", range(9, 31))
def test_splitting_criterion_past_the_oracle(n):
    # the class equation cannot see a wrong split, since both halves sum to
    # the Sym class, and the orbit oracle stops at n = 8
    for lam in partitions(n):
        if is_even(lam):
            assert (len(class_size(ALT, n, lam)) == 2) == _odd_distinct(lam.part_list()), lam


@pytest.mark.parametrize("m", range(0, 35))
def test_centralizer_factor_is_odd_exactly_when_odd_distinct(m):
    # classes reads the Alt splitting rule off the parity of z, which _core
    # gives with the parity of the type
    for lam in fixed_point_free_partitions(m):
        z = centralizer_order_sym(lam, m)
        assert _core(lam) == (m, z, is_even(lam)), lam
        assert z % 2 == _odd_distinct(lam.part_list()), lam


def test_psi_closed_form_equals_order_quotient_parameterization():
    # |Sym_n| / (|Sym_(t+i)| * |B|) over i >= 0, t+i < n-1, B the Sym_m
    # centralizer of a fixed-point-free element of support m = n-t-i
    for n in range(4, 13):
        for t in range(0, n + 1):
            quotients = set()
            i = 0
            while t + i < n - 1:
                m = n - t - i
                if m >= 2:
                    for lam in fixed_point_free_partitions(m):
                        z = centralizer_order_sym(lam, m)
                        quotients.add(math.factorial(n) // (math.factorial(t + i) * z))
                i += 1
            assert quotients == set(psi_set(SYM, n, t).values), (n, t)


@pytest.mark.parametrize("kind", KINDS)
def test_phi_members_avoid_t_but_carry_other_interval_primes(kind):
    # n = 3 is excluded from the cross-divisibility claim: it is the only
    # degree with 2 in the interval prime set, and there the halved split
    # class of Alt_3 loses exactly that factor of 2
    for n in range(4, 61):
        data = omega_set(n)
        for t in data.omega:
            values = phi_set(kind, n, t).values
            for v in values:
                assert v % t != 0
                for other in data.omega:
                    if other != t:
                        assert v % other == 0
            if kind is SYM:
                assert values  # at least the pure t-cycle class exists


def test_phi_members_avoid_t_at_degree_three():
    for kind in KINDS:
        for t in omega_set(3).omega:
            for v in phi_set(kind, 3, t).values:
                assert v % t != 0


@pytest.mark.parametrize("kind", KINDS)
def test_psi_members_avoid_interval_primes(kind):
    for n in range(3, 61):
        data = omega_set(n)
        for t in data.omega:
            for v in psi_set(kind, n, t).values:
                assert v % t != 0


def test_psi_members_checks_t_at_the_call():
    # like _psi_sizes, partitions and fixed_point_free_partitions, the bad t
    # raises before anything is iterated
    for kind in KINDS:
        for n, t in [(5, 9), (5, -1)]:
            with pytest.raises(DomainError, match="psi needs 0 <= t <= n"):
                psi_members(kind, n, t)


def test_psi_members_annotations_rederive_values():
    for kind in KINDS:
        seen = {}
        for value, lam in psi_members(kind, 12, 5):
            seen.setdefault(value, lam)
        for value, lam in seen.items():
            assert value in class_size(kind, 12, lam)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(min_value=1, max_value=14),
    st.data(),
)
def test_class_size_divides_group_order(kind, n, data):
    lams = [
        lam
        for lam in partitions(n)
        if kind is SYM or n < 2 or is_even(lam)
    ]
    lam = data.draw(st.sampled_from(lams))
    order = group_order(kind, n)
    for size in class_size(kind, n, lam):
        assert order % size == 0


def _core_key(lam):
    # a type's class sizes depend only on its support, centralizer
    # factor, parity and whether its cycles are odd and distinct
    return lam.support, centralizer_order_sym(lam, lam.support), is_even(lam), _odd_distinct(lam.part_list())


@pytest.mark.parametrize("kind", KINDS)
def test_entry_points_agree_with_class_size(kind):
    # psi_members annotates certificate witnesses with cycle types: each
    # core yields its class sizes once, annotated with its first type; the
    # first core with two types is at support 13 (9+2+2 and 6+4+3)
    split_fixed_points = set()
    for n in range(1, 17):
        first_of = {}
        for m in range(2, n + 1):
            for lam in fixed_point_free_partitions(m):
                first_of.setdefault(_core_key(lam), lam)
        yielded: dict[CycleType, list[int]] = {}
        for size, lam in psi_members(kind, n, 0):
            assert size in class_size(kind, n, lam), (n, lam, size)
            assert first_of[_core_key(lam)] == lam, (n, lam)
            yielded.setdefault(lam, []).append(size)
        for m in range(2, n + 1):
            walked = fixed_point_free_partitions(m)
            assert {s for lam, sizes in yielded.items() if lam.support == m for s in sizes} == {
                s for lam in walked if admissible(kind, n, lam) for s in class_size(kind, n, lam)
            }, (n, m)
        for lam in first_of.values():
            expected = class_size(kind, n, lam) if admissible(kind, n, lam) else []
            assert yielded.get(lam, []) == expected, (n, lam)
            if len(expected) == 2:
                split_fixed_points.add(n - lam.support)
        moved = fixed_point_free_partitions(n)
        assert set(moved_class_sizes(kind, n).values) == {
            s for lam in moved if admissible(kind, n, lam) for s in class_size(kind, n, lam)
        }
        assert set(spectrum(kind, n).values) == {
            s for lam in partitions(n) if admissible(kind, n, lam) for s in class_size(kind, n, lam)
        }
    assert split_fixed_points == (set() if kind is SYM else {0, 1})


@pytest.mark.parametrize("kind", KINDS)
def test_layer_sizes_give_one_size_per_class(kind):
    # the layer walk behind the families and the per-core class_size both
    # read _sizes: a layer's sizes, with repeats, are the class_size lists of
    # one first type per core of its support, so a split Alt class counts
    # once per class on both paths
    layers = _core_states(12)
    for n in range(0, 13):
        for c in range(0, n + 1):
            first_of = {}
            for lam in fixed_point_free_partitions(c):
                first_of.setdefault(_core_key(lam), lam)
            expected = [s for lam in first_of.values() if admissible(kind, n, lam) for s in class_size(kind, n, lam)]
            got = _layer_sizes(kind, n, c, math.perm(n, c), [layers[c]])
            assert sorted(got) == sorted(expected), (n, c)


def test_psi_sizes_give_a_split_half_once_per_class():
    # the two 5-cycle classes of Alt_5 have 12 elements each
    assert sorted(_psi_sizes(ALT, 5, 0)) == [12, 12, 15, 20]


@pytest.mark.parametrize("n", range(2, 31))
@pytest.mark.parametrize("kind", KINDS)
def test_psi_members_first_types_match_partition_walk(kind, n):
    # check_case keeps the first type psi_members yields for each size as
    # the witness annotation; it must be the first in support and
    # partition order, as a walk over every type finds it
    for t in range(0, n + 1):
        first: dict[int, CycleType] = {}
        for size, lam in psi_members(kind, n, t):
            first.setdefault(size, lam)
        assert first == psi_first_types(kind, n, t), (n, t)


def test_lagrange_check_names_the_bad_value():
    # order % v is no test for v < 1 (0 would divide by zero, and 24 % -6 is
    # 0), so such values must be refused on their own, and a non-divisor must
    # be found wherever it falls
    with pytest.raises(InvariantError, match=r"^0 is not a class size of sym_4$"):
        Spectrum.build((0, 1, 6), SYM, 4)
    with pytest.raises(InvariantError, match=r"^-6 is not a class size of sym_4$"):
        Spectrum.build((1, -6, 6), SYM, 4)
    sizes = spectrum(SYM, 30).values
    bad = 31 * sizes[-1]  # 31 is a prime past the degree, so it divides no size and not 30!
    with pytest.raises(InvariantError, match=rf"^{bad} is not a class size of sym_30$"):
        Spectrum.build(sizes + (bad,), SYM, 30)
    assert Spectrum.build(sizes, SYM, 30).values == sizes


def test_psi_lagrange_check_runs_against_n_factorial_over_t_factorial(monkeypatch):
    # psi_set checks its sizes against gcd(|V_n|, n!/t!): a value that divides
    # n! but not n!/t! is no psi size, and must be refused by name
    real = classes._psi_sizes

    def injected(extra):
        return lambda kind, n, t: chain(real(kind, n, t), [extra])

    monkeypatch.setattr(classes, "_psi_sizes", injected(math.factorial(10) // math.factorial(5)))
    assert math.factorial(10) % 30240 == 0 and math.perm(10, 4) % 30240
    with pytest.raises(InvariantError, match=r"^30240 is not a class size of sym_10$"):
        psi_set(SYM, 10, 6)
    # for Alt with t <= 1 the gcd is n!/2, which 2^8 does not divide while 10! does
    monkeypatch.setattr(classes, "_psi_sizes", injected(2**8))
    assert math.factorial(10) % 2**8 == 0 and (math.factorial(10) // 2) % 2**8
    for t in (0, 1):
        with pytest.raises(InvariantError, match=r"^256 is not a class size of alt_10$"):
            psi_set(ALT, 10, t)
    # t outside 0..n is still a DomainError, raised before any order is taken
    monkeypatch.undo()
    for t in (-1, 11):
        with pytest.raises(DomainError, match="psi needs 0 <= t <= n"):
            psi_set(SYM, 10, t)


def test_lagrange_check_survives_optimized_mode():
    # python -O strips assert statements; the invariant must still raise
    code = (
        "from class_spectrum import GroupKind, Spectrum\n"
        "from class_spectrum.errors import InvariantError\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    Spectrum.build((4,), GroupKind.SYM, 3)\n"
        "except InvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(class_spectrum.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
