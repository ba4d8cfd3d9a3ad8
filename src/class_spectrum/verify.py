"""Verification pipeline: prime-count versus chain-height certificates.

Three exact computations are orchestrated here:

* the threshold inequality 2^|Omega| > n!/p! checked in big integers,
* the table of summed chain heights of fixed-point-free class-size sets,
* a per-degree case check that builds the small-support class-size family
  for the best available strategy and certifies |Omega| > h.

Every verdict comes from integer arithmetic; nothing depends on the
floating-point diagnostics in :mod:`class_spectrum.primes`.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from collections import Counter
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Sequence

from .classes import GroupKind, _core_layers, _psi_sizes, moved_class_sizes, psi_members
from .divgraph import EDGES, VERTICES, longest_chain
from .errors import DomainError, InvariantError
from .partitions import CycleType
from .primes import PrimalityTable, factorial_ratio, shared_table

PASS = "PASS"
FAIL = "FAIL"
INDETERMINATE = "INDETERMINATE"

STRATEGY_DIRECT = "direct-psi-p"
STRATEGY_R_TRICK = "r-trick"

# check_case builds no family whose residual support n - t* exceeds this
SUPPORT_CAP = 60

# jsonable writes a list of ints through their gcd when it has at least this many bits
SHARED_FACTOR_BITS = 2048

# Reference upper bounds on the summed chain heights, by residual support
# m = n - t. Kept for cross-checking the computed table; no verdict uses them.
REFERENCE_CHAIN_BOUNDS = {
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


def _shared_factor(values: Sequence) -> int:
    """The gcd of a list of two or more ints when it has at least SHARED_FACTOR_BITS bits, else 0.

    The running gcd stops at the first member that is not an int and as
    soon as it falls below the threshold, so a list of small ints, or one
    that starts with a small int, costs O(1).
    """
    if len(values) < 2:
        return 0
    g = 0
    for v in values:
        if type(v) is not int:
            return 0
        g = math.gcd(g, v)
        if g.bit_length() < SHARED_FACTOR_BITS:
            return 0
    return g


def _through_factor(values: Sequence[int], g: int) -> list[str]:
    """Decimal strings of values that are all multiples of g, converting g only once.

    Converting an int to decimal is quadratic in its digit count, in
    str(int) and decimal alike, so each value v is written as the exact
    decimal product g * (v // g): the big conversion, of g, happens once per
    list, and only the small quotients are converted per value. The context
    holds any integer exactly and traps Inexact, so a rounded product would
    raise instead of printing a wrong number. Unlike str(int), decimal is
    not bound by Python's int/str digit limit, which ``cli.main`` lifts in
    any case.
    """
    import decimal  # here, not at module level: the import costs every command's set-up about 2.5 ms

    exact = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[decimal.Inexact]
    )
    shared = decimal.Decimal(g)
    return [str(exact.multiply(shared, v // g)) for v in values]


# the types jsonable returns unchanged; a record's fields of these types are written inline
_SCALARS = frozenset({type(None), bool, int, float, str})


def jsonable(obj):
    """The JSON form of a result: every integer inside a list is a decimal string.

    Types are tested in the order records nest; scalars, tuples, lists and
    CycleType by exact type. Scalars (None, bool, int, float, str) stay as
    they are, so scalar fields remain JSON numbers. A plain tuple or list
    becomes a list whose int elements are decimal strings, since those hold
    the big integers (class sizes, witness chains, prime sets). A list of
    ints that share a factor of at least SHARED_FACTOR_BITS bits, such as a
    phi family, where every size is n!/((n-t)! t) times a class size of
    Sym_{n-t}, is written through that factor (``_through_factor``), with
    the same strings as str(). A CycleType becomes its part list of ints
    and an Enum its value. A dict keeps its keys, except that a tuple key
    is joined with "/", and a record (a named tuple) becomes a dict over
    its fields. Anything else, a subclass of a scalar, tuple or list
    included, raises TypeError.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    if cls is tuple or cls is list:
        g = _shared_factor(obj)
        if g:
            return _through_factor(obj, g)
        return [str(v) if type(v) is int else jsonable(v) for v in obj]
    if cls is CycleType:
        return list(obj.part_list())
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {"/".join(map(str, k)) if isinstance(k, tuple) else k: jsonable(v) for k, v in obj.items()}
    names = getattr(cls, "_fields", None)
    if names is not None:
        return {name: v if type(v) in _SCALARS else jsonable(v) for name, v in zip(names, obj)}
    raise TypeError(f"cannot serialize {cls.__name__}")


class ChainBoundViolation(InvariantError):
    """The directly computed chain height exceeded the summed per-support bound.

    That inequality is a theorem about the construction, so tripping it
    means the implementation is wrong; the run must stop rather than emit
    certificates.
    """


class OmegaCheck(NamedTuple):
    """Exact comparison 2^|Omega(n)| vs n!/p!, reported through bit lengths."""

    n: int
    p: int
    omega_count: int
    ratio_bits: int
    pow2_bits: int
    holds: bool


def check_omega_lemma(n: int, table: PrimalityTable | None = None) -> OmegaCheck:
    """Check 2^|Omega| > n!/p! for degree n, in exact integers.

    For prime n the ratio is the empty product 1 and the check holds
    trivially.
    """
    if n < 3:
        raise DomainError("check_omega_lemma() needs n >= 3")
    if table is None or table.limit < n:
        table = shared_table(n)
    p, _, count = table.degree_primes(n)
    ratio = factorial_ratio(n, p)
    return OmegaCheck(
        n=n,
        p=p,
        omega_count=count,
        ratio_bits=ratio.bit_length(),
        pow2_bits=count + 1,
        holds=(1 << count) > ratio,
    )


class OmegaSweep(NamedTuple):
    start: int
    stop: int
    checked: int
    failures: tuple[OmegaCheck, ...]


def omega_sweep(start: int, stop: int, table: PrimalityTable | None = None) -> OmegaSweep:
    """Run check_omega_lemma for every n in [start, stop]; collect failures.

    Degrees are walked one prime gap at a time. Across a gap [p, q - 1]
    between consecutive primes, n!/p! does not decrease and
    |Omega(n)| = pi(p) - pi(n // 2) does not increase, so the failing
    degrees of a gap form a suffix of it. Only the gap's last degree n in
    range is tested, exactly: (n - p) * bitlen(n) <= |Omega(n)| bounds
    n!/p! below 2^|Omega(n)| without building the product; otherwise the
    product is built and must have at most |Omega(n)| bits. When n fails,
    check_omega_lemma re-checks the gap from n downwards until a degree
    holds, and builds each failing record. pi(n // 2) is a pointer that
    only moves forward. ``checked`` counts every degree in [start, stop],
    as if each were tested on its own.
    """
    if start < 3 or stop < start:
        raise DomainError("omega_sweep() needs 3 <= start <= stop")
    if table is None or table.limit < stop:
        table = shared_table(stop)
    primes = table.primes_in(2, stop)
    primes.append(stop + 1)  # closes the last gap at stop
    failures: list[OmegaCheck] = []
    half = 0  # pi(n // 2) for the gap's last degree n, as an index into primes
    for k in range(bisect_right(primes, start) - 1, len(primes) - 1):
        p = primes[k]
        n = primes[k + 1] - 1
        while primes[half] <= n >> 1:
            half += 1
        count = k + 1 - half
        if (n - p) * n.bit_length() <= count or factorial_ratio(n, p).bit_length() <= count:
            continue
        gap_failures = []
        for m in range(n, max(p, start) - 1, -1):
            check = check_omega_lemma(m, table)
            if check.holds:
                break
            gap_failures.append(check)
        failures.extend(reversed(gap_failures))
    return OmegaSweep(start=start, stop=stop, checked=stop - start + 1, failures=tuple(failures))


@lru_cache(maxsize=None)
def _moved_heights(kind: GroupKind, i: int) -> int:
    """Vertex height of the fixed-point-free class sizes of V_i.

    The sizes all divide |V_i|, which has a few bits more than the largest
    of them, so ``longest_chain`` runs on cofactors of their lcm, small
    numbers like the centralizer orders.
    """
    return longest_chain(moved_class_sizes(kind, i).values)[0]


class HzTableRow(NamedTuple):
    """Summed chain heights for residual support m, all kind/convention combos."""

    m: int
    reference_bound: int | None
    computed: dict[tuple[GroupKind, str], int]


def _check_kinds(caller: str, kinds: Sequence[GroupKind]) -> None:
    """DomainError naming ``caller`` when ``kinds`` is empty or repeats a kind."""
    if not kinds or len(set(kinds)) < len(kinds):
        raise DomainError(f"{caller}() needs one or more distinct kinds, got ({', '.join(map(str, kinds))})")


def hz_table(max_m: int, kinds: Sequence[GroupKind] = (GroupKind.SYM, GroupKind.ALT)) -> list[HzTableRow]:
    """Rows m = 2..max_m of sum_{i<=m} h(moved class sizes of V_i).

    Both counting conventions are reported, the edge column from the same
    per-support vertex heights; reference bounds are attached where known
    so mismatching combinations can be listed. It raises DomainError for
    max_m below 2 and for empty or repeated kinds.
    """
    if max_m < 2:
        raise DomainError("hz_table() needs max_m >= 2")
    _check_kinds("hz_table", kinds)
    _core_layers(max_m)  # the core-state layers, built once to the largest support any row reads
    rows = []
    for m in range(2, max_m + 1):
        computed: dict[tuple[GroupKind, str], int] = {}
        for kind in kinds:
            heights = [_moved_heights(kind, i) for i in range(1, m + 1)]
            computed[(kind, VERTICES)] = sum(heights)
            computed[(kind, EDGES)] = sum(max(h - 1, 0) for h in heights)
        rows.append(HzTableRow(m=m, reference_bound=REFERENCE_CHAIN_BOUNDS.get(m), computed=computed))
    return rows


class Certificate(NamedTuple):
    """Machine-checkable record of one degree's verification outcome."""

    n: int
    kind: GroupKind
    strategy: str
    r: int | None
    t_star: int
    support_m: int
    omega_count: int
    h_value: int
    h_value_edges: int
    h_sum_bound: int
    verdict: str
    witness_chain: tuple[int, ...]
    witness_cycle_types: tuple[CycleType, ...]
    elapsed: float
    reason: str | None = None


def _witness_types(kind: GroupKind, n: int, t_star: int, witness: tuple[int, ...]) -> tuple[CycleType, ...]:
    """The cycle type a certificate records beside each witness value.

    Each value gets the first type ``psi_members(kind, n, t_star)`` yields
    with it, as a value -> type dict filled by setdefault over the whole
    family would give it. The walk stops once every value has its type, so
    it reaches no support past the last witness type's.
    """
    first: dict[int, CycleType] = {}
    if witness:
        wanted = set(witness)
        for value, ct in psi_members(kind, n, t_star):
            if value in wanted and value not in first:
                first[value] = ct
                if len(first) == len(wanted):
                    break
    return tuple(first[v] for v in witness)


def _candidates(n: int) -> tuple[int, int, list[tuple[str, int | None, int]], list[str]]:
    """The plan for degree n: p, |Omega(n)|, the (strategy, r, t*) to build and the skip reasons.

    p, r and |Omega(n)| come from one ``degree_primes(n)`` query on the
    shared table. The direct strategy takes t* = p; when there is an r,
    t* = 2r is also a candidate. A candidate whose residual support
    n - t* exceeds SUPPORT_CAP is not built, and the skip reasons name the
    direct strategy first. Since 2r > p + 1, the r-trick's residual
    support n - 2r is the smaller one, and its family psi(2r) is a subset
    of psi(p), so its height is at most the direct one's: the built
    candidates come r-trick first, so that the direct DP can stop once it
    is taller than the r-trick's.
    """
    p, r, omega_count = shared_table(n).degree_primes(n)
    candidates = [(STRATEGY_DIRECT, None, p)] + ([] if r is None else [(STRATEGY_R_TRICK, r, 2 * r)])
    built, skipped = [], []
    for strategy, r_value, t_star in candidates:
        if n - t_star > SUPPORT_CAP:
            skipped.append(f"{strategy}: residual support {n - t_star} exceeds cap {SUPPORT_CAP}")
        else:
            built.append((strategy, r_value, t_star))
    return p, omega_count, built[::-1], skipped


def check_case(n: int, kind: GroupKind) -> Certificate:
    """Certify |Omega(n)| > h for the best strategy available at degree n.

    The candidates come from ``_candidates``, in the order they are built.
    Each reads the sizes of the small-support class-size family from the
    cached core states of ``classes._core_layers``, with no cycle types
    and no Lagrange pass, measures its chain height under both
    conventions, and records the summed per-support bound. An element of
    Sym_n moving j <= m = n - t* points has class size n!/((n - j)! z), and
    in Alt_n that size or half of it, so every size divides n!/(n - m)!,
    which has a few bits more than the largest size: ``longest_chain`` runs
    on cofactors of the family's lcm. The first candidate's DP runs whole;
    a later one runs with the kept height as its ``limit``, so it stops as
    soon as it is taller, with that height plus one as a lower bound and no
    witness, and it is kept when its height is at most the kept one, so a
    tie keeps the direct strategy. Every built candidate's height, a
    stopped DP's lower bound included, must stay within its summed bound,
    or ChainBoundViolation is raised. Only the kept candidate's witness
    values get cycle types (``_witness_types``). When no candidate is
    built, as first at n = 520523, the certificate is INDETERMINATE:
    direct strategy, t* = p, height 0, an empty witness, and the skip
    reasons as its reason.
    """
    if n < 23:
        raise DomainError("check_case() covers degrees n >= 23")
    started = time.perf_counter()
    p, omega_count, built, skipped = _candidates(n)

    # (h_value, strategy, r, t*, h_sum, witness) of the kept candidate
    best = (0, STRATEGY_DIRECT, None, p, 0, ())
    for i, (strategy, r_value, t_star) in enumerate(built):
        limit = best[0] if i else None
        h_value, witness = longest_chain(_psi_sizes(kind, n, t_star), limit=limit)
        h_sum = sum(_moved_heights(kind, j) for j in range(1, n - t_star + 1))
        if h_value > h_sum:
            at_least = "at least " if limit is not None and h_value > limit else ""
            raise ChainBoundViolation(
                f"n={n} kind={kind} {strategy}: direct height {at_least}{h_value} exceeds "
                f"summed bound {h_sum}; the chain decomposition argument is violated"
            )
        if limit is None or h_value <= limit:
            best = (h_value, strategy, r_value, t_star, h_sum, witness)

    h_value, strategy, r_value, t_star, h_sum, witness = best
    verdict = (PASS if omega_count > h_value else FAIL) if built else INDETERMINATE
    return Certificate(
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
        witness_cycle_types=_witness_types(kind, n, t_star, witness),
        elapsed=time.perf_counter() - started,
        reason=None if built else "; ".join(skipped),
    )


# The certificate fields a scan summary lists for each non-PASS certificate.
PROBLEM_FIELDS = ("n", "kind", "verdict", "strategy", "h_value", "omega_count", "witness_chain", "reason")


class ScanReport(NamedTuple):
    """All certificates for a degree range, plus order-insensitive counts."""

    start: int
    stop: int
    kinds: tuple[GroupKind, ...]
    certificates: list[Certificate]

    @property
    def counts(self) -> dict[str, int]:
        counter = Counter(cert.verdict for cert in self.certificates)
        return {verdict: counter.get(verdict, 0) for verdict in (PASS, FAIL, INDETERMINATE)}

    @property
    def all_passed(self) -> bool:
        return all(cert.verdict == PASS for cert in self.certificates)

    def summary_dict(self) -> dict:
        """Scheduling-independent summary: no elapsed fields anywhere."""
        problems = [jsonable(cert) for cert in self.certificates if cert.verdict != PASS]
        return {
            "from": self.start,
            "to": self.stop,
            "kinds": [k.value for k in self.kinds],
            "support_cap": SUPPORT_CAP,
            "total": len(self.certificates),
            "verdicts": self.counts,
            "problems": [{key: problem[key] for key in PROBLEM_FIELDS} for problem in problems],
        }


CSV_FIELDS = (
    "n",
    "kind",
    "strategy",
    "r",
    "t_star",
    "support_m",
    "omega_count",
    "h_value",
    "h_value_edges",
    "h_sum_bound",
    "verdict",
    "witness_chain",
    "reason",
    "elapsed",
)


def certificate_csv_row(record: dict) -> list[str]:
    """The CSV row of a certificate's JSON record; the witness chain is joined with "|"."""
    cells = record | {"witness_chain": "|".join(record["witness_chain"])}
    return ["" if cells[k] is None else str(cells[k]) for k in CSV_FIELDS]


def scan_range(
    start: int,
    stop: int,
    kinds: Sequence[GroupKind] = (GroupKind.SYM, GroupKind.ALT),
    jobs: int = 1,
) -> ScanReport:
    """Run check_case over [start, stop] x kinds, optionally in parallel.

    Before any fork, the caller sieves the shared primality table to
    ``stop`` and reads the ``_candidates`` plan of every degree in the
    range, whose first ``degree_primes`` query builds the table's prime
    index. From those plans, which ``check_case`` follows too, it builds
    the core-state layers of ``classes._core_layers`` once, to the largest
    residual support n - t* of any candidate built in the range, so every
    process reads the same table, index and layers. Each process grows the
    per-support chain heights lazily, as its own check_case calls first
    need them; it walks partitions (``classes._fpf_cores``) only up to the
    support of the last witness type it annotates. The pool never holds
    more workers than there are tasks or CPUs this process may run on, and
    a scan that would get one worker runs serially, without importing the
    pool. The pool maps check_case over the tasks in scan order, in chunks
    of its own choosing. Certificates are sorted by (n, kind); the aggregate
    does not depend on scheduling. It raises DomainError for jobs below 1
    and for empty or repeated kinds.
    """
    if not 23 <= start <= stop:
        raise DomainError("scan_range() needs 23 <= start <= stop")
    if jobs < 1:
        raise DomainError(f"scan_range() needs jobs >= 1, got {jobs}")
    kinds = tuple(kinds)
    _check_kinds("scan_range", kinds)
    shared_table(stop)  # sieved once here, so each plan below reads the same table
    supports = [n - t_star for n in range(start, stop + 1) for _, _, t_star in _candidates(n)[2]]
    if supports:
        _core_layers(max(supports))
    tasks = [(n, kind) for n in range(start, stop + 1) for kind in kinds]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without affinity masks, such as macOS and Windows
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(tasks), cpus)
    if workers <= 1:
        certificates = [check_case(n, kind) for n, kind in tasks]
    else:
        # here, not at module level: only a forking scan pays for importing the pool
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-forking platforms
            context = multiprocessing.get_context()
        with context.Pool(workers) as pool:
            certificates = pool.starmap(check_case, tasks)
    certificates.sort(key=lambda cert: (cert.n, cert.kind.value))
    return ScanReport(start=start, stop=stop, kinds=kinds, certificates=certificates)
