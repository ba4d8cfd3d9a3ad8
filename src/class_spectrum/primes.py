"""Prime sieving and counting, the half-interval prime set, and bound diagnostics.

The sieve is segmented (fixed 2^20-entry windows) and bit-packed, so
limits up to 10^8 stay within ordinary memory: bit k & 7 of byte k >> 3 is
set exactly when k is prime. The primes up to sqrt(limit) that cross off
the windows come from a smaller ``sieve`` of that square root, so there is
one sieve. Each window is crossed off one byte per integer and then packed
8 KiB at a time by C-level bytes and int operations, so no Python step
is taken per integer. ``is_prime`` reads a bit; ``count``, ``prev_prime``,
``primes_in`` and ``degree_primes`` bisect one prime index, an array of
every prime <= limit, built on the first of them from the set bits of
each non-zero byte, read from a 256-entry offset table.

``chebyshev_sweep`` walks prime gaps: it reads the primes of its interval
once, and pi(x) and the largest prime <= x stay fixed across each gap.
It and ``bound_report`` evaluate the envelope in ``_envelope`` and the gap
bound in ``_gap_holds``, so both flag the same x.

The prime-data functions here and in :mod:`class_spectrum.verify` read one
module-wide table, ``shared_table``, which is built on first use and
rebuilt larger whenever a request reaches past its limit.

Every verification-relevant comparison elsewhere in the package uses
exact integers; the Chebyshev-type constants handled here are
floating-point diagnostics only.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from typing import NamedTuple

from .errors import DomainError, InvariantError

SEGMENT_SIZE = 1 << 20
# a segment's 0/1 flag bytes are packed into bits this many at a time
PACK_SLICE = 1 << 13
_FLAG_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# _BIT_OFFSETS[b]: the positions 0..7 of the set bits of byte b, ascending
_BIT_OFFSETS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))

# diagnostic constants: claimed pi(x) envelope 0.921 x/ln x < pi(x) < 1.106 x/ln x
CHEBYSHEV_LOWER = 0.921
CHEBYSHEV_UPPER = 1.106
# prime gap exponent 0.525 = 21/40, which makes the gap test exact in integers
GAP_EXPONENT_NUM = 21
GAP_EXPONENT_DEN = 40
REL_MARGIN = 1e-9


class PrimalityTable:
    """Bit-packed exact primality for every integer in [0, limit].

    ``is_prime`` reads the bits; every other query reads ``_primes``, the
    prime index: an array of every prime <= limit, ascending, at 4 bytes
    per prime below 2^32 (314 KB at 10^6 and about 23 MB at 10^8, beside a
    bit table of 125 KB and 12.5 MB). ``_index`` builds it on the first
    such query, so that query pays for a walk of the whole table. The bits
    never change after construction, so neither does the index; a larger
    table is a new table with its own.
    """

    __slots__ = ("limit", "_bits", "_primes")

    def __init__(self, limit: int, bits: bytearray):
        self.limit = limit
        self._bits = bits
        self._primes: array | None = None

    def _index(self, x: int) -> array:
        """The prime index, for a query that reads the table up to x.

        The first call builds it from the set bits of each non-zero byte j,
        which contribute 8j + i for the offsets i of those bits. An x past
        the limit raises DomainError naming x.
        """
        if x > self.limit:
            raise DomainError(f"{x} outside sieve range [0, {self.limit}]")
        if self._primes is None:
            found = ((j << 3) + i for j, byte in enumerate(self._bits) if byte for i in _BIT_OFFSETS[byte])
            self._primes = array("I" if self.limit < 1 << 32 else "Q", found)
        return self._primes

    def is_prime(self, k: int) -> bool:
        if k < 0 or k > self.limit:
            raise DomainError(f"{k} outside sieve range [0, {self.limit}]")
        return bool(self._bits[k >> 3] & (1 << (k & 7)))

    def count(self, x: int) -> int:
        """pi(x): number of primes <= x, one bisect of the prime index; 0 for x < 0."""
        return bisect_right(self._index(x), x)

    def primes_in(self, lo: int, hi: int) -> list[int]:
        """All primes in [lo, hi], ascending: the prime index sliced between two bisects.

        The slice is a fresh list, so a caller may extend it.
        """
        primes = self._index(hi)
        return primes[bisect_left(primes, lo) : bisect_right(primes, hi)].tolist()

    def prev_prime(self, x: int) -> int | None:
        """Largest prime <= x, or None when x < 2."""
        primes = self._index(x)
        k = bisect_right(primes, x)
        return primes[k - 1] if k else None

    def degree_primes(self, n: int) -> tuple[int, int | None, int]:
        """(p, r, |Omega(n)|) for degree n >= 2, from two bisects of the prime index.

        The first k primes are those <= n and the first h those <= n // 2.
        p is the largest prime <= n and |Omega(n)| = k - h the number of
        primes in (n/2, n]. r is the largest prime <= n // 2, kept only
        when 2r > p + 1, and None otherwise; for prime n, 2r <= n = p, so
        there is no r. So r maximizes 2r under p + 1 < 2r <= n, which
        minimizes the r-trick's residual support n - 2r.
        """
        if n < 2:
            raise DomainError(f"degree_primes() needs n >= 2, got {n}")
        primes = self._index(n)
        k = bisect_right(primes, n)
        h = bisect_right(primes, n // 2)
        p = primes[k - 1]
        r = primes[h - 1] if h and 2 * primes[h - 1] > p + 1 else None
        return p, r, k - h


def sieve(limit: int) -> PrimalityTable:
    """Exact primality table for [0, limit], built in 2^20-entry segments.

    The base primes, those up to isqrt(limit), are read from
    ``sieve(isqrt(limit))``; there are none when that root is below 2.
    Each segment is a window of 0/1 flag bytes crossed off by slice
    assignment. It is packed in PACK_SLICE-byte slices: a slice's flags
    become the digits '0'/'1', reversed so that flag i is bit i, and are
    read as one base-2 int whose little-endian bytes are the slice's bits.
    Segment and slice starts are multiples of 8, so each slice fills whole
    bytes of the table from byte (seg_lo + off) >> 3. A limit below 0, or
    one whose table could not be indexed, raises DomainError naming it.
    """
    # from 8 * sys.maxsize up, the table's limit // 8 + 1 bytes pass sys.maxsize,
    # where bytearray raises OverflowError, an error that names no argument
    if not 0 <= limit // 8 < sys.maxsize:
        raise DomainError(f"sieve() needs 0 <= limit < {8 * sys.maxsize}, got {limit}")
    bits = bytearray(limit // 8 + 1)
    root = math.isqrt(limit)
    base = sieve(root).primes_in(2, root) if root >= 2 else []
    for seg_lo in range(0, limit + 1, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE - 1, limit)
        window = bytearray([1]) * (seg_hi - seg_lo + 1)
        for p in base:
            start = max(p * p, ((seg_lo + p - 1) // p) * p)
            if start > seg_hi:
                continue
            window[start - seg_lo :: p] = b"\x00" * ((seg_hi - start) // p + 1)
        for off in range(0, len(window), PACK_SLICE):
            chunk = window[off : off + PACK_SLICE]
            packed = int(chunk.translate(_FLAG_DIGITS)[::-1], 2).to_bytes((len(chunk) + 7) >> 3, "little")
            at = (seg_lo + off) >> 3
            bits[at : at + len(packed)] = packed
    bits[0] &= 0b11111100  # 0 and 1 are not prime
    return PrimalityTable(limit, bits)


_shared: PrimalityTable | None = None


def shared_table(limit: int) -> PrimalityTable:
    """Module-wide table covering at least [0, limit]; grown on demand.

    Built once per process and reused; a forked worker inherits whatever
    table its parent had built and grows its own copy from there.
    The first build covers at least 2^16; a request past the table grows it
    to at least twice its old limit, so a loop over rising degrees re-sieves
    logarithmically often rather than once per degree.
    """
    global _shared
    if _shared is None or _shared.limit < limit:
        floor = 1 << 16 if _shared is None else 2 * _shared.limit
        _shared = sieve(max(limit, floor))
    return _shared


class OmegaData(NamedTuple):
    """Primes t with n/2 < t <= n, and p = max of that set."""

    n: int
    omega: tuple[int, ...]
    p: int
    count: int


def omega_set(n: int) -> OmegaData:
    """The half-interval prime set for degree n (n >= 3).

    The lower bound is strict: for even n the prime n/2 is excluded; t = n
    is included whenever n is prime.
    """
    if n < 3:
        raise DomainError("omega_set() needs n >= 3")
    primes = tuple(shared_table(n).primes_in(n // 2 + 1, n))
    if not primes:
        raise DomainError(f"no prime in ({n}/2, {n}]; sieve inconsistent")
    return OmegaData(n=n, omega=primes, p=primes[-1], count=len(primes))


def factorial_ratio(n: int, p: int) -> int:
    """n!/p! as the exact product (p+1) * (p+2) * ... * n; 1 when p = n."""
    if p > n:
        raise DomainError(f"factorial_ratio needs p <= n, got p={p}, n={n}")
    if p < 0 or n < 0:
        raise DomainError("factorial_ratio needs naturals")
    return math.prod(range(p + 1, n + 1))


class BoundReport(NamedTuple):
    """Diagnostic comparison of exact pi(x) against the claimed envelope.

    The envelope sides are floats (1 ulp caveat); the hold flags use a
    relative safety margin of 1e-9, so a violation is only reported when
    it clearly exceeds rounding noise. The gap flag tests
    x - prev_prime(x) < x^0.525 exactly, via 40th and 21st powers.
    """

    x: int
    pi_exact: int
    lower: float
    upper: float
    lower_holds: bool
    upper_holds: bool
    p: int
    gap: int
    gap_bound_holds: bool


def bound_report(x: int) -> BoundReport:
    """Evaluate the pi(x) envelope and the prime-gap bound at x (x > 10)."""
    if x <= 10:
        raise DomainError("bound_report() needs x > 10")
    table = shared_table(x)
    pi_exact = table.count(x)
    p = table.prev_prime(x)
    if p is None:
        raise InvariantError(f"no prime <= {x}")
    lower, upper, lower_holds, upper_holds = _envelope(x, pi_exact)
    return BoundReport(
        x=x,
        pi_exact=pi_exact,
        lower=lower,
        upper=upper,
        lower_holds=lower_holds,
        upper_holds=upper_holds,
        p=p,
        gap=x - p,
        gap_bound_holds=_gap_holds(x, p),
    )


def _envelope(x: int, pi: int) -> tuple[float, float, bool, bool]:
    """(lower, upper, lower holds, upper holds) at x, where pi is pi(x).

    The sides are evaluated as c * x / log(x), left to right, and the
    flags are the ``BoundReport`` tests, so ``bound_report`` and
    ``chebyshev_sweep`` flag the same x.
    """
    log_x = math.log(x)
    lower = CHEBYSHEV_LOWER * x / log_x
    upper = CHEBYSHEV_UPPER * x / log_x
    return lower, upper, pi > lower - REL_MARGIN * lower, pi < upper + REL_MARGIN * upper


def _gap_holds(x: int, p: int) -> bool:
    """x - p < x^0.525 exactly, as (x - p)^40 < x^21; p is the largest prime <= x."""
    return (x - p) ** GAP_EXPONENT_DEN < x**GAP_EXPONENT_NUM


class SweepResult(NamedTuple):
    """Outcome of evaluating the envelope on every x in (lo, hi]."""

    lo: int
    hi: int
    checked: int
    lower_violations: tuple[int, ...]
    upper_violations: tuple[int, ...]
    gap_violations: tuple[int, ...]


def chebyshev_sweep(lo: int = 10, hi: int = 100_000) -> SweepResult:
    """Evaluate the envelope and gap bound for every integer x in (lo, hi].

    hi == lo is the empty interval; hi < lo raises DomainError.

    The sweep walks prime gaps: the primes of (lo, hi] are read once, and
    across each gap [p, q - 1] pi(x) and the largest prime p <= x stay
    fixed. The envelope is evaluated at every x. The gap bound
    (x - p)^40 < x^21 fails on a suffix of each gap, because
    40 ln(x - p) - 21 ln(x) grows with x (its slope 40/(x - p) - 21/x is
    positive), so it is tested from the gap's last x downwards and stops
    at the first x where it holds.
    """
    if lo < 10:
        raise DomainError("sweep domain starts above 10")
    if hi < lo:
        raise DomainError("chebyshev_sweep() needs hi >= lo")
    table = shared_table(hi)
    lower_bad: list[int] = []
    upper_bad: list[int] = []
    gap_bad: list[int] = []
    pi = table.count(lo)
    p = table.prev_prime(lo)
    start = lo + 1
    # each q ends the gap [start, q - 1]; hi + 1 closes the last one at hi
    for q in table.primes_in(start, hi) + [hi + 1]:
        for x in range(start, q):
            _, _, lower_holds, upper_holds = _envelope(x, pi)
            if not lower_holds:
                lower_bad.append(x)
            if not upper_holds:
                upper_bad.append(x)
        failing = q
        while failing > start and not _gap_holds(failing - 1, p):
            failing -= 1
        gap_bad.extend(range(failing, q))
        pi += 1
        p = q
        start = q
    return SweepResult(
        lo=lo,
        hi=hi,
        checked=hi - lo,
        lower_violations=tuple(lower_bad),
        upper_violations=tuple(upper_bad),
        gap_violations=tuple(gap_bad),
    )
