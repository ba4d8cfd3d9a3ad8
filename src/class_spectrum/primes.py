"""Prime sieving and counting, the half-interval prime set, and bound diagnostics.

The sieve is segmented (fixed 2^20-entry windows) and bit-packed, so
limits up to 10^8 stay within ordinary memory: bit k & 7 of byte k >> 3 is
set exactly when k is prime. The primes up to sqrt(limit) that cross off
the windows come from a smaller ``sieve`` of that square root, so there is
one sieve. Each window is crossed off one byte per integer and then packed
8 KiB at a time by C-level bytes and int operations, and ``primes_in``
enumerates set bits a byte at a time from a 256-entry offset table, so
neither does a Python step per integer.

The prime-data functions here and in :mod:`class_spectrum.verify` read one
module-wide table, ``shared_table``, which is built on first use and
rebuilt larger whenever a request reaches past its limit.

Every verification-relevant comparison elsewhere in the package uses
exact integers; the Chebyshev-type constants handled here are
floating-point diagnostics only.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

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
    """Bit-packed exact primality for every integer in [0, limit]."""

    __slots__ = ("limit", "_bits")

    def __init__(self, limit: int, bits: bytearray):
        self.limit = limit
        self._bits = bits

    def is_prime(self, k: int) -> bool:
        if k < 0 or k > self.limit:
            raise DomainError(f"{k} outside sieve range [0, {self.limit}]")
        return bool(self._bits[k >> 3] & (1 << (k & 7)))

    def count(self, x: int) -> int:
        """pi(x): number of primes <= x."""
        if x < 0:
            return 0
        if x > self.limit:
            raise DomainError(f"{x} outside sieve range [0, {self.limit}]")
        full, rem = divmod(x + 1, 8)
        total = int.from_bytes(self._bits[:full], "little").bit_count()
        if rem:
            total += (self._bits[full] & ((1 << rem) - 1)).bit_count()
        return total

    def primes_in(self, lo: int, hi: int) -> list[int]:
        """All primes in [lo, hi], ascending.

        Walks the set bits of the bytes that cover [lo, hi]: each non-zero
        byte j contributes 8j + i for the offsets i of its set bits, and the
        up to 7 entries outside [lo, hi] at either end are then trimmed in
        place.
        """
        lo = max(lo, 2)
        if hi > self.limit:
            raise DomainError(f"{hi} outside sieve range [0, {self.limit}]")
        if lo > hi:
            return []
        first = lo >> 3
        found = [
            (j << 3) + i
            for j, byte in enumerate(self._bits[first : (hi >> 3) + 1], first)
            if byte
            for i in _BIT_OFFSETS[byte]
        ]
        del found[bisect_right(found, hi) :]
        del found[: bisect_left(found, lo)]
        return found

    def prev_prime(self, x: int) -> int | None:
        """Largest prime <= x, or None when x < 2."""
        if x > self.limit:
            raise DomainError(f"{x} outside sieve range [0, {self.limit}]")
        k = x
        while k >= 2:
            if self._bits[k >> 3] & (1 << (k & 7)):
                return k
            k -= 1
        return None

    def degree_primes(self, n: int) -> tuple[int, int | None, int]:
        """(p, r, |Omega(n)|) for degree n >= 2.

        p is the largest prime <= n and |Omega(n)| the number of primes in
        (n/2, n]. r is the largest prime <= n // 2, kept only when
        2r > p + 1, and None otherwise; for prime n, 2r <= n = p, so there
        is no r. So r maximizes 2r under p + 1 < 2r <= n, which minimizes
        the r-trick's residual support n - 2r.
        """
        if n < 2:
            raise DomainError(f"degree_primes() needs n >= 2, got {n}")
        p = self.prev_prime(n)
        r = self.prev_prime(n // 2)
        if r is not None and 2 * r <= p + 1:
            r = None
        return p, r, self.count(n) - self.count(n // 2)


def sieve(limit: int) -> PrimalityTable:
    """Exact primality table for [0, limit], built in 2^20-entry segments.

    The base primes, those up to isqrt(limit), are read from
    ``sieve(isqrt(limit))``; there are none when that root is below 2.
    Each segment is a window of 0/1 flag bytes crossed off by slice
    assignment. It is packed in PACK_SLICE-byte slices: a slice's flags
    become the digits '0'/'1', reversed so that flag i is bit i, and are
    read as one base-2 int whose little-endian bytes are the slice's bits.
    Segment and slice starts are multiples of 8, so each slice fills whole
    bytes of the table from byte (seg_lo + off) >> 3.
    """
    if limit < 0:
        raise DomainError("sieve() needs limit >= 0")
    bits = bytearray(limit // 8 + 1)
    root = math.isqrt(limit)
    base = sieve(root).primes_in(2, root) if root >= 2 else []
    for seg_lo in range(0, limit + 1, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE - 1, limit)
        window = bytearray([1]) * (seg_hi - seg_lo + 1)
        if seg_lo == 0:
            window[0 : min(2, len(window))] = b"\x00\x00"[: min(2, len(window))]
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


@dataclass(frozen=True)
class OmegaData:
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


@dataclass(frozen=True)
class BoundReport:
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
    lower, upper, lower_holds, upper_holds, gap_holds = _envelope(x, pi_exact, p)
    return BoundReport(
        x=x,
        pi_exact=pi_exact,
        lower=lower,
        upper=upper,
        lower_holds=lower_holds,
        upper_holds=upper_holds,
        p=p,
        gap=x - p,
        gap_bound_holds=gap_holds,
    )


def _envelope(x: int, pi: int, p: int) -> tuple[float, float, bool, bool, bool]:
    """(lower, upper, lower holds, upper holds, gap bound holds) at x.

    pi is pi(x) and p the largest prime <= x. The sides are evaluated as
    c * x / log(x), left to right, and the flags are the ``BoundReport``
    tests, so ``bound_report`` and ``chebyshev_sweep`` flag the same x.
    """
    log_x = math.log(x)
    lower = CHEBYSHEV_LOWER * x / log_x
    upper = CHEBYSHEV_UPPER * x / log_x
    return (
        lower,
        upper,
        pi > lower - REL_MARGIN * lower,
        pi < upper + REL_MARGIN * upper,
        (x - p) ** GAP_EXPONENT_DEN < x**GAP_EXPONENT_NUM,
    )


@dataclass(frozen=True)
class SweepResult:
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
    p = table.prev_prime(lo) or 0
    for x in range(lo + 1, hi + 1):
        if table.is_prime(x):
            pi += 1
            p = x
        _, _, lower_holds, upper_holds, gap_holds = _envelope(x, pi, p)
        if not lower_holds:
            lower_bad.append(x)
        if not upper_holds:
            upper_bad.append(x)
        if not gap_holds:
            gap_bad.append(x)
    return SweepResult(
        lo=lo,
        hi=hi,
        checked=hi - lo,
        lower_violations=tuple(lower_bad),
        upper_violations=tuple(upper_bad),
        gap_violations=tuple(gap_bad),
    )
