"""Independent oracles used by the tests.

Nothing here reuses the package's formulas: partition numbers come from
the pentagonal-number recurrence, primality from an unsegmented sieve with
one byte per integer, conjugacy data from explicit orbits of
permutation tuples, centralizer orders from the cycle type's
multiplicities, chain heights from subset enumeration, chain witnesses
(tie-breaks included) from the quadratic longest-path DP, and the
Chebyshev sweep from one step per integer. The one exception is the
partition walk, which checks the class-size state DP behind
``spectrum``, ``phi_set`` and ``psi_members`` against one public
``class_size`` call per partition.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations as iterperms

from class_spectrum import (
    CycleType,
    GroupKind,
    SweepResult,
    class_size,
    fixed_point_free_partitions,
    is_even,
    partitions,
)
from class_spectrum.primes import (
    CHEBYSHEV_LOWER,
    CHEBYSHEV_UPPER,
    GAP_EXPONENT_DEN,
    GAP_EXPONENT_NUM,
    REL_MARGIN,
)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) via Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def bytewise_primes(limit: int) -> bytearray:
    """flags[k] == 1 exactly when k is prime, for k in [0, limit].

    One byte per integer, crossed off in a single window: no segments
    and no bit packing.
    """
    flags = bytearray(limit + 1)
    for k in range(2, limit + 1):
        flags[k] = 1
    for d in range(2, limit + 1):
        if d * d > limit:
            break
        if flags[d]:
            for multiple in range(d * d, limit + 1, d):
                flags[multiple] = 0
    return flags


def chebyshev_by_integers(lo: int, hi: int) -> SweepResult:
    """``chebyshev_sweep(lo, hi)`` by one step per integer x in (lo, hi].

    Primality comes from ``bytewise_primes``; pi(x) and the largest prime
    p <= x are updated at every x, and all three flags are evaluated at
    every x, the gap flag as (x - p)^40 < x^21.
    """
    flags = bytewise_primes(hi)
    pi = sum(flags[: lo + 1])
    p = max(k for k in range(lo + 1) if flags[k])
    lower_bad, upper_bad, gap_bad = [], [], []
    for x in range(lo + 1, hi + 1):
        if flags[x]:
            pi += 1
            p = x
        log_x = math.log(x)
        lower = CHEBYSHEV_LOWER * x / log_x
        upper = CHEBYSHEV_UPPER * x / log_x
        if not pi > lower - REL_MARGIN * lower:
            lower_bad.append(x)
        if not pi < upper + REL_MARGIN * upper:
            upper_bad.append(x)
        if not (x - p) ** GAP_EXPONENT_DEN < x**GAP_EXPONENT_NUM:
            gap_bad.append(x)
    return SweepResult(
        lo=lo,
        hi=hi,
        checked=hi - lo,
        lower_violations=tuple(lower_bad),
        upper_violations=tuple(upper_bad),
        gap_violations=tuple(gap_bad),
    )


def centralizer_order_sym(ct: CycleType, n: int) -> int:
    """Order of the Sym_n centralizer of an element of cycle type ct padded to degree n.

    The product of k^m * m! over the lengths k >= 2 that occur m times,
    times (n - moved)! for the fixed points, where moved counts the points
    in cycles of length >= 2; explicit 1-cycles in ct join the padding.
    """
    lengths = [k for k in ct.part_list() if k >= 2]
    order = math.factorial(n - sum(lengths))
    for k in set(lengths):
        m = lengths.count(k)
        order *= k**m * math.factorial(m)
    return order


def sign(perm: tuple[int, ...]) -> int:
    seen = [False] * len(perm)
    s = 1
    for i in range(len(perm)):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                s = -s
    return s


def support(perm: tuple[int, ...]) -> int:
    return sum(1 for i, p in enumerate(perm) if p != i)


def cycle_lengths(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted cycle lengths, fixed points included as 1s."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if not seen[i]:
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            out.append(length)
    return tuple(sorted(out, reverse=True))


def group_elements(kind: str, n: int) -> list[tuple[int, ...]]:
    elems = list(iterperms(range(n)))
    if kind == "alt" and n >= 2:
        elems = [g for g in elems if sign(g) == 1]
    return elems


def generators(kind: str, n: int) -> list[tuple[int, ...]]:
    if kind == "sym":
        if n < 2:
            return []
        swap = tuple([1, 0] + list(range(2, n)))
        cycle = tuple(list(range(1, n)) + [0])
        return [swap, cycle]
    if n < 3:
        return []
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n == 3:
        return [three]
    if n % 2 == 1:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])  # (n-1)-cycle fixing point 0
    return [three, big]


def conj(g: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
    """g x g^-1 as a permutation tuple."""
    out = [0] * len(g)
    for i, gi in enumerate(g):
        out[gi] = g[x[i]]
    return tuple(out)


@lru_cache(maxsize=None)
def conjugacy_classes(kind: str, n: int) -> tuple[frozenset, ...]:
    """Orbits of V_n under conjugation, via BFS over generator conjugation."""
    elems = group_elements(kind, n)
    gens = generators(kind, n)
    seen: set[tuple[int, ...]] = set()
    classes = []
    for x in elems:
        if x in seen:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g in gens:
                z = conj(g, y)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        classes.append(frozenset(orbit))
    assert sum(len(c) for c in classes) == len(elems)
    return tuple(classes)


def class_sizes_where(kind: str, n: int, predicate) -> set[int]:
    """Distinct orbit sizes over orbits whose members satisfy the predicate."""
    out = set()
    for cls in conjugacy_classes(kind, n):
        member = next(iter(cls))
        if predicate(member):
            out.add(len(cls))
    return out


def brute_chain_height(values) -> int:
    """Longest divisibility chain by checking every subset (|values| <= 20)."""
    vals = sorted(set(values))
    k = len(vals)
    assert k <= 20
    best = 0
    for mask in range(1, 1 << k):
        sub = [vals[i] for i in range(k) if mask >> i & 1]
        if all(sub[i + 1] % sub[i] == 0 for i in range(len(sub) - 1)):
            best = max(best, len(sub))
    return best


def quadratic_longest_chain(values) -> tuple[int, tuple[int, ...]]:
    """(height, witness) by the quadratic DP over ascending values.

    Each value's parent is the earliest divisor with the greatest DP
    value, and the witness ends at the earliest value of greatest height.
    """
    vals = sorted(set(values))
    k = len(vals)
    if k == 0:
        return 0, ()
    dp = [1] * k
    parent = [-1] * k
    for i in range(1, k):
        best = 1
        for j in range(i):
            if dp[j] >= best and vals[i] % vals[j] == 0:
                best = dp[j] + 1
                parent[i] = j
        dp[i] = best
    height = max(dp)
    at = dp.index(height)
    chain = []
    while at != -1:
        chain.append(vals[at])
        at = parent[at]
    return height, tuple(reversed(chain))


def _walk_sizes(kind: GroupKind, n: int, types) -> tuple[int, ...]:
    """Sorted distinct class sizes in V_n of the given types; odd types have none in Alt_n."""
    sizes: set[int] = set()
    for ct in types:
        if admissible(kind, n, ct):
            sizes.update(class_size(kind, n, ct))
    return tuple(sorted(sizes))


def admissible(kind: GroupKind, n: int, ct: CycleType) -> bool:
    """Whether V_n has a class of type ct: always in Sym_n, only for even types in Alt_n (n >= 2)."""
    return kind is GroupKind.SYM or n < 2 or is_even(ct)


def spectrum_by_partitions(kind: GroupKind, n: int) -> tuple[int, ...]:
    """N(V_n) by walking every partition of n."""
    return _walk_sizes(kind, n, partitions(n))


def phi_by_partitions(kind: GroupKind, n: int, t: int) -> tuple[int, ...]:
    """phi(t) by walking one t-cycle joined to every partition of n - t."""
    return _walk_sizes(kind, n, (CycleType.from_parts(rest.part_list() + (t,)) for rest in partitions(n - t)))


def psi_first_types(kind: GroupKind, n: int, t: int) -> dict[int, CycleType]:
    """{class size: first type} over psi(t).

    Walks supports 2..n - t in turn and each one's fixed-point-free
    partitions in order, keeping the first type seen with each size.
    """
    first: dict[int, CycleType] = {}
    for m in range(2, n - t + 1):
        for ct in fixed_point_free_partitions(m):
            if admissible(kind, n, ct):
                for size in class_size(kind, n, ct):
                    first.setdefault(size, ct)
    return first
