"""Longest chains in the divisibility digraph over a finite set of naturals.

Vertices are the distinct input values; there is an edge a -> b when a
divides b and a != b. Divisibility implies <=, so ascending value order is
a topological order, and the longest path is a level-indexed DP: level L
holds the values whose longest chain ending there has L + 1 elements. A
value's level is one above the highest level holding one of its
divisors, so every level is an antichain, and the levels, as many as the
height, cover the input (Mirsky's dual of Dilworth's theorem).

"Level j holds a divisor of v" is downward closed in j: a divisor on
level j has a chain of divisors through every level below it, and each of
them divides v. So that highest level is found by bisection over the
levels, as the piles are in the O(n log n) longest increasing
subsequence algorithm, with O(log h) level probes per value.

A probe is screened by gcds. Each level is stored as consecutive blocks
of at most BLOCK ascending values, each with the gcd of its members.
Every member of a block is a multiple of that gcd, so when the gcd does
not divide v no member does, and one remainder rules the whole block
out. Only the blocks whose gcd divides v are scanned, in ascending order,
so the first divisor found is still the level's smallest. Blocks are
short because the gcd of a whole level soon shrinks to a small number
that divides almost every value.

The lcm N of the largest BLOCK values, when it has at most twice the
largest value's bits and every value divides it, is the values' lcm and
lets the DP store each value's cofactor N // v in place of v and test
d | v as (N // v) | (N // d): on the divisors of N, x -> N // x reverses
divisibility. The block screen becomes the lcm of the block's cofactors,
which equals N // gcd(block), so the same blocks are skipped and scanned.
Values are still taken in ascending order, so levels, parents and the
witness are those of the plain DP. Each test is a remainder by a
cofactor, which is small when the value is a large divisor of N, as the
class sizes of a psi family are of n!/(n - m)!, whose largest values
already have the family's lcm. Past twice the bits the cofactors are no
smaller than the values, so the plain DP runs instead, as it does when a
smaller value does not divide N.

A caller that only needs to know whether the height exceeds some k can
pass limit=k: levels only grow, so the DP stops at the first value that
would open level index k, and the values after it are never probed.
"""

from __future__ import annotations

from itertools import compress, filterfalse
from math import gcd, lcm
from operator import not_
from typing import Iterable, NamedTuple

from .errors import DomainError, InvariantError

# Height conventions: VERTICES counts a chain's values, EDGES its steps
# (one less, and 0 for an empty input).
VERTICES = "vertices"
EDGES = "edges"
CONVENTIONS = (VERTICES, EDGES)

# Values per block of a level; each block keeps its gcd as a screen.
BLOCK = 8


# `height` and `ChainResult` are not exported; they stay only because
# perfbench/tests/test_helpers.py calls `divgraph.height`. Delete both when
# that test calls `longest_chain` instead (ROADMAP item 1).
class ChainResult(NamedTuple):
    """A maximal divisibility chain and its length under one convention.

    The witness is strictly increasing with each element dividing the
    next. Under VERTICES the height counts chain elements; under EDGES it
    counts steps (one less, and 0 for an empty input).
    """

    height: int
    witness: tuple[int, ...]
    convention: str


def _common_multiple(vals: list[int]) -> int | None:
    """The lcm N of the top BLOCK of ascending values >= 1 when it serves the cofactor DP, else None.

    N serves when it has at most twice the largest value's bits and every
    value divides it, which makes it the lcm of all the values. The bit
    test runs first, so a near-coprime input takes no remainders.
    """
    multiple = lcm(*vals[-BLOCK:])
    if multiple.bit_length() > 2 * vals[-1].bit_length() or any(map(multiple.__mod__, vals)):
        return None
    return multiple


def longest_chain(values: Iterable[int], *, limit: int | None = None) -> tuple[int, tuple[int, ...]]:
    """(vertex count, witness) of a maximal divisibility chain.

    Values are taken in ascending order, and each level lists its values
    in ascending order, in blocks of at most BLOCK values that each keep
    their gcd. A value bisects the levels for the highest one that holds
    one of its divisors, which is sound because holding a divisor is
    downward closed (see the module docstring). Each probe takes one
    remainder per block gcd, and scans only the blocks whose gcd divides
    the value, for the level's smallest divisor; a block whose gcd does not
    divide it holds no divisor. The value joins the level above (level 0
    when no level does). Each level is an antichain, since a value never
    shares a level with one of its divisors.

    When the lcm N of the largest BLOCK values has at most twice the
    largest value's bits and every value divides it, the levels hold the
    cofactors N // v, each block keeps their lcm, and d | v is tested as
    (N // v) | (N // d); the result is the same. A value below 1 raises
    DomainError before any lcm is taken.

    Ties are broken deterministically: a value's chain parent is the
    smallest of its divisors whose longest chain is longest, and the
    witness ends at the smallest value on the top level.

    With ``limit`` set, the DP stops as soon as a value would open level
    index ``limit`` and returns (limit + 1, ()): the height is then only a
    lower bound, and the witness is empty. A height of at most ``limit``
    is returned as without it.
    """
    vals = sorted(set(values))
    if not vals:
        return 0, ()
    if vals[0] < 1:
        raise DomainError("divisibility chains need values >= 1")
    multiple = _common_multiple(vals)
    if multiple is None:
        keys, combine = vals, gcd
    else:
        keys, combine = list(map(multiple.__floordiv__, vals)), lcm
    levels: list[list[list[int]]] = []  # level -> its blocks of ascending values (or their cofactors)
    screens: list[list[int]] = []  # level -> the gcd (or cofactor lcm) of each of its blocks
    parent: dict[int, int] = {}
    for key in keys:
        # remainder(x) is 0 exactly when x is a divisor of v (or a divisor's cofactor)
        remainder = key.__mod__ if multiple is None else key.__rmod__
        # levels below lo hold a divisor of v, levels from hi up hold none
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi) // 2
            # a block whose screen leaves a remainder holds no divisor of v; the
            # others are scanned in order, so the first divisor found is the smallest
            for block in compress(levels[mid], map(not_, map(remainder, screens[mid]))):
                # keys are >= 1, so 0 means no member divides v
                divisor = next(filterfalse(remainder, block), 0)
                if divisor:
                    # lo only rises here, so the last divisor found is on level lo - 1
                    parent[key] = divisor
                    lo = mid + 1
                    break
            else:
                hi = mid
        if lo == len(levels):
            if lo == limit:
                return limit + 1, ()
            levels.append([])
            screens.append([])
        blocks, block_screens = levels[lo], screens[lo]
        if blocks and len(blocks[-1]) < BLOCK:
            blocks[-1].append(key)
            block_screens[-1] = combine(block_screens[-1], key)
        else:
            blocks.append([key])
            block_screens.append(key)
    height = len(levels)
    chain = [levels[-1][0][0]]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    chain.reverse()
    if multiple is not None:
        chain = [multiple // c for c in chain]
    # 2h1 <= h2 <= ... forces the chain top to be at least 2^(len-1)
    if height > vals[-1].bit_length():
        raise InvariantError("doubling bound violated")
    return height, tuple(chain)


def height(values: Iterable[int], convention: str = VERTICES) -> ChainResult:
    """Height of the divisibility digraph on the given values.

    Duplicates are ignored; an empty input has height 0 under both
    conventions.
    """
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}")
    vertex_count, witness = longest_chain(values)
    if convention == VERTICES:
        return ChainResult(vertex_count, witness, VERTICES)
    return ChainResult(max(vertex_count - 1, 0), witness, EDGES)
