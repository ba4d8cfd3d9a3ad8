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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse
from math import gcd
from operator import not_
from typing import Iterable

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
@dataclass(frozen=True)
class ChainResult:
    """A maximal divisibility chain and its length under one convention.

    The witness is strictly increasing with each element dividing the
    next. Under VERTICES the height counts chain elements; under EDGES it
    counts steps (one less, and 0 for an empty input).
    """

    height: int
    witness: tuple[int, ...]
    convention: str


def longest_chain(values: Iterable[int]) -> tuple[int, tuple[int, ...]]:
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

    Ties are broken deterministically: a value's chain parent is the
    smallest of its divisors whose longest chain is longest, and the
    witness ends at the smallest value on the top level.
    """
    vals = sorted(set(values))
    if vals and vals[0] < 1:
        raise DomainError("divisibility chains need values >= 1")
    levels: list[list[list[int]]] = []  # level -> its blocks of ascending values
    gcds: list[list[int]] = []  # level -> the gcd of each of its blocks
    parent: dict[int, int] = {}
    for v in vals:
        remainder = v.__mod__
        # levels below lo hold a divisor of v, levels from hi up hold none
        lo, hi = 0, len(levels)
        while lo < hi:
            mid = (lo + hi) // 2
            # a block whose gcd leaves a remainder holds no divisor of v; the
            # others are scanned in order, so the first divisor found is the smallest
            for block in compress(levels[mid], map(not_, map(remainder, gcds[mid]))):
                # values are >= 1, so 0 means no member divides v
                divisor = next(filterfalse(remainder, block), 0)
                if divisor:
                    # lo only rises here, so the last divisor found is on level lo - 1
                    parent[v] = divisor
                    lo = mid + 1
                    break
            else:
                hi = mid
        if lo == len(levels):
            levels.append([])
            gcds.append([])
        blocks, block_gcds = levels[lo], gcds[lo]
        if blocks and len(blocks[-1]) < BLOCK:
            blocks[-1].append(v)
            block_gcds[-1] = gcd(block_gcds[-1], v)
        else:
            blocks.append([v])
            block_gcds.append(v)
    height = len(levels)
    if not height:
        return 0, ()
    chain = [levels[-1][0][0]]
    while chain[-1] in parent:
        chain.append(parent[chain[-1]])
    chain.reverse()
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
