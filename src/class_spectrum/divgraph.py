"""Longest chains in the divisibility digraph over a finite set of naturals.

Vertices are the distinct input values; there is an edge a -> b when a
divides b and a != b. Divisibility implies <=, so ascending value order is
a topological order and the longest path falls to a quadratic DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, InvariantError

VERTICES = "vertices"
EDGES = "edges"
CONVENTIONS = (VERTICES, EDGES)


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

    Deterministic: among equally long chains the DP keeps the one whose
    elements appear earliest in ascending value order.
    """
    vals = sorted(set(values))
    if vals and vals[0] < 1:
        raise DomainError("divisibility chains need values >= 1")
    k = len(vals)
    if k == 0:
        return 0, ()
    dp = [1] * k
    parent = [-1] * k
    for i in range(1, k):
        vi = vals[i]
        best = 1
        best_j = -1
        for j in range(i):
            # cheap length test first, big-integer mod only when it could help
            if dp[j] >= best and vi % vals[j] == 0:
                best = dp[j] + 1
                best_j = j
        dp[i] = best
        parent[i] = best_j
    height = max(dp)
    at = dp.index(height)
    chain: list[int] = []
    while at != -1:
        chain.append(vals[at])
        at = parent[at]
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
