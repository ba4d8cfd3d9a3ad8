"""Integer partitions represented as cycle types, with permutation parity.

All partitions and the fixed-point-free ones (every part >= 2) come from
one recursive walk over decreasing part lists, ``_descending``, so both
streams share its reverse lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import DomainError


@dataclass(frozen=True)
class CycleType:
    """A multiset of cycle lengths, stored as (length, multiplicity) pairs.

    The canonical form keeps pairs sorted by decreasing length with positive
    multiplicities, so two cycle types are equal exactly when they are equal
    as multisets. Lengths of 1 are legal and denote explicit fixed points.
    """

    parts: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for length, mult in self.parts:
            if length < 1 or mult < 1:
                raise DomainError(f"invalid cycle type entry ({length}, {mult})")
            if prev is not None and length >= prev:
                raise DomainError("cycle type parts must be strictly decreasing by length")
            prev = length

    @classmethod
    def from_parts(cls, lengths: Iterable[int]) -> "CycleType":
        counts: dict[int, int] = {}
        for k in lengths:
            counts[k] = counts.get(k, 0) + 1
        return cls.from_multiplicities(counts)

    @classmethod
    def from_multiplicities(cls, mults: Mapping[int, int]) -> "CycleType":
        return cls(tuple(sorted(((k, m) for k, m in mults.items() if m), reverse=True)))

    @property
    def support(self) -> int:
        """Number of points covered, counting fixed points listed explicitly."""
        return sum(k * m for k, m in self.parts)

    @property
    def cycle_count(self) -> int:
        return sum(m for _, m in self.parts)

    def multiplicity(self, length: int) -> int:
        for k, m in self.parts:
            if k == length:
                return m
        return 0

    def part_list(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order, repeated per multiplicity."""
        out: list[int] = []
        for k, m in self.parts:
            out.extend([k] * m)
        return tuple(out)

    def combine(self, other: "CycleType") -> "CycleType":
        """Cycle type of a disjoint union of supports."""
        counts = {k: m for k, m in self.parts}
        for k, m in other.parts:
            counts[k] = counts.get(k, 0) + m
        return CycleType.from_multiplicities(counts)

    def __str__(self) -> str:
        return "+".join(str(k) for k in self.part_list()) or "e"


def partitions(m: int) -> Iterator[CycleType]:
    """Yield every partition of m exactly once, largest part first.

    Order is reverse lexicographic on the decreasing part lists, starting
    at (m) and ending at (1, 1, ..., 1).
    """
    if m < 0:
        raise DomainError("partitions() needs m >= 0")
    return map(_from_desc, _descending(m, m, 1))


def fixed_point_free_partitions(m: int) -> Iterator[CycleType]:
    """Partitions of m with every part >= 2, in the order of ``partitions``.

    These are the cycle types of permutations moving all m points of their
    support; there are none for m = 1. This order defines the witness
    annotation: the cycle type a certificate records beside a class size
    is the first type of its core that this walk yields.
    """
    if m < 0:
        raise DomainError("fixed_point_free_partitions() needs m >= 0")
    return map(_from_desc, _descending(m, m, 2))


def _descending(m: int, max_part: int, least: int) -> Iterator[tuple[int, ...]]:
    """Decreasing part lists of m with parts in [least, max_part], reverse lexicographic.

    The list of equal parts ``least`` comes last and is built in one step,
    so a tail of least parts costs no recursion per part; for m = 0 it is
    the empty list.
    """
    for k in range(min(m, max_part), least, -1):
        for rest in _descending(m - k, k, least):
            yield (k,) + rest
    if m % least == 0:
        yield (least,) * (m // least)


def _from_desc(desc: tuple[int, ...]) -> CycleType:
    # desc is decreasing, so equal parts are adjacent
    pairs: list[tuple[int, int]] = []
    for k in desc:
        if pairs and pairs[-1][0] == k:
            pairs[-1] = (k, pairs[-1][1] + 1)
        else:
            pairs.append((k, 1))
    return CycleType(tuple(pairs))


def is_even(ct: CycleType) -> bool:
    """Whether a permutation with this cycle type is even.

    A k-cycle is a product of k - 1 transpositions, so only even-length
    cycles contribute.
    """
    return sum(m for k, m in ct.parts if k % 2 == 0) % 2 == 0
