"""Exact conjugacy-class-size arithmetic for Sym_n and Alt_n.

Everything here is integer-exact: class sizes are computed from the
centralizer-order formula on cycle types, alternating-group splitting is
decided combinatorially, and the class-size families (full spectrum,
fixed-point-free classes, one-long-cycle classes, small-support classes)
are produced as deduplicated ``Spectrum`` values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import DomainError, EnumerationCapError, InvariantError
from .partitions import CycleType, is_even

DEFAULT_SPECTRUM_CAP = 45

# the CycleType.parts of a type, (length, multiplicity) by decreasing length
Parts = tuple[tuple[int, int], ...]


class GroupKind(Enum):
    """Symmetric or alternating group of a given degree."""

    SYM = "sym"
    ALT = "alt"

    @classmethod
    def parse(cls, text: str) -> "GroupKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise DomainError(f"unknown group kind {text!r} (expected 'sym' or 'alt')") from None

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Spectrum:
    """A deduplicated, strictly increasing set of class sizes of V_n."""

    values: tuple[int, ...]
    kind: GroupKind
    n: int
    label: str

    @classmethod
    def build(cls, values: Iterable[int], kind: GroupKind, n: int, label: str) -> "Spectrum":
        vals = tuple(sorted(set(values)))
        order = group_order(kind, n)
        for v in vals:
            # Lagrange: every class size divides the group order
            if v < 1 or order % v:
                raise InvariantError(f"{v} is not a class size of {kind}_{n}")
        return cls(vals, kind, n, label)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)


def group_order(kind: GroupKind, n: int) -> int:
    """n! for Sym_n; n!/2 for Alt_n with n >= 2; Alt_0 and Alt_1 are trivial."""
    if n < 0:
        raise DomainError("group degree must be >= 0")
    if kind is GroupKind.SYM:
        return math.factorial(n)
    return math.factorial(n) // 2 if n >= 2 else 1


def _core(ct: CycleType) -> tuple[int, int]:
    """(support, packed state) of the moved part of ct, the parts of length >= 2.

    Length-1 parts are fixed points and belong with the padding. The state
    packs 4z + 2*even + odd-distinct, as ``_core_states`` does: z is the
    centralizer factor prod(k^m * m!) over the moved parts, the type is
    even when it has an even number of even-length cycles, and it is
    odd-distinct when its moved cycles all have odd, pairwise distinct
    lengths, i.e. exactly when z is odd.
    """
    c = 0
    z = 1
    for k, m in ct.parts:
        if k >= 2:
            c += k * m
            z *= k**m * math.factorial(m)
    return c, 4 * z | 2 * is_even(ct) | z & 1


def _placements(n: int) -> Callable[[int], int]:
    """c -> n!/(n-c)!, the ordered placements of c moved points, each computed once."""
    return lru_cache(maxsize=None)(partial(math.perm, n))


def _sizes(kind: GroupKind, n: int, placed: Callable[[int], int], c: int, state: int) -> tuple[int, ...]:
    """Class sizes in V_n of a core (support c, packed state) padded by n - c fixed points.

    The state is 4z + 2*even + odd-distinct, as ``_core`` packs it.
    ``placed`` is ``_placements(n)``, shared by every type of one walk so
    the per-support factor is computed once. The Sym_n class has
    n!/((n-c)! * z) elements. In Alt_n (n >= 2) an odd type has no class,
    giving (). The Sym_n class splits into two equal Alt_n classes exactly
    when the padded type has all parts odd and pairwise distinct, i.e. the
    core is odd-distinct and there is at most one fixed point; then both
    halves are returned.
    """
    alt = kind is GroupKind.ALT and n >= 2
    if alt and not state & 2:
        return ()
    s = placed(c) // (state >> 2)
    if alt and state & 1 and n - c <= 1:
        return (s // 2, s // 2)
    return (s,)


def centralizer_order_sym(ct: CycleType, n: int) -> int:
    """Order of the Sym_n centralizer of a permutation with cycle type ct.

    ct is padded with fixed points up to degree n; explicit length-1 parts
    in ct are merged with that padding, so the fixed-point factor is
    (n - moved)! where moved counts only parts of length >= 2.
    """
    if ct.support > n:
        raise DomainError(f"cycle type covers {ct.support} points, exceeding degree {n}")
    c, state = _core(ct)
    return math.factorial(n - c) * (state >> 2)


def class_size(kind: GroupKind, n: int, ct: CycleType) -> list[int]:
    """Class size(s) in V_n of elements with cycle type ct padded by fixed points.

    One entry, or two equal entries for a Sym class that splits in Alt_n
    (the rule is in ``_sizes``). An odd type in Alt_n raises DomainError.
    """
    if ct.support > n:
        raise DomainError(f"cycle type covers {ct.support} points, exceeding degree {n}")
    sizes = _sizes(kind, n, _placements(n), *_core(ct))
    if not sizes:
        raise DomainError(f"cycle type {ct} is odd, not in Alt_{n}")
    return list(sizes)


def _core_states(m: int, flagged: bool, witness: bool = False) -> list[dict[int, Parts | None]]:
    """Per support c <= m, the packed state of every distinct core of support c.

    Layer c maps each state, packed into one int as 4z + 2*even +
    odd-distinct as in ``_core``, to its witness: with ``witness``, the
    ``CycleType.parts`` of its first type in
    ``fixed_point_free_partitions`` order, else None.
    Without ``flagged`` (Sym, whose sizes ignore the flags) both flag bits
    stay 0, so states merge by z alone. The DP takes cycle lengths
    k = 2..m in ascending order and extends every state of support c by
    j = 1, 2, ... k-cycles: going from j - 1 to j multiplies z by k*j.
    Supports are taken from the top down, so a state made for this k is
    not extended by k again, and equal states merge before any size is
    divided out.

    Each write stores ((k, j),) + the source's witness, and a later write
    to a state replaces an earlier one. That keeps the first type: by
    induction a source's witness is its first type over parts below k,
    and the writes to one state come with k ascending and, within one k,
    from the top support down, i.e. with j ascending; so a later write
    has a larger largest part or more copies of it, and comes earlier in
    the partition order. Within one (k, j) step two sources never meet in
    one state: z is multiplied and the parity toggled by the same amount
    for both, and the odd-distinct bit is a function of z, because a
    fixed-point-free type is odd-distinct exactly when its z is odd.
    """
    states: list[dict[int, Parts | None]] = [{} for _ in range(m + 1)]
    states[0][7 if flagged else 4] = () if witness else None  # the empty type: z = 1, even, odd-distinct
    for k in range(2, m + 1):
        flip = _parity_flip(k, flagged)
        for c in range(m - k, -1, -1):
            for state, parts in states[c].items():
                flags = state & 3
                z4 = state - flags
                single = _one_cycle_flags(flags, flip)
                even_count = flags & 2  # two or more equal cycles are never odd-distinct
                odd_count = even_count ^ flip
                for j, d in enumerate(range(c + k, m + 1, k), 1):
                    z4 *= k * j
                    new = z4 | (single if j == 1 else odd_count if j % 2 else even_count)
                    states[d][new] = ((k, j),) + parts if witness else None
    return states


def _state_pairs(states: list[dict[int, Parts | None]]) -> Iterator[tuple[int, int]]:
    """(support, packed state) for every state of ``_core_states`` layers."""
    return ((c, state) for c, layer in enumerate(states) for state in layer)


def _parity_flip(k: int, flagged: bool) -> int:
    """The parity bit a k-cycle toggles in a packed state: set for even k."""
    return 2 if flagged and k % 2 == 0 else 0


def _one_cycle_flags(flags: int, flip: int) -> int:
    """Packed flags after adding one cycle of a length not yet in the type.

    The parity toggles by ``flip``; the type stays odd-distinct only when
    the new length is odd, i.e. when it does not flip the parity.
    """
    return (flags ^ flip) & (2 if flip else 3)


def _state_sizes(kind: GroupKind, n: int, pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
    """Sizes in V_n of (support, packed state) pairs as ``_core_states`` yields them."""
    placed = _placements(n)
    for c, state in pairs:
        yield from _sizes(kind, n, placed, c, state)


def spectrum(kind: GroupKind, n: int, cap: int | None = DEFAULT_SPECTRUM_CAP) -> Spectrum:
    """The full class-size set N(V_n).

    Every type of degree n is a fixed-point-free core of support c <= n
    padded by fixed points, so the sizes are read from ``_core_states(n)``,
    which merges types of equal core. Degrees above ``cap`` are refused
    unless the caller raises the cap or disables it with cap=None.
    """
    if n < 1:
        raise DomainError("spectrum() needs n >= 1")
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"full spectrum at n={n} exceeds the degree cap {cap}; "
            f"pass a cap of at least {n} (--cap {n}, or cap=None in the library) to compute it"
        )
    pairs = _state_pairs(_core_states(n, kind is GroupKind.ALT))
    return Spectrum.build(_state_sizes(kind, n, pairs), kind, n, "full")


@lru_cache(maxsize=None)
def _fpf_cores(m: int) -> tuple[tuple[CycleType, int], ...]:
    """(first type, packed state) per distinct core of support m.

    One row per flagged state of ``_core_states(m)`` at support m, so both
    kinds share the rows; they are sorted by first type in
    ``fixed_point_free_partitions`` order, largest part first.
    """
    layer = _core_states(m, True, witness=True)[m]
    rows = sorted(layer.items(), key=itemgetter(1), reverse=True)
    return tuple((CycleType(parts), state) for state, parts in rows)


def moved_class_sizes(kind: GroupKind, i: int) -> Spectrum:
    """Class sizes in V_i of elements that move all i points.

    Read from the cores of support i in ``_fpf_cores``, one ``_sizes``
    call per core. Empty for i = 1; for Alt only even types are
    admissible, and a type with no fixed points splits as ``_sizes``
    states.
    """
    if i < 0:
        raise DomainError("moved_class_sizes() needs i >= 0")
    placed = _placements(i)
    values = [s for _, state in _fpf_cores(i) for s in _sizes(kind, i, placed, i, state)]
    return Spectrum.build(values, kind, i, "moved")


def phi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes of elements made of one t-cycle plus anything on the rest.

    Requires n/2 < t <= n, so the t-cycle is unique in the type. For Alt
    the parity and splitting rules are applied to the combined type.
    """
    if not (2 * t > n and t <= n):
        raise DomainError(f"phi_set needs n/2 < t <= n, got n={n}, t={t}")
    pairs = _state_pairs(_core_states(n - t, kind is GroupKind.ALT))
    if t >= 2:
        # t > n - t, so the t-cycle is the only cycle of its length
        flip = _parity_flip(t, kind is GroupKind.ALT)
        pairs = ((c + t, (state - (state & 3)) * t | _one_cycle_flags(state & 3, flip)) for c, state in pairs)
    return Spectrum.build(_state_sizes(kind, n, pairs), kind, n, f"phi(t={t})")


def psi_members(kind: GroupKind, n: int, t: int) -> Iterator[tuple[int, CycleType]]:
    """(class size, fixed-point-free cycle type) pairs behind psi_set.

    Supports m run over 2 <= m <= n - t. Each distinct core of support m,
    a (first type, packed state) row of ``_fpf_cores``, yields its sizes
    once, annotated with its first type in ``fixed_point_free_partitions``
    order, and the rows come in the order of those first types. So the
    first pair that yields a size carries the first type, in support and
    partition order, with that size. A class that splits in Alt_n (see
    ``_sizes``) yields its common half size twice, once per class, with
    the same type annotation.
    """
    if t < 0 or t > n:
        raise DomainError(f"psi needs 0 <= t <= n, got n={n}, t={t}")
    placed = _placements(n)
    for m in range(2, n - t + 1):
        for ct, state in _fpf_cores(m):
            for s in _sizes(kind, n, placed, m, state):
                yield s, ct


def psi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes in V_n of elements moving between 2 and n - t points.

    Empty when n - t < 2. Computed through the closed form
    C(n, m) * |class in Sym_m| rather than by dividing group orders.
    """
    values = (v for v, _ in psi_members(kind, n, t))
    return Spectrum.build(values, kind, n, f"psi(t={t})")
