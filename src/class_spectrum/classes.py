"""Exact conjugacy-class-size arithmetic for Sym_n and Alt_n.

Everything here is integer-exact: class sizes are computed from the
centralizer-order formula on cycle types, alternating-group splitting is
decided combinatorially, and the class-size families (full spectrum,
fixed-point-free classes, one-long-cycle classes, small-support classes)
are produced as deduplicated ``Spectrum`` values.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import DomainError, EnumerationCapError, InvariantError
from .partitions import CycleType, fixed_point_free_partitions, is_even

DEFAULT_SPECTRUM_CAP = 45


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


class Spectrum(NamedTuple):
    """A deduplicated, strictly increasing set of class sizes of V_n."""

    values: tuple[int, ...]

    @classmethod
    def build(cls, values: Iterable[int], kind: GroupKind, n: int) -> "Spectrum":
        vals = tuple(sorted(set(values)))
        order = group_order(kind, n)
        for v in vals:
            # Lagrange: every class size divides the group order
            if v < 1 or order % v:
                raise InvariantError(f"{v} is not a class size of {kind}_{n}")
        return cls(vals)


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
    packs 2z + even, as ``_core_states`` does: z is the centralizer factor
    prod(k^m * m!) over the moved parts, and the type is even when it has
    an even number of even-length cycles. z is odd exactly when every
    moved length k is odd and occurs once (m = 1), so z's parity also says
    whether the moved cycles are odd and pairwise distinct.
    """
    c = 0
    z = 1
    for k, m in ct.parts:
        if k >= 2:
            c += k * m
            z *= k**m * math.factorial(m)
    return c, 2 * z | is_even(ct)


def _sizes(kind: GroupKind, n: int, placed: int, c: int, state: int) -> tuple[int, ...]:
    """Class sizes in V_n of a core (support c, packed state) padded by n - c fixed points.

    The state is 2z + even, as ``_core`` packs it, and ``placed`` is
    n!/(n-c)!, the ordered placements of the c moved points. The Sym_n
    class has n!/((n-c)! * z) elements. In Alt_n (n >= 2) an odd type has
    no class, giving (). The Sym_n class splits into two equal Alt_n
    classes exactly when the padded type has all parts odd and pairwise
    distinct, i.e. z is odd and there is at most one fixed point; then
    both halves are returned.
    """
    alt = kind is GroupKind.ALT and n >= 2
    if alt and not state & 1:
        return ()
    z = state >> 1
    s = placed // z
    if alt and z & 1 and n - c <= 1:
        return (s // 2, s // 2)
    return (s,)


def class_size(kind: GroupKind, n: int, ct: CycleType) -> list[int]:
    """Class size(s) in V_n of elements with cycle type ct padded by fixed points.

    One entry, or two equal entries for a Sym class that splits in Alt_n
    (the rule is in ``_sizes``). An odd type in Alt_n raises DomainError.
    """
    if ct.support > n:
        raise DomainError(f"cycle type covers {ct.support} points, exceeding degree {n}")
    c, state = _core(ct)
    sizes = _sizes(kind, n, math.perm(n, c), c, state)
    if not sizes:
        raise DomainError(f"cycle type {ct} is odd, not in Alt_{n}")
    return list(sizes)


def _core_states(m: int, flagged: bool) -> list[dict[int, None]]:
    """Per support c <= m, the packed state of every distinct core of support c.

    Layer c holds each state, packed as 2z + even as in ``_core``, as a
    dict key; as sets the layers raised the peak RSS of ``spectrum`` at
    n = 45 by about 1 MB. Without ``flagged`` (Sym, whose sizes ignore the
    parity) the parity bit stays 0, so states merge by z alone. The DP
    takes cycle lengths k = 2..m in ascending order and extends every state
    of support c by j = 1, 2, ... k-cycles: going from j - 1 to j
    multiplies z by k*j and, for even k, flips the parity. Supports are
    taken from the top down, so a state made for this k is not extended by
    k again, and equal states merge before any size is divided out.
    """
    states: list[dict[int, None]] = [{} for _ in range(m + 1)]
    states[0][3 if flagged else 2] = None  # the empty type: z = 1, even
    for k in range(2, m + 1):
        flip = flagged and k % 2 == 0
        for c in range(m - k, -1, -1):
            for state in states[c]:
                z2 = state & ~1
                even = state & 1
                odd = even ^ flip
                for j, d in enumerate(range(c + k, m + 1, k), 1):
                    z2 *= k * j
                    states[d][z2 | (odd if j % 2 else even)] = None
    return states


# the flagged _core_states layers read by the psi, phi and moved families
_cores: list[dict[int, None]] = []


def _core_layers(m: int) -> list[dict[int, None]]:
    """The flagged ``_core_states`` layers, one per support c, covering every c <= m.

    Built once per process and reused: layer c holds every core of support
    c however far the DP ran, so the list is rebuilt only when a caller
    asks for a support past its last layer. Flagged states serve both
    kinds, since Sym sizes ignore the parity bit. A forked worker inherits
    whatever layers its parent had built.
    """
    global _cores
    if len(_cores) <= m:
        _cores = _core_states(m, True)
    return _cores


def _layer_sizes(kind: GroupKind, n: int, layers: Iterable[tuple[int, Iterable[int]]]) -> Iterator[int]:
    """Sizes in V_n of (support c, packed states of support c) layers.

    n!/(n-c)! is computed once per layer and shared by its states.
    """
    for c, states in layers:
        placed = math.perm(n, c)
        for state in states:
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
    layers = enumerate(_core_states(n, kind is GroupKind.ALT))
    return Spectrum.build(_layer_sizes(kind, n, layers), kind, n)


@lru_cache(maxsize=None)
def _fpf_cores(m: int) -> tuple[tuple[CycleType, int], ...]:
    """(first type, packed state) per distinct core of support m.

    One row per 2z + even state, as ``_core`` packs it, so both kinds share
    the rows. The order of ``fixed_point_free_partitions`` defines the
    witness annotation: each row keeps the first type that walk yields
    with its state, and the rows come in the order of those first types,
    largest part first. Only ``psi_members`` reads the rows; the families
    read the same states from ``_core_layers`` without walking partitions.
    """
    first: dict[int, CycleType] = {}
    for ct in fixed_point_free_partitions(m):
        first.setdefault(_core(ct)[1], ct)
    return tuple((ct, state) for state, ct in first.items())


def moved_class_sizes(kind: GroupKind, i: int) -> Spectrum:
    """Class sizes in V_i of elements that move all i points.

    Read from the cores of support i, layer i of ``_core_layers``. Empty
    for i = 1; for Alt only even types are admissible, and a type with no
    fixed points splits as ``_sizes`` states.
    """
    if i < 0:
        raise DomainError("moved_class_sizes() needs i >= 0")
    values = _layer_sizes(kind, i, [(i, _core_layers(i)[i])])
    return Spectrum.build(values, kind, i)


def phi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes of elements made of one t-cycle plus anything on the rest.

    Requires n/2 < t <= n, so the t-cycle is unique in the type. For Alt
    the parity and splitting rules are applied to the combined type.
    """
    if not (2 * t > n and t <= n):
        raise DomainError(f"phi_set needs n/2 < t <= n, got n={n}, t={t}")
    layers = enumerate(_core_layers(n - t)[: n - t + 1])
    # t > n - t, so the t-cycle is the only cycle of its length
    flip = kind is GroupKind.ALT and t % 2 == 0
    layers = ((c + t, ((state & ~1) * t | (state & 1) ^ flip for state in layer)) for c, layer in layers)
    return Spectrum.build(_layer_sizes(kind, n, layers), kind, n)


def psi_members(kind: GroupKind, n: int, t: int) -> Iterator[tuple[int, CycleType]]:
    """(class size, fixed-point-free cycle type) pairs behind psi_set.

    Supports m run over 2 <= m <= n - t. Each distinct core of support m,
    a (first type, 2z + even state) row of ``_fpf_cores``, yields its sizes
    once, annotated with its first type in ``fixed_point_free_partitions``
    order, and the rows come in the order of those first types. So the
    first pair that yields a size carries the first type, in support and
    partition order, with that size. A class that splits in Alt_n (see
    ``_sizes``) yields its common half size twice, once per class, with
    the same type annotation. The families do not read it: it walks
    partitions, so it serves only the annotation of a certificate's
    witness chain, which stops at the support of the last witness type.
    """
    if t < 0 or t > n:
        raise DomainError(f"psi needs 0 <= t <= n, got n={n}, t={t}")
    for m in range(2, n - t + 1):
        placed = math.perm(n, m)
        for ct, state in _fpf_cores(m):
            for s in _sizes(kind, n, placed, m, state):
                yield s, ct


def _psi_sizes(kind: GroupKind, n: int, t: int) -> Iterator[int]:
    """The sizes psi_members yields, in no set order and unchecked, from ``_core_layers``.

    Sym sizes repeat for cores that differ only in parity. ``check_case``
    feeds them to the chain DP, which dedupes them, and ``psi_set`` builds
    its Spectrum from them.
    """
    if t < 0 or t > n:
        raise DomainError(f"psi needs 0 <= t <= n, got n={n}, t={t}")
    layers = _core_layers(n - t)
    return _layer_sizes(kind, n, ((m, layers[m]) for m in range(2, n - t + 1)))


def psi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes in V_n of elements moving between 2 and n - t points.

    Empty when n - t < 2. Computed through the closed form
    C(n, m) * |class in Sym_m| rather than by dividing group orders.
    """
    return Spectrum.build(_psi_sizes(kind, n, t), kind, n)
