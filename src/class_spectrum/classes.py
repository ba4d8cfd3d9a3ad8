"""Exact conjugacy-class-size arithmetic for Sym_n and Alt_n.

Everything here is integer-exact: class sizes are computed from the
centralizer-order formula on cycle types, alternating-group splitting is
decided combinatorially, and the class-size families (full spectrum,
fixed-point-free classes, one-long-cycle classes, small-support classes)
are produced as deduplicated ``Spectrum`` values.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from functools import lru_cache
from itertools import chain, compress, repeat
from typing import Collection, Iterable, Iterator, NamedTuple

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
    def build(cls, values: Iterable[int], kind: GroupKind, n: int, order: int | None = None) -> "Spectrum":
        """The sorted distinct values, each checked to divide ``order``.

        ``order`` defaults to |V_n|, which every class size divides
        (Lagrange). A family may pass a divisor of |V_n| that all its sizes
        divide: the check still implies Lagrange, is stronger, and takes its
        remainders of a smaller number. A value that fails, or is below 1,
        raises InvariantError naming it.
        """
        vals = tuple(sorted(set(values)))
        # order % v is no test for v < 1, so the smallest value is checked for that first
        if vals and vals[0] < 1:
            bad = vals[0]
        else:
            if order is None:
                order = group_order(kind, n)
            bad = next(compress(vals, map(order.__mod__, vals)), None)
        if bad is not None:
            raise InvariantError(f"{bad} is not a class size of {kind}_{n}")
        return cls(vals)


def group_order(kind: GroupKind, n: int) -> int:
    """n! for Sym_n; n!/2 for Alt_n with n >= 2; Alt_0 and Alt_1 are trivial.

    A degree below 0, or one past sys.maxsize, where math.factorial raises
    an OverflowError that names no argument, raises DomainError naming it.
    """
    if not 0 <= n <= sys.maxsize:
        raise DomainError(f"group degree must be >= 0 and <= {sys.maxsize}, got {n}")
    if kind is GroupKind.SYM:
        return math.factorial(n)
    return math.factorial(n) // 2 if n >= 2 else 1


def _core(ct: CycleType) -> tuple[int, int, bool]:
    """(support c, centralizer factor z, even) of the moved part of ct, the parts of length >= 2.

    Length-1 parts are fixed points and belong with the padding. z is
    prod(k^m * m!) over the moved parts, and the type is even when it has
    an even number of even-length cycles. z is odd exactly when every
    moved length k is odd and occurs once (m = 1), so z's parity also says
    whether the moved cycles are odd and pairwise distinct, and an odd z
    only comes with an even type.
    """
    c = 0
    z = 1
    for k, m in ct.parts:
        if k >= 2:
            c += k * m
            z *= k**m * math.factorial(m)
    return c, z, is_even(ct)


def _one_core(z: int, even: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The layer holding the single core (z, even), z filed under its parity.

    Tuples rather than the dicts of ``_core_states``: ``_sizes`` only
    iterates a layer, and each cached ``_fpf_cores`` row holds one.
    """
    return ((z,), ()) if even else ((), (z,))


def _sizes(
    kind: GroupKind, n: int, c: int, placed: int, evens: Collection[int], odds: Collection[int]
) -> Iterable[int]:
    """Class sizes in V_n of one core layer, the cores of support c padded by n - c fixed points.

    This is the one home of the class-size and Alt-splitting rule.
    ``evens`` and ``odds`` hold the z of the layer's even and odd cores,
    and ``placed`` is n!/(n-c)!, the ordered placements of the c moved
    points. The Sym_n class of a core has n!/((n-c)! * z) elements, read
    as placed // z in one lazy C-level map. Sym_n, and the trivial Alt_0
    and Alt_1, read both parities; Alt_n (n >= 2) reads only the evens,
    since an odd type has no class there. The Sym_n class splits into two
    equal Alt_n classes exactly when the padded type has all parts odd and
    pairwise distinct, i.e. z is odd and there is at most one fixed point;
    then its half size is given twice, once per Alt class. So the result
    holds one size per class of V_n.
    """
    if kind is GroupKind.SYM or n < 2:
        return map(placed.__floordiv__, chain(evens, odds))
    if n - c > 1:
        return map(placed.__floordiv__, evens)
    halves = [placed // 2 // z for z in evens if z & 1]
    return chain(halves, halves, (placed // z for z in evens if not z & 1))


def class_size(kind: GroupKind, n: int, ct: CycleType) -> list[int]:
    """Class size(s) in V_n of elements with cycle type ct padded by fixed points.

    The ``_sizes`` of the type's one-core layer: one entry, or two equal
    entries for a Sym class that splits in Alt_n. An odd type in Alt_n
    raises DomainError.
    """
    if ct.support > n:
        raise DomainError(f"cycle type covers {ct.support} points, exceeding degree {n}")
    c, z, even = _core(ct)
    sizes = list(_sizes(kind, n, c, math.perm(n, c), *_one_core(z, even)))
    if not sizes:
        raise DomainError(f"cycle type {ct} is odd, not in Alt_{n}")
    return sizes


# one support's cores: the z of its even types and the z of its odd types, as dict keys
_Layer = tuple[dict[int, None], dict[int, None]]


def _core_states(m: int) -> list[_Layer]:
    """Per support c <= m, the centralizer factor z of every distinct core of support c.

    Layer c is a pair of keys-only dicts, the z of the even cores and the
    z of the odd ones, as in ``_core``; as sets the layers raised the peak
    RSS of ``spectrum`` at n = 45 by about 1 MB. The DP takes cycle
    lengths k = 2..m in ascending order and extends each dict of support c
    by j = 1, 2, ... k-cycles at once: that multiplies every z by
    k^j * j! in one C-level map, and for even k and odd j moves it to the
    other parity's dict. Supports are taken from the top down, so a core
    made for this k is not extended by k again, and equal cores merge
    before any size is divided out.
    """
    layers: list[_Layer] = [({}, {}) for _ in range(m + 1)]
    layers[0][0][1] = None  # the empty type: z = 1, even
    for k in range(2, m + 1):
        flip = k % 2 == 0
        for c in range(m - k, -1, -1):
            for odd, zs in enumerate(layers[c]):
                if not zs:
                    continue
                mult = 1
                for j, d in enumerate(range(c + k, m + 1, k), 1):
                    mult *= k * j
                    layers[d][odd ^ (flip and j & 1)].update(zip(map(mult.__mul__, zs), repeat(None)))
    return layers


# the _core_states layers read by the psi, phi and moved families
_cores: list[_Layer] = []


def _core_layers(m: int) -> list[_Layer]:
    """The ``_core_states`` layers, one (even, odd) pair per support c, covering every c <= m.

    Built once per process and reused: layer c holds every core of support
    c however far the DP ran, so the list is rebuilt only when a caller
    asks for a support past its last layer. The layers serve both kinds:
    ``_sizes`` reads both dicts of a layer for Sym and the even one for
    Alt. A forked worker inherits whatever layers its parent had built.
    """
    global _cores
    if len(_cores) <= m:
        _cores = _core_states(m)
    return _cores


def _layer_sizes(kind: GroupKind, n: int, c: int, placed: int, layers: Iterable[_Layer]) -> Iterator[int]:
    """Sizes in V_n of consecutive core layers of supports c, c + 1, ..., in no set order.

    Each layer's sizes are the ``_sizes`` of that layer, chained in C.
    ``placed`` is n!/(n-c)! for the first layer and is carried to the next
    by one multiplication. A split Alt_n class gives its half size twice,
    and a Sym size repeats for cores that differ only in parity; the
    callers dedupe.
    """
    sizes: list[Iterable[int]] = []
    for c, (evens, odds) in enumerate(layers, c):
        sizes.append(_sizes(kind, n, c, placed, evens, odds))
        placed *= n - c
    return chain.from_iterable(sizes)


def spectrum(kind: GroupKind, n: int, cap: int | None = DEFAULT_SPECTRUM_CAP) -> Spectrum:
    """The full class-size set N(V_n).

    Every type of degree n is a fixed-point-free core of support c <= n
    padded by fixed points, so the sizes are read from ``_core_states(n)``,
    which merges types of equal core, and sized layer by layer by
    ``_sizes``. ``Spectrum.build`` drops the sizes that repeat, such as a
    Sym size of an even and an odd core or the two halves of a split Alt
    class. It builds its own layers rather than filling the
    ``_core_layers`` cache, which would then hold them for the rest of the
    process. Degrees above ``cap`` are refused unless the caller raises the
    cap or disables it with cap=None.
    """
    if n < 1:
        raise DomainError("spectrum() needs n >= 1")
    if cap is not None and n > cap:
        raise EnumerationCapError(
            f"full spectrum at n={n} exceeds the degree cap {cap}; "
            f"pass a cap of at least {n} (--cap {n}, or cap=None in the library) to compute it"
        )
    return Spectrum.build(_layer_sizes(kind, n, 0, 1, _core_states(n)), kind, n)


@lru_cache(maxsize=None)
def _fpf_cores(m: int) -> tuple[tuple[CycleType, tuple[tuple[int, ...], tuple[int, ...]]], ...]:
    """(first type, one-core layer) per distinct core of support m.

    One row per (z, even) core, as ``_core`` gives it, with the core kept
    as its ``_one_core`` layer, ready for ``_sizes``; both kinds share the
    rows. The order of ``fixed_point_free_partitions`` defines the
    witness annotation: each row keeps the first type that walk yields
    with its core, and the rows come in the order of those first types,
    largest part first. Only ``psi_members`` reads the rows; the families
    read the same cores from ``_core_layers`` without walking partitions.
    """
    first: dict[tuple[int, bool], CycleType] = {}
    for ct in fixed_point_free_partitions(m):
        first.setdefault(_core(ct)[1:], ct)
    return tuple((ct, _one_core(z, even)) for (z, even), ct in first.items())


def moved_class_sizes(kind: GroupKind, i: int) -> Spectrum:
    """Class sizes in V_i of elements that move all i points.

    Read from the cores of support i, layer i of ``_core_layers``. Empty
    for i = 1. The layer is sized by ``_sizes``: for Alt only even types
    are admissible, and a type with no fixed points splits as ``_sizes``
    states.
    """
    if i < 0:
        raise DomainError("moved_class_sizes() needs i >= 0")
    order = group_order(kind, i)  # first, since math.factorial refuses a huge i without naming it
    values = _layer_sizes(kind, i, i, math.factorial(i), [_core_layers(i)[i]])
    return Spectrum.build(values, kind, i, order)


def phi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes of elements made of one t-cycle plus anything on the rest.

    Requires n/2 < t <= n, so the t-cycle is unique in the type: a core
    (c, z, even) of ``_core_layers(n - t)`` gives the type of support c + t
    with factor z * t, odd when t is even. So for even t the two dicts of
    each layer swap, and the sizes are n!/(n-c-t)! // (z * t), read as
    (n!/(n-c-t)! / t) // z. That quotient is exact at c = 0, since t
    divides the t consecutive factors of n!/(n-t)!, and ``_layer_sizes``
    carries it to the next layer by one multiplication. For Alt the parity
    and splitting rules are applied to the combined type: an odd z * t
    needs an odd t, so the split reads the parity of z alone.
    """
    if not (2 * t > n and t <= n):
        raise DomainError(f"phi_set needs n/2 < t <= n, got n={n}, t={t}")
    order = group_order(kind, n)  # first, since math.perm refuses a huge t without naming it
    layers = _core_layers(n - t)[: n - t + 1]
    if t % 2 == 0:
        layers = [(odds, evens) for evens, odds in layers]
    return Spectrum.build(_layer_sizes(kind, n, t, math.perm(n, t) // t, layers), kind, n, order)


def psi_members(kind: GroupKind, n: int, t: int) -> Iterator[tuple[int, CycleType]]:
    """(class size, fixed-point-free cycle type) pairs behind psi_set.

    Supports m run over 2 <= m <= n - t. Each distinct core of support m,
    a (first type, one-core layer) row of ``_fpf_cores``, yields the
    ``_sizes`` of its layer once, annotated with its first type in
    ``fixed_point_free_partitions`` order, and the rows come in the order
    of those first types. So the first pair that yields a size carries the
    first type, in support and partition order, with that size. A class
    that splits in Alt_n yields its common half size twice, once per
    class, with the same type annotation. The families do not read it: it
    walks partitions, so it serves only the annotation of a certificate's
    witness chain, which stops at the support of the last witness type.
    """
    if t < 0 or t > n:
        raise DomainError(f"psi needs 0 <= t <= n, got n={n}, t={t}")
    # an iterator, not a generator function, so a bad t raises at the call
    return (
        (s, ct)
        for m in range(2, n - t + 1)
        for placed in [math.perm(n, m)]
        for ct, (evens, odds) in _fpf_cores(m)
        for s in _sizes(kind, n, m, placed, evens, odds)
    )


def _psi_sizes(kind: GroupKind, n: int, t: int) -> Iterator[int]:
    """The sizes psi_members yields, in no set order and unchecked, from ``_core_layers``.

    Sym sizes repeat for cores that differ only in parity, and the half
    size of a split Alt class repeats, once per class, as in psi_members.
    ``check_case`` feeds them to the chain DP, which dedupes them, and
    ``psi_set`` builds its Spectrum from them.
    """
    if t < 0 or t > n:
        raise DomainError(f"psi needs 0 <= t <= n, got n={n}, t={t}")
    return _layer_sizes(kind, n, 2, math.perm(n, 2), _core_layers(n - t)[2 : n - t + 1])


def psi_set(kind: GroupKind, n: int, t: int) -> Spectrum:
    """Class sizes in V_n of elements moving between 2 and n - t points.

    Empty when n - t < 2. Computed through the closed form
    C(n, m) * |class in Sym_m| rather than by dividing group orders.
    The Lagrange check runs against gcd(|V_n|, n!/t!): a size of support
    m <= n - t divides n!/(n-m)! and so n!/t!. For Alt with t <= 1 that
    gcd is n!/2, and otherwise it is n!/t!: 343 bits against 12,202 for
    n! at n = 1360, t = 1327.
    """
    sizes = _psi_sizes(kind, n, t)  # refuses t outside 0..n first
    return Spectrum.build(sizes, kind, n, math.gcd(group_order(kind, n), math.perm(n, n - t)))
