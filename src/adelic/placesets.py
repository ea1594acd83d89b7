"""The decidable Boolean algebra of finite-place sets.

Over the rationals a set is stored as a union of "cells" plus a finite
modification.  A cell fixes, for each extension field in the set's
context, one unramified splitting class (every e = 1, so one residue
degree f per part of a partition of the field's degree); its members are
the primes realizing all of those classes at once.  Finite sets are the
special case of no cells, and cofinite sets have every cell.  Membership
of any prime is decided by factoring it in each context field.

The cells are one int, `mask`: bit i stands for the i-th cell of
`product(*(unramified_classes(K) for K in context))`, so the last context
field varies fastest and the bit order depends on the context alone.
Coordinate i of a context whose fields have n_0, n_1, ... classes then
has stride n_(i+1) * n_(i+2) * ...: the cell with class c there is the
cell with class 0 there shifted up by c strides.  Over a common context,
union, intersection and complement are `|`, `&` and a masked `~`; a set
moves to a larger context by OR-ing, per set bit, the mask of the cells
over that bit (its spread).

A context is one interned `Context`, the tuple of its fields sorted by
coefficients: equal field tuples are the same object, which hashes by
identity, so no table lookup re-hashes the fields.  It owns the tables
of its bit layout, each built on first use: its discriminant primes, per
coordinate the two masks of the cylinder test below, its cells, the bit
of each prime read so far, and dicts keyed by another context for the
spread to a larger context, the join with another and the context left
when coordinates are dropped.

The primes of `places.disc_primes` of a context polynomial (the ramified
primes below desk scale and those dividing the index of the polynomial
order) belong to no cell; their membership is always recorded explicitly
in the finite modification.  So the atom of a ramified class, and every
other set of primes defined by ramified classes, is structurally finite.
A prime's joint class over a context is read once, as a bit index, into
the context's table; a discriminant prime reads the cell count, a bit no
mask sets.

Canonical form: a context field K is dropped exactly when the cells are a
cylinder along K, i.e. every group of cells agreeing off K holds all the
classes of K; the finite modification is then recomputed pointwise, once.
With zero the mask of the cells of class 0 along K and copies the sum of
2**(c * stride) over the classes c of K, the cells are a cylinder along K
exactly when `(mask & zero) * copies == mask`: the product puts one copy
of the class-0 cells at each class of K, and the copies do not overlap,
so no carry occurs.  Dropping one cylinder field
neither creates nor removes another, so the fields to drop are decided in
one pass over the original mask and do not depend on order; the kept
cells are those whose spread in the original context meets the mask.
Structurally different but pointwise-equal descriptions (say, a cell that
no prime realizes versus no cell) can remain distinct; all Boolean
identities hold on canonical forms, and the pointwise semantics is exact.
The operands' membership at the primes a result must check (its
context's discriminant primes and the operands' modifications) is read
from their parts, not through `contains_prime`, whose desk-scale check
those primes have already passed.

Over an extension field of degree n, a set stores n coordinates of
rational-level sets: coordinate j holds the primes whose fiber has the
j-th place (in canonical fiber order) in the set.  Boolean operations act
coordinate-wise, and the fiber-position view also models section sets for
the restriction map, where position j of a fiber shorter than j means the
fiber's first place.  Operands over different fields raise
`FieldMismatch`.

This module alone chooses between the two set types for a field:
`empty_set(field)` and `finite_set(field, places)` build a `QPlaceSet`
over the rationals and a `KPlaceSet` over an extension, and every other
module builds its field-generic sets through them.
"""

from __future__ import annotations

from collections.abc import Set
from functools import cached_property, lru_cache, wraps
from itertools import product
from math import prod

from .errors import FieldMismatch
from .numberfields import NumberField, RATIONALS, read_int
from .places import (
    FinitePlace,
    check_desk_scale,
    check_prime,
    class_label,
    disc_primes,
    excluded_primes,
    parse_class_label,
    splitting_class,
    unramified_classes,
)
from .primes import isprime
from .records import Record
from .registry import ensure_registered

ClassId = tuple[tuple[int, int], ...]
Cell = tuple[ClassId, ...]


def denotes(p: int, context: Context, mask: int) -> bool:
    """Whether p's joint class over the context is a cell of the mask."""
    bit = context.bits.get(p)
    if bit is None:
        bit = context.read_bit(p)
    return mask >> bit & 1 == 1


class QPlaceSet(Record):
    """A describable set of finite places of the rationals (primes): the
    cells of `mask` over the context fields, with the primes plus added
    and minus taken out."""

    __slots__ = ("context", "mask", "plus", "minus")

    @property
    def cells(self) -> "Cells":
        return Cells(self.context, self.mask)

    # -- membership ------------------------------------------------------

    def contains_prime(self, p: int) -> bool:
        check_desk_scale(p)
        if p in self.plus:
            return True
        if p in self.minus:
            return False
        return denotes(p, self.context, self.mask)

    def contains_place(self, w: FinitePlace) -> bool:
        if w.field != RATIONALS:
            raise FieldMismatch("rational-level set queried with an extension place")
        return self.contains_prime(w.p)

    # -- structure -------------------------------------------------------

    @property
    def field(self) -> NumberField:
        return RATIONALS

    def is_empty(self) -> bool:
        return not self.mask and not self.plus

    def is_everything(self) -> bool:
        return self == all_primes()

    # -- Boolean algebra --------------------------------------------------

    def complement(self) -> "QPlaceSet":
        ctx = self.context
        checked = ctx.disc_primes.union(self.plus, self.minus)
        return _canonical(ctx, ctx.every & ~self.mask, checked,
                          checked.difference(_inside(self, checked)))

    def union(self, other: "QPlaceSet") -> "QPlaceSet":
        a, b, ctx = _aligned(self, other)
        checked = ctx.disc_primes.union(self.plus, self.minus, other.plus, other.minus)
        return _canonical(ctx, a | b, checked,
                          _inside(self, checked) | _inside(other, checked))

    def intersect(self, other: "QPlaceSet") -> "QPlaceSet":
        a, b, ctx = _aligned(self, other)
        checked = ctx.disc_primes.union(self.plus, self.minus, other.plus, other.minus)
        return _canonical(ctx, a & b, checked,
                          _inside(self, checked) & _inside(other, checked))

    def difference(self, other: "QPlaceSet") -> "QPlaceSet":
        return self.intersect(other.complement())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        ctx = "|".join(",".join(str(c) for c in K.coeffs) for K in self.context)
        cells = ";".join(sorted(
            ("*".join(class_label(cls) for cls in cell) or "~")
            for cell in self.cells
        ))
        plus = ",".join(str(p) for p in sorted(self.plus))
        minus = ",".join(str(p) for p in sorted(self.minus))
        return f"q{{ctx[{ctx}] cells[{cells}] plus[{plus}] minus[{minus}]}}"

    def __repr__(self):
        return self.to_text()


class Cells(Set):
    """The cells of a set, read from its mask as joint classes."""

    __slots__ = ("context", "mask")

    def __init__(self, context, mask: int):
        self.context, self.mask = context, mask

    def __contains__(self, cell) -> bool:
        bit = self.context.cell_bit(cell)
        return bit is not None and self.mask >> bit & 1 == 1

    def __iter__(self):
        cells, rest = self.context.cells, self.mask
        while rest:
            low = rest & -rest
            yield cells[low.bit_length() - 1]
            rest ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()


# -- contexts and the bit layout ---------------------------------------------


class Context(tuple):
    """The fields of a set's context, sorted by coefficients, as one
    interned object: `_interned` returns the same object for equal field
    tuples, so a context hashes by identity and owns the tables of its
    bit layout."""

    __hash__ = object.__hash__

    def __init__(self, fields):
        self.classes = tuple(map(unramified_classes, fields))
        sizes = [len(classes) for classes in self.classes]
        self.size = prod(sizes)  # the cell count; no mask sets this bit
        self.every = (1 << self.size) - 1
        self.disc_primes = frozenset().union(*map(disc_primes, fields))
        # per coordinate: the mask of the cells of class 0 there, and the
        # sum of 2**(c * stride) over its classes c
        self.axes = tuple(
            (_pattern(sizes, [0 if j == i else None for j in range(len(sizes))]),
             sum(1 << c * prod(sizes[i + 1:]) for c in range(n)))
            for i, n in enumerate(sizes)
        )
        self.bits = {}     # prime -> the bit of its joint class, `size` for a disc prime
        self.spreads = {}  # larger context -> per cell of this one, the cells over it
        self.joins = {}    # other context -> the context of both
        self.kept = {}     # mask of dropped coordinates -> the context of the rest

    @cached_property
    def cells(self) -> tuple[Cell, ...]:
        return tuple(product(*self.classes))

    def cell_bit(self, cell) -> int | None:
        """The bit of a joint unramified class over the context; None for
        anything else."""
        if cell is None or len(cell) != len(self):
            return None
        bit = 0
        for cls, classes in zip(cell, self.classes):
            if cls not in classes:
                return None
            bit = bit * len(classes) + classes.index(cls)
        return bit

    def cylinders(self, mask: int) -> int:
        """The coordinates along which the cells of the mask are a
        cylinder, as the bits of an int."""
        drop = 0
        for i, (zero, copies) in enumerate(self.axes):
            if (mask & zero) * copies == mask:
                drop |= 1 << i
        return drop

    def read_bit(self, p: int) -> int:
        """The bit of p's joint class, read once: `size` when p is one of
        the context's discriminant primes."""
        bit = self.bits[p] = self.size if p in self.disc_primes else \
            self.cell_bit(tuple([splitting_class(K, p) for K in self]))
        return bit


_CONTEXTS: dict[tuple, Context] = {}


def _interned(fields: tuple) -> Context:
    """The context of a plain tuple of fields sorted by coefficients."""
    context = _CONTEXTS.get(fields)
    if context is None:
        context = _CONTEXTS[fields] = Context(fields)
    return context


def _pattern(sizes, digits) -> int:
    """The mask of the cells with class digits[i] at every coordinate i
    where that is not None, over coordinates of sizes[i] classes."""
    mask, block = 1, 1
    for n, d in zip(reversed(sizes), reversed(digits)):
        if d is None:  # n copies of the block, one stride apart
            mask *= ((1 << block * n) - 1) // ((1 << block) - 1)
        else:
            mask <<= d * block
        block *= n
    return mask


def _spread(small: Context, large: Context) -> tuple[int, ...]:
    """Per cell of `small`, a context within `large`, the mask of the
    cells of `large` over it."""
    spread = small.spreads.get(large)
    if spread is None:
        sizes = [len(classes) for classes in large.classes]
        where = [large.index(K) for K in small]
        out = []
        for cell in product(*(range(len(classes)) for classes in small.classes)):
            digits = [None] * len(large)
            for i, d in zip(where, cell):
                digits[i] = d
            out.append(_pattern(sizes, digits))
        spread = small.spreads[large] = tuple(out)
    return spread


def _joined(a: Context, b: Context) -> Context:
    if a is b:
        return a
    joined = a.joins.get(b)
    if joined is None:
        joined = a.joins[b] = _interned(tuple(sorted(set(a) | set(b), key=lambda K: K.coeffs)))
    return joined


def _aligned(a: QPlaceSet, b: QPlaceSet):
    if not isinstance(b, QPlaceSet):
        raise FieldMismatch("place sets over different fields")
    ctx = _joined(a.context, b.context)
    return _extend(a, ctx), _extend(b, ctx), ctx


def _extend(s: QPlaceSet, ctx: Context) -> int:
    """The mask of s re-expressed over a larger context.  Membership at
    the new context's discriminant primes is left to `_canonical`."""
    if s.context is ctx:
        return s.mask
    spread, rest, out = _spread(s.context, ctx), s.mask, 0
    while rest:
        low = rest & -rest
        out |= spread[low.bit_length() - 1]
        rest ^= low
    return out


def _inside(s: QPlaceSet, primes) -> set[int]:
    """The primes among `primes` that s contains, read from its parts."""
    plus, minus, context, mask = s.plus, s.minus, s.context, s.mask
    return {p for p in primes if p in plus or p not in minus and denotes(p, context, mask)}


def _canonical(context: Context, mask: int, checked, inside) -> QPlaceSet:
    """The canonical set containing the primes of `inside` among those of
    `checked` and otherwise given by `mask` over `context`; `checked`
    holds the context's discriminant primes."""
    drop = context.cylinders(mask)
    if drop:
        keep = context.kept.get(drop)
        if keep is None:
            keep = context.kept[drop] = _interned(
                tuple(K for i, K in enumerate(context) if not drop >> i & 1))
        mask = sum(1 << i for i, spread in enumerate(_spread(keep, context)) if mask & spread)
        context = keep
    plus, minus = [], []
    for p in checked:
        m = p in inside
        if m != denotes(p, context, mask):
            (plus if m else minus).append(p)
    return QPlaceSet(context, mask, frozenset(plus), frozenset(minus))


def _from_parts(context: Context, mask, plus=frozenset(), minus=frozenset()) -> QPlaceSet:
    """The canonical form of `mask` over `context` with the primes of
    `plus` added and those of `minus` removed."""
    checked = context.disc_primes.union(plus, minus)
    return _canonical(context, mask, checked,
                      _inside(QPlaceSet(context, mask, plus, minus), checked))


# -- constructors ---------------------------------------------------------

_NO_PRIMES = frozenset()
_NO_FIELDS = _interned(())


def empty_qset() -> QPlaceSet:
    return QPlaceSet(_NO_FIELDS, 0, _NO_PRIMES, _NO_PRIMES)


@lru_cache(maxsize=1)
def all_primes() -> QPlaceSet:
    return QPlaceSet(_NO_FIELDS, 1, _NO_PRIMES, _NO_PRIMES)


def _checked_primes(primes) -> frozenset[int]:
    out = frozenset(primes)
    for p in out:
        check_prime(p)
    return out


def finite_qset(primes) -> QPlaceSet:
    return QPlaceSet(_NO_FIELDS, 0, _checked_primes(primes), _NO_PRIMES)


def _per_field(build):
    """`build(field, arg)`, cached per (field, arg); the field is
    registered at every call, outside the cache."""
    cached = lru_cache(maxsize=None)(build)

    @wraps(build)
    def query(field: NumberField, arg):
        ensure_registered(field)
        return cached(field, arg)

    return query


def _class_set(field: NumberField, wanted) -> QPlaceSet:
    """The primes whose splitting class in the field satisfies `wanted`:
    a cell per unramified class, the discriminant primes listed."""
    plus = {p for p in disc_primes(field).difference(excluded_primes(field))
            if wanted(splitting_class(field, p))}
    mask = sum(1 << i for i, cls in enumerate(unramified_classes(field)) if wanted(cls))
    return _from_parts(_interned((field,)), mask, plus)


@_per_field
def class_atom(field: NumberField, cls: ClassId) -> QPlaceSet:
    """All primes with the given splitting class in the extension field;
    a finite set when the class is ramified."""
    cls = tuple(sorted(cls))
    if any(e < 1 or f < 1 for e, f in cls) or sum(e * f for e, f in cls) != field.degree:
        raise ValueError(f"{cls} is not a splitting class of degree {field.degree}")
    return _class_set(field, lambda c: c == cls)


@_per_field
def fiber_size_at_least(field: NumberField, j: int) -> QPlaceSet:
    """Primes with at least j places above them in the extension field."""
    return _class_set(field, lambda cls: len(cls) >= j)


@_per_field
def fiber_size_exactly(field: NumberField, m: int) -> QPlaceSet:
    return _class_set(field, lambda cls: len(cls) == m)


# -- extension-level sets --------------------------------------------------


class KPlaceSet(Record):
    """A describable set of finite places of the extension field.

    coords[j] is the rational-level set of primes p such that the place at
    position j (0-based) of the fiber above p lies in the set.
    """

    __slots__ = ("field", "coords")

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("place sets over different fields")

    # -- membership ------------------------------------------------------

    def contains_place(self, w: FinitePlace) -> bool:
        if w.field != self.field:
            raise FieldMismatch("place does not belong to this field")
        return self.coords[w.index].contains_prime(w.p)

    def is_empty(self) -> bool:
        return all(c.is_empty() for c in self.coords)

    def is_everything(self) -> bool:
        return self == everything_kset(self.field)

    # -- Boolean algebra --------------------------------------------------

    def union(self, other: "KPlaceSet") -> "KPlaceSet":
        self._check(other)
        return KPlaceSet(self.field, tuple(a.union(b) for a, b in zip(self.coords, other.coords)))

    def intersect(self, other: "KPlaceSet") -> "KPlaceSet":
        self._check(other)
        return KPlaceSet(self.field, tuple(a.intersect(b) for a, b in zip(self.coords, other.coords)))

    def complement(self) -> "KPlaceSet":
        coords = tuple(
            fiber_size_at_least(self.field, j + 1).difference(c)
            for j, c in enumerate(self.coords)
        )
        return KPlaceSet(self.field, coords)

    def difference(self, other: "KPlaceSet") -> "KPlaceSet":
        return self.intersect(other.complement())

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        f = ",".join(str(c) for c in self.field.coeffs)
        parts = [
            f"{j + 1}:{c.to_text()}"
            for j, c in enumerate(self.coords)
            if not c.is_empty()
        ]
        return f"k{{field[{f}] {' '.join(parts)}}}"

    def __repr__(self):
        return self.to_text()


def _clamped(field: NumberField, j: int, s: QPlaceSet) -> QPlaceSet:
    return s.intersect(fiber_size_at_least(field, j + 1))


def kset_from_coords(field: NumberField, coords) -> KPlaceSet:
    ensure_registered(field)
    coords = list(coords)
    assert len(coords) == field.degree
    return KPlaceSet(field, tuple(_clamped(field, j, c) for j, c in enumerate(coords)))


def empty_kset(field: NumberField) -> KPlaceSet:
    return KPlaceSet(field, tuple(empty_qset() for _ in range(field.degree)))


def everything_kset(field: NumberField) -> KPlaceSet:
    return kset_from_coords(field, [all_primes()] * field.degree)


# -- field-generic constructors ---------------------------------------------


def empty_set(field: NumberField):
    return empty_qset() if field == RATIONALS else empty_kset(field)


def finite_set(field: NumberField, places):
    """The set of the given finite places of the field."""
    primes = [[] for _ in range(field.degree)]
    for w in places:
        if w.field != field:
            raise FieldMismatch("place does not belong to this field")
        primes[w.index].append(w.p)
    if field == RATIONALS:
        return finite_qset(primes[0])
    return KPlaceSet(field, tuple(map(finite_qset, primes)))


def section_image(field: NumberField, position: int, base: QPlaceSet) -> KPlaceSet:
    """The places occupying fiber position `position` (1-based) above the
    primes of `base`, padding short fibers with their first place."""
    ensure_registered(field)
    if not 1 <= position <= field.degree:
        raise ValueError(f"section position {position} out of range")
    coords = [empty_qset() for _ in range(field.degree)]
    tall = fiber_size_at_least(field, position)
    coords[position - 1] = base.intersect(tall)
    if position > 1:
        short = fiber_size_at_least(field, 1).difference(tall)
        coords[0] = base.intersect(short)
    return kset_from_coords(field, coords)


def full_preimage(field: NumberField, base: QPlaceSet) -> KPlaceSet:
    """All places of the extension field above the primes of `base`."""
    ensure_registered(field)
    return kset_from_coords(field, [base] * field.degree)


# -- parsing ---------------------------------------------------------------


def parse_qset(text: str) -> QPlaceSet:
    """Read the text `to_text` prints, and refuse any other."""
    (ctx, cells_text, plus_text, minus_text), _ = text_blocks(
        text, "q", ("ctx", "cells", "plus", "minus"))
    fields = tuple(
        NumberField(tuple(read_int(c) for c in chunk.split(",")))
        for chunk in split_items(ctx, "|")
    )
    if any(a.coeffs >= b.coeffs for a, b in zip(fields, fields[1:])):
        raise ValueError("context fields must be distinct and sorted by coefficients")
    for K in fields:
        ensure_registered(K)
    context = _interned(fields)
    mask = 0
    for cell_text in split_items(cells_text, ";"):
        cell = () if cell_text == "~" else \
            tuple(parse_class_label(cl) for cl in cell_text.split("*"))
        bit = context.cell_bit(cell)
        if bit is None:
            raise ValueError(f"cell {cell_text!r} is not a joint unramified class of the context")
        mask |= 1 << bit
    plus = frozenset(map(read_int, split_items(plus_text, ",")))
    minus = frozenset(map(read_int, split_items(minus_text, ",")))
    check_desk_scale(max(plus | minus, default=0))
    nonprimes = sorted(p for p in plus | minus if not isprime(p))
    if nonprimes:
        raise ValueError(f"numbers {nonprimes} are not prime")
    return printed(_from_parts(context, mask, plus, minus), text)


def parse_kset(text: str) -> KPlaceSet:
    """Read the text `to_text` prints, and refuse any other: the field
    block of an extension field, then one space, then the nonempty
    coordinates in increasing position, one space apart."""
    (coeffs,), rest = text_blocks(text, "k", ("field",))
    field = NumberField(tuple(read_int(c) for c in coeffs.split(",")))
    if field.degree < 2:
        raise ValueError(f"k{{...}} sets live over extension fields: {text!r}")
    coords, rest = {}, rest[1:]
    while rest:
        colon = rest.index(":")
        end = matching_bracket(rest, colon)
        coords[read_int(rest[:colon])] = parse_qset(rest[colon + 1:end + 1])
        rest = rest[end + 2:]
    read = [coords.get(j, empty_qset()) for j in range(1, field.degree + 1)]
    return printed(kset_from_coords(field, read), text)


def printed(value, text: str):
    """`value`, read from `text`, if it prints as `text`; a text that
    would print back otherwise is refused."""
    if value.to_text() != text:
        raise ValueError(f"{text!r} prints back as {value.to_text()!r}")
    return value


def text_blocks(text: str, head: str, keys) -> tuple[list[str], str]:
    """The bodies of the blocks of `head{key[...] key[...] ...}`, one per
    key in the order of `keys` and one space apart, and the text left
    between the last block and the closing brace."""
    if not text.startswith(head + "{") or matching_bracket(text, len(head)) != len(text) - 1:
        raise ValueError(f"bad {head}{{...}} text: {text!r}")
    bodies, pos = [], len(head) + 1
    for key in keys:
        opening = (" " if bodies else "") + key + "["
        if not text.startswith(opening, pos):
            raise ValueError(f"expected {opening.strip()!r} at offset {pos} of {text!r}")
        start = pos + len(opening) - 1
        end = matching_bracket(text, start)
        bodies.append(text[start + 1:end])
        pos = end + 1
    return bodies, text[pos:-1]


def split_items(text: str, sep: str) -> list[str]:
    """The items of a `sep`-separated list: none for an empty text, and an
    empty item is refused."""
    items = text.split(sep) if text else []
    if "" in items:
        raise ValueError(f"empty item in the list {text!r}")
    return items


def matching_bracket(text: str, start: int) -> int:
    """The index of the bracket closing the first `[` or `{` at or after
    `start`; brackets of both kinds nest."""
    depth = 0
    for i in range(start, len(text)):
        if text[i] in "[{":
            depth += 1
        elif text[i] in "]}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError(f"unbalanced brackets in {text!r}")
