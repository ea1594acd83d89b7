"""The decidable Boolean algebra of finite-place sets.

Over the rationals a set is stored as a union of "cells" plus a finite
modification.  A cell fixes, for each extension field in the set's
context, one unramified splitting class (every e = 1, so one residue
degree f per part of a partition of the field's degree); its members are
the primes realizing all of those classes at once.  Finite sets are the
special case of no cells, and cofinite sets have every cell.  Membership
of any prime is decided by factoring it in each context field.

The primes of `places.disc_primes` of a context polynomial (the ramified
primes below desk scale and those dividing the index of the polynomial
order) belong to no cell; their membership is always recorded explicitly
in the finite modification.  So the atom of a ramified class, and every
other set of primes defined by ramified classes, is structurally finite.

Canonical form: a context field K is dropped exactly when the cells are a
cylinder along K, i.e. every group of cells agreeing off K holds all the
classes of K; the finite modification is then recomputed pointwise, once.
Dropping one cylinder field neither creates nor removes another, so the
fields to drop are decided in one pass over the original cells and do not
depend on order.  Since every cell holds one valid class per context field
(`parse_qset` reads only what `to_text` prints), the cells are a cylinder
along K exactly when projecting K away divides their number by K's class
count.
Structurally different but pointwise-equal descriptions (say, a cell that
no prime realizes versus no cell) can remain distinct; all Boolean
identities hold on canonical forms, and the pointwise semantics is exact.

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

from functools import lru_cache
from itertools import product

from .errors import FieldMismatch
from .numberfields import NumberField, RATIONALS, read_int
from .places import (
    FinitePlace,
    check_desk_scale,
    check_prime,
    class_label,
    disc_primes,
    excluded_primes,
    joint_class,
    parse_class_label,
    splitting_class,
    unramified_classes,
)
from .primes import isprime
from .records import Record
from .registry import ensure_registered

ClassId = tuple[tuple[int, int], ...]
Cell = tuple[ClassId, ...]


def _denotes(p: int, context, cells) -> bool:
    cell = joint_class(p, context)
    return cell is not None and cell in cells


class QPlaceSet(Record):
    """A describable set of finite places of the rationals (primes)."""

    __slots__ = ("context", "cells", "plus", "minus")

    def __init__(self, context: tuple[NumberField, ...], cells: frozenset[Cell],
                 plus: frozenset[int], minus: frozenset[int]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    # -- membership ------------------------------------------------------

    def contains_prime(self, p: int) -> bool:
        check_desk_scale(p)
        if p in self.plus:
            return True
        if p in self.minus:
            return False
        return _denotes(p, self.context, self.cells)

    def contains_place(self, w: FinitePlace) -> bool:
        if w.field != RATIONALS:
            raise FieldMismatch("rational-level set queried with an extension place")
        return self.contains_prime(w.p)

    # -- structure -------------------------------------------------------

    @property
    def field(self) -> NumberField:
        return RATIONALS

    def is_empty(self) -> bool:
        return not self.cells and not self.plus

    def is_everything(self) -> bool:
        return self == all_primes()

    # -- Boolean algebra --------------------------------------------------

    def complement(self) -> "QPlaceSet":
        return _canonical(self.context, _all_cells(self.context) - self.cells,
                          lambda p: not self.contains_prime(p), self.plus | self.minus)

    def union(self, other: "QPlaceSet") -> "QPlaceSet":
        a, b, ctx = _aligned(self, other)
        return _canonical(ctx, a | b,
                          lambda p: self.contains_prime(p) or other.contains_prime(p),
                          self.plus | self.minus | other.plus | other.minus)

    def intersect(self, other: "QPlaceSet") -> "QPlaceSet":
        a, b, ctx = _aligned(self, other)
        return _canonical(ctx, a & b,
                          lambda p: self.contains_prime(p) and other.contains_prime(p),
                          self.plus | self.minus | other.plus | other.minus)

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


@lru_cache(maxsize=None)
def _all_cells(context) -> frozenset[Cell]:
    return frozenset(product(*(unramified_classes(K) for K in context)))


def _raw(context, cells, plus, minus) -> QPlaceSet:
    return QPlaceSet(tuple(context), frozenset(cells), frozenset(plus), frozenset(minus))


def _aligned(a: QPlaceSet, b: QPlaceSet):
    if not isinstance(b, QPlaceSet):
        raise FieldMismatch("place sets over different fields")
    ctx = tuple(sorted(set(a.context) | set(b.context), key=lambda K: K.coeffs))
    return _extend(a, ctx), _extend(b, ctx), ctx


def _extend(s: QPlaceSet, ctx) -> frozenset[Cell]:
    """The cells of s re-expressed over a larger context.  Membership at
    the new context's discriminant primes is left to `_canonical`."""
    if s.context == ctx:
        return s.cells
    where = [s.context.index(K) if K in s.context else None for K in ctx]
    return frozenset(
        out
        for cell in s.cells
        for out in product(*(unramified_classes(K) if i is None else (cell[i],)
                             for i, K in zip(where, ctx)))
    )


def _cylinder(cells, i: int, n: int) -> bool:
    """True when the cells hold all n classes of coordinate i above every
    combination of their other coordinates."""
    return len(cells) % n == 0 and \
        len({cell[:i] + cell[i + 1:] for cell in cells}) * n == len(cells)


def _canonical(context, cells, member, candidates) -> QPlaceSet:
    """The canonical set with pointwise membership `member`, given by
    `cells` over `context` everywhere except possibly at `candidates` and
    the context's discriminant primes."""
    keep = [i for i, K in enumerate(context)
            if not _cylinder(cells, i, len(unramified_classes(K)))]
    checked = set(candidates).union(*map(disc_primes, context))
    if len(keep) < len(context):
        context = tuple(context[i] for i in keep)
        cells = {tuple(cell[i] for i in keep) for cell in cells}
    plus, minus = set(), set()
    for p in checked:
        m = member(p)
        if m != _denotes(p, context, cells):
            (plus if m else minus).add(p)
    return _raw(context, cells, plus, minus)


def _from_parts(context, cells, plus=frozenset(), minus=frozenset()) -> QPlaceSet:
    """The canonical form of `cells` over `context` with the primes of
    `plus` added and those of `minus` removed."""
    def member(p):
        return p in plus or (p not in minus and _denotes(p, context, cells))

    return _canonical(context, cells, member, plus | minus)


# -- constructors ---------------------------------------------------------


def empty_qset() -> QPlaceSet:
    return _raw((), (), (), ())


@lru_cache(maxsize=1)
def all_primes() -> QPlaceSet:
    return _raw((), {()}, (), ())


def _checked_primes(primes) -> frozenset[int]:
    out = frozenset(primes)
    for p in out:
        check_prime(p)
    return out


def finite_qset(primes) -> QPlaceSet:
    return _raw((), (), _checked_primes(primes), ())


def cofinite_qset(missing) -> QPlaceSet:
    return _raw((), {()}, (), _checked_primes(missing))


def _class_set(field: NumberField, wanted) -> QPlaceSet:
    """The primes whose splitting class in the field satisfies `wanted`:
    a cell per unramified class, the discriminant primes listed."""
    ensure_registered(field)
    plus = {p for p in disc_primes(field).difference(excluded_primes(field))
            if wanted(splitting_class(field, p))}
    cells = {(cls,) for cls in unramified_classes(field) if wanted(cls)}
    return _from_parts((field,), cells, plus)


def class_atom(field: NumberField, cls: ClassId) -> QPlaceSet:
    """All primes with the given splitting class in the extension field;
    a finite set when the class is ramified."""
    cls = tuple(sorted(cls))
    if any(e < 1 or f < 1 for e, f in cls) or sum(e * f for e, f in cls) != field.degree:
        raise ValueError(f"{cls} is not a splitting class of degree {field.degree}")
    return _class_set(field, lambda c: c == cls)


def fiber_size_at_least(field: NumberField, j: int) -> QPlaceSet:
    """Primes with at least j places above them in the extension field."""
    return _class_set(field, lambda cls: len(cls) >= j)


def fiber_size_exactly(field: NumberField, m: int) -> QPlaceSet:
    return _class_set(field, lambda cls: len(cls) == m)


def supported_qset(field: NumberField) -> QPlaceSet:
    """Primes whose places in the extension field exist in the model."""
    return cofinite_qset(excluded_primes(field))


# -- extension-level sets --------------------------------------------------


class KPlaceSet(Record):
    """A describable set of finite places of an extension field.

    coords[j] is the rational-level set of primes p such that the place at
    position j (0-based) of the fiber above p lies in the set.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[QPlaceSet, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

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
        short = supported_qset(field).difference(tall)
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
    context = tuple(
        NumberField(tuple(read_int(c) for c in chunk.split(",")))
        for chunk in split_items(ctx, "|")
    )
    if any(a.coeffs >= b.coeffs for a, b in zip(context, context[1:])):
        raise ValueError("context fields must be distinct and sorted by coefficients")
    for K in context:
        ensure_registered(K)
    cells = set()
    for cell_text in split_items(cells_text, ";"):
        cell = () if cell_text == "~" else \
            tuple(parse_class_label(cl) for cl in cell_text.split("*"))
        if len(cell) != len(context) or \
                any(cls not in unramified_classes(K) for cls, K in zip(cell, context)):
            raise ValueError(f"cell {cell_text!r} is not a joint unramified class of the context")
        cells.add(cell)
    plus = frozenset(map(read_int, split_items(plus_text, ",")))
    minus = frozenset(map(read_int, split_items(minus_text, ",")))
    check_desk_scale(max(plus | minus, default=0))
    nonprimes = sorted(p for p in plus | minus if not isprime(p))
    if nonprimes:
        raise ValueError(f"numbers {nonprimes} are not prime")
    return printed(_from_parts(context, cells, plus, minus), text)


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
