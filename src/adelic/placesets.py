"""The decidable Boolean algebra of finite-place sets.

Over the rationals a set is stored as a union of "cells" plus a finite
modification.  A cell fixes, for each extension field in the set's
context, one splitting class; its members are the primes realizing all of
those classes at once.  Finite sets are the special case of no cells, and
cofinite sets have every cell.  Membership of any prime is decided by
factoring it in each context field.

Primes excluded by a context field (the finitely many dividing the index
of its polynomial order) belong to no cell; their membership is always
recorded explicitly in the finite modification.

Canonical form: a context field K is dropped exactly when the cells are a
cylinder along K, i.e. every group of cells agreeing off K holds all the
classes of K; the finite modification is then recomputed pointwise, once.
Dropping one cylinder field neither creates nor removes another, so the
fields to drop are decided in one pass over the original cells and do not
depend on order.  Since every cell holds one valid class per context field
(`parse_qset` rejects any other text), the cells are a cylinder along K
exactly when projecting K away divides their number by K's class count.
Structurally different but pointwise-equal descriptions (say, a ramified
class atom versus the explicit finite set of ramified primes) can remain
distinct; all Boolean identities hold on canonical forms, and the
pointwise semantics is exact.

Over an extension field of degree n, a set stores n coordinates of
rational-level sets: coordinate j holds the primes whose fiber has the
j-th place (in canonical fiber order) in the set.  Boolean operations act
coordinate-wise, and the fiber-position view also models section sets for
the restriction map, where position j of a fiber shorter than j means the
fiber's first place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import config
from .errors import FieldMismatch, UnsupportedPrime
from .numberfields import NumberField, RATIONALS
from .places import (
    FinitePlace,
    all_splitting_classes,
    class_label,
    excluded_primes,
    parse_class_label,
    splitting_class,
)
from .primes import primerange
from .registry import ensure_registered

ClassId = tuple[tuple[int, int], ...]
Cell = tuple[ClassId, ...]


def _classes(field: NumberField) -> tuple[ClassId, ...]:
    return all_splitting_classes(field.degree)


def _excluded_union(context) -> frozenset[int]:
    out: set[int] = set()
    for K in context:
        out.update(excluded_primes(K))
    return frozenset(out)


def _cell_of_prime(p: int, context) -> Cell | None:
    """The joint splitting class of p, or None when p is excluded."""
    cell = []
    for K in context:
        if p in excluded_primes(K):
            return None
        cell.append(splitting_class(K, p))
    return tuple(cell)


def _denotes(p: int, context, cells) -> bool:
    cell = _cell_of_prime(p, context)
    return cell is not None and cell in cells


@dataclass(frozen=True)
class QPlaceSet:
    """A describable set of finite places of the rationals (primes)."""

    context: tuple[NumberField, ...]
    cells: frozenset[Cell]
    plus: frozenset[int]
    minus: frozenset[int]

    # -- membership ------------------------------------------------------

    def contains_prime(self, p: int) -> bool:
        if p >= config.DEFAULT.factor_cap:
            raise UnsupportedPrime(f"prime {p} exceeds the desk-scale bound")
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

    def is_structurally_finite(self) -> bool:
        """True when the canonical form exhibits the set as finite."""
        return not self.cells

    def finite_members(self) -> frozenset[int]:
        if not self.is_structurally_finite():
            raise ValueError("set is not structurally finite")
        return self.plus

    def finite_places(self) -> list[FinitePlace]:
        from .places import factor_prime

        return [factor_prime(RATIONALS, p)[0] for p in sorted(self.finite_members())]

    def members_below(self, bound: int) -> list[int]:
        return [p for p in primerange(2, bound) if self.contains_prime(p)]

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

    def with_prime(self, p: int) -> "QPlaceSet":
        return self.union(finite_qset([p]))

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
    return frozenset(product(*(_classes(K) for K in context)))


def _raw(context, cells, plus, minus) -> QPlaceSet:
    return QPlaceSet(tuple(context), frozenset(cells), frozenset(plus), frozenset(minus))


def _aligned(a: QPlaceSet, b: QPlaceSet):
    ctx = tuple(sorted(set(a.context) | set(b.context), key=lambda K: K.coeffs))
    return _extend(a, ctx), _extend(b, ctx), ctx


def _extend(s: QPlaceSet, ctx) -> frozenset[Cell]:
    """The cells of s re-expressed over a larger context.  Membership at
    the new context's excluded primes is left to `_canonical`."""
    if s.context == ctx:
        return s.cells
    where = [s.context.index(K) if K in s.context else None for K in ctx]
    return frozenset(
        out
        for cell in s.cells
        for out in product(*(_classes(K) if i is None else (cell[i],)
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
    the context's excluded primes."""
    keep = [i for i, K in enumerate(context) if not _cylinder(cells, i, len(_classes(K)))]
    checked = set(candidates) | _excluded_union(context)
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


def finite_qset(primes) -> QPlaceSet:
    return _raw((), (), frozenset(primes), ())


def cofinite_qset(missing) -> QPlaceSet:
    return _raw((), {()}, (), frozenset(missing))


def class_atom(field: NumberField, cls: ClassId) -> QPlaceSet:
    """All primes with the given splitting class in the extension field."""
    ensure_registered(field)
    cls = tuple(sorted(cls))
    if cls not in _classes(field):
        raise ValueError(f"{cls} is not a splitting class of degree {field.degree}")
    return _from_parts((field,), {(cls,)})


def fiber_size_at_least(field: NumberField, j: int) -> QPlaceSet:
    """Primes with at least j places above them in the extension field."""
    ensure_registered(field)
    cells = {(cls,) for cls in _classes(field) if len(cls) >= j}
    return _from_parts((field,), cells)


def fiber_size_exactly(field: NumberField, m: int) -> QPlaceSet:
    ensure_registered(field)
    cells = {(cls,) for cls in _classes(field) if len(cls) == m}
    return _from_parts((field,), cells)


def supported_qset(field: NumberField) -> QPlaceSet:
    """Primes whose places in the extension field exist in the model."""
    return cofinite_qset(excluded_primes(field))


# -- extension-level sets --------------------------------------------------


@dataclass(frozen=True)
class KPlaceSet:
    """A describable set of finite places of an extension field.

    coords[j] is the rational-level set of primes p such that the place at
    position j (0-based) of the fiber above p lies in the set.
    """

    field: NumberField
    coords: tuple[QPlaceSet, ...]

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

    def is_structurally_finite(self) -> bool:
        return all(c.is_structurally_finite() for c in self.coords)

    def finite_places(self) -> list[FinitePlace]:
        from .places import factor_prime

        out = []
        for j, coord in enumerate(self.coords):
            for p in sorted(coord.finite_members()):
                out.append(factor_prime(self.field, p)[j])
        return sorted(out, key=lambda w: (w.p, w.index))

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

    def with_place(self, w: FinitePlace) -> "KPlaceSet":
        coords = list(self.coords)
        coords[w.index] = coords[w.index].with_prime(w.p)
        return KPlaceSet(self.field, tuple(coords))

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


def finite_kset(field: NumberField, places) -> KPlaceSet:
    out = empty_kset(field)
    for w in places:
        out = out.with_place(w)
    return out


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


def pullback_section(s: KPlaceSet, position: int) -> QPlaceSet:
    """Primes whose fiber-position-`position` place (padded) lies in s."""
    field = s.field
    out = empty_qset()
    for m in range(1, field.degree + 1):
        j = position if position <= m else 1
        out = out.union(fiber_size_exactly(field, m).intersect(s.coords[j - 1]))
    return out


# -- parsing ---------------------------------------------------------------


def parse_qset(text: str) -> QPlaceSet:
    if not (text.startswith("q{") and text.endswith("}")):
        raise ValueError(f"bad rational place-set text: {text!r}")
    body = text[2:-1]
    fields = {}
    for key in ("ctx", "cells", "plus", "minus"):
        start = body.index(key + "[") + len(key) + 1
        end = body.index("]", start)
        fields[key] = body[start:end]
    context = tuple(
        NumberField(tuple(int(c) for c in chunk.split(",")))
        for chunk in fields["ctx"].split("|")
        if chunk
    )
    if any(a.coeffs >= b.coeffs for a, b in zip(context, context[1:])):
        raise ValueError("context fields must be distinct and sorted by coefficients")
    for K in context:
        ensure_registered(K)
    cells = set()
    for cell_text in fields["cells"].split(";") if fields["cells"] else ():
        cell = () if cell_text == "~" else \
            tuple(parse_class_label(cl) for cl in cell_text.split("*"))
        if len(cell) != len(context) or \
                any(cls not in _classes(K) for cls, K in zip(cell, context)):
            raise ValueError(f"cell {cell_text!r} is not a joint splitting class of the context")
        cells.add(cell)
    plus = frozenset(int(p) for p in fields["plus"].split(",") if p)
    minus = frozenset(int(p) for p in fields["minus"].split(",") if p)
    if plus & minus:
        raise ValueError(f"primes {sorted(plus & minus)} are both added and removed")
    return _from_parts(context, cells, plus, minus)


def parse_kset(text: str) -> KPlaceSet:
    if not (text.startswith("k{") and text.endswith("}")):
        raise ValueError(f"bad extension place-set text: {text!r}")
    body = text[2:-1]
    start = body.index("field[") + 6
    end = body.index("]", start)
    field = NumberField(tuple(int(c) for c in body[start:end].split(",")))
    coords = [empty_qset() for _ in range(field.degree)]
    rest = body[end + 1:].strip()
    while rest:
        colon = rest.index(":")
        position = int(rest[:colon])
        qend = _matching_brace(rest, colon + 1)
        coords[position - 1] = parse_qset(rest[colon + 1: qend + 1])
        rest = rest[qend + 1:].strip()
    return kset_from_coords(field, coords)


def _matching_brace(text: str, start: int) -> int:
    assert text[start] == "q" and text[start + 1] == "{"
    depth = 0
    for i in range(start + 1, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise ValueError("unbalanced braces in place-set text")
