"""Finite-data elements of the adele ring of a number field.

An adele stores exact field elements at the archimedean places, a finite
exceptional map at finitely many finite places (a set holding one
(place, value) entry per place), and a piecewise tail: a default
polynomial in the formal uniformizer symbol, overridden by other such
polynomials on a finite set of pairwise disjoint describable regions.
Both sets are unordered, so equal adeles hold equal sets; the printed
order of their entries belongs to `to_text` alone.  The symbol evaluates
at each finite place to that place's canonical uniformizer (p when
unramified, the lifted factor at the generator when ramified), which is
the image of a field element, so every component is exact field data and
valuations are certified integers.

Because nonzero tail coefficients are units at all but finitely many
places, the valuation of a tail is its lowest nonzero degree at almost
every place of its region; the finitely many deviating places sit above
primes dividing coefficient numerator norms or denominators and are
corrected pointwise.  That is what makes the zero set and the maximal-
ideal membership set of an adele describable, hence usable in ultrafilter
queries.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import FieldMismatch
from .localfields import INF, uniformizer_element, valuation_of_element
from .numberfields import FieldElement, NumberField, parse_element, read_int
from .places import (
    ArchimedeanPlace,
    FinitePlace,
    archimedean_places,
    factor_prime,
    place_above,
    supported_primes_dividing,
)
from .placesets import (
    empty_set,
    finite_set,
    parse_kset,
    parse_qset,
    printed,
    split_items,
    text_blocks,
)
from .polynomials import norm_int
from .records import Record


class TailPoly(Record):
    """Polynomial in the formal uniformizer over `field`: `coeffs` is a
    tuple of FieldElements, lowest degree first, with no trailing zero."""

    __slots__ = ("field", "coeffs")

    @staticmethod
    def make(field: NumberField, coeffs) -> "TailPoly":
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        return TailPoly(field, tuple(cs))

    @staticmethod
    def constant(x: FieldElement) -> "TailPoly":
        return TailPoly.make(x.field, [x])

    @staticmethod
    def zero(field: NumberField) -> "TailPoly":
        return TailPoly(field, ())

    @staticmethod
    def uniformizer_power(field: NumberField, k: int) -> "TailPoly":
        return TailPoly.make(field, [field.zero()] * k + [field.one()])

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int | float:
        """Lowest degree with a nonzero coefficient; INF for the zero tail.

        At every place where all nonzero coefficients are units this is the
        exact valuation of the evaluated tail."""
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                return i
        return INF

    def add(self, other: "TailPoly") -> "TailPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        zero = self.field.zero()
        return TailPoly.make(self.field, [
            (self.coeffs[i] if i < len(self.coeffs) else zero)
            + (other.coeffs[i] if i < len(other.coeffs) else zero)
            for i in range(n)
        ])

    def mul(self, other: "TailPoly") -> "TailPoly":
        if self.is_zero() or other.is_zero():
            return TailPoly.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return TailPoly.make(self.field, out)

    def neg(self) -> "TailPoly":
        return TailPoly(self.field, tuple(-c for c in self.coeffs))

    def value_at(self, w: FinitePlace) -> FieldElement:
        """Exact field element the tail takes at a finite place."""
        u = uniformizer_element(w)
        out = self.field.zero()
        for c in reversed(self.coeffs):
            out = out * u + c
        return out

    def suspect_primes(self) -> set[int]:
        """Primes above which some nonzero coefficient may be a non-unit."""
        out: set[int] = set()
        for c in self.coeffs:
            if not c.is_zero():
                out.update(_element_suspects(c))
        return out

    def to_text(self) -> str:
        return "&".join(c.to_text() for c in self.coeffs)

    def __repr__(self):
        return f"Tail({self.to_text() or '0'})"


def _element_suspects(c: FieldElement) -> set[int]:
    field = c.field
    out: set[int] = set()
    if c.den != 1:
        out.update(supported_primes_dividing(field, c.den))
    norm = norm_int(c.num, field.coeffs)
    if abs(norm) != 1:
        out.update(supported_primes_dividing(field, norm))
    return out


class Adele(Record):
    """A finite-data adele (field, arch, exceptional, overrides, tail); see
    the module docstring for the layout.

    `exceptional` is a frozenset with one (place, value) entry per place,
    and `overrides` a frozenset of (region, tail) entries whose regions are
    pairwise disjoint; `to_text` orders both when it prints them."""

    __slots__ = ("field", "arch", "exceptional", "overrides", "tail")

    # -- component access --------------------------------------------------

    def component_at(self, w: FinitePlace) -> FieldElement:
        """The exact component at a finite place."""
        if w.field != self.field:
            raise FieldMismatch("place of a different field")
        for place, value in self.exceptional:
            if place == w:
                return value
        for region, tail in self.overrides:
            if region.contains_place(w):
                return tail.value_at(w)
        return self.tail.value_at(w)

    def arch_at(self, v: ArchimedeanPlace) -> FieldElement:
        if v.field != self.field:
            raise FieldMismatch("place of a different field")
        return self.arch[v.index]

    def valuation_at(self, w: FinitePlace) -> int | float:
        """Exact valuation of the component at a finite place (INF at an
        exact zero)."""
        return valuation_of_element(self.component_at(w), w)

    def left_to_default(self, region):
        """The places of the region that no override of this adele takes."""
        for r, _ in self.overrides:
            region = region.difference(r)
        return region

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "Adele") -> None:
        if self.field != other.field:
            raise FieldMismatch("adeles over different fields")

    def add(self, other: "Adele") -> "Adele":
        self._check(other)
        return _combine(self, other, lambda a, b: a + b, lambda s, t: s.add(t))

    def mul(self, other: "Adele") -> "Adele":
        self._check(other)
        return _combine(self, other, lambda a, b: a * b, lambda s, t: s.mul(t))

    def neg(self) -> "Adele":
        arch = tuple(-x for x in self.arch)
        exceptional = frozenset((w, -v) for w, v in self.exceptional)
        overrides = frozenset((r, t.neg()) for r, t in self.overrides)
        return Adele(self.field, arch, exceptional, overrides, self.tail.neg())

    def sub(self, other: "Adele") -> "Adele":
        return self.add(other.neg())

    # -- global views ------------------------------------------------------

    def suspect_primes(self) -> set[int]:
        out = {w.p for w, _ in self.exceptional}
        out |= self.tail.suspect_primes()
        for _, t in self.overrides:
            out |= t.suspect_primes()
        return out

    def membership_set(self, predicate: str):
        """The describable set where the component is zero / in the maximal
        ideal of the local ring.

        predicate: "is_zero" (valuation INF) or "in_m" (valuation >= 1).
        """
        if predicate not in ("is_zero", "in_m"):
            raise ValueError(f"unknown predicate {predicate!r}")

        def holds(val) -> bool:
            return val == INF if predicate == "is_zero" else val >= 1

        # the override regions whose verdict differs from the default
        # tail's, complemented when the default's verdict holds
        default = holds(self.tail.min_degree())
        out = empty_set(self.field)
        for region, tail in self.overrides:
            if holds(tail.min_degree()) != default:
                out = out.union(region)
        if default:
            out = out.complement()
        # pointwise corrections above suspect primes
        added, dropped = [], []
        for p in sorted(self.suspect_primes()):
            for w in factor_prime(self.field, p):
                actual = holds(self.valuation_at(w))
                if actual != out.contains_place(w):
                    (added if actual else dropped).append(w)
        if added:
            out = out.union(finite_set(self.field, added))
        if dropped:
            out = out.difference(finite_set(self.field, dropped))
        return out

    def to_text(self) -> str:
        arch = "|".join(x.to_text() for x in self.arch)
        exc = ";".join(
            f"{w.p}:{w.index}={v.to_text()}"
            for w, v in sorted(self.exceptional, key=lambda t: (t[0].p, t[0].index))
        )
        # region texts are distinct, since the regions are disjoint and nonempty
        ovr = "||".join(f"{r}->{t}" for r, t in sorted(
            (region.to_text(), tail.to_text()) for region, tail in self.overrides))
        f = ",".join(str(c) for c in self.field.coeffs)
        return (f"adele{{field[{f}] arch[{arch}] exc[{exc}] "
                f"ovr[{ovr}] tail[{self.tail.to_text()}]}}")

    def __repr__(self):
        return self.to_text()


@lru_cache(maxsize=8192)
def membership_set(alpha: Adele, predicate: str):
    """Cached front door for Adele.membership_set, for callers whose answer
    is the exact set: the CLI's `witness=` line and `ClosedIdeal.member`."""
    return alpha.membership_set(predicate)


def _combine(a: Adele, b: Adele, field_op, tail_op) -> Adele:
    arch = tuple(field_op(x, y) for x, y in zip(a.arch, b.arch))
    places = {w for w, _ in a.exceptional} | {w for w, _ in b.exceptional}
    exceptional = frozenset((w, field_op(a.component_at(w), b.component_at(w)))
                            for w in places)
    default_tail = tail_op(a.tail, b.tail)
    # each override meets each override of the other operand and the places
    # the other leaves to its default; the two defaults meet in the new one
    meets = [(ra.intersect(rb), tail_op(ta, tb))
             for ra, ta in a.overrides for rb, tb in b.overrides]
    meets += [(b.left_to_default(ra), tail_op(ta, b.tail)) for ra, ta in a.overrides]
    meets += [(a.left_to_default(rb), tail_op(a.tail, tb)) for rb, tb in b.overrides]
    # drop empty meets and overrides indistinguishable from the default
    overrides = frozenset((r, t) for r, t in meets
                          if t.coeffs != default_tail.coeffs and not r.is_empty())
    return Adele(a.field, arch, exceptional, overrides, default_tail)


# -- constructors -----------------------------------------------------------


def diagonal(x: FieldElement) -> Adele:
    """The image of a field element on every component."""
    field = x.field
    tail = TailPoly.constant(x)
    # ascending primes, so the first prime `factor_prime` refuses is the least
    bad = frozenset((w, x) for p in sorted(tail.suspect_primes())
                    for w in factor_prime(field, p) if valuation_of_element(x, w) < 0)
    return Adele(field, tuple(x for _ in archimedean_places(field)), bad, frozenset(), tail)


def diagonal_rational(field: NumberField, q) -> Adele:
    return diagonal(field.element(q))


def uniformizer_adele(field: NumberField, power: int = 1) -> Adele:
    """Valuation exactly `power` at every finite place."""
    return Adele(
        field,
        tuple(field.one() for _ in archimedean_places(field)),
        frozenset(),
        frozenset(),
        TailPoly.uniformizer_power(field, power),
    )


def zero_adele(field: NumberField) -> Adele:
    return diagonal(field.zero())


def one_adele(field: NumberField) -> Adele:
    return diagonal(field.one())


def vanishing_on(field: NumberField, region) -> Adele:
    """Component zero on the region, one everywhere else."""
    if region.field != field:
        raise FieldMismatch("place set over a different field")
    if region.is_empty():
        return one_adele(field)
    return Adele(
        field,
        tuple(field.one() for _ in archimedean_places(field)),
        frozenset(),
        frozenset({(region, TailPoly.zero(field))}),
        TailPoly.constant(field.one()),
    )


def set_component(a: Adele, place, value) -> Adele:
    """Replace one component; the last write wins."""
    if not isinstance(value, FieldElement):
        raise ValueError("adele components are exact field elements")
    if place.field != a.field or value.field != a.field:
        raise FieldMismatch("place or value of a different field")
    if isinstance(place, ArchimedeanPlace):
        arch = list(a.arch)
        arch[place.index] = value
        return Adele(a.field, tuple(arch), a.exceptional, a.overrides, a.tail)
    exceptional = frozenset((w, v) for w, v in a.exceptional if w != place)
    return Adele(a.field, a.arch, exceptional | {(place, value)}, a.overrides, a.tail)


def make_adele(field: NumberField, arch=None, exceptional=(), overrides=(), *,
               tail: TailPoly) -> Adele:
    if arch is None:
        arch = tuple(field.zero() for _ in archimedean_places(field))
    return Adele(field, tuple(arch), frozenset(exceptional), frozenset(overrides), tail)


def parse_adele(text: str) -> Adele:
    """Read the text `to_text` prints, and refuse any other."""
    (coeffs, arch_text, exc_text, ovr_text, tail_text), _ = text_blocks(
        text, "adele", ("field", "arch", "exc", "ovr", "tail"))

    def tail(coeff_text):
        return TailPoly.make(field, [parse_element(field, t)
                                     for t in split_items(coeff_text, "&")])

    field = NumberField(tuple(read_int(c) for c in coeffs.split(",")))
    arch = tuple(parse_element(field, t) for t in split_items(arch_text, "|"))
    if len(arch) != len(archimedean_places(field)):
        raise ValueError("adele text needs one component per archimedean place")
    exceptional = []
    for chunk in split_items(exc_text, ";"):
        left, value = chunk.split("=", 1)
        p, idx = (read_int(t) for t in left.split(":"))
        exceptional.append((place_above(field, p, idx), parse_element(field, value)))
    if len({w for w, _ in exceptional}) != len(exceptional):
        raise ValueError("adele text repeats an exceptional place")
    overrides = []
    for item in split_items(ovr_text, "||"):
        arrow = item.rindex("->")
        region_text = item[:arrow]
        region = parse_qset(region_text) if region_text.startswith("q{") \
            else parse_kset(region_text)
        if region.field != field:
            raise ValueError("adele text has an override region over another field")
        if any(not region.intersect(r).is_empty() for r, _ in overrides):
            raise ValueError("adele text has overlapping override regions")
        overrides.append((region, tail(item[arrow + 2:])))
    return printed(make_adele(field, arch, exceptional, overrides, tail=tail(tail_text)), text)
