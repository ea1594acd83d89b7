"""Ultrafilters on the describable place-set algebra.

A principal ultrafilter is the record of one place, and holds the sets
containing it.  A free ultrafilter over the rationals is anchored on a
set with cells and, to stay a genuine ultrafilter on the whole algebra
(which keeps refining as more extensions enter the picture), follows one
witness prime: for every registered extension, in registration order, it
selects the unramified splitting class of its witness.  Every membership
query answers "does the selected joint class lie among the set's cells",
so the four ultrafilter axioms hold by construction, finite sets are
never members, and cofinite sets always are.

The witness starts as the least prime below the prime bound the
ultrafilter was built with whose joint class over the atom's context is a
cell of the atom.  It moves only when it divides the discriminant of a
newly selected field, to the least larger prime below the bound that
divides no discriminant of the chain's fields or of the new field, has a
joint class among the atom's cells and has the chain's class in every
chain field.  Every prime below the old witness already failed a
condition the new step keeps, so that is also the least such prime from
2: each selected class is the class of the first witness below the
bound, and the bound decides only whether a step is refused, never which
class it selects.  By Chebotarev's density theorem (Neukirch, Algebraic Number
Theory, VII.13) one witness proves that the primes of its joint class
have positive density, so every set the ultrafilter contains is infinite.
An atom or a chain step without a witness is refused
(`UnsupportedSelection`).

A free ultrafilter over an extension field is a section lift of a free
rational one at a fiber position, short fibers padding to their first
place.  `section_lift` applies the padding once and stores the effective
position: the position asked for when that is at most the fiber size m
the base selects, and 1 otherwise, so lifts beyond m are the lift at 1
and the number of distinct lifts is m.  Reading m when the lift is built
changes no selection, because the base resolves the registered fields in
registration order whenever it is asked.  A lift answers a query by
asking the base about the one coordinate of the set at its position.
That is exact: the base contains the primes with exactly m places above
them, so it contains the primes whose padded place lies in the set
exactly when it contains those among them with m places, where the
padded place is the one at the stored position.
"""

from __future__ import annotations

from . import config
from .errors import FieldMismatch, NotAPartition, UnsupportedSelection
from .numberfields import NumberField, RATIONALS
from .places import (
    LEAST_PRIME_PAST_CAP,
    check_desk_scale,
    disc_primes,
    factor_prime,
    joint_class,
    splitting_class,
)
from .placesets import (
    KPlaceSet,
    QPlaceSet,
    all_primes,
    class_atom,
    fiber_size_exactly,
    section_image,
)
from .primes import primerange
from .records import Record
from .registry import ensure_registered, registered_fields


def _check_set(u: Ultrafilter, s) -> None:
    if not isinstance(s, (QPlaceSet, KPlaceSet)) or s.field != u.field:
        raise FieldMismatch("place set belongs to a different field")


class PrincipalUltrafilter(Record):
    """The principal ultrafilter (place) of the sets containing one place."""

    __slots__ = ("place",)

    @property
    def field(self) -> NumberField:
        return self.place.field

    def contains(self, s) -> bool:
        _check_set(self, s)
        return s.contains_place(self.place)


class FreeQUltrafilter:
    """Free ultrafilter over the rationals anchored on a set with a
    witnessed cell, such as an unramified class atom or an intersection of
    atoms of several fields."""

    def __init__(self, atom: QPlaceSet):
        self.field = RATIONALS
        self.atom = atom
        self._chain: dict[NumberField, tuple] = {}
        self.bound = bound = config.DEFAULT.prime_bound
        # a bound past desk scale is refused even where the witness search stops early
        if bound > LEAST_PRIME_PAST_CAP:
            check_desk_scale(LEAST_PRIME_PAST_CAP)
        self.witness = self._least_witness(2)
        if self.witness is None:
            raise UnsupportedSelection(
                f"no unramified prime below {bound} realizes a cell of the anchor set"
            )

    def _selected_class(self, K: NumberField):
        """The splitting class this ultrafilter selects for extension K.

        Selections are made in registration order, K registered first if
        it is new, each one the class of the witness that also meets every
        earlier selection, so every query answered by this ultrafilter
        factors through one fixed choice of joint class.
        """
        if K in self._chain:
            return self._chain[K]
        ensure_registered(K)
        for F in registered_fields():
            if F not in self._chain:
                self._extend_chain(F)
            if F == K:
                return self._chain[K]

    def _least_witness(self, start: int, *fields: NumberField):
        """The least prime from `start` below the bound that witnesses the
        atom together with the chain so far, avoiding the discriminants of
        `fields` too; None when there is none."""
        atom, chain = self.atom, list(self._chain.items())
        avoid = set().union(*map(disc_primes, (*self._chain, *fields)))
        return next((p for p in primerange(start, self.bound)
                     if p not in avoid and joint_class(p, atom.context) in atom.cells
                     and all(splitting_class(G, p) == cls for G, cls in chain)), None)

    def _extend_chain(self, F: NumberField) -> None:
        # the witness meets every chain class, so it moves only when it
        # divides the discriminant of F
        if self.witness in disc_primes(F):
            p = self._least_witness(self.witness + 1, F)
            if p is None:
                raise UnsupportedSelection(
                    f"no prime below {self.bound} supports a splitting "
                    f"class of {list(F.coeffs)} for this ultrafilter"
                )
            self.witness = p
        self._chain[F] = splitting_class(F, self.witness)

    def contains(self, s) -> bool:
        _check_set(self, s)
        cell = tuple(self._selected_class(K) for K in s.context)
        return cell in s.cells

    def anchor_set(self):
        return self.atom

    def __eq__(self, other):
        return isinstance(other, FreeQUltrafilter) and \
            (self.atom, self.bound) == (other.atom, other.bound)

    def __hash__(self):
        return hash(("free", self.atom, self.bound))

    def __repr__(self):
        return f"Free({self.atom.to_text()}, witness {self.witness})"


class FreeKUltrafilter(Record):
    """Section lift (field, base, position) of a free rational ultrafilter
    to an extension field, at a position no larger than the fiber size the
    base selects; `section_lift` builds one."""

    __slots__ = ("field", "base", "position")

    def contains(self, s) -> bool:
        _check_set(self, s)
        return self.base.contains(s.coords[self.position - 1])

    def anchor_set(self) -> KPlaceSet:
        m = len(self.base._selected_class(self.field))
        v = self.base.atom.intersect(fiber_size_exactly(self.field, m))
        return section_image(self.field, self.position, v)


Ultrafilter = PrincipalUltrafilter | FreeQUltrafilter | FreeKUltrafilter


# -- operations -------------------------------------------------------------


def section_lift(field: NumberField, base: FreeQUltrafilter,
                 position: int) -> FreeKUltrafilter:
    """The lift of a free rational ultrafilter to an extension field at a
    fiber position; a position past the fiber size the base selects pads
    to the fiber's first place, so it reads as 1."""
    if field == RATIONALS or not isinstance(base, FreeQUltrafilter):
        raise ValueError("a section lift takes a free rational ultrafilter "
                         "to a proper extension")
    if not 1 <= position <= field.degree:
        raise ValueError("section position out of range")
    ensure_registered(field)
    m = len(base._selected_class(field))
    return FreeKUltrafilter(field, base, position if position <= m else 1)


def free_on_atom(field: NumberField, cls) -> FreeQUltrafilter:
    """Free rational ultrafilter anchored on the splitting-class atom of a
    registered extension."""
    return FreeQUltrafilter(class_atom(field, cls))


def free_cofinite() -> FreeQUltrafilter:
    """Free ultrafilter anchored on the full prime set."""
    return FreeQUltrafilter(all_primes())


def partition_pick(u: Ultrafilter, parts) -> int:
    """Index of the unique part belonging to the ultrafilter.

    parts must be pairwise disjoint describable sets covering all finite
    places of the ultrafilter's field.
    """
    parts = list(parts)
    if not parts:
        raise NotAPartition("empty part list")
    for s in parts:
        _check_set(u, s)
    for i, a in enumerate(parts):
        for b in parts[i + 1:]:
            if not a.intersect(b).is_empty():
                raise NotAPartition("parts are not pairwise disjoint")
    total = parts[0]
    for s in parts[1:]:
        total = total.union(s)
    if not total.is_everything():
        raise NotAPartition("parts do not cover the finite places")
    hits = [i for i, s in enumerate(parts) if u.contains(s)]
    assert len(hits) == 1, "an ultrafilter meets exactly one part of a partition"
    return hits[0]


def pushforward(u: Ultrafilter) -> Ultrafilter:
    """Image of an extension-field ultrafilter under the restriction map."""
    if u.field == RATIONALS:
        return u
    if isinstance(u, PrincipalUltrafilter):
        return PrincipalUltrafilter(factor_prime(RATIONALS, u.place.p)[0])
    assert isinstance(u, FreeKUltrafilter)
    return u.base


def lifts(u: Ultrafilter, field: NumberField) -> list[Ultrafilter]:
    """All ultrafilters over the extension field that push forward to u."""
    if u.field != RATIONALS:
        raise FieldMismatch("lifts are taken from the rationals")
    if field == RATIONALS:
        return [u]
    ensure_registered(field)
    if isinstance(u, PrincipalUltrafilter):
        return [PrincipalUltrafilter(w) for w in factor_prime(field, u.place.p)]
    assert isinstance(u, FreeQUltrafilter)
    m = len(u._selected_class(field))
    return [FreeKUltrafilter(field, u, i) for i in range(1, m + 1)]
