"""Ultrafilters on the describable place-set algebra.

A principal ultrafilter is the record of one place, and holds the sets
containing it.  A free ultrafilter over the rationals is the record
(atom, bound) of a set with cells and a prime bound.  To stay a genuine
ultrafilter on the whole algebra (which keeps refining as more
extensions enter the picture), it follows one witness prime: for every
registered extension, in registration order, it selects the unramified
splitting class of its witness.  A membership query tests one bit of the
set's mask, that of the witness's joint class over the set's context,
so the four ultrafilter axioms hold by construction, finite sets are
never members, and cofinite sets always are.

The witness starts as the least prime below the bound whose joint class
over the atom's context is a cell of the atom.  It moves only when it
divides the discriminant of a newly selected field, to the least larger
prime below the bound that divides no discriminant of the chain's fields
or of the new field, has a joint class among the atom's cells and has
the chain's class in every chain field.  Every prime below the old
witness already failed a condition the new step keeps, so that is also
the least such prime from 2: each selected class is the class of the
first witness below the bound, and the bound decides only whether a step
is refused, never which class it selects.  So equal records share their
witness and resolved fields, one `registry.SELECTORS` entry that the
builders make (refusals come at build time) and `clear_registry` drops.
By Chebotarev's density theorem (Neukirch, Algebraic Number Theory, VII.13)
one witness proves that the primes of its joint class have positive
density, so every set the ultrafilter contains is infinite.  An atom or
a chain step without a witness is refused (`UnsupportedSelection`).

A free ultrafilter over an extension field is a section lift of a free
rational one at a fiber position, short fibers padding to their first
place.  `section_lift` pads when it builds the record and stores the
position asked for when that is at most the fiber size m the base
selects, and 1 otherwise, so lifts beyond m are the lift at 1 and the
number of distinct lifts is m.  A lift kept across `clear_registry` and
a new registration order can find its base selecting another m, so a
query pads the stored position again against the m the base selects
then, and asks the base about the one coordinate of the set at that
position.  That is exact: the base contains the primes with exactly m
places above them, so it contains the primes whose padded place lies in
the set exactly when it contains those among them with m places, where
the padded place is the one at the padded position.
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
    splitting_class,
)
from .placesets import (
    KPlaceSet,
    QPlaceSet,
    all_primes,
    class_atom,
    denotes,
    fiber_size_exactly,
    section_image,
)
from .primes import primerange
from .records import Record
from .registry import SELECTORS, ensure_registered, registered_fields


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


class FreeQUltrafilter(Record):
    """Free ultrafilter (atom, bound) over the rationals, anchored on a set
    with a witnessed cell, such as an unramified class atom or an
    intersection of atoms of several fields; `free_on_set` builds one."""

    __slots__ = ("atom", "bound")
    field = RATIONALS

    def _resolve(self, fields) -> int:
        """The witness once each of `fields` and every field registered
        before it is resolved; the selector entry is made on first use."""
        state = SELECTORS.get(self)
        if state is None:
            # a bound past desk scale is refused even where the witness search stops early
            if self.bound > LEAST_PRIME_PAST_CAP:
                check_desk_scale(LEAST_PRIME_PAST_CAP)
            state = SELECTORS[self] = [self._least_witness(2, (), (), (
                f"no unramified prime below {self.bound} realizes a cell of the anchor set")), set()]
        resolved = state[1]
        if not resolved.issuperset(fields):
            for K in fields:
                ensure_registered(K)
            order = registered_fields()
            for F in order[len(resolved):1 + max(map(order.index, fields))]:
                self._extend_chain(F, state)
        return state[0]

    def _selected_class(self, K: NumberField):
        """The class selected for extension K: the witness's, once K is resolved."""
        return splitting_class(K, self._resolve((K,)))

    def _least_witness(self, start: int, chain, fields, refusal: str) -> int:
        """The least prime from `start` below the bound that witnesses the
        atom, has class cls in G for each (G, cls) of `chain` and divides no
        discriminant of those fields or of `fields`; refused when none does."""
        atom = self.atom
        avoid = set().union(*map(disc_primes, (*(G for G, _ in chain), *fields)))
        for p in primerange(start, self.bound):
            if p not in avoid and denotes(p, atom.context, atom.mask) \
                    and all(splitting_class(G, p) == cls for G, cls in chain):
                return p
        raise UnsupportedSelection(refusal)

    def _extend_chain(self, F: NumberField, state: list) -> None:
        # the witness meets every chain class, so only disc(F) can move it
        witness, resolved = state
        if witness in disc_primes(F):
            chain = [(G, splitting_class(G, witness)) for G in resolved]
            state[0] = self._least_witness(witness + 1, chain, (F,), (
                f"no prime below {self.bound} supports a splitting class of "
                f"{list(F.coeffs)} for this ultrafilter"))
        resolved.add(F)

    def contains(self, s) -> bool:
        _check_set(self, s)
        return denotes(self._resolve(s.context), s.context, s.mask)

    def anchor_set(self):
        return self.atom


class FreeKUltrafilter(Record):
    """Section lift (field, base, position) of a free rational ultrafilter
    to an extension field, at a position no larger than the fiber size the
    base selects; `section_lift` builds one."""

    __slots__ = ("field", "base", "position")

    def _padded(self) -> tuple[int, int]:
        """The fiber size m the base selects now, and the stored position
        padded against it."""
        m = len(self.base._selected_class(self.field))
        return m, self.position if self.position <= m else 1

    def contains(self, s) -> bool:
        _check_set(self, s)
        return self.base.contains(s.coords[self._padded()[1] - 1])

    def anchor_set(self) -> KPlaceSet:
        m, position = self._padded()
        v = self.base.atom.intersect(fiber_size_exactly(self.field, m))
        return section_image(self.field, position, v)


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
    m = len(base._selected_class(field))
    return FreeKUltrafilter(field, base, position if position <= m else 1)


def free_on_set(atom: QPlaceSet) -> FreeQUltrafilter:
    """Free rational ultrafilter anchored on a set with a witnessed cell,
    under the prime bound in force; refused here when it has no witness."""
    u = FreeQUltrafilter(atom, config.DEFAULT.prime_bound)
    u._resolve(())  # makes its selector entry
    return u


def free_on_atom(field: NumberField, cls) -> FreeQUltrafilter:
    """Free rational ultrafilter anchored on a splitting-class atom."""
    return free_on_set(class_atom(field, cls))


def free_cofinite() -> FreeQUltrafilter:
    """Free ultrafilter anchored on the full prime set."""
    return free_on_set(all_primes())


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
