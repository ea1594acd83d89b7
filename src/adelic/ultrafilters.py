"""Ultrafilters on the describable place-set algebra.

Principal ultrafilters are anchored at a single place.  A free ultrafilter
over the rationals is anchored on a class atom presumed infinite and, to
stay a genuine ultrafilter on the whole algebra (which keeps refining as
more extensions enter the picture), carries a selector: for every
registered extension, one splitting class chosen greedily in registration
order by sampling primes below the configured bound.  Every membership
query answers "does the selected joint class lie among the set's cells",
so the four ultrafilter axioms hold by construction, finite sets are never
members, and cofinite sets always are.

Sampling stops once its answer is decided.  The sparse-atom check stops
at its threshold-th member.  When every cell of the atom gives an
extension the same class, every member outside the atom's finite
modification votes for that class, so the count stops as soon as it leads
all others: the choice is exactly the one a full count would make.

A free ultrafilter over an extension field is a section lift of a free
rational one: it answers a query by pulling the set back along its fiber
position (short fibers padding to their first place) and asking the base.
Lifts at positions beyond the selected fiber size collapse to the lift at
that size, which is what makes the number of distinct lifts equal the
fiber size the base ultrafilter selects.
"""

from __future__ import annotations

import os
import sys
import warnings

from . import config
from .errors import (
    FieldMismatch,
    NotAPartition,
    NotMember,
    UnsupportedPrime,
    UnsupportedSelection,
)
from .numberfields import NumberField, RATIONALS
from .places import FACTOR_CAP, FinitePlace, factor_prime
from .placesets import (
    KPlaceSet,
    QPlaceSet,
    all_primes,
    class_atom,
    fiber_size_exactly,
    finite_kset,
    finite_qset,
    pullback_section,
    section_image,
    _classes,
)
from .primes import primerange
from .registry import ensure_registered, registered_fields

# an anchor atom with fewer members below the prime bound warns as sparse
ATOM_WITNESS_THRESHOLD = 25


class Ultrafilter:
    field: NumberField

    @property
    def is_principal(self) -> bool:
        raise NotImplementedError

    def contains(self, s) -> bool:
        raise NotImplementedError

    def anchor_set(self):
        """A canonical member set (the generator for principal
        ultrafilters, the atom or its section image for free ones)."""
        raise NotImplementedError


def _caller_level() -> int:
    """The `warnings.warn` stacklevel, for the function that calls this
    one, of the first frame outside the package."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 1
    while frame is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    return level


def _check_set(u: Ultrafilter, s) -> None:
    if u.field == RATIONALS:
        if not isinstance(s, QPlaceSet):
            raise FieldMismatch("expected a rational-level place set")
    else:
        if not isinstance(s, KPlaceSet) or s.field != u.field:
            raise FieldMismatch("place set belongs to a different field")


class PrincipalUltrafilter(Ultrafilter):
    def __init__(self, place: FinitePlace):
        self.field = place.field
        self.place = place

    @property
    def is_principal(self) -> bool:
        return True

    def contains(self, s) -> bool:
        _check_set(self, s)
        return s.contains_place(self.place)

    def anchor_set(self):
        if self.field == RATIONALS:
            return finite_qset([self.place.p])
        return finite_kset(self.field, [self.place])

    def __eq__(self, other):
        return isinstance(other, PrincipalUltrafilter) and self.place == other.place

    def __hash__(self):
        return hash(("principal", self.place))

    def __repr__(self):
        return f"Principal({self.place!r})"


class FreeQUltrafilter(Ultrafilter):
    """Free ultrafilter over the rationals anchored on a class atom."""

    def __init__(self, atom: QPlaceSet, label: str = "atom"):
        self.field = RATIONALS
        self.atom = atom
        self.label = label
        self._chain: dict[NumberField, tuple] = {}
        self._chain_order: list[NumberField] = []
        if not atom.cells:
            raise ValueError("a free ultrafilter needs an infinite anchor set")
        bound = config.DEFAULT.prime_bound
        # a bound past desk scale is refused even where sampling stops early
        beyond = next(primerange(FACTOR_CAP, min(bound, 2 * FACTOR_CAP)), None)
        if beyond is not None:
            raise UnsupportedPrime(f"prime {beyond} exceeds the desk-scale bound")
        witnesses = 0
        for p in primerange(2, bound):
            if atom.contains_prime(p):
                witnesses += 1
                if witnesses >= ATOM_WITNESS_THRESHOLD:
                    break
        if witnesses < ATOM_WITNESS_THRESHOLD:
            warnings.warn(
                f"free ultrafilter anchored on a sparsely witnessed atom "
                f"({witnesses} members below {bound})",
                stacklevel=_caller_level(),
            )

    @property
    def is_principal(self) -> bool:
        return False

    def _selected_class(self, K: NumberField):
        """The splitting class this ultrafilter selects for extension K.

        Selections are made greedily in registration order, each one
        conditioned on all earlier selections, so every query answered by
        this ultrafilter factors through one fixed choice of joint class.
        """
        if K in self._chain:
            return self._chain[K]
        for F in registered_fields():
            if F not in self._chain:
                self._extend_chain(F)
            if F == K:
                return self._chain[K]
        ensure_registered(K)
        self._extend_chain(K)
        return self._chain[K]

    def _extend_chain(self, F: NumberField) -> None:
        counts: dict[tuple, int] = {cls: 0 for cls in _classes(F)}
        prefix = list(self._chain_order)
        from .places import excluded_primes, splitting_class

        def counted(p):
            if p in excluded_primes(F):
                return False
            return not any(p in excluded_primes(G) or splitting_class(G, p) != self._chain[G]
                           for G in prefix)

        atom, bound = self.atom, config.DEFAULT.prime_bound
        leader = self._cells_class(F)
        if leader is None:
            for p in atom.members_below(bound):
                if counted(p):
                    counts[splitting_class(F, p)] += 1
        else:
            # every member outside `plus` has the leader's class, so once
            # the leader is ahead of every other class nothing can overtake it
            for p in atom.plus:
                if p < bound and counted(p):
                    counts[splitting_class(F, p)] += 1
            rival = max((c for cls, c in counts.items() if cls != leader), default=0)
            for p in primerange(2, bound):
                if counts[leader] > rival:
                    break
                if p not in atom.plus and atom.contains_prime(p) and counted(p):
                    counts[leader] += 1
        # deterministic: highest count, ties to the canonically smallest class
        top = max(counts.values())
        if top == 0:
            raise UnsupportedSelection(
                f"no prime below {config.DEFAULT.prime_bound} supports a splitting "
                f"class of {list(F.coeffs)} for this ultrafilter"
            )
        chosen = min(cls for cls, c in counts.items() if c == top)
        self._chain[F] = chosen
        self._chain_order.append(F)

    def _cells_class(self, F: NumberField):
        """The class every cell of the atom gives F, if there is one."""
        if F not in self.atom.context:
            return None
        i = self.atom.context.index(F)
        classes = {cell[i] for cell in self.atom.cells}
        return classes.pop() if len(classes) == 1 else None

    def contains(self, s) -> bool:
        _check_set(self, s)
        cell = tuple(self._selected_class(K) for K in s.context)
        return cell in s.cells

    def anchor_set(self):
        return self.atom

    def __eq__(self, other):
        return isinstance(other, FreeQUltrafilter) and self.atom == other.atom

    def __hash__(self):
        return hash(("free", self.atom))

    def __repr__(self):
        return f"Free({self.label})"


class FreeKUltrafilter(Ultrafilter):
    """Section lift of a free rational ultrafilter to an extension field."""

    def __init__(self, field: NumberField, base: FreeQUltrafilter, position: int):
        if field == RATIONALS or not isinstance(base, FreeQUltrafilter):
            raise ValueError("a section lift takes a free rational ultrafilter "
                             "to a proper extension")
        if not 1 <= position <= field.degree:
            raise ValueError("section position out of range")
        ensure_registered(field)
        self.field = field
        self.base = base
        self.position = position

    @property
    def is_principal(self) -> bool:
        return False

    @property
    def selected_fiber_size(self) -> int:
        return len(self.base._selected_class(self.field))

    @property
    def effective_position(self) -> int:
        # beyond the selected fiber size the padding rule sends the
        # section to the fiber's first place
        return self.position if self.position <= self.selected_fiber_size else 1

    def contains(self, s) -> bool:
        _check_set(self, s)
        return self.base.contains(pullback_section(s, self.effective_position))

    def section_set(self) -> KPlaceSet:
        return section_image(self.field, self.effective_position, all_primes())

    def anchor_set(self) -> KPlaceSet:
        m = self.selected_fiber_size
        v = self.base.atom.intersect(fiber_size_exactly(self.field, m))
        return section_image(self.field, self.effective_position, v)

    def __eq__(self, other):
        return (
            isinstance(other, FreeKUltrafilter)
            and self.field == other.field
            and self.base == other.base
            and self.effective_position == other.effective_position
        )

    def __hash__(self):
        return hash(("lift", self.field, self.base, self.effective_position))

    def __repr__(self):
        return f"Lift({self.position}, {self.base!r} -> deg {self.field.degree})"


# -- operations -------------------------------------------------------------


def free_on_atom(field: NumberField, cls, label: str | None = None) -> FreeQUltrafilter:
    """Free rational ultrafilter anchored on the splitting-class atom of a
    registered extension."""
    atom = class_atom(field, cls)
    from .places import class_label

    return FreeQUltrafilter(atom, label or f"{list(field.coeffs)}:{class_label(tuple(sorted(cls)))}")


def free_on_set(atom: QPlaceSet, label: str = "atom") -> FreeQUltrafilter:
    """Free rational ultrafilter anchored on any describable set presumed
    infinite (for instance an intersection of class atoms)."""
    return FreeQUltrafilter(atom, label)


def free_cofinite(label: str = "all-primes") -> FreeQUltrafilter:
    """Free ultrafilter anchored on the full prime set."""
    return FreeQUltrafilter(all_primes(), label)


def same_decisions(a: FreeQUltrafilter, b: FreeQUltrafilter) -> bool:
    """Whether two free rational ultrafilters select the same joint class
    for every registered extension (extensional equality on the current
    describable algebra)."""
    return all(a._selected_class(K) == b._selected_class(K)
               for K in registered_fields())


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


def section_refine(u: FreeKUltrafilter, big: KPlaceSet) -> KPlaceSet:
    """A member subset of `big` meeting each fiber at most once."""
    if not isinstance(u, FreeKUltrafilter):
        raise FieldMismatch("section refinement needs a free extension ultrafilter")
    if not u.contains(big):
        raise NotMember("the set does not belong to the ultrafilter")
    return big.intersect(u.section_set())


def distinguishing_witness(a: Ultrafilter, b: Ultrafilter):
    """A describable set in `a` but not in `b`, if one is found.

    Free rational pairs are separated by the class atom of the first
    registered extension where their selectors disagree; other pairs fall
    back to anchor sets and their complements (which covers distinct
    section positions and principal-versus-free pairs).
    """
    if a.field != b.field:
        raise FieldMismatch("ultrafilters over different fields")
    if isinstance(a, FreeQUltrafilter) and isinstance(b, FreeQUltrafilter):
        for K in registered_fields():
            ca, cb = a._selected_class(K), b._selected_class(K)
            if ca != cb:
                return class_atom(K, ca)
        return None
    anchor = a.anchor_set()
    for s in (anchor, anchor.complement(), b.anchor_set().complement()):
        if a.contains(s) and not b.contains(s):
            return s
    return None
