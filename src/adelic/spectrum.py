"""The prime ideals of the adele ring, with executable membership.

The catalogue has four variants:

  * zero_at(v): adeles whose component at one fixed place vanishes; both
    maximal and minimal, principal, and the only closed primes.
  * max_at(U): adeles whose maximal-ideal membership set belongs to a free
    ultrafilter U; maximal, not principal.
  * min_at(U): adeles whose zero set belongs to U; the unique minimal
    prime below max_at(U), dense in the adele ring.
  * between(U, beta): the smallest prime containing a fixed generator beta
    inside max_at(U): adeles alpha such that some power of alpha has
    valuation at least that of beta on a set of U.

A free ultrafilter contains no finite set, so it never reads an adele's
finitely many pointwise corrections: all three free variants read only
the tail degree on the one region piece of alpha that U contains (and,
for between, that of beta).  max_at asks for degree at least one, min_at
for the zero tail, and between reduces the existential over (n, Y) to a
three-way comparison of the two degrees.  With a single finite-data beta
the between variant is an honest building block but its membership
oracle coincides with max_at(U) or min_at(U) as a set (strictly
intermediate primes need unbounded valuation profiles, which finite
tails cannot carry).

A level ideal is a prime with a level S, a set of places of its field
holding every archimedean one that names the subring of adeles integral
outside S.  Its maximal/minimal flags are derived from the prime and S,
not stored (a prime vanishing outside S is not maximal in the subring),
and every restriction goes through `restrict_to_level`, so chains agree.
"""

from __future__ import annotations

from functools import lru_cache

from .adeles import Adele, membership_set, one_adele, set_component, vanishing_on
from .errors import (
    DegenerateGenerator,
    FieldMismatch,
    InconsistentNeighborhood,
    InvalidLevel,
)
from .localfields import DEFAULT_DIGITS, INF, embed, valuation_of_element
from .numberfields import NumberField
from .places import ArchimedeanPlace, Place, archimedean_places
from .placesets import finite_set
from .records import Record
from .ultrafilters import Ultrafilter


class _NotPrincipal:
    def __repr__(self):
        return "NOT_PRINCIPAL"


NOT_PRINCIPAL = _NotPrincipal()


class PrimeIdeal(Record):
    """A prime ideal (field, kind, place, ultra, beta): kind is "zero_at"
    (with place), "max_at" or "min_at" (with ultra) or "between" (with
    ultra and beta); the fields a kind does not use are None."""

    __slots__ = ("field", "kind", "place", "ultra", "beta")

    def __repr__(self):
        if self.kind == "zero_at":
            return f"PrimeIdeal(zero_at {self.place!r})"
        if self.kind == "between":
            return f"PrimeIdeal(between {self.ultra!r})"
        return f"PrimeIdeal({self.kind} {self.ultra!r})"


def _require_free(u: Ultrafilter) -> None:
    if u.is_principal:
        raise ValueError(
            "ultrafilter ideals take free ultrafilters; principal ones "
            "correspond to the zero_at variant at the adele level"
        )


def zero_at(place: Place) -> PrimeIdeal:
    return PrimeIdeal(place.field, "zero_at", place, None, None)


def max_at(u: Ultrafilter) -> PrimeIdeal:
    _require_free(u)
    return PrimeIdeal(u.field, "max_at", None, u, None)


def min_at(u: Ultrafilter) -> PrimeIdeal:
    _require_free(u)
    return PrimeIdeal(u.field, "min_at", None, u, None)


def between(u: Ultrafilter, beta: Adele) -> PrimeIdeal:
    _require_free(u)
    if beta.field != u.field:
        raise FieldMismatch("generator and ultrafilter over different fields")
    if selected_profile(u, beta) < 1:
        raise DegenerateGenerator(
            "the generator is a unit on the ultrafilter; the displayed "
            "membership set would be the whole ring"
        )
    return PrimeIdeal(u.field, "between", None, u, beta)


# -- membership --------------------------------------------------------------


def member(alpha: Adele, ideal: PrimeIdeal) -> bool:
    if alpha.field != ideal.field:
        raise FieldMismatch("adele and ideal over different fields")
    if ideal.kind == "zero_at":
        w = ideal.place
        if isinstance(w, ArchimedeanPlace):
            return alpha.arch_at(w).is_zero()
        return alpha.component_at(w).is_zero()
    if ideal.kind == "max_at":
        return selected_profile(ideal.ultra, alpha) >= 1
    if ideal.kind == "min_at":
        return selected_profile(ideal.ultra, alpha) == INF
    assert ideal.kind == "between"
    return member_between(alpha, ideal.ultra, ideal.beta)


@lru_cache(maxsize=8192)
def selected_profile(u: Ultrafilter, a: Adele):
    """Tail degree of the adele on the region piece of it that the free
    ultrafilter selects.

    The override regions and the places they leave to the default tail
    partition the finite places, so u contains exactly one of them: the
    first override region it contains, or else the default's.  The
    finitely many exceptional and suspect places never matter to a free
    ultrafilter, so the degree there is the answer.
    """
    return next((tail for region, tail in a.overrides if u.contains(region)),
                a.tail).min_degree()


def member_between(alpha: Adele, u: Ultrafilter, beta: Adele) -> bool:
    """Does some power of alpha dominate beta's valuations on a set of u?

    True exactly when there are n >= 1 and a member set Y of u with
    n * val_v(alpha) >= val_v(beta) for every v in Y.  Both valuation
    profiles are constant on the pieces u selects, so the test compares
    the two selected tail degrees.
    """
    _require_free(u)
    d_alpha, d_beta = selected_profile(u, alpha), selected_profile(u, beta)
    if d_beta < 1:
        raise DegenerateGenerator("generator is a unit on the ultrafilter")
    if d_beta == INF:
        return d_alpha == INF
    return d_alpha >= 1


# -- classification and structure --------------------------------------------


def classify(ideal: PrimeIdeal) -> dict[str, bool]:
    table = {
        "zero_at": (True, True),
        "max_at": (True, False),
        "min_at": (False, True),
        "between": (False, False),
    }
    is_max, is_min = table[ideal.kind]
    return {"is_maximal": is_max, "is_minimal": is_min}


def generator(ideal: PrimeIdeal):
    """A principal generator, when one exists.

    Only the zero_at variant is principal: one everywhere except zero at
    its place.  Everything else returns NOT_PRINCIPAL.
    """
    if ideal.kind != "zero_at":
        return NOT_PRINCIPAL
    g = set_component(one_adele(ideal.field), ideal.place, ideal.field.zero())
    return g


def is_closed(ideal: PrimeIdeal) -> bool:
    """Closedness in the adele topology: exactly the zero_at variant (the
    closed-ideal correspondence by zero sets forces every other prime to
    be dense)."""
    return ideal.kind == "zero_at"


# -- levels -------------------------------------------------------------------


class LevelIdeal(Record):
    """A prime ideal read in the subring of adeles integral outside level."""

    __slots__ = ("ideal", "level")

    @property
    def is_maximal(self) -> bool:
        # vanishing at a place outside the level is not maximal in the subring
        ideal = self.ideal
        return classify(ideal)["is_maximal"] and \
            (ideal.kind != "zero_at" or ideal.place in self.level)

    @property
    def is_minimal(self) -> bool:
        return classify(self.ideal)["is_minimal"]

    def member(self, alpha: Adele) -> bool:
        return member(alpha, self.ideal)

    def restrict(self, smaller: frozenset[Place]) -> "LevelIdeal":
        if not smaller <= self.level:
            raise InvalidLevel("restriction target must be a sub-level")
        return restrict_to_level(self.ideal, smaller)

    def __repr__(self):
        finite = sorted((w.p, w.index) for w in self.level if w.is_finite)
        return (f"LevelIdeal({self.ideal.kind}, S_f={finite}, "
                f"max={self.is_maximal}, min={self.is_minimal})")


def restrict_to_level(ideal: PrimeIdeal, level) -> LevelIdeal:
    """The finite-level ideal whose preimage in the full ring is the given
    prime; the free-ultrafilter data transfers unchanged because dropping
    finitely many places never changes a free ultrafilter's decisions."""
    level = frozenset(level)
    if any(v.field != ideal.field for v in level):
        raise FieldMismatch("level holds a place of a different field")
    if not set(archimedean_places(ideal.field)) <= level:
        raise InvalidLevel("a level must contain every archimedean place")
    return LevelIdeal(ideal, level)


# -- quotients, topology, density --------------------------------------------


def quotient_eval(alpha: Adele, place: Place, digits: int = DEFAULT_DIGITS):
    """Image of an adele in the completion quotient at one place.

    Two adeles have the same image exactly when their difference lies in
    the zero_at ideal of the place.
    """
    if isinstance(place, ArchimedeanPlace):
        return alpha.arch_at(place)
    return embed(alpha.component_at(place), place, digits)


class Constraint(Record):
    """At place, requires val(x - target) >= min_valuation."""

    __slots__ = ("place", "target", "min_valuation")


def density_witness(u: Ultrafilter, constraints=()) -> Adele:
    """An element of min_at(u) inside the neighborhood of 1 cut out by the
    constraints: zero on the ultrafilter's anchor set away from the
    constrained places, one everywhere else."""
    _require_free(u)
    field = u.field
    for c in constraints:
        if c.place.field != field:
            raise FieldMismatch("constraint at a place of a different field")
        gap = field.one() - c.target
        if gap.is_zero():
            continue
        if valuation_of_element(gap, c.place) < c.min_valuation:
            raise InconsistentNeighborhood(
                f"constraint at p={c.place.p} excludes the value 1"
            )
    region = u.anchor_set().difference(finite_set(field, (c.place for c in constraints)))
    out = vanishing_on(field, region)
    assert member(out, min_at(u))
    return out


class ClosedIdeal(Record):
    """The closed ideal of adeles over field vanishing on finite_part, a
    describable place set, and on the archimedean places of arch_part."""

    __slots__ = ("field", "finite_part", "arch_part")

    def member(self, alpha: Adele) -> bool:
        if alpha.field != self.field:
            raise FieldMismatch("adele over a different field")
        if any(not alpha.arch_at(v).is_zero() for v in self.arch_part):
            return False
        zeros = membership_set(alpha, "is_zero")
        return self.finite_part.difference(zeros).is_empty()


def closed_ideal(field: NumberField, zero_on) -> ClosedIdeal:
    """Membership oracle for the closed ideal attached to a place set.

    zero_on may be a describable set of finite places or an iterable of
    places (archimedean ones allowed), all over the field.
    """
    if hasattr(zero_on, "contains_place"):
        if zero_on.field != field:
            raise FieldMismatch("place set over a different field")
        return ClosedIdeal(field, zero_on, ())
    finite, arch = [], []
    for w in zero_on:
        (arch if isinstance(w, ArchimedeanPlace) else finite).append(w)
    if any(v.field != field for v in arch):
        raise FieldMismatch("archimedean place of a different field")
    return ClosedIdeal(field, finite_set(field, finite),
                       tuple(sorted(arch, key=lambda v: v.index)))
