"""Restriction of places and the spectrum fiber map for extensions of Q.

The restriction map sends places of an extension field to the places of
the rationals below them.  It induces contraction of prime ideals (via
ultrafilter pushforward, and for intermediate primes a descended
generator that carries the tail degree the lifted ultrafilter selects,
which is all a free-ultrafilter prime reads) and, in the other
direction, finite fibers of size at most the degree: one principal ideal
per place of the fiber, one ultrafilter ideal per section lift, and
exactly one intermediate prime per lifted ultrafilter with the generator
transported upward along the diagonal.

Rational adeles embed in extension adeles componentwise.  At unramified
places the canonical uniformizer below and above is the same prime p, so
tail patterns transport verbatim; the finitely many ramified places are
materialized as exceptional components with their exact rational values.
"""

from __future__ import annotations

from .adeles import Adele, TailPoly, make_adele, zero_adele
from .errors import FieldMismatch
from .localfields import INF
from .numberfields import NumberField, RATIONALS
from .places import (
    ArchimedeanPlace,
    Place,
    archimedean_places,
    disc_primes,
    excluded_primes,
    factor_prime,
)
from .placesets import finite_qset, full_preimage
from .registry import ensure_registered
from .spectrum import (
    PrimeIdeal,
    between,
    max_at,
    min_at,
    selected_profile,
    zero_at,
)
from .ultrafilters import lifts, pushforward


def restrict_place(w: Place) -> Place:
    """The place of the rationals below a place of an extension field."""
    if isinstance(w, ArchimedeanPlace):
        return archimedean_places(RATIONALS)[0]
    return factor_prime(RATIONALS, w.p)[0]


def to_extension(alpha: Adele, field: NumberField) -> Adele:
    """The image of a rational adele in the adele ring of the extension.

    Components are the same rational numbers; regions become full
    preimages.  Places above ramified or excluded primes leave the
    uniformizer-tail pattern (p is no longer a uniformizer there), so they
    are materialized as exceptional components; places above excluded
    primes do not exist in the model and are dropped.  Ramified primes of
    desk scale or more are not absorbed: `factor_prime` refuses them, so
    no query reads the components there.
    """
    if alpha.field != RATIONALS:
        raise FieldMismatch("only rational adeles lift along an extension")
    ensure_registered(field)
    arch = tuple(alpha.arch[0].lift(field) for _ in archimedean_places(field))
    # supported primes where some place above may be ramified, and those alpha lists
    excluded = set(excluded_primes(field))
    absorbed = sorted(disc_primes(field).union(w.p for w, _ in alpha.exceptional) - excluded)
    exceptional = []
    for p in absorbed:
        below = factor_prime(RATIONALS, p)[0]
        lifted = alpha.component_at(below).lift(field)
        for w in factor_prime(field, p):
            exceptional.append((w, lifted))
    drop = finite_qset(excluded.union(absorbed))
    overrides = []
    for region, tail in alpha.overrides:
        kregion = full_preimage(field, region.difference(drop))
        if not kregion.is_empty():
            overrides.append((kregion, _lift_tail(tail, field)))
    return make_adele(field, arch, exceptional, overrides,
                      tail=_lift_tail(alpha.tail, field))


def _lift_tail(tail: TailPoly, field: NumberField) -> TailPoly:
    return TailPoly.make(field, [c.lift(field) for c in tail.coeffs])


def contract_prime(ideal: PrimeIdeal) -> PrimeIdeal:
    """The preimage of an extension-field prime in the rational adele ring."""
    if ideal.field == RATIONALS:
        return ideal
    if ideal.kind == "zero_at":
        return zero_at(restrict_place(ideal.place))
    if ideal.kind == "max_at":
        return max_at(pushforward(ideal.ultra))
    if ideal.kind == "min_at":
        return min_at(pushforward(ideal.ultra))
    assert ideal.kind == "between"
    return between(pushforward(ideal.ultra), _descend_generator(ideal))


def _descend_generator(ideal: PrimeIdeal) -> Adele:
    """Carry the generator of an intermediate prime down to the rationals.

    Membership in a free-ultrafilter prime reads only the tail degree on
    the piece the ultrafilter selects, and a rational adele lifts with the
    same degree on the piece its pushforward selects.  So the descended
    generator is p to that degree at every prime, or zero when the
    generator vanishes on its selected piece.
    """
    depth = selected_profile(ideal.ultra, ideal.beta)
    if depth == INF:
        return zero_adele(RATIONALS)
    return make_adele(RATIONALS, tail=TailPoly.uniformizer_power(RATIONALS, depth))


def fiber_of_spec(ideal: PrimeIdeal, field: NumberField) -> list[PrimeIdeal]:
    """All primes of the extension's adele ring contracting to the given
    rational prime ideal; nonempty, of size at most the degree."""
    if ideal.field != RATIONALS:
        raise FieldMismatch("fibers are taken over the rationals")
    ensure_registered(field)
    if ideal.kind == "zero_at":
        w = ideal.place
        if isinstance(w, ArchimedeanPlace):
            return [zero_at(v) for v in archimedean_places(field)]
        return [zero_at(v) for v in factor_prime(field, w.p)]
    ups = lifts(ideal.ultra, field)
    if ideal.kind == "max_at":
        return [max_at(u) for u in ups]
    if ideal.kind == "min_at":
        return [min_at(u) for u in ups]
    assert ideal.kind == "between"
    lifted_beta = to_extension(ideal.beta, field)
    return [between(u, lifted_beta) for u in ups]

