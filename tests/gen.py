"""Seeded random generators for property-style sampling loops."""

from fractions import Fraction

from adelic.adeles import (
    diagonal,
    one_adele,
    set_component,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from adelic.numberfields import RATIONALS
from adelic.places import factor_prime
from adelic.placesets import (
    all_primes,
    class_atom,
    empty_qset,
    finite_qset,
    finite_set,
    full_preimage,
    section_image,
)

from conftest import CATALOGUE, CUBE2, GAUSS
from oracles import splitting_types, unramified_classes

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

ATOM_POOL = [
    (GAUSS, ((1, 1), (1, 1))),
    (GAUSS, ((1, 2),)),
    (CUBE2, ((1, 1), (1, 2))),
    (CUBE2, ((1, 1), (1, 1), (1, 1))),
]


def random_element(field, rng, span=4, allow_denominator=True):
    den = rng.choice((1, 1, 1, 2, 3)) if allow_denominator else 1
    coeffs = [Fraction(rng.randint(-span, span), den) for _ in range(field.degree)]
    return field.element(*coeffs)


def cofinite_qset(missing):
    """All primes but the listed ones."""
    return finite_qset(missing).complement()


def random_qset(rng, depth=3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return finite_qset(rng.sample(SMALL_PRIMES, rng.randint(0, 4)))
        if kind == 1:
            return cofinite_qset(rng.sample(SMALL_PRIMES, rng.randint(0, 3)))
        if kind == 2:
            return class_atom(*rng.choice(ATOM_POOL))
        return all_primes() if rng.random() < 0.5 else empty_qset()
    a = random_qset(rng, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return a.complement()
    b = random_qset(rng, depth - 1)
    return a.union(b) if op == 1 else a.intersect(b)


WIDE_ATOM_POOL = [(K, cls) for K in CATALOGUE for cls in splitting_types(K.degree)]


def random_wide_qset(rng, depth=3):
    """Random sets whose contexts reach three and four catalogue fields:
    leaves include the atom of every class, ramified ones (finite sets)
    too, and intersections of one unramified class atom from each of
    several fields."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        kind = rng.randrange(4)
        if kind == 0:
            return finite_qset(rng.sample(SMALL_PRIMES, rng.randint(0, 4)))
        if kind == 1:
            return cofinite_qset(rng.sample(SMALL_PRIMES, rng.randint(0, 3)))
        if kind == 2:
            return class_atom(*rng.choice(WIDE_ATOM_POOL))
        out = all_primes()
        for K in rng.sample(CATALOGUE, rng.randint(2, 4)):
            out = out.intersect(class_atom(K, rng.choice(sorted(unramified_classes(K.degree)))))
        return out
    a = random_wide_qset(rng, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return a.complement()
    b = random_wide_qset(rng, depth - 1)
    return a.union(b) if op == 1 else a.intersect(b)


def random_kset(field, rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        kind = rng.randrange(3)
        if kind == 0:
            return full_preimage(field, random_qset(rng, 1))
        if kind == 1:
            position = rng.randint(1, field.degree)
            return section_image(field, position, random_qset(rng, 1))
        places = []
        for p in rng.sample(SMALL_PRIMES, rng.randint(0, 3)):
            fiber = _safe_fiber(field, p)
            if fiber:
                places.append(rng.choice(fiber))
        return finite_set(field, places)
    a = random_kset(field, rng, depth - 1)
    op = rng.randrange(3)
    if op == 0:
        return a.complement()
    b = random_kset(field, rng, depth - 1)
    return a.union(b) if op == 1 else a.intersect(b)


def random_place_set(field, rng, depth=2):
    if field == RATIONALS:
        return random_qset(rng, depth)
    return random_kset(field, rng, depth)


def _safe_fiber(field, p):
    from adelic.errors import UnsupportedPrime

    try:
        return list(factor_prime(field, p))
    except UnsupportedPrime:
        return []


def random_adele(field, rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        kind = rng.randrange(5)
        if kind == 0:
            return diagonal(random_element(field, rng))
        if kind == 1:
            power = rng.randint(1, 3)
            out = uniformizer_adele(field)
            for _ in range(power - 1):
                out = out.mul(uniformizer_adele(field))
            return out
        if kind == 2:
            return vanishing_on(field, random_place_set(field, rng, 1))
        if kind == 3:
            base = diagonal(random_element(field, rng, span=3))
            fiber = _safe_fiber(field, rng.choice(SMALL_PRIMES))
            if fiber:
                w = rng.choice(fiber)
                base = set_component(base, w, random_element(field, rng, span=3))
            return base
        return one_adele(field) if rng.random() < 0.5 else zero_adele(field)
    a = random_adele(field, rng, depth - 1)
    b = random_adele(field, rng, depth - 1)
    return a.add(b) if rng.random() < 0.5 else a.mul(b)


def random_nonzero_profile_adele(field, rng):
    """An adele whose tail degree is positive on a cofinite set (useful as
    an intermediate-prime generator with small valuations)."""
    power = rng.randint(1, 3)
    out = uniformizer_adele(field)
    for _ in range(power - 1):
        out = out.mul(uniformizer_adele(field))
    if rng.random() < 0.3:
        out = out.mul(vanishing_on(field, random_place_set(field, rng, 1)))
    return out


def random_level_adele(field, rng, level_places):
    """An adele integral outside the given finite places (an element of
    the finite-level subring for any level containing them)."""
    base = diagonal(random_element(field, rng, span=4, allow_denominator=False))
    if rng.random() < 0.5:
        base = base.mul(vanishing_on(field, random_place_set(field, rng, 1)))
    if rng.random() < 0.4:
        base = base.add(uniformizer_adele(field))
    for w in level_places:
        if rng.random() < 0.6:
            base = set_component(base, w, random_element(field, rng, span=4))
    return base
