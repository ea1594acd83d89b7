import random

import pytest

from adelic.adeles import diagonal, diagonal_rational, uniformizer_adele, vanishing_on
from adelic.errors import FieldMismatch, UnsupportedPrime
from adelic.extensions import (
    contract_prime,
    fiber_of_spec,
    restrict_place,
    to_extension,
)
from adelic.localfields import INF
from adelic.numberfields import RATIONALS
from adelic.places import archimedean_places, place_above
from adelic.spectrum import (
    between,
    classify,
    max_at,
    member,
    min_at,
    selected_profile,
    zero_at,
)
from adelic.ultrafilters import free_cofinite, free_on_atom, lifts

from conftest import CUBE2, CYCLO5, GAUSS, ROOT5
from gen import random_adele
from oracles import adele_equals, enumerate_finite_places


def test_restrict_place():
    w = place_above(GAUSS, 5, 1)
    assert restrict_place(w) == place_above(RATIONALS, 5)
    assert restrict_place(archimedean_places(GAUSS)[0]) == archimedean_places(RATIONALS)[0]
    assert restrict_place(place_above(RATIONALS, 7)) == place_above(RATIONALS, 7)


def test_to_extension_preserves_components():
    rng = random.Random(3)
    for field in (GAUSS, CUBE2):
        for _ in range(12):
            alpha = random_adele(RATIONALS, rng)
            if any(not hasattr(v, "field") for _, v in alpha.exceptional):
                continue
            lifted = to_extension(alpha, field)
            for w in enumerate_finite_places(field, 40):
                below = place_above(RATIONALS, w.p)
                va = alpha.valuation_at(below)
                expected = INF if va == INF else w.e * va
                assert lifted.valuation_at(w) == expected, (field, w)


def test_to_extension_diagonal():
    six = diagonal_rational(RATIONALS, 6)
    assert adele_equals(to_extension(six, GAUSS), diagonal(GAUSS.element(6)))
    assert adele_equals(to_extension(six, CUBE2), diagonal(CUBE2.element(6)))


def test_fiber_of_zero_ideals():
    fiber = fiber_of_spec(zero_at(place_above(RATIONALS, 5)), GAUSS)
    assert len(fiber) == 2
    assert all(P.kind == "zero_at" for P in fiber)
    assert [contract_prime(P) for P in fiber] == [zero_at(place_above(RATIONALS, 5))] * 2
    arch_fiber = fiber_of_spec(zero_at(archimedean_places(RATIONALS)[0]), CUBE2)
    assert len(arch_fiber) == 2  # one real, one complex pair
    with pytest.raises(UnsupportedPrime):
        fiber_of_spec(zero_at(place_above(RATIONALS, 2)), ROOT5)


def test_fiber_of_ultrafilter_ideals():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    inert = free_on_atom(GAUSS, ((1, 2),))
    assert len(fiber_of_spec(max_at(split), GAUSS)) == 2
    assert len(fiber_of_spec(min_at(split), GAUSS)) == 2
    assert len(fiber_of_spec(max_at(inert), GAUSS)) == 1
    for base in (split, inert, free_cofinite()):
        for field in (GAUSS, CUBE2, CYCLO5):
            for kind in (max_at, min_at):
                fiber = fiber_of_spec(kind(base), field)
                assert 1 <= len(fiber) <= field.degree
                for up in fiber:
                    assert contract_prime(up) == kind(base)


def test_fiber_of_between_ideals():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    pi = uniformizer_adele(RATIONALS)
    fiber = fiber_of_spec(between(split, pi), GAUSS)
    assert len(fiber) == len(lifts(split, GAUSS)) == 2
    for up in fiber:
        assert up.kind == "between"
        assert classify(up) == {"is_maximal": False, "is_minimal": False}
        down = contract_prime(up)
        assert down.kind == "between" and down.ultra == split


def test_contract_of_ultrafilter_ideals_agrees_on_samples():
    rng = random.Random(7)
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    ups = lifts(split, GAUSS)
    pool = [random_adele(RATIONALS, rng) for _ in range(20)]
    pool = [a for a in pool if all(hasattr(v, "field") for _, v in a.exceptional)]
    for up in ups:
        for kind in (max_at, min_at):
            down = contract_prime(kind(up))
            for alpha in pool:
                lifted = to_extension(alpha, GAUSS)
                assert member(alpha, down) == member(lifted, kind(up))


def test_between_contract_oracle_agreement():
    rng = random.Random(9)
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    pi = uniformizer_adele(RATIONALS)
    up = fiber_of_spec(between(split, pi), GAUSS)[1]
    down = contract_prime(up)
    count = 0
    for _ in range(60):
        alpha = random_adele(RATIONALS, rng)
        if any(not hasattr(v, "field") for _, v in alpha.exceptional):
            continue
        lifted = to_extension(alpha, GAUSS)
        assert member(alpha, down) == member(lifted, up)
        count += 1
    assert count >= 30


def test_contracted_generator_carries_the_selected_degree():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    pi = uniformizer_adele(RATIONALS)
    for beta, depth in ((pi, 1), (pi.mul(pi), 2),
                        (vanishing_on(RATIONALS, split.anchor_set()), INF)):
        for up in fiber_of_spec(between(split, beta), GAUSS):
            down = contract_prime(up)
            assert down.ultra == split
            assert selected_profile(split, down.beta) == depth


def test_between_fiber_uniqueness_per_lift():
    rng = random.Random(13)
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    pi = uniformizer_adele(RATIONALS)
    pi2 = pi.mul(pi)
    for up_index in (0, 1):
        a = fiber_of_spec(between(split, pi), GAUSS)[up_index]
        b = fiber_of_spec(between(split, pi2), GAUSS)[up_index]
        for _ in range(60):
            alpha = random_adele(GAUSS, rng)
            assert member(alpha, a) == member(alpha, b)


def test_field_mismatch():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    with pytest.raises(FieldMismatch):
        fiber_of_spec(max_at(lifts(split, GAUSS)[0]), GAUSS)
    with pytest.raises(FieldMismatch):
        to_extension(diagonal(GAUSS.one()), GAUSS)

