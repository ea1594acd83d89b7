import random
from fractions import Fraction
from operator import add, mul

import pytest

from adelic.adeles import (
    TailPoly,
    diagonal,
    diagonal_rational,
    membership_set,
    one_adele,
    parse_adele,
    set_component,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from adelic.errors import FieldMismatch
from adelic.localfields import INF, embed
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import (
    archimedean_places,
    place_above,
)
from adelic.placesets import class_atom, finite_qset, full_preimage

from conftest import CUBE2, GAUSS
from gen import random_adele, random_element
from oracles import (
    adele_equals,
    enumerate_finite_places,
    pointwise_set,
    reference_combine,
    reference_membership_set,
)

C3_CUBIC = NumberField((1, -3, 0, 1))  # x^3 - 3x + 1: cyclic, so some cells no prime realizes


def test_diagonal_examples():
    six = diagonal_rational(RATIONALS, 6)
    assert six.valuation_at(place_above(RATIONALS, 2)) == 1
    assert six.valuation_at(place_above(RATIONALS, 3)) == 1
    assert six.valuation_at(place_above(RATIONALS, 5)) == 0
    assert six.membership_set("in_m") == finite_qset([2, 3])
    assert six.membership_set("is_zero").is_empty()
    assert diagonal(RATIONALS.zero()).membership_set("is_zero").is_everything()
    one = one_adele(RATIONALS)
    assert one.membership_set("in_m").is_empty()


def test_diagonal_absorbs_non_integral_places():
    half = diagonal_rational(RATIONALS, Fraction(1, 2))
    assert [(w.p, v) for w, v in half.exceptional] == [(2, RATIONALS.element(Fraction(1, 2)))]
    assert half.valuation_at(place_above(RATIONALS, 2)) == -1
    assert half.valuation_at(place_above(RATIONALS, 3)) == 0


def test_uniformizer_adele():
    pi = uniformizer_adele(RATIONALS)
    for p in (2, 3, 5, 97):
        assert pi.valuation_at(place_above(RATIONALS, p)) == 1
    assert pi.membership_set("in_m").is_everything()
    square = pi.mul(pi)
    for p in (2, 7):
        assert square.valuation_at(place_above(RATIONALS, p)) == 2
    assert uniformizer_adele(RATIONALS, 2) == square
    assert adele_equals(pi.mul(one_adele(RATIONALS)), pi)
    piK = uniformizer_adele(GAUSS)
    for w in (place_above(GAUSS, 2), place_above(GAUSS, 5, 1), place_above(GAUSS, 7)):
        assert piK.valuation_at(w) == 1
    assert uniformizer_adele(GAUSS, 3) == piK.mul(piK).mul(piK)


def test_set_component():
    g = set_component(one_adele(RATIONALS), place_above(RATIONALS, 5), RATIONALS.zero())
    assert g.valuation_at(place_above(RATIONALS, 5)) == INF
    assert g.valuation_at(place_above(RATIONALS, 7)) == 0
    twice = set_component(g, place_above(RATIONALS, 5), RATIONALS.element(25))
    assert twice.valuation_at(place_above(RATIONALS, 5)) == 2
    arch = archimedean_places(RATIONALS)[0]
    shifted = set_component(g, arch, RATIONALS.element(9))
    assert shifted.arch_at(arch) == RATIONALS.element(9)
    local = embed(RATIONALS.element(9), place_above(RATIONALS, 5))
    for place in (arch, place_above(RATIONALS, 5)):
        with pytest.raises(ValueError):
            set_component(g, place, local)


@pytest.mark.parametrize("place, value", [
    (lambda: place_above(GAUSS, 5, 1), lambda: GAUSS.element(0, 1)),
    (lambda: place_above(RATIONALS, 5), lambda: GAUSS.element(0, 1)),
    (lambda: archimedean_places(GAUSS)[0], lambda: GAUSS.one()),
], ids=["place", "value", "arch"])
def test_set_component_refuses_another_field(place, value):
    """A rational adele given a place or a value of Q(i) printed
    `exc[5:1=0,1]`, squared to `exc[5:0=-1,0]`, or printed `arch[1,0]`."""
    with pytest.raises(FieldMismatch):
        set_component(one_adele(RATIONALS), place(), value())


def test_diagonal_is_ring_morphism():
    assert adele_equals(diagonal_rational(RATIONALS, 2).mul(diagonal_rational(RATIONALS, 3)),
                        diagonal_rational(RATIONALS, 6))
    a = diagonal(GAUSS.element(1, 1))
    b = diagonal(GAUSS.element(1, -1))
    assert adele_equals(a.mul(b), diagonal(GAUSS.element(2)))


def test_diagonal_embedding_kills_nothing():
    rng = random.Random(1)
    for _ in range(20):
        x = random_element(GAUSS, rng)
        if x.is_zero():
            continue
        assert diagonal(x).membership_set("is_zero").is_empty()


def test_ring_laws_sampled():
    rng = random.Random(99)
    for field in (RATIONALS, GAUSS):
        places = enumerate_finite_places(field, 20)
        pool = [random_adele(field, rng) for _ in range(24)]
        one = one_adele(field)
        zero = zero_adele(field)
        for i in range(250):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert adele_equals(a.add(b), b.add(a))
            assert adele_equals(a.mul(b), b.mul(a))
            assert adele_equals(a.add(zero), a)
            assert adele_equals(a.mul(one), a)
            assert adele_equals(a.add(a.neg()), zero)
            if i % 5 == 0:
                # componentwise associativity/distributivity spot checks
                left = a.mul(b.add(c))
                right = a.mul(b).add(a.mul(c))
                assoc_l = a.add(b).add(c)
                assoc_r = a.add(b.add(c))
                for w in places:
                    assert left.valuation_at(w) == right.valuation_at(w)
                    assert assoc_l.valuation_at(w) == assoc_r.valuation_at(w)


def test_tail_algebra_symbolic():
    pi = uniformizer_adele(RATIONALS)
    sq = pi.mul(pi)
    assert len(sq.tail.coeffs) == 3 and sq.tail.min_degree() == 2
    s = pi.add(diagonal_rational(RATIONALS, 3))
    assert [c.to_text() for c in s.tail.coeffs] == ["3", "1"]
    # symbolic evaluation resolves the tie 3 + pi at the place above 3
    assert s.valuation_at(place_above(RATIONALS, 3)) == 1
    assert s.valuation_at(place_above(RATIONALS, 2)) == 0


def test_valuations_add_under_mul():
    rng = random.Random(5)
    for field in (RATIONALS, GAUSS):
        places = enumerate_finite_places(field, 12)
        for _ in range(40):
            a = random_adele(field, rng)
            b = random_adele(field, rng)
            prod = a.mul(b)
            for w in places:
                va, vb = a.valuation_at(w), b.valuation_at(w)
                expected = INF if INF in (va, vb) else va + vb
                assert prod.valuation_at(w) == expected


def test_membership_set_oracle_equivalence():
    rng = random.Random(123)
    for field in (RATIONALS, GAUSS, CUBE2):
        places = enumerate_finite_places(field, 200)
        for _ in range(25):
            a = random_adele(field, rng)
            for predicate in ("is_zero", "in_m"):
                described = a.membership_set(predicate)
                brute = pointwise_set(a, predicate, places)
                assert {w for w in places if described.contains_place(w)} == brute


def test_arithmetic_and_membership_sets_print_as_the_piecewise_reference():
    """Sums, products and both membership sets print exactly the text of
    the original rules, which meet every piece of each operand."""
    rng = random.Random(43)
    for field in (RATIONALS, GAUSS, CUBE2, C3_CUBIC):
        for _ in range(30):
            a, b = random_adele(field, rng), random_adele(field, rng)
            assert a.add(b).to_text() == \
                reference_combine(a, b, add, TailPoly.add).to_text()
            assert a.sub(b).to_text() == \
                reference_combine(a, b.neg(), add, TailPoly.add).to_text()
            assert a.mul(b).to_text() == \
                reference_combine(a, b, mul, TailPoly.mul).to_text()
            for predicate in ("is_zero", "in_m"):
                assert a.membership_set(predicate).to_text() == \
                    reference_membership_set(a, predicate).to_text()


def test_vanishing_on_region():
    atom = class_atom(GAUSS, ((1, 1), (1, 1)))
    ind = vanishing_on(RATIONALS, atom)
    assert ind.membership_set("is_zero") == atom
    assert ind.valuation_at(place_above(RATIONALS, 13)) == INF
    assert ind.valuation_at(place_above(RATIONALS, 7)) == 0
    doubled = ind.add(ind)
    assert doubled.membership_set("is_zero") == atom
    assert doubled.component_at(place_above(RATIONALS, 7)) == RATIONALS.element(2)


def test_serialization_round_trip():
    rng = random.Random(8)
    for field in (RATIONALS, GAUSS):
        for _ in range(20):
            a = random_adele(field, rng)
            if any(not hasattr(v, "field") for _, v in a.exceptional):
                continue
            back = parse_adele(a.to_text())
            assert adele_equals(back, a)
            assert back.to_text() == a.to_text()


def test_read_back_adele_is_equal_with_an_equal_hash():
    """An adele read back from its text is equal to it and hashes the same:
    equality does not depend on the order in which parts were built."""
    rng = random.Random(3)
    fields = (RATIONALS, GAUSS, CUBE2)
    for i in range(200):
        a = random_adele(fields[i % 3], rng)
        back = parse_adele(a.to_text())
        assert back == a and hash(back) == hash(a), a.to_text()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        one_adele(RATIONALS).add(one_adele(GAUSS))
    with pytest.raises(FieldMismatch):
        one_adele(GAUSS).valuation_at(place_above(RATIONALS, 3))
    atom = class_atom(GAUSS, ((1, 1), (1, 1)))
    with pytest.raises(FieldMismatch):
        vanishing_on(GAUSS, atom)
    with pytest.raises(FieldMismatch):
        vanishing_on(RATIONALS, full_preimage(GAUSS, atom))
    with pytest.raises(FieldMismatch):
        vanishing_on(CUBE2, full_preimage(GAUSS, atom))


def test_membership_cache_consistency():
    a = diagonal_rational(RATIONALS, 10)
    assert membership_set(a, "in_m") == a.membership_set("in_m")
