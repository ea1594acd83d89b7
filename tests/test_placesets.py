import random
from functools import reduce
from math import prod

import pytest

from adelic.numberfields import RATIONALS
from adelic.places import all_splitting_classes, enumerate_finite_places, factor_prime
from adelic.placesets import (
    QPlaceSet,
    all_primes,
    class_atom,
    cofinite_qset,
    empty_qset,
    everything_kset,
    fiber_size_at_least,
    fiber_size_exactly,
    finite_qset,
    full_preimage,
    parse_kset,
    parse_qset,
    pullback_section,
    section_image,
    supported_qset,
)

from adelic.primes import primerange

from conftest import (
    CATALOGUE,
    CUBE2,
    CYCLO5,
    GAUSS,
    INERT_CYCLO5,
    MIXED_CUBE2,
    ROOT5,
    SPLIT_GAUSS,
)
from gen import random_kset, random_qset, random_wide_qset
from oracles import (
    reference_complement,
    reference_contains,
    reference_intersect,
    reference_union,
)


def test_finite_cofinite_union_example():
    # {2,3} joined with the complement of {3,5} misses exactly 5
    out = finite_qset([2, 3]).union(cofinite_qset([3, 5]))
    assert out == cofinite_qset([5])
    assert [p for p in (2, 3, 5, 7) if out.contains_prime(p)] == [2, 3, 7]


def test_boolean_identities_structural():
    rng = random.Random(5)
    for _ in range(60):
        s = random_qset(rng)
        assert s.complement().complement() == s
        assert s.intersect(s.complement()).is_empty()
        assert s.union(s.complement()).is_everything()
        assert s.union(s) == s
        assert s.intersect(s) == s


def test_kset_boolean_identities():
    rng = random.Random(6)
    for field in (GAUSS, CUBE2):
        for _ in range(25):
            s = random_kset(field, rng)
            assert s.complement().complement() == s
            assert s.intersect(s.complement()).is_empty()
            assert s.union(s.complement()).is_everything()


def _first_places(field, count=200):
    return enumerate_finite_places(field, count)


def test_pointwise_oracle_rational():
    rng = random.Random(9)
    places = _first_places(RATIONALS)
    for _ in range(80):
        a = random_qset(rng)
        b = random_qset(rng)
        mem_a = {w.p for w in places if a.contains_prime(w.p)}
        mem_b = {w.p for w in places if b.contains_prime(w.p)}
        union = a.union(b)
        inter = a.intersect(b)
        comp = a.complement()
        universe = {w.p for w in places}
        assert {p for p in universe if union.contains_prime(p)} == mem_a | mem_b
        assert {p for p in universe if inter.contains_prime(p)} == mem_a & mem_b
        assert {p for p in universe if comp.contains_prime(p)} == universe - mem_a


def test_pointwise_oracle_extension():
    rng = random.Random(10)
    for field in (GAUSS, CUBE2):
        places = _first_places(field)
        for _ in range(30):
            a = random_kset(field, rng)
            b = random_kset(field, rng)
            mem_a = {w for w in places if a.contains_place(w)}
            mem_b = {w for w in places if b.contains_place(w)}
            assert {w for w in places if a.union(b).contains_place(w)} == mem_a | mem_b
            assert {w for w in places if a.intersect(b).contains_place(w)} == mem_a & mem_b
            assert {w for w in places if a.complement().contains_place(w)} == \
                set(places) - mem_a


def test_excluded_primes_are_modelled_explicitly():
    sup = supported_qset(ROOT5)
    assert not sup.contains_prime(2)
    assert sup.contains_prime(3)
    atom = class_atom(ROOT5, ((1, 1), (1, 1)))
    assert not atom.contains_prime(2)
    assert atom.complement().contains_prime(2)


def test_ramified_atoms_are_finite_sets_pointwise():
    ram = class_atom(GAUSS, ((2, 1),))
    assert ram.members_below(500) == [2]


def test_section_semantics():
    for field in (GAUSS, CUBE2):
        places = _first_places(field, 120)
        for position in range(1, field.degree + 1):
            sec = section_image(field, position, all_primes())
            by_prime = {}
            for w in places:
                by_prime.setdefault(w.p, []).append(w)
            for p, fiber in by_prime.items():
                if len(fiber) != len(factor_prime(field, p)):
                    continue  # fiber cut off by enumeration bound
                # short fibers pad to their first place
                expected = fiber[position - 1] if position <= len(fiber) else fiber[0]
                hits = [w for w in fiber if sec.contains_place(w)]
                assert hits == [expected]


def test_pullback_inverts_section_image():
    rng = random.Random(13)
    for field in (GAUSS, CUBE2):
        for _ in range(20):
            base = random_qset(rng, 2)
            for position in range(1, field.degree + 1):
                sec = section_image(field, position, base)
                back = pullback_section(sec, position)
                assert back == base.intersect(supported_qset(field))


def test_preimage_membership():
    base = class_atom(GAUSS, ((1, 1), (1, 1)))
    pre = full_preimage(GAUSS, base)
    for w in _first_places(GAUSS, 60):
        assert pre.contains_place(w) == base.contains_prime(w.p)


def test_fiber_size_sets():
    g2 = fiber_size_at_least(GAUSS, 2)
    assert g2 == class_atom(GAUSS, ((1, 1), (1, 1)))
    exact1 = fiber_size_exactly(GAUSS, 1)
    assert exact1.contains_prime(7) and exact1.contains_prime(2)
    assert not exact1.contains_prime(13)


def test_serialization_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        s = random_qset(rng)
        assert parse_qset(s.to_text()) == s
    for field in (GAUSS, CUBE2):
        for _ in range(15):
            s = random_kset(field, rng)
            assert parse_kset(s.to_text()) == s
    assert parse_qset(empty_qset().to_text()) == empty_qset()
    assert parse_qset(all_primes().to_text()) == all_primes()
    assert parse_kset(everything_kset(GAUSS).to_text()) == everything_kset(GAUSS)


@pytest.mark.parametrize("text", [
    "q{ctx[1,0,1] cells[1x1+1x1;1x2;3x1] plus[] minus[]}",   # class of another degree
    "q{ctx[1,0,1] cells[1x1+1x1*1x2] plus[] minus[]}",       # cell longer than the context
    "q{ctx[1,0,1] cells[~] plus[] minus[]}",                 # cell shorter than the context
    "q{ctx[1,0,1|1,0,1] cells[] plus[] minus[]}",            # repeated field
    "q{ctx[1,0,1|-5,0,1] cells[] plus[] minus[]}",           # fields out of order
    "q{ctx[] cells[] plus[3] minus[3]}",                     # prime added and removed
])
def test_parse_qset_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        parse_qset(text)


def _parts(s):
    return s.context, s.cells, s.plus, s.minus


def test_wide_contexts_match_sequential_reference():
    rng = random.Random(21)
    primes = list(primerange(2, 500))
    wide = 0
    for _ in range(60):
        a, b = random_wide_qset(rng), random_wide_qset(rng)
        in_a = {p for p in primes if reference_contains(a, p)}
        in_b = {p for p in primes if reference_contains(b, p)}
        cases = (
            (a.union(b), reference_union(a, b), in_a | in_b),
            (a.intersect(b), reference_intersect(a, b), in_a & in_b),
            (a.complement(), reference_complement(a), set(primes) - in_a),
        )
        for got, want, members in cases:
            assert _parts(got) == want
            assert {p for p in primes if got.contains_prime(p)} == members
        wide += len(a.context) >= 3 or len(b.context) >= 3
    assert wide >= 10


def test_wide_intersection_is_associative():
    rng = random.Random(22)
    for _ in range(40):
        a, b, c = (random_wide_qset(rng) for _ in range(3))
        assert a.intersect(b.intersect(c)) == a.intersect(b).intersect(c)


def test_complement_of_four_field_atom_intersection():
    atoms = [class_atom(GAUSS, SPLIT_GAUSS), class_atom(ROOT5, ((1, 2),)),
             class_atom(CUBE2, MIXED_CUBE2), class_atom(CYCLO5, INERT_CYCLO5)]
    s = reduce(QPlaceSet.intersect, atoms)
    assert len(s.context) == 4 and len(s.cells) == 1
    comp = s.complement()
    assert len(comp.cells) == prod(len(all_splitting_classes(K.degree)) for K in CATALOGUE) - 1
    assert comp.complement() == s
