import random
from functools import reduce
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from adelic.adeles import one_adele, parse_adele
from adelic.errors import FieldMismatch, NotPrime, UnsupportedPrime
from adelic.extensions import to_extension
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import excluded_primes, factor_prime, place_above
from adelic.placesets import (
    QPlaceSet,
    all_primes,
    class_atom,
    empty_qset,
    empty_set,
    everything_kset,
    fiber_size_at_least,
    fiber_size_exactly,
    finite_qset,
    finite_set,
    full_preimage,
    matching_bracket,
    parse_kset,
    parse_qset,
    section_image,
    split_items,
)

from adelic.primes import primerange
from adelic.spectrum import closed_ideal

from conftest import (
    CATALOGUE,
    CUBE2,
    CYCLO5,
    GAUSS,
    INERT_CYCLO5,
    INERT_GAUSS,
    MIXED_CUBE2,
    ROOT5,
    SPLIT_GAUSS,
)
from gen import (
    cofinite_qset,
    random_adele,
    random_kset,
    random_place_set,
    random_qset,
    random_wide_qset,
)
from oracles import (
    enumerate_finite_places,
    everything_set,
    finite_places,
    reference_complement,
    reference_contains,
    reference_intersect,
    reference_union,
    unramified_classes,
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
    sup = fiber_size_at_least(ROOT5, 1)
    assert sup == cofinite_qset(excluded_primes(ROOT5))
    assert not sup.contains_prime(2)
    assert sup.contains_prime(3)
    atom = class_atom(ROOT5, ((1, 1), (1, 1)))
    assert not atom.contains_prime(2)
    assert atom.complement().contains_prime(2)


def test_ramified_atoms_are_finite_sets_pointwise():
    ram = class_atom(GAUSS, ((2, 1),))
    assert not ram.cells and ram.plus == {2}
    assert [p for p in primerange(2, 500) if ram.contains_prime(p)] == [2]
    totally = class_atom(CUBE2, ((3, 1),))
    assert not totally.cells and totally.plus == {2, 3}
    assert class_atom(CUBE2, ((1, 1), (2, 1))).is_empty()
    # a ramified prime stays explicit in every set built from classes
    assert fiber_size_exactly(GAUSS, 1) == \
        class_atom(GAUSS, INERT_GAUSS).union(finite_qset([2]))
    assert fiber_size_at_least(CUBE2, 1).is_everything()


def test_discriminant_primes_past_desk_scale_stay_unlisted():
    """x^2 - 1000003 also ramifies at 1000003, past the primes the model
    factors; sets built from its classes, and adeles lifted to it, list
    only the ramified 2.  1000003 divides the index of x^2 + 1000003^2,
    but is not excluded either."""
    K = NumberField((-1000003, 0, 1))
    comp = class_atom(K, SPLIT_GAUSS).complement()
    assert comp == fiber_size_exactly(K, 1)
    assert comp.plus == {2} and comp.contains_prime(5) and not comp.contains_prime(3)
    lifted = to_extension(one_adele(RATIONALS), K)
    assert {w.p for w, _ in lifted.exceptional} == {2}
    assert excluded_primes(NumberField((1000003 ** 2, 0, 1))) == ()


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
    "q{ctx[] cells[] plus[4] minus[]}",                      # number that is not prime
    "q{ctx[1,0,1] cells[1x2;2x1] plus[] minus[]}",           # ramified class in a cell
    "k{field[1,0,1] 0:q{ctx[] cells[] plus[5] minus[]}}",     # position 0
    "k{field[1,0,1] 3:q{ctx[] cells[] plus[5] minus[]}}",     # position past the degree
    "k{field[1,0,1] 1:q{ctx[] cells[] plus[5] minus[]} 1:q{ctx[] cells[] plus[13] minus[]}}",
    "adele{field[1,0,1] arch[1,0] exc[5:-1=1,0] ovr[] tail[]}",        # negative place index
    "adele{field[1,0,1] arch[1,0|1,0] exc[] ovr[] tail[]}",            # arch too long
    "adele{field[-2,0,0,1] arch[1,0,0] exc[] ovr[] tail[]}",           # arch too short
    "adele{field[0,1] arch[1] exc[] ovr[q{ctx[] cells[~] plus[] minus[]}->1"
    "||q{ctx[] cells[~] plus[] minus[]}->] tail[1]}",                   # overlapping overrides
    "adele{field[0,1] arch[1] exc[5:0=1;5:0=0] ovr[] tail[1]}",        # repeated place
    "adele{field[1,0,1] arch[1,0] exc[] "
    "ovr[q{ctx[] cells[~] plus[] minus[]}->] tail[1,0]}",              # region over Q
    "q{ctx[] cells[~] plus[] minus[]}}",                               # text after the close
    "k{field[1,0,1] 1:q{ctx[] cells[] plus[5] minus[]}}}",
    "adele{field[0,1] arch[1] exc[] ovr[] tail[1]}}",
    "q{ctx[] junk cells[~] plus[] minus[]}",                           # text between blocks
    "q{ctx[] cells[~] plus[] minus[] junk}",                           # text before the close
    "q{minus[] plus[] cells[~] ctx[]}",                                # blocks out of order
    "q{ctx[]  cells[~] plus[] minus[]}",                               # two spaces
    "q{ctx[] cells[~] plus[,3] minus[]}",                              # empty list item
    "q{ctx[] cells[~] plus[03] minus[]}",                              # padded number
    "q{ctx[-2,0,0,1] cells[1x2+1x1] plus[] minus[]}",                  # summands unsorted
    "q{ctx[1,0,1] cells[01x1+1x1] plus[] minus[]}",                    # padded class label
    "q{ctx[1,0,1] cells[1x1+1x1 ] plus[] minus[]}",                    # class label, space
    "k{junk field[1,0,1] 1:q{ctx[] cells[] plus[5] minus[]}}",
    "k{field[1,0,1]}",                                                 # no space after field
    "k{field[1,0,1] 2:q{ctx[] cells[] plus[5] minus[]} 1:q{ctx[] cells[] plus[13] minus[]}}",
    "k{field[1,0,1] 1:q{ctx[] cells[] plus[5] minus[]} }",             # trailing space
    "k{field[-2,0,0,1] 1:q{ctx[] cells[] plus[5] minus[]}  2:q{ctx[] cells[] plus[5] minus[]}}",
    "adele{tail[1] ovr[] exc[] arch[1] field[0,1]}",                   # blocks out of order
    "adele{field[0,1] arch[1] exc[] ovr[] tail[1] junk[]}",            # extra block
    "adele{field[0,1] arch[1] exc[] ovr[] tail[1&&2]}",                # empty tail item
    "adele{field[0,1] arch[|1] exc[] ovr[] tail[1]}",                  # empty arch item
    "adele{field[0,1] arch[1] exc[;5:0=1] ovr[] tail[1]}",             # empty exc item
    "adele{field[1,0,1] arch[1,0] exc[] ovr[] tail[1,2,3]}",           # element past the degree
    "adele{field[0,1] arch[1,2] exc[] ovr[] tail[1]}",
    "k{field[1,0,1] 2:q{ctx[] cells[] plus[2] minus[]}}",              # 2 has one place
    "adele{field[0,1] arch[1.5] exc[] ovr[] tail[ 0 & 1e0]}",          # numbers not as printed
    "q{ctx[1,0,1] cells[1x2;1x2] plus[] minus[]}",                     # repeated cell
    "q{ctx[] cells[~] plus[7,5] minus[]}",                             # plus inside the cells
    "q{ctx[] cells[~] plus[] minus[7,5]}",                             # unsorted
    "q{ctx[1,0,1] cells[1x2] plus[] minus[5]}",                        # 5 is not in the cell
    "q{ctx[1,0,1] cells[1x1+1x1;1x2] plus[] minus[]}",                 # a cylinder along x^2+1
    "k{field[0,1] 1:q{ctx[] cells[] plus[5] minus[]}}",                # a field of degree 1
    "adele{field[0,1] arch[1] exc[] "
    "ovr[k{field[0,1] 1:q{ctx[] cells[] plus[5] minus[]}}->] tail[1]}",
    "k{field[1,0,1] 1:q{ctx[] cells[] plus[] minus[]}}",               # empty coordinate
    "adele{field[0,1] arch[1] exc[] ovr[] tail[1&0]}",                 # zero top coefficient
    "adele{field[0,1] arch[1] exc[] ovr[] tail[0]}",
    "adele{field[0,1] arch[1] exc[7:0=1;5:0=2] ovr[] tail[1]}",        # places unsorted
])
def test_parse_qset_rejects_malformed_text(text):
    """Rational and extension place-set texts and adele texts alike; the
    third extension text repeats a position.  Each text that builds a
    value prints back as other text."""
    parse = {"q": parse_qset, "k": parse_kset, "a": parse_adele}[text[0]]
    with pytest.raises(ValueError):
        parse(text)


_SEPARATORS = {"ctx": "|", "cells": ";", "plus": ",", "minus": ",",
               "arch": "|", "exc": ";", "ovr": "||", "tail": "&"}


def _edits(text):
    """Every text one edit away from `text`: an item of a list duplicated,
    two items of a list swapped, `&0` appended to a tail, or an empty
    coordinate added to an extension place set."""
    out = []
    for key, sep in _SEPARATORS.items():
        start = text.find(key + "[")
        while start != -1:
            body, close = start + len(key) + 1, matching_bracket(text, start)
            items = split_items(text[body:close], sep)
            edited = [items[:i + 1] + items[i:] for i in range(len(items))]
            for i in range(len(items)):
                for j in range(i + 1, len(items)):
                    swapped = list(items)
                    swapped[i], swapped[j] = items[j], items[i]
                    edited.append(swapped)
            if key == "tail":
                edited.append(items + ["0"])
            out += [text[:body] + sep.join(new) + text[close:] for new in edited]
            start = text.find(key + "[", close)
    start = text.find("k{field[")
    while start != -1:
        close = matching_bracket(text, start + 2) + 1
        out += [f"{text[:close]} {j}:q{{ctx[] cells[] plus[] minus[]}}{text[close:]}"
                for j in (1, 2)]
        start = text.find("k{field[", close)
    return out


@st.composite
def _edited_texts(draw):
    """A parser and a text printed from `tests/gen.py`, edited once."""
    rng = draw(st.randoms(use_true_random=False))
    field = draw(st.sampled_from((RATIONALS, GAUSS, CUBE2)))
    if draw(st.booleans()):
        value, parse = random_adele(field, rng), parse_adele
    else:
        value = random_place_set(field, rng)
        parse = parse_qset if field == RATIONALS else parse_kset
    return parse, draw(st.sampled_from(_edits(value.to_text()) or [value.to_text()]))


@given(_edited_texts())
@settings(max_examples=100, deadline=None)
def test_edited_printed_text_is_refused_or_read_as_printed(case):
    parse, text = case
    try:
        value = parse(text)
    except ValueError:
        return
    assert value.to_text() == text


@pytest.mark.parametrize("build", [
    lambda: finite_qset([161, 4]),
    lambda: cofinite_qset([3, 1]),
])
def test_finite_modifications_reject_non_primes(build):
    with pytest.raises(NotPrime):
        build()


@pytest.mark.parametrize("build", [
    lambda: finite_qset([10 ** 30 + 57]),
    lambda: finite_qset([5, 1_000_004]),
    lambda: cofinite_qset([1_000_003]),
    lambda: parse_qset("q{ctx[] cells[] plus[1000003] minus[]}"),
    lambda: parse_qset("q{ctx[] cells[~] plus[] minus[4,1000004]}"),
], ids=["finite-prime", "finite-composite", "cofinite", "parse-plus", "parse-minus"])
def test_listed_primes_past_desk_scale_are_refused(build):
    """A listed entry of 10**6 or more is refused as past desk scale,
    prime or not, before any primality test."""
    with pytest.raises(UnsupportedPrime, match="exceeds the desk-scale bound$"):
        build()


def test_field_generic_constructors():
    for field in (RATIONALS, *CATALOGUE):
        assert empty_set(field).is_empty() and everything_set(field).is_everything()
        assert empty_set(field).field == everything_set(field).field == field
        places = [w for p in (5, 13, 29) for w in factor_prime(field, p)][::2]
        s = finite_set(field, places)
        assert s.field == field
        assert finite_places(s) == sorted(places, key=lambda w: (w.p, w.index))
    with pytest.raises(FieldMismatch):
        finite_set(RATIONALS, [place_above(GAUSS, 5, 1)])
    with pytest.raises(FieldMismatch):
        finite_set(GAUSS, [place_above(RATIONALS, 5)])


def test_boolean_operations_refuse_sets_over_another_field():
    q, k = all_primes(), full_preimage(GAUSS, all_primes())
    for op in ("union", "intersect", "difference"):
        with pytest.raises(FieldMismatch):
            getattr(q, op)(k)
        with pytest.raises(FieldMismatch):
            getattr(k, op)(q)
    with pytest.raises(FieldMismatch):
        closed_ideal(RATIONALS, [place_above(GAUSS, 5, 1)])


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
    assert len(comp.cells) == prod(len(unramified_classes(K.degree)) for K in CATALOGUE) - 1
    assert comp.complement() == s
