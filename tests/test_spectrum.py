import random
from fractions import Fraction

import pytest

from adelic.adeles import (
    TailPoly,
    diagonal_rational,
    make_adele,
    membership_set,
    one_adele,
    set_component,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from adelic.errors import (
    DegenerateGenerator,
    FieldMismatch,
    InconsistentNeighborhood,
    InvalidLevel,
    NotAPartition,
    UnsupportedPrime,
)
from adelic.extensions import to_extension
from adelic.localfields import embed
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import archimedean_places, place_above
from adelic.placesets import all_primes, finite_qset, finite_set, section_image
from adelic.spectrum import (
    NOT_PRINCIPAL,
    Constraint,
    between,
    classify,
    closed_ideal,
    density_witness,
    generator,
    is_closed,
    max_at,
    member,
    member_between,
    min_at,
    quotient_eval,
    restrict_to_level,
    selected_profile,
    zero_at,
)
from adelic.ultrafilters import (
    FreeKUltrafilter,
    free_cofinite,
    free_on_atom,
    lifts,
    partition_pick,
)

from conftest import CUBE2, FULL_SPLIT_CUBE2, GAUSS
from gen import random_adele, random_nonzero_profile_adele
from oracles import (adele_equals, brute_member_between, joint_selected_profile, local_agrees,
                     membership_set_member)


def _free_split():
    return free_on_atom(GAUSS, ((1, 1), (1, 1)))


def _free_inert():
    return free_on_atom(GAUSS, ((1, 2),))


def catalogue_ideals(field=RATIONALS):
    split = _free_split()
    inert = _free_inert()
    pi = uniformizer_adele(RATIONALS)
    return [
        zero_at(place_above(RATIONALS, 5)),
        zero_at(place_above(RATIONALS, 2)),
        zero_at(archimedean_places(RATIONALS)[0]),
        max_at(split),
        min_at(split),
        max_at(inert),
        min_at(inert),
        max_at(free_cofinite()),
        between(split, pi),
        between(inert, pi.mul(pi)),
    ]


def test_zero_and_one_memberships():
    zero = zero_adele(RATIONALS)
    one = one_adele(RATIONALS)
    for ideal in catalogue_ideals():
        assert member(zero, ideal)
        assert not member(one, ideal)


def test_member_examples():
    six = diagonal_rational(RATIONALS, 6)
    assert not member(six, max_at(_free_split()))
    assert member(six, zero_at(place_above(RATIONALS, 2))) is False
    g = generator(zero_at(place_above(RATIONALS, 5)))
    assert member(g, zero_at(place_above(RATIONALS, 5)))
    assert not member(g, zero_at(place_above(RATIONALS, 7)))


def test_member_between_examples():
    split = _free_split()
    pi = uniformizer_adele(RATIONALS)
    assert member_between(pi, split, pi)
    assert not member_between(one_adele(RATIONALS), split, pi)
    assert member_between(pi, split, pi.mul(pi))
    with pytest.raises(DegenerateGenerator):
        member_between(pi, split, one_adele(RATIONALS))
    with pytest.raises(DegenerateGenerator):
        between(split, diagonal_rational(RATIONALS, 6))


def test_between_beta_is_member():
    split = _free_split()
    for beta in (
        uniformizer_adele(RATIONALS),
        uniformizer_adele(RATIONALS).mul(uniformizer_adele(RATIONALS)),
        vanishing_on(RATIONALS, split.anchor_set()).neg(),
    ):
        ideal = between(split, beta)
        assert member(beta, ideal)


def test_classify_table():
    split = _free_split()
    assert classify(zero_at(place_above(RATIONALS, 5))) == {
        "is_maximal": True, "is_minimal": True}
    assert classify(zero_at(archimedean_places(RATIONALS)[0])) == {
        "is_maximal": True, "is_minimal": True}
    assert classify(max_at(split)) == {"is_maximal": True, "is_minimal": False}
    assert classify(min_at(split)) == {"is_maximal": False, "is_minimal": True}
    assert classify(between(split, uniformizer_adele(RATIONALS))) == {
        "is_maximal": False, "is_minimal": False}


def test_generator_oracle():
    rng = random.Random(2)
    v = place_above(RATIONALS, 5)
    ideal = zero_at(v)
    g = generator(ideal)
    assert adele_equals(g.mul(g), g)
    for _ in range(25):
        alpha = set_component(random_adele(RATIONALS, rng), v, RATIONALS.zero())
        assert member(alpha, ideal)
        assert adele_equals(g.mul(alpha), alpha)
    assert generator(max_at(_free_split())) is NOT_PRINCIPAL
    assert generator(min_at(_free_split())) is NOT_PRINCIPAL


def test_ideal_laws_sampled():
    rng = random.Random(11)
    ideals = catalogue_ideals()
    pool = [random_adele(RATIONALS, rng) for _ in range(30)]
    one = one_adele(RATIONALS)
    for ideal in ideals:
        members = [a for a in pool if member(a, ideal)]
        members += [
            generator(zero_at(place_above(RATIONALS, 5))),
            zero_adele(RATIONALS),
        ]
        members = [a for a in members if member(a, ideal)]
        assert not member(one, ideal)
        for _ in range(40):
            a, b = rng.choice(members), rng.choice(members)
            gamma = rng.choice(pool)
            assert member(a.add(b), ideal)
            assert member(gamma.mul(a), ideal)


def test_primality_sampled():
    rng = random.Random(13)
    ideals = catalogue_ideals()
    pool = [random_adele(RATIONALS, rng) for _ in range(30)]
    for ideal in ideals:
        for _ in range(60):
            a, b = rng.choice(pool), rng.choice(pool)
            if member(a.mul(b), ideal):
                assert member(a, ideal) or member(b, ideal)


def test_lattice_monotonicity():
    rng = random.Random(17)
    split = _free_split()
    pi = uniformizer_adele(RATIONALS)
    mid = between(split, pi)
    low, high = min_at(split), max_at(split)
    pool = [random_adele(RATIONALS, rng) for _ in range(40)]
    pool += [pi, pi.mul(pi), vanishing_on(RATIONALS, split.anchor_set())]
    for a in pool:
        if member(a, low):
            assert member(a, mid)
        if member(a, mid):
            assert member(a, high)


def test_distinct_ultrafilters_separated():
    split, inert = _free_split(), _free_inert()
    witness = vanishing_on(RATIONALS, split.anchor_set())
    assert member(witness, min_at(split))
    assert not member(witness, max_at(inert))
    witness2 = vanishing_on(RATIONALS, inert.anchor_set())
    assert member(witness2, min_at(inert))
    assert not member(witness2, max_at(split))


def test_between_decision_vs_brute_force():
    rng = random.Random(19)
    split, inert = _free_split(), _free_inert()
    checked = 0
    while checked < 60:
        u = rng.choice((split, inert, free_cofinite()))
        alpha = random_adele(RATIONALS, rng)
        beta = random_nonzero_profile_adele(RATIONALS, rng)
        try:
            fast = member_between(alpha, u, beta)
        except DegenerateGenerator:
            continue
        assert fast == brute_member_between(alpha, u, beta), (alpha, beta)
        checked += 1


def test_selected_piece_rule_vs_references():
    """The package reads each adele's selected piece on its own; the
    references intersect all pieces, and read max_at / min_at off the
    exact membership set."""
    rng = random.Random(37)
    rational = [_free_split(), _free_inert(), free_cofinite(),
                free_on_atom(CUBE2, FULL_SPLIT_CUBE2)]
    gaussian = lifts(_free_split(), GAUSS)
    assert len(gaussian) == 2
    checked = 0
    for _ in range(30):
        a, b = random_adele(RATIONALS, rng), random_adele(RATIONALS, rng)
        cases = [(u, a, b) for u in rational]
        if all(hasattr(v, "field") for x in (a, b) for _, v in x.exceptional):
            cases += [(u, to_extension(a, GAUSS), to_extension(b, GAUSS)) for u in gaussian]
        for u, x, y in cases:
            pair = selected_profile(u, x), selected_profile(u, y)
            assert pair == joint_selected_profile(u, x, y), (u, x, y)
            for kind in (max_at, min_at):
                assert member(x, kind(u)) == membership_set_member(x, kind(u)), (u, x)
            checked += 1
    assert checked >= 150


def test_free_primes_ignore_suspect_primes_past_desk_scale():
    """2 * 1000003 has a prime factor past desk scale, so the exact
    membership set is refused; no free ultrafilter reads that prime."""
    alpha = make_adele(RATIONALS, tail=TailPoly.constant(RATIONALS.element(2 * 1000003)))
    u = _free_split()
    assert not member(alpha, max_at(u))
    assert not member(alpha, min_at(u))
    assert not member(alpha, between(u, uniformizer_adele(RATIONALS)))
    with pytest.raises(UnsupportedPrime):
        membership_set(alpha, "in_m")


def test_restrict_to_level_flags():
    arch = frozenset(archimedean_places(RATIONALS))
    v5 = place_above(RATIONALS, 5)
    ideal = zero_at(v5)
    with_v = restrict_to_level(ideal, arch | {v5})
    without_v = restrict_to_level(ideal, arch)
    assert (with_v.is_maximal, with_v.is_minimal) == (True, True)
    assert (without_v.is_maximal, without_v.is_minimal) == (False, True)
    split = _free_split()
    assert restrict_to_level(max_at(split), arch).is_maximal
    assert not restrict_to_level(max_at(split), arch).is_minimal
    assert restrict_to_level(min_at(split), arch).is_minimal
    with pytest.raises(InvalidLevel):
        restrict_to_level(ideal, {v5})


def test_restrict_keeps_the_archimedean_rule():
    """A restriction to a set without the archimedean places was accepted,
    while `restrict_to_level` refuses the same set (see above)."""
    arch = frozenset(archimedean_places(RATIONALS))
    v5 = place_above(RATIONALS, 5)
    with pytest.raises(InvalidLevel):
        restrict_to_level(zero_at(v5), arch | {v5}).restrict({v5})


@pytest.mark.parametrize("other", [
    lambda: {place_above(GAUSS, 5, 0)},
    lambda: set(archimedean_places(GAUSS)),
], ids=["finite", "arch"])
def test_restrict_to_level_refuses_another_field(other):
    """A level holding a place of Q(i) was accepted for a prime of Q, and
    its printed S_f named the place of Q(i)."""
    arch = frozenset(archimedean_places(RATIONALS))
    with pytest.raises(FieldMismatch):
        restrict_to_level(zero_at(place_above(RATIONALS, 5)), arch | other())


def _level_at_5():
    v5 = place_above(RATIONALS, 5)
    return restrict_to_level(zero_at(v5), {v5, *archimedean_places(RATIONALS)})


REFUSALS = [
    (FieldMismatch, "place of a different field",
     lambda: one_adele(RATIONALS).arch_at(archimedean_places(GAUSS)[0])),
    (FieldMismatch, "element and place fields differ",
     lambda: embed(GAUSS.one(), place_above(RATIONALS, 5))),
    (FieldMismatch, "rational-level set queried with an extension place",
     lambda: all_primes().contains_place(place_above(GAUSS, 5, 0))),
    (FieldMismatch, "place does not belong to this field",
     lambda: finite_set(GAUSS, []).contains_place(place_above(CUBE2, 5, 0))),
    (FieldMismatch, "generator and ultrafilter over different fields",
     lambda: between(free_cofinite(), uniformizer_adele(GAUSS))),
    (FieldMismatch, "adele and ideal over different fields",
     lambda: member(one_adele(GAUSS), zero_at(place_above(RATIONALS, 5)))),
    (FieldMismatch, "constraint at a place of a different field",
     lambda: density_witness(free_cofinite(),
                             [Constraint(place_above(GAUSS, 5, 0), GAUSS.one(), 1)])),
    (FieldMismatch, "adele over a different field",
     lambda: closed_ideal(RATIONALS, []).member(one_adele(GAUSS))),
    (FieldMismatch, "lifts are taken from the rationals",
     lambda: lifts(FreeKUltrafilter(GAUSS, free_cofinite(), 1), CUBE2)),
    (ValueError, "unknown predicate 'bogus'",
     lambda: one_adele(RATIONALS).membership_set("bogus")),
    (ValueError, "must have integer coefficients", lambda: NumberField((1.5, 0, 1))),
    (ValueError, "section position 3 out of range",
     lambda: section_image(GAUSS, 3, all_primes())),
    (ValueError, "section position out of range",
     lambda: FreeKUltrafilter(GAUSS, free_cofinite(), 3)),
    (ZeroDivisionError, "inverse of zero", lambda: RATIONALS.zero().inverse()),
    (InvalidLevel, "restriction target must be a sub-level",
     lambda: _level_at_5().restrict(
         frozenset({place_above(RATIONALS, 7), *archimedean_places(RATIONALS)}))),
    (NotAPartition, "empty part list", lambda: partition_pick(free_cofinite(), [])),
]


@pytest.mark.parametrize("error,message,call", REFUSALS,
                         ids=[f"{error.__name__}: {message}" for error, message, _ in REFUSALS])
def test_library_refuses_what_it_cannot_answer(error, message, call):
    with pytest.raises(error) as refused:
        call()
    assert message in str(refused.value)


def test_level_chain_consistency():
    rng = random.Random(23)
    arch = frozenset(archimedean_places(RATIONALS))
    s0 = arch
    s1 = arch | {place_above(RATIONALS, 2)}
    s2 = s1 | {place_above(RATIONALS, 5)}
    pool = [random_adele(RATIONALS, rng) for _ in range(25)]
    for ideal in catalogue_ideals():
        direct = restrict_to_level(ideal, s1)
        via = restrict_to_level(ideal, s2).restrict(s1)
        assert (direct.ideal.kind, direct.level) == (via.ideal.kind, via.level)
        assert (direct.is_maximal, direct.is_minimal) == (via.is_maximal, via.is_minimal)
        for a in pool:
            assert direct.member(a) == via.member(a)


def test_quotient_eval():
    v = place_above(RATIONALS, 3)
    img = quotient_eval(diagonal_rational(RATIONALS, Fraction(1, 2)), v, 5)
    assert img.valuation == 0 and img.unit == (122,)
    g = generator(zero_at(v))
    assert quotient_eval(g, v).is_zero
    arch = archimedean_places(RATIONALS)[0]
    assert quotient_eval(diagonal_rational(RATIONALS, 7), arch) == RATIONALS.element(7)


def test_quotient_separates_exactly():
    rng = random.Random(29)
    v = place_above(RATIONALS, 5)
    ideal = zero_at(v)
    pool = [random_adele(RATIONALS, rng) for _ in range(25)]
    for _ in range(80):
        a, b = rng.choice(pool), rng.choice(pool)
        in_ideal = member(a.sub(b), ideal)
        qa, qb = quotient_eval(a, v, 32), quotient_eval(b, v, 32)
        assert in_ideal == local_agrees(qa, qb, 32)


def test_is_closed():
    split = _free_split()
    assert is_closed(zero_at(place_above(RATIONALS, 5)))
    assert is_closed(zero_at(archimedean_places(RATIONALS)[0]))
    assert not is_closed(max_at(split))
    assert not is_closed(min_at(split))
    assert not is_closed(between(split, uniformizer_adele(RATIONALS)))


def test_density_witness():
    split = _free_split()
    bare = density_witness(split)
    assert member(bare, min_at(split))
    cons = [
        Constraint(place_above(RATIONALS, 2), RATIONALS.one(), 3),
        Constraint(place_above(RATIONALS, 3), RATIONALS.one(), 2),
    ]
    witness = density_witness(split, cons)
    assert member(witness, min_at(split))
    for c in cons:
        value = witness.component_at(c.place)
        gap = value - c.target
        assert gap.is_zero()
    with pytest.raises(InconsistentNeighborhood):
        density_witness(split, [Constraint(place_above(RATIONALS, 2), RATIONALS.zero(), 1)])


def test_closed_ideal_oracle():
    rng = random.Random(31)
    v = place_above(RATIONALS, 5)
    single = closed_ideal(RATIONALS, [v])
    ideal = zero_at(v)
    pool = [random_adele(RATIONALS, rng) for _ in range(30)]
    pool.append(generator(ideal))
    for a in pool:
        assert single.member(a) == member(a, ideal)
    whole = closed_ideal(RATIONALS, [])
    assert all(whole.member(a) for a in pool)
    two = closed_ideal(RATIONALS, [v, place_above(RATIONALS, 7)])
    for a in pool:
        if two.member(a):
            assert member(a, ideal)
    g5 = generator(ideal)
    g57 = set_component(g5, place_above(RATIONALS, 7), RATIONALS.zero())
    assert two.member(g57) and not two.member(g5)


def test_closed_ideal_refuses_another_field_when_built():
    """Over Q(i), a set of primes of Q was accepted and refused only by the
    first `member`."""
    with pytest.raises(FieldMismatch):
        closed_ideal(GAUSS, finite_qset([5]))
    with pytest.raises(FieldMismatch):
        closed_ideal(RATIONALS, [archimedean_places(GAUSS)[0]])
