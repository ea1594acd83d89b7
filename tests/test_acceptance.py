"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every tolerance is exact (the model is exact arithmetic); sample
counts follow the stated sizes.
"""

import random

from adelic.adeles import (
    one_adele,
    set_component,
    uniformizer_adele,
    vanishing_on,
    zero_adele,
)
from adelic.errors import DegenerateGenerator
from adelic.localfields import valuation_of_element
from adelic.numberfields import RATIONALS
from adelic.places import (
    archimedean_places,
    factor_prime,
    place_above,
    splitting_class,
    supported_primes,
)
from adelic.placesets import empty_qset, finite_set
from adelic.spectrum import (
    Constraint,
    between,
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
    zero_at,
)
from adelic.ultrafilters import (
    PrincipalUltrafilter,
    free_cofinite,
    free_on_atom,
    lifts,
    partition_pick,
    pushforward,
    section_lift,
)

from conftest import CATALOGUE, CUBE2, CYCLO5, GAUSS
from gen import (
    random_adele,
    random_kset,
    random_level_adele,
    random_nonzero_profile_adele,
    random_qset,
)
from oracles import (
    brute_factor_mod_p,
    brute_member_between,
    distinguishing_witness,
    enumerate_finite_places,
    local_agrees,
    pointwise_set,
    same_decisions,
)

PRIME_BOUND = 10_000


def _report(number, name, detail):
    print(f"ACCEPTANCE {number} {name}: pass ({detail})")


def _free_catalogue():
    return {
        "split": free_on_atom(GAUSS, ((1, 1), (1, 1))),
        "inert": free_on_atom(GAUSS, ((1, 2),)),
        "cofinite": free_cofinite(),
        "cube-split": free_on_atom(CUBE2, ((1, 1), (1, 1), (1, 1))),
        "cyclo-inert": free_on_atom(CYCLO5, ((1, 4),)),
    }


def test_criterion_1_splitting_invariant():
    checked = 0
    for field in CATALOGUE:
        for p in supported_primes(field, PRIME_BOUND):
            places = factor_prime(field, p)
            assert sum(w.e * w.f for w in places) == field.degree, (field, p)
            expected = brute_factor_mod_p(field.coeffs, p)
            got = sorted(
                ((w.factor, w.e) for w in places),
                key=lambda t: (len(t[0]) - 1, t[0]),
            )
            assert got == expected, (field, p)
            assert splitting_class(field, p) == tuple(sorted(
                (e, len(g) - 1) for g, e in expected)), (field, p)
            checked += 1
    _report(1, "splitting invariant",
            f"{checked} (field, prime) pairs below {PRIME_BOUND}, "
            "oracle-matched factorizations")


def test_criterion_2_ultrafilter_axioms():
    rng = random.Random(1002)
    frees = _free_catalogue()
    catalogue = [
        PrincipalUltrafilter(place_above(RATIONALS, p)) for p in (2, 3, 5, 7, 13)
    ]
    catalogue += list(frees.values())
    catalogue += [
        section_lift(GAUSS, frees["split"], 1),
        section_lift(GAUSS, frees["split"], 2),
        PrincipalUltrafilter(place_above(GAUSS, 5, 0)),
    ]
    assert len(catalogue) >= 10
    qsets = [random_qset(rng, 2) for _ in range(1000)]
    ksets = [random_kset(GAUSS, rng, 2) for _ in range(1000)]
    checks = 0
    for u in catalogue:
        sets = qsets if u.field == RATIONALS else ksets
        empty = sets[0].intersect(sets[0].complement())
        assert not u.contains(empty)
        for i, s in enumerate(sets):
            t = sets[(i + 1) % len(sets)]
            if u.contains(s) and u.contains(t):
                assert u.contains(s.intersect(t))
            if u.contains(s):
                assert u.contains(s.union(t))
            assert u.contains(s) != u.contains(s.complement())
            checks += 1
    _report(2, "ultrafilter axioms",
            f"{len(catalogue)} ultrafilters x 1000 random sets, {checks} "
            "axiom checks, zero violations")


def test_criterion_3_partition_pick():
    rng = random.Random(1003)
    frees = _free_catalogue()
    us = [
        PrincipalUltrafilter(place_above(RATIONALS, p)) for p in (2, 7, 13)
    ] + list(frees.values())
    done = 0
    while done < 500:
        u = us[done % len(us)]
        chunks = [random_qset(rng, 2) for _ in range(rng.randint(1, 3))]
        parts = []
        covered = empty_qset()
        for c in chunks:
            piece = c.difference(covered)
            covered = covered.union(c)
            if not piece.is_empty():
                parts.append(piece)
        rest = covered.complement()
        if not rest.is_empty():
            parts.append(rest)
        hits = [i for i, s in enumerate(parts) if u.contains(s)]
        assert len(hits) == 1
        assert partition_pick(u, parts) == hits[0]
        done += 1
    _report(3, "partition pick", "500 random finite partitions, exactly one "
            "part selected each time")


def test_criterion_4_lift_counts_and_witnesses():
    frees = _free_catalogue()
    split_lifts = lifts(frees["split"], GAUSS)
    assert len(split_lifts) == 2
    w = distinguishing_witness(split_lifts[0], split_lifts[1])
    assert w is not None
    assert split_lifts[0].contains(w) and not split_lifts[1].contains(w)
    w_rev = distinguishing_witness(split_lifts[1], split_lifts[0])
    assert w_rev is not None
    assert split_lifts[1].contains(w_rev) and not split_lifts[0].contains(w_rev)
    assert len(lifts(frees["inert"], GAUSS)) == 1
    counted = 0
    for field in CATALOGUE:
        for u in list(frees.values()) + [
            PrincipalUltrafilter(place_above(RATIONALS, 13)),
        ]:
            ups = lifts(u, field)
            assert 1 <= len(ups) <= field.degree
            for up in ups:
                assert pushforward(up) == u
            counted += 1
    _report(4, "lift counts", "split atom lifts = 2 (witnessed), inert = 1, "
            f"{counted} (ultrafilter, extension) pairs within degree bound")


def _member_pools(rng, ideal, pool, pi, extras):
    members = [a for a in pool if member(a, ideal)]
    members += [a for a in extras if member(a, ideal)]
    members.append(zero_adele(RATIONALS))
    return members


def test_criterion_5_ideal_laws_and_primality():
    rng = random.Random(1005)
    frees = _free_catalogue()
    pi = uniformizer_adele(RATIONALS)
    variants = {
        "zero_at": zero_at(place_above(RATIONALS, 5)),
        "max_at": max_at(frees["split"]),
        "min_at": min_at(frees["split"]),
        "between": between(frees["split"], pi),
    }
    pool = [random_adele(RATIONALS, rng) for _ in range(36)]
    ind = vanishing_on(RATIONALS, frees["split"].anchor_set())
    extras = [
        pi, pi.mul(pi), ind, ind.mul(pi),
        generator(zero_at(place_above(RATIONALS, 5))),
        set_component(pi, place_above(RATIONALS, 5), RATIONALS.zero()),
    ] + [x.mul(pi) for x in pool[:6]] + [x.mul(ind) for x in pool[:6]]
    one = one_adele(RATIONALS)
    law_checks = prime_checks = 0
    for name, ideal in variants.items():
        assert not member(one, ideal)
        members = _member_pools(rng, ideal, pool, pi, extras)
        assert len(members) >= 3, name
        for _ in range(500):
            a, b = rng.choice(members), rng.choice(members)
            gamma = rng.choice(pool)
            assert member(a.add(b), ideal), name
            assert member(gamma.mul(a), ideal), name
            law_checks += 1
        for _ in range(500):
            a, b = rng.choice(pool), rng.choice(pool)
            if member(a.mul(b), ideal):
                assert member(a, ideal) or member(b, ideal), name
            prime_checks += 1
    _report(5, "ideal laws and primality",
            f"4 variants x 500 pairs: {law_checks} closure/absorption checks, "
            f"{prime_checks} primality checks, zero violations")


def test_criterion_6_lattice_and_separators():
    rng = random.Random(1006)
    frees = _free_catalogue()
    pi = uniformizer_adele(RATIONALS)
    low = min_at(frees["split"])
    mid = between(frees["split"], pi)
    high = max_at(frees["split"])
    pool = [random_adele(RATIONALS, rng) for _ in range(40)]
    pool += [pi, pi.mul(pi), vanishing_on(RATIONALS, frees["split"].anchor_set())]
    checked = 0
    while checked < 500:
        a = pool[checked % len(pool)].mul(rng.choice(pool)) \
            if checked >= len(pool) else pool[checked % len(pool)]
        if member(a, low):
            assert member(a, mid)
        if member(a, mid):
            assert member(a, high)
        checked += 1
    # pairwise-distinct free ultrafilters: joint atoms force a different
    # selected class at some coordinate for every pair
    from adelic.placesets import class_atom
    from adelic.ultrafilters import free_on_set

    split_a = class_atom(GAUSS, ((1, 1), (1, 1)))
    inert_a = class_atom(GAUSS, ((1, 2),))
    mixed_c = class_atom(CUBE2, ((1, 1), (1, 2)))
    full_c = class_atom(CUBE2, ((1, 1), (1, 1), (1, 1)))
    refined = [
        free_on_set(split_a.intersect(mixed_c)),
        free_on_set(split_a.intersect(full_c)),
        free_on_set(inert_a.intersect(mixed_c)),
        free_on_set(inert_a.intersect(full_c)),
        frees["split"],
        frees["inert"],
    ]
    separated = skipped = 0
    for i, u in enumerate(refined):
        for v in refined[i + 1:]:
            if same_decisions(u, v):
                skipped += 1
                continue
            w = distinguishing_witness(u, v)
            assert w is not None, (u, v)
            witness = vanishing_on(RATIONALS, w)
            assert member(witness, min_at(u))
            assert not member(witness, max_at(v))
            separated += 1
    assert separated >= 10
    _report(6, "spectrum lattice",
            f"500 monotonicity samples; {separated} distinct free pairs "
            f"separated by explicit witnesses ({skipped} coincident pairs)")


def test_criterion_7_level_chain_consistency():
    rng = random.Random(1007)
    frees = _free_catalogue()
    pi = uniformizer_adele(RATIONALS)
    arch = frozenset(archimedean_places(RATIONALS))
    v2, v5, v7 = (place_above(RATIONALS, p) for p in (2, 5, 7))
    chains = [
        (arch, arch | {v2}, arch | {v2, v5}),
        (arch, arch | {v5}, arch | {v2, v5, v7}),
    ]
    ideals = [
        zero_at(v5),
        zero_at(archimedean_places(RATIONALS)[0]),
        max_at(frees["split"]),
        min_at(frees["split"]),
        max_at(frees["cofinite"]),
        between(frees["split"], pi),
    ]
    samples = 0
    for s0, s1, s2 in chains:
        pool = [random_level_adele(RATIONALS, rng, sorted(
            (w for w in s1 if w.is_finite), key=lambda w: w.p)) for _ in range(50)]
        for ideal in ideals:
            direct = restrict_to_level(ideal, s1)
            via = restrict_to_level(ideal, s2).restrict(s1)
            nested = restrict_to_level(ideal, s2).restrict(s1).restrict(s0) \
                .level == restrict_to_level(ideal, s0).level
            assert nested
            assert (direct.ideal.kind, direct.level, direct.is_maximal,
                    direct.is_minimal) == (via.ideal.kind, via.level,
                                           via.is_maximal, via.is_minimal)
            for a in pool:
                assert direct.member(a) == via.member(a)
                samples += 1
    _report(7, "level-chain consistency",
            f"2 three-level chains x 6 ideals, {samples} membership "
            "agreements on level adeles")


def test_criterion_8_quotient_isomorphism():
    rng = random.Random(1008)
    v = place_above(RATIONALS, 5)
    wk = place_above(GAUSS, 2)
    cases = [(RATIONALS, v), (GAUSS, wk)]
    done = 0
    for field, place in cases:
        ideal = zero_at(place)
        pool = [random_adele(field, rng) for _ in range(30)]
        for _ in range(100):
            a, b = rng.choice(pool), rng.choice(pool)
            lhs = member(a.sub(b), ideal)
            rhs = local_agrees(quotient_eval(a, place, 32), quotient_eval(b, place, 32), 32)
            assert lhs == rhs
            done += 1
    _report(8, "quotient isomorphism",
            f"{done} random pairs, membership iff equal images at "
            "precision 32, both directions")


def test_criterion_9_fiber_structure():
    rng = random.Random(1009)
    frees = _free_catalogue()
    pi = uniformizer_adele(RATIONALS)
    pi2 = pi.mul(pi)
    from adelic.extensions import contract_prime, fiber_of_spec, to_extension

    rational_ideals = [
        zero_at(place_above(RATIONALS, 5)),
        zero_at(place_above(RATIONALS, 13)),
        zero_at(archimedean_places(RATIONALS)[0]),
        max_at(frees["split"]),
        min_at(frees["split"]),
        max_at(frees["inert"]),
        min_at(frees["cofinite"]),
        between(frees["split"], pi),
    ]
    verified = 0
    for field in (GAUSS, CUBE2, CYCLO5):
        for ideal in rational_ideals:
            fiber = fiber_of_spec(ideal, field)
            assert 1 <= len(fiber) <= field.degree, (field, ideal)
            for up in fiber:
                down = contract_prime(up)
                if ideal.kind == "between":
                    assert down.kind == "between" and down.ultra == ideal.ultra
                else:
                    assert down == ideal
                verified += 1
    # intermediate primes: exactly one per lifted ultrafilter, and the
    # choice of generator inside the contracted ideal does not matter
    fiber_a = fiber_of_spec(between(frees["split"], pi), GAUSS)
    fiber_b = fiber_of_spec(between(frees["split"], pi2), GAUSS)
    assert len(fiber_a) == len(lifts(frees["split"], GAUSS)) == 2
    samples = 0
    pool = [random_adele(GAUSS, rng) for _ in range(40)]
    for up_a, up_b in zip(fiber_a, fiber_b):
        assert up_a.ultra == up_b.ultra
        for _ in range(100):
            alpha = rng.choice(pool).mul(rng.choice(pool)) if rng.random() < 0.4 \
                else rng.choice(pool)
            assert member(alpha, up_a) == member(alpha, up_b)
            samples += 1
    # contraction agreement for the between fiber on rational samples
    down = contract_prime(fiber_a[0])
    agreement = 0
    for _ in range(200):
        alpha = random_adele(RATIONALS, rng)
        if any(not hasattr(v, "field") for _, v in alpha.exceptional):
            continue
        assert member(alpha, down) == member(to_extension(alpha, GAUSS), fiber_a[0])
        agreement += 1
    _report(9, "spectrum fibers",
            f"{verified} contract-of-fiber identities across 3 extensions; "
            f"between-fiber uniqueness on {samples} samples; descent "
            f"agreement on {agreement} rational adeles")


def test_criterion_10_topology():
    rng = random.Random(1010)
    frees = _free_catalogue()
    pi = uniformizer_adele(RATIONALS)
    closed_ideals = [
        zero_at(place_above(RATIONALS, 5)),
        zero_at(place_above(RATIONALS, 2)),
        zero_at(archimedean_places(RATIONALS)[0]),
        zero_at(place_above(GAUSS, 5, 1)),
    ]
    dense_ideals = [
        max_at(frees["split"]), min_at(frees["split"]),
        max_at(frees["cofinite"]), min_at(frees["cyclo-inert"]),
        between(frees["split"], pi),
    ]
    for ideal in closed_ideals:
        assert is_closed(ideal)
    for ideal in dense_ideals:
        assert not is_closed(ideal)
    # a closed prime is the closed ideal of adeles vanishing at its place
    pools = {field: [random_adele(field, rng) for _ in range(30)] for field in (RATIONALS, GAUSS)}
    agreements = 0
    for ideal in closed_ideals:
        pool = pools[ideal.field] + [generator(ideal)]
        closed = closed_ideal(ideal.field, [ideal.place])
        for a in pool:
            assert closed.member(a) == member(a, ideal)
            agreements += 1
    targets = {2: place_above(RATIONALS, 2), 3: place_above(RATIONALS, 3),
               7: place_above(RATIONALS, 7)}
    done = 0
    frees_q = [frees["split"], frees["inert"], frees["cofinite"]]
    while done < 100:
        u = frees_q[done % len(frees_q)]
        constraints = []
        for p, w in targets.items():
            if rng.random() < 0.6:
                power = rng.randint(1, 4)
                offset = rng.randint(0, 2) * p ** power
                constraints.append(
                    Constraint(w, RATIONALS.element(1 + offset), power))
        witness = density_witness(u, constraints)
        assert member(witness, min_at(u))
        # it vanishes on the anchor set away from the constrained places
        zeros = u.anchor_set().difference(finite_set(RATIONALS, [c.place for c in constraints]))
        assert closed_ideal(RATIONALS, zeros).member(witness)
        for c in constraints:
            value = witness.component_at(c.place)
            gap = value - c.target
            if not gap.is_zero():
                assert valuation_of_element(gap, c.place) >= c.min_valuation
        done += 1
    _report(10, "topology",
            f"{len(closed_ideals)} closed / {len(dense_ideals)} dense flags "
            f"exact; {agreements} closed-ideal memberships agreed with zero_at; "
            "100 density witnesses satisfied their neighborhoods and lay in "
            "the closed ideal of their zero region")


def test_criterion_11_pointwise_oracle_equivalence():
    rng = random.Random(1011)
    q_places = enumerate_finite_places(RATIONALS, 200)
    k_places = enumerate_finite_places(GAUSS, 200)
    instances = 0
    for _ in range(350):
        a, b = random_qset(rng, 2), random_qset(rng, 2)
        mem_a = {w.p for w in q_places if a.contains_prime(w.p)}
        mem_b = {w.p for w in q_places if b.contains_prime(w.p)}
        universe = {w.p for w in q_places}
        union, meet, rest = a.union(b), a.intersect(b), a.complement()
        assert {p for p in universe if union.contains_prime(p)} == mem_a | mem_b
        assert {p for p in universe if meet.contains_prime(p)} == mem_a & mem_b
        assert {p for p in universe if rest.contains_prime(p)} == universe - mem_a
        instances += 3
    for _ in range(150):
        a, b = random_kset(GAUSS, rng, 2), random_kset(GAUSS, rng, 2)
        mem_a = {w for w in k_places if a.contains_place(w)}
        mem_b = {w for w in k_places if b.contains_place(w)}
        union, meet = a.union(b), a.intersect(b)
        assert {w for w in k_places if union.contains_place(w)} == mem_a | mem_b
        assert {w for w in k_places if meet.contains_place(w)} == mem_a & mem_b
        instances += 2
    for field, places in ((RATIONALS, q_places), (GAUSS, k_places)):
        for _ in range(100):
            alpha = random_adele(field, rng)
            for predicate in ("is_zero", "in_m"):
                described = alpha.membership_set(predicate)
                assert {w for w in places if described.contains_place(w)} == \
                    pointwise_set(alpha, predicate, places)
                instances += 1
    assert instances >= 1000
    _report(11, "pointwise oracle equivalence",
            f"{instances} instances checked over the first 200 places")


def test_criterion_12_between_decision_vs_brute_force():
    rng = random.Random(1012)
    frees = _free_catalogue()
    us = [frees["split"], frees["inert"], frees["cofinite"]]
    agreed = 0
    while agreed < 200:
        u = us[agreed % len(us)]
        alpha = random_adele(RATIONALS, rng)
        beta = random_nonzero_profile_adele(RATIONALS, rng)
        try:
            fast = member_between(alpha, u, beta)
        except DegenerateGenerator:
            continue
        brute = brute_member_between(alpha, u, beta, n_max=64)
        assert fast == brute
        agreed += 1
    _report(12, "between decision procedure",
            "200 random (alpha, beta, ultrafilter) triples agree with the "
            "n<=64 quantifier search")
