import random

import pytest

from adelic import config, ultrafilters
from adelic.adeles import vanishing_on
from adelic.errors import (
    FieldMismatch,
    NotAPartition,
    UnsupportedPrime,
    UnsupportedSelection,
)
from adelic.localfields import INF
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import (FACTOR_CAP, class_label, factor_prime, place_above,
                           splitting_class)
from adelic.placesets import (
    all_primes,
    class_atom,
    empty_qset,
    finite_qset,
    full_preimage,
)
from adelic.ultrafilters import (
    FreeKUltrafilter,
    FreeQUltrafilter,
    PrincipalUltrafilter,
    free_cofinite,
    free_on_atom,
    lifts,
    partition_pick,
    pushforward,
)

from adelic.primes import primerange
from adelic.registry import clear_registry, ensure_registered, registered_fields
from adelic.spectrum import selected_profile

from conftest import CATALOGUE, CUBE2, CYCLO5, GAUSS, INERT_GAUSS, ROOT5, SPLIT_GAUSS
from gen import cofinite_qset, random_kset, random_qset, random_wide_qset
from oracles import (
    cycle_types,
    discriminant_primes,
    distinguishing_witness,
    pullback_contains,
    reference_selector_chain,
    unramified_classes,
)

QUINTIC = NumberField((-1, -1, 0, 0, 0, 1))  # x^5 - x - 1, Galois group S5


def catalogue_ultrafilters():
    """At least ten ultrafilters: principal and free, base and lifted."""
    out = [PrincipalUltrafilter(place_above(RATIONALS, p)) for p in (2, 3, 5, 7, 13)]
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    inert = free_on_atom(GAUSS, ((1, 2),))
    out += [
        split,
        inert,
        free_cofinite(),
        free_on_atom(CUBE2, ((1, 1), (1, 1), (1, 1))),
        free_on_atom(CYCLO5, ((1, 4),)),
    ]
    out += [FreeKUltrafilter(GAUSS, split, 1), FreeKUltrafilter(GAUSS, split, 2)]
    out.append(PrincipalUltrafilter(place_above(GAUSS, 5, 0)))
    return out


def _random_set_for(u, rng):
    if u.field == RATIONALS:
        return random_qset(rng)
    return random_kset(u.field, rng)


def test_axioms_on_random_sets():
    rng = random.Random(42)
    for u in catalogue_ultrafilters():
        for _ in range(60):
            s = _random_set_for(u, rng)
            t = _random_set_for(u, rng)
            empty = s.intersect(s.complement())
            assert not u.contains(empty)                       # axiom 1
            if u.contains(s) and u.contains(t):
                assert u.contains(s.intersect(t))              # axiom 2
            if u.contains(s):
                assert u.contains(s.union(t))                  # axiom 3 (upward)
            assert u.contains(s) != u.contains(s.complement())  # axiom 4


def test_free_ultrafilters_reject_finite_contain_cofinite():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    assert not split.contains(finite_qset([5, 13, 17, 29]))
    assert not split.contains(empty_qset())
    assert split.contains(cofinite_qset([5, 13]))
    assert split.contains(all_primes())
    atom = split.anchor_set()
    assert split.contains(atom)
    assert split.contains(atom.difference(finite_qset([5])))
    with pytest.raises(UnsupportedSelection):
        FreeQUltrafilter(finite_qset([5, 13]))


def test_principal_semantics():
    u = PrincipalUltrafilter(place_above(RATIONALS, 5))
    assert u.contains(finite_qset([5]))
    assert not u.contains(finite_qset([7]))
    assert u.contains(cofinite_qset([7]))
    assert not u.contains(cofinite_qset([5]))


def test_contains_complement_duality_thousand():
    rng = random.Random(77)
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    for _ in range(200):
        s = random_qset(rng)
        assert split.contains(s) != split.contains(s.complement())


def test_partition_pick():
    split_atom = class_atom(GAUSS, ((1, 1), (1, 1)))
    inert_atom = class_atom(GAUSS, ((1, 2),))
    rest = split_atom.union(inert_atom).complement()
    parts = [split_atom, inert_atom, rest]
    assert partition_pick(free_on_atom(GAUSS, ((1, 1), (1, 1))), parts) == 0
    assert partition_pick(free_on_atom(GAUSS, ((1, 2),)), parts) == 1
    assert partition_pick(PrincipalUltrafilter(place_above(RATIONALS, 7)), parts) == 1
    assert partition_pick(PrincipalUltrafilter(place_above(RATIONALS, 2)), parts) == 2
    with pytest.raises(NotAPartition):
        partition_pick(free_cofinite(), [split_atom, split_atom])
    with pytest.raises(NotAPartition):
        partition_pick(free_cofinite(), [split_atom, inert_atom])


def test_random_partitions_pick_exactly_one():
    rng = random.Random(4)
    us = catalogue_ultrafilters()
    for _ in range(120):
        u = rng.choice([x for x in us if x.field == RATIONALS])
        chunks = [random_qset(rng, 2) for _ in range(rng.randint(1, 3))]
        parts = []
        covered = empty_qset()
        for c in chunks:
            piece = c.difference(covered)
            covered = covered.union(c)
            if not piece.is_empty():
                parts.append(piece)
        remainder = covered.complement()
        if not remainder.is_empty():
            parts.append(remainder)
        hits = [i for i, s in enumerate(parts) if u.contains(s)]
        assert len(hits) == 1
        assert partition_pick(u, parts) == hits[0]


def test_lift_counts():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    inert = free_on_atom(GAUSS, ((1, 2),))
    assert len(lifts(split, GAUSS)) == 2
    assert len(lifts(inert, GAUSS)) == 1
    full = free_on_atom(CUBE2, ((1, 1), (1, 1), (1, 1)))
    assert len(lifts(full, CUBE2)) == 3
    mixed = free_on_atom(CUBE2, ((1, 1), (1, 2)))
    assert len(lifts(mixed, CUBE2)) == 2
    principal13 = PrincipalUltrafilter(place_above(RATIONALS, 13))
    assert len(lifts(principal13, GAUSS)) == 2
    principal7 = PrincipalUltrafilter(place_above(RATIONALS, 7))
    assert len(lifts(principal7, GAUSS)) == 1
    for field in (GAUSS, ROOT5, CUBE2, CYCLO5):
        for u in (free_cofinite(), split, inert):
            assert len(lifts(u, field)) <= field.degree


def test_lifts_are_distinct_with_witnesses():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    ups = lifts(split, GAUSS)
    assert ups[0] != ups[1]
    w = distinguishing_witness(ups[0], ups[1])
    assert w is not None and ups[0].contains(w) and not ups[1].contains(w)
    full = free_on_atom(CUBE2, ((1, 1), (1, 1), (1, 1)))
    ups3 = lifts(full, CUBE2)
    for i in range(3):
        for j in range(3):
            if i != j:
                w = distinguishing_witness(ups3[i], ups3[j])
                assert w is not None
                assert ups3[i].contains(w) and not ups3[j].contains(w)


def test_pushforward_inverts_lifts():
    for base in (
        free_on_atom(GAUSS, ((1, 1), (1, 1))),
        free_on_atom(GAUSS, ((1, 2),)),
        free_cofinite(),
        PrincipalUltrafilter(place_above(RATIONALS, 13)),
    ):
        for field in (GAUSS, CUBE2):
            for up in lifts(base, field):
                assert pushforward(up) == base


def test_pushforward_respects_preimages():
    rng = random.Random(31)
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    for up in lifts(split, GAUSS):
        for _ in range(30):
            s = random_qset(rng, 2)
            assert pushforward(up).contains(s) == up.contains(full_preimage(GAUSS, s))
    w = place_above(GAUSS, 13, 1)
    up = PrincipalUltrafilter(w)
    assert pushforward(up) == PrincipalUltrafilter(place_above(RATIONALS, 13))


def test_identity_extension():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    assert lifts(split, RATIONALS) == [split]
    assert pushforward(split) == split


def test_padding_collapses_high_positions():
    inert = free_on_atom(GAUSS, ((1, 2),))
    high = FreeKUltrafilter(GAUSS, inert, 2)
    low = FreeKUltrafilter(GAUSS, inert, 1)
    assert high == low
    assert high.effective_position == 1


def test_lifts_answer_as_the_pullback_rule():
    """Every lift of seven free ultrafilters to each catalogue field, at
    every position up to the degree (padded ones included), answers as
    the original pullback rule on random extension-level sets."""
    rng = random.Random(41)
    bases = [free_on_atom(GAUSS, SPLIT_GAUSS), free_on_atom(GAUSS, INERT_GAUSS),
             free_on_atom(ROOT5, ((1, 2),)), free_on_atom(CUBE2, ((1, 1), (1, 2))),
             free_on_atom(CYCLO5, ((1, 4),)), free_on_atom(CYCLO5, ((1, 1),) * 4),
             free_cofinite()]
    answers, padded = set(), 0
    for field in CATALOGUE:
        sets = [random_kset(field, rng) for _ in range(12)]
        for base in bases:
            for position in range(1, field.degree + 1):
                up = FreeKUltrafilter(field, base, position)
                padded += up.effective_position != position
                for s in sets:
                    want = pullback_contains(base, s, position)
                    assert up.contains(s) == want
                    answers.add(want)
    assert answers == {True, False} and padded >= 10


def test_field_mismatch():
    split = free_on_atom(GAUSS, ((1, 1), (1, 1)))
    with pytest.raises(FieldMismatch):
        split.contains(full_preimage(GAUSS, all_primes()))
    up = lifts(split, GAUSS)[0]
    with pytest.raises(FieldMismatch):
        up.contains(all_primes())


C3_CUBIC = NumberField((1, -3, 0, 1))  # x^3 - 3x + 1, Galois group C3


@pytest.mark.parametrize("field,cls", [
    (GAUSS, ((2, 1),)),          # ramified: the finite set {2}
    (CUBE2, ((3, 1),)),          # totally ramified: {2, 3}
    (C3_CUBIC, ((1, 1), (1, 2))),  # unramified, but no Frobenius has this cycle type
], ids=["ramified", "totally-ramified", "unrealized"])
def test_anchor_without_witness_is_refused(field, cls):
    with pytest.raises(UnsupportedSelection, match="no unramified prime below 10000"):
        free_on_atom(field, cls)


@pytest.mark.parametrize("field,generators", [
    (GAUSS, [(1, 0)]),                    # C2
    (CUBE2, [(1, 0, 2), (1, 2, 0)]),      # S3
    (CYCLO5, [(1, 3, 0, 2)]),             # C4: zeta -> zeta^2 on the exponents 1..4
    (C3_CUBIC, [(1, 2, 0)]),              # C3
], ids=["x^2+1", "x^3-2", "Phi5", "x^3-3x+1"])
def test_free_atoms_are_the_galois_cycle_types(field, generators):
    """At the unramified primes below 10^4 the classes seen are the cycle
    types of the Galois group, and a free ultrafilter anchors on exactly
    those unramified classes."""
    disc = discriminant_primes(field)
    seen = {splitting_class(field, p) for p in primerange(2, 10_000) if p not in disc}
    cycles = {tuple((1, f) for f in t) for t in cycle_types(generators)}
    assert seen == cycles
    for cls in unramified_classes(field.degree):
        if cls in cycles:
            assert free_on_atom(field, cls).contains(class_atom(field, cls))
        else:
            with pytest.raises(UnsupportedSelection):
                free_on_atom(field, cls)


def test_motivating_ramified_selection_is_gone(monkeypatch):
    """At bound 8 the selector used to count the ramified primes 2 and 3
    of x^3 - 2 and select the totally ramified class, so the free
    ultrafilter held the finite set {2, 3}."""
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=8))
    clear_registry()
    ensure_registered(CUBE2)
    u = free_cofinite()
    totally = class_atom(CUBE2, ((3, 1),))
    assert not totally.cells and totally.plus == {2, 3}
    assert not u.contains(totally)
    assert u.contains(totally.complement())


def test_free_ultrafilters_keep_their_bound(monkeypatch):
    """Selection reads the bound the ultrafilter was built with, and
    equality, hashing and the profile cache tell bounds apart."""
    selected_profile.cache_clear()
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=3))
    tiny = free_cofinite()
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=6))
    small = free_cofinite()
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=10_000))
    large = free_cofinite()
    # 2 ramifies in x^2+1, so 3 (inert) is the first witness below 6 and below 10^4
    assert small._selected_class(GAUSS) == INERT_GAUSS
    assert large._selected_class(GAUSS) == INERT_GAUSS
    assert large != small and len({tiny, small, large}) == 3
    alpha = vanishing_on(RATIONALS, class_atom(GAUSS, SPLIT_GAUSS))
    assert selected_profile(large, alpha) == 0
    # below 3 the only prime, 2, ramifies: the cached answer for 10^4 is not reused
    with pytest.raises(UnsupportedSelection):
        selected_profile(tiny, alpha)


def _chain(u):
    """The selector chain over every registered field, and whether it
    stopped at a field that no prime supports."""
    try:
        for K in registered_fields():
            u._selected_class(K)
    except UnsupportedSelection:
        return dict(u._chain), True
    return dict(u._chain), False


@pytest.mark.parametrize("bound", [300, 3000])
def test_selector_chain_matches_first_witness(bound, monkeypatch):
    """Every chain step takes the class of its smallest witness below the
    bound, the chain an independent list of all witnesses picks; an atom
    without a witness is refused."""
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=bound))
    ensure_registered(QUINTIC)
    rng = random.Random(bound)
    modifiers = list(primerange(2, 400))
    fixes = modified = refused = 0
    for _ in range(200):
        atom = random_wide_qset(rng)
        atom = atom.union(finite_qset(rng.sample(modifiers, rng.randint(0, 4))))
        atom = atom.difference(finite_qset(rng.sample(modifiers, rng.randint(0, 3))))
        if not atom.cells:
            continue
        try:
            u = FreeQUltrafilter(atom)
        except UnsupportedSelection:
            got = None
        else:
            got = _chain(u)
            # the whole chain is the one witness's classes
            assert u.witness < bound
            assert all(cls == splitting_class(K, u.witness) for K, cls in got[0].items()), atom
        assert got == reference_selector_chain(atom, registered_fields(), bound), atom
        # the cells give some context field one class
        fixed = any(len({cell[i] for cell in atom.cells}) == 1
                    for i in range(len(atom.context)))
        fixes += fixed
        modified += fixed and bool(atom.plus or atom.minus)
        refused += got is None or got[1]
    assert fixes >= 40 and modified >= 30 and refused >= 2


def test_selector_chain_does_not_depend_on_the_bound(monkeypatch):
    """Each free ultrafilter on an unramified atom of the five fields, and
    the cofinite one, selects the same chain at every bound where it is
    not refused; the bound decides only refusal."""
    ensure_registered(QUINTIC)
    anchors = [(K, cls) for K in registered_fields()
               for cls in sorted(unramified_classes(K.degree))] + [None]
    chains = {}
    for bound in (1_000, 10_000, 100_000):
        monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=bound))
        for anchor in anchors:
            try:
                u = free_cofinite() if anchor is None else free_on_atom(*anchor)
            except UnsupportedSelection:
                chains[anchor, bound] = None
            else:
                chains[anchor, bound] = _chain(u)
    answered = 0
    for anchor in anchors:
        runs = [chains[anchor, bound] for bound in (1_000, 10_000, 100_000)]
        whole = [chain for chain, stopped in filter(None, runs) if not stopped]
        answered += bool(whole)
        assert all(chain == whole[0] for chain in whole), anchor
        for run in filter(None, runs):
            # a refused step leaves a prefix of the chain a larger bound completes
            assert not whole or list(run[0].items()) == list(whole[0].items())[:len(run[0])]
    assert answered >= 12
    totally_split = (QUINTIC, ((1, 1),) * 5)
    assert chains[totally_split, 1_000] is None
    assert chains[totally_split, 10_000] == chains[totally_split, 100_000]
    assert not chains[totally_split, 10_000][1]


def test_selector_scans_start_past_the_witness(monkeypatch):
    """The cofinite witness is 2; 2 ramifies in x^2+1, so it moves to 3
    (inert), and 3 ramifies in x^3-2, so it moves to 7, the least prime
    from 4 that is inert in x^2+1 and ramifies in neither.  No scan
    restarts at 2."""
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=10_000))
    sieved, starts = ultrafilters.primerange, []

    def recorded(a, b):
        starts.append(a)
        return sieved(a, b)

    monkeypatch.setattr(ultrafilters, "primerange", recorded)
    clear_registry()
    ensure_registered(GAUSS)
    ensure_registered(CUBE2)
    u = free_cofinite()
    witnesses = [u.witness]
    for K in (GAUSS, CUBE2):
        u._selected_class(K)
        witnesses.append(u.witness)
    assert witnesses == [2, 3, 7] and starts == [2, 3, 4]
    assert {K: class_label(cls) for K, cls in u._chain.items()} == {GAUSS: "1x2", CUBE2: "1x3"}


def test_split_selector_samples_few_primes(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=10_000))
    splitting_class.cache_clear()
    u = free_on_atom(GAUSS, SPLIT_GAUSS)
    assert u._selected_class(GAUSS) == SPLIT_GAUSS
    assert splitting_class.cache_info().currsize < 100


def test_prime_bound_past_desk_scale_is_refused(monkeypatch):
    """Sampling that stops early still refuses a bound whose primes could
    not all be factored, and sieves no range past desk scale to decide."""
    sieved = ultrafilters.primerange

    def below_desk_scale(a, b):
        assert a < FACTOR_CAP, f"primerange({a}, {b}) starts past desk scale"
        return sieved(a, b)

    monkeypatch.setattr(ultrafilters, "primerange", below_desk_scale)
    for bound in (1_100_000, 1_000_004, 3_000_000):
        monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=bound))
        with pytest.raises(UnsupportedPrime, match="^1000003 exceeds"):
            free_on_atom(GAUSS, SPLIT_GAUSS)
    monkeypatch.setattr(config, "DEFAULT", config.Settings(prime_bound=1_000_003))
    free_on_atom(GAUSS, SPLIT_GAUSS)
