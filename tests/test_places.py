import pytest

from adelic import places
from adelic.errors import NotPrime, UnsupportedPrime
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import (
    archimedean_places,
    class_label,
    excluded_primes,
    factor_prime,
    parse_class_label,
    splitting_class,
    supported_primes,
    supported_primes_dividing,
    unramified_classes,
)
from adelic.placesets import all_primes
from adelic.primes import primerange

from conftest import CUBE2, CYCLO5, GAUSS, ROOT5
from oracles import (
    enumerate_finite_places,
    oracle_unramified_class,
    splitting_types,
    trial_division_isprime,
)
from oracles import unramified_classes as oracle_unramified_classes


def test_factor_prime_examples():
    fiber = factor_prime(GAUSS, 5)
    assert [(w.e, w.f) for w in fiber] == [(1, 1), (1, 1)]
    fiber = factor_prime(GAUSS, 2)
    assert [(w.e, w.f) for w in fiber] == [(2, 1)]
    fiber = factor_prime(RATIONALS, 11)
    assert [(w.e, w.f) for w in fiber] == [(1, 1)]


def test_splitting_class_examples():
    assert splitting_class(GAUSS, 13) == ((1, 1), (1, 1))
    assert splitting_class(GAUSS, 7) == ((1, 2),)
    assert splitting_class(RATIONALS, 97) == ((1, 1),)
    assert splitting_class(CUBE2, 3) == ((3, 1),)
    assert splitting_class(CYCLO5, 5) == ((4, 1),)
    assert splitting_class(CYCLO5, 11) == ((1, 1), (1, 1), (1, 1), (1, 1))


@pytest.mark.parametrize("coeffs", [(-1, -1, 0, 0, 0, 1), (-2, 0, 0, 0, 0, 0, 1)])
def test_splitting_class_matches_fibers(coeffs):
    """The distinct-degree classes agree with full factoring at every prime
    below 10**4, the ramified ones included (19 and 151 for x^5 - x - 1,
    2 and 3 for x^6 - 2), and with the oracle's distinct-degree class at
    every unramified one, and at 20 primes of the local-census range
    10**4..3*10**4, where the packed slots are widest."""
    field = NumberField(coeffs)
    for p in primerange(2, 10_000):
        fiber = factor_prime(field, p)
        cls = splitting_class(field, p)
        assert cls == tuple(sorted((w.e, w.f) for w in fiber)), p
        if field.discriminant % p:
            assert cls == oracle_unramified_class(coeffs, p), p
    wide = list(primerange(10_000, 30_000))
    for p in wide[::len(wide) // 20][:20]:
        assert splitting_class(field, p) == oracle_unramified_class(coeffs, p), p


def test_splitting_class_factors_no_discriminant(monkeypatch):
    """Classifying one prime reads only whether it divides the discriminant,
    so `adelic factor` answers over a field whose discriminant is too hard
    to factor; x^2 - 1000003 * 1000033 is used by no other test."""
    def refuse(n, bound):
        raise AssertionError(f"prime_divisors_below({n}, {bound}) called")

    monkeypatch.setattr(places, "prime_divisors_below", refuse)
    K = NumberField((-1000003 * 1000033, 0, 1))
    assert splitting_class(K, 5) == ((1, 1), (1, 1))
    assert splitting_class(K, 2) == ((2, 1),)


def test_supported_primes_dividing():
    """Primes past desk scale are never split: the prime of a power of a
    prime below 10**12 is listed, so `factor_prime` refuses it by name,
    and any other cofactor is refused whole.  Excluded primes are
    dropped."""
    assert supported_primes_dividing(GAUSS, 6 * 1000003) == (2, 3, 1000003)
    assert supported_primes_dividing(GAUSS, 5 * 1000003 ** 2) == (5, 1000003)
    n = 1000003 * 1000033
    with pytest.raises(UnsupportedPrime,
                       match=f"^{n} has no prime factor below the desk-scale bound$"):
        supported_primes_dividing(GAUSS, n)
    assert excluded_primes(ROOT5) == (2,)
    assert supported_primes_dividing(ROOT5, 12) == (3,)
    assert supported_primes_dividing(GAUSS, 12) == (2, 3)


def test_errors():
    for check in (factor_prime, splitting_class):
        with pytest.raises(NotPrime):
            check(GAUSS, 6)
        with pytest.raises(NotPrime):
            check(GAUSS, 1)
        with pytest.raises(UnsupportedPrime):
            check(ROOT5, 2)
        with pytest.raises(UnsupportedPrime):
            check(GAUSS, 1_000_003)


def test_desk_scale_refusals_share_one_message():
    message = r"^1000003 exceeds the desk-scale bound$"
    for refuse in (places.check_desk_scale, lambda p: factor_prime(GAUSS, p),
                   all_primes().contains_prime):
        with pytest.raises(UnsupportedPrime, match=message):
            refuse(1_000_003)
    places.check_desk_scale(999_983)


def test_desk_scale_is_checked_before_primality():
    """From 10**6 on no integer is tested for primality: prime or not, it
    is refused as past desk scale."""
    for n in (1_000_000, 1_000_004, 2 ** 89 - 1, 3 * (2 ** 89 - 1), 10 ** 30 + 57):
        for check in (factor_prime, splitting_class):
            with pytest.raises(UnsupportedPrime, match=f"^{n} exceeds the desk-scale bound$"):
                check(GAUSS, n)
    for n in (-7, 0, 1, 999_999, 1.0):
        with pytest.raises(NotPrime):
            factor_prime(GAUSS, n)


def test_least_prime_past_the_cap():
    p = places.LEAST_PRIME_PAST_CAP
    assert trial_division_isprime(p)
    assert not any(trial_division_isprime(n) for n in range(places.FACTOR_CAP, p))


def test_excluded_primes():
    assert excluded_primes(GAUSS) == ()
    assert excluded_primes(ROOT5) == (2,)
    assert excluded_primes(CUBE2) == ()
    assert excluded_primes(CYCLO5) == ()
    assert excluded_primes(RATIONALS) == ()


def test_canonical_ordering_stable():
    first = factor_prime(CYCLO5, 11)
    second = factor_prime(CYCLO5, 11)
    assert first == second
    assert [w.index for w in first] == list(range(len(first)))
    # ordering key is (e, f, factor coefficients)
    keys = [(w.e, w.f, w.factor) for w in first]
    assert keys == sorted(keys)


def test_sum_ef_invariant_sampled():
    for field in (GAUSS, ROOT5, CUBE2, CYCLO5):
        for p in supported_primes(field, 200):
            fiber = factor_prime(field, p)
            assert sum(w.e * w.f for w in fiber) == field.degree


def test_class_labels_round_trip():
    for degree in (1, 2, 3, 4):
        for cls in splitting_types(degree):
            assert parse_class_label(class_label(cls)) == cls


def test_abstract_class_counts():
    """All splitting types against the unramified ones that cells use."""
    assert [len(splitting_types(n)) for n in range(1, 7)] == [1, 3, 5, 11, 17, 34]
    fields = (RATIONALS, GAUSS, CUBE2, CYCLO5, NumberField((-1, -1, 0, 0, 0, 1)),
              NumberField((-2, 0, 0, 0, 0, 0, 1)))
    assert [len(unramified_classes(K)) for K in fields] == [1, 2, 3, 5, 7, 11]
    for K in fields:
        assert set(unramified_classes(K)) == oracle_unramified_classes(K.degree)


def test_archimedean_places():
    arch = archimedean_places(CUBE2)
    assert len(arch) == 2
    assert arch[0].real and not arch[1].real
    assert len(archimedean_places(CYCLO5)) == 2
    assert len(archimedean_places(RATIONALS)) == 1


def test_enumerate_finite_places():
    places = enumerate_finite_places(GAUSS, 8)
    assert len(places) == 8
    pairs = [(w.p, w.index) for w in places]
    assert pairs == sorted(pairs)
    # the enumeration skips nothing below its last prime
    assert pairs[0] == (2, 0)
