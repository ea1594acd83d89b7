import random
from math import isqrt, prod

from hypothesis import given, settings, strategies as st

from adelic.primes import (
    PSI_13,
    SIEVE_LIMIT,
    _MR_BASES,
    _strong_lucas_probable_prime,
    isprime,
    prime_divisors_below,
    prime_power_root,
    primerange,
)

from oracles import (
    divisors,
    is_strong_pseudoprime,
    lucas_lehmer,
    trial_division_factor,
    trial_division_isprime,
)

# two primes just below 2**31, and the two prime factors of PSI_13
P31, Q31 = 2147483647, 2147483629
PSI_13_FACTORS = (1287836182261, 2575672364521)


def test_primerange_edges():
    for a, b in ((0, 0), (0, 2), (2, 2), (-5, 2), (5, 3), (100, -4), (3, 3)):
        assert list(primerange(a, b)) == []
    assert list(primerange(-5, 3)) == [2]
    assert list(primerange(2, 3)) == [2]
    assert list(primerange(0, 1000)) == [
        n for n in range(1000) if trial_division_isprime(n)]
    lo, hi = SIEVE_LIMIT - 60, SIEVE_LIMIT + 60
    assert list(primerange(lo, hi)) == [
        n for n in range(lo, hi) if trial_division_isprime(n)]


def test_isprime_small_and_at_the_sieve_limit():
    for n in list(range(-3, 5000)) + list(range(SIEVE_LIMIT - 200, SIEVE_LIMIT + 200)):
        assert isprime(n) == trial_division_isprime(n), n


def test_isprime_random_against_trial_division():
    rng = random.Random(20)
    for bits, count in ((24, 300), (32, 200), (40, 40)):
        for _ in range(count):
            n = rng.getrandbits(bits)
            assert isprime(n) == trial_division_isprime(n), n


def test_psi13_is_a_strong_pseudoprime_that_isprime_rejects():
    a, b = PSI_13_FACTORS
    assert a * b == PSI_13
    assert trial_division_isprime(a) and trial_division_isprime(b)
    assert all(is_strong_pseudoprime(PSI_13, base) for base in _MR_BASES)
    assert not isprime(PSI_13)


def test_mersenne_numbers_against_lucas_lehmer():
    # 2**89 - 1 and 2**127 - 1 are prime; every exponent here past 81 puts
    # 2**q - 1 above PSI_13, where the strong Lucas test joins in
    for q in (89, 127):
        assert isprime(2 ** q - 1) and lucas_lehmer(q)
    for q in primerange(3, 200):
        assert isprime(2 ** q - 1) == lucas_lehmer(q), q


def test_products_of_two_primes():
    assert trial_division_isprime(P31) and trial_division_isprime(Q31)
    assert not isprime(P31 * Q31)
    # above PSI_13: a strong pseudoprime must also fail the Lucas test
    big = 2 ** 89 - 1
    assert not isprime(big * P31) and not isprime(big * big)


def test_strong_lucas_pseudoprimes():
    # the odd composites below 30000 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255)
    passing = [n for n in range(3, 30000, 2)
               if isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)
               and not trial_division_isprime(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]
    assert all(_strong_lucas_probable_prime(p) for p in primerange(3, 30000))


@given(st.integers(min_value=1, max_value=10 ** 9),
       st.sampled_from((2, 3, 100, 1024, 1031, 5000, 10 ** 6)))
@settings(max_examples=300, deadline=None)
def test_prime_divisors_below_match_trial_division(n, bound):
    factors = trial_division_factor(n)
    primes, cofactor = prime_divisors_below(n, bound)
    assert primes == {p for p in factors if p < bound}
    assert cofactor == prod(p ** e for p, e in factors.items() if p >= bound)


def test_prime_divisors_below_never_split_the_cofactor():
    """A composite cofactor is trial-divided up to the bound; the prime
    factors past the bound are left unsplit in the cofactor."""
    assert prime_divisors_below(8 * 1031 * 999983 * P31 * Q31, 10 ** 6) == (
        {2, 1031, 999983}, P31 * Q31)
    assert prime_divisors_below(3 * P31 * Q31, 10 ** 6) == ({3}, P31 * Q31)
    assert prime_divisors_below(P31 * Q31 * Q31, 10 ** 6) == (frozenset(), P31 * Q31 * Q31)
    assert prime_divisors_below(5 * P31, 10 ** 6) == ({5}, P31)
    assert prime_divisors_below(1031 * 1033, 10 ** 6) == ({1031, 1033}, 1)


@given(st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=300, deadline=None)
def test_prime_power_root_matches_trial_division(n):
    factors = trial_division_factor(n)
    assert prime_power_root(n) == (next(iter(factors)) if len(factors) == 1 else None)


def test_prime_power_roots_past_the_sieve():
    big = 2 ** 89 - 1
    for p in (P31, Q31, big):
        assert all(prime_power_root(p ** k) == p for k in (1, 2, 3, 5, 6))
    for n in (P31 * Q31, (P31 * Q31) ** 2, P31 ** 2 * Q31, big * P31, PSI_13):
        assert prime_power_root(n) is None


def test_divisors():
    for n in list(range(-300, 0)) + list(range(1, 300)) + [2 ** 6 * 3 ** 4 * 5 ** 2 * 7]:
        m = abs(n)
        assert divisors(n) == [d for d in range(1, m + 1) if m % d == 0], n
    big = 2 ** 5 * (10 ** 12 + 39)
    found = divisors(big)
    assert found == sorted(found) and found[-1] == big
    assert all(big % d == 0 for d in found)
    exponents = trial_division_factor(10 ** 12 + 39).values()
    assert len(found) == 6 * prod(e + 1 for e in exponents)
