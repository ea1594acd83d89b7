import random
from itertools import accumulate
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from adelic import primes
from adelic.places import FACTOR_CAP
from adelic.primes import (
    SIEVE_LIMIT,
    isprime,
    prime_divisors_below,
    prime_power_root,
    primerange,
)

from oracles import divisors, trial_division_factor, trial_division_isprime

# two primes just below 2**31
P31, Q31 = 2147483647, 2147483629
# the number of primes below 2**k for k = 2..20 (OEIS A007053)
PRIMES_BELOW_POWERS_OF_TWO = (2, 4, 6, 11, 18, 31, 54, 97, 172, 309, 564, 1028,
                              1900, 3512, 6542, 12251, 23000, 43390, 82025)
BOUNDS = (2, 3, 100, 1024, 1031, 5000, 10 ** 6)


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
    for n in list(range(-3, 5000)) + list(range(SIEVE_LIMIT - 400, SIEVE_LIMIT)):
        assert isprime(n) == trial_division_isprime(n), n


def test_isprime_random_against_trial_division():
    rng = random.Random(20)
    for _ in range(500):
        n = rng.getrandbits(20)
        assert isprime(n) == trial_division_isprime(n), n


def test_isprime_counts_the_primes_below_each_power_of_two():
    counts = list(accumulate(isprime(n) for n in range(SIEVE_LIMIT)))
    assert SIEVE_LIMIT == 1 << 20
    assert tuple(counts[(1 << k) - 1] for k in range(2, 21)) == PRIMES_BELOW_POWERS_OF_TWO


def test_isprime_answers_below_the_sieve_limit_only(monkeypatch):
    """The sieve covers desk scale; a larger number is a caller's error,
    refused without building a sieve."""
    assert FACTOR_CAP <= SIEVE_LIMIT
    monkeypatch.setattr(primes, "_sieve_below", lambda n: pytest.fail(f"sieve below {n} built"))
    for n in (SIEVE_LIMIT, SIEVE_LIMIT + 1, 10 ** 30 + 57):
        with pytest.raises(ValueError):
            isprime(n)


@given(st.integers(min_value=1, max_value=10 ** 9), st.sampled_from(BOUNDS))
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


@given(st.integers(min_value=1, max_value=10 ** 9), st.sampled_from(BOUNDS))
@settings(max_examples=300, deadline=None)
def test_prime_power_root_matches_trial_division(n, bound):
    """The cofactor trial division leaves is named exactly when it is a
    power of one prime below bound**2."""
    cofactor = prime_divisors_below(n, bound)[1]
    factors = trial_division_factor(cofactor)
    expected = next(iter(factors)) if len(factors) == 1 else None
    if expected is not None and expected >= bound * bound:
        expected = None
    assert prime_power_root(cofactor, bound) == expected


def test_prime_power_roots_past_the_sieve():
    """With no prime factor below 10**6, a root below 10**12 is prime and
    named; a number with no such root is refused, prime or not."""
    big = 2 ** 89 - 1
    for p in (P31, Q31):
        assert all(prime_power_root(p ** k, 10 ** 6) == p for k in (1, 2, 3, 5, 6))
    for n in (P31 * Q31, (P31 * Q31) ** 2, P31 ** 2 * Q31, big * P31,
              *(big ** k for k in (1, 2, 3))):
        assert prime_power_root(n, 10 ** 6) is None


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
