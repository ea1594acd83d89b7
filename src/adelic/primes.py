"""Integer primality below desk scale, prime ranges and bounded trial
division.

The place machinery needs three integer tools: the primes in a range
(selector sampling, place enumeration), a primality test for the primes
a query names below desk scale, and the prime divisors below desk scale
of discriminants, denominators and norms.  Standard library only.

* `primerange` reads a sieve of Eratosthenes, built on first use for
  each power-of-two size and then kept.
* `isprime` looks n up in the same sieve, for n below SIEVE_LIMIT only,
  so every answer is proven.  Desk scale lies below that limit, and
  callers refuse a larger number as past desk scale before asking.
* `prime_divisors_below` trial-divides by the primes below a bound and
  returns the cofactor left over, which has no prime factor below the
  bound and is never split.  `prime_power_root` names its one prime when
  that follows from the bound alone: a cofactor below the bound's square
  is prime, and so is a root below the bound's square of a cofactor
  that is a perfect power.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

SIEVE_LIMIT = 1 << 20  # isprime answers below this
_TRIAL_BOUND = 1 << 10


@lru_cache(maxsize=None)
def _sieve(bits: int) -> bytes:
    """Byte n is 1 exactly when n is prime, for 0 <= n < 2**bits."""
    size = 1 << bits
    flags = bytearray([1]) * size
    flags[:2] = b"\x00\x00"
    for i in range(2, isqrt(size - 1) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, size, i)))
    return bytes(flags)


def _sieve_below(n: int) -> bytes:
    """A sieve that covers every integer below n."""
    return _sieve(max(8, (n - 1).bit_length()))


def primerange(a: int, b: int):
    """The primes p with a <= p < b, ascending, as a lazy iterator."""
    a = max(a, 2)
    if b <= a:
        return iter(())
    return compress(range(a, b), _sieve_below(b)[a:b])


def isprime(n: int) -> bool:
    """Is n prime?  Read from the sieve, for n below SIEVE_LIMIT; a larger
    n raises ValueError rather than build a sieve that size."""
    if n >= SIEVE_LIMIT:
        raise ValueError(f"isprime answers below {SIEVE_LIMIT} only, not for {n}")
    return n >= 2 and bool(_sieve_below(n + 1)[n])


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, rounded down (Newton's method)."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def prime_power_root(n: int, bound: int) -> int | None:
    """For n > 1 with no prime factor below bound: the prime p with
    n = p**k for some k >= 1 and p < bound**2, or None if there is none.

    Any divisor of n below bound**2 is 1 or a prime, since a composite
    one would have a prime factor below bound; so no primality test is
    run.  None claims nothing about how many prime factors n has."""
    for k in range(1, n.bit_length()):
        r = _iroot(n, k)
        if r ** k == n and r < bound * bound:
            return r
    return None


def _divide_out(n: int, primes, out: set[int]) -> int:
    """Divide n by every power of each of the ascending primes, adding the
    divisors to out, until the next prime's square exceeds n; return the
    cofactor."""
    for p in primes:
        if p * p > n:
            break
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    return n


def prime_divisors_below(n: int, bound: int) -> tuple[frozenset[int], int]:
    """The primes below bound dividing n >= 1, and the cofactor: n with
    every power of them divided out.

    Small primes are divided out first, then the cofactor is trial-divided
    by the primes below bound, or up to its square root if that is
    smaller, and never split, so the cost is capped by the bound whatever
    the size of n's other prime factors.  The cofactor returned is 1 or
    has no prime factor below bound.
    """
    out: set[int] = set()
    n = _divide_out(n, primerange(2, min(bound, _TRIAL_BOUND)), out)
    n = _divide_out(n, primerange(_TRIAL_BOUND, min(bound, isqrt(n) + 1)), out)
    # n is now 1, a prime, or free of prime factors below bound
    if 1 < n < bound:
        out.add(n)
        n = 1
    return frozenset(out), n
