"""Integer primality, prime ranges and bounded factorization.

The place machinery needs three integer tools: the primes in a range
(selector sampling, place enumeration), a primality test (every
`factor_prime` call, and the cofactors left by trial division) and the
prime divisors below desk scale of discriminants, denominators and
norms.  Standard library only.

* `primerange` reads a sieve of Eratosthenes, built on first use for
  each power-of-two size and then kept.
* `isprime` looks numbers below SIEVE_LIMIT up in the sieve.  Larger
  numbers get Miller-Rabin with the 13 prime bases 2..41, which is exact
  below PSI_13 (Sorenson & Webster, Math. Comp. 86, 2017); from PSI_13
  on a strong Lucas test is added, which makes it the Baillie-PSW test.
* `prime_divisors_below` trial-divides by the primes below a bound and
  returns the cofactor left over.  Nothing is split past the bound: the
  cofactor is 1, a prime, or a composite left whole, whose one prime
  `prime_power_root` names if it is a prime power.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

SIEVE_LIMIT = 1 << 20  # isprime looks smaller numbers up in the sieve
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES
PSI_13 = 3_317_044_064_679_887_385_961_981
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


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round: is the odd n > base a strong probable prime?"""
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters, for odd n > 2 that
    is no perfect square."""
    d = 5
    while (j := _jacobi(d, n)) != -1:
        if j == 0 and abs(d) != n:
            return False  # d shares a factor with n
        d = -d - 2 if d > 0 else -d + 2
    q = (1 - d) // 4

    def half(x):
        x %= n
        return (x + n if x & 1 else x) >> 1

    k, s = n + 1, 0
    while not k & 1:
        k, s = k >> 1, s + 1
    u, v, qk = 1, 1, q % n  # U_1, V_1 and Q**1 for P = 1
    for bit in bin(k)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(d * u + v), qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """Exact primality for every n below PSI_13; the Baillie-PSW test,
    with no known counterexample, from there on."""
    if n < SIEVE_LIMIT:
        return n >= 2 and bool(_sieve_below(n + 1)[n])
    if any(n % p == 0 for p in _MR_BASES):
        return False
    if not all(_strong_probable_prime(n, base) for base in _MR_BASES):
        return False
    if n < PSI_13:
        return True
    return isqrt(n) ** 2 != n and _strong_lucas_probable_prime(n)


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, rounded down (Newton's method)."""
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


def prime_power_root(n: int) -> int | None:
    """The prime p with n = p**k for some k >= 1, or None if there is none."""
    for k in range(1, n.bit_length()):
        r = _iroot(n, k)
        if r ** k == n and isprime(r):
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

    Small primes are divided out first.  A composite cofactor is then
    trial-divided by the primes below bound, or up to its square root if
    that is smaller, and never split, so the cost is capped by the bound
    whatever the size of n's other prime factors; a cofactor of 1 or a
    prime needs no sieve.  The cofactor returned is 1, a prime of at
    least bound, or a composite all of whose prime factors are.
    """
    out: set[int] = set()
    n = _divide_out(n, primerange(2, min(bound, _TRIAL_BOUND)), out)
    if n > 1 and not isprime(n):
        n = _divide_out(n, primerange(_TRIAL_BOUND, min(bound, isqrt(n) + 1)), out)
    # n is now 1, a prime, or free of prime factors below bound
    if 1 < n < bound:
        out.add(n)
        n = 1
    return frozenset(out), n
