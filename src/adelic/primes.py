"""Integer primality, prime ranges and factorization.

The place machinery needs three integer tools: the primes in a range
(selector sampling, place enumeration), a primality test (every
`factor_prime` call) and the factorization of discriminants and
resultants.  Standard library only.

* `primerange` reads a sieve of Eratosthenes, built on first use for
  each power-of-two size and then kept.
* `isprime` looks numbers below SIEVE_LIMIT up in the sieve.  Larger
  numbers get Miller-Rabin with the 13 prime bases 2..41, which is exact
  below PSI_13 (Sorenson & Webster, Math. Comp. 86, 2017); from PSI_13
  on a strong Lucas test is added, which makes it the Baillie-PSW test.
* `factorint` divides out small primes and splits what is left with
  Brent's variant of Pollard rho (Brent, BIT 20, 1980).
  `prime_divisors_below` keeps only the prime divisors below a bound, so
  it trial-divides up to the bound instead of splitting.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress, count
from math import gcd, isqrt

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


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n (Brent's variant of Pollard
    rho, polynomials x**2 + c for c = 1, 2, ...)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot; step through it one term at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _divide_out(n: int, primes, out: dict[int, int]) -> int:
    """Divide n by each of the ascending primes, counting exponents in out,
    until the next prime's square exceeds n; return the cofactor."""
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    return n


def factorint(n: int) -> dict[int, int]:
    """The factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    out: dict[int, int] = {}
    n = _divide_out(n, primerange(2, _TRIAL_BOUND), out)
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            pending += [d, m // d]
    return dict(sorted(out.items()))


def prime_divisors_below(n: int, bound: int) -> frozenset[int]:
    """The primes below bound dividing n >= 1.

    Small primes are divided out as in `factorint`.  A composite cofactor
    is then trial-divided by the primes below bound instead of split, so
    the cost is capped by the bound whatever the size of n's other prime
    factors; a cofactor of 1 or a prime needs no sieve.
    """
    out: dict[int, int] = {}
    n = _divide_out(n, primerange(2, _TRIAL_BOUND), out)
    if n > 1 and not isprime(n):
        n = _divide_out(n, primerange(_TRIAL_BOUND, bound), out)
    # the cofactor n is now 1, a prime, or free of prime factors below bound
    return frozenset(p for p in (*out, n) if 1 < p < bound)
