"""Facts the benchmark checks answers against, computed without the package.

Polynomials are integer coefficient tuples, lowest degree first, as in the
package's text formats.  Everything here is plain integer arithmetic so a
defect in the package's own factoring or lifting cannot hide behind it.
"""

from __future__ import annotations

from fractions import Fraction

# Defining polynomials of the fields the workloads use.
GAUSS = (1, 0, 1)          # x^2 + 1
ROOT5 = (-5, 0, 1)         # x^2 - 5
CUBE2 = (-2, 0, 0, 1)      # x^3 - 2
CYCLO5 = (1, 1, 1, 1, 1)   # Phi_5
QUINTIC = (-1, -1, 0, 0, 0, 1)  # x^5 - x - 1, Galois group S5
SEXTIC = (-2, 0, 0, 0, 0, 0, 1)  # x^6 - 2, totally ramified at 2 and 3

# Primes dividing the polynomial discriminant (the only ramified candidates).
DISC_PRIMES = {
    GAUSS: (2,),          # disc -4
    ROOT5: (2, 5),        # disc 20
    CUBE2: (2, 3),        # disc -108
    CYCLO5: (5,),         # disc 125
    QUINTIC: (19, 151),   # disc 2869
    SEXTIC: (2, 3),       # disc 2^11 * 3^6
}

# Primes dividing the index of Z[theta] in the ring of integers; the package
# rejects them.  Z[sqrt 5] has index 2; the other orders are maximal.
EXCLUDED = {ROOT5: (2,)}


def text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, bound, i)))
    return [i for i, flag in enumerate(sieve) if flag]


# -- polynomials over F_p ------------------------------------------------------


def _trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _trim(out)


def pmod(f, g, p):
    """Remainder of f by a nonzero g over F_p."""
    f = [c % p for c in f]
    f = _trim(f)
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        q = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - q * c) % p
        f = _trim(f)
    return f


def pdiv(f, g, p):
    """Exact quotient of f by g over F_p."""
    f = _trim([c % p for c in f])
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        shift = len(f) - len(g)
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        f = _trim(f)
    return _trim(q)


def pgcd(f, g, p):
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        f, g = g, pmod(f, g, p)
    if not f:
        return f
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def ppowmod(base, e, mod, p):
    result, base = [1], pmod(base, mod, p)
    while e:
        if e & 1:
            result = pmod(pmul(result, base, p), mod, p)
        base = pmod(pmul(base, base, p), mod, p)
        e >>= 1
    return result


def factor_degrees(f, p) -> tuple[int, ...]:
    """Degrees of the irreducible factors of f mod p, for p not dividing
    the discriminant (f squarefree mod p), by distinct-degree splitting."""
    rest = _trim([c % p for c in f])
    h = [0, 1]
    out = []
    d = 0
    while len(rest) > 1:
        d += 1
        if 2 * d > len(rest) - 1:
            out.append(len(rest) - 1)
            break
        h = ppowmod(h, p, rest, p)
        g = pgcd(_sub(h, [0, 1], p), rest, p)
        k = (len(g) - 1) // d
        out.extend([d] * k)
        if k:
            rest = pdiv(rest, g, p)
            h = pmod(h, rest, p)
    return tuple(sorted(out))


def _sub(f, g, p):
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return _trim([(a - b) % p for a, b in zip(f, g)])


def product_of_powers(factors, p):
    """prod g**e over F_p for (g, e) pairs; the result is a list."""
    out = [1]
    for g, e in factors:
        for _ in range(e):
            out = pmul(out, list(g), p)
    return out


# -- places of the catalogue fields --------------------------------------------


def place_count(f, p: int) -> int:
    """Number of places of Q[x]/(f) above p, for a supported prime.

    Unramified primes go through distinct-degree splitting; the ramified
    primes of the catalogue fields are listed from their known
    factorizations.
    """
    ramified = {
        (GAUSS, 2): 1, (ROOT5, 5): 1, (CUBE2, 2): 1, (CUBE2, 3): 1,
        (CYCLO5, 5): 1, (SEXTIC, 2): 1, (SEXTIC, 3): 1,
    }
    if (f, p) in ramified:
        return ramified[(f, p)]
    if p in DISC_PRIMES[f]:
        raise ValueError(f"no recorded place count for {f} at {p}")
    return len(factor_degrees(f, p))


def vp_rational(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational by repeated integer division."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v
