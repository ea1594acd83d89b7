"""Independent brute-force oracles used by the test suite.

The factorization oracle scans all residues with numpy and splits
rootless quartics by solving the coefficient equations directly, so it
shares no code path with the library's distinct-degree machinery.  The
integer oracles divide by every candidate up to the square root, and
Mersenne primes are decided by the Lucas-Lehmer test, so neither shares
code with the sieve, Miller-Rabin, Lucas or rho steps of `adelic.primes`.
"""

import numpy as np

from adelic.localfields import INF


def brute_roots(coeffs, p):
    """All roots of the polynomial mod p by full scan (numpy Horner)."""
    xs = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    return [int(r) for r in xs[acc == 0]]


def _poly_div_mod(f, g, p):
    f = [c % p for c in f]
    out = []
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g):
        c = f[-1] * inv % p
        out.append(c)
        for i in range(len(g)):
            f[len(f) - len(g) + i] = (f[len(f) - len(g) + i] - c * g[i]) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return out[::-1], f


def _quartic_split(g, p):
    """Split a rootless monic quartic into two monic quadratics mod p, by
    brute force over the coefficient equations; None if irreducible."""
    g0, g1, g2, g3, _ = [c % p for c in g]
    if p == 2:
        for b in range(2):
            for c in range(2):
                cand = (c, b, 1)
                q, r = _poly_div_mod(list(g), list(cand), p)
                if not r:
                    return cand, tuple(q)
        return None
    bs = np.arange(p, dtype=np.int64)
    ds = (g3 - bs) % p
    ss = (g2 - bs * ds) % p
    lhs = (g1 - bs * ss) % p          # c * (d - b) = lhs
    db = (ds - bs) % p
    es = (ss * db - lhs) % p          # e * (d - b) = es
    ok = (lhs * es) % p == (g0 * db * db) % p
    ok &= db != 0
    idx = np.nonzero(ok)[0]
    for b in idx:
        b = int(b)
        d = int(ds[b])
        inv = pow((d - b) % p, -1, p)
        c = int(lhs[b]) * inv % p
        e = (int(ss[b]) - c) % p
        if c * e % p == g0:
            return (c, b, 1), (e, d, 1)
    # the doubled case b == d
    if g3 % 2 == 0 or p != 2:
        b = g3 * pow(2, -1, p) % p
        d = b
        s = (g2 - b * d) % p
        if b * s % p == g1 % p:
            for c in range(p):
                e = (s - c) % p
                if c * e % p == g0 % p:
                    return (c, b, 1), (e, d, 1)
    return None


def brute_factor_mod_p(coeffs, p):
    """Sorted [(factor, multiplicity)] of a monic polynomial of degree <= 4
    over F_p, by exhaustive search."""
    assert len(coeffs) - 1 <= 4
    work = [c % p for c in coeffs]
    counts = {}
    for r in brute_roots(work, p):
        lin = ((-r) % p, 1)
        while True:
            q, rem = _poly_div_mod(work, list(lin), p)
            if rem:
                break
            counts[lin] = counts.get(lin, 0) + 1
            work = q
            if len(work) == 1:
                break
    deg = len(work) - 1
    if deg in (2, 3):
        counts[tuple(work)] = counts.get(tuple(work), 0) + 1
    elif deg == 4:
        split = _quartic_split(work, p)
        if split is None:
            counts[tuple(work)] = counts.get(tuple(work), 0) + 1
        else:
            a, b = split
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
    return sorted(counts.items(), key=lambda t: (len(t[0]) - 1, t[0]))


def pointwise_set(alpha, predicate, places):
    """Evaluate a membership predicate place by place."""
    def holds(w):
        v = alpha.valuation_at(w)
        return v == INF if predicate == "is_zero" else v >= 1

    return {w for w in places if holds(w)}


def brute_member_between(alpha, u, beta, n_max=64):
    """Quantifier search for the intermediate-prime membership test.

    For each power n up to n_max, build the describable set where the
    inequality fails and ask the ultrafilter for its complement (the
    optimal witness set Y); the upward closure of ultrafilters makes this
    search over the generating family exact.
    """
    from adelic.adeles import empty_set, place_singleton
    from adelic.spectrum import _pieces, _piece_region

    field = alpha.field
    suspects = sorted(alpha.suspect_primes() | beta.suspect_primes())
    from adelic.places import factor_prime

    suspect_places = [w for p in suspects for w in factor_prime(field, p)]

    for n in range(1, n_max + 1):
        bad = empty_set(field)
        for ra, ta in _pieces(alpha):
            for rb, tb in _pieces(beta):
                region = _piece_region(alpha, ra).intersect(_piece_region(beta, rb))
                if region.is_empty():
                    continue
                da, db = ta.min_degree(), tb.min_degree()
                fails = not (db == INF and da == INF or
                             db != INF and n * da >= db)
                if fails:
                    bad = bad.union(region)
        for w in suspect_places:
            va, vb = alpha.valuation_at(w), beta.valuation_at(w)
            fails = not (vb == INF and va == INF or
                         vb != INF and n * va >= vb)
            if fails and not bad.contains_place(w):
                bad = bad.union(place_singleton(w))
            elif not fails and bad.contains_place(w):
                bad = bad.difference(place_singleton(w))
        if u.contains(bad.complement()):
            return True
    return False


def trial_division_factor(n):
    """{p: e} of n >= 1 by trial division over every d >= 2 up to sqrt(n)."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trial_division_isprime(n):
    return n >= 2 and trial_division_factor(n) == {n: 1}


def lucas_lehmer(q):
    """Is the Mersenne number 2**q - 1 prime, for an odd prime q?"""
    m = (1 << q) - 1
    s = 4
    for _ in range(q - 2):
        s = (s * s - 2) % m
    return s == 0


def is_strong_pseudoprime(n, base):
    """Does odd n pass the Miller-Rabin round for this base: with
    n - 1 = d * 2**s, d odd, is base**d = 1 or base**(d * 2**r) = -1 mod n
    for some r < s?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return pow(base, d, n) == 1 or any(
        pow(base, d * 2 ** r, n) == n - 1 for r in range(s))
