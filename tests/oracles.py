"""Independent brute-force oracles used by the test suite.

The factorization oracle scans all residues with numpy and splits
rootless quartics by solving the coefficient equations directly, so it
shares no code path with the library's distinct-degree machinery.  The
integer oracles divide by every candidate up to the square root, and
Mersenne primes are decided by the Lucas-Lehmer test, so neither shares
code with the sieve, Miller-Rabin, Lucas or rho steps of `adelic.primes`.
The place-set oracles are the original Boolean-operation code: nested-loop
context extension, a pointwise rebuild of the finite modification, then a
canonical form that drops one cylinder field at a time and starts over.
They read splitting classes from `adelic.places` and nothing else of
`adelic.placesets`.
"""

import numpy as np

from adelic.localfields import INF
from adelic.places import all_splitting_classes, excluded_primes, splitting_class


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


def _reference_cell(p, context):
    """The joint splitting class of p over the context, or None when a
    context field excludes p."""
    if any(p in excluded_primes(K) for K in context):
        return None
    return tuple(splitting_class(K, p) for K in context)


def reference_contains(s, p):
    """Membership of p in a rational place set, read off its four fields."""
    if p in s.plus:
        return True
    if p in s.minus:
        return False
    return _reference_cell(p, s.context) in s.cells


def sequential_canonical(context, cells, plus, minus):
    """(context, cells, plus, minus) of the canonical form: repeatedly drop
    the first context field whose every group of cells agreeing off it
    holds all its classes, re-deriving the modification pointwise."""
    context, cells = list(context), set(cells)
    plus, minus = set(plus) - set(minus), set(minus) - set(plus)
    changed = True
    while changed:
        changed = False
        for ki, K in enumerate(context):
            groups = {}
            for cell in cells:
                groups.setdefault(cell[:ki] + cell[ki + 1:], set()).add(cell[ki])
            if all(g == set(all_splitting_classes(K.degree)) for g in groups.values()):
                new_context = context[:ki] + context[ki + 1:]
                new_cells = {cell[:ki] + cell[ki + 1:] for cell in cells}
                candidates = plus | minus | {p for F in context for p in excluded_primes(F)}
                new_plus, new_minus = set(), set()
                for p in candidates:
                    m = p in plus or (p not in minus and _reference_cell(p, context) in cells)
                    d = _reference_cell(p, new_context) in new_cells
                    if m and not d:
                        new_plus.add(p)
                    elif d and not m:
                        new_minus.add(p)
                context, cells, plus, minus = new_context, new_cells, new_plus, new_minus
                changed = True
                break
    plus = {p for p in plus if _reference_cell(p, context) not in cells}
    minus = {p for p in minus if _reference_cell(p, context) in cells}
    return tuple(context), frozenset(cells), frozenset(plus), frozenset(minus)


def _reference_rebuild(context, cells, member, candidates):
    excluded = {p for K in context for p in excluded_primes(K)}
    plus, minus = set(), set()
    for p in set(candidates) | excluded:
        m, d = member(p), _reference_cell(p, context) in cells
        if m and not d:
            plus.add(p)
        elif d and not m:
            minus.add(p)
    return sequential_canonical(context, cells, plus, minus)


def _reference_extend(s, ctx):
    cells = set()
    for cell in s.cells:
        acc = [()]
        for K in ctx:
            if K in s.context:
                opts = [cell[s.context.index(K)]]
            else:
                opts = all_splitting_classes(K.degree)
            acc = [c + (o,) for c in acc for o in opts]
        cells.update(acc)
    return cells


def _reference_binary(a, b, combine, member):
    ctx = tuple(sorted(set(a.context) | set(b.context), key=lambda K: K.coeffs))
    cells = combine(_reference_extend(a, ctx), _reference_extend(b, ctx))
    return _reference_rebuild(ctx, cells, member, a.plus | a.minus | b.plus | b.minus)


def reference_union(a, b):
    return _reference_binary(
        a, b, set.union, lambda p: reference_contains(a, p) or reference_contains(b, p))


def reference_intersect(a, b):
    return _reference_binary(
        a, b, set.intersection, lambda p: reference_contains(a, p) and reference_contains(b, p))


def reference_complement(a):
    everything = [()]
    for K in a.context:
        everything = [c + (cls,) for c in everything for cls in all_splitting_classes(K.degree)]
    return _reference_rebuild(a.context, set(everything) - a.cells,
                              lambda p: not reference_contains(a, p), a.plus | a.minus)
