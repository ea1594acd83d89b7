"""Independent brute-force oracles used by the test suite.

The factorization oracle scans all residues with numpy and splits
rootless quartics by solving the coefficient equations directly, so it
shares no code path with the library's distinct-degree machinery.  The
integer oracles divide by every candidate up to the square root, so they
share no code with the sieve of `adelic.primes`.
The place-set oracles are the original Boolean-operation code: nested-loop
context extension, a pointwise rebuild of the finite modification, then a
canonical form that drops one cylinder field at a time and starts over.
Cells range over the unramified classes, found here by a search over all
multisets of (e, f) pairs, and the primes dividing a discriminant, found
here by trial division, belong to no cell.  The cylinder oracle reads a
packed mask's cells in the documented bit order and compares their
groups off each coordinate.  The oracles read splitting
classes from `adelic.places` and nothing else of `adelic.placesets`.  The
selector oracle lists every witness below the prime bound and takes the
class of the smallest.  The section-lift oracle is the original pullback
rule: it builds the whole padded preimage of a set with the place-set
operations and asks the base ultrafilter about it.
The lifting and irreducibility oracles are the original code too: Hensel
lifting one p-adic digit at a time, and an irreducibility test that looks
for rational roots, certifies by Rabin's test mod small primes, and
otherwise searches a Landau-Mignotte box of candidate factors.  They use
the integer and mod-p ring operations of `adelic.polynomials` (addition,
multiplication, mod-p division, discriminants) and `adelic.primes`, none
of its lifting or factor recombination; division over the rationals is
the original `divmod_frac`, kept here.  Powers and gcds mod a
polynomial, which the library computes on packed integers, are done here
by schoolbook multiplication, `_poly_div_mod`, square-and-multiply and
plain Euclid; the distinct-degree class oracle counts the factors of
each degree from gcd(x^(p^d) - x, f) by Moebius inversion, without
splitting f.
The field-element reference is the original Fraction arithmetic: a tuple
of rational coefficients reduced by rational division, the inverse by the
extended Euclidean algorithm, the norm as a Sylvester resultant by
Gaussian elimination over the rationals, and real roots from a Sturm
chain of exact remainders.  It shares no code with the package's integer
vectors, multiplication matrices, Bareiss determinants or
pseudo-remainders.
The adele references are the original piecewise rules: each adele is cut
into its override regions and the region its default tail takes
(`pieces`), and sums, products (`reference_combine`) and membership sets
(`reference_membership_set`) read every meet of those pieces.
The helpers only tests need live here too, beside the oracles: adele
equality (`adele_equals`, which reads the places of a set with no cells,
`finite_places`), agreement of local elements up to a precision
(`local_agrees`), the first finite places of a field
(`enumerate_finite_places`), and the comparison and separating set of two
ultrafilters (`same_decisions`, `distinguishing_witness`).
"""

from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, product
from math import isqrt

import numpy as np

from adelic import polynomials as poly
from adelic.adeles import make_adele, membership_set
from adelic.errors import FieldMismatch
from adelic.localfields import INF
from adelic.numberfields import RATIONALS
from adelic.places import FACTOR_CAP, factor_prime, splitting_class, supported_primes
from adelic.placesets import (all_primes, class_atom, empty_set, everything_kset,
                              fiber_size_exactly, finite_set)
from adelic.primes import primerange
from adelic.registry import registered_fields
from adelic.ultrafilters import FreeQUltrafilter, PrincipalUltrafilter


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


def everything_set(field):
    """All finite places of the field, as a place set."""
    return all_primes() if field == RATIONALS else everything_kset(field)


def pieces(a):
    """(region, tail) pairs partitioning the finite places: each override
    of the adele, then the default tail on the places no override takes."""
    rest = everything_set(a.field)
    for r, _ in a.overrides:
        rest = rest.difference(r)
    return list(a.overrides) + [(rest, a.tail)]


def reference_combine(a, b, field_op, tail_op):
    """The sum or product of two adeles by the original rule: every piece
    of a meets every piece of b, and the two default pieces meet in the
    new default tail."""
    arch = tuple(field_op(x, y) for x, y in zip(a.arch, b.arch))
    places = {w for w, _ in a.exceptional} | {w for w, _ in b.exceptional}
    exceptional = [(w, field_op(a.component_at(w), b.component_at(w))) for w in places]
    pieces_a, pieces_b = pieces(a), pieces(b)
    last = (len(pieces_a) - 1, len(pieces_b) - 1)
    default_tail = tail_op(a.tail, b.tail)
    overrides = []
    for i, (ra, ta) in enumerate(pieces_a):
        for j, (rb, tb) in enumerate(pieces_b):
            if (i, j) == last:
                continue
            region = ra.intersect(rb)
            if region.is_empty():
                continue
            overrides.append((region, tail_op(ta, tb)))
    overrides = [(r, t) for r, t in overrides if t.coeffs != default_tail.coeffs]
    return make_adele(a.field, arch, exceptional, overrides, tail=default_tail)


def reference_membership_set(alpha, predicate):
    """`Adele.membership_set` by the original rule: the union of the pieces
    whose tail degree satisfies the predicate, corrected place by place
    above the suspect primes."""
    def holds(val):
        return val == INF if predicate == "is_zero" else val >= 1

    field = alpha.field
    out = empty_set(field)
    for region, tail in pieces(alpha):
        if holds(tail.min_degree()):
            out = out.union(region)
    added, dropped = [], []
    for p in sorted(alpha.suspect_primes()):
        for w in factor_prime(field, p):
            actual = holds(alpha.valuation_at(w))
            if actual != out.contains_place(w):
                (added if actual else dropped).append(w)
    if added:
        out = out.union(finite_set(field, added))
    if dropped:
        out = out.difference(finite_set(field, dropped))
    return out


def brute_member_between(alpha, u, beta, n_max=64):
    """Quantifier search for the intermediate-prime membership test.

    For each power n up to n_max, build the describable set where the
    inequality fails and ask the ultrafilter for its complement (the
    optimal witness set Y); the upward closure of ultrafilters makes this
    search over the generating family exact.
    """
    field = alpha.field
    suspects = sorted(alpha.suspect_primes() | beta.suspect_primes())
    suspect_places = [w for p in suspects for w in factor_prime(field, p)]
    pieces_a, pieces_b = pieces(alpha), pieces(beta)

    for n in range(1, n_max + 1):
        bad = empty_set(field)
        for ra, ta in pieces_a:
            for rb, tb in pieces_b:
                region = ra.intersect(rb)
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
                bad = bad.union(finite_set(field, [w]))
            elif not fails and bad.contains_place(w):
                bad = bad.difference(finite_set(field, [w]))
        if u.contains(bad.complement()):
            return True
    return False


def joint_selected_profile(u, *adeles):
    """Tail degrees on the joint region piece the ultrafilter selects.

    Intersects every piece of each adele with every piece of the others
    and asks the ultrafilter about each nonempty meet, in nested order;
    the meets partition the finite places, so it contains exactly one.
    """
    combos = [((), everything_set(adeles[0].field))]
    for a in adeles:
        combos = [(degs + (tail.min_degree(),), region.intersect(r))
                  for degs, region in combos for r, tail in pieces(a)]
        combos = [(degs, region) for degs, region in combos if not region.is_empty()]
    return next(degs for degs, region in combos if u.contains(region))


def membership_set_member(alpha, ideal):
    """max_at / min_at membership read off the exact membership set: does
    the ultrafilter contain the places where alpha lies in the maximal
    ideal, or vanishes?"""
    predicate = "in_m" if ideal.kind == "max_at" else "is_zero"
    return ideal.ultra.contains(membership_set(alpha, predicate))


def pullback_contains(base, s, position):
    """Whether the section lift of the free rational ultrafilter `base` at
    `position` contains the extension-level set s, by the original rule:
    pull s back to the primes whose fiber-position place, padded to the
    first place on fibers shorter than the position, lies in s, and ask
    the base about that union over every fiber size."""
    field = s.field
    back = empty_set(RATIONALS)
    for m in range(1, field.degree + 1):
        j = position if position <= m else 1
        back = back.union(fiber_size_exactly(field, m).intersect(s.coords[j - 1]))
    return base.contains(back)


def enumerate_finite_places(field, count):
    """The first `count` finite places: primes ascending, fibers in
    canonical order."""
    out = []
    for p in supported_primes(field, FACTOR_CAP):
        out.extend(factor_prime(field, p))
        if len(out) >= count:
            return out[:count]
    return out


def finite_places(s):
    """The places of a place set whose canonical form has no cells, sorted
    by (p, index); None when some coordinate has cells."""
    coords = getattr(s, "coords", (s,))
    if any(c.cells for c in coords):
        return None
    return sorted((factor_prime(s.field, p)[j] for j, c in enumerate(coords) for p in c.plus),
                  key=lambda w: (w.p, w.index))


def adele_equals(a, b):
    """Exact componentwise equality of two adeles over one field."""
    if a.field != b.field:
        raise FieldMismatch("adeles over different fields")
    if a.arch != b.arch:
        return False
    places = {w for w, _ in a.exceptional} | {w for w, _ in b.exceptional}
    if any(a.component_at(w) != b.component_at(w) for w in places):
        return False
    pieces_b = pieces(b)
    for ra, ta in pieces(a):
        for rb, tb in pieces_b:
            if ta.coeffs == tb.coeffs:
                continue
            region = ra.intersect(rb)
            if region.is_empty():
                continue
            finite = finite_places(region)
            if finite is None:
                # tails differing as polynomials differ at every region
                # place where all their coefficients are units, and an
                # infinite region has such places
                return False
            # only finitely many places carry these two tails; compare
            # them one by one
            if any(a.component_at(w) != b.component_at(w) for w in finite if w not in places):
                return False
    return True


def local_agrees(x, y, digits=None):
    """Equality of two local elements at one place up to their shared
    certified precision, and to `digits` when given."""
    if x.place != y.place:
        raise FieldMismatch("local elements at different places")
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    if x.valuation != y.valuation:
        return False
    prec = min(x.precision, y.precision)
    if digits is not None:
        prec = min(prec, digits)
    pk = x.place.p ** prec
    return all((a - b) % pk == 0 for a, b in zip(x.unit, y.unit))


def same_decisions(a, b):
    """Whether two free rational ultrafilters select the same joint class
    for every registered extension (extensional equality on the current
    describable algebra)."""
    return all(a._selected_class(K) == b._selected_class(K) for K in registered_fields())


def distinguishing_witness(a, b):
    """A describable set in `a` but not in `b`, if one is found.

    Free rational pairs are separated by the class atom of the first
    registered extension where their selectors disagree; other pairs fall
    back to anchor sets (a principal ultrafilter's singleton) and their
    complements, which covers distinct section positions and
    principal-versus-free pairs.
    """
    if a.field != b.field:
        raise FieldMismatch("ultrafilters over different fields")
    if isinstance(a, FreeQUltrafilter) and isinstance(b, FreeQUltrafilter):
        for K in registered_fields():
            ca, cb = a._selected_class(K), b._selected_class(K)
            if ca != cb:
                return class_atom(K, ca)
        return None

    def anchor(u):
        if isinstance(u, PrincipalUltrafilter):
            return finite_set(u.field, [u.place])
        return u.anchor_set()

    for s in (anchor(a), anchor(a).complement(), anchor(b).complement()):
        if a.contains(s) and not b.contains(s):
            return s
    return None


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


@cache
def splitting_types(n):
    """Every multiset of (e, f) pairs with sum e*f equal to n, each sorted,
    found among all multisets of at most n pairs."""
    pairs = [(e, f) for e in range(1, n + 1) for f in range(1, n // e + 1)]
    return tuple(sorted(combo for k in range(1, n + 1)
                        for combo in combinations_with_replacement(pairs, k)
                        if sum(e * f for e, f in combo) == n))


@cache
def unramified_classes(n):
    """The splitting types of degree n with every e = 1."""
    return frozenset(cls for cls in splitting_types(n) if all(e == 1 for e, _ in cls))


@cache
def discriminant_primes(K):
    """The primes dividing the discriminant of K's polynomial."""
    return frozenset(trial_division_factor(abs(K.discriminant)))


def cycle_types(generators):
    """The cycle types of the permutation group the generators generate,
    each as its sorted cycle lengths; permutations are tuples of images."""
    n = len(generators[0])
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        g = frontier.pop()
        for s in generators:
            h = tuple(s[i] for i in g)
            if h not in group:
                group.add(h)
                frontier.append(h)
    types = set()
    for g in group:
        seen, lengths = set(), []
        for i in range(n):
            k, j = 0, i
            while j not in seen:
                seen.add(j)
                j, k = g[j], k + 1
            if k:
                lengths.append(k)
        types.add(tuple(sorted(lengths)))
    return types


def reference_cell(p, context):
    """The joint splitting class of p over the context, or None when p
    divides the discriminant of a context field."""
    if any(p in discriminant_primes(K) for K in context):
        return None
    return tuple(splitting_class(K, p) for K in context)


def reference_cylinders(context, mask):
    """The coordinates along which the cells of a mask are a cylinder, as
    the bits of an int: those where every group of the cells agreeing off
    the coordinate holds all of its field's classes.  Bit i of the mask
    is the i-th cell of the product of each field's sorted classes."""
    order = product(*(sorted(unramified_classes(K.degree)) for K in context))
    cells = {cell for i, cell in enumerate(order) if mask >> i & 1}
    out = 0
    for ki, K in enumerate(context):
        groups = {}
        for cell in cells:
            groups.setdefault(cell[:ki] + cell[ki + 1:], set()).add(cell[ki])
        if all(g == unramified_classes(K.degree) for g in groups.values()):
            out |= 1 << ki
    return out


def reference_contains(s, p):
    """Membership of p in a rational place set, read off its four fields."""
    if p in s.plus:
        return True
    if p in s.minus:
        return False
    return reference_cell(p, s.context) in s.cells


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
            if all(g == unramified_classes(K.degree) for g in groups.values()):
                new_context = context[:ki] + context[ki + 1:]
                new_cells = {cell[:ki] + cell[ki + 1:] for cell in cells}
                candidates = plus | minus | {p for F in context for p in discriminant_primes(F)}
                new_plus, new_minus = set(), set()
                for p in candidates:
                    m = p in plus or (p not in minus and reference_cell(p, context) in cells)
                    d = reference_cell(p, new_context) in new_cells
                    if m and not d:
                        new_plus.add(p)
                    elif d and not m:
                        new_minus.add(p)
                context, cells, plus, minus = new_context, new_cells, new_plus, new_minus
                changed = True
                break
    plus = {p for p in plus if reference_cell(p, context) not in cells}
    minus = {p for p in minus if reference_cell(p, context) in cells}
    return tuple(context), frozenset(cells), frozenset(plus), frozenset(minus)


def _reference_rebuild(context, cells, member, candidates):
    disc = {p for K in context for p in discriminant_primes(K)}
    plus, minus = set(), set()
    for p in set(candidates) | disc:
        m, d = member(p), reference_cell(p, context) in cells
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
                opts = unramified_classes(K.degree)
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
        everything = [c + (cls,) for c in everything for cls in unramified_classes(K.degree)]
    return _reference_rebuild(a.context, set(everything).difference(a.cells),
                              lambda p: not reference_contains(a, p), a.plus | a.minus)


def reference_selector_chain(atom, fields, bound):
    """The selector chain of a free ultrafilter anchored on `atom`, by a
    full list of witnesses.  A witness is a prime below `bound` that
    divides no discriminant of the atom's context, of the fields chosen so
    far or of the field being chosen, whose joint class over the atom's
    context is a cell of the atom and whose class in every field chosen so
    far is the chosen one.  For each field in turn the class of the
    smallest witness is chosen.  Returns None when the atom itself has no
    witness, else the chain as a dict and whether it stopped at a field
    without a witness."""
    primes = list(primerange(2, bound))

    def witnesses(chain, extra):
        avoid = set().union(*(discriminant_primes(K) for K in (*atom.context, *chain, *extra)))
        return [p for p in primes if p not in avoid
                and reference_cell(p, atom.context) in atom.cells
                and all(splitting_class(G, p) == cls for G, cls in chain.items())]

    if not witnesses({}, ()):
        return None
    chain = {}
    for F in fields:
        found = witnesses(chain, (F,))
        if not found:
            return chain, True
        chain[F] = splitting_class(F, found[0])
    return chain, False


def _convolve(f, g):
    """Product over Z of two coefficient sequences, by schoolbook
    convolution."""
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def _reduce(h, p):
    """h mod p as a tuple with no trailing zeros."""
    h = [c % p for c in h]
    while h and h[-1] == 0:
        h.pop()
    return tuple(h)


def _combine(f, g, scale, p):
    """f + scale*g mod p."""
    n = max(len(f), len(g))
    return _reduce([(f[i] if i < len(f) else 0) + scale * (g[i] if i < len(g) else 0)
                    for i in range(n)], p)


def oracle_pmul(f, g, p):
    """f*g over F_p, by schoolbook convolution."""
    return _reduce(_convolve(f, g), p)


def _pbezout(g, h, p):
    """s, t with s*g + t*h = 1 over F_p, for coprime g, h."""
    r0, r1 = _reduce(g, p), _reduce(h, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _poly_div_mod(r0, r1, p)
        r0, r1 = r1, tuple(r)
        s0, s1 = s1, _combine(s0, oracle_pmul(q, s1, p), -1, p)
        t0, t1 = t1, _combine(t0, oracle_pmul(q, t1, p), -1, p)
    assert len(r0) == 1, "bezout inputs not coprime"
    inv = pow(r0[0], -1, p)
    return tuple(c * inv % p for c in s0), tuple(c * inv % p for c in t0)


def _linear_hensel_pair(f, g, h, p, digits):
    """Lift f = g*h from mod p to mod p**digits (all monic, g,h coprime),
    one digit per step, on this module's own F_p helpers."""
    s, t = _pbezout(g, h, p)
    G = [int(c) for c in g]
    H = [int(c) for c in h]
    for k in range(1, digits):
        pk = p ** k
        mod_next = p ** (k + 1)
        gh = _convolve(G, H)
        diff = [(f[i] if i < len(f) else 0) - (gh[i] if i < len(gh) else 0)
                for i in range(max(len(f), len(gh)))]
        d = _reduce([(c // pk) % p for c in diff], p)
        if d:
            q, a = _poly_div_mod(oracle_pmul(t, d, p), g, p)
            b = _combine(oracle_pmul(d, s, p), oracle_pmul(q, h, p), 1, p)
            for i, c in enumerate(a):
                G[i] = (G[i] + pk * c) % mod_next
            for i, c in enumerate(b):
                H[i] = (H[i] + pk * c) % mod_next
    pw = p ** digits
    return tuple(c % pw for c in G), tuple(c % pw for c in H)


def linear_hensel_lift(f, blocks, p, digits):
    """Lift the pairwise-coprime monic blocks of f mod p to mod p**digits."""
    if len(blocks) == 1:
        pw = p ** digits
        return [tuple(c % pw for c in f)]
    rest = (1,)
    for b in blocks[1:]:
        rest = oracle_pmul(rest, b, p)
    g_lift, h_lift = _linear_hensel_pair(f, blocks[0], rest, p, digits)
    return [g_lift] + linear_hensel_lift(h_lift, blocks[1:], p, digits)


def divisors(n):
    """The positive divisors of n != 0, ascending."""
    out = [1]
    for p, e in trial_division_factor(abs(n)).items():
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def divmod_frac(f, g):
    """Quotient and remainder over the rationals."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    q = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(f) >= len(g) and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) < len(g):
            break
        c = f[-1] / g[-1]
        d = len(f) - len(g)
        q[d] = c
        for i in range(len(g)):
            f[d + i] -= c * g[i]
        f.pop()
    return poly.trim(q), poly.trim(f)


def box_search_factor(f, max_deg):
    """Look for a monic integer factor of degree 2..max_deg.

    Candidate constant terms divide f(0); the remaining coefficients range
    over a Landau-Mignotte style box.  A candidate is divided into f only
    when its values at +-1, +-2 and 3 divide f's there, a test numpy runs
    over the whole box at once.  Desk scale only: the search raises if the
    box is unreasonably large.
    """
    norm = isqrt(sum(c * c for c in f)) + 1
    points = (1, -1, 2, -2, 3)
    f_at = [sum(c * a ** i for i, c in enumerate(f)) for a in points]
    for d in range(2, max_deg + 1):
        bound = 2 ** d * norm
        consts = divisors(f[0]) if f[0] != 0 else [0]
        box = (2 * bound + 1) ** (d - 1) * 2 * len(consts)
        if box > 4_000_000:
            raise ValueError(
                "irreducibility search space too large for desk scale"
            )
        mids = np.array(list(product(range(-bound, bound + 1), repeat=d - 1)),
                        dtype=np.int64)
        for c0 in consts:
            for sign in (1, -1):
                ok = np.ones(len(mids), dtype=bool)
                for a, fa in zip(points, f_at):
                    powers = np.array([a ** i for i in range(1, d)], dtype=np.int64)
                    val = sign * c0 + mids @ powers + a ** d
                    ok &= (val != 0) & (fa % np.where(val == 0, 1, val) == 0) | (fa == 0)
                for mid in mids[ok]:
                    cand = poly.trim((sign * c0,) + tuple(int(b) for b in mid) + (1,))
                    q, r = divmod_frac(f, cand)
                    if not r and all(x.denominator == 1 for x in q):
                        return cand
    return None


def oracle_mul_mod(a, b, m, p):
    """a*b mod (m, p) for a monic m: schoolbook product, then `_poly_div_mod`."""
    return tuple(_poly_div_mod(_convolve(a, b), m, p)[1])


def oracle_pow_mod(a, e, m, p):
    """a**e mod (m, p) for a monic m, by square-and-multiply from the
    lowest bit up."""
    out = tuple(_poly_div_mod([1], m, p)[1])
    a = tuple(_poly_div_mod(list(a), m, p)[1])
    while e:
        if e & 1:
            out = oracle_mul_mod(out, a, m, p)
        a = oracle_mul_mod(a, a, m, p)
        e >>= 1
    return out


def oracle_gcd(f, g, p):
    """Monic gcd over F_p by plain Euclid on `_poly_div_mod` remainders."""
    f, g = _reduce(f, p), _reduce(g, p)
    while g:
        f, g = g, _poly_div_mod(f, g, p)[1]
    if not f:
        return ()
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def _minus_x(h, p):
    h = list(h) + [0] * max(2 - len(h), 0)
    h[1] -= 1
    h = [c % p for c in h]
    while h and h[-1] == 0:
        h.pop()
    return h


def oracle_unramified_class(f, p):
    """The sorted ((1, d), ...) of a monic f that is squarefree mod p.

    r_d = deg gcd(x^(p^d) - x, f) sums k * N_k over the divisors k of d,
    where N_k counts the irreducible factors of degree k; Moebius
    inversion over d <= n/2 gives those counts, and whatever degree is
    left is one irreducible factor of degree above n/2.
    """
    n = len(f) - 1
    counts = {}
    h = (0, 1)
    for d in range(1, n // 2 + 1):
        h = oracle_pow_mod(h, p, f, p)
        r = len(oracle_gcd(_minus_x(h, p), f, p)) - 1
        counts[d] = (r - sum(k * counts[k] for k in counts if d % k == 0)) // d
    out = [(1, d) for d, c in counts.items() for _ in range(c)]
    rest = n - sum(d * c for d, c in counts.items())
    if rest:
        out.append((1, rest))
    return tuple(sorted(out))


def rabin_is_irreducible_mod_p(f, p):
    """Rabin's test for a monic polynomial over F_p."""
    n = poly.degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    x = (0, 1)
    if _minus_x(oracle_pow_mod(x, p ** n, f, p), p):
        return False
    for q in trial_division_factor(n):
        h = oracle_pow_mod(x, p ** (n // q), f, p)
        if len(oracle_gcd(_minus_x(h, p), f, p)) != 1:
            return False
    return True


def box_search_is_irreducible(f):
    """Irreducibility over Q of a monic integer polynomial: rational roots,
    then Rabin certificates mod the primes below 100, then the box
    search."""
    n = poly.degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f[0] == 0:
        return False
    if poly.discriminant_int(f) == 0:
        return False
    for d in divisors(f[0]):
        for r in (d, -d):
            if sum(c * r ** i for i, c in enumerate(f)) == 0:
                return False
    if n <= 3:
        return True
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61, 67, 71, 73, 79, 83, 89, 97):
        fp = poly.pnorm(f, p)
        if poly.degree(fp) == n and rabin_is_irreducible_mod_p(fp, p):
            return True
    return box_search_factor(f, n // 2) is None


# ---------------------------------------------------------------------------
# field elements over the rationals


def _fraction_det(m):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(c) for c in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            if m[i][k]:
                c = m[i][k] / m[k][k]
                m[i] = [a - c * b for a, b in zip(m[i], m[k])]
    return det


def sylvester_resultant(f, g):
    """Res(f, g) of two rational polynomials from the Sylvester matrix."""
    f, g = poly.trim(f), poly.trim(g)
    n, m = len(f) - 1, len(g) - 1
    if n < 0 or m < 0:
        return Fraction(0)
    size = n + m
    rows = [[0] * i + list(reversed(f)) + [0] * (size - n - 1 - i) for i in range(m)]
    rows += [[0] * i + list(reversed(g)) + [0] * (size - m - 1 - i) for i in range(n)]
    return _fraction_det(rows) if rows else Fraction(1)


def sturm_count(f):
    """Distinct real roots of a squarefree rational polynomial, from the
    Sturm chain of exact remainders over the rationals."""
    chain = [poly.trim(Fraction(c) for c in f)]
    chain.append(poly.trim(i * c for i, c in enumerate(chain[0]) if i))
    while len(chain[-1]) > 1:
        r = divmod_frac(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(tuple(-c for c in r))

    def variations(sign_of_x):
        signs = [(1 if g[-1] > 0 else -1) * sign_of_x ** (len(g) - 1) for g in chain if g]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(-1) - variations(1)


def _fraction_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


class FractionElement:
    """A number-field element as a tuple of Fractions reduced mod the monic
    defining polynomial f, with the extended-Euclid inverse and the
    Sylvester-resultant norm: the representation the package used before
    it stored one integer vector over one denominator."""

    def __init__(self, f, coeffs):
        self.f = tuple(f)
        n = len(f) - 1
        r = list(divmod_frac([Fraction(c) for c in coeffs], f)[1])
        self.coeffs = tuple(r + [Fraction(0)] * (n - len(r)))

    def __add__(self, other):
        return FractionElement(self.f, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FractionElement(self.f, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        return FractionElement(self.f, _fraction_mul(self.coeffs, other.coeffs))

    def inverse(self):
        r0, r1 = self.f, poly.trim(self.coeffs)
        s0, s1 = (), (Fraction(1),)
        while len(r1) > 1:
            q, r = divmod_frac(r0, r1)
            r0, r1 = r1, r
            qs1 = _fraction_mul(q, s1)
            s0, s1 = s1, poly.trim(
                (s0[i] if i < len(s0) else 0) - (qs1[i] if i < len(qs1) else 0)
                for i in range(max(len(s0), len(qs1))))
        return FractionElement(self.f, [c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * other.inverse()

    def norm(self):
        return sylvester_resultant(self.f, self.coeffs)

    def to_text(self):
        return ",".join(str(c) for c in self.coeffs)


def element_norm(x):
    """The norm of a package element as a Fraction, from the package's
    multiplication-matrix determinant (`polynomials.norm_int`) over
    den^degree; `FractionElement.norm`, a Sylvester resultant, checks it."""
    return Fraction(poly.norm_int(x.num, x.field.coeffs), x.den ** x.field.degree)
