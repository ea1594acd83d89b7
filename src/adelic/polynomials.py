"""Exact univariate polynomial arithmetic.

Polynomials are tuples of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  Two coefficient
domains are used: Python ints and ints mod a prime p (the mod-p helpers
all take p explicitly).

Over the integers no rationals arise: division is by a monic polynomial
(`divmod_monic`), and the Sturm chain uses pseudo-remainders.  For monic f,
Z[x]/(f) is free with basis 1, x, ..., so the norm of a(x) in Q[x]/(f),
the resultant Res(f, a) and, through a = f', the discriminant are one
Bareiss determinant of the multiplication-by-a matrix (Cohen, GTM 138,
section 4.3).

Hensel lifting runs on plain lists in Z/m[x]/(g) for a monic g, with one
division (`divmod_monic`, which over Z/m reduces only each quotient
coefficient it pops and the final remainder) and one product (`mulmod`).
It lifts one factor g of f at a time by Newton's iteration: a step from
mod m to mod m*k sets
G = g + m*((f rem g)/m * t rem g) mod k, where t inverts f quo g mod
(g, k) and is refreshed by one Newton step t(2 - t*h) per step.  After
each lifted factor, f becomes its exact cofactor f quo G, so the
dividends shrink and the last block is a quotient, not a lift.

Over F_p, `factor_mod_p` factors in one pass: distinct-degree splitting
takes out each degree's irreducible factors with all their copies, and
equal-degree splitting separates them (von zur Gathen & Gerhard, ch. 14).
Every divisor on that path is monic: `pgcd` returns monic gcds, and the
exact quotient of a monic polynomial by a monic one is monic.  So
`divmod_monic(f, g, p)` is the one F_p division, a product mod p is
`pnorm(mul(f, g), p)`, and a difference is `sub`, which `pgcd`
normalizes.  The one inverse is `pinverse(a, g, p)`, a^-1 mod (g, p) for
a monic g, by Euclid on divisors made monic.

Powers mod a monic polynomial w of degree n over F_p, the inner loop of
distinct-degree and equal-degree factoring, run on packed integers
instead (`_PackedRing`): a residue is one int with n slots of B bits,
coefficient i in slot i, and a product is one bigint multiply whose high
slots fold back through the packed rows x^(n+k) mod w.  No slot of a
product exceeds 2 n p^2 before it is reduced, so B is the bit length of
2 n p^2; it is computed from n and p, never set.  The p-th power map is
linear over F_p, so once the rows x^(ip) mod w are packed (Berlekamp's Q
matrix), x^(p^d) follows from x^(p^(d-1)) by one linear combination.
Cantor-Zassenhaus builds one ring per polynomial it splits, and every
random attempt at that split works in it; a block that is the whole
polynomial distinct-degree last built a ring for is split in that ring.
"""

from __future__ import annotations

import random
from itertools import combinations, count, islice
from math import gcd, isqrt

from .primes import isprime

# ---------------------------------------------------------------------------
# generic exact arithmetic


def trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(f):
    return len(f) - 1


def sub(f, g):
    n = max(len(f), len(g))
    return trim((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n))


def mul(f, g):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def divmod_monic(f, g, m=0):
    """Quotient and remainder of f by a monic g, as lists; the remainder
    has exactly deg g entries (trailing zeros kept).

    With m > 0 the division is over Z/m: each quotient coefficient is
    reduced as it is popped, and the remainder once at the end, so the
    entries left in the dividend are never reduced in between.  m = 0
    divides over Z.
    """
    f = list(f)
    n = len(g) - 1
    q = [0] * max(len(f) - n, 0)
    while len(f) > n:
        top = f.pop()
        if m:
            top %= m
        if top:
            base = len(f) - n
            q[base] = top
            f[base:] = [u - top * v for u, v in zip(f[base:], g)]
    f += [0] * (n - len(f))
    return q, [c % m for c in f] if m else f


def rem_monic(f, g):
    """Remainder of an integer polynomial f mod a monic integer polynomial
    g, as a tuple of exactly deg g ints (trailing zeros kept)."""
    return tuple(divmod_monic(f, g)[1])


def mulmod(a, b, g, m):
    """a*b mod (g, m) for a monic g of degree n, as a list of n entries."""
    return divmod_monic(mul(a, b), g, m)[1]


def newton_inverse(t, h, g, m):
    """One Newton step t(2 - t*h) mod (g, m) towards the inverse of h: if
    t*h = 1 mod (g, k), the result is the inverse mod (g, k**2), and m may
    be any divisor of k**2."""
    e = mulmod(t, h, g, m)
    return mulmod(t, [2 - e[0]] + [-c for c in e[1:]], g, m)


def derivative(f):
    return trim(i * c for i, c in enumerate(f) if i >= 1)


# ---------------------------------------------------------------------------
# integer determinants, norms, discriminants


def int_det(m):
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(row) for row in m]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def mul_matrix(a, f):
    """Matrix of multiplication by a on Z[x]/(f) for monic integer f: row
    i holds x^i * a mod f in the basis 1, x, ..., x^(deg f - 1)."""
    row = rem_monic(a, f)
    rows = []
    for _ in range(degree(f)):
        rows.append(row)
        top = row[-1]
        row = (0,) + row[:-1]
        if top:
            row = tuple(u - top * v for u, v in zip(row, f))
    return rows


def norm_int(a, f):
    """Norm of a(x) in Q[x]/(f) for monic integer f, which is Res(f, a):
    the determinant of the multiplication matrix."""
    return int_det(mul_matrix(a, f))


def discriminant_int(f):
    """Discriminant of a monic integer polynomial: the norm of f' up to
    the sign (-1)^(n(n-1)/2)."""
    n = degree(f)
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    return (-1) ** (n * (n - 1) // 2) * norm_int(derivative(f), f)


# ---------------------------------------------------------------------------
# real root counting (Sturm)


def count_real_roots(f):
    """Number of distinct real roots of a squarefree integer polynomial.

    Sturm's theorem reads only the signs of the chain, so each entry may
    be any positive multiple of the negated remainder of the two before
    it: here a pseudo-remainder, taken with the divisor's leading
    coefficient made positive, divided by its content.
    """
    f = trim(f)
    if degree(f) < 1:
        return 0
    chain = [f, derivative(f)]
    while degree(chain[-1]) > 0:
        a, b = list(chain[-2]), chain[-1]
        nb, lead, sign = len(b) - 1, abs(b[-1]), (1 if b[-1] > 0 else -1)
        while len(a) > nb:
            top = a.pop() * sign
            base = len(a) - nb
            a = [lead * u for u in a]
            a[base:] = [u - top * v for u, v in zip(a[base:], b)]
        r = trim(a)
        if not r:
            break
        content = gcd(*r)
        chain.append(tuple(-c // content for c in r))

    def variations(at_plus_infinity):
        signs = []
        for g in chain:
            if not g:
                continue
            s = 1 if g[-1] > 0 else -1
            if not at_plus_infinity and degree(g) % 2 == 1:
                s = -s
            signs.append(s)
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return variations(False) - variations(True)


# ---------------------------------------------------------------------------
# arithmetic mod a prime p


def pnorm(f, p):
    return trim(c % p for c in f)


def pmonic(f, p):
    if not f:
        return ()
    inv = pow(f[-1], -1, p)
    return tuple(c * inv % p for c in f)


def pgcd(f, g, p):
    """Monic gcd over F_p: Euclid in place on lists, each divisor made
    monic by one inverse so that the remainder loop needs none."""
    a = list(pnorm(f, p))
    b = list(pnorm(g, p))
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        nb = len(b) - 1
        while len(a) > nb:
            c = a.pop()
            if c:
                top = len(a) - nb
                a[top:] = [(u - c * v) % p for u, v in zip(a[top:], b)]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return pmonic(tuple(a), p)


def pinverse(a, g, p):
    """The inverse t of a mod (g, p) for a monic g, with deg t < deg g;
    ValueError unless a and g are coprime mod p.

    Extended Euclid from (g, 0) and (a rem g, 1), keeping only the
    cofactor of a; each divisor and its cofactor are scaled by one inverse
    so that the divisor is monic and `divmod_monic` divides by it.
    """
    r0, r1 = g, trim(divmod_monic(a, g, p)[1])
    t0, t1 = (), (1,)
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, t1 = [c * inv % p for c in r1], [c * inv % p for c in t1]
        q, r = divmod_monic(r0, r1, p)
        r0, r1, t0, t1 = r1, trim(r), t1, pnorm(sub(t0, mul(q, t1)), p)
    if degree(r0) != 0:
        raise ValueError("pinverse needs a and g coprime mod p")
    return trim(t0)


class _PackedRing:
    """F_p[x]/(w) for a monic w of degree n >= 1, on packed integers.

    A residue c_0 + c_1 x + ... + c_(n-1) x^(n-1), with 0 <= c_i < p, is
    the int sum c_i * 2**(B*i): n slots of B bits (Kronecker
    substitution).  A product is one bigint multiply.  Its slots below n
    hold at most n (p-1)^2; its n-1 slots from n on are reduced mod p and
    folded back through the packed rows x^(n+k) mod w, which adds at most
    (n-1)(p-1)^2 more.  Every slot therefore stays below 2 n p^2, and B is
    the bit length of that number: the width follows from n and p.
    """

    __slots__ = ("p", "n", "bits", "mask", "low", "fold")

    def __init__(self, w, p):
        n = degree(w)
        self.p, self.n = p, n
        self.bits = (2 * n * p * p).bit_length()
        self.mask = (1 << self.bits) - 1
        self.low = (1 << (self.bits * n)) - 1
        self.fold = []
        row = self.pack([-c % p for c in w[:-1]])  # x^n mod w
        for _ in range(n - 1):
            self.fold.append(row)
            row = self.mul(row, 1 << self.bits)

    def pack(self, f):
        """f must have degree < n and coefficients in [0, p)."""
        out = 0
        for c in reversed(f):
            out = (out << self.bits) | c
        return out

    def unpack(self, a):
        bits, mask = self.bits, self.mask
        return trim((a >> s) & mask for s in range(0, self.n * bits, bits))

    def reduce(self, a):
        """Each slot of a, below 2 n p^2, taken mod p."""
        p, bits, mask = self.p, self.bits, self.mask
        out = 0
        for s in range(0, self.n * bits, bits):
            out |= ((a >> s) & mask) % p << s
        return out

    def mul(self, a, b):
        prod = a * b
        low = prod & self.low
        high = prod >> (self.n * self.bits)
        p, bits, mask = self.p, self.bits, self.mask
        for row in self.fold:
            if not high:
                break
            c = (high & mask) % p
            if c:
                low += c * row
            high >>= bits
        return self.reduce(low)

    def pow(self, a, exp):
        """a**exp, square-and-multiply from the top bit down."""
        if exp == 0:
            return 1
        out = a
        for bit in bin(exp)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def frobenius(self, a, rows):
        """a**p from the rows x^(ip) mod w, i < n: the p-th power of
        sum a_i x^i over F_p is sum a_i x^(ip)."""
        bits, mask = self.bits, self.mask
        out = 0
        for row in rows:
            if not a:
                break
            c = a & mask
            if c:
                out += c * row
            a >>= bits
        return self.reduce(out)


def distinct_degree(f, p):
    """Split monic f, squarefree or not, into (d, product of its distinct
    degree-d irreducible factors, ring); ring is the `_PackedRing` of the
    product when one was built for it (`_equal_degree` reuses it), else None.

    Each block g leaves w with every copy of its factors, p-th powers too:
    w is divided by g, then by gcd(w, g) until that is 1.  So w keeps only
    factors of degree above d, and is irreducible below degree 2(d + 1).
    x^(p^d) mod w comes from x^(p^(d-1)) through the Frobenius rows
    x^(ip) mod w (Berlekamp's Q matrix), built once from x^p mod w and
    reduced again whenever a factor splits off w.
    """
    out, w, d = [], f, 1
    if degree(w) >= 2:
        ring = _PackedRing(w, p)
        frob = ring.pow(1 << ring.bits, p)  # x^p mod w
        rows = None
        while True:
            g = pgcd(sub(ring.unpack(frob), (0, 1)), w, p)
            if degree(g) > 0:
                out.append((d, g, ring if g == w else None))
                common = g
                while degree(common) > 0:
                    w = tuple(divmod_monic(w, common, p)[0])
                    common = pgcd(w, g, p)
            d += 1
            if degree(w) < 2 * d:
                break
            if degree(g) > 0:
                old, ring = ring, _PackedRing(w, p)
                frob = ring.pack(divmod_monic(old.unpack(frob), w, p)[1])
                if rows:
                    rows = [ring.pack(divmod_monic(old.unpack(r), w, p)[1])
                            for r in rows[:ring.n]]
            if rows is None:
                rows = [1, frob]
                while len(rows) < ring.n:
                    rows.append(ring.mul(rows[-1], frob))
            frob = ring.frobenius(frob, rows)
    if degree(w) > 0:
        out.append((degree(w), w, None))
    return out


def _splitter(a, ring, d):
    """A polynomial in a that vanishes in about half of the residue fields
    F_p^d of h, so that its gcd with h tends to split h; ring is the
    `_PackedRing` of h, and a has degree below deg h.  It is the trace
    a + a^2 + ... + a^(2^(d-1)) when p = 2, summed packed (each slot stays
    below d < 2 n p^2) and reduced once, and a^((p^d - 1)/2) - 1 for odd p
    (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 14)."""
    t = ring.pack(a)
    if ring.p == 2:
        out = t
        for _ in range(d - 1):
            t = ring.mul(t, t)
            out += t
        return ring.unpack(ring.reduce(out))
    return sub(ring.unpack(ring.pow(t, (ring.p ** d - 1) // 2)), (1,))


def _equal_degree(g, d, p, ring=None):
    """Factor monic squarefree g, a product of degree-d irreducibles, by
    Cantor-Zassenhaus with a deterministic seed; each polynomial split
    gets one `_PackedRing`, which every attempt at its split shares, and
    g's own is `ring` when the caller has it."""
    seed = p
    for c in g:
        seed = seed * 1000003 + c
    rng = random.Random(seed)
    stack, out = [(g, ring)], []
    while stack:
        h, ring = stack.pop()
        if degree(h) == d:
            out.append(h)
            continue
        ring = ring or _PackedRing(h, p)
        while True:
            a = trim(rng.randrange(p) for _ in range(degree(h)))
            if degree(a) < 1:
                continue
            w = pgcd(_splitter(a, ring, d), h, p)
            if 0 < degree(w) < degree(h):
                stack.append((w, None))
                stack.append((tuple(divmod_monic(h, w, p)[0]), None))
                break
    return out


def factor_mod_p(f, p):
    """Full factorization of a monic polynomial over F_p, in one pass.

    Returns a sorted list of (irreducible factor, multiplicity); factors are
    monic coefficient tuples, lowest degree first.
    """
    f = pmonic(pnorm(f, p), p)
    if degree(f) <= 0:
        return []
    out, rest = [], f
    for d, block, ring in distinct_degree(f, p):
        for irr in _equal_degree(block, d, p, ring):
            q, r = divmod_monic(rest, irr, p)
            m = 0
            while not any(r):
                rest, m = q, m + 1
                q, r = divmod_monic(rest, irr, p)
            out.append((irr, m))
    assert degree(rest) == 0, "factorization self-check failed"
    return sorted(out, key=lambda t: (degree(t[0]), t[0]))


# ---------------------------------------------------------------------------
# Hensel lifting and irreducibility over the rationals

# good primes scanned for the mod-p factorization with the fewest factors
_ZASSENHAUS_PRIMES = 8


def _lift_factor(f, g, p, digits):
    """Lift the monic factor g of monic f from mod p to mod p**digits, by
    Newton's iteration on g alone (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 9 and section 15.4); returns the lift G and the
    cofactor f quo G, both mod p**digits.

    Each step takes g from mod m to mod m*k, with k = m except at a last,
    shorter step.  Since f = g*h mod m, the remainder f rem g is m times a
    polynomial, and G = g + m*((f rem g)/m * t rem g) mod k, where t is
    the inverse of f quo g mod (g, k).  t starts as `pinverse` of f quo g
    mod (g, p) and takes one Newton step whenever k outgrows it.
    """
    target = p ** digits
    t = pinverse(divmod_monic(f, g, p)[0], g, p)
    g = list(g)
    m = known = p  # t inverts f quo g mod (g, known)
    while m < target:
        k = min(m, target // m)
        q, r = divmod_monic(f, g, m * k)
        if known < k:
            t = newton_inverse(t, divmod_monic(q, g, k)[1], g, k)
            known = k
        step = mulmod([c // m for c in r], t, g, k)
        g = [u + m * c for u, c in zip(g, step)] + [1]
        m *= k
    return tuple(g), divmod_monic(f, g, target)[0]


def hensel_lift(f, factors, p, digits):
    """Lift the pairwise-coprime monic factors of monic f mod p to
    mod p**digits, in order; ValueError unless digits is an int >= 1 and
    the factors are monic of degree >= 1, coprime and multiply to f mod p.

    Each factor but the last is lifted alone by `_lift_factor`, and f is
    then replaced by its exact cofactor f quo G mod p**digits, so the
    dividends shrink and the last block is the final cofactor.  Monic
    coprime lifts are unique, so the result does not depend on the order
    or on how the precision was reached.
    """
    if type(digits) is not int or digits < 1:
        raise ValueError(f"hensel_lift needs an int digits >= 1, not {digits!r}")
    if f[-1] != 1 or any(len(u) < 2 or u[-1] != 1 for u in factors):
        raise ValueError("hensel_lift needs a monic f and monic factors of degree >= 1")
    factors = [pnorm(u, p) for u in factors]
    product = (1,)
    for u in factors:
        product = pnorm(mul(product, u), p)
    if product != pnorm(f, p):
        raise ValueError("the factors do not multiply to f mod p")
    lifted = []
    for g in factors[:-1]:
        G, f = _lift_factor(f, g, p, digits)
        lifted.append(G)
    return lifted + [pnorm(f, p ** digits)]


def is_irreducible_monic_int(f):
    """Irreducibility over Q of a monic integer polynomial, by Zassenhaus.

    Among the first good primes (those not dividing the discriminant), a
    prime where f stays irreducible settles the question at once.
    Otherwise the factors mod the prime with the fewest of them are lifted
    past twice the Mignotte bound 2**n * |f|_2 on the coefficients of any
    factor, and every product of at most half of them is tried as a
    divisor over Z (Cohen, GTM 138, section 3.5).
    """
    n = degree(f)
    if n <= 0:
        return False
    disc = discriminant_int(f)
    if disc == 0:
        return False
    best = None
    good = (p for p in count(2) if isprime(p) and disc % p)
    for p in islice(good, _ZASSENHAUS_PRIMES):
        blocks = distinct_degree(pnorm(f, p), p)
        r = sum(degree(g) // d for d, g, _ in blocks)
        if r == 1:
            return True
        if best is None or r < best[0]:
            best = (r, p, blocks)
    _, p, blocks = best
    factors = [u for d, g, ring in blocks for u in _equal_degree(g, d, p, ring)]
    bound = 2 * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    digits = 1
    while p ** digits <= bound:
        digits += 1
    pk = p ** digits
    lifted = hensel_lift(f, factors, p, digits)
    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            g = (1,)
            for u in subset:
                g = pnorm(mul(g, u), pk)
            g = tuple(c - pk if 2 * c > pk else c for c in g)
            if not any(rem_monic(f, g)):
                return False
    return True
