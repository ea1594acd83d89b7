"""Finite-precision arithmetic in the completion at a finite place.

The completion at a place above p is modelled as Z_p[x]/(G) where G is the
Hensel lift of the place's factor block (factor**e) dividing the defining
polynomial mod p**W.  Because every supported prime avoids the index of
the polynomial order, this quotient is the full valuation ring of the
completion, and a uniformizer can be written down explicitly:

  * p itself when the place is unramified (e = 1);
  * the lifted factor evaluated at the field generator when e >= 2.

Both are images of field elements, so tail patterns evaluated at a place
stay inside exact field arithmetic; only the final valuation/unit readout
runs at finite precision.

Elements carry an exact certified valuation and a unit part modulo p**N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import polynomials as poly
from .errors import FieldMismatch, PrecisionLoss
from .numberfields import FieldElement
from .places import FinitePlace, factor_prime

INF = float("inf")

DEFAULT_DIGITS = 32
_MAX_WORKING_DIGITS = 8192


def _pbezout(g, h, p):
    """s, t with s*g + t*h = 1 over F_p, for coprime g, h."""
    r0, r1 = poly.pnorm(g, p), poly.pnorm(h, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = poly.pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly.psub(s0, poly.pmul(q, s1, p), p)
        t0, t1 = t1, poly.psub(t0, poly.pmul(q, t1, p), p)
    assert poly.degree(r0) == 0, "bezout inputs not coprime"
    inv = pow(r0[0], -1, p)
    return tuple(c * inv % p for c in s0), tuple(c * inv % p for c in t0)


def _hensel_pair(f, g, h, p, digits):
    """Lift f = g*h from mod p to mod p**digits (all monic, g,h coprime)."""
    s, t = _pbezout(g, h, p)
    G = [int(c) for c in g]
    H = [int(c) for c in h]
    for k in range(1, digits):
        pk = p ** k
        mod_next = p ** (k + 1)
        diff = poly.sub(f, poly.mul(tuple(G), tuple(H)))
        d = poly.pnorm(tuple((c // pk) % p for c in diff), p)
        if d:
            q, a = poly.pdivmod(poly.pmul(t, d, p), g, p)
            b = poly.padd(poly.pmul(d, s, p), poly.pmul(q, h, p), p)
            for i, c in enumerate(a):
                G[i] = (G[i] + pk * c) % mod_next
            for i, c in enumerate(b):
                H[i] = (H[i] + pk * c) % mod_next
    pw = p ** digits
    return tuple(c % pw for c in G), tuple(c % pw for c in H)


def _lift_blocks(f, blocks, p, digits):
    """Lift the pairwise-coprime monic blocks of f mod p to mod p**digits."""
    if len(blocks) == 1:
        pw = p ** digits
        return [tuple(c % pw for c in f)]
    rest = (1,)
    for b in blocks[1:]:
        rest = poly.pmul(rest, b, p)
    g_lift, h_lift = _hensel_pair(f, blocks[0], rest, p, digits)
    return [g_lift] + _lift_blocks(h_lift, blocks[1:], p, digits)


def _reduce_mod(vec, G, pw):
    """Reduce an integer coefficient tuple mod (G, p**w); G monic."""
    vec = [c % pw for c in vec]
    n = len(G) - 1
    while len(vec) > n:
        top = vec.pop()
        if top:
            base = len(vec) - n
            for i in range(n):
                vec[base + i] = (vec[base + i] - top * G[i]) % pw
    vec += [0] * (n - len(vec))
    return tuple(vec)


class LocalContext:
    """Shared machinery for one place at one working precision."""

    def __init__(self, place: FinitePlace, digits: int):
        self.place = place
        self.p = place.p
        self.e = place.e
        self.f = place.f
        self.digits = digits
        self.pw = place.p ** digits
        fiber = factor_prime(place.field, place.p)
        blocks = []
        for w in fiber:
            block = (1,)
            for _ in range(w.e):
                block = poly.pmul(block, w.factor, w.p)
            blocks.append(block)
        lifted = _lift_blocks(place.field.coeffs, blocks, place.p, digits)
        self.G = lifted[place.index]
        self.gbar = place.factor
        if self.e >= 2:
            p = self.p
            pi = _reduce_mod(tuple(place.factor), self.G, self.pw)
            self.pi = pi
            power = self.one()
            for _ in range(self.e):
                power = self.mul(power, pi)
            assert all(c % p == 0 for c in power), "uniformizer power not divisible by p"
            unit = tuple((c // p) % (self.pw // p) for c in power)
            self.unit_digits = digits - 1
            self.unit_inv = self._invert(unit, self.unit_digits)

    def one(self):
        return _reduce_mod((1,), self.G, self.pw)

    def mul(self, a, b):
        return _reduce_mod(poly.mul(a, b), self.G, self.pw)

    def residue_is_unit(self, vec) -> bool:
        mod_p = poly.pnorm(vec, self.p)
        return bool(poly.pdivmod(mod_p, self.gbar, self.p)[1])

    def _invert(self, vec, digits):
        """Inverse of a unit mod (G, p**digits) by Newton lifting."""
        p = self.p
        gbar_block = poly.pnorm(self.G, p)
        z = _pbezout(poly.pnorm(vec, p), gbar_block, p)[0]
        have = 1
        while have < digits:
            have = min(2 * have, digits)
            pw = p ** have
            zz = _reduce_mod(poly.mul(z, z), self.G, pw)
            uzz = _reduce_mod(poly.mul(vec, zz), self.G, pw)
            z = tuple((2 * a - b) % pw for a, b in zip(_reduce_mod(z, self.G, pw), uzz))
        return _reduce_mod(z, self.G, p ** digits)

    def divide_by_uniformizer(self, vec, prec):
        """Divide an element of positive valuation by the uniformizer."""
        t = vec
        for _ in range(self.e - 1):
            t = self.mul(t, self.pi)
        t = self.mul(t, self.unit_inv)
        prec = min(prec, self.unit_digits)
        pk = self.p ** prec
        t = tuple(c % pk for c in t)
        assert all(c % self.p == 0 for c in t), "element not divisible by uniformizer"
        return tuple(c // self.p for c in t), prec - 1

    def extract(self, vec, prec):
        """Certified (valuation, unit vector, unit precision) of vec.

        vec holds coefficients certified mod p**prec.  Raises PrecisionLoss
        when the element cannot be distinguished from zero at this
        precision.
        """
        p = self.p
        val = 0
        while True:
            if prec <= 0:
                raise PrecisionLoss("ran out of certified digits")
            pk = p ** prec
            vec = tuple(c % pk for c in vec)
            if all(c == 0 for c in vec):
                raise PrecisionLoss("element indistinguishable from zero")
            k = min(_vp(c, p) for c in vec if c)
            if k >= prec:
                raise PrecisionLoss("element indistinguishable from zero")
            if k > 0:
                vec = tuple(c // p ** k for c in vec)
                prec -= k
                val += self.e * k
                if self.e >= 2:
                    # p ** k contributes pi ** (e*k) times the inverse of
                    # (pi**e / p) ** k to the unit cofactor
                    for _ in range(k):
                        vec = self.mul(vec, self.unit_inv)
                    prec = min(prec, self.unit_digits)
            if self.residue_is_unit(vec):
                return val, vec, prec
            # e = 1 cannot reach here: after the p-division some coefficient
            # is a p-unit and the vector has degree below the factor's
            assert self.e >= 2, "unramified residue check failed"
            vec, prec = self.divide_by_uniformizer(vec, prec)
            val += 1


def _vp(n, p):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


@lru_cache(maxsize=None)
def _context(place: FinitePlace, digits: int) -> LocalContext:
    return LocalContext(place, digits)


def context_for(place: FinitePlace, digits: int) -> LocalContext:
    # quantize working precision so the cache stays small
    tier = 32
    while tier < digits:
        tier *= 2
    return _context(place, tier)


@dataclass(frozen=True)
class LocalElement:
    """An element of the completion at a finite place.

    valuation is exact (INF for the exact zero); unit is the coefficient
    vector of the unit cofactor modulo p**precision, written in powers of
    the lifted generator.
    """

    place: FinitePlace
    valuation: int | float
    unit: tuple[int, ...] | None
    precision: int

    @property
    def is_zero(self) -> bool:
        return self.valuation == INF

    def unit_as_int(self) -> int:
        """The unit part as an integer residue (degree-one places only)."""
        if self.unit is None:
            raise ValueError("zero element has no unit part")
        if len(self.unit) != 1:
            raise ValueError("unit part is not rational at this place")
        return self.unit[0]

    def agrees(self, other: "LocalElement", digits: int | None = None) -> bool:
        """Equality up to the shared certified precision."""
        if self.place != other.place:
            raise FieldMismatch("local elements at different places")
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        if self.valuation != other.valuation:
            return False
        prec = min(self.precision, other.precision)
        if digits is not None:
            prec = min(prec, digits)
        pk = self.place.p ** prec
        return all((a - b) % pk == 0 for a, b in zip(self.unit, other.unit))

    def __repr__(self):
        if self.is_zero:
            return f"Local(0 at p={self.place.p})"
        return (
            f"Local(v={self.valuation}, unit={list(self.unit)}"
            f" mod {self.place.p}^{self.precision})"
        )


def uniformizer_element(place: FinitePlace) -> FieldElement:
    """A field element mapping to a uniformizer at the place.

    For e = 1 the prime itself works.  For e >= 2 the lifted factor
    evaluated at the generator has valuation exactly one: were it >= 2,
    no element of the monogenic valuation ring could have valuation one.
    """
    field = place.field
    if place.e == 1:
        return field.element(place.p)
    return field.element(*place.factor)


def embed(x: FieldElement, place: FinitePlace, digits: int = DEFAULT_DIGITS) -> LocalElement:
    """Image of a field element in the completion, to `digits` unit digits.

    The valuation is certified exactly.  Raises PrecisionLoss if the
    certification does not fit in the working precision; callers may retry
    with more digits.
    """
    if x.field != place.field:
        raise FieldMismatch("element and place fields differ")
    if x.is_zero():
        return LocalElement(place, INF, None, 0)
    den = x.denominator()
    num = x.scaled_integer_numerator()
    p = place.p
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    working = digits + place.e * (k + 2) + 4
    ctx = context_for(place, working)
    vec = _reduce_mod(num, ctx.G, ctx.pw)
    if den != 1:
        inv = pow(den, -1, ctx.pw)
        vec = tuple(c * inv % ctx.pw for c in vec)
    try:
        val, unit, prec = ctx.extract(vec, ctx.digits)
    except PrecisionLoss:
        raise PrecisionLoss(
            f"could not certify the valuation of {x!r} at p={p} "
            f"with {ctx.digits} digits"
        )
    if prec < digits:
        raise PrecisionLoss("certified unit digits fell below the request")
    pk = p ** digits
    return LocalElement(place, val - place.e * k, tuple(c % pk for c in unit[: len(ctx.G) - 1]), digits)


def valuation_of_element(x: FieldElement, place: FinitePlace) -> int | float:
    """Exact valuation of a field element at a place; INF for zero."""
    if x.is_zero():
        return INF
    digits = 16
    while digits <= _MAX_WORKING_DIGITS:
        try:
            return embed(x, place, digits).valuation
        except PrecisionLoss:
            digits *= 2
    raise PrecisionLoss(f"valuation of {x!r} at p={place.p} exceeds the desk-scale bound")

