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

Elements carry an exact valuation and a unit part modulo p**N.  Each
readout picks its working precision W once, above a bound on the
valuation read off the norm, so no readout runs out of digits.
"""

from __future__ import annotations

from functools import lru_cache
from math import log2

from . import polynomials as poly
from .errors import FieldMismatch
from .numberfields import FieldElement, NumberField
from .places import FinitePlace, factor_prime
from .records import Record

INF = float("inf")

DEFAULT_DIGITS = 32


# (field, p) -> (digits, blocks): the fiber's blocks lifted to the highest
# precision asked for so far
_LIFTS: dict[tuple[NumberField, int], tuple[int, tuple]] = {}


def _lifted_blocks(field: NumberField, p: int, digits: int) -> tuple:
    """The factor blocks (factor**e) of the fiber above p, in fiber order,
    Hensel-lifted to p**digits; one lift serves every place of the fiber.

    Each fiber is lifted once, to the highest precision asked for so far,
    and a request below it reduces the stored blocks mod p**digits: monic
    coprime lifts are unique, so that equals a fresh lift.  A higher
    request lifts from p again and replaces the stored blocks.
    """
    have, blocks = _LIFTS.get((field, p), (0, ()))
    if digits > have:
        residues = []
        for w in factor_prime(field, p):
            block = (1,)
            for _ in range(w.e):
                block = poly.pnorm(poly.mul(block, w.factor), p)
            residues.append(block)
        blocks = tuple(poly.hensel_lift(field.coeffs, residues, p, digits))
        _LIFTS[field, p] = digits, blocks
    elif digits < have:
        pw = p ** digits
        blocks = tuple(tuple(c % pw for c in block) for block in blocks)
    return blocks


class LocalContext:
    """Shared machinery for one place at one working precision."""

    def __init__(self, place: FinitePlace, digits: int):
        self.p = place.p
        self.e = place.e
        self.digits = digits
        self.pw = place.p ** digits
        self.G = _lifted_blocks(place.field, place.p, digits)[place.index]
        self.gbar = place.factor
        if self.e >= 2:
            p = self.p
            pi = poly.divmod_monic(place.factor, self.G, self.pw)[1]
            self.pi = pi
            power = pi
            for _ in range(self.e - 1):
                power = self.mul(power, pi)
            assert all(c % p == 0 for c in power), "uniformizer power not divisible by p"
            self.unit = tuple((c // p) % (self.pw // p) for c in power)  # pi^e / p
            self.unit_digits = digits - 1
            self.unit_inv = self._invert(self.unit, self.unit_digits)

    def mul(self, a, b):
        return poly.mulmod(a, b, self.G, self.pw)

    def residue_is_unit(self, vec) -> bool:
        return any(poly.divmod_monic(vec, self.gbar, self.p)[1])

    def _invert(self, vec, digits):
        """Inverse of a unit mod (G, p**digits): `pinverse` mod (G, p),
        then Newton steps that double the digits."""
        p = self.p
        z = poly.pinverse(vec, self.G, p)
        have = 1
        while have < digits:
            have = min(2 * have, digits)
            z = poly.newton_inverse(z, vec, self.G, p ** have)
        return poly.divmod_monic(z, self.G, p ** digits)[1]

    def divide_by_uniformizer(self, vec, prec):
        """Divide an element of positive valuation, reduced mod p**prec,
        by the uniformizer: divide by p when unramified; else multiply by
        pi**(e-1) * unit_inv, which is p / pi, and divide by p."""
        if self.e >= 2:
            for _ in range(self.e - 1):
                vec = self.mul(vec, self.pi)
            vec = self.mul(vec, self.unit_inv)
            prec = min(prec, self.unit_digits)
            pk = self.p ** prec
            vec = tuple(c % pk for c in vec)
        assert all(c % self.p == 0 for c in vec), "element not divisible by uniformizer"
        return tuple(c // self.p for c in vec), prec - 1

    def extract(self, vec, prec):
        """Certified (valuation, unit vector, unit precision) of vec.

        vec holds coefficients certified mod p**prec.  One loop reads the
        valuation v: while the residue is not a unit, divide by the
        uniformizer, spending one digit.  A ramified place gives up one
        more digit to the unit cofactor's precision, so the unit precision
        returned is at least prec - v - 1, and the unit vector is
        vec / pi**v; the caller sizes prec from that.
        """
        val = 0
        while True:
            pk = self.p ** prec
            vec = tuple(c % pk for c in vec)
            assert any(vec), "working precision below the valuation"
            if self.residue_is_unit(vec):
                return val, vec, prec
            vec, prec = self.divide_by_uniformizer(vec, prec)
            val += 1


@lru_cache(maxsize=None)
def _context(place: FinitePlace, digits: int) -> LocalContext:
    return LocalContext(place, digits)


def context_for(place: FinitePlace, digits: int) -> LocalContext:
    # round the working precision up to a multiple of DEFAULT_DIGITS, so
    # the context cache stays small while a context never carries more
    # than DEFAULT_DIGITS - 1 digits beyond the request
    tier = -(-digits // DEFAULT_DIGITS) * DEFAULT_DIGITS
    return _context(place, tier)


class LocalElement(Record):
    """An element of the completion at place, a finite place.

    valuation is exact (INF for the exact zero); unit is the coefficient
    vector of the unit cofactor modulo p**precision, written in powers of
    the lifted generator.
    """

    __slots__ = ("place", "valuation", "unit", "precision")

    @property
    def is_zero(self) -> bool:
        return self.valuation == INF

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


def _valuation_bound(num, place: FinitePlace) -> int:
    """An upper bound on v_w(a) for the integral element a with coefficient
    vector num: v_w(a) <= v_p(N(a)) / f_w, and |N(a)| = |Res(F, a)| <=
    |F|_2**deg(a) * |a|_2**n for the defining polynomial F of degree n.
    The norms are read off bit lengths; the final + 1 absorbs float
    rounding."""
    f = place.field.coeffs
    bits = (poly.degree(num) * sum(c * c for c in f).bit_length()
            + (len(f) - 1) * sum(c * c for c in num).bit_length()) / 2
    return int(bits / (place.f * log2(place.p))) + 1


def embed(x: FieldElement, place: FinitePlace, digits: int = DEFAULT_DIGITS) -> LocalElement:
    """Image of a field element in the completion, to `digits` unit digits.

    The valuation is exact.  The working precision is sized once, from a
    bound on the valuation of the numerator, so the readout never runs out
    of digits; digits=0 reads the valuation alone, and digits that is not
    an int >= 0 raises ValueError.
    """
    if x.field != place.field:
        raise FieldMismatch("element and place fields differ")
    if type(digits) is not int or digits < 0:
        raise ValueError(f"embed needs an int digits >= 0, not {digits!r}")
    if x.is_zero():
        return LocalElement(place, INF, None, 0)
    num, den = poly.trim(x.num), x.den
    p = place.p
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    ctx = context_for(place, digits + _valuation_bound(num, place) + 2)
    vec = poly.divmod_monic(num, ctx.G, ctx.pw)[1]
    if den != 1:
        inv = pow(den, -1, ctx.pw)
        vec = tuple(c * inv % ctx.pw for c in vec)
    val, unit, prec = ctx.extract(vec, ctx.digits)
    if place.e >= 2:  # p^-k = pi^(-ek) * (pi^e / p)^k
        for _ in range(k):
            unit = ctx.mul(unit, ctx.unit)
        prec = min(prec, ctx.unit_digits)
    assert prec >= digits, "certified unit digits fell below the request"
    pk = p ** digits
    return LocalElement(place, val - place.e * k, tuple(c % pk for c in unit[: len(ctx.G) - 1]), digits)


def valuation_of_element(x: FieldElement, place: FinitePlace) -> int | float:
    """Exact valuation of a field element at a place; INF for zero."""
    return embed(x, place, 0).valuation
