"""Monogenic number fields and exact arithmetic in them.

A field is given by a monic irreducible integer polynomial; its elements
are polynomials in the generator with rational coefficients, reduced mod
the defining polynomial.  The base field of every construction here is the
rationals, represented by the degree-one polynomial x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import polynomials as poly
from .errors import FieldMismatch


@dataclass(frozen=True)
class NumberField:
    """A number field Q[x]/(f) for monic irreducible integer f.

    coeffs holds f lowest degree first, including the leading 1.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        f = self.coeffs
        if len(f) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(not isinstance(c, int) for c in f):
            raise ValueError("defining polynomial must have integer coefficients")
        if not poly.is_irreducible_monic_int(f):
            raise ValueError("defining polynomial is reducible over Q")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def discriminant(self) -> int:
        return _discriminant(self.coeffs)

    @property
    def real_embeddings(self) -> int:
        return _signature(self.coeffs)[0]

    @property
    def complex_pairs(self) -> int:
        return _signature(self.coeffs)[1]

    def element(self, *coeffs) -> "FieldElement":
        """Build an element from rational coefficients, lowest power first."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = _reduce(cs, self.coeffs)
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def zero(self) -> "FieldElement":
        return self.element()

    def one(self) -> "FieldElement":
        return self.element(1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.element(-self.coeffs[0])
        return self.element(0, 1)

    def __repr__(self):
        return f"NumberField({list(self.coeffs)})"


@lru_cache(maxsize=None)
def _discriminant(coeffs):
    return poly.discriminant_int(coeffs)


@lru_cache(maxsize=None)
def _signature(coeffs):
    n = len(coeffs) - 1
    s1 = poly.count_real_roots(coeffs)
    assert (n - s1) % 2 == 0
    return s1, (n - s1) // 2


def _reduce(cs, f):
    """Reduce a coefficient list modulo the monic integer polynomial f."""
    cs = list(cs)
    n = len(f) - 1
    while len(cs) > n:
        top = cs.pop()
        if top:
            for i in range(n):
                cs[len(cs) - n + i] -= top * f[i]
    return cs


@dataclass(frozen=True)
class FieldElement:
    field: NumberField
    coeffs: tuple[Fraction, ...]

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("elements of different fields")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        prod = poly.mul(self.coeffs, other.coeffs)
        return self.field.element(*prod)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via the extended Euclidean algorithm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        f = tuple(Fraction(c) for c in self.field.coeffs)
        r0, r1 = f, poly.trim(self.coeffs)
        s0, s1 = (), (Fraction(1),)
        while poly.degree(r1) > 0:
            q, r = poly.divmod_frac(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly.sub(s0, poly.mul(q, s1))
        assert r1, "defining polynomial not irreducible?"
        inv_lead = 1 / r1[0]
        return self.field.element(*poly.scale(s1, inv_lead))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def norm(self) -> Fraction:
        """Field norm down to the rationals."""
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        num = poly.trim(int(c * den) for c in self.coeffs)
        if not num:
            return Fraction(0)
        n = self.field.degree
        return Fraction(poly.resultant_int(self.field.coeffs, num), den ** n)

    def denominator(self) -> int:
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        return den

    def scaled_integer_numerator(self) -> tuple[int, ...]:
        """Integer coefficient tuple of (denominator * self)."""
        den = self.denominator()
        return poly.trim(int(c * den) for c in self.coeffs)

    def as_rational(self) -> Fraction:
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def to_text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"<{self.to_text()} in deg-{self.field.degree} field>"


def parse_element(field: NumberField, text: str) -> FieldElement:
    parts = [Fraction(t) for t in text.split(",")] if text else []
    return field.element(*parts)


RATIONALS = NumberField((0, 1))
