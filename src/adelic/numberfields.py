"""Monogenic number fields and exact arithmetic in them.

A field is given by a monic irreducible integer polynomial f of degree n;
its elements are polynomials in the generator with rational coefficients,
reduced mod f.  The base field of every construction here is the
rationals, represented by the degree-one polynomial x.

An element is one integer vector over one denominator: n ints reduced mod
f and a positive int sharing no factor with all of them, so each value
has exactly one representation.  Because f is monic, sums and products
stay in the integers up to one gcd pass, and the norm and the inverse
are determinants of the multiplication matrix (`polynomials.mul_matrix`).
`to_text` prints each coordinate as n/d from num and den, `read_rational`
reads it back as an int pair, and `lift` puts a rational in any field.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from . import polynomials as poly
from .errors import FieldMismatch
from .records import Record


class NumberField(Record):
    """A number field Q[x]/(f) for monic irreducible integer f.

    coeffs holds f lowest degree first, including the leading 1.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs: tuple[int, ...]):
        f = coeffs
        if len(f) < 2:
            raise ValueError("defining polynomial must have degree >= 1")
        if f[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(not isinstance(c, int) for c in f):
            raise ValueError("defining polynomial must have integer coefficients")
        if not poly.is_irreducible_monic_int(f):
            raise ValueError("defining polynomial is reducible over Q")
        object.__setattr__(self, "coeffs", coeffs)
        # fields key most caches of the package: hash once, as (coeffs,)
        object.__setattr__(self, "_hash", hash((coeffs,)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return self._hash

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
        """Build an element from rational coefficients, lowest power first:
        ints, or any rationals with integer `numerator` and `denominator`."""
        den = lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        return _element(self, poly.rem_monic(num, self.coeffs), den)

    def zero(self) -> "FieldElement":
        return self.element()

    def one(self) -> "FieldElement":
        return self.element(1)

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


def _element(field: NumberField, num, den: int) -> "FieldElement":
    """num / den in lowest terms; num holds degree ints, den > 0."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return FieldElement(field, tuple(num), den)


class FieldElement(Record):
    """An element of field, num / den: num holds the coefficients of a
    polynomial in the generator reduced mod the defining polynomial, lowest
    power first, one int per degree; den > 0 shares no factor with all."""

    __slots__ = ("field", "num", "den")

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("elements of different fields")

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _element(self.field, [u * b + v * a for u, v in zip(self.num, other.num)], a * b)

    def __sub__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return _element(self.field, [u * b - v * a for u, v in zip(self.num, other.num)], a * b)

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        self._check(other)
        prod = poly.rem_monic(poly.mul(self.num, other.num), self.field.coeffs)
        return _element(self.field, prod, self.den * other.den)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse by Cramer's rule: with M the matrix of
        multiplication by num, coordinate j of 1/num is det(M with row j
        replaced by (1, 0, ..., 0)) / det M."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        m = poly.mul_matrix(self.num, self.field.coeffs)
        det = poly.int_det(m)
        unit = (1,) + (0,) * (len(m) - 1)
        num = [self.den * poly.int_det(m[:j] + [unit] + m[j + 1:]) for j in range(len(m))]
        if det < 0:
            num, det = [-c for c in num], -det
        return _element(self.field, num, det)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def lift(self, field: NumberField) -> "FieldElement":
        """This element, which must be rational, as an element of `field`."""
        if any(self.num[1:]):
            raise ValueError("element is not rational")
        return FieldElement(field, (self.num[0],) + (0,) * (field.degree - 1), self.den)

    def to_text(self) -> str:
        out = []
        for c in self.num:
            g = gcd(c, self.den)
            out.append(str(c // g) if g == self.den else f"{c // g}/{self.den // g}")
        return ",".join(out)

    def __repr__(self):
        return f"<{self.to_text()} in deg-{self.field.degree} field>"


def parse_element(field: NumberField, text: str) -> FieldElement:
    """Read the text `FieldElement.to_text` prints, or its first coordinates."""
    parts = [read_rational(t) for t in text.split(",")]
    if len(parts) > field.degree:
        raise ValueError(f"{text!r} has more coordinates than the degree {field.degree}")
    den = lcm(*(d for _, d in parts))
    return _element(field, poly.rem_monic([n * (den // d) for n, d in parts], field.coeffs), den)


def read_int(text: str) -> int:
    """An integer written as `str` writes it: no sign but a leading minus,
    no padding and no leading zero."""
    n = int(text)
    if str(n) != text:
        raise ValueError(f"{text!r} is not an integer as printed")
    return n


def read_rational(text: str) -> tuple[int, int]:
    """(n, d) from a rational as `to_text` writes it: an integer as
    `read_int` reads it, or n/d with d > 1 in lowest terms."""
    num, slash, den = text.partition("/")
    n, d = read_int(num), read_int(den) if slash else 1
    if slash and (d < 2 or gcd(n, d) != 1):
        raise ValueError(f"{text!r} is not a rational as printed")
    return n, d


RATIONALS = NumberField((0, 1))
