"""Places of a number field and splitting of rational primes.

A finite place above p corresponds to an irreducible factor of the
defining polynomial mod p, carrying its multiplicity e (ramification) and
degree f (residue degree).  The correspondence is only valid when p does
not divide the index of the polynomial order in the ring of integers;
Dedekind's criterion decides this exactly, and primes failing it are
rejected as unsupported.  A field's special primes are read from here
only: `disc_primes` (below desk scale, dividing the discriminant) and the
`excluded_primes` among them.  The modelled place set consists of the
places above the supported (not excluded) primes and the archimedean ones.
"""

from __future__ import annotations

from functools import lru_cache

from . import polynomials as poly
from .errors import NotPrime, UnsupportedPrime
from .numberfields import NumberField, read_int
from .primes import isprime, prime_divisors_below, prime_power_root, primerange
from .records import Record

FACTOR_CAP = 1_000_000  # integers from here on are beyond desk scale
LEAST_PRIME_PAST_CAP = 1_000_003  # the least prime at or past FACTOR_CAP


class FinitePlace(Record):
    """The place of field above p with ramification e and residue degree f;
    factor is its monic irreducible factor mod p, lowest degree first, and
    index its position in the canonical fiber ordering."""

    __slots__ = ("field", "p", "e", "f", "factor", "index")

    @property
    def is_finite(self) -> bool:
        return True

    def __repr__(self):
        return f"Place(p={self.p}, e={self.e}, f={self.f}, i={self.index})"


class ArchimedeanPlace(Record):
    """The embedding of field at position index, real or complex."""

    __slots__ = ("field", "index", "real")

    @property
    def is_finite(self) -> bool:
        return False

    def __repr__(self):
        kind = "real" if self.real else "complex"
        return f"Place(inf:{self.index}, {kind})"


Place = FinitePlace | ArchimedeanPlace


def archimedean_places(field: NumberField) -> tuple[ArchimedeanPlace, ...]:
    s1, s2 = field.real_embeddings, field.complex_pairs
    out = [ArchimedeanPlace(field, i, True) for i in range(s1)]
    out += [ArchimedeanPlace(field, s1 + i, False) for i in range(s2)]
    return tuple(out)


def _dedekind_index_coprime(field: NumberField, p: int, factors) -> bool:
    """Dedekind's criterion: does p avoid the index of Z[theta]?

    factors is the mod-p factorization [(g, e), ...] of the defining
    polynomial.  With g = prod g_i and h = prod g_i**(e_i - 1) lifted to
    monic integer polynomials, p avoids the index iff
    gcd((g*h - f)/p, g, h) = 1 mod p.
    """
    radical = cofactor = (1,)
    for g, e in factors:
        radical = poly.pnorm(poly.mul(radical, g), p)
        for _ in range(e - 1):
            cofactor = poly.pnorm(poly.mul(cofactor, g), p)
    diff = poly.sub(poly.mul(radical, cofactor), field.coeffs)
    assert all(c % p == 0 for c in diff)
    t_bar = poly.pnorm(tuple(c // p for c in diff), p)
    common = poly.pgcd(poly.pgcd(t_bar, radical, p), cofactor, p)
    return poly.degree(common) == 0


@lru_cache(maxsize=None)
def disc_primes(field: NumberField) -> frozenset[int]:
    """The primes below desk scale dividing the discriminant of the
    field's polynomial: the ramified ones and the excluded ones.  Larger
    primes are refused by `factor_prime`, so no query needs them listed,
    and the discriminant is never split past them."""
    return prime_divisors_below(abs(field.discriminant), FACTOR_CAP)[0]


@lru_cache(maxsize=None)
def excluded_primes(field: NumberField) -> tuple[int, ...]:
    """The primes of `disc_primes` dividing the index of the polynomial
    order, ascending.  Only those whose square divides the discriminant
    can, and Dedekind's criterion decides each of them."""
    disc = field.discriminant
    return tuple(p for p in sorted(disc_primes(field)) if disc % (p * p) == 0
                 and not _dedekind_index_coprime(field, p, poly.factor_mod_p(field.coeffs, p)))


@lru_cache(maxsize=None)
def supported_primes_dividing(field: NumberField, n: int) -> tuple[int, ...]:
    """The prime divisors of n != 0 that are not excluded primes, ascending.

    Only primes below desk scale are found by trial division.  The prime
    of a cofactor that is a power of a prime below FACTOR_CAP**2 is
    listed, so `factor_prime` refuses it by name; any other cofactor
    cannot be named without splitting it and is refused here with
    `UnsupportedPrime`."""
    found, rest = prime_divisors_below(abs(n), FACTOR_CAP)
    if rest > 1:
        if (p := prime_power_root(rest, FACTOR_CAP)) is None:
            raise UnsupportedPrime(
                f"{rest} has no prime factor below the desk-scale bound"
            )
        found |= {p}
    excluded = excluded_primes(field)
    return tuple(p for p in sorted(found) if p not in excluded)


@lru_cache(maxsize=None)
def _factor_cached(field: NumberField, p: int) -> tuple[FinitePlace, ...]:
    factors = poly.factor_mod_p(field.coeffs, p)
    if any(e >= 2 for _, e in factors):
        if not _dedekind_index_coprime(field, p, factors):
            raise UnsupportedPrime(
                f"prime {p} divides the index of the polynomial order"
            )
    data = sorted((e, poly.degree(g), g) for g, e in factors)
    places = tuple(
        FinitePlace(field, p, e, f, g, i) for i, (e, f, g) in enumerate(data)
    )
    assert sum(w.e * w.f for w in places) == field.degree
    return places


def factor_prime(field: NumberField, p: int) -> tuple[FinitePlace, ...]:
    """All finite places of the field above p, canonically ordered.

    The fiber is sorted by (e, f, factor coefficients); the ordering is
    deterministic and stable across calls.
    """
    check_prime(p)
    return _factor_cached(field, p)


def check_prime(p) -> None:
    """Refuse anything but a prime below desk scale: desk scale is checked
    before primality, which is decided only below it."""
    if not isinstance(p, int) or p < 2:
        raise NotPrime(f"{p} is not prime")
    check_desk_scale(p)
    if not isprime(p):
        raise NotPrime(f"{p} is not prime")


def check_desk_scale(n: int) -> None:
    """Refuse an integer at or past FACTOR_CAP, beyond desk scale, prime
    or not."""
    if n >= FACTOR_CAP:
        raise UnsupportedPrime(f"{n} exceeds the desk-scale bound")


def place_above(field: NumberField, p: int, index: int = 0) -> FinitePlace:
    fiber = factor_prime(field, p)
    if not 0 <= index < len(fiber):
        raise ValueError(f"no place with index {index} above {p}")
    return fiber[index]


@lru_cache(maxsize=None, typed=True)
def splitting_class(field: NumberField, p: int) -> tuple[tuple[int, int], ...]:
    """The multiset of (e, f) pairs of the fiber above p, sorted.

    A prime not dividing the discriminant leaves the defining polynomial
    squarefree mod p, so every e is 1 and the residue degrees are read off
    the distinct-degree step alone, without splitting its blocks (von zur
    Gathen & Gerhard, Modern Computer Algebra, ch. 14).  Primes dividing
    the discriminant take the full `factor_prime` path, which also rejects
    the excluded ones.  Below desk scale these are the `disc_primes`; the
    divisibility test leaves the discriminant unfactored.
    """
    check_prime(p)
    if field.discriminant % p == 0:
        return tuple(sorted((w.e, w.f) for w in _factor_cached(field, p)))
    blocks = poly.distinct_degree(poly.pnorm(field.coeffs, p), p)
    cls = tuple(sorted((1, d) for d, g, _ in blocks for _ in range(poly.degree(g) // d)))
    assert sum(f for _, f in cls) == field.degree
    return cls


def _partitions(n: int, smallest: int = 1):
    """The unramified classes of degree n with every residue degree at
    least `smallest`, each as its sorted (1, f) pairs."""
    if n == 0:
        yield ()
    for f in range(smallest, n + 1):
        for rest in _partitions(n - f, f):
            yield ((1, f),) + rest


@lru_cache(maxsize=None)
def unramified_classes(field: NumberField) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The splitting classes of the field with every e = 1, sorted: the
    classes the primes outside `disc_primes` can have."""
    return tuple(sorted(_partitions(field.degree)))


def class_label(cls: tuple[tuple[int, int], ...]) -> str:
    return "+".join(f"{e}x{f}" for e, f in cls)


def parse_class_label(text: str) -> tuple[tuple[int, int], ...]:
    """Read the label `class_label` prints, and nothing else."""
    pairs = []
    for part in text.split("+"):
        e, f = part.split("x")
        pairs.append((read_int(e), read_int(f)))
    cls = tuple(sorted(pairs))
    if class_label(cls) != text:
        raise ValueError(f"{text!r} is not a class label as printed")
    return cls


def supported_primes(field: NumberField, bound: int):
    """Iterate supported primes below the bound in increasing order."""
    excluded = set(excluded_primes(field))
    for p in primerange(2, bound):
        if p not in excluded:
            yield p
