import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from adelic import polynomials as poly
from adelic.errors import FieldMismatch
from adelic.numberfields import NumberField, RATIONALS, parse_element, read_rational

from conftest import CATALOGUE, CUBE2, CYCLO5, GAUSS
from oracles import FractionElement, element_norm, sturm_count

X8_PLUS_1 = (1, 0, 0, 0, 0, 0, 0, 0, 1)
# minimal polynomial of sqrt2 + sqrt3 + sqrt5
ROOT_SUM = (576, 0, -960, 0, 352, 0, -40, 0, 1)


def test_construction_validates():
    with pytest.raises(ValueError):
        NumberField((1,))          # degree 0
    with pytest.raises(ValueError):
        NumberField((1, 0, 2))     # not monic
    for reducible in ((-1, 0, 1), (4, 0, 0, 0, 1), (2, 0, 3, 0, 1), (4, 0, 5, 0, 1)):
        with pytest.raises(ValueError):
            NumberField(reducible)     # x^2-1, x^4+4, (x^2+1)(x^2+2), (x^2+1)(x^2+4)


def test_fields_without_a_mod_p_witness_construct():
    """Every prime splits x^8+1 and the minimal polynomial of
    sqrt2+sqrt3+sqrt5, so irreducibility needs factor recombination."""
    for coeffs in (X8_PLUS_1, ROOT_SUM):
        start = time.perf_counter()
        assert NumberField(coeffs).degree == 8
        assert time.perf_counter() - start < 1.0


def test_signature():
    assert (GAUSS.real_embeddings, GAUSS.complex_pairs) == (0, 1)
    assert (CUBE2.real_embeddings, CUBE2.complex_pairs) == (1, 1)
    assert (CYCLO5.real_embeddings, CYCLO5.complex_pairs) == (0, 2)
    assert (RATIONALS.real_embeddings, RATIONALS.complex_pairs) == (1, 0)
    for k in (GAUSS, CUBE2, CYCLO5, RATIONALS):
        assert k.real_embeddings + 2 * k.complex_pairs == k.degree


def test_generator_satisfies_polynomial():
    for k in (GAUSS, CUBE2, CYCLO5):
        theta = k.element(0, 1)
        acc = k.zero()
        power = k.one()
        for c in k.coeffs:
            acc = acc + power * k.element(c)
            power = power * theta
        assert acc.is_zero()


def test_norms():
    i = GAUSS.element(0, 1)
    assert element_norm(GAUSS.one() + i) == 2         # N(1+i)
    assert element_norm(GAUSS.element(3, 4)) == 25    # N(3+4i)
    assert element_norm(CUBE2.element(0, 1)) == 2
    assert element_norm(RATIONALS.element(Fraction(-7, 2))) == Fraction(-7, 2)


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        GAUSS.one() + CUBE2.one()


@st.composite
def gauss_elements(draw):
    num = st.integers(min_value=-9, max_value=9)
    den = st.integers(min_value=1, max_value=4)
    coeffs = [Fraction(draw(num), draw(den)) for _ in range(2)]
    return GAUSS.element(*coeffs)


@given(gauss_elements(), gauss_elements(), gauss_elements())
@settings(max_examples=200, deadline=None)
def test_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GAUSS.zero()
    if not a.is_zero():
        assert a * a.inverse() == GAUSS.one()


@given(gauss_elements(), gauss_elements())
@settings(max_examples=150, deadline=None)
def test_norm_multiplicative(a, b):
    assert element_norm(a * b) == element_norm(a) * element_norm(b)


def test_element_text_round_trip():
    rng = random.Random(3)
    for field in (RATIONALS, GAUSS, CUBE2, CYCLO5):
        for _ in range(20):
            x = field.element(*[
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                for _ in range(field.degree)
            ])
            assert parse_element(field, x.to_text()) == x


@given(st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_rationals_read_only_as_printed(n, d):
    """`read_rational` reads back what `str(Fraction)` prints and refuses
    every other spelling `Fraction` itself would accept."""
    q = Fraction(n, d)
    assert read_rational(str(q)) == (q.numerator, q.denominator)
    for text in ("1.5", "1e0", " 1", "2/4", "+1", "1_0", "-0", "3/1"):
        with pytest.raises(ValueError):
            read_rational(text)


def test_integer_elements_agree_with_fraction_reference():
    """Arithmetic, norms and text against the Fraction reference in degrees
    1-6 and 8; equal values compare and hash equal however they were
    built; only a rational lifts to another field, as the same rational;
    real-root counts against a Sturm chain over the rationals."""
    rng = random.Random(11)
    fields = (RATIONALS, GAUSS, CUBE2, CYCLO5, NumberField((-1, -1, 0, 0, 0, 1)),
              NumberField((-2, 0, 0, 0, 0, 0, 1)), NumberField(X8_PLUS_1))

    def draw(field):
        # up to 2n - 1 coefficients, so construction also reduces mod f
        size = rng.choice((field.degree, 2 * field.degree - 1))
        return [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) * rng.randint(0, 1)
                for _ in range(size)]

    for field in fields:
        for _ in range(30):
            xc, yc = draw(field), draw(field)
            x, y = field.element(*xc), field.element(*yc)
            rx, ry = FractionElement(field.coeffs, xc), FractionElement(field.coeffs, yc)
            pairs = [(x, rx), (y, ry), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry)]
            if not y.is_zero():
                pairs.append((x / y, rx / ry))
            for got, want in pairs:
                assert got.den > 0 and gcd(got.den, *got.num) == 1
                assert [Fraction(c, got.den) for c in got.num] == list(want.coeffs)
                assert got.to_text() == want.to_text()
                assert element_norm(got) == want.norm()
            # the same value from unreduced sums, scalings and long vectors
            k = rng.randint(2, 9)
            for same in (x + y - y, (x * field.element(k)) / field.element(k),
                         field.element(*(xc + [0] * field.degree)),
                         x + field.element(Fraction(k, 2 * k)) - field.element(Fraction(1, 2))):
                assert same == x and hash(same) == hash(x)
            q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
            assert RATIONALS.element(q).lift(field) == field.element(q)
            assert field.element(q).lift(CUBE2) == CUBE2.element(q)
            if any(x.num[1:]):
                with pytest.raises(ValueError):
                    x.lift(field)
    # the chains of x^4+4x-4 and x^5+5x^2-3 skip a degree after a negative
    # leading coefficient, so a pseudo-remainder's sign must be corrected
    gapped = [(-4, 4, 0, 0, 1), (-3, 0, 5, 0, 0, 1)]
    for f in [k.coeffs for k in CATALOGUE + fields] + gapped + [ROOT_SUM]:
        assert poly.count_real_roots(f) == sturm_count(f)
    assert (sturm_count(X8_PLUS_1), sturm_count(ROOT_SUM)) == (0, 8)
