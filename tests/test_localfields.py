import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from adelic import localfields
from adelic import polynomials as poly
from adelic.adeles import diagonal
from adelic.localfields import (
    INF,
    embed,
    uniformizer_element,
    valuation_of_element,
)
from adelic.numberfields import NumberField, RATIONALS
from adelic.places import excluded_primes, factor_prime, place_above
from adelic.primes import primerange
from adelic.spectrum import quotient_eval

from conftest import CATALOGUE, CUBE2, CYCLO5, GAUSS
from oracles import (element_norm, linear_hensel_lift, oracle_mul_mod, oracle_pmul,
                     trial_division_factor)

SEXTIC = NumberField((-2, 0, 0, 0, 0, 0, 1))   # x^6 - 2
QUINTIC = NumberField((-1, -1, 0, 0, 0, 1))     # x^5 - x - 1


def test_embed_inverse_of_two_at_three():
    v = place_above(RATIONALS, 3)
    image = embed(RATIONALS.element(Fraction(1, 2)), v, 5)
    assert image.valuation == 0
    assert image.unit == (122,)                # 2 * 122 = 244 = 1 + 3^5
    assert (2 * image.unit[0]) % 3 ** 5 == 1


def test_embed_unit_part_at_a_ramified_place_with_p_in_the_denominator():
    """Over Q(i) at the place above 2, pi = 1 + i and pi^2 = 2i, so
    1/2 = pi^-2 * i and i/2 = pi^-2 * (-1)."""
    w = place_above(GAUSS, 2)
    half = embed(GAUSS.element(Fraction(1, 2)), w, 8)
    assert (half.valuation, half.unit) == (-2, (0, 1))
    half_i = embed(GAUSS.element(0, Fraction(1, 2)), w, 8)
    assert (half_i.valuation, half_i.unit) == (-2, (255, 0))


def test_embed_basics():
    v = place_above(RATIONALS, 3)
    three = embed(RATIONALS.element(3), v, 5)
    assert three.valuation == 1 and three.unit == (1,)
    assert embed(RATIONALS.zero(), v).is_zero
    four = embed(RATIONALS.one() + RATIONALS.element(3), v, 8)
    assert four.valuation == 0 and four.unit == (4,)


@pytest.mark.parametrize("digits", [-1, 2.5, -5, True])
def test_embed_refuses_digits_that_are_not_a_natural_number(digits):
    with pytest.raises(ValueError):
        embed(RATIONALS.element(3), place_above(RATIONALS, 5), digits)


def test_uniformizers_have_valuation_one():
    for field, p in ((GAUSS, 2), (CUBE2, 3), (CUBE2, 2), (CYCLO5, 5), (GAUSS, 13)):
        for w in factor_prime(field, p):
            pi = uniformizer_element(w)
            assert valuation_of_element(pi, w) == 1, (field, p, w)


def test_valuations_add_under_multiplication():
    w = place_above(GAUSS, 2)
    a = GAUSS.element(1, 1)                  # 1 + i, valuation 1
    b = GAUSS.element(2)                     # valuation 2
    assert embed(a, w, 10).valuation == 1 and embed(b, w, 10).valuation == 2
    assert embed(a * b, w, 10).valuation == 3
    assert valuation_of_element(a * a, w) == 2


def test_ultrametric_inequality_thousand_pairs():
    rng = random.Random(23)
    places = [
        place_above(RATIONALS, 2),
        place_above(RATIONALS, 3),
        place_above(GAUSS, 2),
        place_above(GAUSS, 5, 0),
        place_above(CUBE2, 2),
        place_above(CYCLO5, 19, 0),
    ]
    checked = 0
    while checked < 1000:
        w = rng.choice(places)
        field = w.field
        x = field.element(*[rng.randint(-20, 20) for _ in range(field.degree)])
        y = field.element(*[rng.randint(-20, 20) for _ in range(field.degree)])
        if x.is_zero() or y.is_zero() or (x + y).is_zero():
            continue
        vx = valuation_of_element(x, w)
        vy = valuation_of_element(y, w)
        vsum = valuation_of_element(x + y, w)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)
        vprod = valuation_of_element(x * y, w)
        assert vprod == vx + vy
        checked += 1


def test_zero_valuation_is_infinite():
    w = place_above(GAUSS, 7)
    assert valuation_of_element(GAUSS.zero(), w) == INF


def test_high_valuation_fits_the_working_precision():
    three = place_above(RATIONALS, 3)
    x = RATIONALS.element(3 ** 40)
    image = embed(x, three, 16)
    assert (image.valuation, image.unit, image.precision) == (40, (1,), 16)
    assert quotient_eval(diagonal(x), three, 16) == image
    assert valuation_of_element(RATIONALS.element(Fraction(1, 3 ** 40)), three) == -40


def _vp(q, p):
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def test_product_formula_for_valuations():
    """sum over w above p of f_w * v_w(x) equals v_p(N(x)), at ramified
    and unramified primes, for random x and for p**k multiples of them."""
    rng = random.Random(5)
    for field in CATALOGUE + (SEXTIC,):
        disc = field.discriminant
        ramified = [p for p in trial_division_factor(abs(disc)) if p not in excluded_primes(field)]
        unramified = [p for p in (3, 7, 11, 13, 29, 10007) if disc % p][:3]
        for p in ramified + unramified:
            places = factor_prime(field, p)
            for _ in range(12):
                x = field.element(*[Fraction(rng.randint(-30, 30), rng.randint(1, 9))
                                    for _ in range(field.degree)])
                if x.is_zero():
                    continue
                for k in (0, rng.randint(1, 39), 40):
                    y = x * field.element(p ** k)
                    total = sum(w.f * valuation_of_element(y, w) for w in places)
                    assert total == _vp(element_norm(y), p), (field, p, y)


# fibers with several places; x^5 - x - 1 ramifies at 19 and 151
LIFT_FIBERS = ((CYCLO5, 11), (GAUSS, 5), (CUBE2, 31), (SEXTIC, 5), (QUINTIC, 19), (QUINTIC, 151))


@pytest.fixture
def cleared_lifts():
    """Empty the lift and context caches, before the test and after it."""
    localfields._LIFTS.clear()
    localfields._context.cache_clear()
    yield
    localfields._LIFTS.clear()
    localfields._context.cache_clear()


def test_fiber_is_lifted_once_for_embed_then_valuations(cleared_lifts, monkeypatch):
    """embed at 256 digits lifts the fiber; valuation reads at every place
    of the fiber, at lower working precision, lift nothing more."""
    lift, depth, top_level = poly.hensel_lift, [0], []

    def counting_lift(f, factors, p, digits):
        if not depth[0]:
            top_level.append((f, p, digits))
        depth[0] += 1
        try:
            return lift(f, factors, p, digits)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(poly, "hensel_lift", counting_lift)
    rng = random.Random(11)
    for field, p in LIFT_FIBERS:
        places = factor_prime(field, p)
        assert len(places) >= 2
        x = field.element(*[rng.randint(-50, 50) for _ in range(field.degree)])
        before = len(top_level)
        embed(x, places[0], 256)
        for w in places:
            valuation_of_element(x, w)
            valuation_of_element(x * field.element(p), w)
        assert len(top_level) == before + 1, (field, p, top_level[before:])


def _embed_table(order):
    rng = random.Random(29)
    table = {}
    for field, p in LIFT_FIBERS:
        xs = [field.element(*[Fraction(rng.randint(-40, 40), rng.randint(1, 7))
                              for _ in range(field.degree)]) for _ in range(4)]
        for digits in order:
            for w in factor_prime(field, p):
                for i, x in enumerate(xs):
                    table[field, p, w.index, i, digits] = embed(x, w, digits)
    return table


def test_embed_does_not_depend_on_the_order_of_precisions(cleared_lifts):
    ascending = _embed_table((16, 64, 256))
    localfields._LIFTS.clear()
    localfields._context.cache_clear()
    assert _embed_table((256, 64, 16)) == ascending


@pytest.mark.parametrize("digits", [1, 16, 64])
def test_embed_unit_has_one_entry_per_local_degree(digits):
    """The unit part is read mod the place's lifted factor G of degree
    e * f, with p or powers of it in the numerator or the denominator."""
    rng = random.Random(digits)
    for field in CATALOGUE:
        for p in primerange(2, 30):
            if p in excluded_primes(field):
                continue
            for w in factor_prime(field, p):
                for k in (-2, 0, 3):
                    x = field.element(*[rng.randint(-40, 40) for _ in range(field.degree)])
                    if not x.is_zero():
                        image = embed(x * field.element(Fraction(p) ** k), w, digits)
                        assert len(image.unit) == w.e * w.f, (w, k)


# every place with e >= 2 above a supported prime of a catalogue field
RAMIFIED = [w for field in CATALOGUE for p in trial_division_factor(abs(field.discriminant))
            if p not in excluded_primes(field) for w in factor_prime(field, p) if w.e >= 2]


def _unit_product(a, b, digits):
    """The product of the unit parts of two local elements at one place mod
    (G, p**digits), with G the place's block lifted by the linear Hensel
    oracle."""
    w = a.place
    blocks = []
    for v in factor_prime(w.field, w.p):
        block = (1,)
        for _ in range(v.e):
            block = oracle_pmul(block, v.factor, w.p)
        blocks.append(block)
    G = linear_hensel_lift(w.field.coeffs, blocks, w.p, digits)[w.index]
    return oracle_mul_mod(a.unit, b.unit, G, w.p ** digits)


@pytest.mark.parametrize("w", RAMIFIED, ids=lambda w: f"{list(w.field.coeffs)}@{w.p}")
def test_embed_reduces_to_integral_elements(w):
    """For x = y / p^k with y integral, embed(x) * embed(p^k) = embed(y):
    valuations add and unit parts multiply mod (G, p**digits)."""
    rng = random.Random(w.p * 31 + w.field.degree)
    field, digits = w.field, 12
    for _ in range(40):
        y = field.element(*[rng.randint(-60, 60) for _ in range(field.degree)])
        if y.is_zero():
            continue
        k = rng.randint(1, 4)
        pk = field.element(w.p ** k)
        x, px, image = embed(y / pk, w, digits), embed(pk, w, digits), embed(y, w, digits)
        assert x.valuation + px.valuation == image.valuation
        assert _unit_product(x, px, digits) == poly.pnorm(image.unit, w.p ** digits), (y, k)


@given(st.sampled_from(RAMIFIED), st.data())
@settings(max_examples=200, deadline=None)
def test_embed_is_multiplicative_at_ramified_places(w, data):
    """embed(x * y) = embed(x) * embed(y) for x and y with powers of p in
    their numerators or denominators, so that those of the product cancel."""
    field, digits = w.field, 8
    coeffs = st.lists(st.integers(-30, 30), min_size=field.degree, max_size=field.degree)
    powers = st.integers(-3, 3).map(lambda k: field.element(Fraction(w.p) ** k))
    x, y = (field.element(*data.draw(coeffs)) * data.draw(powers) for _ in range(2))
    if x.is_zero() or y.is_zero():
        return
    ex, ey, exy = (embed(z, w, digits) for z in (x, y, x * y))
    assert ex.valuation + ey.valuation == exy.valuation
    assert _unit_product(ex, ey, digits) == poly.pnorm(exy.unit, w.p ** digits)
