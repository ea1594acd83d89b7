import random

import pytest
from hypothesis import given, settings, strategies as st

from adelic import polynomials as poly
from adelic.primes import primerange

from oracles import (box_search_is_irreducible, brute_factor_mod_p, linear_hensel_lift,
                     oracle_gcd, oracle_mul_mod, oracle_pmul, oracle_pow_mod,
                     oracle_unramified_class, rabin_is_irreducible_mod_p)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
# the catalogue, x^6 - 2 and x^5 - x - 1
LIFT_FIELDS = ((1, 0, 1), (-5, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1),
               (-2, 0, 0, 0, 0, 0, 1), (-1, -1, 0, 0, 0, 1))


def test_resultant_and_discriminant_known_values():
    assert poly.discriminant_int((1, 0, 1)) == -4
    assert poly.discriminant_int((-5, 0, 1)) == 20
    assert poly.discriminant_int((-2, 0, 0, 1)) == -108
    assert poly.discriminant_int((1, 1, 1, 1, 1)) == 125
    # Res(x^2+1, x-2) = f(2) = 5 is the norm of i - 2 in Q(i)
    assert poly.norm_int((-2, 1), (1, 0, 1)) == 5


def test_real_root_counts():
    assert poly.count_real_roots((1, 0, 1)) == 0
    assert poly.count_real_roots((-5, 0, 1)) == 2
    assert poly.count_real_roots((-2, 0, 0, 1)) == 1
    assert poly.count_real_roots((1, 1, 1, 1, 1)) == 0


def test_irreducibility_catalogue():
    assert poly.is_irreducible_monic_int((1, 0, 1))
    assert poly.is_irreducible_monic_int((-5, 0, 1))
    assert poly.is_irreducible_monic_int((-2, 0, 0, 1))
    assert poly.is_irreducible_monic_int((1, 1, 1, 1, 1))
    assert not poly.is_irreducible_monic_int((-1, 0, 1))       # (x-1)(x+1)
    assert not poly.is_irreducible_monic_int((1, 2, 1))        # (x+1)^2
    assert not poly.is_irreducible_monic_int((4, 0, 5, 0, 1))  # (x^2+1)(x^2+4)
    assert not poly.is_irreducible_monic_int((2, 0, 3, 0, 1))  # (x^2+1)(x^2+2)
    assert not poly.is_irreducible_monic_int((4, 0, 0, 0, 1))  # x^4+4, no mod-p witness
    # every prime splits both x^4+1 and x^4-10x^2+1, so each factor over Z
    # is a product of at least two factors mod p
    assert not poly.is_irreducible_monic_int(poly.mul((1, 0, 0, 0, 1), (1, 0, -10, 0, 1)))


monic_polys = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n)
).map(lambda cs: tuple(cs) + (1,))
monic_factors = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n)
).map(lambda cs: tuple(cs) + (1,))


@given(monic_polys)
@settings(max_examples=200, deadline=None)
def test_irreducibility_agrees_with_box_search(f):
    assert poly.is_irreducible_monic_int(f) == box_search_is_irreducible(f)


@given(monic_factors, monic_factors)
@settings(max_examples=200, deadline=None)
def test_products_of_monic_factors_are_reducible(g, h):
    assert not poly.is_irreducible_monic_int(poly.mul(g, h))


def test_quadratic_lift_matches_linear_reference():
    """Precisions that are not powers of two (3, 33, 288) end on a step
    shorter than the ones before it."""
    for f in LIFT_FIELDS:
        for p in list(primerange(2, 200)) + [10007, 20011, 29989]:
            blocks = []
            for g, e in poly.factor_mod_p(f, p):
                block = (1,)
                for _ in range(e):
                    block = oracle_pmul(block, g, p)
                blocks.append(block)
            for digits in (1, 3, 32, 33, 64) + ((288, 512) if p > 200 else ()):
                expected = linear_hensel_lift(f, blocks, p, digits)
                assert poly.hensel_lift(f, blocks, p, digits) == expected, (f, p, digits)


def _int_product(polys):
    """Product over Z of coefficient sequences, by schoolbook convolution."""
    out = [1]
    for g in polys:
        prod = [0] * (len(out) + len(g) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(g):
                prod[i + j] += a * b
        out = prod
    return out


@given(
    st.integers(min_value=2, max_value=7).flatmap(
        lambda n: st.lists(st.integers(min_value=-40, max_value=40), min_size=n, max_size=n)),
    st.sampled_from(list(primerange(2, 60))),
    st.sampled_from((1, 2, 5, 33)),
)
@settings(max_examples=200, deadline=None)
def test_hensel_lift_laws(coeffs, p, digits):
    """The lifts are monic, each reduces to its block mod p, and together
    they multiply to f mod p**digits."""
    f = tuple(coeffs) + (1,)
    blocks = [tuple(c % p for c in _int_product([g] * e)) for g, e in poly.factor_mod_p(f, p)]
    lifted = poly.hensel_lift(f, blocks, p, digits)
    assert len(lifted) == len(blocks)
    for lift, block in zip(lifted, blocks):
        assert len(lift) == len(block) and lift[-1] == 1, (lift, block)
        assert tuple(c % p for c in lift) == block, (lift, block)
    pk = p ** digits
    assert [c % pk for c in _int_product(lifted)] == [c % pk for c in f]


@pytest.mark.parametrize("f,factors", [
    ((1, 0, 1), [(1, 1)]),                 # x + 1 alone is not x^2 + 1
    ((1, 0, 1), [(2, 1), (4, 1)]),         # (x + 2)(x + 4) = x^2 + x + 3
    ((1, 0, 1), [(1, 2), (3, 1)]),         # 2x + 1 is not monic
    ((1, 2, 1), [(1, 1), (1, 1)]),         # (x + 1)^2, but the factors share x + 1
])
def test_hensel_lift_refuses_a_wrong_factor_list(f, factors):
    """Over F_5, where x^2 + 1 = (x + 2)(x + 3)."""
    with pytest.raises(ValueError):
        poly.hensel_lift(f, factors, 5, 4)


@pytest.mark.parametrize("digits", [0, -1, True, 2.5])
def test_hensel_lift_refuses_digits_that_are_not_a_positive_int(digits):
    """Unchecked, 0 gave a last block (), -1 float coefficients, True was
    read as 1, and 2.5 never returned."""
    with pytest.raises(ValueError):
        poly.hensel_lift((1, 0, 1), [(2, 1), (3, 1)], 5, digits)


@given(
    st.sampled_from(list(primerange(2, 60))),
    st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=6),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=9),
)
@settings(max_examples=300, deadline=None)
def test_pinverse_laws(p, low, a):
    """t = pinverse(a, g, p) has deg t < deg g and a*t = 1 mod (g, p), or
    ValueError when a and g share a factor mod p.  The monic g is left
    unreduced mod p, as the lifted blocks `localfields` inverts modulo are."""
    g = tuple(low) + (1,)
    if len(oracle_gcd(a, g, p)) != 1:
        with pytest.raises(ValueError):
            poly.pinverse(tuple(a), g, p)
        return
    t = poly.pinverse(tuple(a), g, p)
    assert len(t) < len(g) and all(0 <= c < p for c in t), t
    assert oracle_mul_mod(a, t, g, p) == (1,)


def test_equal_degree_builds_one_ring_per_split(monkeypatch):
    """Cantor-Zassenhaus on a product of r degree-d irreducibles splits
    r - 1 times, and every random attempt at one split, failed or not,
    works in the one `_PackedRing` of the polynomial being split.  The
    seeded search must meet attempts that fail, at p = 2 and at odd p."""
    counts = {"builds": 0, "attempts": 0}
    init, splitter = poly._PackedRing.__init__, poly._splitter

    def counting_init(self, *args):
        counts["builds"] += 1
        init(self, *args)

    def counting_splitter(*args):
        counts["attempts"] += 1
        return splitter(*args)

    monkeypatch.setattr(poly._PackedRing, "__init__", counting_init)
    monkeypatch.setattr(poly, "_splitter", counting_splitter)
    rng = random.Random(29)
    retried = set()
    for p, d, r in ((2, 3, 2), (2, 4, 3), (2, 5, 3), (3, 1, 3), (3, 2, 3), (5, 1, 4),
                    (5, 2, 3), (7, 1, 5), (7, 3, 2), (11, 2, 3)) * 3:
        irreducibles = set()
        while len(irreducibles) < r:
            g = tuple(rng.randrange(p) for _ in range(d)) + (1,)
            if rabin_is_irreducible_mod_p(g, p):
                irreducibles.add(g)
        g = (1,)
        for u in irreducibles:
            g = oracle_pmul(g, u, p)
        counts.update(builds=0, attempts=0)
        assert sorted(poly._equal_degree(g, d, p)) == sorted(irreducibles), (g, d, p)
        assert counts["builds"] == r - 1, (g, d, p, counts)
        if counts["attempts"] > r - 1:
            retried.add(p == 2)
    assert retried == {True, False}


@pytest.mark.parametrize("p, factors, builds", [
    (5, [(2, 0, 1), (3, 0, 1)], 1),
    (17, [(2, 1), (8, 1), (9, 1), (15, 1)], 3),
], ids=["mod5", "mod17"])
def test_block_equal_to_its_polynomial_is_split_in_its_ring(monkeypatch, p, factors, builds):
    """x^4 + 1 is one equal-degree block mod 5 and mod 17, so `_equal_degree`
    splits it in the `_PackedRing` distinct-degree built for it: one ring
    mod 5, and mod 17 that ring plus one per quadratic half."""
    count = [0]
    init = poly._PackedRing.__init__

    def counting_init(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(poly._PackedRing, "__init__", counting_init)
    assert poly.factor_mod_p((1, 0, 0, 0, 1), p) == [(g, 1) for g in factors]
    assert count[0] == builds


def test_factor_mod_p_examples():
    assert poly.factor_mod_p((1, 0, 1), 5) == [((2, 1), 1), ((3, 1), 1)]
    assert poly.factor_mod_p((1, 0, 1), 2) == [((1, 1), 2)]
    assert poly.factor_mod_p((1, 0, 1), 7) == [((1, 0, 1), 1)]
    assert poly.factor_mod_p((1, 1, 1, 1, 1), 5) == [((4, 1), 4)]
    # characteristic 2 splits equal-degree blocks with the trace map
    phi5 = (1, 1, 1, 1, 1)
    phi7 = (1, 1, 1, 1, 1, 1, 1)
    phi15 = (1, -1, 0, 1, -1, 1, 0, -1, 1)
    cases = (
        (phi7, [((1, 0, 1, 1), 1), ((1, 1, 0, 1), 1)]),
        (phi15, [((1, 0, 0, 1, 1), 1), ((1, 1, 0, 0, 1), 1)]),
        (poly.mul(phi5, phi15),
         [((1, 0, 0, 1, 1), 1), ((1, 1, 0, 0, 1), 1), ((1, 1, 1, 1, 1), 1)]),
    )
    for f, expected in cases:
        assert poly.factor_mod_p(f, 2) == expected
        for g, _ in expected:
            assert brute_factor_mod_p(g, 2) == [(g, 1)]


def test_factor_mod_p_against_brute_force():
    rng = random.Random(7)
    fields = [(1, 0, 1), (-5, 0, 1), (-2, 0, 0, 1), (1, 1, 1, 1, 1)]
    for _ in range(150):
        if rng.random() < 0.5:
            f = tuple(rng.choice(fields))
        else:
            deg = rng.randint(1, 4)
            f = tuple(rng.randint(-9, 9) for _ in range(deg)) + (1,)
        p = rng.choice(SMALL_PRIMES + (101, 997))
        fp = poly.pnorm(f, p)
        if poly.degree(fp) != len(f) - 1:
            continue
        assert poly.factor_mod_p(f, p) == brute_factor_mod_p(f, p), (f, p)


def _power_product(factors, p):
    """prod g**e mod p over the (g, e) pairs, by schoolbook products."""
    f = (1,)
    for g, e in factors:
        for _ in range(e):
            f = oracle_pmul(f, g, p)
    return f


# (p, sorted factorization): h1^3 * h2 with h1, h2 of one degree; three
# linear multiplicities; a cube mod 3 and squares only mod 2, which are
# p-th powers
PINNED_PRODUCTS = (
    (5, [((2, 0, 1), 3), ((3, 0, 1), 1)]),
    (7, [((3, 1), 4), ((5, 1), 2), ((6, 1), 1)]),
    (3, [((1, 1), 3), ((2, 1), 1)]),
    (2, [((1, 1), 2), ((1, 1, 1), 2), ((1, 1, 0, 1), 4)]),
    (2, [((1, 1, 1), 3), ((1, 0, 1, 1), 2), ((1, 1, 0, 1), 1)]),
)


def test_factor_mod_p_of_products_of_irreducibles():
    """The pinned products, and products of up to five distinct irreducibles
    of degree 1-4, each to a power 1-4 (degree up to 80), so that factors
    split off w after the Frobenius rows are built and the rows are reduced
    again, and every copy of a repeated factor leaves w with it;
    irreducibility comes from the brute-force oracle, and the squarefree
    product of the factors matches the unramified class oracle."""
    rng = random.Random(11)
    cases = list(PINNED_PRODUCTS)
    for _ in range(120):
        p = rng.choice(SMALL_PRIMES + (101, 997, 29989))
        irreducibles, count = set(), rng.randint(2, 5)
        while len(irreducibles) < count:
            g = tuple(rng.randrange(p) for _ in range(rng.randint(1, 4))) + (1,)
            if brute_factor_mod_p(g, p) == [(g, 1)]:
                irreducibles.add(g)
        cases.append((p, sorted(((g, rng.randint(1, 4)) for g in sorted(irreducibles)),
                                key=lambda t: (len(t[0]), t[0]))))
    for p, expected in cases:
        assert all(brute_factor_mod_p(g, p) == [(g, 1)] for g, _ in expected), (p, expected)
        f = _power_product(expected, p)
        assert poly.factor_mod_p(f, p) == expected, (f, p)
        squarefree = _power_product([(g, 1) for g, _ in expected], p)
        cls = tuple(sorted((1, poly.degree(g)) for g, _ in expected))
        assert oracle_unramified_class(squarefree, p) == cls, (f, p)


@pytest.mark.parametrize("f, p, factors", [
    ((-2, 0, 0, 1), 3, [((1, 1), 3)]),                              # x^3 - 2
    ((-2, 0, 0, 0, 0, 0, 1), 2, [((0, 1), 6)]),                     # x^6 - 2
    ((-2, 0, 0, 0, 0, 0, 1), 3, [((1, 0, 1), 3)]),
    ((-1, -1, 0, 0, 0, 1), 19, [((6, 1), 2), ((10, 13, 7, 1), 1)]),  # x^5 - x - 1
    ((-1, -1, 0, 0, 0, 1), 151, [((9, 1), 1), ((39, 1), 2), ((61, 64, 1), 1)]),
])
def test_factor_mod_p_at_discriminant_primes(f, p, factors):
    """Factorizations of degree 5 and 6 at primes dividing the
    discriminant, past the degree-4 brute-force oracle: each factor is
    irreducible by brute force, and the factors reassemble f mod p."""
    assert poly.factor_mod_p(f, p) == factors
    for g, _ in factors:
        assert brute_factor_mod_p(g, p) == [(g, 1)], (g, p)
    assert _power_product(factors, p) == poly.pnorm(f, p)


@given(
    st.integers(min_value=0, max_value=len(SMALL_PRIMES) - 1),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=5),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=0, max_size=5),
    st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_mod_p_ring_laws(pi, a, b, m, e):
    """Products and powers on `_PackedRing` mod a monic modulus of degree
    1..6, against schoolbook products."""
    p = SMALL_PRIMES[pi]
    fm = tuple(c % p for c in m) + (1,)
    ring = poly._PackedRing(fm, p)
    pa, pb = (ring.pack(poly.divmod_monic(u, fm, p)[1]) for u in (a, b))
    assert ring.unpack(ring.mul(pa, pb)) == oracle_mul_mod(a, b, fm, p)
    power = (1,)
    for _ in range(e):
        power = oracle_mul_mod(power, a, fm, p)
    assert _packed_pow(a, e, fm, p) == power


def _packed_pow(a, e, m, p):
    """a**e mod (m, p) on `_PackedRing`, a reduced by `divmod_monic`."""
    ring = poly._PackedRing(m, p)
    return ring.unpack(ring.pow(ring.pack(poly.divmod_monic(a, m, p)[1]), e))


@pytest.mark.parametrize("p", [2, 29989])  # 29989: the largest prime below 30 000
def test_packed_pow_edges(p):
    rng = random.Random(p)
    moduli = [poly.pnorm(f, p) for f in LIFT_FIELDS]
    moduli += [tuple(rng.randrange(p) for _ in range(n)) + (1,) for n in range(1, 7)]
    for m in moduli:
        for a in ((0, 1), tuple(rng.randrange(p) for _ in range(poly.degree(m))),
                  tuple(rng.randrange(-p, p) for _ in range(2 * poly.degree(m) + 1))):
            for e in (0, 1, p, (p * p - 1) // 2):
                assert _packed_pow(a, e, m, p) == oracle_pow_mod(a, e, m, p), (m, a, e)
