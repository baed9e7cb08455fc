import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaq.hilbert import (INF, TRIVIAL, BrauerClass, brauer_class,
                           class_product, hilbert_symbol,
                           witt_invariant_diagonal)
from octaq.rationals import PSI_13, _strong_probable_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


def rand_factorable(rng):
    n = rng.choice([1, -1])
    for p in SMALL_PRIMES:
        n *= p ** rng.randint(0, 2)
    d = 1
    for p in SMALL_PRIMES:
        d *= p ** rng.randint(0, 1)
    return Fraction(n, d)


def exhaustive_local_oracle(a: int, b: int, p: int) -> int:
    """(a,b)_p by searching primitive solutions of z^2 = a x^2 + b y^2
    modulo p^(v_p(4ab)+3), which is liftable by Hensel when found."""
    v, m4ab = 0, 4 * a * b
    while m4ab % p == 0:
        m4ab //= p
        v += 1
    m = p ** (v + 3)
    squares = {}
    for z in range(m):
        squares.setdefault(z * z % m, []).append(z)
    for x in range(m):
        for y in range(m):
            val = (a * x * x + b * y * y) % m
            if val in squares:
                for z in squares[val]:
                    if x % p or y % p or z % p:
                        return 1
    return -1


def test_symbol_one_is_trivial():
    for b in (2, -3, 7, Fraction(5, 3)):
        for v in (2, 3, 5, 7, INF):
            assert hilbert_symbol(1, b, v) == 1


def test_symbol_at_infinity():
    assert hilbert_symbol(-1, -1, INF) == -1
    assert hilbert_symbol(-1, 2, INF) == 1


def test_symbol_2_minus3_at_2():
    assert hilbert_symbol(2, -3, 2) == -1


def test_symbols_match_exhaustive_oracle():
    rng = random.Random(101)
    values = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, 15, -15]
    for _ in range(60):
        a, b = rng.choice(values), rng.choice(values)
        p = rng.choice([2, 3, 5, 7])
        assert hilbert_symbol(a, b, p) == exhaustive_local_oracle(a, b, p), \
            (a, b, p)


def test_brauer_class_examples():
    assert brauer_class(-1, -1).ramified == frozenset({2, INF})
    assert brauer_class(-2, -3).ramified == frozenset({2, INF})
    assert brauer_class(1, 7).is_trivial


def test_product_formula_even_cardinality():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = rand_factorable(rng), rand_factorable(rng)
        cls = brauer_class(a, b)  # constructor asserts even cardinality
        assert len(cls.ramified) % 2 == 0
        # equivalently the product of local symbols over candidates is +1
        prod = 1
        for v in cls.ramified:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1


def test_bilinearity():
    rng = random.Random(13)
    for _ in range(500):
        a, b1, b2 = (rand_factorable(rng) for _ in range(3))
        assert brauer_class(a, b1 * b2) == brauer_class(a, b1) * brauer_class(a, b2)


def _prime_at_least(n: int) -> int:
    # Miller-Rabin to the fixed bases proves primality below PSI_13
    n |= 1
    while not _strong_probable_prime(n):
        n += 2
    assert n < PSI_13
    return n


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1 << 40, 1 << 80), min_size=3, max_size=3),
       st.tuples(*[st.integers(-60, 60).filter(bool)] * 3),
       st.tuples(*[st.sampled_from([-1, 1])] * 3),
       st.booleans())
def test_bilinearity_large_primes(starts, units, exps, repeat):
    big_p, big_q, big_r = (_prime_at_least(n) for n in starts)
    assume(len({big_p, big_q, big_r}) == 3)
    (u0, u1, u2), (e0, e1, e2) = units, exps
    a = u0 * Fraction(big_p) ** e0
    b1 = u1 * Fraction(big_q) ** e1
    # b1 b2 keeps at most one large prime in its numerator and one in its
    # denominator, so every argument factors completely
    b2 = u2 * (Fraction(big_q) ** e2 if repeat else Fraction(big_r) ** -e1)
    assert brauer_class(a, b1 * b2) == brauer_class(a, b1) * brauer_class(a, b2)


def test_square_invariance():
    rng = random.Random(19)
    for _ in range(500):
        a, b = rand_factorable(rng), rand_factorable(rng)
        c = rand_factorable(rng)
        assert brauer_class(a * c * c, b) == brauer_class(a, b)


def test_norm_identity_on_squarefree_d():
    rng = random.Random(3)
    squarefree = [d for d in range(-400, 401)
                  if d not in (0,) and all(d % (p * p) for p in (2, 3, 5, 7,
                                                                 11, 13, 17, 19))]
    for _ in range(500):
        d = rng.choice(squarefree)
        assert (brauer_class(-1, -d) * brauer_class(2, d)
                == brauer_class(-2, -3 * d)), d


def test_class_is_two_torsion():
    c = brauer_class(-2, -3)
    assert (c * c).is_trivial
    assert class_product(brauer_class(2, 3), brauer_class(2, 3)).is_trivial


def test_symmetric_difference_law():
    c1 = BrauerClass(frozenset({2, INF}))
    c2 = BrauerClass(frozenset({3, INF}))
    assert (c1 * c2).ramified == frozenset({2, 3})


def test_reciprocity_violation_rejected():
    with pytest.raises(Exception):
        BrauerClass(frozenset({2}))


def test_witt_invariant_examples():
    # each at 2, oo and the primes dividing its entries
    assert witt_invariant_diagonal([1, 1, 1], {2, INF}).is_trivial
    assert witt_invariant_diagonal([1, 3, -5], {2, 3, 5, INF}) == \
        brauer_class(3, -5)
    assert witt_invariant_diagonal([2, 3, 6], {2, 3, INF}) == class_product(
        brauer_class(2, 3), brauer_class(2, 6), brauer_class(3, 6))
    assert witt_invariant_diagonal([1, 1], {2, INF}) == TRIVIAL
