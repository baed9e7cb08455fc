import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaq.hilbert import (INF, TRIVIAL, BrauerClass, brauer_class,
                           hilbert_symbol, witt_invariant_diagonal)
from octaq.rationals import PSI_13, _strong_probable_prime
from oracles import fraction_hilbert_symbol

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
    squares = {z * z % m for z in range(m)}
    unit_squares = {z * z % m for z in range(m) if z % p}
    for x in range(m):
        ax2 = a * x * x
        for y in range(m):
            # (x, y, z) is primitive when x or y is a unit, or else z is
            target = squares if x % p or y % p else unit_squares
            if (ax2 + b * y * y) % m in target:
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
    # valuations 2 and 3, only at p = 2, 3: the search modulus
    # p^(v_p(4ab)+3) is too large elsewhere and for deeper pairs
    deep = [4, -4, 8, -8, 9, -9, 12, -12, 18, -18, 27, -27]
    cases = [(4, -4, 2), (-4, 12, 2), (8, -12, 2), (-12, -12, 2),
             (9, -9, 3), (-9, 18, 3), (27, -3, 3), (-27, 6, 3), (-27, -1, 3)]
    for _ in range(40):
        a, b = rng.choice(deep), rng.choice(values)
        if rng.random() < 0.5:
            a, b = b, a
        cases.append((a, b, rng.choice([2, 3])))
    for a, b, p in cases:
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
    assert (brauer_class(2, 3) * brauer_class(2, 3)).is_trivial


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
    assert witt_invariant_diagonal([2, 3, 6], {2, 3, INF}) == (
        brauer_class(2, 3) * brauer_class(2, 6) * brauer_class(3, 6))
    assert witt_invariant_diagonal([1, 1], {2, INF}) == TRIVIAL


ODD_PRIMES_BELOW_50 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


@st.composite
def rationals_at(draw, q):
    """A nonzero rational of either sign whose numerator and denominator
    carry powers 0..5 of 2 and of q, times a cofactor up to 30."""
    num = draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 30))
    den = draw(st.integers(1, 30))
    num *= 2 ** draw(st.integers(0, 5)) * q ** draw(st.integers(0, 5))
    den *= 2 ** draw(st.integers(0, 5)) * q ** draw(st.integers(0, 5))
    return Fraction(num, den)


@st.composite
def forms_at_a_place(draw):
    q = draw(st.one_of(st.sampled_from([2] + ODD_PRIMES_BELOW_50),
                       st.integers(1 << 40, 1 << 80).map(_prime_at_least)))
    return q, draw(st.lists(rationals_at(q), min_size=1, max_size=4))


def _q_power_factors(x: Fraction, q: int) -> bool:
    # factorize proves a prime above 2**20 only as p, p^2 or p^4
    if q < 1 << 20:
        return True
    for n in (x.numerator, x.denominator):
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e in (3, 5):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(forms_at_a_place())
def test_integer_kernel_matches_fraction_oracle(form):
    q, coeffs = form
    places = {2, q, INF} | {p for p in ODD_PRIMES_BELOW_50 if any(
        (c.numerator * c.denominator) % p == 0 for c in coeffs)}
    for a, b in combinations(coeffs + [coeffs[0]], 2):
        symbols = {v: fraction_hilbert_symbol(a, b, v) for v in places}
        for v in places:
            assert hilbert_symbol(a, b, v) == symbols[v], (a, b, v)
        if _q_power_factors(a, q) and _q_power_factors(b, q):
            assert brauer_class(a, b).ramified == frozenset(
                v for v in places if symbols[v] == -1), (a, b)
    assert witt_invariant_diagonal(coeffs, places).ramified == frozenset(
        v for v in places if prod(fraction_hilbert_symbol(a, b, v)
                                  for a, b in combinations(coeffs, 2)) == -1)


def test_zero_arguments_rejected():
    for a, b, v in ((0, 3, 5), (2, Fraction(0), 2), (0, -1, INF)):
        with pytest.raises(ValueError, match="^Hilbert symbol needs nonzero"):
            hilbert_symbol(a, b, v)
    for a, b in ((0, 3), (2, Fraction(0))):
        with pytest.raises(ValueError, match="^Brauer class needs nonzero"):
            brauer_class(a, b)
    with pytest.raises(ValueError, match="^diagonal form must have nonzero"):
        witt_invariant_diagonal([1, Fraction(0), 3], {2, 3, INF})


def test_non_places_rejected():
    for v in (15, 1, -3, 2.0):
        with pytest.raises(ValueError, match="is not a place"):
            hilbert_symbol(2, 3, v)
        # checked before any pair: forms with no pair used to pass silently
        for coeffs in ([], [5], [2, 3]):
            with pytest.raises(ValueError, match="is not a place"):
                witt_invariant_diagonal(coeffs, [2, v, INF])
