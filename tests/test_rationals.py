import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaq.errors import FactorizationIncomplete
from octaq.hilbert import is_prime
from octaq.rationals import (FACTOR_BUDGET, PSI_13, _strong_probable_prime,
                             factorize, is_square, same_square_class,
                             squarefree_part)

M89 = 2**89 - 1  # prime, but above PSI_13


def next_prime(k: int) -> int:
    """Smallest prime >= k; proven for k below PSI_13 (13-base
    Miller-Rabin), probable above."""
    while True:
        if k < 2**20:
            if k > 1 and all(k % p for p in range(2, isqrt(k) + 1)):
                return k
        elif k % 2 and _strong_probable_prime(k):
            return k
        k += 1


def factorize_within(n: int, budget: int):
    """factorize(n) with FACTOR_BUDGET set to budget."""
    token = FACTOR_BUDGET.set(budget)
    try:
        return factorize(n)
    finally:
        FACTOR_BUDGET.reset(token)


def test_factorize_reconstructs():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 10**7) * rng.choice([1, -1])
        f = factorize(n)
        assert f.complete
        assert f.value() == n


def test_factorize_large_prime_residue():
    # with no rho work at all, primes past the trial-division table are
    # proven, and prime squares through the perfect-square step
    for p in (999_983, 10**18 + 9):
        f = factorize_within(p, 0)
        assert f.complete and f.factors == {p: 1}
        f2 = factorize_within(p * p, 0)
        assert f2.complete and f2.factors == {p: 2}


def test_factorize_incomplete_flagged():
    p, q = 1_000_003, 1_000_033
    f = factorize_within(p * q, 0)
    assert not f.complete and f.cofactor == p * q
    with pytest.raises(FactorizationIncomplete):
        f.squarefree_part()
    token = FACTOR_BUDGET.set(0)
    try:
        with pytest.raises(FactorizationIncomplete):
            squarefree_part(p * q)
    finally:
        FACTOR_BUDGET.reset(token)
    assert factorize(p * q).factors == {p: 1, q: 1}


def test_factorize_never_declares_prime_above_psi13():
    for budget in (0, FACTOR_BUDGET.get()):
        f = factorize_within(M89, budget)
        assert not f.complete and f.cofactor == M89 and not f.factors
    assert not is_prime(M89)
    with pytest.raises(FactorizationIncomplete):
        squarefree_part(M89)
    # an unproven cofactor still settles the square class when it is a
    # square, and stays coprime to the primes that were split off
    p = 1_000_003
    assert squarefree_part(-p * M89**2) == -p
    f = factorize(p**3 * M89)
    assert f.factors == {p: 3} and f.cofactor == M89


def test_factorize_cached_result_is_immutable():
    f = factorize(360)
    assert factorize(360) is f
    with pytest.raises(TypeError):
        f.factors[7] = 1
    with pytest.raises(FrozenInstanceError):
        f.cofactor = 7
    assert factorize(360).factors == {2: 3, 3: 2, 5: 1}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 2**100), min_size=1, max_size=4),
       st.sampled_from([1, -1]), st.sampled_from([0, 2000]))
def test_factorize_multiplies_back(starts, sign, budget):
    n = sign * prod(next_prime(k) for k in starts)
    f = factorize_within(n, budget)
    assert f.value() == n
    assert all(p < PSI_13 and gcd(p, f.cofactor) == 1 for p in f.factors)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 2**24), max_size=3), st.integers(2, 2**80))
def test_factorize_completes_below_psi13(small_starts, big_start):
    # at most one prime factor above 2**24 and all of them below PSI_13:
    # rho needs a few thousand iterations, far inside the default budget
    primes = [next_prime(k) for k in small_starts] + [next_prime(big_start)]
    f = factorize(prod(primes))
    assert f.complete and Counter(f.factors) == Counter(primes)


def test_squarefree_part_examples():
    assert squarefree_part(-7155) == -795       # 7155 = 3^3 * 5 * 53
    assert squarefree_part(4) == 1
    assert squarefree_part(Fraction(283, 27)) == 849


def test_squarefree_part_square_invariance():
    rng = random.Random(23)
    for _ in range(400):
        x = Fraction(rng.randint(1, 500) * rng.choice([1, -1]),
                     rng.randint(1, 500))
        y = Fraction(rng.randint(1, 300), rng.randint(1, 300))
        assert squarefree_part(x * y * y) == squarefree_part(x)


def test_is_square():
    assert is_square(Fraction(49, 81))
    assert not is_square(Fraction(2))
    assert not is_square(Fraction(-4))
    assert same_square_class(Fraction(8), Fraction(2))
    assert not same_square_class(Fraction(8), Fraction(3))
