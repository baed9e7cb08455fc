"""Differential checks of the factoring engine against sympy, which is
not a dependency of octaq: the module skips when sympy is missing."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaq.rationals import factorize, squarefree_part

sympy = pytest.importorskip("sympy")

M89 = 2**89 - 1


def test_listed_factors_are_prime():
    rng = random.Random(17)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits))
    cases = [rng.randint(2, 2**64) for _ in range(150)]
    cases += [prime(40) * prime(40) for _ in range(20)]
    cases += [prime(60) ** 2 * rng.randint(2, 10**6) for _ in range(20)]
    cases += [M89 * prime(30) for _ in range(10)]
    for n in cases:
        f = factorize(n, budget=20_000)
        assert f.value() == n
        assert all(sympy.isprime(p) for p in f.factors)
        if f.complete:
            assert dict(f.factors) == sympy.factorint(n)


@settings(max_examples=150, deadline=None)
@given(st.integers(-10**9, 10**9).filter(bool), st.integers(1, 10**9))
def test_squarefree_part_matches_factorint(num, den):
    x = Fraction(num, den)
    m = x.numerator * x.denominator
    odd = [p for p, e in sympy.factorint(abs(m)).items() if e % 2]
    assert squarefree_part(x) == (1 if m > 0 else -1) * prod(odd)
