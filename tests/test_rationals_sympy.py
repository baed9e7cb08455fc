"""Differential checks against sympy, which is not a dependency of octaq:
the factoring engine, quartic irreducibility, discriminants and
resultants.  The module skips when sympy is missing."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octaq.polynomials import discriminant, qpoly
from octaq.quartic import _integer_model, _irreducible
from octaq.rationals import FACTOR_BUDGET, factorize, squarefree_part
from oracles import constant_resultant

sympy = pytest.importorskip("sympy")
from sympy.polys.subresultants_qq_zz import sylvester

X = sympy.symbols("x")

M89 = 2**89 - 1


def test_listed_factors_are_prime():
    rng = random.Random(17)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits))
    cases = [rng.randint(2, 2**64) for _ in range(150)]
    cases += [prime(40) * prime(40) for _ in range(20)]
    cases += [prime(60) ** 2 * rng.randint(2, 10**6) for _ in range(20)]
    cases += [M89 * prime(30) for _ in range(10)]
    token = FACTOR_BUDGET.set(20_000)
    try:
        factorizations = [(n, factorize(n)) for n in cases]
    finally:
        FACTOR_BUDGET.reset(token)
    for n, f in factorizations:
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


def _sympy_poly(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, reversed(coeffs))], X)


def test_irreducibility_matches_sympy_beyond_divisor_enumeration():
    # constant terms beyond divisor enumeration: reducible quartics reach
    # the Hensel factor search, and so do irreducible ones that no prime
    # pattern certifies (biquadratic fields: every pattern is 1111 or 22)
    rng = random.Random(31)

    def monic(degree):
        return [rng.randint(10**6, 10**7) * rng.choice((-1, 1))] + [
            rng.randint(-50, 50) for _ in range(degree - 1)] + [1]
    cases = []
    for shape in [(1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)] * 10:
        f = qpoly([1])
        for degree in shape:
            f = f * qpoly(monic(degree))
        cases.append(list(f.coeffs))
    for _ in range(20):
        a, b = rng.randint(10**6, 10**7), rng.randint(2 * 10**7, 10**8)
        # roots +-sqrt(a) +- sqrt(b)
        cases.append([(a - b) ** 2, 0, -2 * (a + b), 0, 1])
        cases.append([rng.randint(10**12, 10**15), rng.randint(-99, 99),
                      rng.randint(-99, 99), rng.randint(-99, 99), 1])
    for c in cases:
        assert abs(c[0]) >= 10**12
        assert _irreducible(_integer_model(qpoly(c))) == \
            _sympy_poly(c).is_irreducible, c


def test_irreducibility_matches_sympy_small_coefficients():
    rng = random.Random(37)
    for _ in range(300):
        c = [rng.randint(-40, 40) for _ in range(4)] + [1]
        assert _irreducible(_integer_model(qpoly(c))) == \
            _sympy_poly(c).is_irreducible, c
        # one cubic in three made reducible by a linear factor
        c = [rng.randint(-40, 40) for _ in range(3)] + [1]
        if rng.random() < 1 / 3:
            c = list((qpoly(c[1:]) * qpoly([rng.randint(-9, 9), 1])).coeffs)
        assert _irreducible(_integer_model(qpoly(c))) == \
            _sympy_poly(c).is_irreducible, c


@settings(max_examples=100, deadline=None)
@given(st.lists(st.fractions(max_denominator=30).map(
    lambda x: x.limit_denominator(30)), min_size=4, max_size=4))
def test_discriminant_matches_sympy(low):
    coeffs = low + [Fraction(1)]
    assert discriminant(qpoly(coeffs)) == Fraction(
        str(sympy.discriminant(_sympy_poly(coeffs).as_expr(), X)))


small_fractions = st.fractions(max_denominator=30).map(
    lambda x: x.limit_denominator(30))
nonzero_poly = st.lists(small_fractions, min_size=1, max_size=6).filter(
    lambda c: c[-1] != 0)


@settings(max_examples=150, deadline=None)
@given(nonzero_poly, nonzero_poly)
def test_resultant_matches_sympy(f, g):
    # the determinant of the Sylvester matrix, which defines the resultant:
    # sympy.resultant (1.14) has the wrong sign when deg f < deg g and both
    # degrees are odd, e.g. it gives 1 for Res(x + 1, x^3) = -1
    expected = sylvester(_sympy_poly(f).as_expr(), _sympy_poly(g).as_expr(),
                         X).det()
    assert constant_resultant(qpoly(f), qpoly(g)) == Fraction(str(expected))
