import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaq.polynomials import (QQ, PolyRing, QuadElement, QuadField,
                               UniPoly, _divmod_monic, _poly_add, _poly_mul,
                               _trim, discriminant, poly, poly_str,
                               qpoly)
from octaq.quartic import _power_sums
from octaq.rationals import is_square
from oracles import (FunctionField, add_by_loop, bareiss_determinant,
                     constant_resultant as resultant, divmod_by_rescan,
                     int_rem_by_pops, mul_by_loop, power_sums,
                     resultant_bivariate, sylvester_matrix,
                     to_function_field)
from sturm import count_real_roots, poly_gcd


def rand_poly(rng, max_deg=5, lo=-6, hi=6):
    deg = rng.randint(1, max_deg)
    return qpoly([rng.randint(lo, hi) for _ in range(deg)]
                 + [rng.choice([1, 2, 3, -1, -2])])


def test_resultant_linear_case():
    g = qpoly([2, 0, 5, 1])
    a = Fraction(-7, 3)
    assert resultant(qpoly([-a, 1]), g) == g.eval(a)


def test_resultant_quadratics():
    assert resultant(qpoly([1, 0, 1]), qpoly([-1, 0, 1])) == 4


def test_resultant_function_field():
    F = FunctionField(QQ, "s")
    s = F.gen
    x_minus_s = UniPoly(F, (-s, F.one))
    x_minus_1 = UniPoly(F, (-F.one, F.one))
    assert resultant(x_minus_s, x_minus_1) == s - 1


def test_resultant_of_a_constant():
    # the degree-0 branches: Res(a, g) = a^deg g, Res(f, b) = b^deg f
    x = qpoly([0, 1])
    g = qpoly([1, 0, 3, 1])
    assert resultant(qpoly([2]), g) == resultant(g, qpoly([2])) == 8
    assert resultant(qpoly([-3]), qpoly([5])) == 1
    assert resultant(qpoly([Fraction(1, 2)]), x) == Fraction(1, 2)
    F = FunctionField(QQ, "s")
    s = F.gen
    one = UniPoly(F, (F.one,))
    ys = [UniPoly(F, (s,)), UniPoly(F, (F.zero, F.one))]  # s + X Y
    assert resultant_bivariate([UniPoly(F, (s + 1,))], ys) == \
        UniPoly(F, (s + 1,))
    assert resultant_bivariate(ys + [one], [UniPoly(F, (s,))]) == \
        UniPoly(F, (s * s,))


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(17)
    for _ in range(500):
        f, g = rand_poly(rng), rand_poly(rng)
        expected = bareiss_determinant(sylvester_matrix(f, g), QQ.zero, QQ.one)
        assert resultant(f, g) == expected


def test_resultant_antisymmetry():
    rng = random.Random(29)
    for _ in range(500):
        f, g = rand_poly(rng), rand_poly(rng)
        sign = QQ.embed((-1) ** (f.degree * g.degree))
        assert resultant(f, g) == resultant(g, f) * sign


def test_discriminant_principal_quartic_formula():
    rng = random.Random(31)
    for _ in range(500):
        b = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 5))
        f = qpoly([c, b, 0, 0, 1])
        if discriminant(f) != -27 * b**4 + 256 * c**3:
            pytest.fail(f"disc mismatch at b={b}, c={c}")


def test_discriminant_examples():
    assert discriminant(qpoly([-1, 1, 0, 0, 1])) == -283
    assert discriminant(qpoly([24, 16, 0, 0, 1])) == 1769472


def test_discriminant_gt_over_function_field():
    F = FunctionField(QQ, "s")
    s = F.gen
    t = s * s
    gt = UniPoly(F, (F.embed(-3) * (t - 1) ** 3, F.embed(4) * (t - 1) ** 2,
                     F.zero, F.zero, F.one))
    assert discriminant(gt) == F.embed(-(2**8) * 27) * t * (t - 1) ** 8


def test_quad_field_arithmetic():
    K = QuadField(Fraction(-1))
    i = K.sqrt_t
    assert (1 + i) ** 2 == 2 * i
    with pytest.raises(ValueError):
        QuadField(Fraction(9, 4))


def test_power_sums():
    # X^4 + X - 1: traces of beta^k
    ps = _power_sums(-1, 1, 0, 7)
    assert ps == [4, 0, 0, -3, 4, 0, 3]
    assert ps[1:] == power_sums(qpoly([-1, 1, 0, 0, 1]), 6)
    assert _power_sums(-1, 1, 0, 2) == [4, 0]


def test_discriminant_needs_a_monic_cubic_or_quartic():
    for coeffs in ([1, 1, 0, 0, 2], [1, 0, 3], [1, 1, 0, 0, 0, 1],
                   [2, 1], [7]):
        with pytest.raises(ValueError, match="monic cubic or quartic"):
            discriminant(qpoly(coeffs))
    assert discriminant(qpoly([1, 1, 0, 1])) == -31


small = st.integers(-40, 40)
ratios = st.fractions(max_denominator=12).map(lambda x: x.limit_denominator(12))


def _assert_power_sums_match(f, count=9):
    ps = _power_sums(f[0], f[1], f[2], count)
    assert ps[0] == 4
    assert ps[1:] == power_sums(f, count - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(ratios, min_size=3, max_size=3))
def test_power_sums_match_newton_over_q(c):
    _assert_power_sums_match(qpoly(c + [0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([-1, 2, 3, Fraction(5, 7), Fraction(-3, 2)]),
       st.lists(st.tuples(ratios, ratios), min_size=3, max_size=3))
def test_power_sums_match_newton_over_quadratic_field(t, c):
    K = QuadField(t)
    _assert_power_sums_match(
        poly(K, [K.element(u, v) for u, v in c] + [0, 1]))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(small, small, small), min_size=3, max_size=3))
def test_power_sums_match_newton_over_function_field(c):
    F = FunctionField(QQ, "s")
    s = F.gen
    _assert_power_sums_match(
        poly(F, [u + v * s + w * s * s for u, v, w in c] + [0, 1]), count=7)


def test_sturm_counts():
    assert count_real_roots(qpoly([-1, 1, 0, 0, 1])) == 2
    assert count_real_roots(qpoly([-6, 11, -6, 1])) == 3
    assert count_real_roots(qpoly([1, 0, 1])) == 0
    assert count_real_roots(qpoly([24, -50, 35, -10, 1])) == 4  # (x-1)..(x-4)


def test_poly_str_writes_unit_coefficients_as_signs():
    # a coefficient -1 of a power of the variable is a sign, as 1 is left
    # out; a constant term -1 is written in full
    assert poly_str(qpoly([-1, -1, 0, 0, 1])) == "x^4 - x - 1"
    assert poly_str(qpoly([1, 0, -1, 0, -1])) == "-x^4 - x^2 + 1"
    assert poly_str(qpoly([-1, Fraction(-1, 2), -2])) == "-2*x^2 - 1/2*x - 1"
    assert poly_str(qpoly([-1])) == "-1"
    s = PolyRing().gen
    assert repr(-s * s - s) == "-s^2 - s"
    assert repr(-s * s - 1) == "-s^2 - 1"


def test_gcd_monic():
    f = qpoly([-1, 0, 1]) * qpoly([2, 1])
    g = qpoly([2, 1]) * qpoly([5, 1])
    assert poly_gcd(f, g) == qpoly([2, 1])


def test_bivariate_resultant_vs_tschirnhaus():
    # Res_Y(f(Y), X - u(Y)) equals the Newton route
    from octaq.quartic import reduced_tschirnhaus_poly
    rng = random.Random(41)
    for _ in range(20):
        a, b, c = (Fraction(rng.randint(-4, 4)) for _ in range(3))
        f = qpoly([c, b, a, 0, 1])
        if discriminant(f) == 0:
            continue
        m, n, p = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not (m or n or p):
            continue
        q = (3 * b * m + 2 * a * n) / 4
        # f(Y) and X - u(Y) as polynomials in Y with UniPoly-in-X entries
        fy = [UniPoly(QQ, (co,)) for co in f.coeffs]
        x_minus_u = [
            UniPoly(QQ, (-q, QQ.one)),          # Y^0: X - q
            UniPoly(QQ, (-p,)),                  # Y^1: -p
            UniPoly(QQ, (-n,)),                  # Y^2
            UniPoly(QQ, (-m,)),                  # Y^3
        ]
        res = resultant_bivariate(fy, x_minus_u)
        assert res == reduced_tschirnhaus_poly(f, m, n, p)


# -- the ring Q[s] against the field Q(s) of the oracles ---------------------

_RING = PolyRing()
_FIELD = FunctionField(QQ, "s")
_in_ring = st.lists(ratios, max_size=4).map(_RING.from_coeffs)


def _in_field(x):
    return to_function_field(_FIELD, x)


@settings(max_examples=100, deadline=None)
@given(_in_ring, _in_ring, ratios)
@example(_RING.from_coeffs([1, 2]), _RING.from_coeffs([1, 2]), Fraction(0))
def test_ring_arithmetic_matches_function_field(a, b, c):
    fa, fb = _in_field(a), _in_field(b)
    results = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb),
               (-a, -fa), (a**3, fa**3), (c - a, c - fa), (c * a, c * fa),
               (a + c, fa + c)]
    if c:
        results += [(a / c, fa / c), (c / _RING.embed(c), _FIELD.one)]
    else:
        with pytest.raises(ZeroDivisionError):
            a / c
    for got, expected in results:
        assert _in_field(got) == expected
        # integer coefficients, the last nonzero, over a positive
        # denominator prime to their content
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
        assert not got.num or got.num[-1]
    assert (a == b) == (fa == fb) and (a == c) == (fa == c)
    assert a != b or hash(a) == hash(b)
    if not b:
        with pytest.raises(ZeroDivisionError):
            a / b
    elif len(b.num) > 1:
        with pytest.raises(ValueError, match="not a constant"):
            a / b
        with pytest.raises(ValueError, match="not a constant"):
            b ** -1
    else:
        assert _in_field(a / b) == fa / fb


def test_ring_refuses_a_mixed_ring():
    with pytest.raises(ValueError, match="mixed polynomial rings"):
        _RING.gen + PolyRing().gen


# -- the list kernels against the loops they replaced ---------------------------

_z_lists = st.lists(small, max_size=7)
_monic_z = st.lists(small, max_size=4).map(lambda c: c + [1])


@settings(max_examples=200, deadline=None)
@given(_z_lists, _monic_z)
@example([], [3, 1])                # a zero dividend
@example([1, 2], [0, 0, 0, 1])      # deg a < deg c
@example([5, 0, 0], [7, 1])         # zero leading entries of a
@example([4, -2, 7], [1])           # a constant divisor
def test_list_kernels_over_z_match_the_replaced_loops(a, c):
    q, r = _divmod_monic(a, c)
    assert r == int_rem_by_pops(a, c) and len(r) < len(c)
    assert _trim(_poly_add(_poly_mul(q, c), r)) == _trim(list(a))
    assert (qpoly(q), qpoly(r)) == divmod_by_rescan(qpoly(a), qpoly(c))
    assert qpoly(_poly_add(a, c)) == add_by_loop(qpoly(a), qpoly(c))
    assert qpoly(_poly_mul(a, c)) == mul_by_loop(qpoly(a), qpoly(c))


_q_polys = st.lists(ratios, max_size=7).map(qpoly)
_q_divisors = st.tuples(st.lists(ratios, max_size=4), ratios.filter(bool)
                        ).map(lambda c: qpoly(c[0] + [c[1]]))


def _assert_division_matches(a, b):
    q, r = a.divmod(b)
    assert (q, r) == divmod_by_rescan(a, b)
    assert q * b + r == a and r.degree < b.degree
    assert a + b == add_by_loop(a, b) and a * b == mul_by_loop(a, b)
    return q, r


@settings(max_examples=200, deadline=None)
@given(_q_polys, _q_divisors)
@example(qpoly([]), qpoly([1, Fraction(2, 3)]))
@example(qpoly([1, 2]), qpoly([0, 0, 0, Fraction(-5, 2)]))
@example(qpoly([1, 0, 0, 3]), qpoly([Fraction(1, 2), 0, 2]))
def test_unipoly_divmod_over_q_matches_the_replaced_loop(a, b):
    # non-monic divisors; every coefficient stays a Fraction, as before
    q, r = _assert_division_matches(a, b)
    for p in (q, r, a + b, a * b):
        assert all(type(x) is Fraction for x in p.coeffs)
    with pytest.raises(ZeroDivisionError):
        a.divmod(qpoly([]))


_ring_polys = st.lists(_in_ring, max_size=5).map(
    lambda cs: UniPoly(_RING, cs))
_ring_divisors = st.tuples(st.lists(_in_ring, max_size=3),
                           ratios.filter(bool)).map(
    lambda c: UniPoly(_RING, c[0] + [_RING.embed(c[1])]))


@settings(max_examples=100, deadline=None)
@given(_ring_polys, _ring_divisors, _in_ring)
@example(UniPoly(_RING, ()), UniPoly(_RING, (_RING.gen, _RING.one)),
         _RING.zero)
def test_unipoly_divmod_over_ring_matches_the_replaced_loop(a, b, x):
    # a constant leading coefficient divides in Q[s]; s + x does not, so
    # both routes raise ValueError once a quotient term is needed, and
    # return (0, a) when none is
    _assert_division_matches(a, b)
    c = UniPoly(_RING, b.coeffs + (_RING.gen + x,))
    if a.degree < c.degree:
        assert a.divmod(c) == divmod_by_rescan(a, c) == (UniPoly(_RING, ()), a)
    else:
        for route in (a.divmod, lambda c: divmod_by_rescan(a, c)):
            with pytest.raises(ValueError, match="not a constant"):
                route(c)
    with pytest.raises(ZeroDivisionError):
        a.divmod(UniPoly(_RING, ()))


_leading = st.one_of(st.just(Fraction(1)), ratios.filter(bool))


@settings(max_examples=150, deadline=None)
@given(_q_polys, st.lists(ratios, max_size=4), _leading, _ring_polys,
       st.lists(_in_ring, max_size=3))
@example(qpoly([1, 0, 0, 3]), [Fraction(1, 2), 0], Fraction(1),
         UniPoly(_RING, (_RING.one, _RING.zero, _RING.gen)), [_RING.gen])
@example(qpoly([1, 2]), [], Fraction(1), UniPoly(_RING, ()), [])
def test_unipoly_divmod_by_monic_and_non_monic_matches_the_replaced_loop(
        a, low, lc, ring_a, ring_low):
    # a divisor with leading coefficient 1 is divided by with no scaling,
    # others through their monic multiple; both give the (q, r) of the
    # loop that divided by lc at every step, over Q and over Q[s]
    q, r = _assert_division_matches(a, qpoly(low + [lc]))
    assert all(type(x) is Fraction for x in q.coeffs + r.coeffs)
    _assert_division_matches(
        ring_a, UniPoly(_RING, ring_low + [_RING.embed(lc)]))


# -- Q(sqrt(t)) = Q[s]/(s^2 - t) against the closed forms ---------------------

_non_square = st.one_of(
    st.sampled_from([Fraction(5, 7), Fraction(-3, 2), Fraction(283, 27)]),
    ratios.filter(lambda t: not is_square(t)))


def _assert_in_field(x, field):
    assert type(x) is QuadElement and x.field is field
    assert len(x.num) <= 2 and (not x.num or x.num[-1])
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1


@settings(max_examples=150, deadline=None)
@given(_non_square, st.lists(ratios, min_size=4, max_size=4))
@example(Fraction(5, 7), [Fraction(1, 3), Fraction(2, 5), Fraction(0),
                          Fraction(3, 4)])
@example(Fraction(283, 27), [Fraction(0), Fraction(0), Fraction(1),
                             Fraction(-1)])
def test_quad_field_matches_closed_forms(t, coords):
    u1, v1, u2, v2 = coords
    K = QuadField(t)
    x, y = K.element(u1, v1), K.element(u2, v2)
    closed = [(x * y, u1 * u2 + t * v1 * v2, u1 * v2 + u2 * v1),
              (x + y, u1 + u2, v1 + v2), (x - y, u1 - u2, v1 - v2),
              (-x, -u1, -v1),
              (3 * x, 3 * u1, 3 * v1), (x * u2, u1 * u2, v1 * u2),
              (x ** 2, u1 * u1 + t * v1 * v1, 2 * u1 * v1)]
    for got, u, v in closed:
        _assert_in_field(got, K)
        assert (got.u, got.v) == (u, v)
    _assert_in_field(x ** 3, K)


@settings(max_examples=100, deadline=None)
@given(_non_square, st.lists(ratios, min_size=2, max_size=2),
       ratios.filter(bool), ratios.filter(bool))
@example(Fraction(-1), [Fraction(1), Fraction(1)], Fraction(3), Fraction(1))
def test_quad_field_divides_only_by_rationals(t, coords, q, v):
    # Q(sqrt(t)) keeps the division of Q[s]: by nonzero rationals only
    K = QuadField(t)
    x = K.element(*coords)
    with pytest.raises(ValueError, match="not a constant"):
        x / K.element(q, v)
    with pytest.raises(ValueError, match="not a constant"):
        q / K.element(q, v)
    assert x / q == x * (1 / q)
    assert x / 3 == x * Fraction(1, 3)
    _assert_in_field(x / K.embed(q), K)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ValueError, match="not a constant"):
        (1 + K.sqrt_t) ** -1


def test_quad_field_mixing():
    assert QuadField(2).sqrt_t * QuadField(2).sqrt_t == 2
    assert QuadField(2).sqrt_t + QuadField(2).one == QuadField(2).element(1, 1)
    with pytest.raises(ValueError, match="mixed quadratic fields"):
        QuadField(2).sqrt_t * QuadField(3).sqrt_t
    ring_s = PolyRing()
    w = QuadField(Fraction(5, 7)).sqrt_t
    for a, b in ((w, ring_s.gen), (ring_s.gen, w), (w, ring_s.one)):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b,
                   lambda a, b: a == b):
            with pytest.raises(ValueError, match="mixed polynomial rings"):
                op(a, b)


def test_constants_hash_as_the_rationals_they_equal():
    ring, field = PolyRing(), QuadField(2)
    for x in (0, 3, -7, Fraction(2, 3), Fraction(-5, 4)):
        for c in (ring.embed(x), field.embed(x)):
            assert c == x and hash(c) == hash(x) == hash(Fraction(x))
            assert len({c, x}) == 1
    assert len({QuadField(2).embed(3), 3}) == 1
    # equal non-constant elements, built apart, hash alike
    a = ring.from_coeffs([Fraction(1, 2), 3]) * 2
    b = ring.from_coeffs([1, 6])
    assert a == b and hash(a) == hash(b)
    u = field.element(Fraction(1, 3), 2)
    v = QuadField(2).element(1, 6) / 3
    assert u == v and hash(u) == hash(v)


def test_integer_constants_coerce_as_they_embed():
    # an int reaches Q[s] and Q(sqrt(t)) without a Fraction, as the element
    # embed builds; bool and Fraction keep the embedding route
    ring, field = PolyRing(), QuadField(2)
    for domain in (ring, field):
        for x in (0, 3, -7, True, Fraction(6, 2)):
            embedded, coerced = domain.embed(x), x * domain.one
            assert type(coerced) is type(embedded)
            assert (coerced.num, coerced.den) == (embedded.num, embedded.den)
            assert coerced == embedded == x
            assert hash(coerced) == hash(embedded) == hash(x)
    for c in (ring.embed(3), 3 * ring.one, QuadField(2).embed(3),
              3 * QuadField(2).one, ring.one + 2, 4 - field.one):
        assert c == 3 and hash(c) == hash(3) == hash(Fraction(3))
        assert (c.num, c.den) == ((3,), 1)
    assert len({ring.embed(3), 3 * ring.one, 3}) == 1
    assert len({QuadField(2).embed(3), 3 * QuadField(2).one, 3}) == 1
