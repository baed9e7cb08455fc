import math
import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaq import polynomials
from octaq.polynomials import (QQ, PolyRing, QuadElement, QuadField,
                               UniPoly, _leibniz_degree, _resultant_y,
                               discriminant, poly, poly_gcd, poly_str, qpoly)
from octaq.quartic import _power_sums
from octaq.rationals import is_square
from oracles import (FunctionField, bareiss_determinant,
                     constant_resultant as resultant, power_sums,
                     resultant_bivariate, sylvester_matrix,
                     to_function_field)
from sturm import count_real_roots


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
    s = PolyRing("s").gen
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


# -- Res_Y over Q[t][X] by evaluation and interpolation ----------------------

_T = FunctionField(QQ, "t")


def oracle_resultant_y(pc, rc):
    """_resultant_y by resultant_bivariate over Q(t)[X], in its layout."""
    def to_field(a):
        return [UniPoly(_T, [_T.from_poly(qpoly(ts)) for ts in xs])
                for xs in a]
    res = resultant_bivariate(to_field(pc), to_field(rc))
    return [list(c.num.coeffs) for c in res.coeffs]


_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_in_x_t = st.lists(st.lists(_rationals, max_size=3), max_size=3)
_in_y = st.lists(_in_x_t, max_size=4)


@settings(max_examples=60, deadline=None)
@given(_in_y, _in_y)
def test_resultant_y_matches_bareiss_oracle(pc, rc):
    try:
        expected = oracle_resultant_y(pc, rc)
    except ValueError:   # the zero polynomial, in both routes
        with pytest.raises(ValueError, match="zero polynomial"):
            _resultant_y(pc, rc)
        return
    assert _resultant_y(pc, rc) == expected


_formal = st.integers(0, 6).flatmap(lambda d: st.lists(
    st.integers(-9, 9), min_size=d + 1, max_size=d + 1))


@settings(max_examples=400, deadline=None)
@given(_formal, _formal, st.sampled_from(["p", "r", "both", "neither"]))
@example([1, 2, 0], [3, 1], "neither")  # P_4 = t^2 at t0 = 0, in small
@example([5], [1, 2, 3], "neither")     # Res_(0,2) = 5^2
@example([1, 2], [3, 4], "both")        # a zero first column
@example([0, 1, 1], [2, 0, 0, 1], "neither")  # degrees drop by 2
def test_resultant_prs_is_the_formal_sylvester_determinant(p, r, zeros):
    # the kernel at each node of _resultant_y: the Sylvester determinant
    # at the formal degrees len - 1, whose leading coefficients may be 0
    if zeros in ("p", "both"):
        p[-1] = 0
    if zeros in ("r", "both"):
        r[-1] = 0
    expected = bareiss_determinant(
        sylvester_matrix(qpoly(p), qpoly(r), len(p) - 1, len(r) - 1),
        QQ.zero, QQ.one)
    assert polynomials._resultant_prs(p, r) == expected


def _brute_leibniz_degree(deg):
    sums = [sum(row[col] for row, col in zip(deg, perm))
            for perm in permutations(range(len(deg)))
            if all(row[col] is not None for row, col in zip(deg, perm))]
    return max(sums, default=None)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda size: st.lists(
    st.lists(st.none() | st.integers(0, 6), min_size=size, max_size=size),
    min_size=size, max_size=size)))
@example([])                            # the empty determinant 1: degree 0
@example([[None, 1], [None, 2]])        # a zero column: None
@example([[1, 5], [0, 1]])              # the anti-diagonal 5 + 0 wins
def test_leibniz_degree_matches_brute_force(deg):
    assert _leibniz_degree(deg) == _brute_leibniz_degree(deg)


def _leibniz_bounds(pc, rc):
    """The bounds (X first, then t) that _resultant_y reads from
    _leibniz_degree on pc and rc, and the number of its integer nodes."""
    bounds, nodes = [], []

    def recording(deg):
        bounds.append(_leibniz_degree(deg))
        return bounds[-1]

    def counting(p, r):
        nodes.append(1)
        return kernel(p, r)
    kernel = polynomials._resultant_prs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_leibniz_degree", recording)
        mp.setattr(polynomials, "_resultant_prs", counting)
        _resultant_y(pc, rc)
    return tuple(bounds), len(nodes)


@settings(max_examples=60, deadline=None)
@given(_in_y, _in_y)
@example([[], [[1]]], [[], [[1]]])      # P = R = Y: a zero column, Res = 0
def test_resultant_y_degrees_within_the_leibniz_bound(pc, rc):
    # the true degrees are the oracle's: the interpolated result cannot
    # exceed the bound, right or wrong
    try:
        expected = oracle_resultant_y(pc, rc)
    except ValueError:
        return
    (dx, dt), nodes = _leibniz_bounds(pc, rc)
    if dx is None:      # every permutation meets a zero entry
        assert dt is None and expected == [] and nodes == 1
        return
    assert len(expected) - 1 <= dx
    assert max(map(len, expected), default=0) - 1 <= dt
    assert nodes == (dx + 1) * (dt + 1)


def test_weil_resultant_leibniz_bounds_are_its_degrees():
    # 16 in X and 8 in t, the true degrees: 17 * 9 = 153 nodes on the
    # symbolic input (the row sums, 24 and 10, would give 275); 17 at a
    # rational t
    from octaq import qcurve
    calls = []

    def capture(pc, rc):
        calls.append((pc, rc))
        return resultant_y(pc, rc)
    resultant_y = qcurve._resultant_y
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcurve, "_resultant_y", capture)
        qcurve._symbolic_weil_restriction(qcurve.SymbolicContext())
        qcurve.weil_restriction_factor(Fraction(5, 3))
    (symbolic, rational) = calls
    assert _leibniz_bounds(*symbolic) == ((16, 8), 153)
    assert _leibniz_bounds(*rational) == ((16, 0), 17)
    res = _resultant_y(*symbolic)
    assert len(res) - 1 == 16 and max(map(len, res)) - 1 == 8


def test_resultant_y_leading_coefficient_vanishing_at_node_0():
    # P = t Y^2 + X Y + 1 and R = Y - t X: deg_Y P = 2 although P(0) has
    # Y-degree 1, and Res = t^3 X^2 + t X^2 + 1 keeps the t^3
    pc = [[[1]], [[], [1]], [[0, 1]]]
    rc = [[[], [0, -1]], [[1]]]
    res = _resultant_y(pc, rc)
    assert res == oracle_resultant_y(pc, rc) == [[1], [], [0, 1, 0, 1]]


def test_resultant_y_identically_zero():
    # P = (Y - X)(Y + t), R = (Y - X)(X Y + 1/2) share the factor Y - X
    pc = [[[], [0, -1]], [[0, 1], [-1]], [[1]]]
    rc = [[[], [Fraction(-1, 2)]], [[Fraction(1, 2)], [], [-1]], [[], [1]]]
    assert _resultant_y(pc, rc) == oracle_resultant_y(pc, rc) == []


def test_resultant_y_degree_0_branches():
    # Res(a, R) = a^deg R, Res(P, b) = b^deg P, Res(a, b) = 1
    a = [[[1, 1]]]                                   # 1 + t
    r = [[[0, 1]], [[], [1]], [[], [], [1]]]         # t + X Y + X^2 Y^2
    assert _resultant_y(a, r) == oracle_resultant_y(a, r) == [[1, 2, 1]]
    assert _resultant_y(r, a) == oracle_resultant_y(r, a) == [[1, 2, 1]]
    b = [[[Fraction(1, 2)], [0, 1]]]                 # 1/2 + t X
    assert _resultant_y(b, b + [[]]) == [[1]]
    assert _resultant_y(r[:1], [[[3]]]) == [[1]]


def test_resultant_y_zero_polynomial():
    for zero in ([], [[]], [[[0], [0, 0]]]):
        with pytest.raises(ValueError, match="zero polynomial"):
            _resultant_y(zero, [[[1]], [[1]]])
        with pytest.raises(ValueError, match="zero polynomial"):
            _resultant_y([[[1]], [[1]]], zero)


# -- the ring Q[s] against the field Q(s) of the oracles ---------------------

_RING = PolyRing("s")
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
        _RING.gen + PolyRing("s").gen


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
    ring_s = PolyRing("s")
    w = QuadField(Fraction(5, 7)).sqrt_t
    for a, b in ((w, ring_s.gen), (ring_s.gen, w), (w, ring_s.one)):
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b,
                   lambda a, b: a == b):
            with pytest.raises(ValueError, match="mixed polynomial rings"):
                op(a, b)


def test_constants_hash_as_the_rationals_they_equal():
    ring, field = PolyRing("s"), QuadField(2)
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
