import dataclasses
import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octaq import polynomials, quartic, rationals
from octaq.embedding import classify
from octaq.errors import (ComputationalLimit, DegenerateUnresolvable,
                          NotPrimitive, NotPrincipal, OctaqError, Reducible,
                          SearchExhausted, ValidationFailure)
from octaq.hilbert import INF, brauer_class
from octaq.polynomials import (QQ, QuadField, UniPoly, _disc, discriminant,
                               qpoly)
from octaq.qcurve import SymbolicContext, family
from octaq.quartic import (FieldCertificate, PrincipalQuartic, ReducedQuartic,
                           _certificate_holds, _integer_model, _irreducible,
                           _has_factor, _isotropic_vectors,
                           _normalize_principal, _split_prime, _tabulate,
                           depress, galois_is_S4,
                           is_principal, principalize, resolvent_cubic,
                           same_field, trace_form,
                           tschirnhaus, witt_formula)
from octaq.rationals import (_val_unit, factorize, is_square,
                              same_square_class, squarefree_part)
from octaq.tables import load_bundled_corpus
from oracles import (FunctionFieldContext, compose, fraction_gram,
                     fraction_trace_form, interpolation_basis_by_products,
                     isotropic_vectors_by_pairs, lift_roots_by_inversion,
                     mn_shells, normalize_principal_by_factoring,
                     roots_mod_by_residues, split_prime_by_scan,
                     sylvester_discriminant, to_function_field,
                     witt_by_brauer_classes)
from sturm import count_real_roots

CORPUS = load_bundled_corpus()


_rational = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)))


def rand_s4_quartic(rng, bound=20):
    while True:
        a, b, c = (Fraction(rng.randint(-bound, bound)) for _ in range(3))
        try:
            f = ReducedQuartic(a, b, c)
        except Reducible:
            continue
        if galois_is_S4(f):
            return f


# -- irreducibility and depression --------------------------------------------


def test_irreducibility():
    for coeffs, expected in (
            ([-1, 1, 0, 0, 1], True),
            ([1, 0, 0, 0, 1], True),       # x^4+1, V4
            ([12, 8, 0, 0, 1], True),      # x^4+8x+12, A4: no 4-cycle
            ([1, 4, 6, 4, 1], False),      # (x+1)^4
            ([-1, 0, 0, 0, 1], False),     # x^4-1
            ([1, 0, 2, 0, 1], False),      # (x^2+1)^2
            ([4, 0, 5, 0, 1], False),      # (x^2+1)(x^2+4)
            # quadratic factors with equal constant terms (v = z branch)
            ([1, 1, 2, 1, 1], False)):     # (x^2+1)(x^2+x+1)
        assert _irreducible(_integer_model(qpoly(coeffs))) == expected, coeffs


def _has_integer_root(c):
    # the rational roots of a monic integer polynomial are integers below
    # the Cauchy bound
    bound = 1 + max(abs(x) for x in c[:-1])
    return any(sum(x * r**i for i, x in enumerate(c)) == 0
               for r in range(-bound, bound + 1))


def _has_quadratic_factor(c):
    # X^2 + uX + v divides the quartic c: v | c0, and |u| < 2R since u is
    # minus a sum of two roots
    a0, a1, a2, a3, _ = c
    bound = 2 * (1 + max(abs(x) for x in c[:-1]))
    for v in range(-abs(a0), abs(a0) + 1):
        if v == 0 or a0 % v:
            continue
        for u in range(-bound, bound + 1):
            # quotient X^2 + sX + t, remainder zero
            s = a3 - u
            t = a2 - v - u * s
            if a1 == u * t + v * s and a0 == v * t:
                return True
    return False


def test_irreducibility_routes_agree(monkeypatch):
    # brute force vs the one-pass scan vs the Hensel factor search
    rng = random.Random(271)
    for degree in (4, 3):
        for _ in range(400):
            c = [rng.randint(-30, 30) for _ in range(degree)] + [1]
            ref = not _has_integer_root(c) and (
                degree == 3 or not _has_quadratic_factor(c))
            model = _integer_model(qpoly(c))
            assert _irreducible(model) == ref, c
            if model.disc:
                p, roots = _split_prime(model)
                assert _has_factor(c, p, roots) == (not ref), c
            else:
                assert not ref, c
    # an S4 quartic and its resolvent cubic, for the source and the
    # principal model of every row, are each decided at one prime p <= 43:
    # 326 by a one-prime certificate, 14 by the Hensel search at a split
    # prime
    polys = [g for row in CORPUS
             for f in (depress(row.source_poly()),
                       depress(row.principal_poly()))
             for g in (f.poly(), resolvent_cubic(f))]
    reached, hensel = [], []
    scan, has_factor = quartic._frobenius, quartic._has_factor

    def spy(*args):
        for item in scan(*args):
            reached[-1] = item[0]
            yield item

    def hensel_spy(c, p, roots):
        hensel.append(p)
        return has_factor(c, p, roots)
    monkeypatch.setattr(quartic, "_frobenius", spy)
    monkeypatch.setattr(quartic, "_has_factor", hensel_spy)
    for g in polys:
        reached.append(None)
        # depress proved f already, and some rows share a resolvent cubic:
        # a cold cache makes every polynomial scan
        quartic._irreducible.cache_clear()
        assert _irreducible(_integer_model(g)), g
    assert len(reached) == 340 and max(reached) == 43
    assert len(hensel) == 14


def test_irreducibility_large_coefficients():
    # large constant terms: no integer is factored either way
    big_c = 110788386666756895948510216909
    f = qpoly([big_c, 1, 0, 0, 1])
    assert isinstance(_irreducible(_integer_model(f)), bool)
    # a manufactured reducible quartic with a huge constant term
    big = 10**15 + 37
    g = qpoly([-big, 1]) * qpoly([big - 3, 1]) * qpoly([7, 1]) * qpoly([-2, 1])
    assert not _irreducible(_integer_model(g))


@settings(max_examples=200, deadline=None)
@given(st.lists(_rational, min_size=3, max_size=4))
@example([Fraction(1, 4), Fraction(0), Fraction(0), Fraction(0)])
def test_integer_model_value(coeffs):
    # F is monic and integral, F(X) = e^n f(X/e) coefficient by
    # coefficient, e is the lcm of the denominators, the least integer
    # clearing every coefficient, and disc F = e^(n(n-1)) disc f
    f = qpoly(coeffs + [1])
    n = f.degree
    big_f, e, disc = _integer_model(f)
    assert len(big_f) == n + 1 and big_f[-1] == 1
    assert all(type(x) is int for x in big_f)
    assert big_f == tuple(c * e**(n - i) for i, c in enumerate(f.coeffs))
    assert e == math.lcm(*(c.denominator for c in f.coeffs))
    assert disc == e**(n * (n - 1)) * discriminant(f)
    assert disc == _disc(big_f) == sylvester_discriminant(qpoly(big_f))


def test_closed_form_discriminant():
    # against (-1)^(n(n-1)/2) det Syl(f, f'), the defining resultant
    rng = random.Random(277)
    for degree in (3, 4) * 100:
        c = [rng.randint(-10**6, 10**6) for _ in range(degree)] + [1]
        assert _disc(c) == sylvester_discriminant(qpoly(c)), c
    assert _disc([0, 0, 0, 1]) == _disc([1, 4, 6, 4, 1]) == 0
    # in Q[s] against the Sylvester determinant over Q(s)
    for name in ("g_t", "h_t"):
        f = getattr(_FUNCTION_FIELD, name)
        in_ring = discriminant(getattr(_SUITE, name))
        assert to_function_field(f.field, in_ring) == discriminant(f) \
            == sylvester_discriminant(f)


def test_irreducibility_and_s4_factor_no_integer(monkeypatch):
    def refuse(n, budget):
        raise AssertionError(f"factorize({n}) called")
    monkeypatch.setattr(rationals, "_factorize", refuse)
    for row in CORPUS:
        f = depress(row.source_poly())
        assert f.is_s4
        g = tschirnhaus(f, 1, -1, 2)
        assert g.is_s4
    # the resolvent cubic of X^4 + pqX + 1 has the constant term -(pq)^2,
    # with two primes above 2^64
    p, q = 18446744073709551653, 36893488147419103363
    assert ReducedQuartic(0, p * q, 1).is_s4


def test_depress_examples():
    r = depress(qpoly([-1, 1, 1, -1, 1]))
    assert r.disc_class() == -331
    assert depress(qpoly([-1, 1, 0, 0, 1])) == ReducedQuartic(0, 1, -1)
    with pytest.raises(Reducible):
        depress(qpoly([1, 4, 6, 4, 1]))


def test_depress_preserves_disc_class():
    rng = random.Random(43)
    for _ in range(50):
        coeffs = [rng.randint(-6, 6) for _ in range(4)] + [1]
        f = qpoly(coeffs)
        if not _irreducible(_integer_model(f)) or discriminant(f) == 0:
            continue
        r = depress(f)
        assert same_square_class(r.disc(), discriminant(f))


# -- Tschirnhaus ----------------------------------------------------------------


def test_tschirnhaus_identity():
    f = ReducedQuartic(0, 1, -1)
    assert tschirnhaus(f, 0, 0, 1) == f


def test_tschirnhaus_scaling_law():
    f = ReducedQuartic(0, 3, 5)
    r = Fraction(2, 3)
    g = tschirnhaus(f, 0, 0, r)
    assert (g.a, g.b, g.c) == (0, 3 * r**3, 5 * r**4)


def test_tschirnhaus_companion_to_principal_instance():
    h = ReducedQuartic(-6, 8, 51)
    g = tschirnhaus(h, Fraction(-1, 9), Fraction(-1, 9), Fraction(5, 9))
    assert (g.a, g.b, g.c) == (0, 16, 24)


def test_tschirnhaus_preserves_field_and_disc_class():
    rng = random.Random(47)
    done = 0
    while done < 100:
        f = rand_s4_quartic(rng, bound=6)
        m, n, p = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if not (m or n or p):
            continue
        g = tschirnhaus(f, m, n, p)
        assert same_square_class(f.disc(), g.disc())
        assert same_field(f.poly(), g.poly()) is not None
        done += 1


@settings(max_examples=80, deadline=None)
@given(st.tuples(*[st.integers(-8, 8)] * 3),
       st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
def test_tschirnhaus_preserves_invariants(abc, mnp):
    try:
        f = ReducedQuartic(*abc)
        g = tschirnhaus(f, *mnp)
    except (Reducible, NotPrimitive):
        assume(False)
    assert g.disc_class() == f.disc_class()
    assert g.is_s4 == f.is_s4 == galois_is_S4(g)
    assert is_principal(g) == is_principal(f)
    # each quartic keeps its own trace form, not that of another model
    assert g.trace_data == trace_form(g) and f.trace_data == trace_form(f)


# -- resolvent and Galois group ---------------------------------------------------


def test_resolvent_examples():
    assert resolvent_cubic(ReducedQuartic(0, 1, -1)) == qpoly([-1, 4, 0, 1])
    assert resolvent_cubic(ReducedQuartic(0, 0, 1)) == qpoly([0, -4, 0, 1])


def test_galois_s4_examples():
    assert galois_is_S4(ReducedQuartic(0, 1, -1))
    assert not galois_is_S4(ReducedQuartic(0, 0, 1))       # x^4+1 biquadratic
    assert not galois_is_S4(ReducedQuartic(0, 0, -2))      # x^4-2, D4
    # x^4+x^2+2, D4 with a != 0: its resolvent has the root a = 1
    assert not galois_is_S4(ReducedQuartic(1, 0, 2))
    # scale e = 2, so disc F = 2^12 disc f: an A4 quartic (square
    # discriminant) and an S4 quartic of discriminant class 2
    assert not galois_is_S4(ReducedQuartic(-3, 1, Fraction(9, 2)))
    assert galois_is_S4(ReducedQuartic(Fraction(-3, 2), 1, 2))


def test_all_corpus_rows_are_s4():
    for row in CORPUS:
        assert galois_is_S4(depress(row.source_poly())), row.expected_disc


# -- trace form -------------------------------------------------------------------


def test_trace_form_principal_example():
    tf = trace_form(ReducedQuartic(0, 1, -1))
    assert tf.disc_class == -283
    assert tf.witt.ramified == frozenset({2, 283})


def test_trace_form_companion_example():
    tf = trace_form(ReducedQuartic(-6, 8, 51))
    assert tf.witt.ramified == frozenset({3, INF})


def test_trace_form_zero_pivot_fallback():
    # a = 0 makes the leading Gram entry zero; diagonalization must recover
    tf = trace_form(ReducedQuartic(0, 2, -1))
    assert tf.disc_class == squarefree_part(ReducedQuartic(0, 2, -1).disc())
    # x^4 - 2 and x^4 + 3: only z_2 has a nonzero value, so the second
    # diagonal entry is the value of z_1 + z_3
    for c, gram, diag in ((-2, 32, (32, 64, -64)), (3, -48, (-48, -96, 96))):
        tf = trace_form(ReducedQuartic(0, 0, c))
        assert tf.gram == ((0, 0, gram), (0, gram, 0), (gram, 0, 0))
        assert tf.diagonal == diag


def _scale(f: ReducedQuartic) -> int:
    return f._model.e


def test_gram_matches_power_sums():
    f = ReducedQuartic(0, 1, -1)
    # (2 e^3)^2 = 4 times the Fraction Gram 0, -3, 4; 4, 0; 3/4
    assert f.trace_data.gram == ((0, -12, 16), (-12, 16, 0), (16, 0, 3))
    for f in (f, ReducedQuartic(Fraction(1, 2), Fraction(-3, 4), 5),
              ReducedQuartic(Fraction(2, 25), Fraction(1, 125),
                             Fraction(-1, 625))):
        e = _scale(f)
        assert [list(r) for r in f.trace_data.gram] == \
            [[4 * e**6 * x for x in r] for r in fraction_gram(f)]


def _assert_matches_fraction_route(f: ReducedQuartic):
    tf, ref = trace_form(f), fraction_trace_form(f)
    e = _scale(f)
    assert tf.witt == ref.witt
    assert tf.disc_class == ref.disc_class
    assert tf.gram == tuple(tuple(4 * e**6 * x for x in r) for r in ref.gram)
    assert all(isinstance(x, int) and x for x in tf.diagonal)
    # both diagonals have the square class of det = disc f / 4
    det = math.prod(ref.diagonal)
    assert same_square_class(det, f.disc() / 4)
    assert same_square_class(math.prod(tf.diagonal), det)


def test_trace_form_matches_fraction_route_on_corpus():
    # the source quartics and their principal models
    for row in CORPUS:
        f = depress(row.source_poly())
        p = PrincipalQuartic(row.principal_b, row.principal_c)
        for g in (f, p):
            _assert_matches_fraction_route(g)


@settings(max_examples=120, deadline=None)
@given(st.tuples(_rational, _rational, _rational))
@example((Fraction(0), Fraction(1), Fraction(-1)))
@example((Fraction(-5, 3), Fraction(0), Fraction(7, 2)))
@example((Fraction(1, 6), Fraction(-3, 4), Fraction(5, 9)))
def test_trace_form_matches_fraction_route(abc):
    try:
        f = ReducedQuartic(*abc)
    except Reducible:
        assume(False)
    _assert_matches_fraction_route(f)


@settings(max_examples=120, deadline=None)
@given(st.tuples(_rational, _rational, _rational))
@example((Fraction(0), Fraction(0), Fraction(-2)))     # zero diagonal
@example((Fraction(0), Fraction(1), Fraction(-1)))     # a = 0
# e = 5^4 and disc f = -1371 / 5^12: 5 divides neither -1371 nor the class
# (no prime of e can avoid disc F itself, as F = X^4 mod that prime)
@example((Fraction(2, 25), Fraction(1, 125), Fraction(-1, 625)))
def test_witt_places_of_disc_f_suffice(abc):
    # the invariant at 2, oo and the primes of disc F equals the product
    # of the Brauer classes over the full support of the diagonal
    try:
        f = ReducedQuartic(*abc)
    except Reducible:
        assume(False)
    tf = trace_form(f)
    assert tf.witt == witt_by_brauer_classes(tf.diagonal)
    assert tf.witt.ramified <= {2, INF} | set(factorize(f._model[2]).factors)


def test_trace_form_rejects_a_corrupted_power_sum(monkeypatch):
    f = ReducedQuartic(Fraction(1, 2), Fraction(-3, 4), 5)
    power_sums_of = quartic._power_sums
    for k in range(1, 7):
        monkeypatch.setattr(
            quartic, "_power_sums",
            lambda *args, k=k: [x + (i == k) for i, x in
                                enumerate(power_sums_of(*args))])
        with pytest.raises(AssertionError, match="determinant"):
            trace_form(f)


def test_trace_form_factors_disc_f_and_its_primes_only(monkeypatch):
    seen = []
    factorize_fn = rationals.factorize

    def recorded(n, *args):
        seen.append(abs(n))
        return factorize_fn(n, *args)
    for module, attr in _bindings(factorize_fn):
        monkeypatch.setattr(module, attr, recorded)
    f = ReducedQuartic(Fraction(1, 2), Fraction(-3, 4), 5)
    tf = trace_form(f)
    disc = abs(f._model[2])
    assert set(seen) == {disc}
    assert not {abs(x) for x in tf.diagonal} & set(seen)


# -- Witt invariant two ways --------------------------------------------------------


def test_witt_formula_examples():
    assert witt_formula(ReducedQuartic(-6, 8, 51)).ramified == frozenset({3, INF})
    assert witt_formula(ReducedQuartic(0, 1, -1)).ramified == frozenset({2, 283})


def test_witt_formula_names_the_polynomial(monkeypatch):
    # running out of dodges is an exhausted bound: a ComputationalLimit
    # (CLI exit 3) whose message names the polynomial and WITT_DODGES
    monkeypatch.setattr(quartic, "WITT_DODGES", 0)
    with pytest.raises(DegenerateUnresolvable) as info:
        witt_formula(ReducedQuartic(-6, 8, 51))
    assert isinstance(info.value, ComputationalLimit)
    assert "x^4 - 6*x^2 + 8*x + 51" in str(info.value)
    assert "WITT_DODGES = 0" in str(info.value)
    assert "Fraction(" not in str(info.value)


def test_witt_formula_degenerate_dodge_cases():
    # a = 0 and d = 2a (in square classes) both force the perturbation
    for a, b, c in [(0, 1, -1), (-15, -14, -12), (-12, -12, 9),
                    (-10, -4, -12)]:
        f = ReducedQuartic(a, b, c)
        w = trace_form(f).witt
        assert witt_formula(f) == w == fraction_trace_form(f).witt, (a, b, c)


def test_same_field_large_certificates():
    cert = same_field(qpoly([-1, -1, 4, -1, 1]),
                      qpoly([-47681, 424, 0, 0, 1]))
    assert (cert.m, cert.n, cert.p, cert.q) == (5, -4, 28, -4)
    # coefficients near 10^12 lie past the 2^64 floor of the p-adic
    # modulus: the height bound alone sets the one lift, near 2^220
    f = ReducedQuartic(0, 1, -1)
    m, n, p = 10**12 + 39, -(10**12 - 11), 3 * 10**11 + 7
    g = tschirnhaus(f, m, n, p)
    cert = same_field(f.poly(), g.poly())
    assert (cert.m, cert.n, cert.p, cert.q) == (m, n, p, Fraction(3 * m, 4))


def test_two_path_witt_agreement_random():
    rng = random.Random(53)
    for _ in range(60):
        f = rand_s4_quartic(rng, bound=12)
        w = trace_form(f).witt
        assert witt_formula(f) == w == fraction_trace_form(f).witt, f


def test_two_path_witt_agreement_corpus():
    for row in CORPUS:
        f = depress(row.source_poly())
        w = trace_form(f).witt
        assert witt_formula(f) == w == fraction_trace_form(f).witt, \
            row.expected_disc


# -- principality --------------------------------------------------------------------


def test_is_principal_examples():
    assert is_principal(ReducedQuartic(0, 1, -1))
    f = depress(qpoly([2, 2, -2, -2, 1]))  # disc class -43
    assert is_principal(f)
    g = depress(qpoly([2, 0, -1, -1, 1]))  # corpus row 892 (class 223)
    assert is_principal(g)


def test_totally_real_is_never_principal():
    rng = random.Random(59)
    found = 0
    for a in range(-10, 0):
        for b in range(-6, 7):
            for c in range(-6, 7):
                try:
                    f = ReducedQuartic(a, b, c)
                except Reducible:
                    continue
                if count_real_roots(f.poly()) != 4 or not galois_is_S4(f):
                    continue
                assert not is_principal(f), (a, b, c)
                found += 1
                if found >= 5:
                    return
    assert found, "scan found no totally real S4 quartic"


def test_principalize_table_one_first_row():
    out, cert = principalize(depress(qpoly([-1, -1, 0, 0, 1])))
    assert (out.b, out.c) == (1, -1)
    assert isinstance(cert, FieldCertificate)


def test_principalize_fixed_point():
    out, _ = principalize(ReducedQuartic(0, 1, -1))
    assert (out.b, out.c) == (1, -1)


def test_principalize_not_principal():
    rng = random.Random(61)
    for a in range(-10, 0):
        for b in range(-6, 7):
            for c in range(-6, 7):
                try:
                    f = ReducedQuartic(a, b, c)
                except Reducible:
                    continue
                if count_real_roots(f.poly()) == 4 and galois_is_S4(f):
                    with pytest.raises(NotPrincipal):
                        principalize(f)
                    return


def _bindings(fn):
    """(module, name) of every octaq module attribute bound to fn."""
    return [(module, name) for key, module in list(sys.modules.items())
            if key == "octaq" or key.startswith("octaq.")
            for name, value in list(vars(module).items()) if value is fn]


def test_invariants_computed_once_per_quartic(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    for name in ("galois_is_S4", "trace_form"):
        monkeypatch.setattr(quartic, name,
                            counted(name, getattr(quartic, name)))
    # under every name they are bound to, not only in quartic
    for fn in (quartic._integer_model, quartic._irreducible,
               polynomials.discriminant):
        for module, attr in _bindings(fn):
            monkeypatch.setattr(module, attr, counted(fn.__name__, fn))
    f = depress(qpoly([-1, -1, 0, 0, 1]))
    classify(f)
    out, _ = principalize(f)
    assert is_principal(f)
    assert f.disc() and out.disc_class() == f.disc_class()
    # one model and one irreducibility proof each for f (in
    # ReducedQuartic) and the principal model (in PrincipalQuartic), one
    # more proof for the resolvent cubic, read off f's model in
    # galois_is_S4; principalize tests its candidate for squarefreeness
    # by the closed-form discriminant, with no model
    assert calls == {"_integer_model": 2, "_irreducible": 3,
                     "galois_is_S4": 1, "trace_form": 1}
    # the principal model is its own reduced form and shares its caches
    assert out.reduced() is out
    assert is_principal(out.reduced())
    assert calls["_integer_model"] == 2
    assert calls["trace_form"] == 2

    # a table row models four polynomials once each: the source and the
    # principal polynomial (in same_field), the depressed source and
    # principalize's normalized output; each gets one irreducibility
    # proof, and so does the resolvent cubic, read off the depressed
    # source's model; every discriminant is a closed form, with no
    # polynomials.discriminant
    from octaq.tables import verify_table_row
    calls.clear()
    assert verify_table_row(CORPUS[0])["passed"]
    assert calls["_integer_model"] == 4
    assert calls["_irreducible"] == 5
    assert calls["discriminant"] == 0

    # a family member: the Tschirnhaus image reads the seed's cached
    # model and is tested for squarefreeness by its closed-form
    # discriminant; the member and same_field's two inputs are modelled
    # once each
    from octaq.qcurve import family
    g = PrincipalQuartic(1, -1)
    calls.clear()
    member, _ = family(g, 3)
    assert same_field(g.poly(), member.poly()) is not None
    assert calls["_integer_model"] == 3


def test_corpus_row_searches_read_value_tables(monkeypatch):
    # same_field and principalize find roots mod p from running-sum value
    # tables, with no Horner evaluation per residue; _eval_mod runs only
    # in Newton lifting: at moduli p^e with e >= 2, and at p itself once
    # per lifted root, for c'(r)
    moduli, horner, lifted = [], [], []
    eval_mod, horner_fn = quartic._eval_mod, polynomials._horner
    lift = quartic._lift_roots

    def counted_lift(c, roots, p, k):
        lifted.append(len(roots) - 1)
        return lift(c, roots, p, k)
    monkeypatch.setattr(quartic, "_lift_roots", counted_lift)

    def counted_eval_mod(c, x, m):
        moduli.append(m)
        return eval_mod(c, x, m)

    def counted_horner(*args):
        horner.append(args)
        return horner_fn(*args)
    for fn, wrapper in ((eval_mod, counted_eval_mod),
                        (horner_fn, counted_horner)):
        for module, attr in _bindings(fn):
            monkeypatch.setattr(module, attr, wrapper)
    row = CORPUS[0]
    assert same_field(row.source_poly(), row.principal_poly()) is not None
    principalize(depress(row.source_poly()))
    assert not horner
    assert moduli
    at_p = 0
    for m in moduli:
        (_, e), = factorize(m).factors.items()
        at_p += e == 1
    assert at_p == sum(lifted)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-10**9, 10**9), min_size=1, max_size=4),
       st.sampled_from(rationals._primes_below(700)))
@example([-1, 1, 0, 0], 59)     # x^4 + x - 1 splits at 59
def test_roots_mod_matches_per_residue_oracle(coeffs, p):
    # the root search of same_field and _split_prime: a value table by
    # running sums, reduced mod p, against Horner mod p at each residue
    c = coeffs + [1]
    values = list(itertools.islice(_tabulate(c), p))
    assert quartic._roots_mod(values, p) == roots_mod_by_residues(c, p)


@pytest.mark.filterwarnings("error")
def test_principalize_non_s4_fields():
    # the isotropy test w = (-1, -d) holds for every quartic field, and a
    # model X^4 + c (b = 0) normalizes by the valuations of c alone
    principal = zero_b = 0
    for a in range(-6, 7):
        for b in range(7):
            for c in range(-6, 7):
                try:
                    f = ReducedQuartic(a, b, c)
                except Reducible:
                    continue
                if f.is_s4 or not is_principal(f):
                    continue
                out, cert = principalize(f)
                assert same_field(f.poly(), out.poly()) is not None, (a, b, c)
                assert _certificate_holds(f._model, out._model, cert)
                principal += 1
                zero_b += out.b == 0
    assert (principal, zero_b) == (78, 19)


def test_principalize_output_properties():
    rows = random.Random(67).sample(CORPUS, 6)
    for row in rows:
        f = depress(row.source_poly())
        out, cert = principalize(f)
        assert is_principal(out.reduced())
        assert same_field(f.poly(), out.poly()) is not None
        # the certificate maps a root of f to a root of the normalized output
        g = out.poly()
        u = cert.substitution()
        acc = qpoly([])
        for coeff in reversed(g.coeffs):
            acc = (acc * u + qpoly([coeff])) % f.poly()
        assert acc.is_zero(), row.expected_disc


def _isotropy_p_solutions_oracle(g, m, n):
    """Rational roots p of Q(p, n, m) = 0, solved as a Fraction quadratic
    with a Fraction square test."""
    a = g[0][0]
    b = 2 * (g[0][1] * n + g[0][2] * m)
    c = g[1][1] * n * n + 2 * g[1][2] * m * n + g[2][2] * m * m
    if a == 0:
        if b == 0:
            return [Fraction(1)] if c == 0 else []
        return [-c / b]
    disc = b * b - 4 * a * c
    if disc < 0 or not is_square(disc):
        return []
    root = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
    if root == 0:
        return [-b / (2 * a)]
    return [(-b + root) / (2 * a), (-b - root) / (2 * a)]


def _assert_search_yields(gram, box, expected):
    """_isotropic_vectors yields the whole expected sequence when G00 != 0,
    and only beta itself, (0, 0, 1), when G00 = 0."""
    found = list(_isotropic_vectors(gram, box))
    assert found == (list(expected) if gram[0][0] else [(0, 0, 1)])


def test_mn_shells_order():
    # the order of the isotropy oracles: the box by shell max(|m|, |n|),
    # then lexicographically
    for box in range(9):
        square = itertools.product(range(-box, box + 1), repeat=2)
        assert list(mn_shells(box)) == sorted(
            square, key=lambda mn: (max(map(abs, mn)), mn))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.just(0) | st.integers(-12, 12),
                 st.integers(-12, 12), st.integers(-12, 12)),
       st.sampled_from([1, 2, 3, 6]), st.integers(0, 6))
@example((0, 1, -1), 1, 6)    # G00 = -8a e^6 = 0: beta itself only
@example((0, 3, 5), 2, 6)
@example((-6, 8, 51), 1, 6)
@example((1, 1, 0), 3, 6)
def test_isotropic_vectors_match_fraction_oracle(abc, den, box):
    try:
        f = ReducedQuartic(*(Fraction(x, den) for x in abc))
    except Reducible:
        assume(False)
    # the search on the integer Gram finds the roots of the Fraction Gram
    g = fraction_gram(f)
    expected = [(m, n, p) for m, n in mn_shells(box)
                for p in _isotropy_p_solutions_oracle(g, m, n)
                if m or n or p]
    _assert_search_yields(f.trace_data.gram, box, expected)
    for m, n, p in expected:
        v = (p, n, m)
        assert sum(v[i] * g[i][j] * v[j]
                   for i in range(3) for j in range(3)) == 0


def _gram(g00, g01, g02, g11, g12, g22):
    return ((g00, g01, g02), (g01, g11, g12), (g02, g12, g22))


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.just(0) | st.integers(-20, 20),
                 *[st.integers(-20, 20)] * 5), st.integers(0, 30))
@example((0, 1, -2, 3, 0, 1), 30)     # G00 = 0: beta itself only
@example((0, 0, 0, 0, 0, 0), 3)       # the zero Gram: G00 = 0 too
@example((1, 0, 0, 1, 0, 1), 30)      # definite: no isotropic vector
@example((1, 0, 0, -1, 0, -1), 30)    # indefinite: Q = n^2 + m^2
@example((1, 2, 0, 4, 0, -3), 30)     # A = 0: Q(0, n) = 0, hits with r = 0
@example((-3, 1, 1, 2, -1, 5), 30)
def test_isotropic_vectors_match_per_pair_search(entries, box):
    # the running-sum search yields today's whole sequence: shells, the
    # band's (m, -N) before (m, N), and the roots in (r, -r) order
    gram = _gram(*entries)
    _assert_search_yields(gram, box, isotropic_vectors_by_pairs(gram, box))


def test_isotropic_vectors_corpus_match_per_pair_search():
    for row in CORPUS:
        gram = depress(row.source_poly()).trace_data.gram
        _assert_search_yields(gram, 12, isotropic_vectors_by_pairs(gram, 12))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=5),
       st.integers(-60, 60))
@example([7], -3)
@example([0, 0, 0, 0, 1], -5)
def test_tabulate_matches_horner(coeffs, start):
    values = list(itertools.islice(_tabulate(coeffs, start), 70))
    assert values == [polynomials._horner(coeffs, x)
                      for x in range(start, start + 70)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 1, -1, 2, 3, 5, 6, 7, 10, 24, 30]),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.sampled_from([1, 1, 1, -1, 2, 3, 7, 11, 13]),
       st.tuples(*[st.integers(0, 9)] * 3),
       st.sampled_from([1, 2, 4, 8, 16, 3, 9, 6, 5, 25]),
       st.sampled_from([1, 2, 4, 16, 256, 3, 5, 27, 12]))
@example(1, (0, 0, 0), 1, (0, 0, 0), 1, 1)       # x^4 + x - 1 untouched
@example(0, (0, 0, 0), 1, (4, 1, 0), 1, 1)       # b = 0: x^4 - 48 -> x^4 - 3
def test_normalize_principal_matches_factoring_oracle(b_unit, b_exps, c_unit,
                                                      c_exps, b_den, c_den):
    # numerators and denominators of 2, 3, 5 and 7 smooth form factor
    # completely, so both routes must agree, Reducible included
    def smooth(unit, exps):
        return unit * 2**exps[0] * 3**exps[1] * 5**exps[2]
    b = Fraction(smooth(b_unit, b_exps), b_den)
    c = Fraction(-smooth(c_unit, c_exps), c_den)
    try:
        expected = normalize_principal_by_factoring(b, c)
    except Reducible:
        with pytest.raises(Reducible):
            _normalize_principal(b, c)
        return
    out, r = _normalize_principal(b, c)
    assert (out.b, out.c, r) == (expected[0].b, expected[0].c, expected[1])


def test_remark_closure_keeps_principal_shape():
    from octaq.qcurve import principal_closure_p
    rng = random.Random(71)
    g = PrincipalQuartic(1, -1)
    done = 0
    while done < 20:
        m = Fraction(rng.randint(-4, 4))
        n = Fraction(rng.randint(-4, 4))
        if 4 * g.c * m + 3 * g.b * n == 0 or not (m or n):
            continue
        p = principal_closure_p(g.b, g.c, m, n)
        from octaq.quartic import reduced_tschirnhaus_poly
        img = reduced_tschirnhaus_poly(g.poly(), m, n, p)
        assert img[2] == 0 and img[3] == 0
        done += 1


# -- same_field ------------------------------------------------------------------------


def test_same_field_negation_certificate():
    cert = same_field(qpoly([-1, -1, 0, 0, 1]), qpoly([-1, 1, 0, 0, 1]))
    assert (cert.m, cert.n, cert.p, cert.q) == (0, 0, -1, 0)


def test_same_field_table_row():
    cert = same_field(qpoly([-1, 1, 1, -1, 1]), qpoly([-43, 37, 0, 0, 1]))
    assert cert is not None


def test_same_field_rejects_different_fields():
    assert same_field(qpoly([-1, 1, 0, 0, 1]), qpoly([1, 1, 0, 0, 1])) is None
    # same discriminant class -3, both split completely at 211: the
    # difference is proved by exhausting the certificate height bound
    assert same_field(qpoly([-3, 1, -6, 0, 1]),
                      qpoly([-3, 3, -6, 0, 1])) is None
    # so are these, which split completely at 137 and 167
    assert same_field(qpoly([-27, 3, 0, 0, 1]),
                      qpoly([-60, 50, 0, 0, 1])) is None
    assert same_field(qpoly([15, 4, 0, 0, 1]),
                      qpoly([24, 8, 0, 0, 1])) is None


def _corpus_and_family_pairs():
    """The corpus pairs, then the members of the principal family at
    s = -3, -1, 1, 3 for the seeds of acceptance criterion 6."""
    pairs = [(row.source_poly(), row.principal_poly()) for row in CORPUS]
    for b, c in [(1, -1), (2, -1), (3, 1), (1, 1), (2, 2), (4, 4), (8, 4),
                 (2, -2), (3, -1), (5, 3)]:
        g = PrincipalQuartic(Fraction(b), Fraction(c))
        pairs += [(g.poly(), family(g, s)[0].poly()) for s in (-3, -1, 1, 3)]
    return pairs


def test_certificate_height_bounds_disc_times_u():
    # same_field rests on this bound: for U(Y) = e_g u(Y / e_f) and the
    # certificate u, |disc F| U is integral, with coefficients at most
    # _certificate_height in absolute value
    pairs = _corpus_and_family_pairs()
    assert len(pairs) == 125
    fractional = 0
    for f, g in pairs:
        mf, mg = _integer_model(f), _integer_model(g)
        cert = same_field(f, g)
        big_u = [Fraction(x) * mg.e / mf.e**t
                 for t, x in enumerate((cert.q, cert.p, cert.n, cert.m))]
        fractional += any(x.denominator > 1 for x in big_u)
        height = quartic._certificate_height(mf.coeffs, mg.coeffs)
        for x in big_u:
            y = abs(mf.disc) * x
            assert y.denominator == 1 and abs(y) <= height, (f, g)
    # 9 corpus rows and 4 members have a U that is not integral
    assert fractional == 13


@pytest.mark.parametrize("f, g, found", [
    ([-1, 1, 1, -1, 1], [-43, 37, 0, 0, 1], True),
    ([-3, 1, -6, 0, 1], [-3, 3, -6, 0, 1], False)])
def test_same_field_lifts_once(monkeypatch, f, g, found):
    # past the split test the roots of F and G are lifted once each, to
    # the final precision, and one interpolation basis serves all 24
    # matchings; no rational reconstruction is left
    assert not hasattr(quartic, "rational_reconstruct")
    calls = Counter()
    for name in ("_lift_roots", "_interpolation_basis"):
        def counted(*args, _name=name, _fn=getattr(quartic, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quartic, name, counted)
    cert = same_field(qpoly(f), qpoly(g))
    assert (cert is not None) == found
    assert calls == {"_lift_roots": 2, "_interpolation_basis": 1}


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 4]),
       st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4),
       st.integers(1, 16))
@example(4, [-1, 1, 0, 0], 1)           # x^4 + x - 1 splits first at 59
@example(4, [-43, 37, 0, 0], 16)
@example(3, [-2, 0, 0, 0], 7)           # x^3 - 2 splits first at 31
def test_lift_roots_and_basis_match_oracles(deg, coeffs, k):
    # the carried inverse and the root from Vieta give the lifts of the
    # per-step inversion, and the basis from c(Y) / (Y - r_i) with one
    # inversion gives that of the products of the other Y - r_j
    c = coeffs[:deg] + [1]
    model = _integer_model(qpoly(c))
    assume(model.disc != 0)
    try:
        p, roots = _split_prime(model)
    except SearchExhausted:
        assume(False)
    m = p**k
    lifted = quartic._lift_roots(c, roots, p, k)
    assert lifted == lift_roots_by_inversion(c, roots, p, k)
    assert all(quartic._eval_mod(c, r, m) == 0 for r in lifted)
    basis = quartic._interpolation_basis(lifted, m, c)
    assert basis == interpolation_basis_by_products(lifted, m)
    for i, b in enumerate(basis):
        for j, r in enumerate(lifted):
            assert quartic._eval_mod(b, r, m) == int(i == j)


# -- the split-prime search, against polynomial arithmetic over F_p -------------
#
# The oracle is the Cantor-Zassenhaus route that _split_prime replaced: a
# prime splits the monic c into distinct linear factors when
# X^p = X mod (c, p), and equal-degree splitting then finds the roots.
# Ascending coefficient lists, all arithmetic mod p.


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mulmod(a, b, f, p):
    n = len(f) - 1
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(len(out) - 1, n - 1, -1):
        c = out[k] % p
        if c:
            for i in range(n):
                out[k - n + i] -= c * f[i]
    return _fp_trim([x % p for x in out[:n]])


def _fp_powmod(base, e, f, p):
    result = [1]
    for bit in bin(e)[2:]:
        result = _fp_mulmod(result, result, f, p)
        if bit == "1":
            result = _fp_mulmod(result, base, f, p)
    return result


def _fp_divmod(a, b, p):
    r = _fp_trim([x % p for x in a])
    inv = pow(b[-1], -1, p)
    d = len(b) - 1
    q = [0] * max(len(r) - d, 0)
    while r and len(r) - 1 >= d:
        k = len(r) - 1 - d
        c = (r[-1] * inv) % p
        q[k] = c
        for i in range(len(b)):
            r[k + i] = (r[k + i] - c * b[i]) % p
        _fp_trim(r)
    return q, r


def _fp_gcd(a, b, p):
    a, b = _fp_trim([x % p for x in a]), _fp_trim([x % p for x in b])
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [(x * inv) % p for x in a]


def _fp_roots(h, p):
    """Sorted roots mod an odd p of a product h of distinct linear
    factors, by gcd(h, (X + a)^((p-1)/2) - 1) for a = 0, 1, ..."""
    if len(h) == 2:
        return [-h[0] % p]
    for a in range(p):
        w = _fp_powmod([a, 1], (p - 1) // 2, h, p) or [0]
        w[0] = (w[0] - 1) % p
        g = _fp_gcd(h, _fp_trim(w), p)
        if 1 < len(g) < len(h):
            rest = _fp_divmod(h, g, p)[0]
            return sorted(_fp_roots(g, p) + _fp_roots(rest, p))
    raise AssertionError(f"{h} does not split into distinct linear factors")


def _fp_splits(c, p):
    return _fp_powmod([0, 1], p, [x % p for x in c], p) == [0, 1]


def _oracle_split_prime(c, disc, avoid):
    """(p, roots) as _split_prime defines them, or None past the cap."""
    for p in quartic._split_primes():
        if disc % p and avoid % p and _fp_splits(c, p):
            return p, tuple(_fp_roots([x % p for x in c], p))
    return None


_SMALL_PRIMES = rationals._primes_below(200)[1:]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 4]),
       st.lists(st.integers(-10**12, 10**12), min_size=4, max_size=4),
       st.lists(st.sampled_from(_SMALL_PRIMES), max_size=6))
@example(4, [-1, 1, 0, 0], [])          # x^4 + x - 1 splits first at 59
@example(4, [-1, 1, 0, 0], [59])
@example(3, [-2, 0, 0, 0], [3, 5, 31])  # x^3 - 2 splits first at 31
def test_split_prime_matches_fp_oracle(deg, coeffs, avoid_primes):
    c = coeffs[:deg] + [1]
    model = _integer_model(qpoly(c))
    disc = model.disc
    assume(disc != 0)
    avoid = 1
    for q in avoid_primes:
        avoid *= q
    expected = _oracle_split_prime(c, disc, avoid)
    if expected is None:
        with pytest.raises(SearchExhausted):
            _split_prime(model, avoid)
        return
    assert _split_prime(model, avoid) == expected
    # avoiding the prime found moves the search on to the next split prime
    p = expected[0]
    assert _split_prime(model, avoid * p) == \
        _oracle_split_prime(c, disc, avoid * p)


def test_split_prime_corpus_matches_fp_oracle():
    for row in CORPUS:
        for model in (_integer_model(row.source_poly()),
                      _integer_model(row.principal_poly())):
            assert _split_prime(model) == \
                _oracle_split_prime(model.coeffs, model.disc, 1)


def test_same_field_split_prime_proves_difference(monkeypatch):
    # x^4 + 2x - 6 and x^4 + 2x - 1 share the discriminant class -43
    F, G = [-6, 2, 0, 0, 1], [-1, 2, 0, 0, 1]
    f, g = qpoly(F), qpoly(G)
    assert squarefree_part(discriminant(f)) == squarefree_part(
        discriminant(g)) == -43
    p, _ = _split_prime(_integer_model(f), discriminant(g).numerator)
    assert not _fp_splits(G, p)

    # G has fewer than 4 roots mod p, which proves the difference before
    # any root is lifted
    def no_lifting(*args):
        raise AssertionError("roots lifted")
    monkeypatch.setattr(quartic, "_lift_roots", no_lifting)
    assert same_field(f, g) is None


def test_same_field_corpus_needs_no_discriminant_or_factoring(monkeypatch):
    def forbidden(*args):
        raise AssertionError("called")
    for fn in (polynomials.discriminant, rationals._factorize):
        for module, attr in _bindings(fn):
            monkeypatch.setattr(module, attr, forbidden)
    for row in CORPUS:
        assert same_field(row.source_poly(), row.principal_poly()) is not None


def test_same_field_rational_coefficients():
    # denominators force the monic integer models X -> X/e with e > 1
    f = ReducedQuartic(Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    m, n, p = Fraction(1, 2), Fraction(-2), Fraction(3, 5)
    g = tschirnhaus(f, m, n, p)
    assert f._model.e > 1 and g._model.e > 1
    cert = same_field(f.poly(), g.poly())
    assert (cert.m, cert.n, cert.p) == (m, n, p)
    assert _certificate_holds(f._model, g._model, cert)


def test_same_field_names_the_split_prime_cap(monkeypatch):
    # x^4 + x - 1 splits completely first at 59
    monkeypatch.setattr(quartic, "_split_primes", lambda: (3, 5, 7))
    with pytest.raises(SearchExhausted, match="up to 7"):
        same_field(qpoly([-1, 1, 0, 0, 1]), qpoly([-1, -1, 0, 0, 1]))


# -- the Frobenius-scan memo: one scan per integer model per process ---------


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([3, 4]),
       st.lists(st.integers(-10**9, 10**9), min_size=4, max_size=4),
       st.lists(st.sampled_from(_SMALL_PRIMES), max_size=4),
       st.booleans())
@example(4, [-1, 1, 0, 0], [], True)         # x^4 + x - 1 splits first at 59
@example(4, [-1, 1, 0, 0], [3, 5], False)
@example(3, [-2, 0, 0, 0], [31, 43], True)   # x^3 - 2 splits first at 31
def test_memoized_split_prime_matches_the_uncached_scan(deg, coeffs, primes,
                                                        hit):
    # avoid is divisible by the least split prime exactly when hit, and
    # then the scan goes on past the primes of avoid
    c = coeffs[:deg] + [1]
    model = _integer_model(qpoly(c))
    assume(model.disc != 0 and _irreducible(model))
    try:
        least = split_prime_by_scan(model)
    except SearchExhausted:
        assume(False)
    avoid = math.prod(q for q in primes if q != least[0])
    if hit:
        avoid *= least[0]
    quartic._split_prime.cache_clear()
    try:
        expected = split_prime_by_scan(model, avoid)
    except SearchExhausted:
        # not kept: every call scans to the cap again
        for _ in range(2):
            with pytest.raises(SearchExhausted):
                _split_prime(model, avoid)
        assert quartic._split_prime.cache_info().misses == 2
        return
    # a first call, then one answered from the cache
    for _ in range(2):
        assert _split_prime(model, avoid) == expected
    info = quartic._split_prime.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # the roots are a tuple, so no caller can change a cached answer
    p, roots = _split_prime(model)
    assert (p, roots) == least and type(roots) is tuple


def _memo_traffic() -> list[tuple[int, int]]:
    """(questions, scans) of the irreducibility and the split-prime cache,
    in that order: every cache miss is one Frobenius scan."""
    return [(info.hits + info.misses, info.misses)
            for info in (quartic._irreducible.cache_info(),
                         quartic._split_prime.cache_info())]


def test_family_pass_scans_each_integer_model_once():
    # acceptance criterion 6's 40 members, as the family benchmark runs
    # them: the seeds are built first, then each member comes from
    # qcurve.family and is certified against its seed by same_field
    seeds = [PrincipalQuartic(b, c) for b, c in (
        (1, -1), (2, -1), (3, 1), (1, 1), (2, 2), (4, 4), (8, 4), (2, -2),
        (3, -1), (5, 3))]
    certified = 0
    for g in seeds:
        for s in (-3, -1, 1, 3):
            try:
                member, _ = family(g, s)
            except ValidationFailure:
                continue
            assert same_field(g.poly(), member.poly()) is not None
            certified += 1
    assert certified == 40
    # 130 irreducibility questions prove 50 models once each; the 40
    # same_field calls make one least-split-prime search per seed; the
    # one member whose disc that prime divides costs one scan more, made
    # round the cache, as no other pair asks for it
    assert _memo_traffic() == [(130, 50), (40, 10)]
    # the 10 searches were of the seeds' models
    for g in seeds:
        _split_prime(g._model)
    assert _memo_traffic()[1] == (50, 10)


def test_corpus_pass_scans_each_integer_model_once():
    # a verify_table_row pass over the corpus, as the corpus benchmark
    # runs it: 425 irreducibility questions about 370 models, and per row
    # one least-split-prime search of the source; the 3 scans past the
    # primes of a row's avoid are made round the cache
    from octaq.tables import verify_table_row
    for row in CORPUS:
        assert verify_table_row(row)["passed"], row.line
    assert _memo_traffic() == [(425, 370), (85, 85)]


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(-12, 12)] * 3),
       st.sampled_from([1, 2, 3, 4]),
       st.tuples(*[st.integers(-4, 4)] * 3).filter(any))
def test_same_field_recovers_tschirnhaus(abc, den, mnp):
    try:
        f = ReducedQuartic(*(Fraction(x, den) for x in abc))
    except Reducible:
        assume(False)
    assume(galois_is_S4(f))
    try:
        g = tschirnhaus(f, *mnp)
    except NotPrimitive:
        assume(False)
    cert = same_field(f.poly(), g.poly())
    assert cert is not None and _certificate_holds(f._model, g._model, cert)
    # an S4 quartic field has no automorphism but the identity, so the
    # certificate is the transformation itself
    m, n, p = mnp
    assert (cert.m, cert.n, cert.p, cert.q) == (m, n, p,
                                                (3 * f.b * m + 2 * f.a * n) / 4)


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(-8, 8)] * 3),
       st.sampled_from([1, 2]),
       st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
       st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
def test_same_field_certificates_compose(abc, den, mnp1, mnp2):
    try:
        f = ReducedQuartic(*(Fraction(x, den) for x in abc))
        assume(f.is_s4)
        g = tschirnhaus(f, *mnp1)
        h = tschirnhaus(g, *mnp2)
    except (Reducible, NotPrimitive):
        assume(False)
    u = same_field(f.poly(), g.poly())
    v = same_field(g.poly(), h.poly())
    assert u is not None and v is not None
    # a root beta of f goes to u(beta), a root of g, and on to v(u(beta))
    w = compose(v.substitution(), u.substitution()) % f.poly()
    cert = FieldCertificate(m=w[3], n=w[2], p=w[1], q=w[0])
    assert _certificate_holds(f._model, h._model, cert)
    # an S4 field has no automorphism but the identity, so the certificate
    # of f -> h is unique
    assert same_field(f.poly(), h.poly()) == cert


def test_valuation_of_zero_raises():
    assert _val_unit(Fraction(-18, 5), 3) == (2, Fraction(-2, 5))
    assert _val_unit(Fraction(2, 45), 3) == (-2, Fraction(2, 5))
    with pytest.raises(OctaqError):
        _val_unit(Fraction(0), 3)


def test_obstruction_composition_identity_on_corpus():
    # (principality obstruction) x (lifting obstruction) = (-2, -3d)
    for row in CORPUS:
        f = depress(row.source_poly())
        w = trace_form(f).witt
        d = f.disc()
        lhs = (w * brauer_class(-1, -d)) * (w * brauer_class(2, d))
        assert lhs == brauer_class(-2, -3 * d), row.expected_disc


# -- Tschirnhaus images over every field, integer kernels over Q --------------


def _char_poly(mat, field):
    """det(X I - M) by Faddeev-LeVerrier, exact over a field of
    characteristic 0: it divides by the integers 1..n only."""
    n = len(mat)
    mk = [row[:] for row in mat]
    cs = []
    for k in range(1, n + 1):
        trace = sum((mk[i][i] for i in range(1, n)), mk[0][0])
        cs.append(-(trace / field.embed(k)))
        if k < n:
            for i in range(n):
                mk[i][i] = mk[i][i] + cs[-1]
            mk = polynomials.mat_mul(mat, mk)
    return UniPoly(field, cs[::-1] + [field.one])


def test_char_poly_of_companion_matrix():
    rng = random.Random(37)
    for _ in range(50):
        f = qpoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [1])
        n = f.degree
        m = [[QQ.zero] * n for _ in range(n)]
        for i in range(1, n):
            m[i][i - 1] = QQ.one
        for i in range(n):
            m[i][n - 1] = -f[i]
        assert _char_poly(m, QQ) == f


def _oracle_tschirnhaus_poly(f, m, n, p):
    """The multiplication-matrix route over the coefficient field F of f:
    the characteristic polynomial of gamma acting on F[Y]/f(Y)."""
    F = f.field
    m, n, p = (F.embed(x) if isinstance(x, (int, Fraction)) else x
               for x in (m, n, p))
    q = (F.embed(3) * f[1] * m + F.embed(2) * f[2] * n) / F.embed(4)
    u = UniPoly(F, (q, p, n, m))
    cols = [(u * UniPoly(F, [F.zero] * j + [F.one])) % f for j in range(4)]
    mat = [[cols[j][i] for j in range(4)] for i in range(4)]
    return _char_poly(mat, F)


def _oracle_verify_certificate(f, g, cert):
    """g(u) = 0 mod f by Horner over Fraction UniPolys."""
    u = cert.substitution()
    acc = qpoly([])
    for coeff in reversed(g.coeffs):
        acc = (acc * u + qpoly([coeff])) % f
    return acc.is_zero()


@settings(max_examples=200, deadline=None)
@given(st.tuples(_rational, _rational, _rational),
       st.tuples(_rational, _rational, _rational),
       st.booleans())
@example((Fraction(0), Fraction(-1), Fraction(-1)), (0, 0, 1), True)
@example((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)),
         (Fraction(1, 2), Fraction(-2), Fraction(3, 5)), False)
@example((Fraction(-7, 12), Fraction(0), Fraction(5, 11)),
         (Fraction(0), Fraction(0), Fraction(0)), False)
@example((Fraction(0), Fraction(0), Fraction(0)), (1, 1, 1), True)
def test_tschirnhaus_image_matches_char_poly_oracle(abc, mnp, principal):
    # any reduced quartic, reducible or not squarefree included
    a, b, c = abc
    f = qpoly([c, b, 0 if principal else a, 0, 1])
    image = quartic.reduced_tschirnhaus_poly(f, *mnp)
    assert image == _oracle_tschirnhaus_poly(f, *mnp)
    assert all(type(x) is Fraction for x in image.coeffs)


@settings(max_examples=100, deadline=None)
@given(_rational, st.lists(st.tuples(_rational, _rational), min_size=6,
                           max_size=6))
@example(Fraction(-1), [(Fraction(0), Fraction(0))] * 6)
def test_tschirnhaus_image_matches_oracle_over_quadratic_field(t, coords):
    assume(not is_square(t))
    K = QuadField(t)
    a, b, c, m, n, p = (K.element(u, v) for u, v in coords)
    f = UniPoly(K, (c, b, a, K.zero, K.one))
    image = quartic.reduced_tschirnhaus_poly(f, m, n, p)
    assert image == _oracle_tschirnhaus_poly(f, m, n, p)
    assert all(x.field is K for x in image.coeffs)


_SUITE = SymbolicContext()
_FUNCTION_FIELD = FunctionFieldContext()


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("f_t", "g_t", "h_t")),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
                min_size=3, max_size=3))
@example("g_t", [(0, 0)] * 3)
def test_tschirnhaus_image_matches_oracle_over_function_field(name, coords):
    # m, n, p = i + j s in Q(s), on the quartics of the identity suite
    f = getattr(_FUNCTION_FIELD, name)
    s = _FUNCTION_FIELD.s
    m, n, p = (i + j * s for i, j in coords)
    image = quartic.reduced_tschirnhaus_poly(f, m, n, p)
    assert image == _oracle_tschirnhaus_poly(f, m, n, p)
    assert all(x.field is _FUNCTION_FIELD.field for x in image.coeffs)


_in_s = st.tuples(st.integers(-3, 3), st.integers(-2, 2), st.integers(1, 4))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("f_t", "g_t", "h_t")),
       st.lists(_in_s, min_size=3, max_size=3),
       _in_s.filter(lambda ijk: ijk[:2] != (0, 0)))
@example("g_t", [(0, 0, 1)] * 3, (1, 0, 1))
def test_cleared_tschirnhaus_image_in_ring_matches_function_field(
        name, coords, scale):
    # m, n, p = (i + j s)/k on a quartic of the identity suite: the image
    # of (Lm, Ln, Lp) in Q[s], L = (i + j s)/k != 0, is the image of
    # (m, n, p) in Q(s) with its X^i coefficient times L^(4-i)
    ring, ff = _SUITE.field, _FUNCTION_FIELD.field

    def in_ring(i, j, k):
        return (i + j * _SUITE.s) / k
    big_l = in_ring(*scale)
    image = quartic.reduced_tschirnhaus_poly(
        getattr(_SUITE, name), *(big_l * in_ring(*ijk) for ijk in coords))
    assert all(x.ring is ring for x in image.coeffs)
    expected = quartic.reduced_tschirnhaus_poly(
        getattr(_FUNCTION_FIELD, name),
        *((i + j * _FUNCTION_FIELD.s) / k for i, j, k in coords))
    ff_l = to_function_field(ff, big_l)
    assert to_function_field(ff, image) == UniPoly(
        ff, [x * ff_l ** (4 - i) for i, x in enumerate(expected.coeffs)])


def test_rational_images_stay_in_integers(monkeypatch):
    # every image over Q goes through the integer kernel: Newton's
    # identities see only integers and divide with the checked _exact_div
    newton, seen = quartic._newton_image, []

    def checked(c0, c1, c2, u, div):
        seen.append(div is quartic._exact_div
                    and all(type(x) is int for x in (c0, c1, c2, *u)))
        return newton(c0, c1, c2, u, div)
    monkeypatch.setattr(quartic, "_newton_image", checked)
    from octaq.qcurve import family
    from octaq.tables import verify_table_row
    for row in CORPUS[:10]:
        assert verify_table_row(row)["passed"]
    assert family(PrincipalQuartic(1, -1), 3)[0].a == 0
    assert tschirnhaus(ReducedQuartic(3, 2, 5), 1, 2, 3).a != 0
    assert seen and all(seen)


def _certificate_pairs():
    for row in CORPUS:
        yield row.source_poly(), row.principal_poly()
    # Tschirnhaus pairs whose integer models need e_f, e_g > 1
    for abc, mnp in (
            ((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)),
             (Fraction(1, 2), Fraction(-2), Fraction(3, 5))),
            ((Fraction(-3, 4), Fraction(2, 9), Fraction(5)),
             (Fraction(1, 3), Fraction(0), Fraction(-7, 4))),
            ((Fraction(2), Fraction(-1, 6), Fraction(3, 10)),
             (Fraction(0), Fraction(5, 2), Fraction(1, 9)))):
        f = ReducedQuartic(*abc)
        g = tschirnhaus(f, *mnp)
        assert f._model.e > 1 and g._model.e > 1
        yield f.poly(), g.poly()


def test_integer_certificate_check_matches_fraction_oracle():
    for f, g in _certificate_pairs():
        cert = same_field(f, g)
        assert cert is not None
        mf, mg = _integer_model(f), _integer_model(g)
        assert _certificate_holds(mf, mg, cert)
        assert _oracle_verify_certificate(f, g, cert)
        # a certificate coefficient off by one fails both checks
        for name in ("m", "n", "p", "q"):
            for step in (1, -1):
                bad = dataclasses.replace(
                    cert, **{name: getattr(cert, name) + step})
                assert not _certificate_holds(mf, mg, bad), (f, g, name, step)
                assert not _oracle_verify_certificate(f, g, bad)


def test_principalize_skips_a_non_squarefree_candidate(monkeypatch):
    # no isotropic vector of an irreducible quartic gives a repeated root,
    # so a zero vector (image X^4, closed-form discriminant 0) is put first
    search = quartic._isotropic_vectors
    seen = []

    def with_zero_first(g, box):
        seen.append((0, 0, Fraction(0)))
        yield 0, 0, Fraction(0)
        yield from search(g, box)
    monkeypatch.setattr(quartic, "_isotropic_vectors", with_zero_first)
    assert _integer_model(
        quartic.reduced_tschirnhaus_poly(qpoly([3, 2, 1, 0, 1]), 0, 0, 0)
    ).disc == 0
    # the models and certificates of the Fraction-quadratic search
    for abc, model, mnpq in (
            ((Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6)),
             (300692, -18501453), (-12, -24, -72, -9)),
            ((3, 2, 5), (1792, 15587), (-3, -3, -7, -9))):
        out, cert = principalize(ReducedQuartic(*abc))
        assert (out.b, out.c) == model
        assert (cert.m, cert.n, cert.p, cert.q) == mnpq
    assert len(seen) == 2
