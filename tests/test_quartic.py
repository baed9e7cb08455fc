import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaq import quartic, rationals
from octaq.embedding import classify
from octaq.errors import (DegenerateUnresolvable, NotPrimitive, NotPrincipal,
                          OctaqError, Reducible, SearchExhausted)
from octaq.hilbert import INF, brauer_class
from octaq.polynomials import count_real_roots, discriminant, qpoly
from octaq.quartic import (FieldCertificate, PrincipalQuartic, ReducedQuartic,
                           _disc, _fp_xpow_mod, _integer_model,
                           _irreducible_by_modp, _model_scale,
                           _reducible_by_hensel, _split_prime,
                           _verify_certificate, cubic_has_rational_root,
                           depress, galois_is_S4, is_irreducible_quartic,
                           is_principal, principalize, resolvent_cubic,
                           same_field, trace_form, trace_zero_gram,
                           tschirnhaus, witt_formula)
from octaq.rationals import _val_unit, same_square_class, squarefree_part
from octaq.tables import load_bundled_corpus

CORPUS = load_bundled_corpus()


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
    assert is_irreducible_quartic(qpoly([-1, 1, 0, 0, 1]))
    assert is_irreducible_quartic(qpoly([1, 0, 0, 0, 1]))          # x^4+1
    assert not is_irreducible_quartic(qpoly([1, 4, 6, 4, 1]))       # (x+1)^4
    assert not is_irreducible_quartic(qpoly([-1, 0, 0, 0, 1]))      # x^4-1
    assert not is_irreducible_quartic(qpoly([1, 0, 2, 0, 1]))       # (x^2+1)^2
    assert not is_irreducible_quartic(qpoly([4, 0, 5, 0, 1]))       # (x^2+1)(x^2+4)
    # quadratic factors with equal constant terms (v = z branch)
    assert not is_irreducible_quartic(qpoly([1, 1, 2, 1, 1]))       # (x^2+1)(x^2+x+1)


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


def test_irreducibility_routes_agree():
    # brute force vs mod-p certificates vs Hensel factor search
    rng = random.Random(271)
    for degree in (4, 3):
        for _ in range(400):
            c = [rng.randint(-30, 30) for _ in range(degree)] + [1]
            ref = not _has_integer_root(c) and (
                degree == 3 or not _has_quadratic_factor(c))
            if degree == 4:
                assert is_irreducible_quartic(qpoly(c)) == ref, c
            else:
                assert cubic_has_rational_root(qpoly(c)) == (not ref), c
            disc = _disc(c)
            if disc:
                if _irreducible_by_modp(c, disc):
                    assert ref, c
                assert _reducible_by_hensel(c, disc) == (not ref), c
            else:
                assert not ref, c
    # an S4 quartic and its resolvent cubic are certified before Hensel
    for row in CORPUS:
        f = depress(row.source_poly())
        for g in (f.poly(), resolvent_cubic(f)):
            c = _integer_model(g)
            assert _irreducible_by_modp(c, _disc(c)), c


def test_irreducibility_large_coefficients():
    # large constant terms: no integer is factored either way
    big_c = 110788386666756895948510216909
    f = qpoly([big_c, 1, 0, 0, 1])
    assert isinstance(is_irreducible_quartic(f), bool)
    # a manufactured reducible quartic with a huge constant term
    big = 10**15 + 37
    g = qpoly([-big, 1]) * qpoly([big - 3, 1]) * qpoly([7, 1]) * qpoly([-2, 1])
    assert not is_irreducible_quartic(g)


def test_closed_form_discriminant():
    rng = random.Random(277)
    for degree in (3, 4) * 100:
        c = [rng.randint(-10**6, 10**6) for _ in range(degree)] + [1]
        assert _disc(c) == discriminant(qpoly(c)), c
    assert _disc([0, 0, 0, 1]) == _disc([1, 4, 6, 4, 1]) == 0


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
        if not is_irreducible_quartic(f) or discriminant(f) == 0:
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


def test_gram_matches_power_sums():
    f = ReducedQuartic(0, 1, -1)
    g = trace_zero_gram(f)
    assert g[0][0] == 0 and g[0][1] == -3 and g[0][2] == 4
    assert g[1][1] == 4 and g[2][2] == Fraction(3, 4)


# -- Witt invariant two ways --------------------------------------------------------


def test_witt_formula_examples():
    assert witt_formula(ReducedQuartic(-6, 8, 51)).ramified == frozenset({3, INF})
    assert witt_formula(ReducedQuartic(0, 1, -1)).ramified == frozenset({2, 283})


def test_witt_formula_names_the_polynomial():
    with pytest.raises(DegenerateUnresolvable) as info:
        witt_formula(ReducedQuartic(-6, 8, 51), max_tries=0)
    assert "x^4 - 6*x^2 + 8*x + 51" in str(info.value)
    assert "Fraction(" not in str(info.value)


def test_witt_formula_degenerate_dodge_cases():
    # a = 0 and d = 2a (in square classes) both force the perturbation
    for a, b, c in [(0, 1, -1), (-15, -14, -12), (-12, -12, 9),
                    (-10, -4, -12)]:
        f = ReducedQuartic(a, b, c)
        assert witt_formula(f) == trace_form(f).witt, (a, b, c)


def test_same_field_escalates_precision():
    cert = same_field(qpoly([-1, -1, 4, -1, 1]),
                      qpoly([-47681, 424, 0, 0, 1]))
    assert (cert.m, cert.n, cert.p, cert.q) == (5, -4, 28, -4)
    # coefficients near 10^12 do not reconstruct modulo the first p^k of
    # about 2^64, so the p-adic precision has to double
    f = ReducedQuartic(0, 1, -1)
    m, n, p = 10**12 + 39, -(10**12 - 11), 3 * 10**11 + 7
    g = tschirnhaus(f, m, n, p)
    cert = same_field(f.poly(), g.poly())
    assert (cert.m, cert.n, cert.p, cert.q) == (m, n, p, Fraction(3 * m, 4))


def test_two_path_witt_agreement_random():
    rng = random.Random(53)
    for _ in range(60):
        f = rand_s4_quartic(rng, bound=12)
        assert witt_formula(f) == trace_form(f).witt, f


def test_two_path_witt_agreement_corpus():
    for row in CORPUS:
        f = depress(row.source_poly())
        assert witt_formula(f) == trace_form(f).witt, row.expected_disc


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


def test_invariants_computed_once_per_quartic(monkeypatch):
    calls = Counter()
    for name in ("is_irreducible_quartic", "galois_is_S4", "trace_form",
                 "discriminant"):
        def counted(*args, _name=name, _fn=getattr(quartic, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(quartic, name, counted)
    f = depress(qpoly([-1, -1, 0, 0, 1]))
    classify(f)
    out, _ = principalize(f)
    assert is_principal(f)
    # one irreducibility proof for f (in ReducedQuartic) and one for the
    # principal model (in PrincipalQuartic)
    assert calls == {"is_irreducible_quartic": 2, "galois_is_S4": 1,
                     "trace_form": 1}
    # the principal model is its own reduced form and shares its caches
    assert out.reduced() is out
    assert is_principal(out.reduced())
    assert calls["is_irreducible_quartic"] == 2
    assert calls["trace_form"] == 2

    # a table row: depress and principalize prove one quartic each, and
    # same_field both of its inputs and their discriminants
    from octaq.tables import verify_table_row
    calls.clear()
    assert verify_table_row(CORPUS[0])["passed"]
    assert calls["is_irreducible_quartic"] == 4
    assert calls["discriminant"] == 2


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
                assert _verify_certificate(f.poly(), out.poly(), cert)
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


def test_same_field_split_prime_proves_difference():
    # x^4 + 2x - 6 and x^4 + 2x - 1 share the discriminant class -43
    F, G = [-6, 2, 0, 0, 1], [-1, 2, 0, 0, 1]
    f, g = qpoly(F), qpoly(G)
    assert squarefree_part(discriminant(f)) == squarefree_part(
        discriminant(g)) == -43
    p = _split_prime(F, discriminant(f).numerator, discriminant(g).numerator)
    assert _fp_xpow_mod(p, [x % p for x in G], p) != [0, 1]
    assert same_field(f, g) is None


def test_same_field_rational_coefficients():
    # denominators force the monic integer models X -> X/e with e > 1
    f = ReducedQuartic(Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6))
    m, n, p = Fraction(1, 2), Fraction(-2), Fraction(3, 5)
    g = tschirnhaus(f, m, n, p)
    assert _model_scale(f.poly()) > 1 and _model_scale(g.poly()) > 1
    cert = same_field(f.poly(), g.poly())
    assert (cert.m, cert.n, cert.p) == (m, n, p)
    assert _verify_certificate(f.poly(), g.poly(), cert)


def test_same_field_names_the_split_prime_cap(monkeypatch):
    # x^4 + x - 1 splits completely first at 59
    monkeypatch.setattr(quartic, "_split_primes", lambda: (3, 5, 7))
    with pytest.raises(SearchExhausted, match="up to 7"):
        same_field(qpoly([-1, 1, 0, 0, 1]), qpoly([-1, -1, 0, 0, 1]))


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
    assert cert is not None and _verify_certificate(f.poly(), g.poly(), cert)
    # an S4 quartic field has no automorphism but the identity, so the
    # certificate is the transformation itself
    m, n, p = mnp
    assert (cert.m, cert.n, cert.p, cert.q) == (m, n, p,
                                                (3 * f.b * m + 2 * f.a * n) / 4)


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
