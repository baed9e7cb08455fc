import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from octaq.errors import (CyclotomicExcluded, DegenerateParameter,
                          ExcludedParameter, NotOctahedral, NotPrincipal,
                          OctaqError, Reducible)
from octaq.polynomials import (QQ, QuadElement, QuadField, UniPoly,
                               discriminant, qpoly)
from octaq.qcurve import (J_AT_CUSP, WITT_SAMPLES, SymbolicContext,
                          _composed_sum, _symbolic_weil_restriction,
                          curve_from_t, family, j_invariant_factored,
                          principal_quartic_poly, symbolic_suite,
                          t_from_principal, torsion_quartic,
                          weil_restriction_factor)
from octaq.quartic import (PrincipalQuartic, ReducedQuartic, is_principal,
                           same_field)
from octaq.rationals import is_square, squarefree_part
from oracles import (FunctionFieldContext, bareiss_weil_resultant,
                     binomial_expand, compose, quad_element_family,
                     resultant_bivariate, to_function_field)

# acceptance criterion 6's principal seeds (b, c)
CRITERION_6_SEEDS = [(1, -1), (2, -1), (3, 1), (1, 1), (2, 2), (4, 4),
                     (8, 4), (2, -2), (3, -1), (5, 3)]


def test_curve_from_t_minus_one():
    rec = curve_from_t(-1)
    assert rec.g_t == qpoly([24, 16, 0, 0, 1])
    assert rec.h_t == qpoly([51, 8, -6, 0, 1])
    A, B = rec.model
    assert (A.u, A.v) == (-30, -18)
    assert (B.u, B.v) == (56, 72)


@settings(max_examples=100, deadline=None)
@given(st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3)))
@example(Fraction(-1))
@example(Fraction(283, 27))
def test_curve_j_is_the_split_form(t):
    # the record's j, taken from the form over the rational (t - 1)^2, is
    # 64(5 + 3w)^3 / ((w - 1)^2 (w + 1)), cross-multiplied: no division
    assume(t not in (0, 1) and not is_square(t))
    rec = curve_from_t(t)
    K = rec.quad_field
    num, den = j_invariant_factored(K.sqrt_t)
    assert rec.j * den == num
    split_den = (t - 1) ** 2
    assert (rec.j.u, rec.j.v) == (
        64 * (27 * t**2 + 360 * t + 125) / split_den,
        128 * (81 * t + 175) / split_den)


def test_degenerate_parameters():
    for fn, t in product((curve_from_t, weil_restriction_factor),
                         (0, 1, 4, Fraction(9, 16), Fraction(9, 4))):
        with pytest.raises(DegenerateParameter):
            fn(t)
    assert J_AT_CUSP == 1728


def test_t_from_principal_example():
    g = PrincipalQuartic(1, -1)
    t = t_from_principal(g)
    assert t == Fraction(283, 27)
    assert squarefree_part(t) == 849 == squarefree_part(-3 * -283)
    with pytest.raises(NotOctahedral):
        t_from_principal(PrincipalQuartic(0, 1))  # x^4 + 1: b = 0


def test_principal_maps_reject_nonzero_a():
    # h_{-1} = x^4 - 6x^2 + 8x + 51 is irreducible but not of the shape
    # X^4 + bX + c; reading only b, c and disc used to give t = -729/4
    h = ReducedQuartic(-6, 8, 51)
    for fn in (t_from_principal, lambda g: family(g, 1)):
        with pytest.raises(NotPrincipal, match=r"x\^4 - 6\*x\^2"):
            fn(h)


def test_round_trip():
    rng = random.Random(79)
    done = 0
    while done < 100:
        t0 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if t0 in (0, 1) or is_square(t0):
            continue
        gt = principal_quartic_poly(QQ, t0)
        try:
            g = PrincipalQuartic(gt[1], gt[0])
        except Exception:
            continue  # reducible instance; the identity needs a field
        assert t_from_principal(g) == t0
        done += 1


def test_field_coherence():
    rng = random.Random(83)
    done = 0
    while done < 100:
        b = Fraction(rng.randint(-12, 12))
        c = Fraction(rng.randint(-12, 12))
        if b == 0 or c == 0:
            continue
        try:
            g = PrincipalQuartic(b, c)
        except Exception:
            continue
        if squarefree_part(g.disc()) == -3:
            continue
        t = t_from_principal(g)
        assert squarefree_part(t) == squarefree_part(-3 * g.disc())
        done += 1


def test_cyclotomic_excluded():
    # g_t at a square t has discriminant class -3
    found = False
    for m in (2, 3, 4, 5):
        t = Fraction(m * m)
        gt = principal_quartic_poly(QQ, t)
        try:
            g = PrincipalQuartic(gt[1], gt[0])
        except Exception:
            continue
        assert squarefree_part(g.disc()) == -3
        with pytest.raises(CyclotomicExcluded):
            t_from_principal(g)
        found = True
        break
    assert found


def test_t_from_principal_factors_nothing(monkeypatch):
    # t = -3 disc/(9 b^2)^2, so one square test of t decides the class -3,
    # with no factorization of the discriminant under any name
    import sys

    from octaq import rationals
    factorize, calls = rationals.factorize, []

    def spy(n, *args, **kwargs):
        calls.append(n)
        return factorize(n, *args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name == "octaq" or name.startswith("octaq."):
            for attr, value in list(vars(module).items()):
                if value is factorize:
                    monkeypatch.setattr(module, attr, spy)
    g4 = principal_quartic_poly(QQ, Fraction(4))  # discriminant class -3
    assert t_from_principal(PrincipalQuartic(1, -1)) == Fraction(283, 27)
    with pytest.raises(CyclotomicExcluded):
        t_from_principal(PrincipalQuartic(g4[1], g4[0]))
    assert calls == []


def test_family_spot_and_properties():
    g = PrincipalQuartic(1, -1)
    out, j = family(g, 0)
    assert is_principal(out.reduced())
    assert same_field(g.poly(), out.poly()) is not None
    with pytest.raises(ExcludedParameter):
        family(g, Fraction(-4 * g.c, 3 * g.b))


def test_family_many_parameters_same_field():
    rng = random.Random(89)
    g = PrincipalQuartic(2, -1)
    done = 0
    while done < 8:
        s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if 3 * g.b * s + 4 * g.c == 0:
            continue
        out, _ = family(g, s)
        assert is_principal(out.reduced())
        assert same_field(g.poly(), out.poly()) is not None
        done += 1


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.sampled_from(CRITERION_6_SEEDS),
                 st.tuples(small_rationals, small_rationals)),
       small_rationals)
def test_family_matches_quad_element_oracle(seed, s):
    try:
        g = PrincipalQuartic(*seed)
    except (Reducible, NotOctahedral):
        assume(False)
    try:
        expected = quad_element_family(g, s)
    except OctaqError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            family(g, s)
        return
    out, j = family(g, s)
    want_out, want_j = expected
    assert (out.b, out.c) == (want_out.b, want_out.c)
    assert (j.u, j.v, j.field.t) == (want_j.u, want_j.v, want_j.field.t)


def test_family_j_needs_no_quadratic_field_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("QuadElement arithmetic in family")
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__pow__"):
        monkeypatch.setattr(QuadElement, name, refuse)
    with pytest.raises(AssertionError):
        QuadField(2).sqrt_t ** 2
    for b, c in CRITERION_6_SEEDS:
        g = PrincipalQuartic(b, c)
        for s in (-3, -1, 1, 3):
            try:
                out, j = family(g, s)
            except Reducible:
                continue
            assert out.a == 0 and j.field.t == 3 * (27 * out.b**4
                                                     - 256 * out.c**3)


def test_family_j_matches_curve_j():
    # the family's j-invariant display agrees with j_t under
    # sqrt(3(27 b^4 - 256 c^3)) = 9 b^2 sqrt(t), up to conjugation
    g = PrincipalQuartic(1, -1)
    for s in (0, 1, Fraction(1, 2)):
        out, j_fam = family(g, s)
        t = t_from_principal(out)
        rec = curve_from_t(t)
        j_t = rec.j
        scale = 9 * out.b ** 2
        # map u + v*sqrt(D) to u + v*scale*sqrt(t)
        K = rec.quad_field
        mapped = K.element(j_fam.u, j_fam.v * scale)
        assert mapped in (j_t, K.element(j_t.u, -j_t.v))


def test_weil_restriction_numeric():
    wr = weil_restriction_factor(Fraction(-1))
    assert wr.resultant_degree == 16
    assert wr.divisible
    assert wr.cofactor.degree == 12
    assert wr.companion == qpoly([51, 8, -6, 0, 1])


def test_weil_restriction_symbolic():
    wr = _symbolic_weil_restriction(SymbolicContext())
    assert wr.resultant_degree == 16
    assert wr.divisible
    assert wr.cofactor.degree == 12


def test_weil_cofactors_match_bareiss_oracle():
    # W in Q[s] and at rational t against Res_Y(P, R) by Bareiss on Q(s)[X]
    # or Q[X] entries, coefficient by coefficient: Res_Y(P, R) = 4096 t^4 W,
    # with t = s^2 over Q(s)
    ff = FunctionFieldContext()
    cases = [(_symbolic_weil_restriction(SymbolicContext()),
              bareiss_weil_resultant(ctx=ff), ff.h_t, ff.field.embed(4096)
              * ff.s**8, lambda p: to_function_field(ff.field, p))]
    for t in (Fraction(-1), Fraction(2), Fraction(5, 3), Fraction(-7, 2)):
        cases.append((weil_restriction_factor(t), bareiss_weil_resultant(t),
                      curve_from_t(t).h_t, 4096 * t**4, lambda p: p))
    for wr, res, companion, scale, image in cases:
        w = image(wr.cofactor * wr.companion)
        assert wr.divisible and wr.resultant_degree == res.degree == 16
        assert image(wr.companion) == companion
        assert [c * scale for c in w.coeffs] == list(res.coeffs)


@settings(max_examples=40, deadline=None)
@given(*[st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                  min_size=3, max_size=3)] * 2)
@example([0, 0, 0], [0, 0, 0])         # X^4 twice: W = X^16
@example([1, -1, 0], [-3, 2, 1])       # x^4 - x - 1 with another quartic
def test_composed_sum_matches_resultant_oracle(fc, gc):
    # W(X) = prod (X - (a + b)/2) = Res_Y(f(Y), g(2X - Y)) / 2^16 by
    # Bareiss on Q[X] entries, for reduced rational quartics f and g
    f, g = qpoly(fc + [0, 1]), qpoly(gc + [0, 1])
    g_2x_minus_y = [compose(c, qpoly([0, 2]))
                    for c in binomial_expand(QQ, g.coeffs, QQ.embed(-1))]
    res = resultant_bivariate([qpoly([c]) for c in f.coeffs], g_2x_minus_y)
    assert _composed_sum(f, g) == res.scale(Fraction(1, 2**16))
    assert _composed_sum(f, g) == _composed_sum(g, f)


def test_weil_restriction_rejects_an_odd_entry(monkeypatch):
    # W over Q[s] is even in s, so weil_restriction_factor reads each
    # coefficient at t from its even entries; one nonzero odd entry, in the
    # constant term or at X^5, is an explicit OctaqError, not a wrong W
    from octaq import qcurve
    composed_sum = qcurve._composed_sum
    for k in (0, 5):
        def odd(f, g, k=k):
            w = composed_sum(f, g)
            return w + UniPoly(w.field, [w.field.zero] * k + [w.field.gen])
        monkeypatch.setattr(qcurve, "_composed_sum", odd)
        with pytest.raises(OctaqError, match="odd power of s"):
            weil_restriction_factor(Fraction(2))


def test_weil_restriction_reads_no_quad_coordinates(monkeypatch):
    # W is built over Q[s] and read at t: the coordinates u, v of the
    # Q(sqrt(t)) coefficients of f_t build no W, the oracle's Res_Y(P, R)
    # over 4096 t^4
    expected = {t: bareiss_weil_resultant(t).scale(1 / (4096 * t**4))
                for t in (Fraction(-1), Fraction(2), Fraction(-7, 2))}

    def refuse(self):
        raise AssertionError("QuadElement coordinates read")
    for name in ("u", "v"):
        monkeypatch.setattr(QuadElement, name, property(refuse))
    with pytest.raises(AssertionError):
        QuadField(2).sqrt_t.u
    for t, res in expected.items():
        wr = weil_restriction_factor(t)
        assert wr.divisible and (wr.resultant_degree, wr.cofactor) == \
            (16, res.divmod(wr.companion)[0])


def test_weil_restriction_reads_coefficient_denominators():
    # f_t(2X)/16 has the constant term -3(25 + 9t + 30s)/4; the resultant
    # of its expansion is divisible by h_t(2X)/16, with the same cofactor
    # degree, only if each coefficient is read with its denominator
    ctx = SymbolicContext()
    F = ctx.field
    halve = UniPoly(F, (F.zero, F.embed(2)))
    ctx.f_t, ctx.h_t = (compose(p, halve).scale(F.embed(Fraction(1, 16)))
                        for p in (ctx.f_t, ctx.h_t))
    assert ctx.f_t[0].den == 4
    wr = _symbolic_weil_restriction(ctx)
    assert wr.resultant_degree == 16 and wr.divisible
    assert wr.cofactor.degree == 12


def test_companion_disc_identity_at_samples():
    for t in (Fraction(-1), Fraction(2), Fraction(5, 3)):
        rec = curve_from_t(t)
        assert discriminant(rec.h_t) == -(2**8) * 3**9 * t * (t - 1) ** 2
        assert discriminant(rec.g_t) == -(2**8) * 27 * t * (t - 1) ** 8


def test_companion_witt_three_forms():
    # (-1,3) x (t,t-1) = (-1,3t) = (-1,-disc), and the trace form agrees
    from octaq.hilbert import brauer_class
    from octaq.quartic import trace_form as tf
    for t in (Fraction(-1), Fraction(2), Fraction(-5), Fraction(5, 3)):
        rec = curve_from_t(t)
        w = tf(ReducedQuartic(rec.h_t[2], rec.h_t[1], rec.h_t[0])).witt
        assert w == brauer_class(-1, 3) * brauer_class(t, t - 1)
        assert w == brauer_class(-1, 3 * t)
        assert w == brauer_class(-1, -discriminant(rec.h_t))
    # explicit value at t = -1
    from octaq.hilbert import INF
    rec = curve_from_t(Fraction(-1))
    w = tf(ReducedQuartic(rec.h_t[2], rec.h_t[1], rec.h_t[0])).witt
    assert w.ramified == frozenset({3, INF})


def test_principal_and_companion_define_same_field():
    for t in (Fraction(-1), Fraction(2), Fraction(5, 3)):
        rec = curve_from_t(t)
        assert same_field(rec.g_t, rec.h_t) is not None


def test_j_matches_weierstrass_invariants():
    # independent oracle: j = 1728 * 4A^3 / (4A^3 + 27B^2) of the model,
    # cross-multiplied with j = num/den in Q[s]
    from octaq.qcurve import (SymbolicContext, j_invariant_factored,
                              weierstrass_model)
    s = SymbolicContext().s
    A, B = weierstrass_model(s)
    num, den = j_invariant_factored(s)
    assert den and 4 * A**3 + 27 * B**2
    assert 1728 * 4 * A**3 * den == num * (4 * A**3 + 27 * B**2)


def test_symbolic_suite_all_pass():
    entries = symbolic_suite(samples=20)
    assert len(entries) == 8
    failed = [e.name for e in entries if not e.passed]
    assert not failed, failed


def test_witt_samples_are_valid_and_counted():
    assert len(set(WITT_SAMPLES)) == len(WITT_SAMPLES) == 24
    assert not any(t in (0, 1) or is_square(t) for t in WITT_SAMPLES)
    for samples in (0, -1, 25):
        with pytest.raises(ValueError, match="outside 1..24"):
            symbolic_suite(samples=samples)


def test_symbolic_suite_detects_mutation():
    ctx = SymbolicContext()
    # corrupt one coefficient of the principal quartic
    bad = list(ctx.g_t.coeffs)
    bad[1] = bad[1] + ctx.field.one
    ctx.g_t = UniPoly(ctx.field, bad)
    entries = symbolic_suite(samples=2, ctx=ctx)
    assert any(not e.passed for e in entries)


def test_symbolic_suite_reports_false_identities_and_raises_bugs(monkeypatch):
    # a false identity (a division that leaves Q[s] or is not exact) fails
    # its entry; any other exception is a bug and ends the command
    from octaq import qcurve
    from octaq.cli import main
    for exc in (ValueError("v"), ZeroDivisionError("z")):
        def false_identity(ctx, exc=exc):
            raise exc
        monkeypatch.setattr(qcurve, "_check_j_two_forms", false_identity)
        entry = symbolic_suite(samples=1)[6]
        assert entry.name == "j_invariant_two_forms" and not entry.passed
        assert entry.detail == f"{type(exc).__name__}: {exc}"

    for kind in (TypeError, AssertionError):
        def bug(ctx, kind=kind):
            raise kind("a bug, not a false identity")
        monkeypatch.setattr(qcurve, "_check_j_two_forms", bug)
        with pytest.raises(kind, match="a bug"):
            symbolic_suite(samples=1)
        with pytest.raises(kind, match="a bug"):
            main(["symbolic"])


def _failed_with(attr, corrupt):
    ctx = SymbolicContext()
    setattr(ctx, attr, corrupt(ctx, getattr(ctx, attr)))
    return {e.name for e in symbolic_suite(samples=2, ctx=ctx) if not e.passed}


def test_weil_entry_reads_the_companion_quartic():
    # h_t + 1 and h_t + sX: the Weil check divides by ctx.h_t
    for corrupt in (lambda ctx, h: h + UniPoly(ctx.field, (ctx.field.one,)),
                    lambda ctx, h: h + UniPoly(ctx.field, (0, ctx.s))):
        assert _failed_with("h_t", corrupt) == {
            "disc_companion_quartic", "companion_divides_weil_resultant",
            "tsc_companion_to_principal"}


def test_weil_entry_reads_the_torsion_quartic():
    # f_t + 1 and f_t + s X^2: the Weil check expands ctx.f_t
    for corrupt in (lambda ctx, f: f + UniPoly(ctx.field, (ctx.field.one,)),
                    lambda ctx, f: f + UniPoly(ctx.field, (0, 0, ctx.s))):
        assert _failed_with("f_t", corrupt) == {
            "tsc_torsion_to_principal", "tsc_principal_to_torsion",
            "companion_divides_weil_resultant"}


def test_tsc_principal_to_torsion_reads_the_context():
    # s^80 in the constant term of g_t: the image over Q[s] is no longer
    # L^(4-i) times the coefficients of f_t
    ctx = SymbolicContext()
    g = list(ctx.g_t.coeffs)
    g[0] = g[0] + ctx.s ** 80
    ctx.g_t = UniPoly(ctx.field, g)
    failed = {e.name for e in symbolic_suite(samples=1, ctx=ctx)
              if not e.passed}
    assert "tsc_principal_to_torsion" in failed


def test_tschirnhaus_entries_share_one_route(monkeypatch):
    # the three Tschirnhaus identities of the suite are each one call of
    # reduced_tschirnhaus_poly over the Q[s] of the context
    from octaq import qcurve
    fields = []
    inner = qcurve.reduced_tschirnhaus_poly

    def spy(f, m, n, p):
        fields.append(f.field)
        return inner(f, m, n, p)
    monkeypatch.setattr(qcurve, "reduced_tschirnhaus_poly", spy)
    ctx = SymbolicContext()
    assert all(e.passed for e in symbolic_suite(samples=1, ctx=ctx))
    assert len(fields) == 3 and all(F is ctx.field for F in fields)


@pytest.mark.parametrize("t", [2, -1, Fraction(5, 3), Fraction(-7, 2)])
def test_tsc_principal_to_torsion_in_the_quadratic_field(t):
    # without clearing: over Q(sqrt(t)), where dividing by the rational
    # t(t-1)^2 is allowed, Tsc(g_t; m, n, p) = f_t for the parameters
    # m = -4(t+3w)/(bt), n = 16cw/(b^2 t), p = -64c^2 w/(3b^3 t), which
    # are -(t+3w)/L, -3w(t-1)/L and -3w(t-1)^2/L, L = t(t-1)^2
    from octaq.quartic import reduced_tschirnhaus_poly
    t = Fraction(t)
    rec = curve_from_t(t)
    K, w = rec.quad_field, rec.quad_field.sqrt_t
    c, b = rec.g_t[0], rec.g_t[1]
    m = -4 * (t + 3 * w) / (b * t)
    n = 16 * c * w / (b * b * t)
    p = -64 * c * c * w / (3 * b**3 * t)
    big_l = t * (t - 1) ** 2
    assert (m, n, p) == (-(t + 3 * w) / big_l, -3 * w * (t - 1) / big_l,
                         -3 * w * (t - 1) ** 2 / big_l)
    g = UniPoly(K, [K.embed(x) for x in rec.g_t.coeffs])
    assert reduced_tschirnhaus_poly(g, m, n, p) == rec.f_t


def test_torsion_quartic_is_reduced():
    K = QuadField(Fraction(7))
    f = torsion_quartic(K, K.embed(7), K.sqrt_t)
    assert f.degree == 4 and not f[3]


def test_torsion_quartic_is_division_polynomial():
    # oracle: the 3-division polynomial of y^2 = x^3 + Ax + B is
    # 3x^4 + 6Ax^2 + 12Bx - A^2; f_t is its monic scaling
    from octaq.qcurve import SymbolicContext, weierstrass_model
    ctx = SymbolicContext()
    F, s = ctx.field, ctx.s
    A, B = weierstrass_model(s)
    psi3 = UniPoly(F, (-A * A, 12 * B, 6 * A, F.zero, F.embed(3)))
    assert psi3.scale(Fraction(1, 3)) == ctx.f_t
    # with no division in Q[s]: 3 f_t = psi_3, and the identity sees a
    # change of s in any one coefficient of f_t
    assert ctx.f_t.scale(3) == psi3
    for i in range(4):
        bad = list(ctx.f_t.coeffs)
        bad[i] = bad[i] + s
        assert UniPoly(F, bad).scale(3) != psi3
