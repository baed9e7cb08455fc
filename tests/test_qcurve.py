import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from octaq.errors import (CyclotomicExcluded, DegenerateParameter,
                          ExcludedParameter, NotOctahedral, NotPrincipal,
                          OctaqError, Reducible)
from octaq.polynomials import (QQ, QuadElement, QuadField, UniPoly,
                               discriminant, qpoly)
from octaq.qcurve import (J_AT_CUSP, WITT_SAMPLES, SymbolicContext,
                          _symbolic_weil_restriction, curve_from_t, family,
                          principal_quartic_poly, symbolic_suite,
                          t_from_principal, torsion_quartic,
                          weil_restriction_factor)
from octaq.quartic import (PrincipalQuartic, ReducedQuartic, is_principal,
                           same_field)
from octaq.rationals import is_square, squarefree_part
from oracles import (FunctionFieldContext, bareiss_weil_resultant, compose,
                     quad_element_family, to_function_field)

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


def test_degenerate_parameters():
    for t in (0, 1, 4, Fraction(9, 16)):
        with pytest.raises(DegenerateParameter):
            curve_from_t(t)
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
        assert mapped in (j_t, j_t.conjugate())


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
    # the resultant in Q[s] and at rational t against Bareiss on Q(s)[X] or
    # Q[X] entries: same resultant, so the same cofactor of h_t
    ff = FunctionFieldContext()
    cases = [(_symbolic_weil_restriction(SymbolicContext()),
              bareiss_weil_resultant(ctx=ff), ff.h_t,
              lambda p: to_function_field(ff.field, p))]
    for t in (Fraction(-1), Fraction(2), Fraction(5, 3)):
        cases.append((weil_restriction_factor(t), bareiss_weil_resultant(t),
                      curve_from_t(t).h_t, lambda p: p))
    for wr, res, companion, image in cases:
        quot, rem = res.divmod(companion)
        assert rem.is_zero() and wr.divisible
        assert wr.resultant_degree == res.degree == 16
        assert image(wr.companion) == companion
        assert image(wr.cofactor) == quot


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
    ctx = SymbolicContext()
    F, s, t = ctx.field, ctx.s, ctx.t
    A, B = weierstrass_model(F, s)
    e = F.embed
    num, den = j_invariant_factored(F, t, s)
    assert den and e(4) * A**3 + e(27) * B**2
    assert e(1728) * e(4) * A**3 * den == num * (e(4) * A**3 + e(27) * B**2)


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
    for exc in (ValueError("v"), ZeroDivisionError("z"), AssertionError("a")):
        def false_identity(ctx, exc=exc):
            raise exc
        monkeypatch.setattr(qcurve, "_check_j_two_forms", false_identity)
        entry = symbolic_suite(samples=1)[6]
        assert entry.name == "j_invariant_two_forms" and not entry.passed
        assert entry.detail == f"{type(exc).__name__}: {exc}"

    def bug(ctx):
        raise TypeError("a bug, not a false identity")
    monkeypatch.setattr(qcurve, "_check_j_two_forms", bug)
    with pytest.raises(TypeError, match="a bug"):
        symbolic_suite(samples=1)
    with pytest.raises(TypeError, match="a bug"):
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


def _tsc_nodes(ctx):
    """(D, number of integer nodes) of the tsc_principal_to_torsion check
    on ctx, and its result."""
    from octaq import qcurve
    calls = []

    def spying(values, div):
        calls.append(sides(values, div))
        return calls[-1]
    sides = qcurve._tsc_sides
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcurve, "_tsc_sides", spying)
        passed = qcurve._check_tsc_principal_to_torsion(ctx)
    degrees, *nodes = calls
    bound = max(x.d for side in degrees for x in side
                if isinstance(x, qcurve._Degree) and x)
    return bound, len(nodes), passed


def test_tsc_principal_to_torsion_degree_bound():
    # the bound is the true s-degree of the image over Q[s]: 58 from the
    # X^0 coefficient, (f_0 L^4 = 2 + 4 * 14), so 59 nodes
    from octaq.quartic import reduced_tschirnhaus_poly
    ctx = SymbolicContext()
    assert _tsc_nodes(ctx) == (58, 59, True)
    e, t, s = ctx.e, ctx.t, ctx.s
    b, c = e(4) * (t - e(1)) ** 2, e(-3) * (t - e(1)) ** 3
    image = reduced_tschirnhaus_poly(
        ctx.g_t, e(-12) * (t + e(3) * s) * b**2, e(48) * c * s * b,
        e(-64) * c**2 * s)
    assert max(len(x.num) - 1 for x in image.coeffs) == 58


def test_tsc_principal_to_torsion_bound_reads_the_context():
    # s^80 in the constant term of g_t raises the bound with it: roots of
    # size s^20, so 4 (10 + 3 * 20) for E4, M of degree 10 being the Y^3
    # coefficient; the check stops at the first node that differs
    ctx = SymbolicContext()
    g = list(ctx.g_t.coeffs)
    g[0] = g[0] + ctx.s ** 80
    ctx.g_t = UniPoly(ctx.field, g)
    bound, nodes, passed = _tsc_nodes(ctx)
    assert bound == 280 and nodes <= bound + 1 and not passed
    failed = {e.name for e in symbolic_suite(samples=1, ctx=ctx)
              if not e.passed}
    assert "tsc_principal_to_torsion" in failed


def test_torsion_quartic_is_reduced():
    K = QuadField(Fraction(7))
    f = torsion_quartic(K, K.embed(7), K.sqrt_t)
    assert f.degree == 4 and not f[3]


def test_torsion_quartic_is_division_polynomial():
    # oracle: the 3-division polynomial of y^2 = x^3 + Ax + B is
    # 3x^4 + 6Ax^2 + 12Bx - A^2; f_t is its monic scaling
    from octaq.qcurve import SymbolicContext, weierstrass_model
    ctx = SymbolicContext()
    F, s, t = ctx.field, ctx.s, ctx.t
    A, B = weierstrass_model(F, s)
    e = F.embed
    psi3 = UniPoly(F, (-A * A, e(12) * B, e(6) * A, F.zero, e(3)))
    assert psi3.scale(e(1) / e(3)) == ctx.f_t
    # with no division in Q[s]: 3 f_t = psi_3, and the identity sees a
    # change of s in any one coefficient of f_t
    assert ctx.f_t.scale(e(3)) == psi3
    for i in range(4):
        bad = list(ctx.f_t.coeffs)
        bad[i] = bad[i] + s
        assert UniPoly(F, bad).scale(e(3)) != psi3
