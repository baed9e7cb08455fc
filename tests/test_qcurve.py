import random
from fractions import Fraction

import pytest

from octaq.errors import (CyclotomicExcluded, DegenerateParameter,
                          ExcludedParameter, NotOctahedral, NotPrincipal)
from octaq.polynomials import QQ, QuadField, UniPoly, discriminant, qpoly
from octaq.qcurve import (J_AT_CUSP, SymbolicContext, curve_from_t, family,
                          principal_quartic_poly, symbolic_suite,
                          t_from_principal, torsion_quartic,
                          tschirnhaus_to_torsion, weil_restriction_factor)
from octaq.quartic import (PrincipalQuartic, ReducedQuartic, is_principal,
                           same_field)
from octaq.rationals import is_square, squarefree_part


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
    for fn in (t_from_principal, tschirnhaus_to_torsion,
               lambda g: family(g, 1)):
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


def test_tschirnhaus_to_torsion_numeric():
    # verified internally through an exact polynomial identity over Q(sqrt t)
    t, K, (m, n, p) = tschirnhaus_to_torsion(PrincipalQuartic(1, -1))
    assert t == Fraction(283, 27)
    assert not m.is_rational and not n.is_rational


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
    wr = weil_restriction_factor(None)
    assert wr.resultant_degree == 16
    assert wr.divisible
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
    # independent oracle: j = 1728 * 4A^3 / (4A^3 + 27B^2) of the model
    from octaq.qcurve import (SymbolicContext, j_invariant_factored,
                              weierstrass_model)
    ctx = SymbolicContext()
    F, s, t = ctx.field, ctx.s, ctx.t
    A, B = weierstrass_model(F, s)
    e = F.embed
    j_model = (e(1728) * e(4) * A**3) / (e(4) * A**3 + e(27) * B**2)
    assert j_model == j_invariant_factored(F, t, s)


def test_symbolic_suite_all_pass():
    entries = symbolic_suite(samples=20)
    assert len(entries) == 8
    failed = [e.name for e in entries if not e.passed]
    assert not failed, failed


def test_symbolic_suite_detects_mutation():
    ctx = SymbolicContext()
    # corrupt one coefficient of the principal quartic
    bad = list(ctx.g_t.coeffs)
    bad[1] = bad[1] + ctx.field.one
    ctx.g_t = UniPoly(ctx.field, bad)
    entries = symbolic_suite(samples=2, ctx=ctx)
    assert any(not e.passed for e in entries)


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
