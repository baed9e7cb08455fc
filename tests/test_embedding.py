import random
from fractions import Fraction

import pytest

from octaq.embedding import (classify, decompose_discriminant, det_field,
                             endo_algebras, obstruction,
                             splitting_obstruction)
from octaq.errors import (CyclotomicExcluded, InvalidTypeParameter,
                          NotOctahedral)
from octaq.hilbert import brauer_class
from octaq.polynomials import qpoly
from octaq.quartic import ReducedQuartic, depress, galois_is_S4, trace_form
from octaq.rationals import squarefree_part
from octaq.tables import load_bundled_corpus

CORPUS = load_bundled_corpus()


def corpus_reports():
    for row in CORPUS:
        yield row, classify(depress(row.source_poly()))


def test_decompose_examples():
    d = decompose_discriminant(-283)
    assert (d.sign, d.nu, d.d1, d.d3, d.d5, d.d7) == (-1, 0, 1, 283, 1, 1)
    d = decompose_discriminant(squarefree_part(892))
    assert (d.sign, d.d7) == (1, 223) and d.d1 == d.d3 == d.d5 == 1
    d = decompose_discriminant(squarefree_part(-848))
    assert (d.sign, d.d5) == (-1, 53)
    with pytest.raises(ValueError):
        decompose_discriminant(12)  # not squarefree


def test_decompose_reconstructs():
    for d in (-795, 223, -53, 2021, -1, 2, -2, 105):
        dec = decompose_discriminant(d)
        assert dec.value() == d


def test_classify_examples():
    r = classify(depress(qpoly([-1, -1, 0, 0, 1])))   # d = -283
    assert (r.solvable_2s4_plus, r.solvable_4s4_plus, r.solvable_4s4_minus) \
        == (True, False, True)
    assert r.solvable_8s4_minus and r.type_8s4_minus == (1, -283)

    r = classify(depress(qpoly([1, -1, 0, 0, 1])))    # d = 229
    assert (r.solvable_2s4_plus, r.solvable_4s4_plus, r.solvable_4s4_minus) \
        == (False, True, False)
    assert r.type_8s4_minus == (229, -1)

    r = classify(depress(qpoly([1, -2, -1, 0, 1])))   # table 4 row -848
    assert not (r.solvable_2s4_plus or r.solvable_4s4_plus
                or r.solvable_4s4_minus)
    assert r.type_8s4_minus == (53, -1)


def test_classify_rejects_non_octahedral():
    with pytest.raises(NotOctahedral):
        classify(ReducedQuartic(0, 0, 1))


def test_classify_non_principal_field():
    # totally real S4 quartics are never principal, and the 8S4- problem
    # with the canonical type parameters is then unsolvable
    from octaq.polynomials import count_real_roots
    found = None
    for a in range(-10, 0):
        for b in range(-6, 7):
            for c in range(-6, 7):
                try:
                    f = ReducedQuartic(a, b, c)
                except Exception:
                    continue
                if count_real_roots(f.poly()) == 4 and galois_is_S4(f):
                    found = f
                    break
            if found:
                break
        if found:
            break
    assert found is not None
    report = classify(found)
    assert not report.principal
    assert not report.solvable_8s4_minus
    w = trace_form(found).witt
    dec = report.decomposition
    assert not obstruction(w, report.d, dec.d5, -dec.d3).is_trivial


def test_obstruction_principal_type_trivial():
    rng = random.Random(73)
    count = 0
    while count < 200:
        a, b, c = (Fraction(rng.randint(-15, 15)) for _ in range(3))
        try:
            f = ReducedQuartic(a, b, c)
        except Exception:
            continue
        if not galois_is_S4(f):
            continue
        from octaq.quartic import is_principal
        w = trace_form(f).witt
        d = f.disc_class()
        dec = decompose_discriminant(d)
        ob = obstruction(w, d, dec.d5, -dec.d3)
        assert ob.is_trivial == is_principal(f), (a, b, c)
        count += 1


def test_obstruction_two_s4_plus_reduction():
    # for a principal field, 2S4+ parameters reduce to (-2, -3d) triviality
    for row, report in corpus_reports():
        f = depress(row.source_poly())
        w = trace_form(f).witt
        ob = obstruction(w, report.d, 1, report.d)
        assert ob.is_trivial == report.norm_minus2, row.expected_disc


def test_obstruction_invalid_b():
    w = trace_form(ReducedQuartic(0, 1, -1)).witt
    with pytest.raises(InvalidTypeParameter):
        obstruction(w, -283, -5, 1)


def test_det_field_examples():
    assert det_field(1, -283).text == "Q(sqrt(-283))"
    fd = det_field(5, -3)
    assert fd.x == 1 and fd.text == "Q(sqrt(-3*(5 + sqrt(5))))"
    fd = det_field(2, -1)
    assert fd.x == 1 and fd.text == "Q(sqrt(-(2 + sqrt(2))))"
    assert det_field(4, 9).text == "Q"
    with pytest.raises(InvalidTypeParameter):
        det_field(3, -1)   # (-1, 3) nontrivial


def test_splitting_obstruction():
    w = trace_form(ReducedQuartic(0, 1, -1)).witt   # (-1, 283)
    s = splitting_obstruction(w, -283)
    assert s == w * brauer_class(-2, -283) * brauer_class(-1, -3)
    assert (s * s).is_trivial
    # trivial w and (-2, d) trivial leaves exactly (-1, -3) = {3, oo}
    from octaq.hilbert import INF, TRIVIAL
    assert splitting_obstruction(TRIVIAL, 1).ramified == frozenset({3, INF})


def test_endo_examples():
    by_disc = {row.expected_disc: report for row, report in corpus_reports()}
    e = endo_algebras(by_disc[-283])
    assert "Q(sqrt(-2))" in e.algebras()
    e = endo_algebras(by_disc[-1107])
    assert {"Q(sqrt(-2))", "Q(sqrt(2))", "Q(i)"} <= e.algebras()
    e = endo_algebras(by_disc[-7155])
    assert "Q(i)" in e.algebras()
    r = by_disc[-7155]
    assert not (r.solvable_2s4_plus or r.solvable_4s4_plus
                or r.solvable_4s4_minus)


def test_endo_biquadratic_always_present():
    for row, report in corpus_reports():
        e = endo_algebras(report)
        assert "Q(sqrt(2),sqrt(-2))" in e.algebras(), row.expected_disc
        labels = {c.label for c in e.cases}
        assert labels & {"d", "e", "f"}, row.expected_disc


def test_endo_case_parameters_satisfy_obstruction():
    # every emitted (b, r) is a valid type: the generic obstruction vanishes
    for row, report in corpus_reports():
        f = depress(row.source_poly())
        w = trace_form(f).witt
        e = endo_algebras(report)
        for case in e.cases:
            ob = obstruction(w, report.d, case.b, case.r)
            assert ob.is_trivial, (row.expected_disc, case.label)


def test_endo_splitting_field_shapes():
    # field shapes per construction: (a) the curve's quadratic field k,
    # (b) Q itself, (c) quadratic over k, (d) quadratic different from k,
    # (e) quadratic over Q(sqrt(d)), (f) quartic avoiding both
    from octaq.rationals import same_square_class
    for row, report in corpus_reports():
        d = report.d
        for case in endo_algebras(report).cases:
            ke = case.k_eps
            if case.label == "a":
                assert ke.x is None
                assert same_square_class(ke.r, -3 * d)
            elif case.label == "b":
                assert ke.text == "Q"
            elif case.label == "c":
                assert ke.x is not None
                assert same_square_class(case.b, -3 * d)
            elif case.label == "d":
                assert ke.x is None
                assert not same_square_class(ke.r, -3 * d)
                assert squarefree_part(ke.r) != 1
            elif case.label == "e":
                assert ke.x is not None and case.b == d
            elif case.label == "f":
                assert ke.x is not None
                for forbidden in (1, d, -3 * d):
                    assert not same_square_class(case.b, forbidden)


def test_endo_norm_flags_match_symbols():
    for row, report in corpus_reports():
        d = report.d
        assert report.star_norm2 == brauer_class(2, -3 * d).is_trivial
        assert report.norm_minus1 == brauer_class(-1, -3 * d).is_trivial
        assert report.norm_minus2 == brauer_class(-2, -3 * d).is_trivial


def test_mutual_exclusion_and_implication():
    for row, report in corpus_reports():
        # 2S4+ and 4S4+ never both solvable for these (non-real) closures
        assert not (report.solvable_2s4_plus and report.solvable_4s4_plus)
        # 4S4- solvable whenever 2S4+ is
        if report.solvable_2s4_plus:
            assert report.solvable_4s4_minus


def test_norm_all_three_iff_shape():
    # 2, -2, -1 all norms iff d = -2^nu 3 d1 in the square-class sense
    for row, report in corpus_reports():
        dec = report.decomposition
        shape = (dec.sign == -1 and dec.d3 == 3 and dec.d5 == 1
                 and dec.d7 == 1)
        all_norms = (report.star_norm2 and report.norm_minus1
                     and report.norm_minus2)
        assert shape == all_norms, row.expected_disc


def test_table5_discriminant_shape():
    # bucket-5 rows have d = -2^nu * 3 * d1 * d5 with d5 != 1
    for row, report in corpus_reports():
        if row.table_id != 5:
            continue
        dec = report.decomposition
        assert dec.sign == -1 and dec.d3 == 3 and dec.d7 == 1
        assert dec.d5 != 1


def test_cyclotomic_excluded():
    report = classify(depress(qpoly([-1, -1, 0, 0, 1])))
    fake = report.__class__(**{**report.__dict__, "d": -3})
    with pytest.raises(CyclotomicExcluded):
        endo_algebras(fake)
