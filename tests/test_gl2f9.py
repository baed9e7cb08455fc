import pytest

from octaq.errors import OctaqError
from octaq.gl2f9 import (F9_MUL, IDENTITY, I_UNIT, MINUS_ONE, ONE, S_MAT,
                         T_MAT, ZETA, ZETA_POW, _is_inner, _pgl_order,
                         classify_hjk, closure, five_groups, gl2f9, group,
                         h_jk, mat, mat_det, mat_inv, mat_mul, mat_order,
                         pgl2f9, pgl_canon, pgl_project, s4_conjugacy_scan,
                         scalar_mul, twist_f1, twist_f2, twist_phi,
                         verify_outer_involutions,
                         verify_subgroup_classification, verify_twist_map)


def test_field_construction_table():
    # zeta generates the multiplicative group: zeta^8 = 1, zeta^4 = -1
    assert ZETA_POW[8] == ONE
    assert ZETA_POW[4] == MINUS_ONE
    assert len({ZETA_POW[k] for k in range(8)}) == 8
    assert F9_MUL[I_UNIT][I_UNIT] == MINUS_ONE
    # field axioms spot-check: distributivity over all triples
    from octaq.gl2f9 import F9_ADD
    for x in range(9):
        for y in range(9):
            for z in range(9):
                assert F9_MUL[x][F9_ADD[y][z]] == \
                    F9_ADD[F9_MUL[x][y]][F9_MUL[x][z]]


def test_matrix_basics():
    assert mat_mul(S_MAT, S_MAT) == IDENTITY
    assert mat_order(S_MAT) == 2
    assert mat_order(T_MAT) == 6
    m = mat(ONE, ZETA, MINUS_ONE, I_UNIT)
    assert mat_mul(m, mat_inv(m)) == IDENTITY
    with pytest.raises(ZeroDivisionError):
        mat_inv(mat(ONE, ONE, ONE, ONE))


def test_closure_examples():
    assert group([IDENTITY]).order == 1
    assert group([S_MAT, T_MAT]).order == 48
    assert group([S_MAT, scalar_mul(ZETA, T_MAT)]).order == 192


def test_classify_examples():
    assert classify_hjk(0, 0) == (48, 24, "2S4+")
    assert classify_hjk(1, 0) == (96, 24, "4S4+")
    assert classify_hjk(2, 0) == (48, 48, "2S4-")
    assert classify_hjk(0, 2) == (96, 48, "4S4-")
    assert classify_hjk(0, 1) == (192, 48, "8S4-")


def test_full_group_orders():
    g = gl2f9()
    assert g.order == 5760
    assert g.sl2_order() == 720
    assert len(pgl2f9()) == 720


def test_subgroup_classification_ledger_all_pass():
    led = verify_subgroup_classification()
    failed = [e["name"] for e in led.entries if not e["passed"]]
    assert not failed, failed
    assert len(led.entries) == 16


def test_hjk_reduction_to_nine_cases():
    # zeta^4 = -1 already lies in GL2(F3), so j and j+4 give equal groups
    for j in range(4):
        for k in range(4):
            assert h_jk(j, k).elements == h_jk(j + 4, k).elements
            assert h_jk(j, k).elements == h_jk(j, k + 4).elements


def test_classify_exhaustive_over_all_pairs():
    # every generated subgroup lands on one of the five labelled classes
    seen = set()
    for j in range(8):
        for k in range(8):
            order, sl2, label = classify_hjk(j, k)
            assert label in {"2S4+", "4S4+", "2S4-", "4S4-", "8S4-"}, (j, k)
            seen.add(label)
    assert seen == {"2S4+", "4S4+", "2S4-", "4S4-", "8S4-"}


def test_outer_involutions_per_group():
    expected_names = {"G1": ["f1"], "G2": ["f1", "f2"], "G3": ["phi"],
                      "G4": ["phi", "f1"], "G5": ["phi", "f1", "f2"]}
    for name, grp in five_groups().items():
        res = verify_outer_involutions(grp)
        for twist in expected_names[name]:
            r = res[twist]
            assert r["defined"] and r["closed"], (name, twist)
            assert r["automorphism"], (name, twist)
            assert r["square_inner"], (name, twist)


def test_f2_trivial_on_gl2f3():
    # determinants in GL2(F3) square to 1, so f2 is the identity there
    from octaq.gl2f9 import twist_f2
    g1 = five_groups()["G1"]
    assert all(twist_f2(m) == m for m in g1.elements)


def _full_twist_check(g, twist):
    # the definitions, checked over all |G|^2 pairs and all candidates h
    mapping = {m: twist(m) for m in g.elements}
    homomorphism = all(
        mapping[mat_mul(a, b)] == mat_mul(mapping[a], mapping[b])
        for a in g.elements for b in g.elements)
    square_inner = any(
        all(mapping[mapping[m]] == mat_mul(mat_mul(h, m), mat_inv(h))
            for m in g.elements)
        for h in g.elements)
    return homomorphism, square_inner


def test_twist_check_on_generators_matches_full_check():
    twists = {"phi": twist_phi, "f1": twist_f1, "f2": twist_f2}
    for name, grp in five_groups().items():
        res = verify_outer_involutions(grp)
        for tname, twist in twists.items():
            r = res[tname]
            assert r["defined"] and r["closed"], (name, tname)
            assert (r["homomorphism"], r["square_inner"]) == \
                _full_twist_check(grp, twist), (name, tname)


def test_twist_check_rejects_swapped_bijection():
    # identity on G1 except for two swapped non-identity elements: a
    # bijection that is never a homomorphism.  Every pair is tried, so
    # swaps of x and x*s, which respect right multiplication by one
    # involutive generator s, are among them.
    from itertools import combinations
    g1 = five_groups()["G1"]
    for x, y in combinations(sorted(g1.elements - {IDENTITY}), 2):
        swap = {x: y, y: x}
        res = verify_twist_map(g1, lambda m: swap.get(m, m))
        assert res["bijective"] is True
        assert res["homomorphism"] is False, (x, y)
        assert res["automorphism"] is False
    assert _full_twist_check(g1, lambda m: swap.get(m, m))[0] is False
    # a swap that fixes the generators agrees with conjugation by 1 on
    # them; the inner test must still reject it on the other elements
    x, y = sorted(g1.elements - {IDENTITY, *g1.generators})[:2]
    swap = {x: y, y: x}
    assert _is_inner(g1, {m: swap.get(m, m) for m in g1.elements}) is False


def test_twist_check_uses_every_generator():
    # for each generator s, swap two cosets x<s> and y<s> (x c <-> y c for c
    # in <s>): the bijection respects right multiplication by s, so only the
    # other generator exposes that it is not a homomorphism
    g1 = five_groups()["G1"]
    for s in g1.generators:
        cyc = closure([s])
        x = min(g1.elements - cyc)
        y = min(g1.elements - cyc - {mat_mul(x, c) for c in cyc})
        swap = {}
        for c in cyc:
            swap[mat_mul(x, c)] = mat_mul(y, c)
            swap[mat_mul(y, c)] = mat_mul(x, c)
        res = verify_twist_map(g1, lambda m: swap.get(m, m))
        assert res["bijective"] is True
        assert res["homomorphism"] is False, s


def test_s4_scan_equals_conjugates_of_pgl2f3(monkeypatch):
    # independent of the triangle argument: the subgroups the scan closes
    # are exactly the conjugates of pi(GL2(F3)) under all of PGL2(F9)
    import octaq.gl2f9 as mod
    seen = []
    inner = mod._pgl_closure_capped

    def spy(a, b, cap):
        seen.append(inner(a, b, cap))
        return seen[-1]
    monkeypatch.setattr(mod, "_pgl_closure_capped", spy)
    res = s4_conjugacy_scan()
    assert res == {"subgroup_count": 30, "single_conjugacy_class": True}
    base = pgl_project(five_groups()["G1"].elements)
    orbit = set()
    for g in pgl2f9():
        gi = pgl_canon(mat_inv(g))
        orbit.add(frozenset(pgl_canon(mat_mul(mat_mul(g, m), gi))
                            for m in base))
    assert len(seen) == 30
    assert set(seen) == orbit


def test_s4_scan_rejects_a_bad_triangle_closure(monkeypatch):
    import octaq.gl2f9 as mod
    monkeypatch.setattr(mod, "_pgl_closure_capped", lambda a, b, cap: None)
    with pytest.raises(OctaqError, match="triangle pair"):
        s4_conjugacy_scan()


def test_triangle_pairs_count():
    # 720 = 24 * 30: each of the 30 S4 subgroups holds |Aut S4| = 24
    # generating pairs (a, b) with ord a = 4, ord b = 3, (ab)^2 = 1
    pgl = pgl2f9()
    order = {m: _pgl_order(m) for m in pgl}
    pairs = 0
    for a in pgl:
        for b in pgl:
            if order[a] == 4 and order[b] == 3:
                ab = pgl_canon(mat_mul(a, b))
                pairs += pgl_canon(mat_mul(ab, ab)) == IDENTITY
    assert pairs == 720


def test_pgl_order_is_capped():
    assert _pgl_order(IDENTITY) == 1
    assert _pgl_order(pgl_canon(T_MAT)) == 3  # T^3 = -1
    with pytest.raises(OctaqError, match="PGL2"):
        _pgl_order(mat(ONE, 0, 0, 0))  # singular, idempotent
