import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from octaq.errors import OctaqError
from octaq.gl2f9 import (F9_INV, F9_MUL, GL2_GENERATORS, IDENTITY, I_UNIT,
                         MINUS_ONE, ONE, S_MAT, T_MAT, ZERO, ZETA, ZETA_POW,
                         _PERM_ID, _TWIST_PLAN, _close, _compose, _generate,
                         _is_inner, _perm, _perm_order, _pgl2f9,
                         _projective_image, _scalar_words, classify_hjk,
                         closure,
                         five_groups, group, h_jk,
                         mat_det, mat_inv, mat_mul, projective_det,
                         s4_conjugacy_scan, scalar_mul, twist_f1, twist_f2,
                         twist_phi, verify_outer_involutions,
                         verify_subgroup_classification, verify_twist_map)
from oracles import (PACKED_IDENTITY, _pgl_mul, _pgl_order, gl2f9, mat,
                     mat_entries, packed_det, packed_inv, packed_mul,
                     packed_order, pgl2f3_conjugates, pgl2f9, pgl_canon)


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
    # the order of m is the size of the cyclic group it generates
    assert len(closure([S_MAT])) == 2
    assert len(closure([T_MAT])) == 6
    m = (ONE, ZETA, MINUS_ONE, I_UNIT)
    assert mat_mul(m, mat_inv(m)) == IDENTITY
    with pytest.raises(ZeroDivisionError):
        mat_inv((ONE, ONE, ONE, ONE))


def test_closure_examples():
    assert group([IDENTITY]).order == 1
    assert group([S_MAT, T_MAT]).order == 48
    assert group([S_MAT, scalar_mul(ZETA, T_MAT)]).order == 192


def test_closure_stops_past_its_cap():
    # a singular generator closes to more than the 5760 invertible matrices
    with pytest.raises(ValueError, match="exceeds"):
        closure([*GL2_GENERATORS, (ONE, ZERO, ZERO, ZERO)])
    perms = [_perm(g) for g in GL2_GENERATORS]
    assert _close(perms, _compose, _PERM_ID, 719) is None
    assert len(_close(perms, _compose, _PERM_ID, 720)) == 720


def test_closure_multiplies_through_the_module_binding(monkeypatch):
    # perfbench's tracer counts products by rebinding gl2f9.mat_mul; each
    # element passes the breadth-first frontier once, times each generator
    import octaq.gl2f9 as mod
    calls = []

    def counting(x, y):
        calls.append((x, y))
        return mat_mul(x, y)
    monkeypatch.setattr(mod, "mat_mul", counting)
    assert len(closure([S_MAT, T_MAT])) == 48
    assert len(calls) == 48 * 2


def test_generate_yields_identity_then_generators_then_each_element_once():
    els = list(_generate([S_MAT, T_MAT, S_MAT], mat_mul, IDENTITY))
    assert els[:3] == [IDENTITY, S_MAT, T_MAT]
    assert len(els) == len(set(els)) == 48
    assert set(els) == closure([S_MAT, T_MAT])
    assert list(_generate([], mat_mul, IDENTITY)) == [IDENTITY]


def test_minus_identity_search_matches_the_closures():
    # s^2, t^3 and (st)^4 are scalar elements of H_{j,k}, and -I lies in the
    # group they generate, as it lies in each of the 64 closures
    minus_id = scalar_mul(MINUS_ONE, IDENTITY)
    scalars = {scalar_mul(c, IDENTITY) for c in range(1, 9)}
    for j in range(8):
        for k in range(8):
            words = _scalar_words(j, k)
            els = h_jk(j, k).elements
            assert set(words) <= scalars & els, (j, k)
            assert minus_id in _generate(words, mat_mul, IDENTITY), (j, k)
            assert minus_id in els
    # without (st)^4 the words of H_{0,4} and H_{4,4} generate only I
    for j, k in ((0, 4), (4, 4)):
        assert set(_generate(_scalar_words(j, k)[:2], mat_mul,
                             IDENTITY)) == {IDENTITY}
    # <S> = {I, S} and the order-3 T^2 miss -I: the search ends, False
    assert minus_id not in _generate([S_MAT], mat_mul, IDENTITY)
    assert minus_id not in _generate([mat_mul(T_MAT, T_MAT)], mat_mul,
                                     IDENTITY)


def test_subgroup_classification_closes_only_what_it_reads(monkeypatch):
    # closing all 64 H_{j,k} would take 17,732 products; the ledger takes
    # 2700: 2 * 1056 for the nine closures the equalities read, 48 for
    # SL2(F3), 20 for the relations, 6 * 64 for the scalar words s^2, t^3
    # and (st)^4 and 136 for the 64 searches for -I among them
    import octaq.gl2f9 as mod
    calls = []

    def counting(x, y):
        calls.append(1)
        return mat_mul(x, y)
    monkeypatch.setattr(mod, "mat_mul", counting)
    assert verify_subgroup_classification().ok
    assert len(calls) < 3000


def test_five_groups_reuse_the_ledger_closures(monkeypatch):
    # each H_{j,k} is closed once per process: the five groups the ledger
    # has closed cost no product when five_groups asks for them again
    import octaq.gl2f9 as mod
    calls = []

    def counting(x, y):
        calls.append(1)
        return mat_mul(x, y)
    monkeypatch.setattr(mod, "mat_mul", counting)
    verify_subgroup_classification()
    calls.clear()
    groups = five_groups()
    assert calls == []
    assert {k: g.order for k, g in groups.items()} == {
        "G1": 48, "G2": 96, "G3": 48, "G4": 96, "G5": 192}
    assert h_jk(8, -8) is h_jk(0, 0) is groups["G1"]


def test_classify_examples():
    assert classify_hjk(0, 0) == (48, 24, "2S4+")
    assert classify_hjk(1, 0) == (96, 24, "4S4+")
    assert classify_hjk(2, 0) == (48, 48, "2S4-")
    assert classify_hjk(0, 2) == (96, 48, "4S4-")
    assert classify_hjk(0, 1) == (192, 48, "8S4-")


def test_full_group_orders():
    g = group(GL2_GENERATORS)
    assert g.order == 5760
    assert g.sl2_order() == 720
    assert g.elements == frozenset(map(mat_entries, gl2f9()))
    assert len(pgl2f9()) == 720
    # the 720 permutations are the images of the oracle's 720 canonical
    # representatives, one each: the action on P^1(F9) is faithful
    pgl = _pgl2f9()
    assert len(pgl) == 720
    assert pgl == {_perm(mat_entries(m)) for m in pgl2f9()}


invertible = st.tuples(*[st.integers(0, 8)] * 4).filter(
    lambda m: mat_det(m) != ZERO)


@settings(max_examples=200, deadline=None)
@given(invertible, invertible)
@example(S_MAT, T_MAT)  # S T != T S in PGL2(F9): _compose's order shows
def test_tuple_arithmetic_matches_packed_oracle(m, n):
    pm, pn = mat(*m), mat(*n)
    assert mat_mul(m, n) == mat_entries(packed_mul(pm, pn))
    assert mat_inv(m) == mat_entries(packed_inv(pm))
    assert mat_det(m) == packed_det(pm)
    assert len(closure([m])) == packed_order(pm)
    # the action on P^1(F9) is a homomorphism to Sym(P^1), and the order of
    # a permutation is the oracle's order in PGL2(F9)
    assert _perm(mat_mul(m, n)) == _compose(_perm(m), _perm(n))
    assert _compose(_perm(m), _perm(mat_inv(m))) == tuple(range(10))
    assert _perm_order(_perm(m)) == _pgl_order(pgl_canon(pm))


def test_subgroup_classification_ledger_all_pass():
    led = verify_subgroup_classification()
    failed = [e["name"] for e in led.entries if not e["passed"]]
    assert not failed, failed
    assert len(led.entries) == 16


def test_projective_image_from_generators_is_the_elementwise_image():
    # pi(<gens>) = <pi(gens)>: the ledger's pi(Gj) reads only generators
    images = {name: _projective_image(g) for name, g in five_groups().items()}
    for name, g in five_groups().items():
        assert images[name] == frozenset(map(_perm, g.elements))
    assert set(images.values()) == {images["G1"]}
    assert len(images["G1"]) == 24


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


def test_hjk_collapse_onto_five_groups():
    # the 64 subgroups <zeta^j S, zeta^k T> are, as sets, the five groups
    named = {g.elements: name for name, g in five_groups().items()}
    counts = {}
    for j in range(8):
        for k in range(8):
            name = named[h_jk(j, k).elements]
            counts[name] = counts.get(name, 0) + 1
    assert counts == {"G1": 4, "G2": 16, "G3": 4, "G4": 8, "G5": 32}


def test_outer_involutions_per_group():
    expected_names = {"G1": ["f1"], "G2": ["f1", "f2"], "G3": ["phi"],
                      "G4": ["phi", "f1"], "G5": ["phi", "f1", "f2"]}
    # the plan the CLI requires is this one
    assert {k: list(v) for k, v in _TWIST_PLAN.items()} == expected_names
    for name, grp in five_groups().items():
        res = verify_outer_involutions(grp)
        for twist in expected_names[name]:
            r = res[twist]
            assert r["defined"] and r["closed"], (name, twist)
            assert r["automorphism"], (name, twist)
            assert r["square_inner"], (name, twist)


def test_projective_det_matches_search_over_scalars():
    # phi needs m = lambda m0 with m0 over F3; search every lambda in F9*
    from itertools import product
    for m in product(range(9), repeat=4):
        if mat_det(m) == ZERO:
            continue
        over_f3 = [scalar_mul(F9_INV[lam], m) for lam in range(1, 9)]
        dets = {mat_det(m0) for m0 in over_f3 if set(m0) <= {0, 1, 2}}
        if dets:
            assert dets == {projective_det(m)}, m
        else:
            with pytest.raises(ValueError):
                projective_det(m)
    off_f3 = group([(ONE, ZETA, ZERO, ONE)])
    assert verify_twist_map(off_f3, twist_phi) == {"defined": False}


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
    # and it accepts conjugation by a non-central element
    h = g1.generators[1]
    assert _is_inner(g1, {m: mat_mul(mat_mul(h, m), mat_inv(h))
                          for m in g1.elements}) is True


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
    # independent of the one-class argument: the subgroups the scan counts,
    # each named by its six elements of order 4, are exactly the oracle's
    # conjugates of pi(GL2(F3)) under all of PGL2(F9), each mapped to its
    # permutations of P^1(F9)
    import octaq.gl2f9 as mod
    orbits = []
    inner = mod._conjugates

    def spy(elements):
        orbits.append(inner(elements))
        return orbits[-1]
    monkeypatch.setattr(mod, "_conjugates", spy)
    res = s4_conjugacy_scan()
    assert res == {"subgroup_count": 30, "single_conjugacy_class": True}
    counted = [o for o in orbits if all(len(s) == 6 for s in o)]
    assert len(counted) == 1
    orbit = pgl2f3_conjugates()
    mapped = {frozenset(_perm(mat_entries(m)) for m in sub) for sub in orbit}
    # the six elements of order 4 name the subgroup
    named = {frozenset(_perm(mat_entries(m)) for m in sub
                       if _pgl_order(m) == 4) for sub in orbit}
    assert len(orbit) == len(mapped) == len(named) == 30
    assert counted[0] == named


def test_s4_scan_closes_two_triangle_pairs(monkeypatch):
    # the least element of order 4 lies in 30 * 6 / 90 = 2 of the S4
    # subgroups, and the scan closes one triangle pair for each
    import octaq.gl2f9 as mod
    closed = []
    inner = mod._close

    def spy(gens, mul, identity, cap):
        out = inner(gens, mul, identity, cap)
        if cap == 24 and len(gens) == 2:        # a triangle pair (a0, b)
            closed.append(out)
        return out
    monkeypatch.setattr(mod, "_close", spy)
    s4_conjugacy_scan()
    a0 = min(p for p in _pgl2f9() if _perm_order(p) == 4)
    assert len(closed) == len(set(closed)) == 2
    assert all(len(sub) == 24 and a0 in sub for sub in closed)


def test_s4_scan_rejects_order_four_elements_outside_one_class(monkeypatch):
    import octaq.gl2f9 as mod
    perm_order = mod._perm_order
    eight = min(p for p in _pgl2f9() if perm_order(p) == 8)
    monkeypatch.setattr(mod, "_perm_order",
                        lambda p: 4 if p == eight else perm_order(p))
    with pytest.raises(OctaqError, match="not one conjugacy class"):
        s4_conjugacy_scan()


def test_s4_scan_rejects_a_bad_triangle_closure(monkeypatch):
    import octaq.gl2f9 as mod
    inner = mod._close
    # no triangle pair (a0, b) closes within its cap
    monkeypatch.setattr(mod, "_close", lambda gens, mul, identity, cap: None
                        if cap == 24 and len(gens) == 2
                        else inner(gens, mul, identity, cap))
    with pytest.raises(OctaqError, match="triangle pair"):
        s4_conjugacy_scan()


def test_s4_scan_rejects_generators_that_miss_pgl2f9(monkeypatch):
    # S and T close to PGL2(F3), 24 permutations: not a proof of anything
    import octaq.gl2f9 as mod
    monkeypatch.setattr(mod, "GL2_GENERATORS", (S_MAT, T_MAT))
    with pytest.raises(OctaqError, match="720"):
        s4_conjugacy_scan()


def test_perm_order_is_the_least_power_to_the_identity():
    # the order read off one cycle against the definition: the least k
    # with p^k = 1, by repeated composition
    census = {}
    for p in _pgl2f9():
        k, q = 1, p
        while q != _PERM_ID:
            k, q = k + 1, _compose(q, p)
        assert _perm_order(p) == k, p
        census[k] = census.get(k, 0) + 1
    assert census == {1: 1, 2: 81, 3: 80, 4: 90, 5: 144, 8: 180, 10: 144}


def test_triangle_pairs_count():
    # 720 = 24 * 30: each of the 30 S4 subgroups holds |Aut S4| = 24
    # generating pairs (a, b) with ord a = 4, ord b = 3, (ab)^2 = 1; the
    # oracle's count over canonical representatives, then over permutations
    pgl = pgl2f9()
    order = {m: _pgl_order(m) for m in pgl}
    pairs = 0
    for a in pgl:
        for b in pgl:
            if order[a] == 4 and order[b] == 3:
                ab = _pgl_mul(a, b)
                pairs += _pgl_mul(ab, ab) == PACKED_IDENTITY
    assert pairs == 720
    perms = _pgl2f9()
    order = {p: _perm_order(p) for p in perms}
    assert sum(order[_compose(a, b)] <= 2
               for a in perms if order[a] == 4
               for b in perms if order[b] == 3) == 720


def test_pgl_order_is_capped():
    assert _pgl_order(PACKED_IDENTITY) == 1
    assert _pgl_order(pgl_canon(mat(*T_MAT))) == 3  # T^3 = -1
    with pytest.raises(OctaqError, match="PGL2"):
        _pgl_order(mat(ONE, 0, 0, 0))  # singular, idempotent
    # a singular matrix induces no permutation of P^1(F9)
    assert _perm_order(_perm(T_MAT)) == 3
    with pytest.raises(OctaqError, match="PGL2"):
        _perm((ONE, 0, 0, 0))
