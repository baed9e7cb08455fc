"""Exact finite computations in GL2(F9).

F9 = F3[zeta] with zeta^2 = zeta + 1, so zeta generates the multiplicative
group (order 8) and i = zeta^2.  Field elements are coded 0..8 as
a + 3b for a + b zeta; 2x2 matrices are packed into a single integer
base 81, and all arithmetic runs through precomputed tables.  Groups are
stored as explicit frozensets of packed matrices (at most 5760 elements)
together with the generators they were closed from.

The verified statements: the generator relations between powers of
zeta^j S and zeta^k T, the collapse of the 64 subgroups <zeta^j S,
zeta^k T> onto five groups G1..G5, their order table together with the
SL2 intersections (which pins the 2^r S4^+- label of each), maximality of
the index-2 members, the behaviour of the three scalar-twist involutions
on each group, and the uniqueness of the S4 conjugacy class in PGL2(F9).

Two of these proofs work on generators rather than on all elements.  A
map on a finite group is multiplicative as soon as phi(a s) = phi(a)
phi(s) for every element a and every generator s (induction on word
length; inverses are positive powers).  S4 is the (2,3,4) von Dyck group
<x, y | x^4 = y^3 = (xy)^2 = 1> (Coxeter-Moser), so every S4 subgroup of
PGL2(F9) is generated by a "triangle pair" (a, b) of orders 4 and 3 with
(ab)^2 = 1, and every triangle pair generates a quotient of S4, which the
scan proves to be S4 itself.  The orbit of a subgroup under conjugation
by a finite group is its closure under conjugation by the generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product

from .errors import OctaqError

# -- field tables --------------------------------------------------------------

# code = a + 3b  <->  a + b*zeta, zeta^2 = zeta + 1


def _mul_codes(x: int, y: int) -> int:
    a0, a1 = x % 3, x // 3
    b0, b1 = y % 3, y // 3
    c0 = (a0 * b0 + a1 * b1) % 3
    c1 = (a0 * b1 + a1 * b0 + a1 * b1) % 3
    return c0 + 3 * c1


F9_ADD = [[(x % 3 + y % 3) % 3 + 3 * ((x // 3 + y // 3) % 3)
           for y in range(9)] for x in range(9)]
F9_MUL = [[_mul_codes(x, y) for y in range(9)] for x in range(9)]
F9_NEG = [F9_MUL[x][2] for x in range(9)]

ZERO, ONE = 0, 1
MINUS_ONE = 2
ZETA = 3
ZETA_POW = [ONE]
for _ in range(8):
    ZETA_POW.append(F9_MUL[ZETA_POW[-1]][ZETA])
I_UNIT = ZETA_POW[2]

F9_INV = [0] * 9
for _x in range(1, 9):
    F9_INV[_x] = next(y for y in range(1, 9) if F9_MUL[_x][y] == ONE)

F9_UNITS = tuple(range(1, 9))


# -- packed 2x2 matrices -------------------------------------------------------


def mat(e00: int, e01: int, e10: int, e11: int) -> int:
    return e00 + 81 * e01 + 81 * 81 * e10 + 81 * 81 * 81 * e11


def _unpack(m: int) -> tuple[int, int, int, int]:
    return m % 81, (m // 81) % 81, (m // 6561) % 81, m // 531441


def mat_entries(m: int) -> tuple[int, int, int, int]:
    a, b, c, d = _unpack(m)
    return a % 9, b % 9, c % 9, d % 9


def _pack(a: int, b: int, c: int, d: int) -> int:
    return a + 81 * b + 6561 * c + 531441 * d


def mat_mul(x: int, y: int) -> int:
    xa, xb, xc, xd = mat_entries(x)
    ya, yb, yc, yd = mat_entries(y)
    add, mul = F9_ADD, F9_MUL
    return _pack(
        add[mul[xa][ya]][mul[xb][yc]],
        add[mul[xa][yb]][mul[xb][yd]],
        add[mul[xc][ya]][mul[xd][yc]],
        add[mul[xc][yb]][mul[xd][yd]],
    )


def mat_det(m: int) -> int:
    a, b, c, d = mat_entries(m)
    return F9_ADD[F9_MUL[a][d]][F9_NEG[F9_MUL[b][c]]]


def mat_inv(m: int) -> int:
    a, b, c, d = mat_entries(m)
    det = mat_det(m)
    if det == ZERO:
        raise ZeroDivisionError("singular matrix")
    di = F9_INV[det]
    return _pack(F9_MUL[di][d], F9_MUL[di][F9_NEG[b]],
                 F9_MUL[di][F9_NEG[c]], F9_MUL[di][a])


def scalar_mul(c: int, m: int) -> int:
    a, b, cc, d = mat_entries(m)
    return _pack(F9_MUL[c][a], F9_MUL[c][b], F9_MUL[c][cc], F9_MUL[c][d])


def scalar_mat(c: int) -> int:
    return _pack(c, ZERO, ZERO, c)


IDENTITY = scalar_mat(ONE)
S_MAT = mat(ONE, ZERO, ZERO, MINUS_ONE)
T_MAT = mat(ONE, MINUS_ONE, ONE, ZERO)


def mat_order(m: int) -> int:
    k, cur = 1, m
    while cur != IDENTITY:
        cur = mat_mul(cur, m)
        k += 1
        if k > 5760:
            raise ValueError("not an element of GL2(F9)")
    return k


# -- groups --------------------------------------------------------------------


@dataclass(frozen=True)
class MatGroup:
    elements: frozenset
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def sl2_order(self) -> int:
        return sum(1 for m in self.elements if mat_det(m) == ONE)


def closure(generators) -> frozenset:
    gens = [g for g in generators if g != IDENTITY]
    seen = {IDENTITY, *gens}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
        if len(seen) > 5760:
            raise ValueError("closure exceeds |GL2(F9)|")
    return frozenset(seen)


def group(generators) -> MatGroup:
    gens = tuple(generators)
    for g in gens:
        if mat_det(g) == ZERO:
            raise ValueError("generators must be invertible")
    els = closure(gens)
    if 5760 % len(els):
        raise OctaqError(f"closure of order {len(els)} does not divide 5760")
    return MatGroup(elements=els, generators=gens)


def set_product(scalars, elements) -> frozenset:
    return frozenset(scalar_mul(c, m) for c in scalars for m in elements)


def h_jk(j: int, k: int) -> MatGroup:
    return group([scalar_mul(ZETA_POW[j % 8], S_MAT),
                  scalar_mul(ZETA_POW[k % 8], T_MAT)])


_LABELS = {(48, 24): "2S4+", (96, 24): "4S4+", (48, 48): "2S4-",
           (96, 48): "4S4-", (192, 48): "8S4-"}


def classify_hjk(j: int, k: int) -> tuple[int, int, str]:
    """(order, order of the SL2 intersection, central-extension label).

    The pair of orders determines the isomorphism class among the five
    candidate central extensions of S4."""
    g = h_jk(j, k)
    key = (g.order, g.sl2_order())
    return key[0], key[1], _LABELS.get(key, f"unknown{key}")


# -- PGL2(F9) ------------------------------------------------------------------


def pgl_canon(m: int) -> int:
    """Scale by F9* so the first nonzero entry is 1."""
    for e in mat_entries(m):
        if e != ZERO:
            return scalar_mul(F9_INV[e], m)
    raise ValueError("zero matrix")


def pgl_project(elements) -> frozenset:
    return frozenset(pgl_canon(m) for m in elements)


_GL2F9 = None
_PGL2F9 = None


def gl2f9() -> MatGroup:
    """The full group, generated by a verified pair."""
    global _GL2F9
    if _GL2F9 is None:
        # diag(zeta, 1) and the order-3-ish companion generate everything
        g1 = mat(ZETA, ZERO, ZERO, ONE)
        g2 = mat(MINUS_ONE, ONE, MINUS_ONE, ZERO)
        full = group([g1, g2])
        if full.order != 5760:
            raise OctaqError(f"generators give order {full.order}, not 5760")
        _GL2F9 = full
    return _GL2F9


def pgl2f9() -> frozenset:
    global _PGL2F9
    if _PGL2F9 is None:
        _PGL2F9 = pgl_project(gl2f9().elements)
    return _PGL2F9


# -- subgroup classification checks ----------------------------------------------


@dataclass
class CheckLedger:
    entries: list = field(default_factory=list)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append({"name": name, "passed": bool(passed),
                             **({"detail": detail} if detail else {})})

    @property
    def ok(self) -> bool:
        return all(e["passed"] for e in self.entries)


def _pow(m: int, k: int) -> int:
    out = IDENTITY
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def verify_generator_relations(ledger: CheckLedger) -> None:
    zS = scalar_mul(ZETA, S_MAT)
    z3S = scalar_mul(ZETA_POW[3], S_MAT)
    zT = scalar_mul(ZETA, T_MAT)
    z3T = scalar_mul(ZETA_POW[3], T_MAT)
    ledger.check("(zeta S)^3 = zeta^3 S", _pow(zS, 3) == z3S)
    ledger.check("(zeta^3 S)^3 = zeta S", _pow(z3S, 3) == zS)
    ledger.check("(zeta T)^7 = -zeta^3 T",
                 _pow(zT, 7) == scalar_mul(MINUS_ONE, z3T))
    ledger.check("(zeta^3 T)^7 = -zeta T",
                 _pow(z3T, 7) == scalar_mul(MINUS_ONE, zT))


def five_groups() -> dict[str, MatGroup]:
    return {"G1": h_jk(0, 0), "G2": h_jk(1, 0), "G3": h_jk(2, 0),
            "G4": h_jk(0, 2), "G5": h_jk(0, 1)}


def verify_subgroup_classification() -> CheckLedger:
    """Reproduce the subgroup classification: relations, collapse of the
    H_{j,k} onto five groups, the order table with SL2 intersections,
    maximality, common projective image, and scalar containment."""
    led = CheckLedger()
    verify_generator_relations(led)

    gs = five_groups()
    g1, g2, g3, g4, g5 = (gs[k].elements for k in ("G1", "G2", "G3", "G4", "G5"))

    led.check("H_{1,0} = H_{1,2}", g2 == h_jk(1, 2).elements)
    i_gl2f3 = set_product([ZETA_POW[2 * k] for k in range(4)], g1)
    led.check("H_{0,2} = H_{2,2} = <i>GL2(F3)",
              g4 == h_jk(2, 2).elements == i_gl2f3)
    f9s_gl2f3 = set_product(F9_UNITS, g1)
    led.check("H_{0,1} = H_{1,1} = H_{2,1} = F9*GL2(F3)",
              g5 == h_jk(1, 1).elements == h_jk(2, 1).elements == f9s_gl2f3)
    led.check("<i>G1 = <i>G3 = G4",
              set_product([ONE, I_UNIT, MINUS_ONE, ZETA_POW[6]], g1)
              == set_product([ONE, I_UNIT, MINUS_ONE, ZETA_POW[6]], g3) == g4)
    led.check("F9*G1 = F9*G3 = G5",
              set_product(F9_UNITS, g1) == set_product(F9_UNITS, g3) == g5)

    minus_id = scalar_mat(MINUS_ONE)
    led.check("F3* in every H_{j,k}",
              all(minus_id in h_jk(j, k).elements
                  for j, k in product(range(8), range(8))))

    expected = {"G1": (48, 24, "2S4+"), "G2": (96, 24, "4S4+"),
                "G3": (48, 48, "2S4-"), "G4": (96, 48, "4S4-"),
                "G5": (192, 48, "8S4-")}
    table = {}
    for name, grp in gs.items():
        key = (grp.order, grp.sl2_order())
        table[name] = (key[0], key[1], _LABELS.get(key, "?"))
    led.check("order table 48/96/48/96/192 with SL2 24/24/48/48/48",
              table == expected, detail=str(table))

    led.check("G1 ∩ SL2(F9) = SL2(F3)",
              frozenset(m for m in g1 if mat_det(m) == ONE)
              == closure([mat(ONE, ONE, ZERO, ONE), mat(ONE, ZERO, ONE, ONE)]))
    led.check("G3 inside SL2(F9)", all(mat_det(m) == ONE for m in g3))

    led.check("G2 maximal in G5 (index 2 subgroup)",
              g2 < g5 and 2 * len(g2) == len(g5))
    led.check("G4 maximal in G5 (index 2 subgroup)",
              g4 < g5 and 2 * len(g4) == len(g5))

    pg1 = pgl_project(g1)
    led.check("pi(Gj) identical for j = 1..5",
              all(pgl_project(gs[k].elements) == pg1
                  for k in ("G2", "G3", "G4", "G5")))
    return led


# -- outer involutions ----------------------------------------------------------


def projective_det(m: int) -> int:
    """Sign of det on PGL2(F3), pulled back: write m = lambda m0 with m0
    over F3; det(m0) is +-1 independently of the choice."""
    for lam in F9_UNITS:
        li = F9_INV[lam]
        entries = [F9_MUL[li][e] for e in mat_entries(m)]
        if all(e in (ZERO, ONE, MINUS_ONE) for e in entries):
            return mat_det(_pack(*entries))
    raise ValueError("matrix is not a scalar multiple of GL2(F3)")


def twist_phi(m: int) -> int:
    return scalar_mul(projective_det(m), m)


def twist_f1(m: int) -> int:
    return scalar_mul(mat_det(m), m)


def twist_f2(m: int) -> int:
    d = mat_det(m)
    return scalar_mul(F9_MUL[d][d], m)


def _is_inner(g: MatGroup, mapping: dict) -> bool:
    """Some h in g conjugates every m to mapping[m].  Candidates are
    screened on the generators, and a match is confirmed on all elements,
    so the answer does not rely on mapping being a homomorphism."""
    for h in g.elements:
        hi = mat_inv(h)
        if (all(mapping[s] == mat_mul(mat_mul(h, s), hi)
                for s in g.generators)
                and all(mapping[m] == mat_mul(mat_mul(h, m), hi)
                        for m in g.elements)):
            return True
    return False


def verify_twist_map(g: MatGroup, twist) -> dict:
    """The twist restricted to g must be a bijective endomorphism whose
    square is an inner automorphism (the testable content of being an
    involution of Out(g)).

    g must be closed from g.generators, as `group` builds it.  Then
    phi(a s) = phi(a) phi(s) for every a in g and every generator s is
    the full homomorphism property: with a = 1 it gives phi(1) = 1, and
    induction on the length of b as a word in the generators gives
    phi(a b) = phi(a) phi(b).  phi(1) = 1 is also checked directly, which
    covers a group given by no non-identity generator."""
    try:
        mapping = {m: twist(m) for m in g.elements}
    except ValueError:
        return {"defined": False}
    into = all(v in g.elements for v in mapping.values())
    if not into:
        return {"defined": True, "closed": False}
    bijective = len(set(mapping.values())) == g.order
    homomorphism = mapping[IDENTITY] == IDENTITY and all(
        mapping[mat_mul(a, s)] == mat_mul(mapping[a], mapping[s])
        for a in g.elements for s in g.generators)
    square = {m: mapping[mapping[m]] for m in g.elements}
    square_inner = _is_inner(g, square)
    return {"defined": True, "closed": True, "bijective": bijective,
            "homomorphism": homomorphism, "square_inner": square_inner,
            "automorphism": bijective and homomorphism}


def verify_outer_involutions(g: MatGroup) -> dict[str, dict]:
    return {"phi": verify_twist_map(g, twist_phi),
            "f1": verify_twist_map(g, twist_f1),
            "f2": verify_twist_map(g, twist_f2)}


# -- S4 subgroups of PGL2(F9) ---------------------------------------------------

_S4_ORDER_PROFILE = {1: 1, 2: 9, 3: 8, 4: 6}


def _pgl_mul(a: int, b: int) -> int:
    return pgl_canon(mat_mul(a, b))


def _pgl_order(m: int) -> int:
    k, cur = 1, m
    while cur != IDENTITY:
        cur = _pgl_mul(cur, m)
        k += 1
        if k > 720:
            raise OctaqError("not an element of PGL2(F9)")
    return k


def _pgl_closure_capped(a: int, b: int, cap: int) -> frozenset | None:
    seen = {IDENTITY, a, b}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for gg in (a, b):
                p = _pgl_mul(m, gg)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return frozenset(seen)


def s4_conjugacy_scan() -> dict:
    """Find every S4 subgroup of PGL2(F9) and verify they form one
    conjugacy class.

    Completeness rests on the presentation S4 = <x, y | x^4 = y^3 =
    (xy)^2 = 1>: every S4 subgroup contains a pair (a, b) with ord a = 4,
    ord b = 3 and (ab)^2 = 1, so the scan runs over all such triangle
    pairs.  Each pair not inside an already-found subgroup is closed (at
    most 24 elements) and must give a group with the element-order
    profile of S4; anything else raises OctaqError.  The conjugacy class
    of one subgroup is its closure under conjugation by the images of the
    two generators of GL2(F9), which generate PGL2(F9)."""
    order = {m: _pgl_order(m) for m in sorted(pgl2f9())}
    fours = [m for m, o in order.items() if o == 4]
    threes = [m for m, o in order.items() if o == 3]
    subs: list[frozenset] = []
    for a in fours:
        for b in threes:
            ab = _pgl_mul(a, b)
            if _pgl_mul(ab, ab) != IDENTITY:
                continue
            if any(a in sub and b in sub for sub in subs):
                continue
            sub = _pgl_closure_capped(a, b, 24)
            if (sub is None
                    or Counter(map(order.get, sub)) != _S4_ORDER_PROFILE):
                raise OctaqError("a (2,3,4) triangle pair in PGL2(F9) does"
                                 " not generate S4")
            subs.append(sub)
    if not subs:
        raise OctaqError("no S4 subgroup of PGL2(F9) found")
    gens = [(pgl_canon(g), pgl_canon(mat_inv(g))) for g in gl2f9().generators]
    orbit = {subs[0]}
    frontier = [subs[0]]
    while frontier:
        nxt = []
        for sub in frontier:
            for g, gi in gens:
                conj = frozenset(_pgl_mul(_pgl_mul(g, m), gi) for m in sub)
                if conj not in orbit:
                    orbit.add(conj)
                    nxt.append(conj)
        frontier = nxt
    return {"subgroup_count": len(subs),
            "single_conjugacy_class": orbit == set(subs)}
