"""Exact finite computations in GL2(F9).

F9 = F3[zeta] with zeta^2 = zeta + 1, so zeta generates the multiplicative
group (order 8) and i = zeta^2.  Field elements are coded 0..8 as
a + 3b for a + b zeta, and all arithmetic runs through precomputed tables.
A matrix [[a, b], [c, d]] is the 4-tuple (a, b, c, d) of codes, and a
group is the frozenset of its matrices (at most 5760) together with the
generators it was closed from.

An element of PGL2(F9) is the permutation it induces on the ten points
of P^1(F9): point x < 9 is (x : 1) and point 9 is infinity (1 : 0), and
the tuple p has p[x] = image of point x.  Products, inverses, orders and
conjugates are then operations on 10-tuples, with no canonical scaling.
The scalars F9* act trivially, so the image of GL2(F9) in Sym(P^1) has at
most 5760 / 8 = 720 elements.  The permutations of diag(zeta, 1) and
[[-1, 1], [-1, 0]] close to exactly 720 (checked; otherwise OctaqError).
That proves two things at once: the kernel of the action is exactly F9*,
so PGL2(F9) acts faithfully and each element is its permutation, and
the pair generates PGL2(F9).

The statements the ledger verifies: the generator relations between
powers of zeta^j S and zeta^k T, the named equalities between the
subgroups H_{j,k} = <zeta^j S, zeta^k T> that identify five groups
G1..G5 (it closes the nine H_{j,k} they name), F3* in all 64 of them
(a breadth-first search of each H_{j,k} that stops at -I, whose word is
the proof), the order table of G1..G5 together with the SL2
intersections (which pins the 2^r S4^+- label of each), maximality of
the index-2 members, and the common projective image pi(Gj), closed
from the permutations of the generators of Gj.  That each of the
64 H_{j,k} equals one of G1..G5 is checked by the test suite, which
closes all 64, not by the ledger.  Outside the ledger,
verify_outer_involutions checks the three scalar-twist involutions on a
group, and _TWIST_PLAN names the ones that must be outer involutions of
each of G1..G5; s4_conjugacy_scan proves that PGL2(F9) has one
conjugacy class of S4 subgroups.

Two of these proofs work on generators rather than on all elements.  A
map on a finite group is multiplicative as soon as phi(a s) = phi(a)
phi(s) for every element a and every generator s (induction on word
length; inverses are positive powers).  S4 is the (2,3,4) von Dyck group
<x, y | x^4 = y^3 = (xy)^2 = 1> (Coxeter-Moser), so a "triangle pair"
(a, b) of orders 4 and 3 with (ab)^2 = 1 generates a quotient of S4
with an element of order 4, which is S4 itself.  The scan fixes one
element a0 of order 4, shows that its conjugates are all the elements of
order 4, and closes only the triangle pairs (a0, b): every S4 subgroup
is conjugate to one of those (the proof is in its docstring).  The
orbit of an element or a set under conjugation by a finite group is its
closure under conjugation by the generators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, product
from math import lcm

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


# -- 2x2 matrices as 4-tuples (a, b, c, d) = [[a, b], [c, d]] -----------------


def mat_mul(x: tuple, y: tuple) -> tuple:
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    add = F9_ADD
    ma, mb, mc, md = F9_MUL[xa], F9_MUL[xb], F9_MUL[xc], F9_MUL[xd]
    return (add[ma[ya]][mb[yc]], add[ma[yb]][mb[yd]],
            add[mc[ya]][md[yc]], add[mc[yb]][md[yd]])


def mat_det(m: tuple) -> int:
    a, b, c, d = m
    return F9_ADD[F9_MUL[a][d]][F9_NEG[F9_MUL[b][c]]]


def mat_inv(m: tuple) -> tuple:
    a, b, c, d = m
    det = mat_det(m)
    if det == ZERO:
        raise ZeroDivisionError("singular matrix")
    di = F9_MUL[F9_INV[det]]
    return di[d], di[F9_NEG[b]], di[F9_NEG[c]], di[a]


def scalar_mul(c: int, m: tuple) -> tuple:
    mc = F9_MUL[c]
    a, b, cc, d = m
    return mc[a], mc[b], mc[cc], mc[d]


def scalar_mat(c: int) -> tuple:
    return c, ZERO, ZERO, c


IDENTITY = scalar_mat(ONE)
S_MAT = (ONE, ZERO, ZERO, MINUS_ONE)
T_MAT = (ONE, MINUS_ONE, ONE, ZERO)
# diag(zeta, 1) and [[-1, 1], [-1, 0]]; _pgl2f9 checks they generate PGL2(F9)
GL2_GENERATORS = ((ZETA, ZERO, ZERO, ONE), (MINUS_ONE, ONE, MINUS_ONE, ZERO))


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


def _generate(gens, mul, identity):
    """The group gens generate under mul, breadth-first: the identity, then
    the generators, then each new product x g (x taken in the order of
    yielding, g in gens) once, so a search for one element stops at it."""
    seen = {identity}
    queue = [identity]
    yield identity
    for g in gens:
        if g not in seen:
            seen.add(g)
            queue.append(g)
            yield g
    for x in queue:                 # the queue grows as the loop runs
        for g in gens:
            y = mul(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
                yield y


def _close(gens, mul, identity, cap: int) -> frozenset | None:
    """The group gens generate under mul, or None if it has more than cap
    elements."""
    els = frozenset(islice(_generate(gens, mul, identity), cap + 1))
    return None if len(els) > cap else els


def closure(generators) -> frozenset:
    # mat_mul is looked up here, on each call, so a rebinding of
    # gl2f9.mat_mul reaches the closure
    els = _close([g for g in generators if g != IDENTITY], mat_mul,
                 IDENTITY, 5760)
    if els is None:
        raise ValueError("closure exceeds |GL2(F9)|")
    return els


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


# -- PGL2(F9) as permutations of P^1(F9) --------------------------------------

_INF = 9
_PERM_ID = tuple(range(10))


def _perm(m: tuple) -> tuple:
    """The permutation x -> (a x + b) / (c x + d) of P^1(F9) induced by m;
    OctaqError for a singular m, which induces no permutation."""
    if mat_det(m) == ZERO:
        raise OctaqError("a singular matrix is not an element of PGL2(F9)")
    a, b, c, d = m
    add, ma, mc = F9_ADD, F9_MUL[a], F9_MUL[c]
    images = [_INF if (den := add[mc[x]][d]) == ZERO
              else F9_MUL[add[ma[x]][b]][F9_INV[den]] for x in range(9)]
    images.append(_INF if c == ZERO else ma[F9_INV[c]])
    return tuple(images)


def _compose(p: tuple, q: tuple) -> tuple:
    """p after q, so that _perm(m n) = _compose(_perm(m), _perm(n))."""
    return tuple(map(p.__getitem__, q))


def _perm_order(p: tuple) -> int:
    """The lcm of the cycle lengths."""
    order, seen = 1, set()
    for x in range(10):
        length = 0
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            order = lcm(order, length)
    return order


def _pgl2f9() -> frozenset:
    """PGL2(F9) as permutations of P^1(F9), closed on each call from
    GL2_GENERATORS, which must give exactly 720 (see the module docstring)."""
    pgl = _close([_perm(g) for g in GL2_GENERATORS], _compose, _PERM_ID,
                 720)
    if pgl is None or len(pgl) != 720:
        raise OctaqError("the generators of GL2(F9) do not close to the 720"
                         " permutations of PGL2(F9) on P^1(F9)")
    return pgl


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


def _pow(m: tuple, k: int) -> tuple:
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


_FIVE = {"G1": (0, 0), "G2": (1, 0), "G3": (2, 0), "G4": (0, 2), "G5": (0, 1)}


def five_groups() -> dict[str, MatGroup]:
    return {name: h_jk(j, k) for name, (j, k) in _FIVE.items()}


def verify_subgroup_classification() -> CheckLedger:
    """Reproduce the subgroup classification: relations, the named
    equalities between the H_{j,k} that identify G1..G5, the order table
    with SL2 intersections, maximality, common projective image, and
    scalar containment."""
    led = CheckLedger()
    verify_generator_relations(led)

    # the closures the equalities below read; the other 55 H_{j,k} are
    # only searched for -I
    hs = {jk: h_jk(*jk)
          for jk in [*_FIVE.values(), (1, 2), (2, 2), (1, 1), (2, 1)]}
    gs = {name: hs[jk] for name, jk in _FIVE.items()}
    g1, g2, g3, g4, g5 = (gs[k].elements for k in ("G1", "G2", "G3", "G4", "G5"))

    led.check("H_{1,0} = H_{1,2}", g2 == hs[1, 2].elements)
    i_gl2f3 = set_product([ZETA_POW[2 * k] for k in range(4)], g1)
    led.check("H_{0,2} = H_{2,2} = <i>GL2(F3)",
              g4 == hs[2, 2].elements == i_gl2f3)
    f9s_gl2f3 = set_product(F9_UNITS, g1)
    led.check("H_{0,1} = H_{1,1} = H_{2,1} = F9*GL2(F3)",
              g5 == hs[1, 1].elements == hs[2, 1].elements == f9s_gl2f3)
    led.check("<i>G1 = <i>G3 = G4",
              set_product([ONE, I_UNIT, MINUS_ONE, ZETA_POW[6]], g1)
              == set_product([ONE, I_UNIT, MINUS_ONE, ZETA_POW[6]], g3) == g4)
    led.check("F9*G1 = F9*G3 = G5",
              set_product(F9_UNITS, g1) == set_product(F9_UNITS, g3) == g5)

    # -I is found by a breadth-first search that stops at its first word;
    # mat_mul is looked up here, so a rebinding of gl2f9.mat_mul reaches it
    minus_id = scalar_mat(MINUS_ONE)
    led.check("F3* in every H_{j,k}",
              all(minus_id in _generate([scalar_mul(ZETA_POW[j], S_MAT),
                                         scalar_mul(ZETA_POW[k], T_MAT)],
                                        mat_mul, IDENTITY)
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
              == closure([(ONE, ONE, ZERO, ONE), (ONE, ZERO, ONE, ONE)]))
    led.check("G3 inside SL2(F9)", all(mat_det(m) == ONE for m in g3))

    led.check("G2 maximal in G5 (index 2 subgroup)",
              g2 < g5 and 2 * len(g2) == len(g5))
    led.check("G4 maximal in G5 (index 2 subgroup)",
              g4 < g5 and 2 * len(g4) == len(g5))

    pg1 = _projective_image(gs["G1"])
    led.check("pi(Gj) identical for j = 1..5",
              all(_projective_image(gs[k]) == pg1
                  for k in ("G2", "G3", "G4", "G5")))
    return led


def _projective_image(g: MatGroup) -> frozenset:
    """pi(g) in PGL2(F9) as permutations of P^1(F9): pi is a homomorphism,
    so pi(<gens>) = <pi(gens)>, closed from the generators' permutations."""
    return _close([_perm(m) for m in g.generators], _compose, _PERM_ID, 720)


# -- outer involutions ----------------------------------------------------------


def projective_det(m: tuple) -> int:
    """Sign of det on PGL2(F3), pulled back: write m = lambda m0 with m0
    over F3; det(m0) is +-1 independently of the choice, and lambda is
    +- the first nonzero entry of m."""
    lead = next(e for e in m if e != ZERO)
    m0 = scalar_mul(F9_INV[lead], m)
    if any(e not in (ZERO, ONE, MINUS_ONE) for e in m0):
        raise ValueError("matrix is not a scalar multiple of GL2(F3)")
    return mat_det(m0)


def twist_phi(m: tuple) -> tuple:
    return scalar_mul(projective_det(m), m)


def twist_f1(m: tuple) -> tuple:
    return scalar_mul(mat_det(m), m)


def twist_f2(m: tuple) -> tuple:
    d = mat_det(m)
    return scalar_mul(F9_MUL[d][d], m)


def _is_inner(g: MatGroup, mapping: dict) -> bool:
    """Some h in g conjugates every m to mapping[m], that is h m =
    mapping[m] h.  Candidates are screened on the generators, and a match
    is confirmed on all elements, so the answer does not rely on mapping
    being a homomorphism."""
    for h in g.elements:
        if (all(mat_mul(h, s) == mat_mul(mapping[s], h)
                for s in g.generators)
                and all(mat_mul(h, m) == mat_mul(mapping[m], h)
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


# the twists of the paper's plan: each must be an automorphism of its group
# whose square is inner
_TWIST_PLAN = {"G1": ("f1",), "G2": ("f1", "f2"), "G3": ("phi",),
               "G4": ("phi", "f1"), "G5": ("phi", "f1", "f2")}


# -- S4 subgroups of PGL2(F9) ---------------------------------------------------

_S4_ORDER_PROFILE = {1: 1, 2: 9, 3: 8, 4: 6}


def _conjugates(elements: frozenset) -> set[frozenset]:
    """The orbit of a set of permutations under conjugation by PGL2(F9):
    its closure under conjugation by the permutations of GL2_GENERATORS."""
    gens = [(_perm(g), _perm(mat_inv(g))) for g in GL2_GENERATORS]
    orbit, queue = {elements}, [elements]
    for s in queue:                 # the queue grows as the loop runs
        for g, gi in gens:
            conj = frozenset(_compose(_compose(g, p), gi) for p in s)
            if conj not in orbit:
                orbit.add(conj)
                queue.append(conj)
    return orbit


def s4_conjugacy_scan() -> dict:
    """Count the S4 subgroups of PGL2(F9) and verify they form one
    conjugacy class.

    PGL2(F9) is the closure of the permutations of GL2_GENERATORS, which
    must have 720 elements (see the module docstring).  Fix a0, the least
    element of order 4.  The scan proves, raising OctaqError otherwise:
    (1) the conjugates of a0 are all the elements of order 4; (2) each
    triangle pair (a0, b), ord b = 3 and (a0 b)^2 = 1, whose b lies in no
    subgroup already found closes to at most 24 elements with the
    element-order profile of S4, and in the first such closure every
    element of order 4 has a triangle partner and the six elements of
    order 4 generate it.  Each closure is a quotient of the von Dyck group
    S4 with an element of order 4, hence S4 itself.

    Let T be any S4 subgroup.  It holds some x of order 4, by (1) x = h a0
    h^-1, so h^-1 T h holds a0, and being isomorphic to the first closure
    it holds a partner b of a0.  Then h^-1 T h is the order-24 closure of
    (a0, b), found in (2).  So every S4 is conjugate to one through a0,
    and there is one class when every S4 through a0 lies in the orbit of
    the first.  An S4 is named by its six elements of order 4, which
    generate it, so that orbit is the orbit of the first one's six, and
    with one class its size is subgroup_count, the number of S4
    subgroups."""
    order = {p: _perm_order(p) for p in sorted(_pgl2f9())}
    fours = frozenset(p for p, o in order.items() if o == 4)
    a0 = min(fours)
    if frozenset().union(*_conjugates(frozenset({a0}))) != fours:
        raise OctaqError("the elements of order 4 in PGL2(F9) are not one"
                         " conjugacy class")
    square_one = {p for p, o in order.items() if o <= 2}
    subs: list[frozenset] = []
    for b in (p for p, o in order.items() if o == 3):
        # (a0 b)^2 = 1 fixes the point 0: a cheap screen before the test
        if (a0[b[a0[b[0]]]] != 0 or _compose(a0, b) not in square_one
                or any(b in sub for sub in subs)):
            continue
        sub = _close((a0, b), _compose, _PERM_ID, 24)
        if (sub is None
                or Counter(map(order.get, sub)) != _S4_ORDER_PROFILE):
            raise OctaqError("a (2,3,4) triangle pair in PGL2(F9) does"
                             " not generate S4")
        subs.append(sub)
    if not subs:
        raise OctaqError("no S4 subgroup of PGL2(F9) found")
    first = subs[0]
    six = fours & first
    if (not all(any(order[y] == 3 and _compose(x, y) in square_one
                    for y in first) for x in six)
            or _close(six, _compose, _PERM_ID, 24) != first):
        raise OctaqError("the elements of order 4 of an S4 in PGL2(F9) do"
                         " not all have triangle partners in it or do not"
                         " generate it")
    orbit = _conjugates(six)
    return {"subgroup_count": len(orbit),
            "single_conjugacy_class": all(fours & sub in orbit
                                          for sub in subs)}
