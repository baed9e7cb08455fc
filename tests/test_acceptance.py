"""Acceptance suite: one test per shipped criterion, each printing a
single PASS/FAIL line (run with -s to see them live).

 1. table corpus reproduction, 85/85 rows, under 5 minutes
 2. two-path Witt agreement (closed formula vs diagonalization)
 3. symbolic identity suite over Q(s) plus sampled Witt checks
 4. Hilbert symbol laws and the norm identity
 5. GL2(F9) subgroup classification and S4 conjugacy, under 2 minutes
 6. parameter round trip and the one-parameter family
 7. negative controls (totally real, cyclotomic discriminant, mutations)
"""

import random
import time
from dataclasses import replace
from fractions import Fraction

from octaq.errors import (CyclotomicExcluded, FactorizationIncomplete,
                          ParseError, Reducible)
from octaq.hilbert import brauer_class
from octaq.polynomials import count_real_roots
from octaq.qcurve import (family, principal_quartic_poly, symbolic_suite,
                          t_from_principal)
from octaq.quartic import (PrincipalQuartic, ReducedQuartic, depress,
                           galois_is_S4, is_principal, same_field,
                           trace_form, witt_formula)
from octaq.polynomials import QQ
from octaq.rationals import is_square
from octaq.tables import load_bundled_corpus, parse_table, verify_table_row

CORPUS = load_bundled_corpus(validate=False)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_table_reproduction():
    t0 = time.time()
    results = [verify_table_row(row) for row in CORPUS]
    elapsed = time.time() - t0
    n_pass = sum(1 for r in results if r["passed"])
    failures = [(r["d"], r["failures"]) for r in results if not r["passed"]]
    _report("1 table reproduction",
            n_pass == 85 and elapsed < 300 and not failures,
            f"{n_pass}/85 rows in {elapsed:.1f}s")


def test_criterion_2_two_path_witt_agreement():
    mismatches = []
    for row in CORPUS:
        f = depress(row.source_poly())
        if witt_formula(f) != trace_form(f).witt:
            mismatches.append(row.expected_disc)
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        a, b, c = (Fraction(rng.randint(-20, 20)) for _ in range(3))
        try:
            f = ReducedQuartic(a, b, c)
        except Reducible:
            continue
        if not galois_is_S4(f):
            continue
        if witt_formula(f) != trace_form(f).witt:
            mismatches.append((a, b, c))
        checked += 1
    _report("2 two-path Witt agreement", not mismatches,
            f"85 rows + {checked} random quartics, {len(mismatches)} mismatches")


def test_criterion_3_symbolic_suite():
    entries = symbolic_suite(samples=20)
    named = {e.name: e.passed for e in entries}
    required = [
        "tsc_torsion_to_principal", "tsc_principal_to_torsion",
        "disc_principal_quartic", "disc_companion_quartic",
        "companion_divides_weil_resultant", "tsc_companion_to_principal",
        "witt_companion_sampled",
    ]
    missing = [n for n in required if not named.get(n)]
    _report("3 symbolic suite", not missing,
            f"{sum(named.values())}/{len(entries)} identities"
            + (f", failing: {missing}" if missing else ""))


def test_criterion_4_hilbert_laws():
    primes = [2, 3, 5, 7, 11, 13]
    rng = random.Random(41)

    def rand_rat():
        n = rng.choice([1, -1])
        for p in primes:
            n *= p ** rng.randint(0, 2)
        d = 1
        for p in primes:
            d *= p ** rng.randint(0, 1)
        return Fraction(n, d)

    failures = 0
    for _ in range(1000):
        a, b = rand_rat(), rand_rat()
        cls = brauer_class(a, b)
        if len(cls.ramified) % 2:
            failures += 1
        c1, c2 = rand_rat(), rand_rat()
        if brauer_class(a, c1 * c2) != brauer_class(a, c1) * brauer_class(a, c2):
            failures += 1
        if brauer_class(a * c1 * c1, b) != brauer_class(a, b):
            failures += 1
    squarefree = [d for d in range(-500, 501) if d and all(
        d % (p * p) for p in (2, 3, 5, 7, 11, 13, 17, 19))]
    for _ in range(500):
        d = rng.choice(squarefree)
        if brauer_class(-1, -d) * brauer_class(2, d) != brauer_class(-2, -3 * d):
            failures += 1
    _report("4 Hilbert symbol laws", failures == 0,
            f"1000 law triples + 500 norm identities, {failures} failures")


def test_criterion_5_gl2f9():
    from octaq.gl2f9 import (five_groups, s4_conjugacy_scan,
                             verify_outer_involutions, verify_subgroup_classification)
    t0 = time.time()
    led = verify_subgroup_classification()
    problems = [e["name"] for e in led.entries if not e["passed"]]
    twist_plan = {"G1": ["f1"], "G2": ["f1", "f2"], "G3": ["phi"],
                  "G4": ["phi", "f1"], "G5": ["phi", "f1", "f2"]}
    for name, grp in five_groups().items():
        res = verify_outer_involutions(grp)
        for twist in twist_plan[name]:
            if not (res[twist].get("automorphism")
                    and res[twist].get("square_inner")):
                problems.append(f"{name}.{twist}")
    scan = s4_conjugacy_scan()
    if not scan["single_conjugacy_class"]:
        problems.append("conjugacy")
    elapsed = time.time() - t0
    _report("5 GL2(F9) verification",
            not problems and elapsed < 120,
            f"{len(led.entries)} checks, {scan['subgroup_count']} S4 subgroups"
            f" in one class, {elapsed:.1f}s")


def test_criterion_6_round_trip_and_family():
    rng = random.Random(6)
    failures = 0
    done = 0
    while done < 100:
        t0 = Fraction(rng.randint(-60, 60), rng.randint(1, 15))
        if t0 in (0, 1) or is_square(t0):
            continue
        gt = principal_quartic_poly(QQ, t0)
        try:
            g = PrincipalQuartic(gt[1], gt[0])
        except Reducible:
            continue
        if t_from_principal(g) != t0:
            failures += 1
        done += 1

    seeds = [(1, -1), (2, -1), (3, 1), (1, 1), (2, 2), (4, 4), (8, 4),
             (2, -2), (3, -1), (5, 3)]
    cases = 0
    witt_checked = 0
    for b, c in seeds:
        g = PrincipalQuartic(Fraction(b), Fraction(c))
        produced = 0
        while produced < 20:
            s = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            if 3 * g.b * s + 4 * g.c == 0:
                continue
            try:
                out, _ = family(g, s)
            except Reducible:
                continue
            # principal by definition: irreducible and of shape X^4+bX+c
            # (the PrincipalQuartic constructor verified both exactly)
            if out.poly()[2] != 0 or out.poly()[3] != 0:
                failures += 1
            if same_field(g.poly(), out.poly()) is None:
                failures += 1
            # redundant dual route via the Witt criterion; a re-check
            # stopped by the factoring budget is counted and fails the test
            try:
                if not is_principal(out.reduced()):
                    failures += 1
                witt_checked += 1
            except FactorizationIncomplete:
                pass
            produced += 1
            cases += 1
    _report("6 round trip and family",
            failures == 0 and witt_checked == cases,
            f"100 round trips + {cases} family members "
            f"({witt_checked} with the Witt re-check), {failures} failures")


def test_criterion_7_negative_controls():
    problems = []
    # totally real S4 quartic is not principal
    found_real = False
    for a in range(-10, 0):
        if found_real:
            break
        for b in range(-6, 7):
            if found_real:
                break
            for c in range(-6, 7):
                try:
                    f = ReducedQuartic(a, b, c)
                except Reducible:
                    continue
                if count_real_roots(f.poly()) == 4 and galois_is_S4(f):
                    found_real = True
                    if is_principal(f):
                        problems.append(f"totally real ({a},{b},{c}) principal")
                    break
    if not found_real:
        problems.append("no totally real S4 quartic found")

    # discriminant class -3 raises the dedicated error
    raised = False
    for m in (2, 3, 4, 5):
        gt = principal_quartic_poly(QQ, Fraction(m * m))
        try:
            g = PrincipalQuartic(gt[1], gt[0])
        except Reducible:
            continue
        try:
            t_from_principal(g)
        except CyclotomicExcluded:
            raised = True
        break
    if not raised:
        problems.append("cyclotomic case not rejected")

    # mutated fixtures fail loudly
    moved = replace(CORPUS[0], table_id=2)
    if verify_table_row(moved)["passed"]:
        problems.append("wrong-table mutation undetected")
    starred = next(r for r in CORPUS if r.expected_disc == -1107)
    if verify_table_row(replace(starred, star=False))["passed"]:
        problems.append("star mutation undetected")
    try:
        parse_table("1 ; -283 ; -1,-1,zero ; 1,-1 ; 0")
        problems.append("malformed row accepted")
    except ParseError:
        pass
    _report("7 negative controls", not problems, "; ".join(problems) or
            "totally-real, cyclotomic, mutation all rejected")
