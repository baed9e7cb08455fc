"""Subgroup structure of GL2(F9) by exact finite computation.

The possible images of an octahedral representation into GL2(F9) are the
five subgroups generated by zeta^j S and zeta^k T; their isomorphism
types are pinned by the pair (order, order of the SL2 intersection).
Everything below is an exact finite computation over explicit element
sets.
"""

from octaq.gl2f9 import (GL2_GENERATORS, classify_hjk, five_groups, group,
                         s4_conjugacy_scan, verify_outer_involutions,
                         verify_subgroup_classification)

full = group(GL2_GENERATORS)
print(f"|GL2(F9)| = {full.order}, |SL2(F9)| = {full.sl2_order()}")
print()
print("subgroup table <zeta^j S, zeta^k T>:")
for j, k in [(0, 0), (1, 0), (2, 0), (0, 2), (0, 1)]:
    order, sl2, label = classify_hjk(j, k)
    print(f"  H_({j},{k}): order {order:3d}, SL2 intersection {sl2:2d}  ->  {label}")

print()
print("structure checks:")
for entry in verify_subgroup_classification().entries:
    flag = "ok " if entry["passed"] else "FAIL"
    print(f"  [{flag}] {entry['name']}")

print()
print("scalar-twist involutions (automorphism with inner square):")
for name, grp in five_groups().items():
    res = verify_outer_involutions(grp)
    summary = ", ".join(f"{t}: {'yes' if r.get('automorphism') and r.get('square_inner') else 'no'}"
                        for t, r in res.items())
    print(f"  {name}: {summary}")

print()
scan = s4_conjugacy_scan()
print(f"S4 subgroups of PGL2(F9): {scan['subgroup_count']}, "
      f"single conjugacy class: {scan['single_conjugacy_class']}")
