#!/usr/bin/env python3
"""Degeneration homomorphisms between Orlik-Solomon algebras.

The total degeneration collapses each parallel class to one line of a
central model; the directional degeneration keeps one class and pushes
everything else onto a single transversal. Both are genuine algebra
maps: every defining relation of the source dies in the target.
``degenerations`` builds a deconing's whole family and verifies it in one
pass; ``delta_tot`` and ``delta_dir`` build one map each, which is
re-verified here on its own.
"""

from arrcohom import (OSAlgebra, class_sums, decone, degenerations, delta_dir, delta_tot,
                      verify_homomorphism)
from arrcohom.aomoto import sum_zero_basis
from arrcohom.catalog import fig3

p = 3
aff = decone(fig3(), 0)
print(f"five affine lines, parallel classes {aff.classes}")

# the whole family: the total map and one directional map per class,
# verified together
family = degenerations(aff, p)
print("verified family: " + ", ".join(
    "total" if d.kind == "total" else f"directional {d.class_index}" for d in family
) + f" -> {all(d.verified for d in family)}")

# total degeneration: classes {0,1}, {2}, {3,4} map onto three concurrent lines
tot = delta_tot(aff, p)
print("\ntotal degeneration, degree 1 matrix (rows = target generators):")
for row in tot.deg1_matrix.tolist():
    print(f"  {row}")
print(f"verified as an algebra map: {verify_homomorphism(tot)}")

# directional degeneration with respect to the class {3, 4}
dd = delta_dir(aff, 2, p)
print("\ndirectional degeneration for class 2, degree 1 matrix:")
for row in dd.deg1_matrix.tolist():
    print(f"  {row}")
print(f"verified: {verify_homomorphism(dd)}")

# the all-ones form maps to: one of each parallel, plus (n - r) transversals
src = dd.source
print(f"image of the all-ones form: {dd.map1(src.ones()).tolist()}")

# class sums: the total image of a one-form, coordinate by class
eta = src.unit(0) - src.unit(1)  # difference of two parallels
print(f"\nclass sums of e0 - e1: {class_sums(tot, eta).tolist()}")
print(f"class sums of the all-ones form: {class_sums(tot, src.ones()).tolist()}")

# kernel forms degenerate to zero: over F_3 (which divides the 6 lines of
# the projective source), every kernel vector of the restricted wedge map
# has all class sums zero
basis = sum_zero_basis(aff.n, p)
alg = OSAlgebra(aff, p)
restricted = alg.wedge_matrix(alg.ones()) @ basis
print("\nkernel forms and their class sums:")
for kv in restricted.kernel_basis():
    eta = basis @ kv
    sums = class_sums(tot, eta)
    print(f"  eta = {eta.tolist()} -> class sums {sums.tolist()}")
    assert sums.is_zero()
