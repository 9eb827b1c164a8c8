#!/usr/bin/env python3
"""First cohomology of the wedge complex over F_p.

For a one-form xi, left wedge gives a two-step complex
R -> A^1 -> A^2. Its first cohomology rank at the all-ones form is the
modular quantity that bounds Milnor fiber eigenspace dimensions. Three
computations are compared: the full definition (a dense rank of d1), the
kernel swept off the projective lattice's incidences at the infinity
line (lines merged along the points whose multiplicity p does not
divide, then a small count matrix per deconing), and (when the
coefficient sum is invertible) the kernel of the wedge map restricted to
the sum-zero subspace.
"""

from arrcohom import OSAlgebra, beta1_full, beta1_restricted, beta1_sweep, decone
from arrcohom.aomoto import NotInvertibleError, central_fixture, parallel_fixture
from arrcohom.catalog import braid_a3, pencil

# the braid arrangement: the bound is 1 over F_3 and 0 over F_2
arr = braid_a3()
for p in (2, 3):
    alg = OSAlgebra(decone(arr, 2), p)
    res = beta1_full(alg, alg.ones())
    print(f"braid, p={p}: beta1 = {res.value}  certificate {res.certificate}")

# the same number swept off the projective incidences at line 2, with the
# same certificate as the dense rank of d1 above
res = beta1_sweep(arr.lattice, [2], [3])[3][0]
print(f"incidences over F_3 at line 2: beta1 = {res.value}  certificate {res.certificate}")

# the restricted shortcut agrees whenever it applies (n = 5 affine lines,
# so the coefficient sum of the all-ones form is 5)
alg = OSAlgebra(decone(arr, 2), 3)
nu = alg.ones()
print(f"\nshortcut over F_3: {beta1_restricted(alg, nu).value} "
      f"(full: {beta1_full(alg, nu).value})")
try:
    alg5 = OSAlgebra(decone(arr, 2), 5)
    beta1_restricted(alg5, alg5.ones())
except NotInvertibleError as exc:
    print(f"over F_5 the shortcut refuses: {exc}")

# closed-form families: central models vanish unless p divides s,
# almost-parallel models vanish for every p
print("\ncentral models (rows s = 2..8, columns p = 2,3,5,7):")
for s in range(2, 9):
    row = []
    for p in (2, 3, 5, 7):
        alg = OSAlgebra(central_fixture(s), p)
        row.append(beta1_full(alg, alg.ones()).value)
    print(f"  s={s}: {row}")
print("nonzero entries sit exactly where p divides s")

print("\nalmost-parallel models (rows r = 1..8):")
for r in range(1, 9):
    values = []
    for p in (2, 3, 5, 7):
        alg = OSAlgebra(parallel_fixture(r), p)
        values.append(beta1_full(alg, alg.ones()).value)
    assert values == [0, 0, 0, 0]
print("  all zero, for every prime")

# a pencil deconed at a member gives parallel lines and a large kernel
aff = decone(pencil(6), 0)
alg = OSAlgebra(aff, 3)
print(f"\npencil of 6, deconed: degree 2 rank {alg.dim2}, "
      f"beta1 = {beta1_full(alg, alg.ones()).value}")
