#!/usr/bin/env python3
"""Exact projective geometry: lattices, multiplicities, deconing.

Every line is an integer triple (a, b, c) for a*x + b*y + c*z = 0,
stored gcd-reduced with the first nonzero coefficient positive. parse_line
gives that canonical triple, an arrangement's lines are these triples, and
they are printed here as [a b c]. A point is the same kind of canonical
triple (x, y, z), printed here as (x:y:z).
That makes intersection grouping exact: no epsilons anywhere.
"""

from arrcohom import decone, intersect, mu, parse_line
from arrcohom.catalog import braid_a3, generic, pencil

# canonicalization in action
print("canonical forms:")
for raw in [(0, 0, 2), (-1, 1, 0), (2, -4, 6)]:
    print(f"  {raw} -> {parse_line(raw)}")

# two lines meet in exactly one point, computed as a cross product
point, line = "({}:{}:{})".format, "[{} {} {}]".format
l1, l2 = parse_line((1, -1, 0)), parse_line((1, 0, -1))
print(f"\n{line(*l1)} meets {line(*l2)} at {point(*intersect(l1, l2))}")

# the six-line braid arrangement x y z (x-y)(x-z)(y-z); its intersection
# lattice is computed on first use and kept on the arrangement, so mu and
# decone below read this one lattice: each point's canonical triple in
# lat.coords, its sorted lines in lat.incidences
arr = braid_a3()
lat = arr.lattice
print(f"\nbraid arrangement: {len(arr.lines)} lines, {len(lat)} intersection points")
for pt, inc in zip(lat.coords, lat.incidences):
    print(f"  {point(*pt)}  lines {list(inc)}  (multiplicity {len(inc)})")
print(f"multiplicity histogram: {lat.histogram()}")

# mu(i, k): points on line i whose multiplicity k divides.
# On the braid arrangement every line sees two triple points and one double.
print("\ndivisible-point counts on the braid arrangement:")
for k in (2, 3, 6):
    print(f"  k={k}: {[mu(arr, i, k) for i in range(6)]}")

# a pencil has a single intersection point, so it is not essential
print(f"\npencil of 5 lines: {pencil(5).lattice.histogram()} (one point only)")
print(f"generic 4 lines:   {generic(4).lattice.histogram()} (all double points)")

# deconing: send line 2 (the line z) to infinity. The other lines become
# generators 0..4 in source order (source line s is generator s - (s > 2)),
# grouped into parallel classes, one class per point on the removed line.
# The result is only its classes and finite points: the classes partition
# the generators, so their total size is the number of affine lines, aff.n.
aff = decone(arr, 2)
print(f"\ndeconed braid (infinity = line 2): {aff.n} affine lines")
print(f"  parallel classes (generator positions): {aff.classes}")
for members in aff.classes:
    first = arr.lines[members[0] + (members[0] >= 2)]
    print(f"  class {list(members)} meets infinity at {point(*intersect(first, arr.lines[2]))}, "
          f"m = {len(members)}")
print(f"  finite points (generator positions): {[list(inc) for inc in aff.finite_points]}")
