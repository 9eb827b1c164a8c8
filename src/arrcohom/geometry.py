"""Exact projective geometry for line arrangements in the projective plane.

Everything here is integer arithmetic. Lines and points are homogeneous
coordinate triples kept in a canonical form (gcd-reduced, first nonzero
entry positive), which ``parse_line`` produces; no type wraps either. The
lattice is one numpy pass over the line pairs, kept as index arrays that
``decone`` relabels; tuples are built only where a caller asks for them.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

__all__ = [
    "ProjArrangement",
    "IntersectionLattice",
    "AffineArrangement",
    "parse_line",
    "intersect",
    "lattice",
    "mu",
    "is_essential",
    "decone",
    "ZeroLineError",
    "IdenticalLinesError",
    "DuplicateLineError",
    "TooFewLinesError",
    "BadIndexError",
    "BadKError",
]


class ZeroLineError(ValueError):
    """The triple (0, 0, 0) defines neither a line nor a point."""


class IdenticalLinesError(ValueError):
    """Tried to intersect a line with itself."""


class DuplicateLineError(ValueError):
    """An arrangement listed the same line twice."""


class TooFewLinesError(ValueError):
    """Arrangements need at least three lines."""


class BadIndexError(IndexError):
    """Line index outside the arrangement."""


class BadKError(ValueError):
    """Divisibility threshold must be at least 2."""


def parse_line(raw) -> tuple[int, int, int]:
    """The canonical form of the line a*x + b*y + c*z = 0 given by an integer
    triple: gcd-reduced, first nonzero entry positive. The same rule makes a
    point's triple canonical, and it is the only form a line takes."""
    raw = tuple(raw)
    if len(raw) != 3:
        raise ZeroLineError(f"expected three coefficients, got {len(raw)}")
    # operator.index, not int: a float or a string is refused, not truncated
    a, b, c = map(operator.index, raw)
    g = math.gcd(a, b, c)
    if not g:
        raise ZeroLineError("all three coordinates are zero")
    if a < 0 or not a and (b < 0 or not b and c < 0):
        g = -g  # first nonzero entry positive
    return a // g, b // g, c // g


def _show(line) -> str:
    # how messages and ``lattice`` output print a line
    return "[{} {} {}]".format(*line)


def intersect(u, v) -> tuple[int, int, int]:
    """Exact intersection of two distinct lines, given as integer triples: the
    canonical cross product, computed pair by pair as an independent check of
    ``lattice``. Proportional triples are the same line."""
    (a, b, c), (d, e, f) = u, v
    cross = (b * f - c * e, c * d - a * f, a * e - b * d)
    if not any(cross):
        raise IdenticalLinesError(f"{_show(u)} intersected with itself")
    return parse_line(cross)


@dataclass(frozen=True)
class ProjArrangement:
    """An ordered collection of at least three pairwise distinct lines.

    Line indices run 0..n, so an arrangement has n + 1 lines, each kept as
    its canonical triple (``parse_line``) however it was given. Duplicates
    are rejected outright since every multiplicity count downstream assumes
    a simple arrangement. The intersection lattice is computed on first use
    and kept on the instance, so it always belongs to these lines.
    """

    lines: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        lines = tuple(map(parse_line, self.lines))
        object.__setattr__(self, "lines", lines)
        if len(lines) < 3:
            raise TooFewLinesError(f"need at least 3 lines, got {len(lines)}")
        seen: dict[tuple[int, int, int], int] = {}
        for i, line in enumerate(lines):
            if line in seen:
                raise DuplicateLineError(
                    f"lines {seen[line]} and {i} coincide after canonicalization: {_show(line)}"
                )
            seen[line] = i

    @classmethod
    def from_coeffs(cls, triples) -> "ProjArrangement":
        return cls(triples)

    def __len__(self) -> int:
        return len(self.lines)

    def check_index(self, i) -> int:
        """``i`` as a line index, by ``operator.index``: a float is refused."""
        if not 0 <= (i := operator.index(i)) < len(self.lines):
            raise BadIndexError(f"line index {i} out of range 0..{len(self.lines) - 1}")
        return i

    @cached_property
    def lattice(self) -> "IntersectionLattice":
        return lattice(self)


def _unpack(mult, flat) -> tuple[tuple[int, ...], ...]:
    # the tuples that (mult, flat) concatenates, sharing one int per line
    lines = np.array(range(flat.max(initial=0) + 1), dtype=object)
    flat, ends = lines[flat].tolist(), np.cumsum(mult).tolist()
    return tuple(tuple(flat[a:b]) for a, b in zip([0] + ends, ends))


@dataclass(frozen=True, eq=False)
class IntersectionLattice:
    """The points of a line arrangement in incidence-tuple order (see
    ``lattice``, the only constructor): ``mult`` holds each point's
    multiplicity, ``flat`` its sorted lines concatenated, every two lines
    sharing exactly one point, and ``points`` its canonical coordinates, one
    row per point, which is all a point is. ``arrays`` is (mult, flat,
    owner), owner being each entry's point; ``incidences`` and ``coords``
    are tuple views. All are built on first use."""

    mult: np.ndarray
    flat: np.ndarray
    points: np.ndarray

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.mult, self.flat, np.repeat(np.arange(len(self)), self.mult)

    @cached_property
    def incidences(self) -> tuple[tuple[int, ...], ...]:
        return _unpack(self.mult, self.flat)

    @cached_property
    def coords(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(*self.points.T.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntersectionLattice) and all(map(
            np.array_equal, (self.mult, self.flat, self.points),
            (other.mult, other.flat, other.points)))

    def __len__(self) -> int:
        return len(self.mult)

    def multiplicities(self) -> list[int]:
        return self.mult.tolist()

    def histogram(self) -> dict[int, int]:
        return dict(Counter(self.multiplicities()))


def lattice(arr: ProjArrangement) -> IntersectionLattice:
    """Group the C(n+1, 2) pairwise intersections by coincident point, uncached.

    One array pass over the pairs (i, j), i < j, in row-major order: each
    cross product is canonicalized as in ``intersect``, and a stable
    ``lexsort`` groups equal ones, so each point's first pair comes first.
    The point through lines l1 < l2 < ... is first met at (l1, l2), and the
    pairs (l1, k) list the rest of its lines in order; two points never
    share two lines, so first-pair order is incidence-tuple order. It is
    int64 while every |coefficient| is below 2**30, which keeps each cross
    product below 2**62, and Python ints past that.
    """
    wide = max(map(abs, chain.from_iterable(arr.lines))) >= 2**30
    coeffs = np.array(arr.lines, dtype=object if wide else np.int64).T
    i, j = np.nonzero(np.arange(len(arr.lines))[:, None] < np.arange(len(arr.lines)))
    u, v = coeffs[:, i], coeffs[:, j]  # one row per coordinate, one column per pair
    pts = u[[1, 2, 0]] * v[[2, 0, 1]] - u[[2, 0, 1]] * v[[1, 2, 0]]
    g = np.gcd.reduce(pts)
    g[np.sign(pts).T @ [4, 2, 1] < 0] *= -1  # the first nonzero entry's sign
    pts //= g
    order = np.lexsort(pts)
    new = np.concatenate([[True], (np.diff(pts[:, order]) != 0).any(axis=0)])
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]  # each pair's point's first pair
    heads = np.sort(order[new])
    anchored = np.flatnonzero(i == i[first])  # the pairs (l1, k)
    # each point's l1, then its pairs' k in order, sorted stably by point
    point = np.concatenate([np.arange(len(heads)), np.searchsorted(heads, first[anchored])])
    line = np.concatenate([i[heads], j[anchored]])
    flat = line[np.argsort(point, kind="stable")]
    return IntersectionLattice(np.bincount(point), flat, pts[:, heads].T)


def mu(arr: ProjArrangement, i: int, k: int) -> int:
    """Number of points of ``arr.lattice`` on line i whose multiplicity k divides,
    by a plain scan of the incidence tuples: the independent check of ``mu_table``."""
    i, k = arr.check_index(i), operator.index(k)
    if k < 2:
        raise BadKError(f"k must be at least 2, got {k}")
    return sum(1 for inc in arr.lattice.incidences if i in inc and len(inc) % k == 0)


def is_essential(arr: ProjArrangement) -> bool:
    """True when the arrangement has at least two intersection points."""
    return len(arr.lattice) >= 2


class AffineArrangement:
    """An affine arrangement as incidence data: its parallel classes,
    ordered by smallest member, and its finite intersection points, all
    sorted in generator positions, given as (mult, flat) pairs
    ``class_arrays`` and ``point_arrays``: each class's or point's size,
    and their members concatenated. They are kept as intp arrays, without
    a copy when they already are; ``classes`` and ``finite_points`` are
    tuple views built on first read. Every line lies in exactly one class,
    so the classes partition the generators 0..n-1 and determine n. No
    coordinates are kept, so equality is combinatorial.
    """

    def __init__(self, class_arrays, point_arrays):
        self.class_arrays, self.point_arrays = (
            (np.asarray(mult, np.intp), np.asarray(flat, np.intp))
            for mult, flat in (class_arrays, point_arrays))

    @cached_property
    def classes(self) -> tuple[tuple[int, ...], ...]:
        return _unpack(*self.class_arrays)

    @cached_property
    def finite_points(self) -> tuple[tuple[int, ...], ...]:
        return _unpack(*self.point_arrays)

    def __eq__(self, other) -> bool:
        return other is self or isinstance(other, AffineArrangement) and all(map(
            np.array_equal, self.class_arrays + self.point_arrays,
            other.class_arrays + other.point_arrays))

    @property
    def n(self) -> int:
        return len(self.class_arrays[1])

    @property
    def num_classes(self) -> int:
        return len(self.class_arrays[0])


def decone(arr: ProjArrangement, h: int) -> AffineArrangement:
    """Send one line to infinity, relabelling the arrays of ``arr.lattice``.

    A lattice point through the infinity line h is the point at infinity of
    one parallel class; every other lattice point is a finite point. Lattice
    order (by incidence tuple) already orders the classes by smallest member,
    since classes are disjoint once h is removed, and the position map
    s -> s - (s > h) keeps every incidence sorted.
    """
    h = arr.check_index(h)
    mult, flat, owner = arr.lattice.arrays
    at_infinity = np.bincount(owner[flat == h], minlength=len(mult)) > 0
    entry, pos = at_infinity[owner], flat - (flat > h)
    aff = AffineArrangement((mult[at_infinity] - 1, pos[entry & (flat != h)]),
                            (mult[~at_infinity], pos[~entry]))
    # every affine line meets the infinity line exactly once
    if aff.n != (n := len(arr.lines) - 1):
        raise RuntimeError(f"parallel classes cover {aff.n} of {n} affine lines; this is a bug")
    return aff
