"""Exact projective geometry for line arrangements in the projective plane.

Everything here is integer arithmetic. Lines and points are homogeneous
coordinate triples kept in a canonical form (gcd-reduced, first nonzero
entry positive), so equality and hashing are plain tuple operations and
the intersection lattice can be assembled by dictionary grouping. A line
and a point are each just their canonical triple, which ``parse_line``
produces; no type wraps either.
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

    def check_index(self, i: int) -> None:
        if not 0 <= i < len(self.lines):
            raise BadIndexError(f"line index {i} out of range 0..{len(self.lines) - 1}")

    @cached_property
    def lattice(self) -> "IntersectionLattice":
        return lattice(self)


@dataclass(frozen=True)
class IntersectionLattice:
    """The points of a line arrangement in incidence-tuple order (see
    ``lattice``, the only constructor): ``incidences`` holds each point's
    sorted lines, every two lines sharing exactly one point, and ``coords``
    their canonical coordinate triples, which is all a point is.
    ``arrays``, the one array form every consumer reads, is (mult, flat,
    owner): each point's multiplicity, the incidences concatenated, and each
    entry's point, built on first use."""

    incidences: tuple[tuple[int, ...], ...]
    coords: tuple[tuple[int, int, int], ...]

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mult = np.fromiter(map(len, self.incidences), np.intp, len(self))
        flat = np.fromiter(chain.from_iterable(self.incidences), np.intp, int(mult.sum()))
        return mult, flat, np.repeat(np.arange(len(self)), mult)

    def __len__(self) -> int:
        return len(self.incidences)

    def multiplicities(self) -> list[int]:
        return self.arrays[0].tolist()

    def histogram(self) -> dict[int, int]:
        return dict(Counter(self.multiplicities()))


def lattice(arr: ProjArrangement) -> IntersectionLattice:
    """Group the C(n+1, 2) pairwise intersections by coincident point, uncached.

    Pairs (i, j), i < j, run in order; each cross product, canonicalized as
    in ``intersect``, keys a dict. The point through lines l1 < l2 < ... is
    first met at (l1, l2), and only the pairs (l1, k) extend its list, so it
    is sorted and complete. Two points never share two lines, so this
    first-pair order of the dict is incidence-tuple order: nothing is sorted.
    """
    incident: dict[tuple[int, int, int], list[int]] = {}
    for i, (a, b, c) in enumerate(arr.lines):
        for j, (d, e, f) in enumerate(arr.lines[i + 1:], i + 1):
            x, y, z = b * f - c * e, c * d - a * f, a * e - b * d
            g = math.gcd(x, y, z)
            if x < 0 or not x and (y < 0 or not y and z < 0):
                g = -g
            inc = incident.setdefault((x // g, y // g, z // g), [i, j])
            if inc[0] == i and inc[1] != j:  # (i, j) extends the point i anchors
                inc.append(j)
    return IntersectionLattice(tuple(map(tuple, incident.values())), tuple(incident))


def mu(arr: ProjArrangement, i: int, k: int) -> int:
    """Number of points of ``arr.lattice`` on line i whose multiplicity k divides,
    by a plain scan of the incidence tuples: the independent check of ``mu_table``."""
    arr.check_index(i)
    if k < 2:
        raise BadKError(f"k must be at least 2, got {k}")
    return sum(1 for inc in arr.lattice.incidences if i in inc and len(inc) % k == 0)


def is_essential(arr: ProjArrangement) -> bool:
    """True when the arrangement has at least two intersection points."""
    return len(arr.lattice) >= 2


@dataclass(frozen=True)
class AffineArrangement:
    """An affine arrangement as incidence data: its parallel classes,
    ordered by smallest member, and its finite intersection points, all as
    sorted tuples of generator positions. Every line lies in exactly one
    class, so the classes partition the generators 0..n-1 and determine n.
    No coordinates are kept, so equality is combinatorial. ``decone``
    relabels a projective lattice into this form; the two degeneration
    models of ``aomoto`` are written down directly.
    """

    classes: tuple[tuple[int, ...], ...]
    finite_points: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(map(len, self.classes))

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def decone(arr: ProjArrangement, h: int) -> AffineArrangement:
    """Send one line to infinity, reading classes and points off ``arr.lattice``.

    A lattice point through the infinity line h is the point at infinity of
    one parallel class; every other lattice point is a finite point. Lattice
    order (by incidence tuple) already orders the classes by smallest member,
    since classes are disjoint once h is removed, and the position map
    s -> s - (s > h) keeps every incidence tuple sorted.
    """
    arr.check_index(h)
    classes, finite = [], []
    for inc in arr.lattice.incidences:
        if h in inc:
            classes.append(tuple(s - (s > h) for s in inc if s != h))
        else:
            finite.append(tuple(s - (s > h) for s in inc))
    aff = AffineArrangement(tuple(classes), tuple(finite))
    # every affine line meets the infinity line exactly once
    if aff.n != (n := len(arr.lines) - 1):
        raise RuntimeError(f"parallel classes cover {aff.n} of {n} affine lines; this is a bug")
    return aff
