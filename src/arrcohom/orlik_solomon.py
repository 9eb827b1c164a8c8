"""Orlik-Solomon algebra of an affine line arrangement over F_p, degrees 0..2.

Degree 2 is built on the Brieskorn decomposition A^2 = sum over finite
intersection points X of A^2_X. A wedge e_i ^ e_j lands in the summand of
the point where lines i and j meet, and is zero for parallel lines. Each
summand has the basis e_a ^ e_j, where a is X's smallest incident line and
j runs over X's other lines. The three-term relation at X says
(e_i - e_a) ^ (e_j - e_a) = 0, so writing the part of a one-form x on X as
S_X(x) e_a + sum_j x_j (e_j - e_a), with S_X(x) the sum of x_i over i in X,
gives the whole product in closed form: x ^ y has coefficient
S_X(x) y_j - S_X(y) x_j on the basis symbol (X, j). With y = e_l, this
writes the matrix d1 of (x wedge -) in closed form: row (X, j) holds -x_j
at each of the m_X lines of X, anchor included, plus S_X(x) at line j.

``QuotientOSOracle`` computes the same degree as the free module on all
line pairs modulo the defining relations. It shares nothing with the
per-point formula apart from generic elimination and exists purely as an
independent cross check.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .geometry import AffineArrangement
from .modp import (
    DimensionMismatchError,
    FpMatrix,
    FpVector,
    ModulusMismatchError,
    _check_modulus,
    _rref_raw,
)

__all__ = ["OSAlgebra", "QuotientOSOracle", "relation_pairs", "relation_triples"]


def relation_pairs(aff: AffineArrangement):
    """Parallel pairs (i, j), i < j, in generator positions."""
    for members in aff.classes:
        yield from combinations(members, 2)


def relation_triples(aff: AffineArrangement):
    """Concurrent triples (i, j, k), i < j < k, in generator positions."""
    for inc in aff.finite_points:
        yield from combinations(inc, 3)


class OSAlgebra:
    """Degrees 0..2 of the Orlik-Solomon algebra with explicit wedge data.

    The degree 2 basis has one symbol (X, j) for every finite point X of
    ``aff`` and every incident line j but X's smallest, the anchor; it
    stands for the wedge of the anchor with line j. Symbols are ordered by
    point (in ``aff.finite_points`` order), then by line.

    Attributes:
        p, n: modulus and number of degree 1 generators.
        aff: the deconed arrangement, in generator positions.
        dim2: rank of degree 2.
    """

    def __init__(self, aff: AffineArrangement, p: int):
        self.p = _check_modulus(p)
        self.aff = aff
        self.n = aff.n
        mult, flat = aff.point_arrays
        starts = np.cumsum(mult) - mult
        self.dim2 = len(flat) - len(mult)
        # index arrays of the per-point formula: point and line of each
        # symbol, and the anchor of each point
        self._sym_point = np.repeat(np.arange(len(mult)), mult - 1)
        self._sym_line = flat[np.arange(self.dim2) + self._sym_point + 1]  # past X + 1 anchors
        self._anchor = flat[starts]
        # each point's symbols are contiguous; index of the first one
        self._sym_start = starts - np.arange(len(mult))

    # ---- element constructors -------------------------------------------

    def deg1(self, coeffs) -> FpVector:
        v = coeffs if isinstance(coeffs, FpVector) else FpVector(self.p, coeffs)
        self._check(v)
        return v

    def unit(self, i: int) -> FpVector:
        """The generator e_i."""
        if not 0 <= i < self.n:
            raise IndexError(f"generator index {i} out of range 0..{self.n - 1}")
        return FpVector._of(self.p, np.eye(1, self.n, i, dtype=np.int64)[0])

    def ones(self) -> FpVector:
        """The sum of all degree 1 generators."""
        return FpVector._of(self.p, np.ones(self.n, dtype=np.int64))

    def _check(self, v, kind=FpVector) -> None:
        # type, modulus and length of a degree 1 operand; a block of
        # one-forms (kind FpMatrix) is checked by its row count
        if not isinstance(v, kind):
            raise TypeError(f"expected {kind.__name__}, got {type(v).__name__}")
        if v.p != self.p:
            raise ModulusMismatchError(f"p={v.p} vs algebra p={self.p}")
        if (length := v.data.shape[0]) != self.n:
            raise DimensionMismatchError(f"degree 1 length {length}, expected {self.n}")

    def symbol_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Anchor and line of every degree 2 basis symbol, in basis order."""
        return self._anchor[self._sym_point], self._sym_line

    # ---- products --------------------------------------------------------

    def _factors(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # S_X(x), reduced mod p, and x_j at each symbol (X, j), one row per symbol
        lines = x[self._sym_line]
        sums = (x[self._anchor] + np.add.reduceat(lines, self._sym_start, axis=0)) % self.p
        return sums[self._sym_point], lines

    def wedge_columns(self, f: FpMatrix, i, j) -> FpMatrix:
        """Column c of the dim2 x len(i) result is f[:, i[c]] ^ f[:, j[c]], for
        a block ``f`` of one-forms as columns. S_X is summed over f's columns
        once, by ``_factors``; ``_products`` then gathers the columns."""
        self._check(f, FpMatrix)
        return FpMatrix._of(self.p, self._products(self._factors(f.data), i, j))

    def _products(self, factors, i, j) -> np.ndarray:
        # columns i ^ j of a block given by its _factors: each product in
        # S_X(x) y_j - S_X(y) x_j is below p**2 < 2**62
        sums, lines = factors
        out = sums.take(i, axis=1)
        out *= lines.take(j, axis=1)
        rhs = sums.take(j, axis=1)
        rhs *= lines.take(i, axis=1)
        out -= rhs
        out %= self.p
        return out

    def wedge11(self, x: FpVector, y: FpVector) -> FpVector:
        """Bilinear antisymmetric product of two ``FpVector`` one-forms, of
        length dim2; a block of products is one ``wedge_columns`` call."""
        self._check(x)
        self._check(y)
        both = FpMatrix._of(self.p, np.column_stack((x.data, y.data)))
        return FpVector._of(self.p, self.wedge_columns(both, [0], [1]).data[:, 0])

    def wedge_matrix(self, xi: FpVector, rows: int | None = None) -> FpMatrix:
        """Matrix of (xi wedge -) from degree 1 to degree 2; column j is the
        image of e_j. In closed form its entry at symbol (X, l) and column j
        is S_X(xi) [l = j] - [j on X] xi_l: -xi_l at every line of X, anchor
        included, plus S_X(xi) at column l. With ``rows``, only the first
        ``rows`` rows are built (all dim2 if there are fewer), in
        O(rows * n) time and memory; the whole matrix takes O(dim2 * n)."""
        self._check(xi)
        r = self.dim2 if rows is None else min(rows, self.dim2)
        pt, ln, x, sym = self._sym_point[:r], self._sym_line, xi.data, np.arange(r)
        d1 = np.zeros((r, self.n), dtype=np.int64)
        # row s of point X holds -xi_l at X's anchor and at the lines of X's
        # k symbols, which are contiguous from X's first symbol (and may lie
        # past row r)
        d1[sym, self._anchor[pt]] = -x[ln[:r]]
        k = np.diff(self._sym_start, append=self.dim2)[pt]
        cells = np.repeat(sym, k)
        shift = np.repeat(self._sym_start[pt] - np.cumsum(k) + k, k)
        d1[cells, ln[shift + np.arange(cells.size)]] = -x[ln[cells]]
        # S_X(xi) at these rows' points only, up to the next point's first symbol
        own = self._sym_start[:pt[-1] + 1 if r else 0]
        end = self._sym_start[own.size] if own.size < self._anchor.size else self.dim2
        sums = x[self._anchor[:own.size]] + np.add.reduceat(x[ln[:end]], own)
        d1[sym, ln[:r]] += sums[pt]
        d1 %= self.p
        return FpMatrix._of(self.p, d1)


class QuotientOSOracle:
    """Degree 2 as the free module on all pairs modulo the defining relations.

    Deliberately naive: the relation span is materialized in full and every
    question is answered by elimination against it.
    """

    def __init__(self, aff: AffineArrangement, p: int):
        self.p = _check_modulus(p)
        self.aff = aff
        self.n = aff.n
        self.num_pairs = self.n * (self.n - 1) // 2
        rel_rows = []
        for i, j in relation_pairs(aff):
            row = np.zeros(self.num_pairs, dtype=np.int64)
            row[self._pair_index(i, j)] = 1
            rel_rows.append(row)
        for i, j, k in relation_triples(aff):
            row = np.zeros(self.num_pairs, dtype=np.int64)
            row[self._pair_index(i, j)] = 1
            row[self._pair_index(i, k)] = self.p - 1
            row[self._pair_index(j, k)] = 1
            rel_rows.append(row)
        if rel_rows:
            rel = np.stack(rel_rows)
        else:
            rel = np.zeros((0, self.num_pairs), dtype=np.int64)
        self._rel_rref, self._rel_pivots = _rref_raw(rel, self.p)
        self.rank_relations = len(self._rel_pivots)
        self.dim2 = self.num_pairs - self.rank_relations

    def _pair_index(self, i: int, j: int) -> int:
        n = self.n
        return (2 * n - i - 1) * i // 2 + (j - i - 1)

    def reduce(self, vec) -> np.ndarray:
        """Canonical residue of a free pair vector modulo the relation span."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        for r, c in enumerate(self._rel_pivots):
            if v[c]:
                v = (v - v[c] * self._rel_rref[r]) % self.p
        return v

    def pair_reduction(self, i: int, j: int) -> np.ndarray:
        if i == j:
            return np.zeros(self.num_pairs, dtype=np.int64)
        sign = 1
        if i > j:
            i, j, sign = j, i, self.p - 1
        unit = np.zeros(self.num_pairs, dtype=np.int64)
        unit[self._pair_index(i, j)] = sign
        return self.reduce(unit)

    def pair_coords(self, x, y) -> np.ndarray:
        """Wedge of two degree 1 coefficient vectors in free pair coordinates."""
        x = np.asarray(x, dtype=np.int64) % self.p
        y = np.asarray(y, dtype=np.int64) % self.p
        outer = (np.outer(x, y) - np.outer(y, x)) % self.p
        return outer[np.triu_indices(self.n, k=1)]

    def rank_modulo_relations(self, rows) -> int:
        """Rank of the span of the given free pair vectors in the quotient."""
        reduced = [self.reduce(r) for r in rows]
        if not reduced:
            return 0
        return len(_rref_raw(np.stack(reduced), self.p)[1])

    def beta1(self, xi_coeffs) -> int:
        """First cohomology rank of the wedge complex, computed entirely in
        the free pair module."""
        xi = np.asarray(xi_coeffs, dtype=np.int64) % self.p
        units = np.eye(self.n, dtype=np.int64)
        images = [self.pair_coords(xi, units[j]) for j in range(self.n)]
        rank_d1 = self.rank_modulo_relations(images)
        kernel = self.n - rank_d1
        rank_d0 = 0 if not xi.any() else 1
        return kernel - rank_d0
