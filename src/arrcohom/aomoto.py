"""The wedge cochain complex of an arrangement over F_p and its first
cohomology rank, plus the two model arrangements every degeneration
targets (a pencil of s lines through one point, and r parallels crossed
by one transversal), written directly as the (mult, flat) incidence
arrays ``AffineArrangement`` takes. ``beta1_sweep``, the one
entry to the incidence kernel, reads the kernel of d1 at the all-ones
form off the incidences (Falk's resonance over F_p), one listed deconing
of a projective lattice at a time, over the incidence arrays the lattice
keeps. The dense definition ``beta1_full`` is its independent check. It
ranks d1 without building it (``_rank_d1``, one route for both
definitions): only its top rows, twice as many as its columns, are
written, and products in the algebra give the rest, in O(n^2) memory
per kernel vector of those rows."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .geometry import AffineArrangement
from .modp import FpMatrix, FpVector, _check_modulus, _kernel_raw, _rref_raw
from .orlik_solomon import OSAlgebra

__all__ = [
    "Beta1Result",
    "beta1_full",
    "beta1_sweep",
    "beta1_restricted",
    "sum_zero_basis",
    "central_fixture",
    "parallel_fixture",
    "NotInvertibleError",
    "BadSizeError",
]


class NotInvertibleError(ValueError):
    """Coefficient sum is zero mod p, so the restricted shortcut is off."""


class BadSizeError(ValueError):
    """Fixture size parameter out of range."""


@dataclass(frozen=True)
class Beta1Result:
    """A first cohomology rank together with the ranks that produced it."""

    value: int
    method: str  # "full" or "restricted"
    certificate: dict


def _d1(alg: OSAlgebra, xi: FpVector, rows: int) -> FpMatrix:
    """The first ``rows`` rows of the differential (xi wedge -) of the
    complex R -> A^1 -> A^2, all of it if dim2 <= rows."""
    d1 = alg.wedge_matrix(xi, rows)
    # d1 is written in closed form; check its rows against the product: d1 xi
    # is xi wedge xi = 0, and d1 y is wedge11(xi, y) on one seeded one-form y
    y = FpVector._of(alg.p, np.array(random.Random(0).choices(range(alg.p), k=alg.n), np.int64))
    images = (d1 @ FpMatrix._of(alg.p, np.stack([xi.data, y.data], axis=1))).data
    if images[:, 0].any():
        raise RuntimeError("wedge matrix does not annihilate xi; this is a bug")
    if not np.array_equal(images[:, 1], alg.wedge11(xi, y).data[:len(images)]):
        raise RuntimeError("wedge matrix disagrees with wedge11 on a seeded form; this is a bug")
    return d1


def _rank_d1(alg: OSAlgebra, xi: FpVector, bordered: bool = False) -> int:
    """rank(d1), under one all-ones row if ``bordered``, with only the top
    2n rows of d1 built. A matrix with top rows B and the rest C has rank
    rank(B) + rank(C @ K^T), K's rows a basis of ker B: v -> v @ K^T kills
    exactly the annihilator of ker B, the row space of B. Here C @ K^T is
    the bottom of xi wedge K^T, one product per column, since d1 y = xi
    wedge y, and is empty when dim2 <= 2n; C is never built, and memory
    stays O(n^2 + dim2 * len(K))."""
    p, n = alg.p, alg.n
    top = _d1(alg, xi, 2 * n).data
    if bordered:  # below: on top, as the first pivot row, it fills in every row
        top = np.vstack((top, np.ones((1, n), np.int64)))
    kt = _kernel_raw(top, p).T  # K^T: one kernel vector per column
    xy, j = FpMatrix._of(p, np.column_stack((xi.data, kt))), np.arange(1, kt.shape[1] + 1)
    rest = alg.wedge_columns(xy, 0 * j, j).data[2 * n:]  # xi is column 0, y_j column j
    return n - len(j) + FpMatrix._of(p, rest).rank()


def _full_result(n: int, dim2: int, rank_d0: int, rank_d1: int) -> Beta1Result:
    certificate = {"dim1": n, "dim2": dim2, "rank_d0": rank_d0, "rank_d1": rank_d1,
                   "dim_ker_d1": n - rank_d1, "h0": 1 - rank_d0, "h2": dim2 - rank_d1}
    return Beta1Result(n - rank_d1 - rank_d0, "full", certificate)


def beta1_full(alg: OSAlgebra, xi: FpVector) -> Beta1Result:
    """First cohomology rank straight from the definition: the kernel of
    wedging into degree 2, minus the image of degree 0."""
    xi = alg.deg1(xi)
    rank_d0 = 0 if xi.is_zero() else 1
    return _full_result(alg.n, alg.dim2, rank_d0, _rank_d1(alg, xi))


def _components(flat, owner, mult, join, m):
    """Each line's smallest component-mate, lines joined through the
    ``join`` points: every round each join point takes the least label of
    its lines, each line the least label of its points, then pointer
    jumping; a fixed point labels each component by its smallest line."""
    jlines, jowner = flat[join[owner]], owner[join[owner]]
    lab, old = np.arange(m), None
    while not np.array_equal(lab, old):
        old = lab
        low = np.full(len(mult), m)
        np.minimum.at(low, jowner, old[jlines])
        lab = old.copy()
        np.minimum.at(lab, jlines, low[jowner])
        lab = lab[lab]
    return lab


def beta1_sweep(lat, lines, primes) -> dict[int, list[Beta1Result]]:
    """``beta1_full`` at the all-ones form of the deconing at each listed
    line, for every prime, read off the incidence ``arrays`` of a
    projective ``IntersectionLattice`` ``lat``, one line at a time. At
    deconing h, kernel forms of d1 are constant along each point X not on
    h with m_X = 2 or p not dividing m_X, so their lines merge into
    components; every other point not on h is a row of a small count
    matrix M, holding its lines' counts per component, since kernel forms
    sum to zero there. ker d1 is M's null space. The points on h are at
    infinity, so h meets no finite point and is a component of its own,
    which M leaves out; only the rank of each small M is taken per line.
    Maps each prime, as given and once however often listed, to its
    results in the listed line order. Every prime is checked before any
    line; a line index outside 0..m-1 raises ``IndexError``."""
    results = {p: [] for p in primes}
    moduli = {p: _check_modulus(p) for p in results}
    mult, flat, owner = lat.arrays
    m = int(flat.max()) + 1
    sums = {p: (mult > 2) & (mult % q == 0) for p, q in moduli.items()}
    for h in lines:
        if not 0 <= h < m:
            raise IndexError(f"line index {h} out of range 0..{m - 1}")
        finite = np.ones(len(mult), dtype=bool)
        finite[owner[flat == h]] = False
        dim2 = int((mult[finite] - 1).sum())
        for p, q in moduli.items():
            lab = _components(flat, owner, mult, finite & ~sums[p], m)
            roots = lab == np.arange(m)
            roots[h] = False
            rows = finite & sums[p]
            inc = rows[owner]
            nrows, c = int(rows.sum()), int(roots.sum())
            cells = (np.cumsum(rows) - 1)[owner[inc]] * c + (np.cumsum(roots) - 1)[lab[flat[inc]]]
            mat = np.bincount(cells, minlength=nrows * c).reshape(nrows, c) % q
            dim_ker = c - len(_rref_raw(mat, q)[1])
            results[p].append(_full_result(m - 1, dim2, 1, m - 1 - dim_ker))
    return results


def sum_zero_basis(n: int, p: int) -> FpMatrix:
    """Columns e_i - e_{i+1}, a basis of the coordinate-sum-zero subspace."""
    return FpMatrix(p, np.eye(n, n - 1, dtype=np.int64) - np.eye(n, n - 1, -1, dtype=np.int64))


def beta1_restricted(alg: OSAlgebra, xi: FpVector) -> Beta1Result:
    """Kernel of the wedge map restricted to the sum-zero subspace.

    Valid only when the coefficient sum of xi is invertible mod p, in
    which case it agrees with the full computation. Under an all-ones row,
    d1 keeps the kernel ker d1 on the sum-zero forms: its rank less one is
    the restricted rank.
    """
    xi = alg.deg1(xi)
    if xi.sum() == 0:
        raise NotInvertibleError(f"coefficient sum is 0 mod {alg.p}; use the full computation")
    rank_restricted = _rank_d1(alg, xi, bordered=True) - 1
    certificate = {"dim_sub": alg.n - 1, "rank_restricted": rank_restricted, "coeff_sum": xi.sum()}
    return Beta1Result(alg.n - 1 - rank_restricted, "restricted", certificate)


def central_fixture(s: int) -> AffineArrangement:
    """s affine lines through one point, pairwise non-parallel."""
    if s < 2:
        raise BadSizeError(f"central model needs s >= 2, got {s}")
    return AffineArrangement(([1] * s, range(s)), ([s], range(s)))


def parallel_fixture(r: int) -> AffineArrangement:
    """r parallel lines (generators 0..r-1) crossed by one transversal (r)."""
    if r < 1:
        raise BadSizeError(f"parallel model needs r >= 1, got {r}")
    pairs = [line for j in range(r) for line in (j, r)]  # line j meets the transversal
    return AffineArrangement(([r, 1], range(r + 1)), ([2] * r, pairs))
