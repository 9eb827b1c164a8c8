"""The wedge cochain complex of an arrangement over F_p and its first
cohomology rank, plus the two model arrangements every degeneration
targets (a pencil of s lines through one point, and r parallels crossed
by one transversal), written as incidences. ``beta1_ones`` reads the
kernel of d1 at the all-ones form off the incidences (Falk's resonance
over F_p); the dense definition ``beta1_full`` is its independent check."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AffineArrangement
from .modp import FpMatrix, FpVector, _check_modulus, _rref_raw
from .orlik_solomon import OSAlgebra

__all__ = [
    "Beta1Result",
    "beta1_full",
    "beta1_ones",
    "count_matrix",
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


def _d1(alg: OSAlgebra, xi: FpVector) -> FpMatrix:
    """The differential (xi wedge -) of the complex R -> A^1 -> A^2."""
    d1 = alg.wedge_matrix(xi)
    # the square of the differential vanishes since xi wedge xi = 0
    if not (d1 @ xi).is_zero():
        raise RuntimeError("wedge matrix does not annihilate xi; this is a bug")
    return d1


def _full_result(n: int, dim2: int, rank_d0: int, rank_d1: int) -> Beta1Result:
    certificate = {"dim1": n, "dim2": dim2, "rank_d0": rank_d0, "rank_d1": rank_d1,
                   "dim_ker_d1": n - rank_d1, "h0": 1 - rank_d0, "h2": dim2 - rank_d1}
    return Beta1Result(n - rank_d1 - rank_d0, "full", certificate)


def beta1_full(alg: OSAlgebra, xi: FpVector) -> Beta1Result:
    """First cohomology rank straight from the definition: the kernel of
    wedging into degree 2, minus the image of degree 0."""
    xi = alg.deg1(xi)
    rank_d0 = 0 if xi.is_zero() else 1
    return _full_result(alg.n, alg.dim2, rank_d0, _d1(alg, xi).rank())


def count_matrix(aff: AffineArrangement, p: int) -> np.ndarray:
    """The kernel of d1 at the all-ones form as a small null space. Columns:
    the components of a union-find along the finite points X with m_X = 2 or
    p not dividing m_X (kernel forms are constant there). Rows: the other
    points (kernel forms sum to zero there), holding their lines' counts."""
    parent = list(range(aff.n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    sums = []
    for inc in aff.finite_points:
        if len(inc) > 2 and len(inc) % p == 0:
            sums.append(inc)
        else:
            for j in inc[1:]:
                parent[find(j)] = find(inc[0])
    roots = [find(i) for i in range(aff.n)]
    m = np.zeros((len(sums), aff.n), dtype=np.int64)
    for row, inc in enumerate(sums):
        m[row] = np.bincount([roots[j] for j in inc], minlength=aff.n)
    return m[:, sorted(set(roots))] % p


def beta1_ones(aff: AffineArrangement, p: int) -> Beta1Result:
    """``beta1_full`` at the all-ones form: ker d1 is ``count_matrix``'s null space."""
    p = _check_modulus(p)
    m = count_matrix(aff, p)
    dim_ker = m.shape[1] - len(_rref_raw(m, p)[1])
    dim2 = sum(map(len, aff.finite_points)) - len(aff.finite_points)
    return _full_result(aff.n, dim2, 1, aff.n - dim_ker)


def sum_zero_basis(n: int, p: int) -> FpMatrix:
    """Columns e_i - e_{i+1}, a basis of the coordinate-sum-zero subspace."""
    b = np.zeros((n, n - 1), dtype=np.int64)
    for i in range(n - 1):
        b[i, i] = 1
        b[i + 1, i] = p - 1
    return FpMatrix(p, b)


def beta1_restricted(alg: OSAlgebra, xi: FpVector) -> Beta1Result:
    """Kernel of the wedge map restricted to the sum-zero subspace.

    Valid only when the coefficient sum of xi is invertible mod p, in
    which case it agrees with the full computation.
    """
    xi = alg.deg1(xi)
    if xi.sum() == 0:
        raise NotInvertibleError(
            f"coefficient sum is 0 mod {alg.p}; use the full computation"
        )
    restricted = _d1(alg, xi) @ sum_zero_basis(alg.n, alg.p)
    rank_restricted = restricted.rank()
    value = (alg.n - 1) - rank_restricted
    certificate = {
        "dim_sub": alg.n - 1,
        "rank_restricted": rank_restricted,
        "coeff_sum": xi.sum(),
    }
    return Beta1Result(value, "restricted", certificate)


def central_fixture(s: int) -> AffineArrangement:
    """s affine lines through one point, pairwise non-parallel."""
    if s < 2:
        raise BadSizeError(f"central model needs s >= 2, got {s}")
    return AffineArrangement(s, 0, tuple((j,) for j in range(s)), (tuple(range(s)),))


def parallel_fixture(r: int) -> AffineArrangement:
    """r parallel lines (generators 0..r-1) crossed by one transversal (r)."""
    if r < 1:
        raise BadSizeError(f"parallel model needs r >= 1, got {r}")
    return AffineArrangement(r + 1, 0, (tuple(range(r)), (r,)),
                             tuple((j, r) for j in range(r)))
