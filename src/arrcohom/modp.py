"""Dense exact linear algebra over a prime field F_p.

Matrices hold numpy int64 residues. The modulus must be prime and below
2**31 so that any product of two residues stays inside int64. A matrix
product whose accumulated dot products could overflow splits its right
factor into 16-bit halves, and falls back to exact object arithmetic only
past the inner dimension where even the halves could overflow.

One elimination routine, ``_rref_raw``, serves every rank, kernel and
quotient. Its matrices are stored densely, but each pivot at row r and
column c updates only the rows with a nonzero entry in column c, and in
them only the columns where the normalized row r is nonzero; a pivot row
found below r is swapped in from column c on, and it is kept out of its
own update by a zero multiplier. Past one scan of column c and of row r
per pivot, a sparse matrix such as d1 costs the arithmetic its nonzeros
need (Gilbert and Peierls, SIAM J. Sci. Stat. Comput. 9, 1988).

The public constructors ``FpVector`` and ``FpMatrix`` are the trust boundary:
they check the modulus, refuse non-integer entries and reduce every entry.
Residues computed inside the package are wrapped by ``_FpArray._of`` unchecked.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "FpMatrix",
    "FpVector",
    "is_prime",
    "NotPrimeError",
    "DimensionMismatchError",
    "ModulusMismatchError",
]

_MAX_MODULUS = 2**31


class NotPrimeError(ValueError):
    """Modulus is not a supported prime."""


class DimensionMismatchError(ValueError):
    """Operand shapes are incompatible."""


class ModulusMismatchError(ValueError):
    """Operands live over different prime fields."""


@lru_cache(maxsize=None)
def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_modulus(p) -> int:
    p = operator.index(p)  # as for entries: a float or a string is refused
    # the bound first: trial division up to sqrt(p) is slow for a huge p
    if p >= _MAX_MODULUS:
        raise NotPrimeError(f"modulus {p} is too large, need p < 2**31")
    if not is_prime(p):
        raise NotPrimeError(f"modulus {p} is not prime")
    return p


def _rref_raw(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` mod p, and its pivot columns, with
    the fixed pivot rule: scan columns left to right, take the topmost
    nonzero entry. The entries are reduced mod p on entry, into a new
    C-ordered array whatever the layout of ``a``, which is left unchanged.

    The pivot row, swapped in from row top > r on columns c onward only
    (both rows are zero left of c), is normalized there unless its pivot is
    1, then cleared from every row with a nonzero entry in column c, above
    and below r, at the columns where row r is nonzero only (elsewhere the
    update would subtract zero), under a zero multiplier for row r itself."""
    a = np.remainder(a, p, order="C")
    rows, cols = a.shape
    flat = a.reshape(-1)  # a view: the updates below write through it into a
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = a[:, c].nonzero()[0]
        i = int(hit.searchsorted(r))
        if i == hit.size:
            continue
        top = int(hit[i])
        row = a[r, c:]
        if top != r:  # rows r..top are zero left of column c
            row[:], a[top, c:] = a[top, c:], row.copy()
            hit[i] = r  # the swap moved top's nonzero entry to r
        if row[0] != 1:
            row *= pow(int(row[0]), -1, p)
            row %= p
        nz = row.nonzero()[0]  # nz[0] == 0: column c itself
        at = (hit * cols + c)[:, None] + nz  # flat offsets of those rows at those columns
        blk = flat[at]
        prod = blk[:, :1] * row[nz]
        prod[i] = 0  # row r's multiplier is zero: it is left as it is
        blk -= prod
        blk %= p
        flat[at] = blk
        pivots.append(c)
        r += 1
    return a, pivots


def _kernel_raw(a: np.ndarray, p: int) -> np.ndarray:
    """Right null space basis, one row per free column of the rref."""
    rref, pivots = _rref_raw(a, p)
    cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-rref[:len(pivots), free].T) % p
    return basis


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact for residues. With b split as hi * 2**16 + lo, no
    int64 sum exceeds (p - 1) * (2**16 + inner * 0xFFFF): below 2**63 for
    inner <= 2**16 at p = 2**31 - 1, the largest supported prime."""
    inner = a.shape[-1]
    if (p - 1) * (p - 1) * inner < 2**62:
        return (a @ b) % p
    if (p - 1) * (2**16 + inner * 0xFFFF) < 2**63:
        return ((a @ (b >> 16)) % p * 2**16 + a @ (b & 0xFFFF)) % p
    return np.asarray((a.astype(object) @ b.astype(object)) % p, dtype=np.int64)


class _FpArray:
    """Read-only int64 residues mod a prime, with ``_ndim`` dimensions."""

    __slots__ = ("p", "data")
    _ndim, _kind = 0, ""

    def __init__(self, p: int, entries):
        self.p = _check_modulus(p)
        data = np.asarray(entries)
        if not np.can_cast(data.dtype, np.int64):
            # operator.index, as in parse_line: a float or a string is
            # refused, not truncated, and an int of any size is reduced
            data = np.asarray(entries, dtype=object)
            data = np.array([operator.index(x) % self.p for x in data.flat],
                            dtype=np.int64).reshape(data.shape)
        if data.ndim != self._ndim:
            raise DimensionMismatchError(f"expected a {self._kind}, got shape {data.shape}")
        self.data = data.astype(np.int64, copy=False) % self.p
        self.data.flags.writeable = False

    @classmethod
    def _of(cls, p: int, data: np.ndarray):
        """Wrap int64 residues mod the checked prime p, read-only, unchecked and uncopied."""
        obj = object.__new__(cls)
        data.flags.writeable = False
        obj.p, obj.data = p, data
        return obj

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, _FpArray)
            and self.p == other.p
            and self.data.shape == other.data.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def tolist(self) -> list:
        return self.data.tolist()

    def is_zero(self) -> bool:
        return not self.data.any()


class FpVector(_FpArray):
    """Vector of residues mod a prime."""

    __slots__ = ()
    _ndim, _kind = 1, "vector"

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __getitem__(self, i) -> int:
        return int(self.data[i])

    def __repr__(self) -> str:
        return f"FpVector(p={self.p}, {self.tolist()})"

    def sum(self) -> int:
        return int(self.data.sum() % self.p)

    def _binop_check(self, other: "FpVector") -> None:
        if not isinstance(other, FpVector):
            raise TypeError(f"expected FpVector, got {type(other).__name__}")
        if self.p != other.p:
            raise ModulusMismatchError(f"p={self.p} vs p={other.p}")
        if len(self) != len(other):
            raise DimensionMismatchError(f"lengths {len(self)} vs {len(other)}")

    def __add__(self, other: "FpVector") -> "FpVector":
        self._binop_check(other)
        return FpVector._of(self.p, (self.data + other.data) % self.p)

    def __sub__(self, other: "FpVector") -> "FpVector":
        self._binop_check(other)
        return FpVector._of(self.p, (self.data - other.data) % self.p)


class FpMatrix(_FpArray):
    """Dense matrix of residues mod a prime."""

    __slots__ = ()
    _ndim, _kind = 2, "matrix"

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, shape={self.shape})"

    def rank(self) -> int:
        """Rank by one elimination, tall or not. On a fully built d1 this is
        about five times slower than ``aomoto._rank_d1`` at generic-120,
        which ranks d1 without building it."""
        return len(_rref_raw(self.data, self.p)[1])

    def kernel_basis(self) -> list[FpVector]:
        """Basis of the right null space; empty list for injective maps."""
        return [FpVector._of(self.p, row) for row in _kernel_raw(self.data, self.p)]

    def __matmul__(self, other):
        """Product with a matrix or a vector, of the same type as ``other``."""
        if not isinstance(other, _FpArray):
            return NotImplemented
        if other.p != self.p:
            raise ModulusMismatchError(f"p={self.p} vs p={other.p}")
        if other.data.shape[0] != self.data.shape[1]:
            raise DimensionMismatchError(f"{self.shape} @ {other.data.shape}")
        return type(other)._of(self.p, _matmul_mod(self.data, other.data, self.p))
