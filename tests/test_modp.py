import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcohom import catalog, modp
from arrcohom.geometry import decone
from arrcohom.modp import (
    DimensionMismatchError,
    FpMatrix,
    FpVector,
    ModulusMismatchError,
    NotPrimeError,
    _kernel_raw,
    _rref_raw,
    is_prime,
)
from arrcohom.orlik_solomon import OSAlgebra
from conftest import box_sources

PRIMES = (2, 3, 5, 7, 13)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


# 2147483659 is the smallest prime above 2**31, the cap that the int64
# bounds of the kernels (such as p**2 < 2**62) assume
@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**31, 2147483659, 2**61 - 1])
def test_bad_modulus_rejected(p):
    with pytest.raises(NotPrimeError):
        FpMatrix(p, [[1]])
    with pytest.raises(NotPrimeError):
        FpVector(p, [1])


@pytest.mark.parametrize("p", [3.9, 2.5, "5", 5.0, None])
def test_non_integer_modulus_refused(p):
    # the modulus follows the rule for entries: refused, not truncated or parsed
    with pytest.raises(TypeError):
        FpVector(p, [1, 2, 4])
    with pytest.raises(TypeError):
        FpMatrix(p, [[7]])
    with pytest.raises(TypeError):
        OSAlgebra(decone(catalog.braid_a3(), 0), p)
    assert FpVector(np.int64(5), [7]).p == 5


def test_entries_reduced():
    m = FpMatrix(5, [[7, -1], [10, 4]])
    assert m.tolist() == [[2, 4], [0, 4]]
    v = FpVector(3, [-1, 4, 3])
    assert v.tolist() == [2, 1, 0]


@pytest.mark.parametrize("entries", [[0.5, 1.9, 2.7], ["4", "5"], [1, 2.0], [None],
                                     np.array([1.0, 2.0])])
def test_non_integer_entries_refused(entries):
    # a float or a string is refused, as by parse_line, not truncated or parsed
    with pytest.raises(TypeError):
        FpVector(3, entries)
    with pytest.raises(TypeError):
        FpMatrix(3, [entries])


def test_integer_entries_of_any_size_reduced():
    assert FpVector(5, [2**70]).tolist() == [2**70 % 5]
    # numpy reads this list as float64; its entries are still exact ints
    assert FpVector(7, [-1, 2**63]).tolist() == [6, 2**63 % 7]
    assert FpMatrix(3, [[2**64 + 1, -(2**80)]]).tolist() == [[(2**64 + 1) % 3, -(2**80) % 3]]
    assert FpVector(5, np.array([2**64 - 1], dtype=np.uint64)).tolist() == [(2**64 - 1) % 5]


def test_empty_and_integer_array_entries(monkeypatch):
    assert FpVector(3, []).tolist() == []
    assert FpMatrix(3, np.zeros((0, 4))).shape == (0, 4)
    # integer and bool arrays are cast, never read entry by entry: only
    # each modulus goes through operator.index
    seen = []
    monkeypatch.setattr(modp, "operator", SimpleNamespace(index=lambda x: seen.append(x) or x))
    assert FpVector(3, np.array([True, False])).tolist() == [1, 0]
    for dtype in (np.int8, np.uint16, np.int32, np.int64):
        assert FpVector(5, np.array([3, 4, 7], dtype=dtype)).tolist() == [3, 4, 2]
    assert FpMatrix(5, np.array([[9, -1]], dtype=np.int64)).tolist() == [[4, 4]]
    assert seen == [3, 5, 5, 5, 5, 5]


def test_rank_examples():
    assert FpMatrix(2, np.eye(3, dtype=np.int64)).rank() == 3
    assert FpMatrix(2, [[1, 1], [1, 1]]).rank() == 1
    # determinant is 3, zero mod 3
    assert FpMatrix(3, [[2, 1], [1, 2]]).rank() == 1
    assert FpMatrix(5, [[2, 1], [1, 2]]).rank() == 2


def test_kernel_examples():
    ker = FpMatrix(3, [[1, 1, 1]]).kernel_basis()
    assert len(ker) == 2
    assert FpMatrix(7, np.eye(4, dtype=np.int64)).kernel_basis() == []
    assert len(FpMatrix(5, np.zeros((2, 4), dtype=np.int64)).kernel_basis()) == 4


def test_kernel_vectors_annihilate_and_count():
    rng = random.Random(11)
    for p in PRIMES:
        for _ in range(25):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            basis = m.kernel_basis()
            assert cols == m.rank() + len(basis)
            for v in basis:
                assert (m @ v).is_zero()


def test_rank_equals_transpose_rank():
    rng = random.Random(23)
    for p in PRIMES:
        for _ in range(20):
            rows, cols = rng.randint(1, 8), rng.randint(1, 8)
            m = FpMatrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])
            assert m.rank() == FpMatrix(p, m.data.T).rank()


def test_rref_deterministic_fixed_pivot_rule():
    m = np.array([[0, 2, 1], [3, 1, 0], [3, 3, 1]], dtype=np.int64)
    r1, piv1 = _rref_raw(m, 5)
    r2, piv2 = _rref_raw(m.copy(), 5)
    assert np.array_equal(r1, r2) and piv1 == piv2
    # pivots are the leftmost columns, chosen topmost first:
    # rows swap so (3,1,0) leads, then column 1 pivots at the old second row
    assert piv1 == [0, 1]
    assert r1.tolist() == [[1, 0, 4], [0, 1, 3], [0, 0, 0]]
    # the input is left as it was
    assert m.tolist() == [[0, 2, 1], [3, 1, 0], [3, 3, 1]]


def test_rref_of_empty_shapes():
    assert FpMatrix(3, np.zeros((0, 4), dtype=np.int64)).rank() == 0
    assert len(FpMatrix(3, np.zeros((0, 4), dtype=np.int64)).kernel_basis()) == 4
    assert FpMatrix(3, np.zeros((4, 0), dtype=np.int64)).rank() == 0


def test_mismatch_errors():
    with pytest.raises(ModulusMismatchError):
        FpMatrix(2, [[1]]) @ FpVector(3, [1])
    with pytest.raises(DimensionMismatchError):
        FpMatrix(2, [[1, 0]]) @ FpVector(2, [1])
    with pytest.raises(DimensionMismatchError):
        FpVector(5, [1]) + FpVector(5, [1, 2])
    with pytest.raises(DimensionMismatchError):
        FpVector(3, [[1]])
    with pytest.raises(DimensionMismatchError):
        FpMatrix(3, [1])
    with pytest.raises(TypeError):
        FpVector(3, [1]) + FpMatrix(3, [[1]])
    with pytest.raises(ModulusMismatchError):
        FpVector(2, [1]) + FpVector(3, [1])


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_matmul_over_empty_inner_dimension(p):
    # numpy's own product gives the int64 zeros, for every supported modulus
    m = FpMatrix(p, np.zeros((2, 0), dtype=np.int64))
    prod = m @ FpMatrix(p, np.zeros((0, 3), dtype=np.int64))
    assert prod.shape == (2, 3) and prod.data.dtype == np.int64 and prod.is_zero()
    vec = m @ FpVector(p, [])
    assert len(vec) == 2 and vec.data.dtype == np.int64 and vec.is_zero()


def test_large_modulus_stays_exact():
    # close to the 2**31 cap; matmul takes the exact object-arithmetic path
    p = 2147483629
    m = FpMatrix(p, [[p - 1, p - 2], [1, p - 1]])
    v = FpVector(p, [p - 1, p - 1])
    expected = [
        ((p - 1) * (p - 1) + (p - 2) * (p - 1)) % p,
        (1 * (p - 1) + (p - 1) * (p - 1)) % p,
    ]
    assert expected == [3, 0]  # would be garbage if products overflowed int64
    assert (m @ v).tolist() == expected
    assert m.rank() == 2


def test_rref_reduces_its_input_on_entry():
    # a nonzero multiple of p is a zero entry, not a pivot to invert
    m = np.array([[3, 1], [1, 1]], dtype=np.int64)
    rref, pivots = _rref_raw(m, 3)
    assert pivots == [0, 1]
    assert rref.tolist() == [[1, 0], [0, 1]]
    assert m.tolist() == [[3, 1], [1, 1]]
    # an input that gets no pivot comes back reduced as well
    m = np.array([[3, -6], [9, 0]], dtype=np.int64)
    rref, pivots = _rref_raw(m, 3)
    assert pivots == []
    assert rref.tolist() == [[0, 0], [0, 0]]
    assert m.tolist() == [[3, -6], [9, 0]]


def _full_matrix_rref(a, p):
    """The elimination as it was before pivots touched only the rows and
    columns they change: every pivot updates the whole matrix."""
    a = a.copy()
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        top = r + int(nz[0])
        if top != r:
            a[[r, top]] = a[[top, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        factors = a[:, c].copy()
        factors[r] = 0
        # in place: one matrix-sized temporary per pivot, so the allocator
        # does not hand pages back and fault them in again on every pivot
        a -= np.outer(factors, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def _loop_kernel(rref, pivots, p):
    """The kernel basis filled entry by entry, as it was before one
    assignment filled the pivot entries."""
    cols = rref.shape[1]
    free = [c for c in range(cols) if c not in set(pivots)]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = (-int(rref[r, f])) % p
    return basis


def _assert_matches_full_matrix_rref(a, p):
    before = a.copy()
    rref, pivots = _rref_raw(a, p)
    expected, expected_pivots = _full_matrix_rref(a, p)
    assert pivots == expected_pivots
    assert rref.dtype == expected.dtype and np.array_equal(rref, expected)
    assert np.array_equal(a, before)
    basis = _kernel_raw(a, p)
    assert np.array_equal(basis, _loop_kernel(expected, expected_pivots, p))
    assert not ((a @ basis.T.astype(object)) % p).any()


DIFF_PRIMES = (2, 3, 5, 7, 2**31 - 1)


def _sparse_rows(rng, rows, cols, per_row, p):
    # each row holds per_row nonzeros (fewer if cols is smaller) in random columns
    a = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        k = min(cols, int(rng.choice(per_row)))
        a[i, rng.choice(cols, size=k, replace=False)] = rng.integers(1, p, size=k)
    return a


@st.composite
def reduced_matrices(draw):
    """A prime and a matrix of residues mod it: empty, dense, low rank, tall
    and sparse like d1 (about 400 x 30, 2-3 nonzeros a row, some columns
    empty), or wide like the quotient oracle's relation rows (1 or 3
    nonzeros a row)."""
    p = draw(st.sampled_from(DIFF_PRIMES))
    kind = draw(st.sampled_from(["empty", "dense", "low-rank", "tall", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "empty":
        shape = draw(st.sampled_from([(0, 0), (0, 5), (5, 0)]))
        return p, np.zeros(shape, dtype=np.int64)
    if kind == "dense":
        rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        return p, rng.integers(0, p, size=(rows, cols))
    if kind == "low-rank":
        rows, cols, k = draw(st.integers(1, 12)), draw(st.integers(1, 12)), draw(st.integers(0, 4))
        low = rng.integers(0, 4, size=(rows, k)) @ rng.integers(0, 4, size=(k, cols))
        return p, low.astype(np.int64) % p
    if kind == "tall":
        rows, cols = draw(st.integers(350, 450)), draw(st.integers(20, 40))
        a = _sparse_rows(rng, rows, cols, [2, 3], p)
        a[:, rng.choice(cols, size=draw(st.integers(0, 3)), replace=False)] = 0
        return p, a
    rows, cols = draw(st.integers(5, 40)), draw(st.integers(40, 120))
    return p, _sparse_rows(rng, rows, cols, [1, 3], p)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=reduced_matrices())
def test_rref_matches_full_matrix_elimination(case):
    p, a = case
    _assert_matches_full_matrix_rref(a, p)


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_rref_matches_full_matrix_elimination_on_fixed_cases(p):
    cases = [
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        np.zeros((3, 3), dtype=np.int64),
        np.eye(4, dtype=np.int64),
        # a pivot row found below a zero, then back-substituted into the rows above
        np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 1]], dtype=np.int64) % p,
        np.full((5, 6), p - 1, dtype=np.int64),
        np.triu(np.ones((6, 6), dtype=np.int64))[::-1].copy(),
    ]
    for a in cases:
        _assert_matches_full_matrix_rref(a, p)


def _d1_sources():
    return ([arr for _, arr in catalog.sweep_members()] + box_sources(50, seed=2024))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_full_matrix_elimination_on_d1(p):
    # the wedge matrix of the all-ones form at line 0, as the dense check builds it
    for arr in _d1_sources():
        alg = OSAlgebra(decone(arr, 0), p)
        _assert_matches_full_matrix_rref(alg.wedge_matrix(alg.ones()).data, p)



def _python_rank(a, p):
    """Rank by row reduction over Python ints, sharing nothing with modp."""
    rows = [[x % p for x in row] for row in a.tolist()]
    rank = 0
    for c in range(a.shape[1]):
        top = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if top is None:
            continue
        rows[rank], rows[top] = rows[top], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _assert_rank_checks_out(a, p):
    # checks that run no elimination on ``a`` but the ones under test: the
    # rank of the transpose, and rank-nullity with a kernel basis of
    # independent vectors that ``a`` kills in object arithmetic
    rank = FpMatrix(p, a).rank()
    assert FpMatrix(p, a.T).rank() == rank
    basis = FpMatrix(p, a).kernel_basis()
    kernel = np.array([v.data for v in basis], dtype=np.int64).reshape(len(basis), a.shape[1])
    assert rank + len(kernel) == a.shape[1]
    assert FpMatrix(p, kernel).rank() == len(kernel)
    assert not ((a.astype(object) @ kernel.T.astype(object)) % p).any()
    return rank


def _object_product(a, b, p):
    return np.asarray((a.astype(object) @ b.astype(object)) % p, dtype=np.int64)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(case=reduced_matrices())
def test_rank_matches_rref_pivots(case):
    p, a = case
    assert _assert_rank_checks_out(a, p) == _python_rank(a, p)


@pytest.mark.parametrize("p", DIFF_PRIMES)
def test_tall_rank_matches_rref_pivots_on_fixed_cases(p):
    # tall matrices split at their top 2 * cols rows, where aomoto._rank_d1
    # takes the rank through the kernel of the top block; these cases put
    # the rank in either block
    cols = 6
    rng = np.random.default_rng(p % 1000)

    def rand(rows):
        return rng.integers(0, p, size=(rows, cols))

    eye, zeros, top = np.eye(cols, dtype=np.int64), np.zeros((2 * cols, cols), dtype=np.int64), rand(2 * cols)
    one_row = np.tile(rand(1), (2 * cols, 1))
    cases = [
        rand(2 * cols),
        rand(2 * cols + 1),
        np.vstack([zeros, rand(5)]),
        np.vstack([zeros, eye]),
        np.vstack([one_row, rand(9)]),
        # the last row alone lies outside the top block's row space
        np.vstack([one_row, eye[:1]]),
        # a full-rank top block: the rest adds nothing
        np.vstack([eye, rand(cols + 7)]),
        # rest rows inside the top block's row space
        np.vstack([top, _object_product(rand(4)[:, :3], top[:3], p)]),
        np.vstack([eye, zeros[:cols], np.ones((3, cols), dtype=np.int64)]),
        np.zeros((5, 0), dtype=np.int64),
        np.zeros((20, cols), dtype=np.int64),
        np.full((30, cols), p - 1, dtype=np.int64),
    ]
    for a in cases:
        assert _assert_rank_checks_out(a, p) == _python_rank(a, p)
    assert FpMatrix(p, cases[3]).rank() == FpMatrix(p, cases[6]).rank() == cols


@pytest.mark.parametrize("p", [2, 3, 5, 2**31 - 1])
def test_tall_rank_matches_rref_pivots_on_d1(p):
    # the dense check's d1 at the all-ones form: every line of the catalog
    # members, and line 0 of the box arrangements
    sources = [(arr, h) for _, arr in catalog.sweep_members() for h in range(len(arr.lines))]
    sources += [(arr, 0) for arr in box_sources(50, seed=2024)]
    for arr, h in sources:
        alg = OSAlgebra(decone(arr, h), p)
        _assert_rank_checks_out(alg.wedge_matrix(alg.ones()).data, p)


@pytest.mark.parametrize("p", [3, 2**31 - 1])
def test_tall_rank_matches_rref_pivots_on_generic_120(p):
    alg = OSAlgebra(decone(catalog.generic(120), 0), p)
    d1 = alg.wedge_matrix(alg.ones()).data
    assert d1.shape == (7021, 119)
    _assert_rank_checks_out(d1, p)


@pytest.mark.parametrize("inner", [0, 1, 2, 199, 2**15 - 1, 2**16, 2**16 + 1])
def test_matmul_at_the_largest_prime_matches_object_arithmetic(inner):
    # row 0 of a times column 0 of b is the worst case of the 16-bit split
    # b = hi * 2**16 + lo: every low half is 0xFFFF and the high halves sum to
    # 1, so (a @ hi) % p is p - 1. Its int64 sum reaches the bound exactly,
    # which fits at inner = 2**16 and passes 2**63 at 2**16 + 1, where the
    # product must take the object path.
    p = 2**31 - 1
    assert (p - 1) * (2**16 + 2**16 * 0xFFFF) < 2**63 <= (p - 1) * (2**16 + (2**16 + 1) * 0xFFFF)
    rng = np.random.default_rng(inner)
    a = np.where(rng.random((2, inner)) < 0.5, p - 1, rng.integers(0, p, size=(2, inner)))
    a[0] = p - 1
    b = np.full((inner, 3), 0x7FFEFFFF, dtype=np.int64)
    b[:, 0] = 0xFFFF
    b[:1, 0] = 0x1FFFF
    b[:, 2] = np.where(rng.random(inner) < 0.5, p - 1, rng.integers(0, p, size=inner))
    prod = (FpMatrix(p, a) @ FpMatrix(p, b)).data
    assert prod.dtype == np.int64
    assert np.array_equal(prod, _object_product(a, b, p))
    vec = FpMatrix(p, a) @ FpVector(p, b[:, 0])
    assert np.array_equal(vec.data, _object_product(a, b[:, 0], p))
