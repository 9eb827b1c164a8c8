import random

import numpy as np
import pytest

from arrcohom.modp import (
    DimensionMismatchError,
    FpMatrix,
    FpVector,
    ModulusMismatchError,
    NotPrimeError,
    _rref_raw,
    is_prime,
)

PRIMES = (2, 3, 5, 7, 13)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**31])
def test_bad_modulus_rejected(p):
    with pytest.raises(NotPrimeError):
        FpMatrix(p, [[1]])
    with pytest.raises(NotPrimeError):
        FpVector(p, [1])


def test_entries_reduced():
    m = FpMatrix(5, [[7, -1], [10, 4]])
    assert m.tolist() == [[2, 4], [0, 4]]
    v = FpVector(3, [-1, 4, 3])
    assert v.tolist() == [2, 1, 0]


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
