import random
import tracemalloc

import numpy as np
import pytest

from arrcohom import catalog
from arrcohom.aomoto import (
    _rank_d1,
    BadSizeError,
    NotInvertibleError,
    beta1_full,
    beta1_restricted,
    beta1_sweep,
    central_fixture,
    parallel_fixture,
    sum_zero_basis,
)
from arrcohom.geometry import AffineArrangement, ProjArrangement, decone
from arrcohom.modp import FpMatrix, FpVector, NotPrimeError
from arrcohom.orlik_solomon import OSAlgebra, QuotientOSOracle
from conftest import box_sources

PRIMES = (2, 3, 5, 7, 11, 13)


def test_fixture_shapes():
    c3 = central_fixture(3)
    assert c3.n == 3
    assert len(c3.finite_points) == 1
    assert len(c3.finite_points[0]) == 3
    assert OSAlgebra(c3, 2).dim2 == 2

    p2 = parallel_fixture(2)
    assert p2.n == 3
    assert [len(inc) for inc in p2.finite_points] == [2, 2]
    assert OSAlgebra(p2, 2).dim2 == 2

    assert OSAlgebra(central_fixture(2), 3).dim2 == 1

    with pytest.raises(BadSizeError):
        central_fixture(1)
    with pytest.raises(BadSizeError):
        parallel_fixture(0)


def test_fixtures_match_coordinate_models():
    # the literal incidences against the coordinate models they stand for:
    # line 0 is z = 0 at infinity, then s lines through the origin, or the
    # verticals x = 1..r followed by the transversal y = x
    for s in range(2, 13):
        coeffs = [(0, 0, 1), (1, 0, 0)] + [(k, -1, 0) for k in range(s - 1)]
        assert central_fixture(s) == decone(ProjArrangement.from_coeffs(coeffs), 0), s
    for r in range(1, 13):
        coeffs = [(0, 0, 1)] + [(1, 0, -j) for j in range(1, r + 1)] + [(1, -1, 0)]
        assert parallel_fixture(r) == decone(ProjArrangement.from_coeffs(coeffs), 0), r


def test_complex_squares_to_zero():
    rng = random.Random(13)
    for arr in (catalog.braid_a3(), catalog.fig3(), catalog.generic(5)):
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            alg = OSAlgebra(aff, p)
            for _ in range(10):
                xi = alg.deg1([rng.randrange(p) for _ in range(alg.n)])
                assert (alg.wedge_matrix(xi) @ xi).is_zero()


def test_beta1_central_c3():
    alg = OSAlgebra(central_fixture(3), 3)
    res = beta1_full(alg, alg.ones())
    assert res.value == 1
    assert res.method == "full"
    assert res.certificate["dim_ker_d1"] == 2
    assert res.certificate["rank_d0"] == 1


def test_beta1_braid_deconed():
    aff = decone(catalog.braid_a3(), 2)
    alg3 = OSAlgebra(aff, 3)
    assert beta1_full(alg3, alg3.ones()).value == 1
    alg2 = OSAlgebra(aff, 2)
    assert beta1_full(alg2, alg2.ones()).value == 0


def test_beta1_certificate_consistency(members):
    for _, arr in members[:12]:
        aff = decone(arr, 0)
        for p in (2, 3):
            alg = OSAlgebra(aff, p)
            res = beta1_full(alg, alg.ones())
            cert = res.certificate
            assert res.value == cert["dim_ker_d1"] - cert["rank_d0"]
            assert cert["dim1"] == cert["rank_d1"] + cert["dim_ker_d1"]
            assert cert["h2"] == cert["dim2"] - cert["rank_d1"]


def test_beta1_zero_form():
    alg = OSAlgebra(decone(catalog.generic(4), 0), 3)
    zero = alg.deg1([0, 0, 0])
    res = beta1_full(alg, zero)
    assert res.certificate["rank_d0"] == 0
    assert res.value == alg.n


def test_sum_zero_basis_spans():
    b = sum_zero_basis(5, 7)
    assert b.shape == (5, 4)
    assert b.rank() == 4
    for j in range(4):
        assert FpVector(b.p, b.data[:, j]).sum() == 0


def test_restricted_matches_full_on_braid():
    aff = decone(catalog.braid_a3(), 2)
    alg = OSAlgebra(aff, 3)  # coefficient sum is 5, invertible mod 3
    nu = alg.ones()
    res = beta1_restricted(alg, nu)
    assert res.method == "restricted"
    assert res.value == beta1_full(alg, nu).value == 1


def test_restricted_requires_invertible_sum():
    alg = OSAlgebra(central_fixture(3), 3)
    with pytest.raises(NotInvertibleError):
        beta1_restricted(alg, alg.ones())
    alg5 = OSAlgebra(decone(catalog.braid_a3(), 0), 5)  # n = 5
    with pytest.raises(NotInvertibleError):
        beta1_restricted(alg5, alg5.ones())


def test_shortcut_consistency_sweep(members):
    for _, arr in members:
        aff = decone(arr, 0)
        for p in (2, 3, 5, 7):
            if aff.n % p == 0:
                continue
            alg = OSAlgebra(aff, p)
            nu = alg.ones()
            assert beta1_restricted(alg, nu).value == beta1_full(alg, nu).value


def test_central_sweep():
    for s in range(2, 13):
        aff = central_fixture(s)
        for p in PRIMES:
            if s % p == 0:
                continue
            alg = OSAlgebra(aff, p)
            assert beta1_full(alg, alg.ones()).value == 0


def test_central_divisible_case_not_zero():
    # when p divides s the pencil bound is positive, the exclusion is sharp
    alg = OSAlgebra(central_fixture(3), 3)
    assert beta1_full(alg, alg.ones()).value == 1
    alg = OSAlgebra(central_fixture(4), 2)
    assert beta1_full(alg, alg.ones()).value > 0


def test_parallel_sweep():
    for r in range(1, 13):
        aff = parallel_fixture(r)
        for p in PRIMES:
            alg = OSAlgebra(aff, p)
            assert beta1_full(alg, alg.ones()).value == 0


def test_full_agrees_with_quotient_oracle(members):
    for _, arr in members[:15]:
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            alg = OSAlgebra(aff, p)
            assert beta1_full(alg, alg.ones()).value == QuotientOSOracle(aff, p).beta1(
                [1] * aff.n
            )


def test_deconing_invariance_braid():
    arr = catalog.braid_a3()
    for p in (2, 3):
        values = set()
        for infinity in range(6):
            alg = OSAlgebra(decone(arr, infinity), p)
            values.add(beta1_full(alg, alg.ones()).value)
        assert len(values) == 1


@pytest.mark.parametrize("h", (-1, 6))
def test_sweep_rejects_line_index_out_of_range(braid, h):
    # -1 must not wrap around to the last line
    with pytest.raises(IndexError, match=f"line index {h} out of range 0..5"):
        beta1_sweep(braid.lattice, [h], [3])


def test_pencil_deconing_degenerate_path():
    # all affine lines parallel: no degree 2, kernel is everything
    aff = decone(catalog.pencil(6), 0)
    assert aff.num_classes == 1
    alg = OSAlgebra(aff, 3)
    assert alg.dim2 == 0
    assert beta1_full(alg, alg.ones()).value == 4


def test_complex_rejects_wedge_matrix_not_killing_xi(monkeypatch, braid):
    alg = OSAlgebra(decone(braid, 2), 3)

    def broken(self, xi, rows=None):
        return FpMatrix(self.p, np.ones((self.dim2, self.n), dtype=np.int64))

    monkeypatch.setattr(OSAlgebra, "wedge_matrix", broken)
    with pytest.raises(RuntimeError, match="this is a bug"):
        beta1_full(alg, alg.ones())  # coefficient sum 5 is nonzero mod 3


def test_complex_rejects_wedge_matrix_disagreeing_with_wedge11(monkeypatch, braid):
    # a large p, so that the seeded one-form y almost surely differs on lines
    # 0 and 1 and the swap moves d1 y by (y_1 - y_0)(column 0 - column 1)
    p = 2**31 - 1
    alg = OSAlgebra(decone(braid, 2), p)
    true_d1 = alg.wedge_matrix(alg.ones())
    swapped = true_d1.data[:, [1, 0, 2, 3, 4]]
    # with xi = ones, d1 xi is the sum of the columns, which the swap keeps:
    # only the cross-check against wedge11 can fire
    assert not np.array_equal(swapped, true_d1.data)
    assert (FpMatrix(p, swapped) @ alg.ones()).is_zero()
    monkeypatch.setattr(OSAlgebra, "wedge_matrix",
                        lambda self, xi, rows=None: FpMatrix(self.p, swapped))
    with pytest.raises(RuntimeError, match="disagrees with wedge11.*; this is a bug"):
        beta1_full(alg, alg.ones())


def test_sweep_checks_every_prime_before_any_line(braid):
    with pytest.raises(NotPrimeError):
        beta1_sweep(braid.lattice, [], [4])
    with pytest.raises(NotPrimeError):
        beta1_sweep(braid.lattice, [9], [3, 4])  # not the IndexError of line 9


@pytest.fixture(scope="module")
def every_deconing(members):
    """(arr, h) for every catalog member at every line h, plus 50 seeded
    boxes at line 0."""
    pairs = [(arr, h) for _, arr in members for h in range(len(arr.lines))]
    return pairs + [(arr, 0) for arr in box_sources(50, 2024)]


# no point's multiplicity is divisible by 2**31 - 1: the small matrix has no
# rows there and the kernel comes from the union-find alone
@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_incidence_kernel_matches_definition_and_oracle(every_deconing, p):
    nonzero = 0
    for arr, h in every_deconing:
        aff = decone(arr, h)
        alg = OSAlgebra(aff, p)
        res = beta1_sweep(arr.lattice, [h], [p])[p][0]
        assert res == beta1_full(alg, alg.ones()), (arr, h)
        assert res.value == QuotientOSOracle(aff, p).beta1([1] * aff.n)
        nonzero += res.value > 0
    assert nonzero > 0


@pytest.mark.parametrize("make", (catalog.generic, catalog.near_pencil))
def test_incidence_kernel_matches_definition_at_400_lines(make):
    # the dense check's top block is 798 x 399 for the generic arrangement
    # and 398 x 399 for the near-pencil; the sparse pivot update eliminates
    # each in a few hundredths of a second per prime
    arr = make(400)
    aff = decone(arr, 0)
    for p, (res,) in beta1_sweep(arr.lattice, [0], (2, 3, 5, 7)).items():
        alg = OSAlgebra(aff, p)
        full = beta1_full(alg, alg.ones())
        assert full == res, p
        if aff.n % p:  # n = 399 is invertible mod 2 and 5
            assert beta1_restricted(alg, alg.ones()).value == full.value, p


def _check_product_rank(alg, xi):
    """The product-route rank of d1, and that of d1 under an all-ones row
    less one, against the dense ranks of the whole d1 and of d1 restricted
    to the sum-zero subspace, and beta1 against the quotient oracle and,
    where the coefficient sum is invertible, against the restricted
    shortcut; True if d1 is tall, so that the product rows are not empty."""
    d1, basis = alg.wedge_matrix(xi), sum_zero_basis(alg.n, alg.p)
    restricted = (d1 @ basis).rank()
    assert _rank_d1(alg, xi) == d1.rank()
    assert _rank_d1(alg, xi, bordered=True) - 1 == restricted
    full = beta1_full(alg, xi)
    assert full.value == QuotientOSOracle(alg.aff, alg.p).beta1(xi.data)
    if xi.sum():
        res = beta1_restricted(alg, xi)
        assert (res.value, res.certificate["rank_restricted"]) == (full.value, restricted)
    return alg.dim2 > 2 * alg.n


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_product_rank_matches_dense_rank_and_oracle(members, p):
    rng = random.Random(p)
    deconings = [(arr, h) for _, arr in members for h in range(len(arr.lines))]
    deconings += [(arr, 0) for arr in box_sources(20, 29)]
    tall = 0
    for arr, h in deconings:
        alg = OSAlgebra(decone(arr, h), p)
        for xi in (alg.ones(), alg.deg1(rng.choices(range(p), k=alg.n))):
            tall += _check_product_rank(alg, xi)
    assert 0 < tall < 2 * len(deconings)  # product rows empty on some, not all


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_product_rank_edge_cases(braid, p):
    # xi = 0: B is all zero and K the identity
    alg = OSAlgebra(decone(catalog.generic(9), 0), p)
    assert alg.dim2 > 2 * alg.n
    assert _check_product_rank(alg, alg.deg1([0] * alg.n))
    # dim2 <= 2n: the product rows are empty
    alg = OSAlgebra(decone(braid, 2), p)
    assert not _check_product_rank(alg, alg.ones())
    # a near-pencil is never tall (dim2 = m - 2 at every deconing), so a
    # 6-line pencil gets four tangent lines and is deconed at one of them:
    # the pencil point comes first, and its 5 symbols head B, one repeated
    # row at xi = ones where p divides 6
    pencil = [(0, 1, 0)] + [(1, -k, 0) for k in range(5)]
    arr = ProjArrangement.from_coeffs(pencil + [(1, t, t * t) for t in (3, 5, 7, 11)])
    alg = OSAlgebra(decone(arr, 6), p)
    assert alg.aff.finite_points[0] == tuple(range(6))
    assert _check_product_rank(alg, alg.ones())
    # a form zero on the lines of the first points: the top rows of d1 at
    # those points vanish, and the rest of the rank comes from the product
    alg = OSAlgebra(decone(catalog.generic(12), 0), p)
    xi = alg.deg1([0] * 6 + [1, 2, 3, 4, 5])
    head = alg.wedge_matrix(xi, 2 * alg.n).data
    assert alg.aff.finite_points[:5] == tuple((0, j) for j in range(1, 6))
    assert not head[:5].any() and head.any()
    assert _check_product_rank(alg, xi)
    # zero on its first half, with a sum invertible at every p: K is large,
    # and beta1_restricted ranks it under the all-ones row
    xi = alg.deg1([0] * 6 + [1, 1, 1, 1, 3])
    assert len(alg.wedge_matrix(xi, 2 * alg.n).kernel_basis()) >= 6
    assert xi.sum() and _check_product_rank(alg, xi)
    # dim2 = 0: one line (no sum-zero form), two parallels and a deconed
    # pencil; at p = 2 the all-ones sum of the last two is 0
    for aff in (AffineArrangement(([1], [0]), ([], [])),
                AffineArrangement(([2], [0, 1]), ([], [])), decone(catalog.pencil(5), 0)):
        alg = OSAlgebra(aff, p)
        assert alg.dim2 == 0 and not _check_product_rank(alg, alg.ones())
        if alg.n > 1 and p == 2:
            with pytest.raises(NotInvertibleError):
                beta1_restricted(alg, alg.ones())
        else:
            assert beta1_restricted(alg, alg.ones()).certificate["dim_sub"] == alg.n - 1


def test_beta1_memory_stays_below_a_quarter_of_d1():
    alg = OSAlgebra(decone(catalog.generic(200), 0), 3)
    d1_bytes = alg.dim2 * alg.n * 8
    assert d1_bytes == 19_701 * 199 * 8
    for fn in (beta1_full, beta1_restricted):  # coefficient sum 199 is 1 mod 3
        tracemalloc.start()
        try:
            fn(alg, alg.ones())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d1_bytes / 4, (fn.__name__, peak)
