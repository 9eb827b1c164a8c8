import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcohom import catalog
from arrcohom.aomoto import beta1_full, central_fixture, parallel_fixture
from arrcohom.geometry import decone
from arrcohom.modp import (
    DimensionMismatchError,
    FpMatrix,
    FpVector,
    ModulusMismatchError,
    _rref_raw,
)
from conftest import block_wedge, box_arrangements, box_sources
from arrcohom.orlik_solomon import (
    OSAlgebra,
    QuotientOSOracle,
    relation_pairs,
    relation_triples,
)


def braid_affine():
    return decone(catalog.braid_a3(), 2)


def test_braid_degree2_dimension():
    for p in (2, 3, 5, 7):
        alg = OSAlgebra(braid_affine(), p)
        assert alg.n == 5
        assert alg.dim2 == 6


def test_central_and_parallel_dimensions():
    for s in range(2, 8):
        assert OSAlgebra(central_fixture(s), 5).dim2 == s - 1
    for r in range(1, 8):
        alg = OSAlgebra(parallel_fixture(r), 5)
        assert alg.dim2 == r
        # basis symbols pair every parallel with the transversal
        anchors, lines = alg.symbol_factors()
        assert anchors.tolist() == list(range(r))
        assert lines.tolist() == [r] * r


def test_brieskorn_dimension_matches_point_defects(members):
    for _, arr in members:
        aff = decone(arr, 0)
        expected = sum(len(inc) - 1 for inc in aff.finite_points)
        assert OSAlgebra(aff, 3).dim2 == expected


def test_pair_wedge_zero_iff_parallel(members):
    for name, arr in members[:8] + [("braid-a3", catalog.braid_a3())]:
        aff = decone(arr, 0)
        for p in (2, 5):
            alg = OSAlgebra(aff, p)
            classes = {q: a for a, c in enumerate(aff.classes) for q in c}
            for i, j in combinations(range(alg.n), 2):
                value = alg.wedge11(alg.unit(i), alg.unit(j))
                if classes[i] == classes[j]:
                    assert value.is_zero()
                else:
                    assert not value.is_zero()


def test_triple_relation_holds_exhaustively(members):
    for _, arr in members:
        for infinity in (0, len(arr.lines) - 1):
            aff = decone(arr, infinity)
            for p in (2, 3, 5):
                alg = OSAlgebra(aff, p)
                e = alg.unit
                for i, j, k in relation_triples(aff):
                    alt = (alg.wedge11(e(i), e(j)) - alg.wedge11(e(i), e(k))
                           + alg.wedge11(e(j), e(k)))
                    assert alt.is_zero()


def test_wedge_antisymmetry_and_bilinearity():
    rng = random.Random(3)
    aff = braid_affine()
    for p in (2, 3, 7):
        alg = OSAlgebra(aff, p)
        for _ in range(20):
            x = alg.deg1([rng.randrange(p) for _ in range(alg.n)])
            y = alg.deg1([rng.randrange(p) for _ in range(alg.n)])
            z = alg.deg1([rng.randrange(p) for _ in range(alg.n)])
            assert alg.wedge11(x, x).is_zero()
            assert (alg.wedge11(x, y) + alg.wedge11(y, x)).is_zero()
            assert alg.wedge11(x + y, z) == alg.wedge11(x, z) + alg.wedge11(y, z)
        nu = alg.ones()
        assert alg.wedge11(nu, nu).is_zero()


def test_central_wedge_formula():
    # xi ^ (e_i - e_{i+1}) = -(sum of coefficients) * e_i ^ e_{i+1}
    rng = random.Random(17)
    for s in (3, 5):
        for p in (2, 3, 5, 7):
            alg = OSAlgebra(central_fixture(s), p)
            xi = alg.deg1([rng.randrange(p) for _ in range(s)])
            total = sum(xi) % p
            for i in range(s - 1):
                lhs = alg.wedge11(xi, alg.unit(i) - alg.unit(i + 1))
                assert lhs == FpVector(p, -total * alg.wedge11(alg.unit(i), alg.unit(i + 1)).data)


def test_parallel_wedge_formula():
    # xi ^ eta = -a_last * sum c_i (e_i ^ e_last) for eta supported on the parallels
    rng = random.Random(29)
    for r in (2, 4):
        for p in (2, 3, 5):
            alg = OSAlgebra(parallel_fixture(r), p)
            xi = alg.deg1([rng.randrange(p) for _ in range(r + 1)])
            c = [rng.randrange(p) for _ in range(r)]
            eta = alg.deg1(c + [0])
            expected = FpVector(p, np.zeros(alg.dim2, dtype=np.int64))
            for i in range(r):
                pair = alg.wedge11(alg.unit(i), alg.unit(r))
                expected = expected + FpVector(p, -xi[r] * c[i] * pair.data)
            assert alg.wedge11(xi, eta) == expected


def test_coeff_sum_membership():
    aff = braid_affine()
    alg = OSAlgebra(aff, 5)
    assert alg.ones().sum() == 0  # n = 5 vanishes mod 5
    assert (alg.unit(0) - alg.unit(1)).sum() == 0
    assert alg.unit(0).sum() != 0
    alg3 = OSAlgebra(aff, 3)
    assert alg3.ones().sum() != 0


def test_quotient_oracle_tiny_cases():
    two_parallel = decone(catalog.pencil(3), 0)
    assert QuotientOSOracle(two_parallel, 3).dim2 == 0
    two_crossing = decone(catalog.generic(3), 0)
    assert QuotientOSOracle(two_crossing, 3).dim2 == 1


def test_oracle_dimension_agreement(members):
    for _, arr in members:
        aff = decone(arr, 0)
        for p in (2, 3, 5, 7):
            assert OSAlgebra(aff, p).dim2 == QuotientOSOracle(aff, p).dim2


def test_oracle_pair_reductions_agree():
    # single pairs: zero in one construction iff zero in the other;
    # random pair subsets: equal ranks on both sides
    rng = random.Random(41)
    for arr in (catalog.braid_a3(), catalog.fig3(), catalog.generic(5), catalog.near_pencil(5)):
        aff = decone(arr, 0)
        for p in (2, 3):
            alg = OSAlgebra(aff, p)
            orc = QuotientOSOracle(aff, p)
            pairs = list(combinations(range(aff.n), 2))
            for i, j in pairs:
                value = alg.wedge11(alg.unit(i), alg.unit(j))
                assert value.is_zero() == (not orc.pair_reduction(i, j).any())
                # the swapped pair is the negative, a repeated line is zero
                assert np.array_equal(orc.pair_reduction(j, i), -orc.pair_reduction(i, j) % p)
                assert not orc.pair_reduction(i, i).any()
            for _ in range(20):
                subset = rng.sample(pairs, rng.randint(1, len(pairs)))
                built = np.stack([alg.wedge11(alg.unit(i), alg.unit(j)).data
                                  for i, j in subset])
                rank_built = len(_rref_raw(built, p)[1])
                units = []
                for i, j in subset:
                    u = np.zeros(orc.num_pairs, dtype=np.int64)
                    u[orc._pair_index(i, j)] = 1
                    units.append(u)
                assert rank_built == orc.rank_modulo_relations(units)
            full = np.stack([alg.wedge11(alg.unit(i), alg.unit(j)).data for i, j in pairs])
            assert len(_rref_raw(full, p)[1]) == alg.dim2 == orc.dim2


def test_cross_class_pairs_independent(members):
    for _, arr in members:
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            alg = OSAlgebra(aff, p)
            for cls in aff.classes:
                pairs = [(i, j) for i in cls for j in range(aff.n) if j not in cls]
                if not pairs:
                    continue
                rows = np.stack([alg.wedge11(alg.unit(i), alg.unit(j)).data for i, j in pairs])
                assert len(_rref_raw(rows, p)[1]) == len(pairs)


def test_relation_generators_enumeration():
    aff = braid_affine()
    assert sorted(relation_pairs(aff)) == [(0, 3), (1, 4)]
    assert sorted(relation_triples(aff)) == [(0, 1, 2), (2, 3, 4)]


def test_dimension_checks():
    alg = OSAlgebra(braid_affine(), 3)
    with pytest.raises(Exception):
        alg.deg1([1, 2, 3])
    with pytest.raises(Exception):
        alg.wedge11(alg.ones(), FpVector(5, [1] * alg.n))
    with pytest.raises(IndexError):
        alg.unit(alg.n)
    # wedge_matrix checks its operand's type, prime and length
    with pytest.raises(TypeError):
        alg.wedge_matrix([1] * alg.n)
    with pytest.raises(TypeError):
        alg.wedge_matrix(FpMatrix(3, np.ones((alg.n, 1), dtype=np.int64)))
    with pytest.raises(ModulusMismatchError):
        alg.wedge_matrix(FpVector(5, [1] * alg.n))
    with pytest.raises(DimensionMismatchError):
        alg.wedge_matrix(FpVector(3, [1] * (alg.n + 1)))


def test_wedge_matches_oracle_on_box_arrangements():
    affs = box_arrangements(50, seed=2024)
    # the generator really mixes multiplicities and parallels
    mults = {len(inc) for aff in affs for inc in aff.finite_points}
    assert mults == {2, 3, 4, 5}
    assert sum(any(len(c) > 1 for c in aff.classes) for aff in affs) >= 25
    rng = random.Random(7)
    for aff in affs:
        for p in (2, 3, 5, 2**31 - 1):
            alg = OSAlgebra(aff, p)
            orc = QuotientOSOracle(aff, p)
            assert alg.dim2 == orc.dim2
            pairs = list(combinations(range(aff.n), 2))
            values = [alg.wedge11(alg.unit(i), alg.unit(j)) for i, j in pairs]
            for (i, j), value in zip(pairs, values):
                assert value.is_zero() == (not orc.pair_reduction(i, j).any())
            x, y, z = (alg.deg1([rng.randrange(p) for _ in range(aff.n)]) for _ in range(3))
            for xi in (alg.ones(), x, y):
                assert beta1_full(alg, xi).value == orc.beta1(xi.data)
            # two full-size factors against their expansion over the oracle's
            # pair coordinates (exact matmul)
            table = FpMatrix(p, np.stack([v.data for v in values], axis=1))
            assert alg.wedge11(y, z) == table @ FpVector(p, orc.pair_coords(y.data, z.data))
            # residues p - 1 everywhere: at a point of multiplicity m >= 4 the
            # unreduced coefficient (m - 1)(p - 1)**2 would leave int64 at p = 2**31 - 1
            for j in range(aff.n):
                minus_ones = FpVector(p, -alg.ones().data)
                lhs = alg.wedge11(minus_ones, FpVector(p, -alg.unit(j).data))
                assert lhs == alg.wedge11(alg.ones(), alg.unit(j))


PROPERTY_BOXES = box_arrangements(12, seed=31)
PROPERTY_PRIMES = (2, 3, 5, 2**31 - 1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_block_wedge_matches_columns_and_oracle(data):
    aff = data.draw(st.sampled_from(PROPERTY_BOXES))
    p = data.draw(st.sampled_from(PROPERTY_PRIMES))
    k = data.draw(st.integers(0, 5))
    alg = OSAlgebra(aff, p)
    # residues 0 and p - 1 only leave the products the least int64 headroom
    values = st.sampled_from((0, p - 1)) if data.draw(st.booleans()) else st.integers(0, p - 1)
    entries = st.lists(values, min_size=aff.n * k, max_size=aff.n * k)
    x, y = (np.array(data.draw(entries), dtype=np.int64).reshape(aff.n, k) for _ in "xy")
    block = block_wedge(alg, FpMatrix(p, x), FpMatrix(p, y))
    assert block.shape == (alg.dim2, k)
    orc = QuotientOSOracle(aff, p)
    table = FpMatrix(p, np.stack(
        [alg.wedge11(alg.unit(i), alg.unit(j)).data
         for i, j in combinations(range(aff.n), 2)], axis=1
    ))
    for c in range(k):
        column = alg.wedge11(FpVector(p, x[:, c]), FpVector(p, y[:, c]))
        assert FpVector(p, block.data[:, c]) == column
        assert column == table @ FpVector(p, orc.pair_coords(x[:, c], y[:, c]))


def test_block_wedge_rejects_mismatched_operands():
    # a block of one-forms must match the algebra's modulus and n, and
    # wedge11 multiplies two one-forms only: a block goes to wedge_columns
    alg = OSAlgebra(braid_affine(), 3)
    good = FpMatrix(3, np.ones((alg.n, 4), dtype=np.int64))
    with pytest.raises(ModulusMismatchError):
        alg.wedge_columns(FpMatrix(5, np.ones((alg.n, 4), dtype=np.int64)), [0], [1])
    with pytest.raises(DimensionMismatchError):
        alg.wedge_columns(FpMatrix(3, np.ones((alg.n + 1, 4), dtype=np.int64)), [0], [1])
    with pytest.raises(ModulusMismatchError):
        alg.wedge11(alg.ones(), FpVector(5, [1] * alg.n))
    with pytest.raises(DimensionMismatchError):
        alg.wedge11(alg.ones(), FpVector(3, [1] * (alg.n + 1)))
    for x, y in ((good, good), (good, alg.ones()), (alg.ones(), good)):
        with pytest.raises(TypeError):
            alg.wedge11(x, y)


def test_symbol_factors_wedge_to_their_symbols(members):
    # each symbol (X, j) is the product of X's anchor and line j: that
    # product is the symbol's unit vector, and the same pairs, as free pairs
    # of the quotient oracle, span its whole degree 2
    affs = ([decone(arr, 0) for _, arr in members] + box_arrangements(20, seed=11)
            + [decone(catalog.near_pencil(7), 6)])  # one point of multiplicity 6
    assert max(len(inc) for aff in affs for inc in aff.finite_points) >= 6
    for aff in affs:
        for p in (2, 3, 2**31 - 1):
            alg, orc = OSAlgebra(aff, p), QuotientOSOracle(aff, p)
            # (anchor, line) of every symbol, in basis order
            symbols = [(min(inc), j) for inc in aff.finite_points for j in inc[1:]]
            assert list(zip(*(f.tolist() for f in alg.symbol_factors()))) == symbols
            units = np.eye(alg.dim2, dtype=np.int64)
            free = np.zeros((alg.dim2, orc.num_pairs), dtype=np.int64)
            for s, (a, j) in enumerate(symbols):
                assert alg.wedge11(alg.unit(a), alg.unit(j)) == FpVector(p, units[s])
                free[s, orc._pair_index(a, j)] = 1
            assert orc.rank_modulo_relations(free) == alg.dim2 == orc.dim2


@pytest.mark.parametrize("p", (2, 3, 5, 2**31 - 1))
def test_wedge_matrix_closed_form_is_the_product(members, p):
    # the closed form against the product definition: the block product of
    # xi repeated n times with the identity, whose column j is xi ^ e_j
    affs = ([decone(arr, h) for _, arr in members for h in range(len(arr.lines))]
            + [decone(arr, 0) for arr in box_sources(50, 2024)]
            + [central_fixture(s) for s in range(2, 7)]
            + [parallel_fixture(r) for r in range(1, 6)]
            + [decone(catalog.pencil(5), 0)])
    assert any(aff.finite_points == () for aff in affs)  # the pencil: dim2 = 0
    rng = random.Random(17)
    for aff in affs:
        alg = OSAlgebra(aff, p)
        block = FpMatrix(p, np.eye(alg.n, dtype=np.int64))
        for xi in (alg.ones(), FpVector(p, np.zeros(alg.n, dtype=np.int64)),
                   *(FpVector(p, [rng.randrange(p) for _ in range(alg.n)]) for _ in range(2))):
            repeated = FpMatrix(p, np.repeat(xi.data[:, None], alg.n, axis=1))
            d1 = alg.wedge_matrix(xi)
            assert d1.shape == (alg.dim2, alg.n)
            assert d1 == block_wedge(alg, repeated, block), (aff, xi)
