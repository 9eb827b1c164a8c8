"""Every FpVector and FpMatrix the package returns holds int64 residues.

Inside the package, computed residues are wrapped without a check; these
tests hold each of those results to what the public constructors enforce:
int64 entries in [0, p), read-only.
"""

import numpy as np
import pytest

from arrcohom.degeneration import degenerations, induced_deg2
from arrcohom.geometry import decone
from arrcohom.modp import FpMatrix, FpVector
from arrcohom.orlik_solomon import OSAlgebra
from conftest import block_wedge, box_sources

PRIMES = (2, 3, 5, 2**31 - 1)


def assert_residues(v, p, kind):
    assert isinstance(v, kind)
    assert v.p == p
    assert v.data.dtype == np.int64
    assert not v.data.flags.writeable
    assert ((v.data >= 0) & (v.data < p)).all()


@pytest.fixture(scope="module")
def sources(members):
    return [arr for _, arr in members] + box_sources(20, seed=7)


@pytest.mark.parametrize("p", PRIMES)
def test_results_are_read_only_int64_residues(sources, p):
    rng = np.random.default_rng(p)
    for arr in sources:
        aff = decone(arr, 0)
        alg = OSAlgebra(aff, p)
        n, k = alg.n, 3
        # residues near p - 1 leave the unreduced products the least headroom
        x, y = (FpMatrix(p, rng.integers(max(0, p - 3), p, size=(n, k))) for _ in "xy")
        u, v = (FpVector(p, rng.integers(0, p, size=n)) for _ in "uv")
        anchors, lines = alg.symbol_factors()
        results = [
            (alg.wedge11(u, v), FpVector),
            (block_wedge(alg, x, y), FpMatrix),
            (alg.wedge_columns(x, [0, 1, 2], [2, 0, 1]), FpMatrix),
            (alg.wedge_columns(FpMatrix(p, np.eye(n, dtype=np.int64)), anchors, lines),
             FpMatrix),
            (alg.wedge_matrix(u), FpMatrix),
            (alg.wedge_matrix(u, 2 * n), FpMatrix),
            (alg.unit(n - 1), FpVector),
            (alg.ones(), FpVector),
            (u + v, FpVector),
            (u - v, FpVector),
            (alg.wedge_matrix(u) @ x, FpMatrix),
            (alg.wedge_matrix(u) @ v, FpVector),
        ]
        results += [(kv, FpVector) for kv in alg.wedge_matrix(alg.ones()).kernel_basis()]
        for dmap in degenerations(aff, p):
            results += [(dmap.deg1_matrix, FpMatrix), (dmap.deg2_matrix, FpMatrix),
                        (dmap.map1(u), FpVector)]
        for result, kind in results:
            assert_residues(result, p, kind)


def test_induced_deg2_of_any_deg1_is_the_product_of_its_columns(sources):
    # on a deg1 that is no assignment, at the largest prime, the product
    # kernel agrees with the block product of the gathered columns, built
    # through the public constructor
    p = 2**31 - 1
    rng = np.random.default_rng(11)
    for arr in sources:
        for dmap in degenerations(decone(arr, 0), p)[:2]:
            source, target = dmap.source, dmap.target
            deg1 = FpMatrix(p, rng.integers(0, p, size=(target.n, source.n)))
            anchors, lines = source.symbol_factors()
            old = block_wedge(target, FpMatrix(p, deg1.data[:, anchors]),
                              FpMatrix(p, deg1.data[:, lines]))
            new = induced_deg2(source, target, deg1)
            assert_residues(new, p, FpMatrix)
            assert new == old
