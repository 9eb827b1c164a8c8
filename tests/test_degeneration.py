import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from arrcohom import catalog, degeneration
from arrcohom.aomoto import central_fixture, parallel_fixture, sum_zero_basis
from arrcohom.degeneration import (
    BadClassError,
    DegenerationMap,
    NoTransversalError,
    TooFewClassesError,
    _direct_sum,
    class_sums,
    degenerations,
    delta_dir,
    delta_tot,
    induced_deg2,
    verify_homomorphism,
)
from arrcohom.geometry import AffineArrangement, decone
from arrcohom.modp import FpMatrix, FpVector, ModulusMismatchError
from arrcohom.orlik_solomon import OSAlgebra, relation_pairs, relation_triples

from conftest import UNIMODULAR, block_wedge, box_sources, transformed


def fig3_affine():
    return decone(catalog.fig3(), 0)


def test_delta_tot_fig3_matrix():
    dmap = delta_tot(fig3_affine(), 3)
    assert dmap.kind == "total"
    assert dmap.target.n == 3
    assert dmap.deg1_matrix.tolist() == [
        [1, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 1],
    ]


def test_delta_tot_braid_targets_three_line_model():
    aff = decone(catalog.braid_a3(), 2)  # classes sized 2, 2, 1
    dmap = delta_tot(aff, 5)
    assert dmap.target.n == 3
    assert dmap.target.dim2 == 2
    assert verify_homomorphism(dmap)


def test_delta_tot_on_central_input_is_bijective_relabeling():
    # deconed near-pencil at its transversal: every class is a singleton
    arr = catalog.near_pencil(5)
    aff = decone(arr, 4)
    assert all(len(c) == 1 for c in aff.classes)
    dmap = delta_tot(aff, 3)
    assert dmap.deg1_matrix == FpMatrix(3, np.eye(aff.n, dtype=np.int64))


def test_delta_dir_fig3_matrix():
    dmap = delta_dir(fig3_affine(), 2, 3)
    assert dmap.kind == "directional"
    assert dmap.class_index == 2
    assert dmap.target.n == 3
    assert dmap.deg1_matrix.tolist() == [
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [1, 1, 1, 0, 0],
    ]


def test_delta_dir_image_of_ones(members):
    # the all-ones form maps to all parallels plus (n - r) transversals
    for _, arr in members[:12]:
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            for a, cls in enumerate(aff.classes):
                r = len(cls)
                if r == aff.n:
                    continue
                dmap = delta_dir(aff, a, p)
                expected = [1] * r + [(aff.n - r) % p]
                assert dmap.map1(dmap.source.ones()).tolist() == expected


def test_delta_dir_kills_balanced_outside_coefficients():
    rng = random.Random(59)
    aff = fig3_affine()
    for p in (3, 5, 7):
        alg = OSAlgebra(aff, p)
        classes = aff.classes
        for a, cls in enumerate(classes):
            dmap = delta_dir(aff, a, p)
            coeffs = [0] * aff.n
            for i in cls:
                coeffs[i] = rng.randrange(p)
            # other classes get coefficients summing to zero
            for b, other in enumerate(classes):
                if b == a or len(other) < 2:
                    continue
                vals = [rng.randrange(p) for _ in other[:-1]]
                vals.append((-sum(vals)) % p)
                for i, v in zip(other, vals):
                    coeffs[i] = v
            eta = alg.deg1(coeffs)
            # every class outside a sums to zero, so only a's coefficients survive
            assert dmap.map1(eta).tolist() == [coeffs[i] for i in cls] + [0]


def test_verify_homomorphism_catalog(members):
    for _, arr in members[:10] + [("braid-a3", catalog.braid_a3())]:
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            if aff.num_classes >= 2:
                assert verify_homomorphism(delta_tot(aff, p))
            for a in range(aff.num_classes):
                if len(aff.classes[a]) == aff.n:
                    continue
                assert verify_homomorphism(delta_dir(aff, a, p))


def _exact_verdict(*dmaps):
    # the verdict of the pair, triple and symbol stages alone
    with pytest.MonkeyPatch.context() as m:
        m.setattr(degeneration, "_PAIRS", 0)
        return verify_homomorphism(*dmaps)


def test_corrupted_map_fails_verification():
    # swap the images of two generators from different parallel classes:
    # a parallel pair then maps to a nonzero wedge
    aff = decone(catalog.braid_a3(), 2)
    p = 3
    good = delta_tot(aff, p)
    m = np.array(good.deg1_matrix.tolist(), dtype=np.int64)
    m[:, [2, 3]] = m[:, [3, 2]]
    deg1 = FpMatrix(p, m)
    bad = DegenerationMap(
        "total", None, good.source, good.target, deg1,
        induced_deg2(good.source, good.target, deg1),
    )
    assert not verify_homomorphism(bad)


# the checks run over pairs and triples in blocks; a width of 1 or 2 puts
# block boundaries everywhere
CHUNK_WIDTHS = pytest.mark.parametrize("chunk", [1, 2, degeneration._CHUNK])


@CHUNK_WIDTHS
def test_broken_triple_relation_fails_verification(chunk, monkeypatch):
    monkeypatch.setattr(degeneration, "_CHUNK", chunk)
    # classes of two lines of a concurrent triple go to two parallels of the
    # model, every other line to the transversal: each parallel pair still
    # maps to a vanishing wedge, but the triple's relation does not hold
    aff = decone(catalog.braid_a3(), 2)
    p = 3
    i, j, k = next(iter(relation_triples(aff)))
    cls = {q: a for a, c in enumerate(aff.classes) for q in c}
    source = OSAlgebra(aff, p)
    target = OSAlgebra(parallel_fixture(2), p)
    m = np.zeros((3, aff.n), dtype=np.int64)
    for pos in range(aff.n):
        m[{cls[i]: 0, cls[j]: 1}.get(cls[pos], 2), pos] = 1
    deg1 = FpMatrix(p, m)
    images = [FpVector(p, deg1.data[:, pos]) for pos in range(aff.n)]
    for a, b in relation_pairs(aff):
        assert target.wedge11(images[a], images[b]).is_zero()
    bad = DegenerationMap(
        "directional", None, source, target, deg1, induced_deg2(source, target, deg1)
    )
    assert not verify_homomorphism(bad)


def test_parallel_pair_relation_fails_where_products_agree():
    # the source's products are those of three generic lines, but its
    # arrangement makes lines 0 and 1 parallel: the identity onto the
    # generic lines agrees with every product and breaks only the relation
    generic3 = AffineArrangement(([1, 1, 1], [0, 1, 2]), ([2, 2, 2], [0, 1, 0, 2, 1, 2]))
    src = OSAlgebra(generic3, 3)
    src.aff = AffineArrangement(([2, 1], [0, 1, 2]), ([2, 2], [0, 2, 1, 2]))
    assert (generic3.classes, src.aff.finite_points) == (((0,), (1,), (2,)), ((0, 2), (1, 2)))
    tgt = OSAlgebra(generic3, 3)
    deg1 = FpMatrix(3, np.eye(3, dtype=np.int64))
    dmap = DegenerationMap("total", None, src, tgt, deg1, induced_deg2(src, tgt, deg1))
    assert not verify_homomorphism(dmap)


@CHUNK_WIDTHS
def test_flipped_degree2_entry_fails_verification(chunk, monkeypatch):
    monkeypatch.setattr(degeneration, "_CHUNK", chunk)
    for dmap in (delta_tot(fig3_affine(), 3), delta_dir(fig3_affine(), 0, 3)):
        assert verify_homomorphism(dmap)
        m = np.array(dmap.deg2_matrix.tolist(), dtype=np.int64)
        m[0, 0] += 1
        bad = DegenerationMap(
            dmap.kind, dmap.class_index, dmap.source, dmap.target, dmap.deg1_matrix,
            FpMatrix(3, m),
        )
        assert not verify_homomorphism(bad)
        # the symbol stage alone catches it
        assert not _exact_verdict(bad)


def test_construction_rejects_corrupted_degree2(monkeypatch):
    honest = degeneration.induced_deg2

    def corrupted(source, target, deg1_matrix):
        m = np.array(honest(source, target, deg1_matrix).tolist(), dtype=np.int64)
        m[-1, -1] += 1
        return FpMatrix(target.p, m)

    assert all(dmap.verified for dmap in degenerations(fig3_affine(), 3))
    monkeypatch.setattr(degeneration, "induced_deg2", corrupted)
    with pytest.raises(RuntimeError, match="this is a bug"):
        degenerations(fig3_affine(), 3)


def test_constructors_leave_maps_unverified():
    assert not delta_tot(fig3_affine(), 3).verified
    assert not delta_dir(fig3_affine(), 1, 3).verified


def test_degenerations_single_class_has_no_maps():
    assert degenerations(decone(catalog.pencil(4), 0), 3) == []


def _with_deg2_flip(dmap):
    m = np.array(dmap.deg2_matrix.tolist(), dtype=np.int64)
    m[0, 0] += 1
    return replace(dmap, deg2_matrix=FpMatrix(dmap.source.p, m))


def _with_deg1_swap(dmap):
    # swap the images of a line with a parallel partner and of a line of
    # another class with a different image: the partner pair then maps to
    # a nonzero wedge; deg2 is induced again from the swapped images
    aff, m = dmap.source.aff, np.array(dmap.deg1_matrix.tolist(), dtype=np.int64)
    cls = {q: a for a, c in enumerate(aff.classes) for q in c}
    i, j = next((i, j) for c in aff.classes if len(c) > 1 for i in c
                for j in range(aff.n) if cls[j] != cls[i] and (m[:, i] != m[:, j]).any())
    m[:, [i, j]] = m[:, [j, i]]
    deg1 = FpMatrix(dmap.source.p, m)
    return replace(dmap, deg1_matrix=deg1,
                   deg2_matrix=induced_deg2(dmap.source, dmap.target, deg1))


FAMILIES = [(decone(catalog.braid_a3(), 2), 3), (fig3_affine(), 3), (fig3_affine(), 2)]


@CHUNK_WIDTHS
@pytest.mark.parametrize("corrupt", [_with_deg2_flip, _with_deg1_swap])
def test_family_with_one_corrupted_map_fails(chunk, corrupt, monkeypatch):
    monkeypatch.setattr(degeneration, "_CHUNK", chunk)
    for aff, p in FAMILIES:
        family = degenerations(aff, p)
        assert verify_homomorphism(*family)
        for k, dmap in enumerate(family):
            bad = family[:k] + [corrupt(dmap)] + family[k + 1:]
            assert not verify_homomorphism(*bad)
            if corrupt is _with_deg2_flip:
                # the symbol stage alone catches it
                assert not _exact_verdict(*bad)
            # built with this map corrupted, the family is refused, and the
            # message names the map that failed
            constructor = {"total": "delta_tot", "directional": "delta_dir"}[dmap.kind]
            honest = getattr(degeneration, constructor)

            def build(*args, honest=honest, target=dmap.class_index):
                built = honest(*args)
                return corrupt(built) if built.class_index == target else built

            name = ("total map" if dmap.kind == "total"
                    else f"directional map of class {dmap.class_index}")
            with monkeypatch.context() as m:
                m.setattr(degeneration, constructor, build)
                with pytest.raises(RuntimeError, match=rf"\({name}\); this is a bug"):
                    degenerations(aff, p)


def _is_multiplicative_on_unit_pairs(dmap):
    # the definition: deg2(e_u ^ e_v) == f(e_u) ^ f(e_v) for every pair u < v
    # of source generators, as one block product
    src, f = dmap.source, dmap.deg1_matrix
    units = np.eye(src.n, dtype=np.int64)
    u, v = np.triu_indices(src.n, k=1)
    x, y = FpMatrix(src.p, units[:, u]), FpMatrix(src.p, units[:, v])
    return dmap.deg2_matrix @ block_wedge(src, x, y) == block_wedge(dmap.target, f @ x, f @ y)


def _corruptions(dmap, rng):
    # the map, one with random unit deg1 columns and one with a random deg1,
    # each with its induced deg2, and one with a deg2 entry moved
    p, rows, cols = dmap.source.p, dmap.target.n, dmap.source.n
    units = dmap.deg1_matrix.data.copy()
    for c in rng.sample(range(cols), rng.randint(1, 2)):
        units[:, c] = 0
        units[rng.randrange(rows), c] = 1
    noise = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    out = [dmap] + [replace(dmap, deg1_matrix=f, deg2_matrix=induced_deg2(
        dmap.source, dmap.target, f)) for f in (FpMatrix(p, units), FpMatrix(p, noise))]
    flip = dmap.deg2_matrix.data.copy()
    if flip.size:
        flip[rng.randrange(flip.shape[0]), rng.randrange(flip.shape[1])] += rng.randrange(1, p)
        out.append(replace(dmap, deg2_matrix=FpMatrix(p, flip)))
    return out


@pytest.mark.parametrize("chunk", [1, degeneration._CHUNK])
def test_relation_and_symbol_stages_are_the_definition(chunk, members, monkeypatch):
    # with no seeded product pair, the verdict is exactly multiplicativity on
    # every pair of generators, on honest and corrupted maps alike, and the
    # product stage never changes it
    monkeypatch.setattr(degeneration, "_CHUNK", chunk)
    rng = random.Random(31)
    sources = [arr for _, arr in members[:5]] + box_sources(2, seed=5)
    verdicts = []
    for arr in sources:
        for p in (2, 3, 5):
            for dmap in degenerations(decone(arr, 0), p):
                for d in _corruptions(dmap, rng):
                    verdicts.append(_exact_verdict(d))
                    assert verdicts[-1] == _is_multiplicative_on_unit_pairs(d)
                    assert verdicts[-1] == verify_homomorphism(d)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("aff, p", [(fig3_affine(), 3), (decone(catalog.braid_a3(), 2), 3)])
def test_family_shares_one_source_algebra(aff, p, monkeypatch):
    built = []
    honest = OSAlgebra.__init__

    def counting(self, *args):
        built.append(self)
        honest(self, *args)

    monkeypatch.setattr(OSAlgebra, "__init__", counting)
    maps = degenerations(aff, p)
    assert len(maps) == 1 + aff.num_classes
    assert all(d.source is maps[0].source for d in maps)
    # one source, one target per distinct model (the central one and one
    # almost-parallel one per class size), then the targets' direct sum
    # that verification wedges the whole family in
    sizes = {len(c) for c in aff.classes}
    assert len(built) == 2 + 1 + len(sizes)
    assert built[-1].n == sum(d.target.n for d in maps)
    # directional maps of classes of one size share their model's algebra
    by_size = {}
    for d in maps[1:]:
        assert by_size.setdefault(len(aff.classes[d.class_index]), d.target) is d.target
    assert len(by_size) < len(maps) - 1  # some size repeats, so sharing is tested


def test_constructors_share_a_given_source_algebra():
    source = OSAlgebra(fig3_affine(), 3)
    assert delta_tot(source, 3).source is source
    assert delta_dir(source, 1, 3).source is source
    assert delta_tot(source, 3).deg2_matrix == delta_tot(fig3_affine(), 3).deg2_matrix
    with pytest.raises(ModulusMismatchError):
        delta_tot(source, 5)
    with pytest.raises(ModulusMismatchError):
        delta_dir(source, 0, 2)


def test_verify_rejects_no_maps():
    with pytest.raises(ValueError, match="at least one map"):
        verify_homomorphism()


def test_verify_rejects_a_map_over_another_prime():
    # a later map whose target or matrices live over another prime is
    # refused, not reduced mod the source's prime
    family = degenerations(fig3_affine(), 3)
    last = family[-1]
    foreign = [replace(last, target=OSAlgebra(last.target.aff, 5)),
               replace(last, deg1_matrix=FpMatrix(5, last.deg1_matrix.data)),
               replace(last, deg2_matrix=FpMatrix(5, last.deg2_matrix.data))]
    for bad in foreign:
        with pytest.raises(ModulusMismatchError):
            verify_homomorphism(*family[:-1], bad)


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
def test_direct_sum_products_are_stacked_summand_products(p):
    rng = np.random.default_rng(p)
    algs = [OSAlgebra(aff, p) for aff in
            [central_fixture(s) for s in (2, 3, 5)] + [parallel_fixture(r) for r in (1, 2, 4)]
            + [fig3_affine()]]
    total = _direct_sum(algs)
    assert total.n == sum(a.n for a in algs)
    assert total.dim2 == sum(a.dim2 for a in algs)
    xs, ys = ([FpMatrix(p, rng.integers(0, p, size=(a.n, 7))) for a in algs] for _ in range(2))
    stacked = block_wedge(total, FpMatrix(p, np.vstack([x.data for x in xs])),
                          FpMatrix(p, np.vstack([y.data for y in ys])))
    assert stacked == FpMatrix(p, np.vstack([block_wedge(a, x, y).data
                                             for a, x, y in zip(algs, xs, ys)]))


def test_family_verification_wedges_once_per_stage(monkeypatch):
    # the images of the whole family are wedged together, so a family costs
    # as many product kernel calls as its first map alone, and the point
    # sums of its stacked degree 1 images (one column per source line) are
    # taken once for every stage
    arr = next(a for a in box_sources(60, seed=1) if decone(a, 0).num_classes >= 8)
    family = degenerations(decone(arr, 0), 3)
    factored, gathered = [], []
    honest_factors, honest_products = OSAlgebra._factors, OSAlgebra._products

    def factors(self, x):
        factored.append(x.shape[1])
        return honest_factors(self, x)

    def products(self, block, i, j):
        gathered.append(self)
        return honest_products(self, block, i, j)

    monkeypatch.setattr(OSAlgebra, "_factors", factors)
    monkeypatch.setattr(OSAlgebra, "_products", products)
    assert verify_homomorphism(family[0])
    alone = (len(factored), len(gathered))
    factored.clear()
    gathered.clear()
    assert verify_homomorphism(*family)
    assert len(family) >= 9
    assert factored.count(family[0].source.n) == 1
    assert (len(factored), len(gathered)) == alone
    assert len(gathered) > 1


def test_verify_rejects_maps_over_different_sources():
    aff = fig3_affine()
    with pytest.raises(ValueError, match="share their source"):
        verify_homomorphism(delta_tot(aff, 3), delta_tot(decone(catalog.fig3(), 1), 3))


def test_verify_rejects_maps_over_different_primes():
    aff = fig3_affine()
    with pytest.raises(ValueError, match="share their source"):
        verify_homomorphism(delta_tot(aff, 3), delta_dir(aff, 0, 5))


def test_family_matches_maps_built_and_verified_alone(members):
    # every map of the batched family equals the same map built alone, and
    # the family's verdict equals every single map's verdict
    sources = [arr for _, arr in members] + box_sources(50, seed=2024)
    for arr in sources:
        aff = decone(arr, 0)
        for p in (2, 3, 5):
            family = degenerations(aff, p)
            alone = []
            if aff.num_classes >= 2:
                alone = [delta_tot(aff, p)] + [delta_dir(aff, a, p)
                                               for a in range(aff.num_classes)]
            assert len(family) == len(alone)
            for batched, single in zip(family, alone):
                assert (batched.kind, batched.class_index) == (single.kind, single.class_index)
                assert batched.deg1_matrix == single.deg1_matrix
                assert batched.deg2_matrix == single.deg2_matrix
                assert batched.verified and not single.verified
                assert verify_homomorphism(single)
            if family:
                assert verify_homomorphism(*family)


def test_degree2_matrix_matches_wedges_exhaustively():
    aff = fig3_affine()
    for p in (2, 3):
        dmap = delta_tot(aff, p)
        src, tgt = dmap.source, dmap.target
        for i, j in combinations(range(src.n), 2):
            lhs = dmap.deg2_matrix @ src.wedge11(src.unit(i), src.unit(j))
            rhs = tgt.wedge11(dmap.map1(src.unit(i)), dmap.map1(src.unit(j)))
            assert lhs == rhs


def test_class_sums_examples():
    aff = fig3_affine()
    dmap = delta_tot(aff, 3)
    alg = dmap.source
    # two lines in one class cancel
    assert class_sums(dmap, alg.unit(0) - alg.unit(1)).is_zero()
    # the all-ones form sums to the class sizes
    assert class_sums(dmap, alg.ones()).tolist() == [2, 1, 2]
    with pytest.raises(ValueError):
        class_sums(delta_dir(aff, 0, 3), alg.ones())


def test_total_image_preserves_coefficient_sum(members):
    for _, arr in members[:12]:
        aff = decone(arr, 0)
        if aff.num_classes < 2:
            continue
        for p in (2, 3, 5):
            dmap = delta_tot(aff, p)
            assert dmap.map1(dmap.source.ones()).sum() == aff.n % p


def test_kernel_forms_have_zero_class_sums():
    # kernel of the wedge with the all-ones form, inside the sum-zero
    # subspace, degenerates totally to zero whenever p divides n+1
    for arr in (catalog.braid_a3(), catalog.fig3(), catalog.fermat(2)):
        for p in (2, 3):
            for infinity in range(len(arr.lines)):
                aff = decone(arr, infinity)
                alg = OSAlgebra(aff, p)
                basis = sum_zero_basis(aff.n, p)
                restricted = alg.wedge_matrix(alg.ones()) @ basis
                for kv in restricted.kernel_basis():
                    eta = basis @ kv
                    if aff.num_classes >= 2:
                        dmap = delta_tot(aff, p)
                        assert class_sums(dmap, eta).is_zero()
                    else:
                        assert eta.sum() == 0


def test_degeneration_errors():
    pencil_aff = decone(catalog.pencil(4), 0)
    with pytest.raises(TooFewClassesError):
        delta_tot(pencil_aff, 3)
    with pytest.raises(NoTransversalError):
        delta_dir(pencil_aff, 0, 3)
    with pytest.raises(BadClassError):
        delta_dir(fig3_affine(), 7, 3)


def test_degenerations_are_invariant_under_relabelling(members):
    # line i of the image is line sigma[i] of the source after a change of
    # coordinates g, so deconing the source at h and the image at
    # sigma^-1(h) gives the same family: the same class sizes, targets and
    # verdicts, and the total map's deg1 with its columns moved with their
    # lines and its rows with their classes
    rng = random.Random(28)
    sources = [arr for _, arr in members] + box_sources(20, seed=28)
    for k, arr in enumerate(sources):
        m = len(arr.lines)
        sigma = rng.sample(range(m), m)
        image = transformed(arr, sigma, UNIMODULAR[k % len(UNIMODULAR)])
        inverse = {s: i for i, s in enumerate(sigma)}
        for h in range(m):
            old, new = decone(arr, h), decone(image, inverse[h])
            assert sorted(map(len, old.classes)) == sorted(map(len, new.classes))
            # generator s - (s > h) of the source is line s, of the image line inverse[s]
            columns = [inverse[s] - (inverse[s] > inverse[h]) for s in range(m) if s != h]
            for p in (2, 3, 5):
                families = degenerations(old, p), degenerations(new, p)
                targets = [sorted((d.kind, d.target.n, d.target.dim2) for d in f)
                           for f in families]
                assert targets[0] == targets[1]
                assert all(d.verified for f in families for d in f)
                if not families[0]:
                    assert old.num_classes == 1
                    continue
                before, after = (f[0].deg1_matrix.data for f in families)
                assert sorted(map(tuple, after[:, columns])) == sorted(map(tuple, before))
