import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from arrcohom.geometry import (
    BadIndexError,
    BadKError,
    DuplicateLineError,
    IdenticalLinesError,
    ProjArrangement,
    TooFewLinesError,
    ZeroLineError,
    decone,
    intersect,
    is_essential,
    lattice,
    mu,
    parse_line,
)
from arrcohom import catalog, geometry
from arrcohom.degeneration import degenerations
from arrcohom.report import beta1_by_line, mu_table, report
from conftest import UNIMODULAR, box_sources, transformed


@pytest.mark.parametrize(
    "raw,expected",
    [
        ((0, 0, 2), (0, 0, 1)),
        ((-1, 1, 0), (1, -1, 0)),
        ((2, -4, 6), (1, -2, 3)),
        ((0, -3, -6), (0, 1, 2)),
    ],
)
def test_parse_line_canonicalizes(raw, expected):
    assert parse_line(raw) == expected


def test_canonical_form_refuses_non_integers():
    # refused, not truncated: 0.5 would become 0 and (1, 0.5, 0) the line x = 0
    with pytest.raises(TypeError):
        ProjArrangement.from_coeffs([(1, 0.5, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    with pytest.raises(TypeError):  # not a DuplicateLineError against (1, 0, 0)
        ProjArrangement.from_coeffs([(1, 0.5, 0), (1, 0, 0), (0, 0, 1)])
    with pytest.raises(TypeError):
        parse_line(("1", 0, 0))
    # numpy integers are integers, and become Python ints
    coeffs = parse_line(np.array([2, -4, 6]))
    assert coeffs == (1, -2, 3) and all(type(t) is int for t in coeffs)


def test_parse_line_rejects_zero():
    with pytest.raises(ZeroLineError):
        parse_line((0, 0, 0))
    with pytest.raises(ZeroLineError, match="expected three coefficients, got 2"):
        parse_line((1, 2))


def test_canonical_form_is_scaling_invariant():
    rng = random.Random(7)
    for _ in range(200):
        triple = tuple(rng.randint(-30, 30) for _ in range(3))
        if triple == (0, 0, 0):
            continue
        line = parse_line(triple)
        for c in (-3, -1, 2, 5):
            assert parse_line(tuple(c * t for t in triple)) == line
        a, b, cc = line
        first = next(t for t in (a, b, cc) if t)
        assert first > 0


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


@pytest.mark.parametrize(
    "l1,l2,expected",
    [
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, -1, 0), (1, 0, -1), (1, 1, 1)),
        ((1, 0, 0), (0, 1, -1), (0, 1, 1)),
    ],
)
def test_intersect_examples(l1, l2, expected):
    pt = intersect(l1, l2)
    assert pt == expected
    assert _dot(l1, pt) == 0 and _dot(l2, pt) == 0


def test_intersect_identical_lines():
    with pytest.raises(IdenticalLinesError):
        intersect((1, -1, 0), (-2, 2, 0))


def test_arrangement_validation():
    # lines are kept as canonical triples, whichever constructor is used
    assert ProjArrangement(((2, 0, 0), (0, -1, 0), (0, 0, 3))).lines == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(TooFewLinesError):
        ProjArrangement.from_coeffs([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DuplicateLineError):
        ProjArrangement.from_coeffs([(1, 0, 0), (2, 0, 0), (0, 1, 0)])
    with pytest.raises(ZeroLineError):
        ProjArrangement.from_coeffs([(1, 0, 0), (0, 0, 0), (0, 1, 0)])


def test_braid_lattice(braid):
    lat = lattice(braid)
    assert len(lat) == 7
    assert lat.histogram() == {2: 3, 3: 4}


def test_triangle_lattice():
    lat = lattice(catalog.generic(3))
    assert len(lat) == 3
    assert lat.histogram() == {2: 3}


def test_pencil_lattice():
    lat = lattice(catalog.pencil(4))
    assert len(lat) == 1
    assert lat.multiplicities() == [4]
    assert lat.coords == ((0, 0, 1),)


def _huge_arrangement(seed):
    # lines through a few points with coordinates near 2**75 and mixed signs:
    # each point carries several lines (forced concurrences), and the points
    # at infinity make the lines through them parallel once z = 0 is deconed
    rng = random.Random(seed)

    def coord():
        return rng.choice((-1, 1)) * rng.randrange(2**74, 2**76)

    finite = [(coord(), coord(), coord()) for _ in range(4)]
    at_infinity = [(coord(), coord(), 0) for _ in range(2)]
    lines = {(0, 0, 1)}
    for pt in finite + at_infinity:
        for _ in range(rng.randint(2, 4)):
            q = rng.choice(finite)
            if q != pt:
                # the line through two points: their cross product, by duality
                lines.add(intersect(pt, q))
    lines = sorted(lines)
    rng.shuffle(lines)
    return ProjArrangement.from_coeffs(lines)


HUGE = [_huge_arrangement(seed) for seed in range(8)]


def test_huge_arrangements_cover_their_cases():
    # the hand-built cases do reach the coefficient sizes and the
    # concurrences and parallels they are meant to cover
    for arr in HUGE:
        assert max(abs(t) for line in arr.lines for t in line) > 2**70
        assert max(arr.lattice.multiplicities()) >= 3
        assert any(t < 0 for line in arr.lines for t in line)
        assert any(len(c) >= 2 for c in decone(arr, arr.lines.index((0, 0, 1))).classes)


def test_lattice_against_pair_grouping(members):
    # independent recount: group every pair by its intersection point; the
    # lattice lists the groups in incidence order, with their coordinates
    sources = [arr for _, arr in members] + box_sources(50, seed=11) + HUGE
    for arr in sources:
        groups = {}
        for i, j in combinations(range(len(arr.lines)), 2):
            groups.setdefault(intersect(arr.lines[i], arr.lines[j]), set()).update((i, j))
        expected = sorted(((pt, tuple(sorted(inc))) for pt, inc in groups.items()),
                          key=lambda item: item[1])
        lat = lattice(arr)
        assert lat.incidences == tuple(sorted(lat.incidences))
        assert lat.incidences == tuple(inc for _, inc in expected)
        assert lat.coords == tuple(pt for pt, _ in expected)


def test_pairing_completeness_and_pair_count(members):
    for _, arr in members:
        lat = lattice(arr)
        n_plus_1 = len(arr.lines)
        for i, j in combinations(range(n_plus_1), 2):
            hits = [inc for inc in lat.incidences if i in inc and j in inc]
            assert len(hits) == 1
        assert sum(comb(m, 2) for m in lat.multiplicities()) == comb(n_plus_1, 2)


def test_mu_braid(braid):
    for i in range(6):
        assert mu(braid, i, 3) == 2
        assert mu(braid, i, 2) == 1
        assert mu(braid, i, 6) == 0


def test_mu_generic_and_bounds():
    arr = catalog.generic(3)
    for i in range(3):
        assert mu(arr, i, 3) == 0
    lat = lattice(arr)
    for i in range(3):
        assert mu(arr, i, 2) <= sum(1 for inc in lat.incidences if i in inc)


def test_mu_errors(braid):
    with pytest.raises(BadKError):
        mu(braid, 0, 1)
    with pytest.raises(BadIndexError):
        mu(braid, 6, 2)


def test_is_essential(braid):
    assert is_essential(braid)
    assert is_essential(catalog.generic(3))
    assert not is_essential(catalog.pencil(5))


def test_decone_braid(braid):
    aff = decone(braid, 2)
    assert aff.n == 5
    # source lines 0, 1, 3, 4, 5 are generators 0..4
    assert aff.classes == ((0, 3), (1, 4), (2,))
    assert aff.num_classes == 3
    # infinity line carries two triple points and one double point
    assert sorted(len(c) + 1 for c in aff.classes) == [2, 3, 3]
    assert aff.finite_points == ((0, 1, 2), (0, 4), (1, 3), (2, 3, 4))


def test_decone_triangle():
    aff = decone(catalog.generic(3), 0)
    assert aff.n == 2
    assert aff.num_classes == 2
    assert len(aff.finite_points) == 1


def test_decone_pencil():
    aff = decone(catalog.pencil(5), 0)
    assert aff.num_classes == 1
    assert aff.finite_points == ()
    assert aff.classes == ((0, 1, 2, 3),)


def test_decone_bad_index(braid):
    with pytest.raises(BadIndexError):
        decone(braid, 6)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", None])
def test_non_integer_line_index_refused(braid, bad):
    # a line index and mu's k go through operator.index, as a coefficient does
    for call in (lambda: decone(braid, bad), lambda: mu(braid, bad, 2),
                 lambda: mu(braid, 0, bad), lambda: beta1_by_line(braid, [3], [bad])):
        with pytest.raises(TypeError):
            call()
    # an integer of another type is an index
    assert decone(braid, np.int64(2)) == decone(braid, 2)
    assert mu(braid, np.int64(0), np.int8(2)) == mu(braid, 0, 2)


def test_decone_rejects_foreign_lattice():
    # classes read off a lattice of another arrangement cannot cover the lines;
    # the foreign lattice is planted where the arrangement keeps its own
    arr = catalog.braid_a3()
    vars(arr)["lattice"] = lattice(catalog.generic(4))
    with pytest.raises(RuntimeError, match="this is a bug"):
        decone(arr, 0)


def test_one_lattice_per_arrangement(monkeypatch):
    computed = []
    honest = geometry.lattice

    def counted(arr):
        computed.append(arr)
        return honest(arr)

    monkeypatch.setattr(geometry, "lattice", counted)
    arr = catalog.braid_a3()
    report(arr)
    decone(arr, 1)
    mu(arr, 0, 3)
    is_essential(arr)
    assert len(computed) == 1 and computed[0] is arr
    # an equal arrangement is another object with a lattice of its own
    twin = catalog.braid_a3()
    assert twin == arr
    assert twin.lattice == arr.lattice
    assert len(computed) == 2 and computed[1] is twin


@pytest.mark.parametrize("name", ["braid-a3", "pappus"])
def test_points_stay_lazy(name):
    # the verdicts read incidences; mu_table and the sweep share one array form
    arr = catalog.build_named(name)
    report(arr)
    assert "arrays" in vars(arr.lattice)
    beta1_by_line(arr, [2, 3], range(len(arr.lines)))
    for h in range(len(arr.lines)):
        degenerations(decone(arr, h), 3)


def test_arrays_are_the_incidences(members):
    # the one array form: multiplicities, the concatenation, each entry's point
    for arr in [arr for _, arr in members] + box_sources(50, seed=2024):
        incidences = arr.lattice.incidences
        mult, flat, owner = arr.lattice.arrays
        assert mult.tolist() == list(map(len, incidences)) == arr.lattice.multiplicities()
        assert flat.tolist() == [s for inc in incidences for s in inc]
        assert owner.tolist() == [x for x, inc in enumerate(incidences) for _ in inc]


def test_decone_roundtrip_and_counts(members):
    # the catalog plus irregular box arrangements, deconed at every line;
    # generator q is source line q + (q >= h), and every class and finite
    # point is checked against the geometry of those source lines
    sources = [arr for _, arr in members]
    sources += box_sources(50, seed=2024)
    for arr in sources:
        for h in range(len(arr.lines)):
            aff = decone(arr, h)
            inf_line = arr.lines[h]

            def line(q):
                return arr.lines[q + (q >= h)]

            assert aff.n == len(arr.lines) - 1
            assert sorted(q for c in aff.classes for q in c) == list(range(aff.n))
            # a class is the lines through one point at infinity, one point per class
            at_infinity = []
            for c in aff.classes:
                assert list(c) == sorted(c)
                pt = intersect(line(c[0]), inf_line)
                for i, j in combinations(c, 2):
                    assert intersect(line(i), line(j)) == pt
                at_infinity.append(pt)
            assert len(set(at_infinity)) == aff.num_classes
            assert [c[0] for c in aff.classes] == sorted(c[0] for c in aff.classes)
            # finite points are distinct, off infinity, on each listed line, and
            # together with the parallel pairs they hold every pair exactly once
            finite = set()
            pairs = [pair for c in aff.classes for pair in combinations(c, 2)]
            for inc in aff.finite_points:
                assert len(inc) >= 2 and list(inc) == sorted(inc)
                pt = intersect(line(inc[0]), line(inc[1]))
                assert _dot(inf_line, pt) != 0
                assert all(_dot(line(q), pt) == 0 for q in inc)
                finite.add(pt)
                pairs += combinations(inc, 2)
            assert len(finite) == len(aff.finite_points)
            assert sorted(pairs) == list(combinations(range(aff.n), 2))


def _pair_grouping(arr):
    # the lattice's incidences and coordinates grouped pair by pair through
    # intersect, listed in incidence order
    groups = {}
    for i, j in combinations(range(len(arr.lines)), 2):
        groups.setdefault(intersect(arr.lines[i], arr.lines[j]), set()).update((i, j))
    expected = sorted((tuple(sorted(inc)), pt) for pt, inc in groups.items())
    return tuple(inc for inc, _ in expected), tuple(pt for _, pt in expected)


def _boundary_arrangements(bound):
    # largest |coefficient| exactly ``bound``: generic lines, whose triples
    # (1, t, t^2 + c) lie on the conic xz = y^2 + c x^2 so that no three
    # meet, shifted onto the bound; pencils through (1:0:0), (0:1:0) and
    # (1:1:1) that reach it; and the two together
    c = bound - 11**2
    tangents = [(1, t, t * t + c) for t in range(12)]
    pencils = [(0, bound, 1), (0, bound, -1), (0, 1, bound), (0, bound, bound - 1),
               (bound, 0, 1), (bound, 0, -1), (1, 0, -bound),
               (bound, 1 - bound, -1), (bound, -1, 1 - bound)]
    return [ProjArrangement(tangents), ProjArrangement(pencils),
            ProjArrangement(tangents[::2] + pencils)]


@pytest.mark.parametrize("bound", [2**30 - 1, 2**30])
def test_lattice_at_the_dtype_boundary(bound):
    # below 2**30 every cross product fits int64; from 2**30 on the same
    # pass runs on Python ints; either way it is the pairwise grouping
    for arr in _boundary_arrangements(bound):
        assert max(abs(t) for line in arr.lines for t in line) == bound
        lat = lattice(arr)
        assert lat.points.dtype == (np.int64 if bound < 2**30 else object)
        assert (lat.incidences, lat.coords) == _pair_grouping(arr)
    assert 4 in lattice(arr).histogram()  # the pencils do meet


def test_lattice_is_invariant_under_relabelling(members):
    # a permutation sigma of the lines and a change of coordinates g: the
    # incidences are relabelled by sigma, the histogram is kept and the
    # divisible-point counts move with their lines
    rng = random.Random(8)
    sources = [arr for _, arr in members] + box_sources(20, seed=8) + HUGE
    dtypes = set()
    for arr in sources:
        table = mu_table(arr)
        for g in UNIMODULAR:
            sigma = rng.sample(range(len(arr.lines)), len(arr.lines))
            image = transformed(arr, sigma, g)
            inverse = {s: i for i, s in enumerate(sigma)}
            relabelled = sorted(tuple(sorted(inverse[s] for s in inc))
                                for inc in arr.lattice.incidences)
            assert image.lattice.incidences == tuple(relabelled)
            assert image.lattice.histogram() == arr.lattice.histogram()
            assert mu_table(image).rows == tuple(table.rows[s] for s in sigma)
            dtypes.add(image.lattice.points.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
