"""Degeneration homomorphisms between Orlik-Solomon algebras.

The total degeneration collapses every parallel class of an affine
arrangement to a single line through one common point; the directional
degeneration keeps one class and collapses everything else to a single
transversal. Both are materialized as matrices on the degree 1 and degree 2
coordinates. ``delta_tot`` and ``delta_dir`` build one map each from a source
``OSAlgebra``, unverified; ``degenerations`` builds a deconing's family over
one source algebra and verifies it in one ``verify_homomorphism`` call in the
direct sum of its targets, one product per parallel pair, basis symbol and
two symbols of one point, read off the source's index arrays. A map's degree
2 matrix is ``OSAlgebra.wedge_columns`` of its degree 1 matrix's columns.
Target algebras are shared per process by model, size and p. A family that
fails is a bug and raises, so every map ``degenerations`` returns has passed
the check.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .aomoto import central_fixture, parallel_fixture
from .geometry import AffineArrangement
from .modp import FpMatrix, FpVector, ModulusMismatchError, _check_modulus
from .orlik_solomon import OSAlgebra

__all__ = [
    "DegenerationMap",
    "degenerations",
    "delta_tot",
    "delta_dir",
    "induced_deg2",
    "verify_homomorphism",
    "class_sums",
    "TooFewClassesError",
    "BadClassError",
    "NoTransversalError",
]

# Pairs and symbols are checked this many at a time, so that no temporary
# grows with their number: each holds this many columns of the family's
# stacked target dim2.
_CHUNK = 256
# Seeded pairs on which the last stage cross-checks products; exact stages decide.
_PAIRS = 1


class TooFewClassesError(ValueError):
    """Total degeneration needs at least two parallel classes."""


class BadClassError(IndexError):
    """Parallel class index out of range."""


class NoTransversalError(ValueError):
    """Directional degeneration needs a line outside the chosen class."""


@dataclass(frozen=True)
class DegenerationMap:
    """A degree-preserving algebra map, stored as coordinate matrices."""

    kind: str  # "total" or "directional"
    class_index: int | None
    source: OSAlgebra
    target: OSAlgebra
    deg1_matrix: FpMatrix  # target.n x source.n
    deg2_matrix: FpMatrix  # target.dim2 x source.dim2

    def map1(self, x: FpVector) -> FpVector:
        return self.deg1_matrix @ self.source.deg1(x)


def induced_deg2(source: OSAlgebra, target: OSAlgebra, deg1_matrix: FpMatrix) -> FpMatrix:
    """Degree 2 matrix induced by a degree 1 assignment.

    The basis symbol for (point X, line j) is the wedge of X's smallest
    incident line with line j, so its image is the wedge of the two image
    forms in the target.
    """
    anchors, lines = source.symbol_factors()
    return target.wedge_columns(deg1_matrix, anchors, lines)


@functools.cache  # one algebra per model, size and p, shared by every map onto it
def _model(fixture, size: int, p: int) -> OSAlgebra:
    return OSAlgebra(fixture(size), p)


def _build(kind, class_index, source, fixture, size, m) -> DegenerationMap:
    """The map onto the model ``fixture(size)`` with degree 1 matrix ``m``."""
    target, deg1 = _model(fixture, size, source.p), FpMatrix._of(source.p, m)
    return DegenerationMap(kind, class_index, source, target, deg1,
                           induced_deg2(source, target, deg1))


def delta_tot(source: OSAlgebra) -> DegenerationMap:
    """Collapse every parallel class of ``source``'s arrangement onto one line
    of the central model, over ``source``'s prime."""
    aff = source.aff
    s = aff.num_classes
    if s < 2:
        raise TooFewClassesError(f"need at least 2 parallel classes, got {s}")
    mult, flat = aff.class_arrays
    m = np.zeros((s, aff.n), dtype=np.int64)
    m[np.repeat(np.arange(s), mult), flat] = 1  # each line onto its class's line
    return _build("total", None, source, central_fixture, s, m)


def delta_dir(source: OSAlgebra, class_index: int) -> DegenerationMap:
    """Keep one parallel class of ``source``'s arrangement, collapse all other
    lines to the transversal of the almost-parallel model."""
    aff = source.aff
    if not 0 <= class_index < aff.num_classes:
        raise BadClassError(f"class {class_index} out of range 0..{aff.num_classes - 1}")
    sizes, flat = aff.class_arrays[0].tolist(), aff.class_arrays[1]
    r, start = sizes[class_index], sum(sizes[:class_index])
    if r == aff.n:
        raise NoTransversalError("every line is in the chosen class")
    m = np.zeros((r + 1, aff.n), dtype=np.int64)
    m[r, :] = 1  # default image: the transversal
    m[:, flat[start:start + r]] = np.eye(r + 1, r, dtype=np.int64)  # the class onto the parallels
    return _build("directional", class_index, source, parallel_fixture, r, m)


def _group_pairs(sizes):
    """Positions u < v of every two members of one group, for consecutive
    groups of the given sizes, in ``combinations`` order, as index arrays in
    blocks of at most _CHUNK pairs."""
    sizes = np.asarray(sizes, dtype=np.intp)
    later = np.repeat(np.cumsum(sizes) - 1, sizes) - np.arange(sizes.sum())  # members after u
    u = np.repeat(np.arange(later.size), later)
    v = u + 1 + np.arange(u.size) - np.repeat(np.cumsum(later) - later, later)
    for s in range(0, u.size, _CHUNK):
        yield u[s:s + _CHUNK], v[s:s + _CHUNK]


def _direct_sum(algs) -> OSAlgebra:
    """``algs`` side by side: their class and point arrays concatenated in
    order, each summand's generators shifted by the total n of the summands
    before it. No product mixes two points, so the sum's products are the
    summands' stacked."""
    shifts = list(accumulate((a.n for a in algs), initial=0))

    def stacked(pairs):
        mults, flats = zip(*pairs)
        return np.concatenate(mults), np.concatenate([f + s for f, s in zip(flats, shifts)])

    return OSAlgebra(AffineArrangement(stacked(a.aff.class_arrays for a in algs),
                                       stacked(a.aff.point_arrays for a in algs)), algs[0].p)


def verify_homomorphism(*dmaps: DegenerationMap) -> bool:
    """Check that every map kills every source relation and is multiplicative.

    Stages, each once for the family in the direct sum of the targets (whose
    products are the maps' stacked), one product per item: every two lines
    i, j of a parallel class, f(i) ^ f(j) = 0; every symbol (X, j), which is
    e_a ^ e_j for X's smallest line a, deg2(X, j) = f(a) ^ f(j); every two
    symbols (X, j), (X, k) of a point, deg2(X, k) - deg2(X, j) = f(j) ^ f(k).
    Where the symbol stage holds, the last is the three-term relation of
    (a, j, k), since e_j ^ e_k = e_a ^ e_k - e_a ^ e_j, and those span all
    of X's as d(e_ijk) = d(e_ajk) - d(e_aik) + d(e_aij); where it fails, the
    verdict is false either way. So deg2(e_u ^ e_v) = f(u) ^ f(v) for every
    u < v, and by bilinearity deg2(x ^ y) = f(x) ^ f(y), which `_PAIRS`
    seeded one-form pairs recheck.
    """
    if not dmaps:
        raise ValueError("verify_homomorphism needs at least one map")
    src = dmaps[0].source
    if any(d.source.aff != src.aff or d.source.p != src.p for d in dmaps):
        raise ValueError("maps verified together must share their source arrangement and prime")
    if any(m.p != src.p for d in dmaps for m in (d.target, d.deg1_matrix, d.deg2_matrix)):
        raise ModulusMismatchError(f"every map verified over p={src.p} must be over it throughout")
    target = _direct_sum([d.target for d in dmaps])
    deg1 = FpMatrix._of(src.p, np.vstack([d.deg1_matrix.data for d in dmaps]))
    deg2 = FpMatrix._of(src.p, np.vstack([d.deg2_matrix.data for d in dmaps]))

    factors = target._factors(deg1.data)  # point sums once, for every stage

    def image_wedges(i, j) -> np.ndarray:
        return target._products(factors, i, j)

    sizes, flat = src.aff.class_arrays
    for u, v in _group_pairs(sizes):
        if image_wedges(flat[u], flat[v]).any():
            return False
    anchors, lines = src.symbol_factors()
    for cut in (slice(s, s + _CHUNK) for s in range(0, src.dim2, _CHUNK)):
        if not np.array_equal(deg2.data[:, cut], image_wedges(anchors[cut], lines[cut])):
            return False
    for u, v in _group_pairs(src.aff.point_arrays[0] - 1):  # two symbols of one point
        if not np.array_equal((deg2.data[:, v] - deg2.data[:, u]) % src.p,
                              image_wedges(lines[u], lines[v])):
            return False
    draws = np.array(random.Random(0).choices(range(src.p), k=2 * src.n * _PAIRS), dtype=np.int64)
    forms = [FpVector._of(src.p, d) for d in draws.reshape(2 * _PAIRS, src.n)]  # x, y, x, ...
    return all(deg2 @ src.wedge11(x, y) == target.wedge11(deg1 @ x, deg1 @ y)
               for x, y in zip(forms[::2], forms[1::2]))


def _describe(dmap: DegenerationMap) -> str:
    return "total map" if dmap.kind == "total" else f"{dmap.kind} map of class {dmap.class_index}"


def degenerations(aff: AffineArrangement, p: int) -> list[DegenerationMap]:
    """The total map and one directional map per parallel class, verified together
    (a family that fails raises); none with one class, which has no transversal."""
    p = _check_modulus(p)
    if aff.num_classes < 2:
        return []
    source = OSAlgebra(aff, p)  # one source algebra for the whole family
    maps = [delta_tot(source)] + [delta_dir(source, a) for a in range(aff.num_classes)]
    if not verify_homomorphism(*maps):
        failing = ", ".join(_describe(d) for d in maps if not verify_homomorphism(d))
        raise RuntimeError(
            f"degeneration failed its well-definedness check ({failing}); this is a bug"
        )
    return maps


def class_sums(dmap: DegenerationMap, eta: FpVector) -> FpVector:
    """Per-class coordinate sums of a one-form, i.e. its total degeneration
    image written in the target generators."""
    if dmap.kind != "total":
        raise ValueError("class sums are defined for total degeneration maps")
    return dmap.map1(eta)
