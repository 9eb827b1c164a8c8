"""Degeneration homomorphisms between Orlik-Solomon algebras.

The total degeneration collapses every parallel class of an affine
arrangement to a single line through one common point; the directional
degeneration keeps one class and collapses everything else to a single
transversal. Both are materialized as matrices on the degree 1 and
degree 2 coordinates. Each map is verified once, at construction, with
the full check of ``verify_homomorphism``; a map that fails it is a bug
and raises, so every map ``delta_tot`` and ``delta_dir`` return carries
``verified=True``, which the command line reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations, islice

import numpy as np

from .aomoto import central_fixture, parallel_fixture
from .geometry import AffineArrangement
from .modp import FpMatrix, FpVector
from .orlik_solomon import OSAlgebra, relation_pairs, relation_triples

__all__ = [
    "DegenerationMap",
    "delta_tot",
    "delta_dir",
    "induced_deg2",
    "verify_homomorphism",
    "class_sums",
    "TooFewClassesError",
    "BadClassError",
    "NoTransversalError",
]

# Pairs and triples are checked this many at a time, so that no temporary
# grows with the number of line pairs or with the triples of a large point.
_CHUNK = 256
# Seed of the random one-form pairs in the last stage of verification.
_SEED = 0


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
    verified: bool = False  # set once verify_homomorphism has passed

    def map1(self, x: FpVector) -> FpVector:
        return self.deg1_matrix @ self.source.deg1(x)

    def map2(self, v: FpVector) -> FpVector:
        return self.deg2_matrix @ self.source.deg2(v)


def _columns(mat: FpMatrix, idx) -> FpMatrix:
    return FpMatrix(mat.p, mat.data[:, idx])


def induced_deg2(source: OSAlgebra, target: OSAlgebra, deg1_matrix: FpMatrix) -> FpMatrix:
    """Degree 2 matrix induced by a degree 1 assignment.

    The basis symbol for (point X, line j) is the wedge of X's smallest
    incident line with line j, so its image is the wedge of the two image
    forms in the target.
    """
    anchors, lines = source.symbol_factors()
    return target.wedge11(_columns(deg1_matrix, anchors), _columns(deg1_matrix, lines))


def _verified(dmap: DegenerationMap) -> DegenerationMap:
    if not verify_homomorphism(dmap):
        raise RuntimeError(
            f"{dmap.kind} degeneration failed its well-definedness check; this is a bug"
        )
    return replace(dmap, verified=True)


def delta_tot(aff: AffineArrangement, p: int) -> DegenerationMap:
    """Collapse every parallel class onto one line of the central model."""
    s = aff.num_classes
    if s < 2:
        raise TooFewClassesError(f"need at least 2 parallel classes, got {s}")
    source = OSAlgebra(aff, p)
    target = OSAlgebra(central_fixture(s), p)
    m = np.zeros((s, aff.n), dtype=np.int64)
    for a, members in enumerate(aff.classes):
        m[a, list(members)] = 1
    deg1 = FpMatrix(p, m)
    return _verified(
        DegenerationMap("total", None, source, target, deg1, induced_deg2(source, target, deg1))
    )


def delta_dir(aff: AffineArrangement, class_index: int, p: int) -> DegenerationMap:
    """Keep one parallel class, collapse all other lines to the transversal
    of the almost-parallel model."""
    if not 0 <= class_index < aff.num_classes:
        raise BadClassError(
            f"class {class_index} out of range 0..{aff.num_classes - 1}"
        )
    members = aff.classes[class_index]
    r = len(members)
    if r == aff.n:
        raise NoTransversalError("every line is in the chosen class")
    source = OSAlgebra(aff, p)
    target = OSAlgebra(parallel_fixture(r), p)
    m = np.zeros((r + 1, aff.n), dtype=np.int64)
    m[r, :] = 1  # default image: the transversal
    for u, pos in enumerate(members):
        m[r, pos] = 0
        m[u, pos] = 1
    deg1 = FpMatrix(p, m)
    return _verified(
        DegenerationMap(
            "directional", class_index, source, target, deg1, induced_deg2(source, target, deg1)
        )
    )


def _chunks(tuples):
    """Index tuples in blocks of at most _CHUNK, one index array per position."""
    it = iter(tuples)
    while block := list(islice(it, _CHUNK)):
        yield np.array(block, dtype=np.intp).T


def verify_homomorphism(dmap: DegenerationMap, trials: int = 20) -> bool:
    """Check that the map kills every source relation and is multiplicative.

    Relation generators (parallel pairs and concurrent triples) are checked
    exhaustively, then the degree 2 matrix is compared against the wedge of
    degree 1 images on every pair and on `trials` seeded random one-form
    pairs. Pairs and triples go through ``wedge11`` in blocks of columns.
    """
    src, tgt = dmap.source, dmap.target
    images, deg2 = dmap.deg1_matrix, dmap.deg2_matrix
    units = FpMatrix(src.p, np.eye(src.n, dtype=np.int64))

    def image_wedges(i, j):
        return tgt.wedge11(_columns(images, i), _columns(images, j))

    for i, j in _chunks(relation_pairs(src.aff)):
        if not image_wedges(i, j).is_zero():
            return False
    for i, j, k in _chunks(relation_triples(src.aff)):
        alt = image_wedges(i, j).data - image_wedges(i, k).data + image_wedges(j, k).data
        if (alt % tgt.p).any():
            return False
    for i, j in _chunks(combinations(range(src.n), 2)):
        if deg2 @ src.wedge11(_columns(units, i), _columns(units, j)) != image_wedges(i, j):
            return False
    draws = random.Random(_SEED).choices(range(src.p), k=2 * src.n * trials)
    x, y = (FpMatrix(src.p, d) for d in np.array(draws, dtype=np.int64).reshape(2, src.n, trials))
    return deg2 @ src.wedge11(x, y) == tgt.wedge11(images @ x, images @ y)


def class_sums(dmap: DegenerationMap, eta: FpVector) -> FpVector:
    """Per-class coordinate sums of a one-form, i.e. its total degeneration
    image written in the target generators."""
    if dmap.kind != "total":
        raise ValueError("class sums are defined for total degeneration maps")
    return dmap.map1(eta)
