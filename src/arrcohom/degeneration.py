"""Degeneration homomorphisms between Orlik-Solomon algebras.

The total degeneration collapses every parallel class of an affine
arrangement to a single line through one common point; the directional
degeneration keeps one class and collapses everything else to a single
transversal. Both are materialized as matrices on the degree 1 and
degree 2 coordinates and re-verified at construction time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

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

    def map2(self, v: FpVector) -> FpVector:
        return self.deg2_matrix @ self.source.deg2(v)


def induced_deg2(source: OSAlgebra, target: OSAlgebra, deg1_matrix: FpMatrix) -> FpMatrix:
    """Degree 2 matrix induced by a degree 1 assignment.

    The basis symbol for (point X, line j) is the wedge of X's smallest
    incident line with line j, so its image is the wedge of the two image
    forms in the target.
    """
    cols = []
    for x, j in source.symbols:
        anchor = source.points[x][0]
        a = deg1_matrix @ source.unit(anchor)
        b = deg1_matrix @ source.unit(j)
        cols.append(target.wedge11(a, b).data)
    if cols:
        data = np.stack(cols, axis=1)
    else:
        data = np.zeros((target.dim2, 0), dtype=np.int64)
    return FpMatrix(target.p, data)


def delta_tot(aff: AffineArrangement, p: int) -> DegenerationMap:
    """Collapse every parallel class onto one line of the central model."""
    s = aff.num_classes
    if s < 2:
        raise TooFewClassesError(f"need at least 2 parallel classes, got {s}")
    source = OSAlgebra(aff, p)
    target = OSAlgebra(central_fixture(s), p)
    m = np.zeros((s, aff.n), dtype=np.int64)
    m[np.array(aff.class_of_positions()), np.arange(aff.n)] = 1
    deg1 = FpMatrix(p, m)
    dmap = DegenerationMap("total", None, source, target, deg1, induced_deg2(source, target, deg1))
    if not verify_homomorphism(dmap, trials=4):
        raise RuntimeError(
            "total degeneration failed its well-definedness check; this is a bug"
        )
    return dmap


def delta_dir(aff: AffineArrangement, class_index: int, p: int) -> DegenerationMap:
    """Keep one parallel class, collapse all other lines to the transversal
    of the almost-parallel model."""
    if not 0 <= class_index < aff.num_classes:
        raise BadClassError(
            f"class {class_index} out of range 0..{aff.num_classes - 1}"
        )
    members = aff.classes_as_positions()[class_index]
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
    dmap = DegenerationMap(
        "directional", class_index, source, target, deg1, induced_deg2(source, target, deg1)
    )
    if not verify_homomorphism(dmap, trials=4):
        raise RuntimeError(
            "directional degeneration failed its well-definedness check; this is a bug"
        )
    return dmap


def verify_homomorphism(dmap: DegenerationMap, trials: int = 20, seed: int = 0) -> bool:
    """Check that the map kills every source relation and is multiplicative.

    Relation generators (parallel pairs and concurrent triples) are checked
    exhaustively, then the degree 2 matrix is compared against the wedge of
    degree 1 images on every pair and on `trials` random one-form pairs.
    """
    src, tgt = dmap.source, dmap.target
    images = [dmap.map1(src.unit(i)) for i in range(src.n)]
    for i, j in relation_pairs(src.aff):
        if not tgt.wedge11(images[i], images[j]).is_zero():
            return False
    for i, j, k in relation_triples(src.aff):
        alt = (
            tgt.wedge11(images[i], images[j])
            - tgt.wedge11(images[i], images[k])
            + tgt.wedge11(images[j], images[k])
        )
        if not alt.is_zero():
            return False
    for i, j in combinations(range(src.n), 2):
        if dmap.map2(src.pair_value(i, j)) != tgt.wedge11(images[i], images[j]):
            return False
    rng = random.Random(seed)
    for _ in range(trials):
        x = src.deg1([rng.randrange(src.p) for _ in range(src.n)])
        y = src.deg1([rng.randrange(src.p) for _ in range(src.n)])
        if dmap.map2(src.wedge11(x, y)) != tgt.wedge11(dmap.map1(x), dmap.map1(y)):
            return False
    return True


def class_sums(dmap: DegenerationMap, eta: FpVector) -> FpVector:
    """Per-class coordinate sums of a one-form, i.e. its total degeneration
    image written in the target generators."""
    if dmap.kind != "total":
        raise ValueError("class sums are defined for total degeneration maps")
    return dmap.map1(eta)
