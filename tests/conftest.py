import random
from itertools import product

import numpy as np
import pytest

from arrcohom import catalog
from arrcohom.geometry import ProjArrangement, decone, parse_line
from arrcohom.modp import FpMatrix


@pytest.fixture(scope="session")
def members():
    """Every catalog instance with at most 12 lines."""
    return catalog.sweep_members()


@pytest.fixture(scope="session")
def braid():
    return catalog.braid_a3()


def box_sources(count, seed):
    """Seeded projective arrangements of 6..12 lines with coefficients in [-2, 2].

    Line 0 is z = 0, so lines sharing a direction become parallel once it
    goes to infinity; small coefficients force many concurrences. Samples
    whose deconing at line 0 has a finite point of multiplicity above 5 or
    a single parallel class are redrawn.
    """
    box = {parse_line(t) for t in product(range(-2, 3), repeat=3) if any(t)}
    box = sorted(box - {(0, 0, 1)})
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        arr = ProjArrangement.from_coeffs([(0, 0, 1)] + rng.sample(box, rng.randint(5, 11)))
        aff = decone(arr, 0)
        if aff.num_classes >= 2 and all(len(inc) <= 5 for inc in aff.finite_points):
            out.append(arr)
    return out


def block_wedge(alg, x, y):
    """Column c is x[:, c] ^ y[:, c] in ``alg``, for two ``FpMatrix`` blocks
    of one-forms of one shape, as one ``wedge_columns`` call."""
    k = x.shape[1]
    both = FpMatrix(alg.p, np.column_stack((x.data, y.data)))  # x's columns, then y's
    return alg.wedge_columns(both, np.arange(k), np.arange(k, 2 * k))


def box_arrangements(count, seed):
    """The ``box_sources`` deconed at line 0."""
    return [decone(arr, 0) for arr in box_sources(count, seed)]


def transformed(arr, sigma, g):
    """Line i of the image is line sigma[i] of ``arr`` times g: the same
    arrangement after a change of coordinates, lines relabelled by sigma."""
    return ProjArrangement([tuple(sum(line[r] * g[r][c] for r in range(3)) for c in range(3))
                            for line in (arr.lines[s] for s in sigma)])


# unimodular: the identity, two with small entries, and a shear that lifts
# small coefficients past 2**30
UNIMODULAR = [((1, 0, 0), (0, 1, 0), (0, 0, 1)),
              ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
              ((2, 1, 0), (1, 1, 0), (0, 3, 1)),
              ((1, 2**30, 0), (0, 1, 0), (0, 0, 1))]
