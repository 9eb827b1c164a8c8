"""Exact invariants of complex projective line arrangements.

The package computes intersection lattices with exact integer arithmetic,
Orlik-Solomon algebras in degrees 0..2 over prime fields, first cohomology
ranks of the associated wedge complexes, degeneration homomorphisms onto
central and almost-parallel models, and per-eigenvalue-order vanishing
reports for Milnor fiber monodromy via the modular upper bound.
"""

from .aomoto import (
    BadSizeError,
    Beta1Result,
    NotInvertibleError,
    beta1_full,
    beta1_restricted,
    beta1_sweep,
    central_fixture,
    parallel_fixture,
    sum_zero_basis,
)
from .catalog import BUILTINS, BadParameterError, build_named, sweep_members
from .degeneration import (
    BadClassError,
    DegenerationMap,
    NoTransversalError,
    TooFewClassesError,
    class_sums,
    degenerations,
    delta_dir,
    delta_tot,
    verify_homomorphism,
)
from .geometry import (
    AffineArrangement,
    BadIndexError,
    BadKError,
    DuplicateLineError,
    IdenticalLinesError,
    IntersectionLattice,
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
from .modp import (
    DimensionMismatchError,
    FpMatrix,
    FpVector,
    ModulusMismatchError,
    NotPrimeError,
    is_prime,
)
from .orlik_solomon import OSAlgebra, QuotientOSOracle, relation_pairs, relation_triples
from .report import (
    BOUNDED_BY_PS,
    UNKNOWN,
    VANISHES_BY_LIBGOBER,
    VANISHES_BY_THM13,
    BadDegreeError,
    EigenvalueOrder,
    MuTable,
    OrderRecord,
    PrimeRecord,
    VanishingReport,
    beta1_by_line,
    mu_table,
    orders,
    report,
)

__version__ = "0.1.0"
