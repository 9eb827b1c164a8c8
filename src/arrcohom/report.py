"""Vanishing reports for first monodromy eigenspaces of line arrangement
Milnor fibers.

For an arrangement of n+1 lines the candidate eigenvalue orders are the
divisors k >= 2 of n+1. Per order, the report records a verdict:

* ``VANISHES_BY_LIBGOBER``: k > 2 and some line carries no point of
  multiplicity divisible by k, so the eigenspace is zero.
* ``VANISHES_BY_THM13``: k is a prime power p**l, the arrangement is
  essential, and some line carries at most one point of multiplicity
  divisible by p, so the eigenspace is zero.
* ``BOUNDED_BY_PS``: k = p**l, and the eigenspace dimension is at most
  the modular bound beta1 computed over F_p.
* ``UNKNOWN``: none of the above applies.

The modular bound for every prime divisor p is read at line 0 off the
incidences of the projective lattice (``aomoto.beta1_sweep``), in one call
for all of them; line 0 is also deconed, for the dense definition, which
must agree there. Since p divides n+1, the all-ones form is projective and
that value is the bound at every deconing (``beta1 --all-deconings`` shows
all of them and checks that they agree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aomoto import Beta1Result, beta1_full, beta1_sweep
from .geometry import ProjArrangement, decone, is_essential
from .orlik_solomon import OSAlgebra

__all__ = [
    "EigenvalueOrder",
    "MuTable",
    "PrimeRecord",
    "OrderRecord",
    "VanishingReport",
    "orders",
    "mu_table",
    "beta1_by_line",
    "report",
    "BadDegreeError",
    "VANISHES_BY_LIBGOBER",
    "VANISHES_BY_THM13",
    "BOUNDED_BY_PS",
    "UNKNOWN",
]

VANISHES_BY_LIBGOBER = "VANISHES_BY_LIBGOBER"
VANISHES_BY_THM13 = "VANISHES_BY_THM13"
BOUNDED_BY_PS = "BOUNDED_BY_PS"
UNKNOWN = "UNKNOWN"


class BadDegreeError(ValueError):
    """Eigenvalue orders need a defining polynomial degree of at least 3."""


@dataclass(frozen=True)
class EigenvalueOrder:
    """A divisor k >= 2 of n+1, flagged when it is a prime power p**l."""

    k: int
    prime_power: tuple[int, int] | None


def orders(n_plus_1: int) -> list[EigenvalueOrder]:
    """All candidate orders of nontrivial eigenvalues, ascending."""
    if n_plus_1 < 3:
        raise BadDegreeError(f"degree must be at least 3, got {n_plus_1}")
    out = []
    for k in range(2, n_plus_1 + 1):
        if n_plus_1 % k:
            continue
        p = next(d for d in range(2, k + 1) if k % d == 0)  # the smallest prime factor
        e = 1
        while p**e < k:
            e += 1
        out.append(EigenvalueOrder(k, (p, e) if p**e == k else None))
    return out


@dataclass(frozen=True)
class MuTable:
    """Divisible-point counts: rows are lines, columns the divisors of n+1."""

    ks: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def column(self, k: int) -> tuple[int, ...]:
        c = self.ks.index(k)
        return tuple(row[c] for row in self.rows)


def mu_table(arr: ProjArrangement) -> MuTable:
    """Every divisible-point count, one ``bincount`` per order over the
    incidence arrays of ``arr.lattice``: the lines of the points whose
    multiplicity k divides (``geometry.mu`` counts one line and one k)."""
    ks = tuple(o.k for o in orders(len(arr.lines)))
    mult, flat, owner = arr.lattice.arrays
    columns = [np.bincount(flat[(mult % k == 0)[owner]], minlength=len(arr.lines)).tolist()
               for k in ks]
    return MuTable(ks, tuple(zip(*columns)))


@dataclass(frozen=True)
class PrimeRecord:
    """Modular data for one prime divisor of n+1."""

    p: int
    min_mu: int
    witness_line: int
    beta1: int
    beta1_all_deconings: tuple[int, ...]
    theorem16_applicable: bool
    theorem16_consistent: bool


@dataclass(frozen=True)
class OrderRecord:
    """Verdict for one eigenvalue order; bound is the best upper bound on
    the eigenspace dimension (None when nothing is known)."""

    k: int
    prime_power: tuple[int, int] | None
    verdict: str
    bound: int | None


def _json_fields(rec) -> dict:
    """A record's fields as JSON writes them: tuple fields become lists."""
    return {name: list(v) if isinstance(v, tuple) else v for name, v in vars(rec).items()}


@dataclass(frozen=True)
class VanishingReport:
    degree: int
    essential: bool
    trivial_eigenspace_dim: int
    mu: MuTable
    primes: tuple[PrimeRecord, ...]
    orders: tuple[OrderRecord, ...]

    def prime_record(self, p: int) -> PrimeRecord:
        for rec in self.primes:
            if rec.p == p:
                return rec
        raise KeyError(f"no record for prime {p}")

    def order_record(self, k: int) -> OrderRecord:
        for rec in self.orders:
            if rec.k == k:
                return rec
        raise KeyError(f"no record for order {k}")

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "essential": self.essential,
            "mu_table": {"ks": list(self.mu.ks), "rows": [list(r) for r in self.mu.rows]},
            "primes": [_json_fields(rec) for rec in self.primes],
            "orders": [_json_fields(rec) for rec in self.orders],
        }


def beta1_by_line(arr: ProjArrangement, primes, lines) -> dict[int, list[Beta1Result]]:
    """Modular bound at every listed infinity line, for every prime: the
    first cohomology rank of the wedge complex of the deconed arrangement
    at the all-ones one-form. ``aomoto.beta1_sweep`` reads them off the
    lattice the arrangement keeps, one line at a time; the result maps
    each prime to its results in line order. Only the first listed line is
    deconed, for the dense definition, which must agree there; no listed
    line gives empty lists."""
    # BadIndexError (exit 2) before any work; aomoto may not import it
    lines = [arr.check_index(h) for h in lines]
    results = beta1_sweep(arr.lattice, lines, primes)
    if not lines:
        return results
    aff = decone(arr, lines[0])
    for p in primes:
        alg = OSAlgebra(aff, p)
        if beta1_full(alg, alg.ones()) != results[p][0]:
            raise RuntimeError(f"incidence kernel and dense definition disagree "
                               f"for p={p} at infinity line {lines[0]}; this is a bug")
    return results


def report(arr: ProjArrangement) -> VanishingReport:
    """Full vanishing report for a projective arrangement."""
    degree = len(arr.lines)
    essential = is_essential(arr)
    table = mu_table(arr)
    all_orders = orders(degree)

    primes = [o.k for o in all_orders if o.prime_power == (o.k, 1)]
    # every prime here divides the degree, so line 0 gives the bound at every line
    at_line0 = beta1_by_line(arr, primes, [0])
    prime_records = []
    for p in primes:
        mus = table.column(p)
        min_mu = min(mus)
        witness = mus.index(min_mu)
        beta1 = at_line0[p][0].value
        applicable = essential and min_mu <= 1
        consistent = (not applicable) or beta1 == 0
        if not consistent:
            raise RuntimeError(
                f"vanishing criterion violated for p={p} (min_mu={min_mu}, "
                f"beta1={beta1}); this is a bug"
            )
        prime_records.append(
            PrimeRecord(p, min_mu, witness, beta1, (beta1,) * degree, applicable, consistent)
        )
    by_prime = {rec.p: rec for rec in prime_records}

    order_records = []
    for order in all_orders:
        k = order.k
        rec = by_prime.get(order.prime_power[0]) if order.prime_power else None
        if k > 2 and min(table.column(k)) == 0:
            verdict, bound = VANISHES_BY_LIBGOBER, 0
        elif rec is not None and rec.theorem16_applicable:
            verdict, bound = VANISHES_BY_THM13, rec.beta1  # necessarily 0
        elif rec is not None:
            verdict, bound = BOUNDED_BY_PS, rec.beta1
        else:
            verdict, bound = UNKNOWN, None
        order_records.append(OrderRecord(k, order.prime_power, verdict, bound))

    return VanishingReport(
        degree=degree,
        essential=essential,
        trivial_eigenspace_dim=degree - 1,
        mu=table,
        primes=tuple(prime_records),
        orders=tuple(order_records),
    )
