"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

from arrcohom.aomoto import (
    beta1_full,
    beta1_restricted,
    central_fixture,
    parallel_fixture,
    sum_zero_basis,
)
from arrcohom.degeneration import delta_dir, delta_tot, verify_homomorphism
from arrcohom.geometry import decone, is_essential, mu
from arrcohom.orlik_solomon import OSAlgebra, QuotientOSOracle
from arrcohom.report import report

PRIMES_13 = (2, 3, 5, 7, 11, 13)


def _criterion(num, ok, text):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num}: {text}"


def _deconings(arr, cap=8):
    degree = len(arr.lines)
    return range(degree) if degree <= cap else range(1)


def test_criterion_01_braid_modular_bound_order3(braid):
    start = time.perf_counter()
    values = []
    for infinity in range(6):
        alg = OSAlgebra(decone(braid, infinity), 3)
        values.append(beta1_full(alg, alg.ones()).value)
    mus = [mu(braid, i, 3) for i in range(6)]
    elapsed = time.perf_counter() - start
    ok = values == [1] * 6 and mus == [2] * 6 and min(mus) > 1 and elapsed < 1.0
    _criterion(1, ok, f"braid p=3: beta1={values}, mu3={mus}, {elapsed:.3f}s")


def test_criterion_02_braid_vanishes_order2(braid):
    start = time.perf_counter()
    mus = [mu(braid, i, 2) for i in range(6)]
    alg = OSAlgebra(decone(braid, 0), 2)
    value = beta1_full(alg, alg.ones()).value
    elapsed = time.perf_counter() - start
    ok = (
        mus == [1] * 6
        and is_essential(braid)
        and value == 0
        and elapsed < 1.0
    )
    _criterion(2, ok, f"braid p=2: mu2={mus}, beta1={value}, {elapsed:.3f}s")


def test_criterion_03_small_mu_vanishing_sweep(members):
    checked = 0
    violations = []
    for name, arr in members:
        rep = report(arr)
        for rec in rep.primes:
            if rec.theorem16_applicable:
                checked += 1
                if rec.beta1 != 0:
                    violations.append((name, rec.p, rec.beta1))
    ok = not violations and checked > 0
    _criterion(3, ok, f"{checked} applicable (member, prime) pairs, violations={violations}")


def test_criterion_04_oracle_equivalence(members):
    checked = 0
    violations = []
    for name, arr in members:
        for infinity in _deconings(arr):
            aff = decone(arr, infinity)
            for p in (2, 3, 5, 7):
                alg = OSAlgebra(aff, p)
                oracle = QuotientOSOracle(aff, p)
                b_build = beta1_full(alg, alg.ones()).value
                b_oracle = oracle.beta1([1] * aff.n)
                checked += 1
                if alg.dim2 != oracle.dim2 or b_build != b_oracle:
                    violations.append((name, infinity, p))
    ok = not violations
    _criterion(4, ok, f"{checked} builds against the quotient oracle, violations={violations}")


def test_criterion_05_restricted_shortcut_agrees(members):
    checked = 0
    violations = []
    for name, arr in members:
        for infinity in _deconings(arr):
            aff = decone(arr, infinity)
            for p in PRIMES_13:
                if aff.n % p == 0:
                    continue
                alg = OSAlgebra(aff, p)
                nu = alg.ones()
                checked += 1
                if beta1_restricted(alg, nu).value != beta1_full(alg, nu).value:
                    violations.append((name, infinity, p))
    ok = not violations
    _criterion(5, ok, f"{checked} shortcut comparisons, violations={violations}")


def test_criterion_06_model_sweeps():
    start = time.perf_counter()
    violations = []
    for s in range(2, 13):
        aff = central_fixture(s)
        for p in PRIMES_13:
            if s % p == 0:
                continue
            alg = OSAlgebra(aff, p)
            if beta1_full(alg, alg.ones()).value != 0:
                violations.append(("central", s, p))
    for r in range(1, 13):
        aff = parallel_fixture(r)
        for p in PRIMES_13:
            alg = OSAlgebra(aff, p)
            if beta1_full(alg, alg.ones()).value != 0:
                violations.append(("parallel", r, p))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0
    _criterion(6, ok, f"model sweeps clean in {elapsed:.2f}s, violations={violations}")


def test_criterion_07_degenerations_well_defined(members):
    checked = 0
    violations = []
    for name, arr in members:
        for infinity in _deconings(arr, cap=6):
            aff = decone(arr, infinity)
            for p in (2, 3, 5):
                maps = []
                if aff.num_classes >= 2:
                    maps.append(delta_tot(aff, p))
                for a in range(aff.num_classes):
                    if len(aff.classes[a]) < aff.n:
                        maps.append(delta_dir(aff, a, p))
                for dmap in maps:
                    checked += 1
                    if not verify_homomorphism(dmap):
                        violations.append((name, infinity, p, dmap.kind))
    ok = not violations and checked > 0
    _criterion(7, ok, f"{checked} degeneration maps verified, violations={violations}")


def test_criterion_08_kernel_forms_degenerate_to_zero(members):
    checked = 0
    violations = []
    for name, arr in members:
        degree = len(arr.lines)
        for infinity in _deconings(arr):
            aff = decone(arr, infinity)
            classes = aff.classes
            for p in PRIMES_13:
                if degree % p:
                    continue
                alg = OSAlgebra(aff, p)
                basis = sum_zero_basis(aff.n, p)
                restricted = alg.wedge_matrix(alg.ones()) @ basis
                for kv in restricted.kernel_basis():
                    eta = basis @ kv
                    checked += 1
                    sums = [sum(eta[i] for i in cls) % p for cls in classes]
                    if any(sums):
                        violations.append((name, infinity, p))
    ok = not violations and checked > 0
    _criterion(8, ok, f"{checked} kernel forms with zero class sums, violations={violations}")


def test_criterion_09_deconing_invariance(members):
    checked = 0
    violations = []
    for name, arr in members:
        degree = len(arr.lines)
        for p in PRIMES_13:
            if degree % p:
                continue
            values = set()
            for infinity in range(degree):
                alg = OSAlgebra(decone(arr, infinity), p)
                values.add(beta1_full(alg, alg.ones()).value)
            checked += 1
            if len(values) != 1:
                violations.append((name, p, values))
    ok = not violations and checked > 0
    _criterion(9, ok, f"{checked} (member, prime) invariance checks, violations={violations}")


def test_criterion_10_brieskorn_dimension(members, braid):
    braid_dim = OSAlgebra(decone(braid, 2), 3).dim2
    violations = []
    for name, arr in members:
        for infinity in _deconings(arr):
            aff = decone(arr, infinity)
            expected = sum(len(inc) - 1 for inc in aff.finite_points)
            alg = OSAlgebra(aff, 3)
            oracle = QuotientOSOracle(aff, 3)
            if not (alg.dim2 == expected == oracle.dim2):
                violations.append((name, infinity))
    ok = braid_dim == 6 and not violations
    _criterion(10, ok, f"deconed braid rank {braid_dim}, violations={violations}")
