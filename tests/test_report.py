import importlib
import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrcohom import aomoto, catalog
from arrcohom.aomoto import Beta1Result, beta1_full
from arrcohom.geometry import (
    BadIndexError,
    ProjArrangement,
    decone,
    is_essential,
    mu,
    parse_line,
)
from arrcohom.orlik_solomon import OSAlgebra, QuotientOSOracle
from arrcohom.report import (
    BOUNDED_BY_PS,
    UNKNOWN,
    VANISHES_BY_LIBGOBER,
    VANISHES_BY_THM13,
    BadDegreeError,
    beta1_by_line,
    mu_table,
    orders,
    report,
)
from conftest import box_sources

# the module, not the function arrcohom.report that the package re-exports
REPORT_MODULE = importlib.import_module("arrcohom.report")
ROOT = Path(__file__).resolve().parent.parent


def test_orders_examples():
    assert [(o.k, o.prime_power) for o in orders(6)] == [(2, (2, 1)), (3, (3, 1)), (6, None)]
    assert [(o.k, o.prime_power) for o in orders(8)] == [
        (2, (2, 1)),
        (4, (2, 2)),
        (8, (2, 3)),
    ]
    assert [(o.k, o.prime_power) for o in orders(12)] == [
        (2, (2, 1)),
        (3, (3, 1)),
        (4, (2, 2)),
        (6, None),
        (12, None),
    ]


def test_orders_match_brute_force_prime_powers():
    def prime(q):
        return all(q % d for d in range(2, q))

    for n in range(3, 201):
        expected = []
        for k in range(2, n + 1):
            if n % k == 0:
                pp = [(q, e) for q in range(2, k + 1) if prime(q)
                      for e in range(1, k.bit_length() + 1) if q**e == k]
                expected.append((k, pp[0] if pp else None))
        assert [(o.k, o.prime_power) for o in orders(n)] == expected, n


def test_orders_bad_degree():
    with pytest.raises(BadDegreeError):
        orders(2)


def test_mu_table_braid(braid):
    table = mu_table(braid)
    assert table.ks == (2, 3, 6)
    assert table.column(3) == (2,) * 6
    assert table.column(2) == (1,) * 6
    assert table.column(6) == (0,) * 6


def test_mu_table_pencil_and_generic():
    table = mu_table(catalog.pencil(6))
    for k in (2, 3, 6):
        assert table.column(k) == (1,) * 6
    table4 = mu_table(catalog.generic(4))
    assert table4.column(2) == (3, 3, 3, 3)
    assert table4.column(4) == (0, 0, 0, 0)


def test_mu_table_matches_mu(members):
    # the bincount table against the per-line, per-k tuple scan of
    # geometry.mu, on the catalog, generic and near-pencil inputs of 60
    # lines and seeded boxes, some with points of multiplicity 4 divisible
    # by an order k >= 4
    sources = [arr for _, arr in members]
    sources += [catalog.generic(60), catalog.near_pencil(60)]
    sources += box_sources(50, seed=2024)
    high = 0
    for arr in sources:
        table = mu_table(arr)
        assert table.ks == tuple(o.k for o in orders(len(arr.lines)))
        assert len(table.rows) == len(arr.lines)
        for i, row in enumerate(table.rows):
            assert row == tuple(mu(arr, i, k) for k in table.ks)
        high += any(row[c] for row in table.rows for c, k in enumerate(table.ks) if k >= 4)
    assert high > 0


def test_mu_monotone_under_divisibility(members):
    for _, arr in members:
        table = mu_table(arr)
        for i, row in enumerate(table.rows):
            for a, ka in enumerate(table.ks):
                for b, kb in enumerate(table.ks):
                    if kb % ka == 0:
                        assert row[b] <= row[a]


def test_braid_report(braid):
    rep = report(braid)
    assert rep.degree == 6
    assert rep.essential
    assert rep.trivial_eigenspace_dim == 5

    rec2 = rep.prime_record(2)
    assert rec2.min_mu == 1
    assert rec2.beta1 == 0
    assert rec2.beta1_all_deconings == (0,) * 6
    assert rec2.theorem16_applicable and rec2.theorem16_consistent

    rec3 = rep.prime_record(3)
    assert rec3.min_mu == 2
    assert rec3.beta1 == 1
    assert rec3.beta1_all_deconings == (1,) * 6
    assert not rec3.theorem16_applicable

    assert rep.order_record(2).verdict == VANISHES_BY_THM13
    assert rep.order_record(2).bound == 0
    assert rep.order_record(3).verdict == BOUNDED_BY_PS
    assert rep.order_record(3).bound == 1
    assert rep.order_record(6).verdict == VANISHES_BY_LIBGOBER
    assert rep.order_record(6).bound == 0
    with pytest.raises(KeyError):
        rep.prime_record(7)
    with pytest.raises(KeyError):
        rep.order_record(5)


def test_pencil_report_not_essential():
    rep = report(catalog.pencil(5))
    assert not rep.essential
    assert not any(rec.theorem16_applicable for rec in rep.primes)
    # the modular bound needs no essentiality and is sharp on a pencil
    rec = rep.order_record(5)
    assert rec.verdict == BOUNDED_BY_PS
    assert rec.bound == 3


def test_pappus_report():
    # 9 lines, 9 triple points: beta1 = 1 at p = 3 from every deconing
    arr = catalog.pappus()
    assert arr.lattice.histogram() == {2: 9, 3: 9}
    assert [res.value for res in aomoto.beta1_sweep(arr.lattice, range(9), [3])[3]] == [1] * 9
    for h in range(9):
        aff = decone(arr, h)
        assert QuotientOSOracle(aff, 3).beta1([1] * aff.n) == 1
    rep = report(arr)
    assert rep.prime_record(3).beta1_all_deconings == (1,) * 9
    assert rep.order_record(3).verdict == BOUNDED_BY_PS
    assert rep.order_record(3).bound == 1


def test_generic4_report():
    rep = report(catalog.generic(4))
    rec2 = rep.prime_record(2)
    assert rec2.min_mu == 3
    assert not rec2.theorem16_applicable
    assert rep.order_record(4).verdict == VANISHES_BY_LIBGOBER
    assert rep.order_record(2).verdict == BOUNDED_BY_PS
    assert rep.order_record(2).bound == 0


def test_near_pencil6_report():
    rep = report(catalog.near_pencil(6))
    assert rep.prime_record(2).theorem16_applicable
    assert rep.prime_record(3).min_mu == 0
    assert rep.order_record(2).verdict == VANISHES_BY_THM13
    # a zero count beats the prime power route for k > 2
    assert rep.order_record(3).verdict == VANISHES_BY_LIBGOBER
    assert rep.order_record(6).verdict == VANISHES_BY_LIBGOBER


def test_unknown_verdict_possible():
    # 3 x 4 lines: order 6 is neither a prime power nor (here) a zero count
    rep = report(catalog.pencil(6))
    assert rep.order_record(6).verdict == UNKNOWN
    assert rep.order_record(6).bound is None


def test_small_mu_vanishing_sweep(members):
    for name, arr in members:
        essential = is_essential(arr)
        degree = len(arr.lines)
        for p in (2, 3, 5, 7, 11):
            if degree % p:
                continue
            min_mu = min(mu(arr, i, p) for i in range(degree))
            if essential and min_mu <= 1:
                assert beta1_by_line(arr, [p], [0])[p][0].value == 0, (name, p)


def _shift_beta1(monkeypatch, shift):
    # a wrong sweep that the dense check cannot see: both paths are shifted
    # alike, by the same constant, so only report's own checks are left to
    # catch it
    honest_sweep, honest_full = REPORT_MODULE.beta1_sweep, REPORT_MODULE.beta1_full

    def shifted(res):
        return Beta1Result(res.value + shift, res.method, res.certificate)

    def sweep(points, lines, primes):
        return {p: list(map(shifted, results))
                for p, results in honest_sweep(points, lines, primes).items()}

    monkeypatch.setattr(REPORT_MODULE, "beta1_sweep", sweep)
    monkeypatch.setattr(REPORT_MODULE, "beta1_full",
                        lambda alg, xi: shifted(honest_full(alg, xi)))


def test_report_rejects_violated_vanishing_criterion(monkeypatch, braid):
    # the small-mu theorem applies to braid-a3 at p = 2, so beta1 must be 0
    _shift_beta1(monkeypatch, 1)
    with pytest.raises(RuntimeError, match="vanishing criterion violated for p=2"):
        report(braid)


def test_report_rejects_dense_disagreement(monkeypatch, braid):
    honest = REPORT_MODULE.beta1_full

    def off_by_one(alg, xi):
        res = honest(alg, xi)
        return Beta1Result(res.value + 1, res.method, res.certificate)

    monkeypatch.setattr(REPORT_MODULE, "beta1_full", off_by_one)
    with pytest.raises(RuntimeError, match="dense definition disagree for p=2 at "
                                           "infinity line 0; this is a bug"):
        report(braid)


def test_report_decones_once(monkeypatch, braid):
    # the sweep reads every line off the lattice; only the dense check at
    # the first line, shared by both prime divisors 2 and 3 of 6, decones
    honest, lines = REPORT_MODULE.decone, []

    def counted(arr, h):
        lines.append(h)
        return honest(arr, h)

    monkeypatch.setattr(REPORT_MODULE, "decone", counted)
    report(braid)
    assert lines == [0]


def test_report_sweeps_line_0_once(monkeypatch, braid):
    # every prime of a report divides the degree, so line 0 gives the bound
    # at every line: one sweep of one line for both primes 2 and 3
    honest, calls = REPORT_MODULE.beta1_sweep, []

    def spy(points, lines, primes):
        calls.append((list(lines), list(primes)))
        return honest(points, lines, primes)

    monkeypatch.setattr(REPORT_MODULE, "beta1_sweep", spy)
    rep = report(braid)
    assert calls == [([0], [2, 3])]
    for rec in rep.primes:
        assert rec.beta1_all_deconings == (rec.beta1,) * rep.degree


def test_beta1_by_line_rejects_bad_index_before_sweeping(braid):
    # only line 0 is deconed, so -1 would otherwise reach numpy and wrap
    with pytest.raises(BadIndexError, match="out of range"):
        beta1_by_line(braid, [3], [0, -1])


def test_beta1_by_line_with_no_lines(braid):
    # nothing to decone: empty lists, as the sweep gives
    assert beta1_by_line(braid, [3], []) == {3: []}
    assert aomoto.beta1_sweep(braid.lattice, [], [3]) == {3: []}


@pytest.fixture(scope="module")
def sources(members):
    """Every catalog member and the 50 seeded boxes, as projective arrangements."""
    return [arr for _, arr in members] + box_sources(50, seed=2024)


def test_sweep_matches_dense_definition_at_every_line(sources):
    for arr in sources:
        by_line = beta1_by_line(arr, [2, 3, 5], range(len(arr.lines)))
        for h in range(len(arr.lines)):
            aff = decone(arr, h)
            for p in (2, 3, 5):
                alg = OSAlgebra(aff, p)
                assert by_line[p][h] == beta1_full(alg, alg.ones()), (arr, h, p)


def test_sweep_follows_the_listed_order(sources):
    # lines listed backwards, then line 0 again: each result is the forward
    # sweep's at that line, in the listed order; a repeated prime is one key
    for arr in sources:
        listed = list(reversed(range(len(arr.lines)))) + [0]
        forward = aomoto.beta1_sweep(arr.lattice, range(len(arr.lines)), [2, 3, 5])
        swept = aomoto.beta1_sweep(arr.lattice, listed, [3, 3, 2, 5])
        assert list(swept) == [3, 2, 5]
        for p in (2, 3, 5):
            assert swept[p] == [forward[p][h] for h in listed], (arr, p)


def _assert_one_bound(arr, h):
    """For every prime p <= 13 dividing the degree, the bound ``report``
    reads at line 0 equals the sweep at every line, and the dense
    definition and the quotient oracle at line h."""
    m = len(arr.lines)
    primes = [p for p in (2, 3, 5, 7, 11, 13) if m % p == 0]
    rep = report(arr)
    by_line = beta1_by_line(arr, primes, range(m))
    aff = decone(arr, h)
    for p in primes:
        alg = OSAlgebra(aff, p)
        values = {rep.prime_record(p).beta1, beta1_full(alg, alg.ones()).value,
                  QuotientOSOracle(aff, p).beta1([1] * aff.n)}
        values.update(res.value for res in by_line[p])
        assert len(values) == 1, (arr, h, p, values)


def test_report_bound_is_every_deconings_bound(sources):
    # the catalog (braid-a3, Pappus, pencils) and the seeded boxes give
    # nonzero bounds as well as zero ones
    for i, arr in enumerate(sources):
        _assert_one_bound(arr, i % len(arr.lines))


_BOX = sorted({parse_line(t) for t in product(range(-3, 4), repeat=3) if any(t)})


@st.composite
def forced_boxes(draw):
    """6..14 distinct lines with coefficients in [-3, 3]: z = 0, a pencil
    through a drawn affine point, lines sharing a drawn direction (parallel
    once z goes to infinity), and free lines."""
    x0, y0 = draw(st.integers(-1, 1)), draw(st.integers(-1, 1))
    through = [c for c in _BOX if c[0] * x0 + c[1] * y0 + c[2] == 0]
    a, b = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1)]))
    parallel = [parse_line((a, b, c)) for c in range(-3, 4)]
    lines = {(0, 0, 1)}
    lines.update(draw(st.lists(st.sampled_from(through), min_size=3, max_size=5, unique=True)))
    lines.update(draw(st.lists(st.sampled_from(parallel), min_size=2, max_size=4,
                          unique=True)))
    lines.update(draw(st.lists(st.sampled_from(_BOX), max_size=9)))
    lines = sorted(lines)
    assume(6 <= len(lines) <= 14)
    return ProjArrangement.from_coeffs(draw(st.permutations(lines)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_report_bound_is_every_deconings_bound_on_forced_boxes(data):
    arr = data.draw(forced_boxes())
    _assert_one_bound(arr, data.draw(st.integers(0, len(arr.lines) - 1)))


def test_report_leaves_numpy_ma_unimported():
    # numpy.ma, pulled in lazily by np.unique, costs about 2 MB of peak RSS
    code = ("import sys; from arrcohom import catalog, report; "
            "report(catalog.braid_a3()); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_thm13_verdict_implies_zero_bound(members):
    for _, arr in members:
        rep = report(arr)
        for rec in rep.orders:
            if rec.verdict == VANISHES_BY_THM13:
                assert rec.bound == 0
                p = rec.prime_power[0]
                assert rep.prime_record(p).beta1 == 0


def test_json_dict_schema(braid):
    payload = report(braid).to_json_dict()
    assert sorted(payload) == ["degree", "essential", "mu_table", "orders", "primes"]
    assert payload["degree"] == 6
    assert payload["mu_table"]["ks"] == [2, 3, 6]
    assert payload["primes"][1]["beta1"] == 1
    assert payload["orders"][0]["prime_power"] == [2, 1]
    # integers and booleans only, canonical dumps round-trip
    text = json.dumps(payload, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text

    def walk(value):
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        else:
            assert value is None or isinstance(value, (bool, int, str))
            assert not isinstance(value, float)

    walk(payload)
