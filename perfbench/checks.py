"""Output checks, run outside the timed region.

Each check recomputes the answer along a second path the library already
has and compares it with what the CLI printed. Ops that printed the same
output for the same input are checked once; every op whose output failed
counts as failed.
"""

from __future__ import annotations

import json

from arrcohom.aomoto import beta1_restricted
from arrcohom.geometry import ProjArrangement, decone
from arrcohom.orlik_solomon import OSAlgebra, QuotientOSOracle


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _restricted(arr, infinity, p):
    alg = OSAlgebra(decone(arr, infinity), p)
    return beta1_restricted(alg, alg.ones()).value


def check_report(inp, out):
    arr = ProjArrangement.from_coeffs(inp.lines)
    if out["degree"] != len(arr):
        return f"degree {out['degree']}, expected {len(arr)}"
    primes = [rec["p"] for rec in out["primes"]]
    if primes != _prime_divisors(len(arr)):
        return f"primes {primes}, expected {_prime_divisors(len(arr))}"
    for rec in out["primes"]:
        ref = _restricted(arr, rec["witness_line"], rec["p"])
        if rec["beta1"] != ref:
            return f"p={rec['p']}: beta1 {rec['beta1']}, restricted shortcut {ref}"
    return None


def check_beta1(inp, out):
    arr = ProjArrangement.from_coeffs(inp.lines)
    (res,) = out["results"]
    if (out["p"], res["infinity"]) != (inp.prime, inp.infinity):
        return f"answered p={out['p']}, infinity={res['infinity']}"
    ref = _restricted(arr, inp.infinity, inp.prime)
    if res["beta1"] != ref:
        return f"beta1 {res['beta1']}, restricted shortcut {ref}"
    return None


def check_degenerate(inp, out):
    arr = ProjArrangement.from_coeffs(inp.lines)
    aff = decone(arr, inp.infinity)
    # a total map, plus one directional map per class (each has a transversal)
    if len(out["maps"]) != aff.num_classes + 1:
        return f"{len(out['maps'])} maps, expected {aff.num_classes + 1}"
    oracle_dim2 = QuotientOSOracle(aff, inp.prime).dim2
    for k, dmap in enumerate(out["maps"]):
        if dmap["verified"] is not True:
            return f"map {k} ({dmap['kind']}) not verified"
        source_dim2 = len(dmap["deg2"][0])
        if source_dim2 != oracle_dim2:
            return f"map {k}: source dim2 {source_dim2}, quotient oracle {oracle_dim2}"
    return None


CHECKS = {"report": check_report, "beta1": check_beta1, "degenerate": check_degenerate}


def check(inp, rc, stdout):
    """None when an op's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[inp.command](inp, json.loads(stdout))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
