"""Command line front end.

Subcommands: ``lattice`` (intersection points and divisible-point table),
``beta1`` (modular first cohomology rank of one deconing, or of every
deconing with ``--all-deconings``, read off the lattice's incidences one
line at a time, the dense definition checking the first line; when p divides
the degree, the only check that all deconings agree; with ``--json`` stdout
is one JSON document), ``degenerate`` (the deconing's total and
directional degeneration matrices and the result of verifying them
together as one family), ``report`` (full vanishing report; each prime
divides the degree, so its bound is read at line 0 alone). Arrangements
come from a file (UTF-8, one line per projective line, three ASCII
integers, ``#`` comments) or from ``--builtin`` (``--m`` sizes the
parametric ones).

Exit codes: 0 success, 1 an internal consistency check failed (a bug,
reported with a traceback: e.g. deconings that disagree although p divides
the degree), 2 unreadable or unparseable input or bad usage, 3 invalid
arrangement (zero or duplicate lines, fewer than three), 4 modulus not
prime, 141 stdout closed early by its reader (128 + SIGPIPE, quietly).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import catalog
from .degeneration import degenerations
from .geometry import (
    BadIndexError,
    DuplicateLineError,
    ProjArrangement,
    TooFewLinesError,
    ZeroLineError,
    _show,
    decone,
    is_essential,
)
from .modp import NotPrimeError
from .report import beta1_by_line, mu_table, report

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_NOT_PRIME = 4


class ParseError(ValueError):
    """Arrangement file is not three integers per line."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# matrix entries formatted at a time, so that no temporary grows with the matrix
_FORMAT_ENTRIES = 1 << 16


def _format_rows(a: np.ndarray, sep: str) -> list[str]:
    """Each row of the nonnegative int64 matrix ``a`` as "[a0{sep}a1...]", the
    bytes json.dumps writes for it with sep ", ". Rows are laid out in one
    byte buffer, one byte per entry: its digit, or a marker for an entry of
    two or more digits, which is then written in by splitting at the markers."""
    rows, cols = a.shape
    if not cols:
        return ["[]"] * rows
    step = 1 + len(sep)
    buf = np.empty((rows, (cols - 1) * step + 4), dtype=np.uint8)  # "[" ... "]\n"
    buf[:, 0] = ord("[")
    for k, byte in enumerate(sep.encode(), start=2):
        buf[:, k:-2:step] = byte
    buf[:, -2:] = np.frombuffer(b"]\n", dtype=np.uint8)
    wide = a >= 10
    buf[:, 1:-2:step] = np.where(wide, 1, a + ord("0"))
    text = buf.tobytes().decode("ascii")
    if wide.any():
        parts = text.split("\x01")
        text = "".join(chain.from_iterable(zip(parts, map(str, a[wide].tolist())))) + parts[-1]
    return text.split("\n")[:-1]


def _row_strings(blocks, sep: str):
    """The rows of int64 ``blocks`` with one column count, in order, formatted
    by ``_format_rows``; consecutive blocks are stacked and formatted about
    ``_FORMAT_ENTRIES`` entries at a time."""
    cols = blocks[0].shape[1] if blocks else 0
    step = max(1, _FORMAT_ENTRIES // max(1, cols))  # rows per chunk
    part, have = [], 0
    for block in blocks:
        for start in range(0, len(block), step):
            part.append(block[start:start + step])
            have += len(part[-1])
            if have >= step:
                yield from _format_rows(np.vstack(part), sep)
                part, have = [], 0
    if part:
        yield from _format_rows(np.vstack(part), sep)


# an input token: ASCII digits only, so no "1_0" and no non-ASCII digit
_INTEGER = re.compile(r"[+-]?[0-9]+")


def read_arrangement_file(path: str) -> ProjArrangement:
    try:  # utf-8-sig: a leading byte-order mark is skipped
        content = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    triples = []
    # read_text turns \r\n and \r into \n; splitlines would also split at \f
    for lineno, raw in enumerate(content.split("\n"), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        try:
            if len(parts) != 3 or not all(_INTEGER.fullmatch(t) for t in parts):
                raise ValueError
            triples.append(tuple(int(t) for t in parts))
        except ValueError:  # also an integer past int's digit limit
            raise ParseError(f"{path}:{lineno}: expected three integers, got {raw!r}") from None
    if not triples:
        raise ParseError(f"{path}: no lines found")
    return ProjArrangement.from_coeffs(triples)


def resolve_arrangement(args) -> ProjArrangement:
    if args.builtin is not None and args.file is not None:
        raise ParseError("give either a file or --builtin, not both")
    if args.builtin is not None:
        return catalog.build_named(args.builtin, args.m)
    if args.m is not None:
        raise ParseError("--m needs --builtin")
    if args.file is not None:
        return read_arrangement_file(args.file)
    raise ParseError("no input: give a file or --builtin NAME")


@contextlib.contextmanager
def _long_ints():
    """No limit on int-to-str digits in the block, the old one restored
    after (Pythons before 3.10.7 have none): a point's coordinates are 2 x 2
    minors of the coefficients, up to 2d + 1 digits for d-digit tokens."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_lattice(args) -> int:
    arr = resolve_arrangement(args)
    lat, table = arr.lattice, mu_table(arr)
    # each point's coordinates and lines, read off the lattice's arrays
    flat, ends = lat.flat.tolist(), np.cumsum(lat.mult).tolist()
    points = zip(lat.points.tolist(), (flat[a:b] for a, b in zip([0] + ends, ends)))
    with _long_ints():
        if args.json:
            print(canonical_json({
                "degree": len(arr.lines),
                "essential": is_essential(arr),
                "points": [{"point": pt, "lines": inc} for pt, inc in points],
                "histogram": {str(k): v for k, v in sorted(lat.histogram().items())},
                "mu_table": {"ks": list(table.ks), "rows": [list(r) for r in table.rows]},
            }))
            return EXIT_OK
        print(f"{len(arr.lines)} lines, {len(lat)} intersection points")
        for (x, y, z), inc in points:
            print(f"  ({x}:{y}:{z})  multiplicity {len(inc)}  lines {inc}")
    print(f"multiplicity histogram: {dict(sorted(lat.histogram().items()))}")
    print(f"essential: {is_essential(arr)}")
    print(f"divisible-point counts, k in {list(table.ks)}:")
    for i, row in enumerate(table.rows):
        print(f"  line {i} {_show(arr.lines[i])}: {list(row)}")
    return EXIT_OK


def cmd_beta1(args) -> int:
    arr = resolve_arrangement(args)
    p = args.prime
    degree = len(arr.lines)
    if args.all_deconings:
        choices = list(range(degree))
    else:
        choices = [args.infinity if args.infinity is not None else 0]
    results = list(zip(choices, beta1_by_line(arr, [p], choices)[p]))
    must_agree = args.all_deconings and degree % p == 0
    if must_agree and len({res.value for _, res in results}) > 1:
        raise RuntimeError(f"modular bound depends on the deconing for p={p}; this is a bug")
    if args.json:
        payload = {
            "degree": degree,
            "p": p,
            "results": [
                {"infinity": idx, "beta1": res.value, "method": res.method,
                 "certificate": res.certificate}
                for idx, res in results
            ],
        }
        print(canonical_json(payload))
        return EXIT_OK
    for idx, res in results:
        print(
            f"p = {p}, infinity = {idx}: beta1 = {res.value} "
            f"[{res.method}] {res.certificate}"
        )
    if must_agree:
        print(f"all {degree} deconings agree: beta1 = {results[0][1].value}")
    return EXIT_OK


def cmd_degenerate(args) -> int:
    arr = resolve_arrangement(args)
    infinity = args.infinity if args.infinity is not None else 0
    aff = decone(arr, infinity)
    maps = degenerations(aff, args.prime)
    names = ("deg1_matrix", "deg2_matrix")
    sep = ", " if args.json else " "
    # each kind of matrix stacked over the maps, and its rows formatted in order
    rows = {name: _row_strings([getattr(d, name).data for d in maps], sep) for name in names}

    def take(dmap, name) -> list[str]:
        return list(islice(rows[name], len(getattr(dmap, name).data)))

    out = sys.stdout
    if args.json:
        # canonical_json of the payload with a hole for every matrix, each
        # hole then filled in order: map by map, deg1 before deg2
        hole = "\0"
        payload = {
            "p": args.prime,
            "infinity": infinity,
            "classes": [list(c) for c in aff.classes],
            "maps": [{"kind": d.kind, "class": d.class_index, "deg1": hole, "deg2": hole,
                      "verified": d.verified} for d in maps],
        }
        pieces = canonical_json(payload).split(json.dumps(hole))
        out.write(pieces[0])
        for (dmap, name), piece in zip(((d, name) for d in maps for name in names), pieces[1:]):
            out.write("[" + ", ".join(take(dmap, name)) + "]" + piece)
        out.write("\n")
        return EXIT_OK
    print(f"infinity = {infinity}, parallel classes (generator positions): "
          + " ".join(str(list(c)) for c in aff.classes))
    if not maps:
        print("no degenerations available (single parallel class)")
    for dmap in maps:
        tag = "total" if dmap.kind == "total" else f"directional, class {dmap.class_index}"
        print(f"{tag}: target has {dmap.target.n} lines, "
              f"degree 2 rank {dmap.target.dim2}")
        for name in names:
            print(f" {name[:4]} matrix:")
            out.write("".join(f"   {row}\n" for row in take(dmap, name)))
        print(f" verified: {dmap.verified}")
    return EXIT_OK


def cmd_report(args) -> int:
    arr = resolve_arrangement(args)
    rep = report(arr)
    if args.json:
        print(canonical_json(rep.to_json_dict()))
        return EXIT_OK
    print(f"degree: {rep.degree} lines, essential: {rep.essential}")
    print(f"trivial eigenspace dimension: {rep.trivial_eigenspace_dim}")
    for rec in rep.primes:
        print(
            f"p = {rec.p}: min divisible-point count {rec.min_mu} "
            f"(line {rec.witness_line}), beta1 = {rec.beta1}, "
            f"small-mu vanishing applicable: {rec.theorem16_applicable}"
        )
    for rec in rep.orders:
        pp = f"{rec.prime_power[0]}^{rec.prime_power[1]}" if rec.prime_power else "-"
        bound = "?" if rec.bound is None else rec.bound
        print(f"order {rec.k} (prime power: {pp}): {rec.verdict}, bound {bound}")
    return EXIT_OK


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrcohom",
        description="Exact invariants of complex projective line arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p_sub, prime=False):
        p_sub.add_argument("file", nargs="?", help="arrangement file (3 ints per line)")
        p_sub.add_argument("--builtin", help="catalog arrangement name")
        p_sub.add_argument("--m", type=int, help="size parameter for parametric builtins")
        p_sub.add_argument("--json", action="store_true", help="canonical JSON output")
        if prime:
            p_sub.add_argument("--prime", type=int, required=True, help="field characteristic")

    p_lat = sub.add_parser("lattice", help="intersection points and multiplicities")
    add_common(p_lat)
    p_lat.set_defaults(func=cmd_lattice)

    p_b1 = sub.add_parser("beta1", help="modular bound for one prime")
    add_common(p_b1, prime=True)
    choice = p_b1.add_mutually_exclusive_group()
    choice.add_argument("--infinity", type=int, help="line sent to infinity (default 0)")
    choice.add_argument("--all-deconings", action="store_true",
                        help="compute every choice of infinity line")
    p_b1.set_defaults(func=cmd_beta1)

    p_deg = sub.add_parser("degenerate", help="degeneration matrices and checks")
    add_common(p_deg, prime=True)
    p_deg.add_argument("--infinity", type=int, help="line sent to infinity (default 0)")
    p_deg.set_defaults(func=cmd_degenerate)

    p_rep = sub.add_parser("report", help="eigenspace vanishing report")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send the rest, and the flush at exit, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports a process killed by it
    except (ParseError, catalog.BadParameterError, BadIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ZeroLineError, DuplicateLineError, TooFewLinesError) as exc:
        print(f"invalid arrangement: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotPrimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_PRIME


if __name__ == "__main__":
    sys.exit(main())
