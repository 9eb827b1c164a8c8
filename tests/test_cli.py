import contextlib
import hashlib
import importlib
import io
import inspect
import json
import os
import random
import subprocess
import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcohom import cli
from arrcohom.aomoto import Beta1Result
from arrcohom.catalog import BUILTINS, BadParameterError, build_named
from arrcohom.cli import canonical_json, main
from arrcohom.degeneration import delta_dir, delta_tot, verify_homomorphism
from arrcohom.geometry import IntersectionLattice, decone, intersect
from conftest import box_sources
from test_geometry import _huge_arrangement

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_braid(capsys):
    code, out, _ = run(capsys, "lattice", "--builtin", "braid-a3")
    assert code == 0
    assert "7 intersection points" in out
    assert "{2: 3, 3: 4}" in out
    assert "essential: True" in out


BRAID_LATTICE_TEXT = """\
6 lines, 7 intersection points
  (0:0:1)  multiplicity 3  lines [0, 1, 3]
  (0:1:0)  multiplicity 3  lines [0, 2, 4]
  (0:1:1)  multiplicity 2  lines [0, 5]
  (1:0:0)  multiplicity 3  lines [1, 2, 5]
  (1:0:1)  multiplicity 2  lines [1, 4]
  (1:1:0)  multiplicity 2  lines [2, 3]
  (1:1:1)  multiplicity 3  lines [3, 4, 5]
multiplicity histogram: {2: 3, 3: 4}
essential: True
divisible-point counts, k in [2, 3, 6]:
  line 0 [1 0 0]: [1, 2, 0]
  line 1 [0 1 0]: [1, 2, 0]
  line 2 [0 0 1]: [1, 2, 0]
  line 3 [1 -1 0]: [1, 2, 0]
  line 4 [1 0 -1]: [1, 2, 0]
  line 5 [0 1 -1]: [1, 2, 0]
"""


BRAID_LATTICE_JSON = (
    '{"degree": 6, "essential": true, "histogram": {"2": 3, "3": 4}, '
    '"mu_table": {"ks": [2, 3, 6], "rows": [[1, 2, 0], [1, 2, 0], [1, 2, 0], '
    '[1, 2, 0], [1, 2, 0], [1, 2, 0]]}, "points": ['
    '{"lines": [0, 1, 3], "point": [0, 0, 1]}, {"lines": [0, 2, 4], "point": [0, 1, 0]}, '
    '{"lines": [0, 5], "point": [0, 1, 1]}, {"lines": [1, 2, 5], "point": [1, 0, 0]}, '
    '{"lines": [1, 4], "point": [1, 0, 1]}, {"lines": [2, 3], "point": [1, 1, 0]}, '
    '{"lines": [3, 4, 5], "point": [1, 1, 1]}]}\n'
)


def test_lattice_output_is_pinned(capsys):
    # point coordinates, their order and both layouts, byte for byte
    assert run(capsys, "lattice", "--builtin", "braid-a3") == (0, BRAID_LATTICE_TEXT, "")
    assert run(capsys, "lattice", "--builtin", "braid-a3", "--json") == (0, BRAID_LATTICE_JSON, "")


# `lattice` on the lines of _huge_arrangement(3), coordinates near 2**75 and
# mixed signs: the SHA-256 of both layouts and the first point line, pinned
# byte for byte
HUGE_LATTICE_SHA256 = {
    "text": "b3009fe3be5d68abc69a06e8752460cadf1c78b2d0332565d5a5a8950bbedfc6",
    "json": "f23a74c196d7e6dbb77a7d33a9db78e0c6c5fb63059eafe7fd7e71a0debea04f",
}
HUGE_FIRST_POINT = ("  (73085919681429254841383:-60428516831734940910517:-66855278728940822121541)"
                    "  multiplicity 3  lines [0, 1, 5]")


def test_lattice_output_is_pinned_on_huge_coordinates(capsys, tmp_path):
    arr = _huge_arrangement(3)
    path = tmp_path / "huge.arr"
    path.write_text("".join("{} {} {}\n".format(*line) for line in arr.lines))
    code, text, err = run(capsys, "lattice", str(path))
    assert (code, err) == (0, "")
    assert hashlib.sha256(text.encode()).hexdigest() == HUGE_LATTICE_SHA256["text"]
    code, out, err = run(capsys, "lattice", str(path), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HUGE_LATTICE_SHA256["json"]
    # each point, in both layouts, is the canonical meet of its first two lines
    shown = text.splitlines()[1:]
    assert shown[0] == HUGE_FIRST_POINT
    points = json.loads(out)["points"]
    assert max(abs(t) for item in points for t in item["point"]) > 2**70
    for item, row in zip(points, shown):
        i, j = item["lines"][:2]
        pt = intersect(arr.lines[i], arr.lines[j])
        assert item["point"] == list(pt)
        assert row.startswith("  ({}:{}:{})  ".format(*pt))


# `degenerate` output, byte for byte: the SHA-256 of its stdout on catalog
# members and on the first of box_sources(60, seed=1) with at least 8
# parallel classes, in both layouts and at small primes
DEGENERATE_SHA256 = {
    ("--builtin", "fig3", "--prime", "3"):
        "6ee900b25a0d97d6d1059e9db8e60a1a4dab59e92f02d780b7fcfb203cf687c7",
    ("--builtin", "b3", "--prime", "2", "--json"):
        "611a4196f9a1230eabb6398ed5cf89ebf8f56d384e931b9c0aa889d3599d9662",
    ("--builtin", "generic", "--m", "60", "--prime", "3", "--json"):
        "dd476cfe58730e4c5f725fafae3f5ec1d50373b1d999034dedb0a6c27ddfb0be",
    ("box", "--prime", "5", "--json"):
        "af4001dd4c1b17a4b0cc56f7c692c59faa39b40a1445bef21a9cdaf71b29d5f8",
    # residues of ten digits
    ("--builtin", "fig3", "--prime", "2147483647", "--json"):
        "ff768bf52c1a932468e05ebacc944c098a141b5063cb958b4a0fca095f3dbdd5",
    # a single class: "maps": []
    ("--builtin", "pencil", "--m", "4", "--prime", "3", "--json"):
        "18d0b7ae3efe17d86ad56e3bd621653e3f1ae88d00eab4738b7a1175fb114823",
}


@pytest.mark.parametrize("argv", list(DEGENERATE_SHA256))
def test_degenerate_output_is_pinned(capsys, tmp_path, argv):
    want = DEGENERATE_SHA256[argv]
    if argv[0] == "box":
        arr = next(a for a in box_sources(60, seed=1) if decone(a, 0).num_classes >= 8)
        path = tmp_path / "box.arr"
        path.write_text("".join("{} {} {}\n".format(*line) for line in arr.lines))
        argv = (str(path),) + argv[1:]
    code, out, err = run(capsys, "degenerate", *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_lattice_pencil(capsys):
    code, out, _ = run(capsys, "lattice", "--builtin", "pencil", "--m", "4")
    assert code == 0
    assert "1 intersection points" in out
    assert "multiplicity 4" in out


def test_lattice_from_file(capsys, tmp_path):
    path = tmp_path / "triangle.arr"
    path.write_text("# a triangle\n1 0 0\n0 1 0   # second axis\n0 0 1\n")
    code, out, _ = run(capsys, "lattice", str(path))
    assert code == 0
    assert "3 intersection points" in out


def test_beta1_braid(capsys):
    code, out, _ = run(capsys, "beta1", "--builtin", "braid-a3", "--prime", "3")
    assert code == 0
    assert "beta1 = 1" in out
    code, out, _ = run(capsys, "beta1", "--builtin", "braid-a3", "--prime", "2")
    assert code == 0
    assert "beta1 = 0" in out


def test_beta1_all_deconings(capsys):
    code, out, _ = run(capsys, "beta1", "--builtin", "braid-a3", "--prime", "3",
                       "--all-deconings")
    assert code == 0
    assert out.count("beta1 = 1 [full]") == 6
    assert "all 6 deconings agree: beta1 = 1" in out


def test_beta1_all_deconings_disagreement_exits_1(capsys, monkeypatch):
    # the module, not the function arrcohom.report that the package re-exports
    report_module = importlib.import_module("arrcohom.report")
    honest = report_module.beta1_sweep

    def skewed(points, lines, primes):
        # shifted by the line index, so the dense check at line 0 still agrees
        return {p: [Beta1Result(res.value + h, res.method, res.certificate)
                    for h, res in zip(lines, results)]
                for p, results in honest(points, lines, primes).items()}

    monkeypatch.setattr(report_module, "beta1_sweep", skewed)
    # uncaught by main, so the console script exits 1 with a traceback
    with pytest.raises(RuntimeError, match="depends on the deconing for p=3"):
        main(["beta1", "--builtin", "braid-a3", "--prime", "3", "--all-deconings"])


def test_beta1_all_deconings_json_disagreement_raises(capsys, monkeypatch):
    # the check runs before the output modes split, so no document is printed
    report_module = importlib.import_module("arrcohom.report")
    honest = report_module.beta1_sweep
    monkeypatch.setattr(report_module, "beta1_sweep", lambda points, lines, primes: {
        p: [Beta1Result(res.value + h, res.method, res.certificate)
            for h, res in zip(lines, results)]
        for p, results in honest(points, lines, primes).items()})
    with pytest.raises(RuntimeError, match="modular bound depends on the deconing for p=3; "
                                           "this is a bug"):
        main(["beta1", "--builtin", "braid-a3", "--prime", "3", "--all-deconings", "--json"])
    assert capsys.readouterr().out == ""


def test_beta1_all_deconings_json_is_one_document(capsys):
    code, out, _ = run(capsys, "beta1", "--builtin", "braid-a3", "--prime", "3",
                       "--all-deconings", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [res["beta1"] for res in payload["results"]] == [1] * 6


def test_beta1_all_deconings_may_differ_when_p_does_not_divide_degree(capsys):
    # 3 does not divide the 4 lines of the near-pencil: deconing invariance
    # does not apply, so differing values are printed and nothing is checked
    code, out, _ = run(capsys, "beta1", "--builtin", "near-pencil", "--m", "4",
                       "--prime", "3", "--all-deconings")
    assert code == 0
    assert [line.split("beta1 = ")[1][0] for line in out.splitlines()] == list("0001")
    assert "agree" not in out


def test_beta1_dense_disagreement_raises(monkeypatch):
    # the dense definition checks the incidence kernel at the first line
    report_module = importlib.import_module("arrcohom.report")
    honest = report_module.beta1_full

    def off_by_one(alg, xi):
        res = honest(alg, xi)
        return Beta1Result(res.value + 1, res.method, res.certificate)

    monkeypatch.setattr(report_module, "beta1_full", off_by_one)
    with pytest.raises(RuntimeError, match="disagree for p=3 at infinity line 0; this is a bug"):
        main(["beta1", "--builtin", "braid-a3", "--prime", "3"])


def test_beta1_pencil_degenerate_input(capsys):
    code, out, _ = run(capsys, "beta1", "--builtin", "pencil", "--m", "6",
                       "--prime", "3", "--infinity", "0")
    assert code == 0
    assert "beta1 = 4" in out


def test_degenerate_fig3(capsys):
    code, out, _ = run(capsys, "degenerate", "--builtin", "fig3", "--prime", "3")
    assert code == 0
    assert out.count("verified: True") == 4  # total plus three directional
    assert "total" in out


def test_degenerate_single_class_text(capsys):
    # a pencil deconed at one of its lines has one parallel class: no maps
    code, out, err = run(capsys, "degenerate", "--builtin", "pencil", "--m", "3",
                         "--prime", "3")
    assert (code, err) == (0, "")
    assert out == ("infinity = 0, parallel classes (generator positions): [0, 1]\n"
                   "no degenerations available (single parallel class)\n")


def test_degenerate_json(capsys):
    code, out, _ = run(capsys, "degenerate", "--builtin", "fig3", "--prime", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == [[0, 1], [2], [3, 4]]
    assert all(entry["verified"] for entry in payload["maps"])


def test_degenerate_verifies_every_map_at_a_large_point(capsys):
    # 40 lines through one point after deconing: 9,880 concurrent triples
    code, out, _ = run(capsys, "degenerate", "--builtin", "near-pencil", "--m", "41",
                       "--prime", "5", "--infinity", "40", "--json")
    assert code == 0
    maps = json.loads(out)["maps"]
    assert len(maps) == 41
    assert all(entry["verified"] for entry in maps)


@pytest.mark.parametrize("argv", [
    ("--builtin", "fig3", "--prime", "2"),
    ("--builtin", "braid-a3", "--prime", "3", "--infinity", "2"),
    ("--builtin", "near-pencil", "--m", "41", "--prime", "5", "--infinity", "40"),
])
def test_degenerate_json_matches_maps_built_and_verified_alone(capsys, argv):
    # the family verified in one pass prints exactly what building and
    # verifying each map on its own gives
    code, out, _ = run(capsys, "degenerate", *argv, "--json")
    assert code == 0
    args = dict(zip(argv[::2], argv[1::2]))
    arr = build_named(args["--builtin"], int(args["--m"]) if "--m" in args else None)
    p, infinity = int(args["--prime"]), int(args.get("--infinity", 0))
    aff = decone(arr, infinity)
    alone = [delta_tot(aff, p)] + [delta_dir(aff, a, p) for a in range(aff.num_classes)]
    expected = {
        "p": p,
        "infinity": infinity,
        "classes": [list(c) for c in aff.classes],
        "maps": [{"kind": d.kind, "class": d.class_index, "deg1": d.deg1_matrix.tolist(),
                  "deg2": d.deg2_matrix.tolist(), "verified": verify_homomorphism(d)}
                 for d in alone],
    }
    assert out == canonical_json(expected) + "\n"


@pytest.mark.parametrize("entries", [1, 10, cli._FORMAT_ENTRIES])
@pytest.mark.parametrize("p", [2, 3, 11, 101, 2**31 - 1])
def test_row_writer_matches_json_dumps(monkeypatch, entries, p):
    # rows of blocks that chunks stack together and cut apart, with entries
    # of one digit, of two and more, and the largest residue
    monkeypatch.setattr(cli, "_FORMAT_ENTRIES", entries)
    rng = np.random.default_rng(p)
    edge = np.array([0, 1, 9, 10, 99, 100, p - 1]) % p
    blocks = [np.where(rng.random((rows, 7)) < 0.3, rng.choice(edge, size=(rows, 7)), 0)
              for rows in (3, 0, 1, 12, 2)]
    blocks[0][0] = edge
    lists = [row for block in blocks for row in block.tolist()]
    assert list(cli._row_strings(blocks, ", ")) == [json.dumps(row) for row in lists]
    assert list(cli._row_strings(blocks, " ")) == [
        "[" + " ".join(map(str, row)) + "]" for row in lists]
    assert list(cli._row_strings([np.zeros((2, 0), dtype=np.int64)], ", ")) == ["[]", "[]"]
    assert list(cli._row_strings([], ", ")) == []


@pytest.mark.parametrize("argv", [
    ["lattice", "--builtin", "pappus"],
    ["report", "--builtin", "pappus", "--json"],
    ["beta1", "--builtin", "pappus", "--prime", "3", "--all-deconings"],
])
def test_incidence_arrays_built_once(capsys, monkeypatch, argv):
    # mu_table and the sweep read the lattice's one cached array form
    honest, builds = IntersectionLattice.arrays.func, []

    def counted(lat):
        builds.append(lat)
        return honest(lat)

    arrays = cached_property(counted)
    arrays.__set_name__(IntersectionLattice, "arrays")
    monkeypatch.setattr(IntersectionLattice, "arrays", arrays)
    assert main(argv) == 0
    assert len(builds) == 1


def test_report_json_round_trip(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "braid-a3", "--json")
    assert code == 0
    text = out.strip()
    payload = json.loads(text)
    assert json.dumps(payload, sort_keys=True) == text
    assert sorted(payload) == ["degree", "essential", "mu_table", "orders", "primes"]
    by_p = {rec["p"]: rec for rec in payload["primes"]}
    assert by_p[3]["beta1"] == 1
    assert by_p[2]["beta1"] == 0


def test_report_text(capsys):
    code, out, _ = run(capsys, "report", "--builtin", "fig3")
    assert code == 0
    assert "essential: True" in out
    assert "VANISHES_BY_THM13" in out


def test_sweep_covers_every_fixed_builtin(members):
    names = {name for name, _ in members}
    assert {name for name, gen in BUILTINS.items()
            if not inspect.signature(gen).parameters} <= names


def test_builtins_that_take_m():
    # read off each generator's signature: exactly these need --m
    needs_m = set()
    for name in BUILTINS:
        try:
            build_named(name)
        except BadParameterError as exc:
            assert str(exc) == f"builtin {name!r} needs --m"
            needs_m.add(name)
    assert needs_m == {"pencil", "near-pencil", "generic", "fermat"}
    for name in set(BUILTINS) - needs_m:
        with pytest.raises(BadParameterError, match="takes no --m"):
            build_named(name, 3)


def test_report_never_crashes_on_catalog(capsys, members):
    for name, _ in members:
        base = name.rsplit("-", 1)
        if name in BUILTINS:
            args = ["report", "--builtin", name]
        else:
            args = ["report", "--builtin", base[0], "--m", base[1]]
        code, _, _ = run(capsys, *args)
        assert code == 0, name


def test_exit_zero_line(capsys, tmp_path):
    path = tmp_path / "zero.arr"
    path.write_text("1 0 0\n0 1 0\n0 0 0\n")
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 3
    assert "invalid arrangement" in err


def test_exit_duplicate_lines(capsys, tmp_path):
    path = tmp_path / "dup.arr"
    path.write_text("1 0 0\n2 0 0\n0 1 0\n")
    code, out, err = run(capsys, "lattice", str(path))
    assert (code, out) == (3, "")
    assert err == "invalid arrangement: lines 0 and 1 coincide after canonicalization: [1 0 0]\n"


def test_exit_parse_error(capsys, tmp_path):
    path = tmp_path / "tokens.arr"
    path.write_text("1 0 zebra\n")
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 2
    path2 = tmp_path / "short.arr"
    path2.write_text("1 0\n")
    assert run(capsys, "lattice", str(path2))[0] == 2
    path3 = tmp_path / "comments.arr"
    path3.write_text("# only a comment\n\n   \n# and another  \n")
    assert run(capsys, "lattice", str(path3)) == (2, "", f"error: {path3}: no lines found\n")


def test_exit_file_and_builtin(capsys, tmp_path):
    path = tmp_path / "triangle.arr"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "lattice", str(path), "--builtin", "b3")
    assert (code, out) == (2, "")
    assert err == "error: give either a file or --builtin, not both\n"


@pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "1.0", "0x1", "+-1"],
                         ids=["underscore", "arabic-indic", "fullwidth", "float", "hex", "signs"])
def test_exit_token_not_an_ascii_integer(capsys, tmp_path, token):
    # int() reads "1_0" as 10 and the Arabic-Indic and fullwidth digits as
    # 1; a token is ASCII [+-]?[0-9]+ and nothing else
    path = tmp_path / "token.arr"
    path.write_text(f"{token} 0 1\n0 1 0\n0 0 1\n1 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, "lattice", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}:1: expected three integers, got {f'{token} 0 1'!r}\n"


def test_leading_byte_order_mark_is_skipped(capsys, tmp_path):
    body = "1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
    plain, marked = tmp_path / "plain.arr", tmp_path / "bom.arr"
    plain.write_text(body, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + body.encode())
    expected = run(capsys, "lattice", str(plain))
    assert expected[0] == 0
    assert run(capsys, "lattice", str(marked)) == expected
    # only a leading mark: one inside the file is a bad token
    marked.write_bytes(body.encode() + b"\xef\xbb\xbf1 2 3\n")
    assert run(capsys, "lattice", str(marked))[0] == 2


def _digits(count, seed):
    # a decimal string of ``count`` digits with no leading zero, built without
    # int-to-str conversion, which the interpreter limits to 4,300 digits
    rng = random.Random(seed)
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=count - 1))


def test_lattice_prints_coordinates_past_the_int_digit_limit(capsys, tmp_path):
    # every token of up to 4,300 digits reads, and a point's coordinates are
    # 2 x 2 minors of them, so up to 8,001 digits long here: both layouts
    # print them, each the canonical meet of the point's first two lines,
    # and the interpreter's digit limit is the same after as before
    path = tmp_path / "long.arr"
    path.write_text("".join(" ".join(f"{'-' * (k % 2)}{_digits(4000, 3 * r + k)}"
                                     for k in range(3)) + "\n" for r in range(6)))
    limit = sys.get_int_max_str_digits()
    code, text, err = run(capsys, "lattice", str(path))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "lattice", str(path), "--json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    arr = cli.read_arrangement_file(str(path))
    with cli._long_ints():
        points = json.loads(out)["points"]
        shown = text.splitlines()[1:1 + len(points)]
        assert len(points) == 15 and max(len(str(abs(t))) for item in points
                                         for t in item["point"]) > 7900
        for item, row in zip(points, shown):
            pt = intersect(*(arr.lines[i] for i in item["lines"][:2]))
            assert item["point"] == list(pt)
            assert row.startswith("  ({}:{}:{})  ".format(*pt))


def test_exit_token_past_the_int_digit_limit(capsys, tmp_path):
    # a 5,000-digit token is past the interpreter's limit: unparseable, exit 2
    row = f"{_digits(5000, 1)} 0 1"
    path = tmp_path / "long.arr"
    path.write_text(f"{row}\n0 1 0\n0 0 1\n1 1 1\n")
    for command in (["lattice"], ["report"], ["beta1", "--prime", "3"]):
        assert run(capsys, *command, str(path)) == (
            2, "", f"error: {path}:1: expected three integers, got {row!r}\n")


# the token soup of the fuzz test: integers of 1 to 5,000 digits, on both
# sides of 2,150 (coordinates past the digit limit) and of 4,300 (tokens
# past it), and tokens that are no ASCII integer, NUL and a comment mark
_LENGTHS = st.one_of(st.integers(1, 2), st.sampled_from((2149, 2150, 2151, 4299, 4300, 4301)),
                     st.integers(1, 5000))
_SMALL = st.integers(-3, 3).map(str)
_INTEGERS = st.one_of(_SMALL, st.builds(lambda sign, count, seed: sign + _digits(count, seed),
                                        st.sampled_from(("", "-", "+")), _LENGTHS,
                                        st.integers(0, 99)))
_TOKENS = st.one_of(_INTEGERS, st.sampled_from(("1_0", "0x1", "1.0", "+-1", "\0", "\u0661", "x")))
# half the files hold rows of integers, comments and blank lines only, most
# of them small integers, so that a good share of the files are arrangements
_CLEAN = st.one_of(st.lists(_SMALL, min_size=3, max_size=3).map(" ".join),
                   st.lists(_INTEGERS, min_size=3, max_size=3).map(" ".join),
                   st.sampled_from(("", "   ", "# a comment")))
_ROW = st.one_of(_CLEAN, st.lists(_TOKENS, max_size=5).map(" ".join), st.just("\0"))
_FILES = st.one_of(*(st.lists(st.tuples(rows, st.sampled_from(("", "  # note"))).map("".join),
                              max_size=8) for rows in (_CLEAN, _ROW)))
_PRIMES = st.sampled_from(("2", "3", "5", "4", "9"))
_INFINITY = st.one_of(st.just([]), st.integers(0, 8).map(lambda h: ["--infinity", str(h)]))
_COMMANDS = st.one_of(
    st.sampled_from((["lattice"], ["report"])),
    st.tuples(st.sampled_from(("beta1", "degenerate")), _PRIMES, _INFINITY).map(
        lambda t: [t[0], "--prime", t[1]] + t[2]),
    _PRIMES.map(lambda p: ["beta1", "--prime", p, "--all-deconings"]))


def test_cli_exits_cleanly_on_generated_files(tmp_path_factory):
    # main in-process on generated files: 0, 2, 3 or 4, never 1 and never an
    # exception; a nonzero exit writes no stdout and one stderr line
    path = tmp_path_factory.mktemp("fuzz") / "input.arr"
    codes = set()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(rows=_FILES, end=st.sampled_from(("\n", "\r\n")),
           command=_COMMANDS, as_json=st.booleans())
    def check(rows, end, command, as_json):
        path.write_bytes("".join(row + end for row in rows).encode())
        argv = command + [str(path)] + ["--json"] * as_json
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        codes.add(code)
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if code:
            assert out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
            assert err.getvalue().startswith(("error:", "invalid arrangement:")), argv
        elif as_json:
            with cli._long_ints():
                json.loads(out.getvalue())

    check()
    assert {0, 2, 3} <= codes  # arrangements, unparseable files and invalid ones


@pytest.mark.parametrize("body, lineno", [(b"1 0 0\f0 1 0\n0 0 1\n1 1 1\n", 1),
                                          (b"1 0 0\n0 1 0\xc2\x850 0 1\nx\n", 2)],
                         ids=["form-feed", "next-line"])
def test_rows_end_only_at_newlines(capsys, tmp_path, body, lineno):
    # str.splitlines also breaks at \f and U+0085; a row ends at \n, \r\n
    # or \r only, so each of these files has a six-token row
    path = tmp_path / "rows.arr"
    path.write_bytes(body)
    raw = body.decode().split("\n")[lineno - 1]
    assert run(capsys, "lattice", str(path)) == (
        2, "", f"error: {path}:{lineno}: expected three integers, got {raw!r}\n")


def test_crlf_and_cr_rows_read_as_newline_rows(capsys, tmp_path):
    rows = ["1 0 0", "0 1 0 # a comment", "", "0 0 1", "1 1 1"]
    path, outputs = tmp_path / "rows.arr", []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes((end.join(rows) + end).encode())
        outputs.append(run(capsys, "lattice", str(path)))
    assert outputs[0][0] == 0
    assert outputs == [outputs[0]] * 3


def test_exit_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "latin1.arr"
    path.write_bytes(b"1 0 0\n0 1 0\n0 0 1 # \xe9\n")
    code, _, err = run(capsys, "lattice", str(path))
    assert code == 2
    assert "cannot read" in err


def test_utf8_file_read_under_any_locale(capsys, tmp_path):
    # a UTF-8 comment reads the same under the POSIX locale, whose default
    # encoding is ASCII, as in-process
    path = tmp_path / "cafe.arr"
    path.write_bytes("# café\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n".encode())
    code, expected, _ = run(capsys, "lattice", str(path))
    assert code == 0
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "LC_ALL": "POSIX",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = subprocess.run([sys.executable, "-m", "arrcohom.cli", "lattice", str(path)],
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == expected


def test_exit_directory_input(capsys, tmp_path):
    code, _, err = run(capsys, "beta1", str(tmp_path), "--prime", "3")
    assert code == 2
    assert "cannot read" in err


def test_exit_not_prime(capsys):
    code, _, err = run(capsys, "beta1", "--builtin", "braid-a3", "--prime", "4")
    assert code == 4
    assert "not prime" in err


def test_exit_huge_prime_at_once():
    # 2**61 - 1 is prime, and trial division up to its square root would run
    # for hours: the size bound comes first. Run with a timeout, so that a
    # regression fails here instead of hanging the suite
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "arrcohom.cli", "beta1", "--builtin",
                           "braid-a3", "--prime", str(2**61 - 1)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert "too large" in proc.stderr


def test_exit_not_prime_without_maps(capsys):
    # a pencil deconed at one of its lines has a single parallel class, so
    # no degeneration map (and no algebra) is built; the modulus still fails
    code, out, err = run(capsys, "degenerate", "--builtin", "pencil", "--m", "4",
                         "--prime", "4")
    assert code == 4
    assert out == ""
    assert "not prime" in err


def test_exit_missing_input(capsys):
    code, _, err = run(capsys, "lattice")
    assert code == 2
    assert "no input" in err


def test_exit_unknown_builtin(capsys):
    code, _, _ = run(capsys, "lattice", "--builtin", "moebius")
    assert code == 2


def test_exit_builtin_parameter_misuse(capsys):
    assert run(capsys, "lattice", "--builtin", "pencil")[0] == 2
    assert run(capsys, "lattice", "--builtin", "braid-a3", "--m", "4")[0] == 2
    assert run(capsys, "lattice", "--builtin", "fermat", "--m", "3")[0] == 2
    for name in ("pencil", "near-pencil", "generic"):
        code, out, err = run(capsys, "lattice", "--builtin", name, "--m", "2")
        assert (code, out) == (2, ""), name
        assert err == f"error: {name} needs m >= 3, got 2\n"


def test_exit_m_without_builtin(capsys, tmp_path):
    path = tmp_path / "triangle.arr"
    path.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, out, err = run(capsys, "lattice", str(path), "--m", "7")
    assert code == 2
    assert out == ""
    assert "--m needs --builtin" in err


def test_exit_bad_infinity(capsys):
    # -1 must not wrap around to the last line; a bad line exits 2 before
    # a bad prime is checked
    for infinity, prime in (("9", "3"), ("-1", "3"), ("9", "4")):
        for command in ("beta1", "degenerate"):
            code, out, err = run(capsys, command, "--builtin", "braid-a3", "--prime", prime,
                                 "--infinity", infinity)
            assert code == 2, (command, infinity, prime)
            assert out == ""
            assert "out of range" in err


def test_infinity_with_all_deconings_exits_2(capsys):
    for infinity in ("0", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["beta1", "--builtin", "braid-a3", "--prime", "3", "--all-deconings",
                  "--infinity", infinity])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["beta1", "--builtin", "braid-a3"])  # --prime is required
    assert exc.value.code == 2


def test_closed_stdout_exits_141_quietly():
    # stdout block-buffered, as by default: PYTHONUNBUFFERED would leave no
    # write in the buffer for the flush at exit
    code = "import sys; from arrcohom.cli import main; sys.exit(main())"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # about 350 KB of text, more than a pipe buffer holds, so the writes
    # after the reader has gone always hit the closed pipe
    proc = subprocess.Popen([sys.executable, "-c", code, "lattice", "--builtin", "generic",
                             "--m", "120"], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"120 lines, 7140 intersection points\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    # the reader gone before the first write, and all of a short output still
    # buffered when main's flush fails: unless stdout then points at devnull,
    # the flush at exit fails again, and Python reports it and exits 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    proc = subprocess.Popen([sys.executable, "-c", code, "lattice", "--builtin", "braid-a3"],
                            env=env, stdout=write_end, stderr=subprocess.PIPE)
    os.close(write_end)
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
