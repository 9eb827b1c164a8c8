"""Seeded arrangement generator for the benchmark workloads.

Everything here is plain Python integer arithmetic and does not import
arrcohom: the program under test only ever sees the ``.arr`` files this
module writes, and the per-input statistics below are computed
independently of it, so a change to the generator (not to the program)
is what moves them.

Families:

* ``generic``: m lines (1, t, t^2) tangent to a conic, t drawn from a
  seeded sample, lines in seeded order. No three lines are concurrent.
* ``near-pencil``: m - 1 lines through one point plus one transversal,
  seeded slopes and order.
* ``box``: distinct lines with coefficients in [-B, B]. Small integer
  coefficients force many concurrences (multiplicities up to 8 are
  common) and parallels. With ``classes`` set, line (0, 0, 1) is the
  infinity line and every other line takes one of ``classes`` directions,
  which fixes the number of parallel classes at that line.

The combinatorial type of each box input is drawn once, from a fixed
seed per slot; the run seed picks its coordinates (a signed permutation
of x, y, z) and its line order. The cost of an op depends on the type in
ways that do not follow any simple statistic (two 76-line box types with
the same dim2 differ twofold), so redrawing types per seed would make
the workloads' costs swing from seed to seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


def canonical(t):
    a, b, c = t
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    for x in (a, b, c):
        if x:
            return (a, b, c) if x > 0 else (-a, -b, -c)
    raise ValueError("zero triple")


def points(lines):
    """Intersection points of distinct lines -> set of incident line indices."""
    pts: dict[tuple, set] = {}
    for i in range(len(lines)):
        u = lines[i]
        for j in range(i + 1, len(lines)):
            v = lines[j]
            x = canonical((u[1] * v[2] - u[2] * v[1],
                           u[2] * v[0] - u[0] * v[2],
                           u[0] * v[1] - u[1] * v[0]))
            pts.setdefault(x, set()).update((i, j))
    return pts


def stats(lines, infinity):
    """Lines, multiplicity histogram, parallel classes at the infinity line
    and the degree 2 rank of that deconing (Brieskorn: the sum of m_X - 1
    over the points X off the infinity line)."""
    incs = list(points(lines).values())
    hist = Counter(len(s) for s in incs)
    return {
        "lines": len(lines),
        "histogram": {str(k): hist[k] for k in sorted(hist)},
        "classes": sum(1 for s in incs if infinity in s),
        "dim2": sum(len(s) - 1 for s in incs if infinity not in s),
    }


def generic(rng, m):
    ts = rng.sample(range(-3 * m, 3 * m), m)
    return [(1, t, t * t) for t in ts]


def near_pencil(rng, m):
    slopes = rng.sample(range(-3 * m, 3 * m), m - 2)
    lines = [(0, 1, 0)] + [(1, -k, 0) for k in slopes] + [(0, 0, 1)]
    rng.shuffle(lines)
    return lines


def _directions(bound):
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if (a, b) != (0, 0) and math.gcd(a, b) == 1:
                out.add(canonical((a, b, 0))[:2])
    return sorted(out)


def box(rng, m, bound, classes=None):
    if classes is None:
        draw = lambda: tuple(rng.randint(-bound, bound) for _ in range(3))
        lines, seen = [], set()
    else:
        dirs = rng.sample(_directions(bound), classes)
        draw = lambda: (*rng.choice(dirs), rng.randint(-bound, bound))
        # one line per direction first, so every class is used
        lines = [(0, 0, 1)] + [(a, b, rng.randint(-bound, bound)) for a, b in dirs]
        lines = [canonical(t) for t in lines]
        seen = set(lines)
    while len(lines) < m:
        t = draw()
        if t == (0, 0, 0):
            continue
        t = canonical(t)
        if t not in seen:
            seen.add(t)
            lines.append(t)
    return lines


@dataclass(frozen=True)
class Slot:
    """One input of a workload: a family, its size, and the CLI call."""

    family: str
    m: int
    command: str  # report, beta1 or degenerate
    bound: int = 3
    classes: int | None = None
    prime: int | None = None

    @property
    def label(self):
        tag = f"{self.family}-{self.m}"
        if self.family == "box":
            tag += f"-b{self.bound}" + (f"-c{self.classes}" if self.classes else "")
        return tag + (f"-p{self.prime}" if self.prime else "")


@dataclass
class Input:
    label: str
    command: str
    lines: list
    infinity: int | None
    prime: int | None
    stats: dict
    path: str = ""

    def argv(self):
        argv = [self.command, self.path]
        if self.prime is not None:
            argv += ["--prime", str(self.prime)]
        if self.infinity is not None:
            argv += ["--infinity", str(self.infinity)]
        return argv + ["--json"]


# Inputs are listed in the order the closed loop runs them, interleaving
# sizes so that a run that stops part-way through the list still sees a
# representative mix. The middle of each workload's op costs is dense:
# on report-mid the four 30-line reports cost within about 10% of each
# other, with the near-pencil (about half that) and the 36-line reports
# (1.6x and 2.5x) at the ends; degenerate-mixed steps by 5 to 10% from
# input to input. The tail percentile over all ops (op_tail_s) then lies
# among ops of similar cost and does not jump from one input's cost to
# another's when a run holds one op more or less of some input. A report's cost follows the number of
# primes dividing m (one beta1 per prime) more than m itself.
WORKLOADS = {
    # Every report layer does real work: 73 (m = 36) or 91 (m = 30)
    # lattice calls and as many OS builds, d1 builds and ranks per report.
    "report-mid": [
        Slot("generic", 36, "report"),
        Slot("box", 30, "report", bound=4),
        Slot("box", 36, "report", bound=3),
        Slot("near-pencil", 36, "report"),
        Slot("box", 30, "report", bound=5),
        Slot("generic", 30, "report"),
        Slot("box", 30, "report", bound=3),
    ],
    # One deconing of a large arrangement: the dense pair table and the
    # n-fold wedge11 loop dominate time and memory; lattice runs once.
    "beta1-large": [
        Slot("generic", 70, "beta1", prime=7),
        Slot("box", 78, "beta1", bound=4, prime=3),
        Slot("box", 75, "beta1", bound=4, prime=5),
    ],
    # Many small wedge11 calls through degeneration and its verification;
    # wedge_matrix is never called.
    "degenerate-mixed": [
        Slot("box", 24, "degenerate", classes=12, prime=5),
        Slot("box", 18, "degenerate", classes=16, prime=2),
        Slot("box", 28, "degenerate", classes=9, prime=3),
        Slot("box", 20, "degenerate", classes=16, prime=3),
        Slot("box", 30, "degenerate", classes=8, prime=2),
        Slot("box", 22, "degenerate", classes=14, prime=5),
        Slot("box", 26, "degenerate", classes=10, prime=2),
    ],
}


def make(slot: Slot, rng: random.Random) -> Input:
    if slot.family == "generic":
        lines = generic(rng, slot.m)
        infinity = rng.randrange(slot.m)
    elif slot.family == "near-pencil":
        lines = near_pencil(rng, slot.m)
        infinity = rng.randrange(slot.m)
    else:
        # the combinatorial type is fixed per slot, the seed picks the
        # coordinates (a signed permutation of x, y, z) and the line order
        fixed = random.Random(slot.label)
        lines = box(fixed, slot.m, slot.bound, slot.classes)
        infinity = 0 if slot.classes is not None else fixed.randrange(slot.m)
        perm, signs = rng.sample(range(3), 3), [rng.choice((1, -1)) for _ in range(3)]
        lines = [canonical(tuple(signs[k] * t[perm[k]] for k in range(3))) for t in lines]
    order = list(range(slot.m))
    rng.shuffle(order)
    lines = [lines[i] for i in order]
    infinity = order.index(infinity)
    st = stats(lines, infinity)
    if slot.command == "report":
        infinity = None  # report decones at every line
    return Input(slot.label, slot.command, lines, infinity, slot.prime, st)


def generate(workload: str, seed: int, directory: Path) -> list[Input]:
    """Draw every input of a workload from the seed and write it as .arr."""
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    inputs = []
    for k, slot in enumerate(WORKLOADS[workload]):
        inp = make(slot, rng)
        path = directory / f"{k:02d}-{inp.label}.arr"
        path.write_text("".join(f"{a} {b} {c}\n" for a, b, c in inp.lines))
        inp.path = str(path)
        inputs.append(inp)
    return inputs


def warmup_input(workload: str, directory: Path) -> Input:
    """A small input for the workload's command, run once before timing."""
    slot = WORKLOADS[workload][0]
    small = Slot("box", 10, slot.command, classes=4 if slot.classes else None,
                 prime=slot.prime)
    inp = make(small, random.Random(0))
    inp.path = str(directory / "warmup.arr")
    Path(inp.path).write_text("".join(f"{a} {b} {c}\n" for a, b, c in inp.lines))
    return inp
