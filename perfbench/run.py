"""arrcohom benchmark: seeded workloads through ``arrcohom.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-mid --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the traced pass instead and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md for the
workloads, the metrics and what each layer metric should move.

Time metrics are op wall times rescaled to a reference host speed, which
a fixed probe (perfbench/hostspeed.py) measures before and after each op.

Workers are started one at a time, so one process computes at any moment,
and each is told to keep numpy's BLAS pool to one thread (int64 matmul
does not use BLAS, so the workloads are single-threaded by construction).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from inputs import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # worker starts per run; setup_s is their median
BUDGET_S = 170  # the whole run, workers and checks included
# The host-speed probe's typical time on the machine the benchmark was
# written on (perfbench/README.md, Noise): time metrics read as seconds on
# that machine at that speed.
REF_S = 0.012
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spawn(mode, args, deadline):
    out = ROOT / ".perfbench_work" / args.workload / f"{mode}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.unlink(missing_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    t0 = perf_counter()
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--t0", repr(t0),
           "--root", str(ROOT), "--out", str(out)]
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{mode} worker ran past the {BUDGET_S} s budget")
    if rc != 0:
        fail(f"{mode} worker exited with code {rc}")
    return json.loads(out.read_text())


def by_input(ops):
    """(input index, seconds) pairs -> each input's op times."""
    out = {}
    for k, dt in ops:
        out.setdefault(k, []).append(dt)
    return out.values()


def mix_rate(ops, n_failed):
    """Verified ops per second of the workload's mix, each input weighted
    equally: inputs / the sum of each input's mean op time, times the share
    of ops verified. A run that stops part-way through a pass then does not
    weigh the inputs it reached more than the others, whose costs differ up
    to fivefold."""
    times = by_input(ops)
    mix_s = sum(statistics.fmean(v) for v in times)
    return len(times) / mix_s * (len(ops) - n_failed) / len(ops)


def mix_median(ops):
    """Median op time of the workload's mix: each input's median op time,
    averaged over the inputs. The plain median of all ops would jump from
    one input's cost to another's with the number of ops that fit a run."""
    return statistics.fmean(statistics.median(v) for v in by_input(ops))


def tail(times):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(times)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * k / len(xs), len(xs) - 1 - k


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "arrcohom" / "__init__.py").is_file():
        fail(f"no arrcohom sources under {ROOT / 'src'}; run from a full checkout")

    deadline = perf_counter() + BUDGET_S
    if args.trace:
        res = spawn("traced", args, deadline)
    else:
        workers = [spawn("setup", args, deadline) for _ in range(SETUPS - 1)]
        res = spawn("timed", args, deadline)
        workers.append(res)

    ops, failed = res["ops"], res["failed"]
    attempted = len(ops)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {len(failed)} failed")
    for inp in res["inputs"]:
        print(f"  input {json.dumps(inp, sort_keys=True)}")
    for reason in res["failures"] + res["errors"]:
        print(f"  failure: {reason}")

    if args.trace:
        metrics = res["metrics"]
        print(f"  traced: {json.dumps(res['trace'])}")
    else:
        # each op at reference speed, from the probes just before and after it
        pr = res["op_probes"]
        scaled = [(k, dt * REF_S * 2 / (pr[i] + pr[i + 1]))
                  for i, (k, dt, _) in enumerate(ops)]
        setups = [w["setup_s"] * REF_S / statistics.median(w["setup_probes"])
                  for w in workers]
        tail_s, tail_pct, beyond = tail([t for _, t in scaled])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": mix_rate(scaled, len(failed)), "unit": "1/s"},
            "op_p50_s": {"value": mix_median(scaled), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        raw = [(k, dt) for k, dt, _ in ops]
        print(f"  host probe median {statistics.median(pr) * 1e3:.2f} ms "
              f"(reference {REF_S * 1e3:.2f} ms), range "
              f"{min(pr) * 1e3:.2f}-{max(pr) * 1e3:.2f} ms")
        print(f"  unscaled: setups {[round(w['setup_s'], 4) for w in workers]} s, "
              f"op_p50_s {mix_median(raw):.4f} s, ops_per_s {mix_rate(raw, len(failed)):.4f}, "
              f"{attempted} ops in {res['wall_s']:.3f} s of timed wall")
        print(f"  op_tail_s is the p{tail_pct:.0f} of {attempted} ops "
              f"({beyond} beyond it)")
        print(f"  failed_ratio = {len(failed) / attempted:.4f} ({len(failed)}/{attempted})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if {k: m["unit"] for k, m in metrics.items()} != declared:
        fail("metrics or units differ from those BENCHMARK.json declares")

    env = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "worker_os_threads": res["threads"],
        "note": "one worker process at a time, one client, no extra threads; "
                + ", ".join(f"{v}=1" for v in THREAD_VARS),
    }
    print(json.dumps({"environment": env}, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
