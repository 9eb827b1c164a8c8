"""One benchmark worker process; started by run.py, never by hand.

Modes:

* ``setup``: start, import arrcohom, generate inputs, warm up, then stop
  where the first timed op would start. Only the set-up time is reported.
* ``timed``: the same set-up, then a closed loop (one client, the next op
  starts when the previous one returns) of in-process
  ``arrcohom.cli.main`` calls over the workload's inputs for ``--seconds``,
  with the host-speed probe run before each op and after the last.
* ``traced``: the same set-up, then whole passes over the inputs without
  tracing, then the same ops again with every layer traced.

``setup`` and ``timed`` also run the host-speed probe a few times after
set-up, outside the set-up time. Outputs are checked after the loop. The
result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import inputs
from hostspeed import probe

SETUP_PROBES = 5


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad usage
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed op, not a crash
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            rc = -1
    return rc, out.getvalue(), err.getvalue()


class Loop:
    """Runs ops over the input list in order and keeps each distinct output."""

    def __init__(self, cli, inps):
        self.cli = cli
        self.inps = inps
        self.argvs = [inp.argv() for inp in inps]
        self.ops: list[tuple[int, float, int]] = []  # input index, seconds, rc
        self.outputs: dict[tuple[int, int, str], list[int]] = {}
        self.errors: list[str] = []
        self.output_bytes = 0

    def step(self, k):
        t = perf_counter()
        rc, out, err = run_op(self.cli, self.argvs[k])
        dt = perf_counter() - t
        self.outputs.setdefault((k, rc, out), []).append(len(self.ops))
        self.ops.append((k, dt, rc))
        self.output_bytes += len(out.encode())
        if err and len(self.errors) < 5:
            self.errors.append(f"{self.inps[k].label}: {err.strip()[:300]}")

    def check(self):
        """Indices of the ops whose output is wrong, with reasons."""
        from checks import check

        bad = {}
        for (k, rc, out), op_ids in self.outputs.items():
            reason = check(self.inps[k], rc, out)
            if reason is not None:
                for i in op_ids:
                    bad[i] = f"{self.inps[k].label}: {reason}"
        return bad


def timed(loop, seconds, probes):
    n = len(loop.inps)
    start = perf_counter()
    while perf_counter() - start < seconds:
        probes.append(probe())
        loop.step(len(loop.ops) % n)
    probes.append(probe())
    return perf_counter() - start


def traced(loop, seconds, workload, work):
    """Untraced whole passes over the inputs filling half the time, then the
    same passes traced; returns the per-layer metrics."""
    from tracing import Tracer

    n = len(loop.inps)
    start = perf_counter()
    passes = 0
    while True:
        for k in range(n):
            loop.step(k)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds / 2:
            break
    untraced_wall = perf_counter() - start
    untraced_bytes = loop.output_bytes

    tracer = Tracer()
    tracer.install()
    try:
        start = perf_counter()
        for _ in range(passes):
            for k in range(n):
                tracer.op = len(loop.ops)
                loop.step(k)
        traced_wall = perf_counter() - start
    finally:
        tracer.uninstall()
    tracer.write_spans(work / "spans.csv")
    missing = tracer.missing(workload)
    if missing:
        raise SystemExit(f"traced run: no calls recorded for {', '.join(missing)} "
                         f"on {workload}; a rebinding was missed")

    ops = passes * n
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in ("geometry.lattice", "geometry.decone", "orlik_solomon.build",
                  "orlik_solomon.wedge_matrix", "orlik_solomon.wedge11", "modp.rank",
                  "modp.matmul", "aomoto.beta1_full", "degeneration.verify"):
        put(f"{layer}.calls", tracer.count(layer) / ops, "count/op")
        put(f"{layer}.self_s", tracer.self_s(layer) / ops, "s/op")
    for layer in ("degeneration.induced_deg2", "report.report", "report.mu_table", "cli.main"):
        put(f"{layer}.self_s", tracer.self_s(layer) / ops, "s/op")
    maps = tracer.count("degeneration.delta_tot") + tracer.count("degeneration.delta_dir")
    put("degeneration.delta.calls", maps / ops, "count/op")
    put("degeneration.delta.self_s", (tracer.self_s("degeneration.delta_tot")
                                      + tracer.self_s("degeneration.delta_dir")) / ops, "s/op")
    # computed ratios and sizes; the README states each base
    put("geometry.lattice.reuse_ratio", ops / tracer.count("geometry.lattice"), "ratio")
    put("degeneration.verify_per_map",
        tracer.count("degeneration.verify") / maps if maps else 0.0, "ratio")
    put("orlik_solomon.pair_table_mb", tracer.max_os_bytes / 1e6, "MB")
    put("modp.d1_density",
        tracer.d1_nonzeros / tracer.d1_entries if tracer.d1_entries else 0.0, "ratio")
    put("modp.d1_nonzeros", tracer.d1_nonzeros / tracer.d1_count if tracer.d1_count else 0.0,
        "count")
    put("modp.d1_entries", tracer.d1_entries / tracer.d1_count if tracer.d1_count else 0.0,
        "count")
    put("cli.output_bytes", (loop.output_bytes - untraced_bytes) / ops, "B/op")
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    detail = {
        "passes": passes,
        "ops_per_pass": n,
        "untraced_s": untraced_wall,
        "traced_s": traced_wall,
        "spans": len(tracer.spans) // 6,
        "d1_shapes": sorted(tracer.d1_shapes),
    }
    return metrics, detail


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    parser.add_argument("--root", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import arrcohom
    from arrcohom import cli

    if Path(arrcohom.__file__).resolve().parent != (src / "arrcohom").resolve():
        raise SystemExit(f"imported arrcohom from {arrcohom.__file__}, not from {src}")

    work = root / ".perfbench_work" / args.workload
    inps = inputs.generate(args.workload, args.seed, work)
    warm = inputs.warmup_input(args.workload, work)
    rc, _, err = run_op(cli, warm.argv())
    if rc != 0:
        raise SystemExit(f"warm-up op failed with exit code {rc}: {err.strip()}")
    setup_s = perf_counter() - args.t0
    result = {"setup_s": setup_s}
    if args.mode != "traced":
        result["setup_probes"] = [probe() for _ in range(SETUP_PROBES)]
    if args.mode != "setup":
        loop = Loop(cli, inps)
        if args.mode == "timed":
            result["op_probes"] = []
            result["wall_s"] = timed(loop, args.seconds, result["op_probes"])
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        else:
            result["metrics"], result["trace"] = traced(loop, args.seconds, args.workload, work)
        bad = loop.check()
        import numpy

        result.update(
            ops=loop.ops,
            failed=sorted(bad),
            failures=sorted(set(bad.values()))[:5],
            errors=loop.errors,
            inputs=[{"input": Path(i.path).name, "command": i.command, "prime": i.prime,
                     "infinity": i.infinity, **i.stats} for i in inps],
            numpy=numpy.__version__,
            threads=_os_threads(),
        )
    Path(args.out).write_text(json.dumps(result))


def _os_threads():
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return None


if __name__ == "__main__":
    main()
