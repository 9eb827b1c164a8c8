"""Spans around calls into each arrcohom layer, recorded from outside src/.

``Tracer.install`` rebinds every traced callable in place:

* free functions in every ``arrcohom`` module namespace that holds them,
  because ``report``, ``cli``, ``aomoto`` and ``degeneration`` import
  functions by name (``arrcohom.report.lattice`` and
  ``arrcohom.geometry.lattice`` are separate lookups);
* methods on their class.

Each call becomes a span (id, parent id, op id, layer, start, end) kept in
flat in-memory arrays and written out by ``write_spans`` at the end. A
layer's self time is its span's duration minus the durations of the spans
it directly caused. Alongside the spans, a few sizes are derived from the
objects the calls return; they are computed, not measured.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter_ns

import numpy as np

# layer -> where it is defined; a (module, class, method) triple is a method
LAYERS = {
    "geometry.lattice": ("arrcohom.geometry", "lattice"),
    "geometry.decone": ("arrcohom.geometry", "decone"),
    "orlik_solomon.build": ("arrcohom.orlik_solomon", "OSAlgebra", "__init__"),
    "orlik_solomon.wedge_matrix": ("arrcohom.orlik_solomon", "OSAlgebra", "wedge_matrix"),
    "orlik_solomon.wedge11": ("arrcohom.orlik_solomon", "OSAlgebra", "wedge11"),
    "modp.rank": ("arrcohom.modp", "FpMatrix", "rank"),
    "modp.matmul": ("arrcohom.modp", "FpMatrix", "__matmul__"),
    "aomoto.beta1_full": ("arrcohom.aomoto", "beta1_full"),
    "degeneration.delta_tot": ("arrcohom.degeneration", "delta_tot"),
    "degeneration.delta_dir": ("arrcohom.degeneration", "delta_dir"),
    "degeneration.induced_deg2": ("arrcohom.degeneration", "induced_deg2"),
    "degeneration.verify": ("arrcohom.degeneration", "verify_homomorphism"),
    "report.report": ("arrcohom.report", "report"),
    "report.mu_table": ("arrcohom.report", "mu_table"),
    "cli.main": ("arrcohom.cli", "main"),
}

ALL = ("report-mid", "beta1-large", "degenerate-mixed")
DEGREE1 = ("report-mid", "beta1-large")
# Workloads on which each layer must record calls; zero there means a
# rebinding was missed, and the traced run fails instead of reporting 0.
WORKS_ON = {
    "geometry.lattice": ALL,
    "geometry.decone": ALL,
    "orlik_solomon.build": ALL,
    "orlik_solomon.wedge_matrix": DEGREE1,
    "orlik_solomon.wedge11": ALL,
    "modp.rank": DEGREE1,
    "modp.matmul": ALL,
    "aomoto.beta1_full": DEGREE1,
    "degeneration.delta_tot": ("degenerate-mixed",),
    "degeneration.delta_dir": ("degenerate-mixed",),
    "degeneration.induced_deg2": ("degenerate-mixed",),
    "degeneration.verify": ("degenerate-mixed",),
    "report.report": ("report-mid",),
    "report.mu_table": ("report-mid",),
    "cli.main": ALL,
}


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans = array("q")  # 6 fields per span, see write_spans
        self.op = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        # computed sizes, derived from returned objects
        self.max_os_bytes = 0
        self.d1_count = 0
        self.d1_entries = 0
        self.d1_nonzeros = 0
        self.d1_shapes: set[tuple[int, int]] = set()

    # ---- rebinding ------------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "arrcohom" or name.startswith("arrcohom."))]
        for k, (layer, where) in enumerate(LAYERS.items()):
            hook = {"orlik_solomon.build": self._on_build,
                    "orlik_solomon.wedge_matrix": self._on_d1}.get(layer)
            if len(where) == 3:
                owner = getattr(sys.modules[where[0]], where[1])
                self._rebind(owner, where[2], self._wrap(k, getattr(owner, where[2]), hook))
                continue
            original = getattr(sys.modules[where[0]], where[1])
            wrapper = self._wrap(k, original, hook)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, k, fn, hook):
        stack, spans, calls, self_ns = self._stack, self.spans, self.calls, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                calls[k] += 1
                self_ns[k] += end - start - frame[1]
                spans.extend((span, parent, self.op, k, start, end))
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # ---- computed sizes ---------------------------------------------------

    def _on_build(self, args, _result):
        alg = args[0]
        held = sum(v.nbytes for v in getattr(alg, "__dict__", {}).values()
                   if isinstance(v, np.ndarray))
        self.max_os_bytes = max(self.max_os_bytes, held)

    def _on_d1(self, _args, result):
        data = np.asarray(getattr(result, "data", result))
        self.d1_count += 1
        self.d1_entries += data.size
        self.d1_nonzeros += int(np.count_nonzero(data))
        self.d1_shapes.add(tuple(data.shape))

    # ---- results ------------------------------------------------------------

    def count(self, layer):
        return self.calls[self.names.index(layer)]

    def self_s(self, layer):
        return self.self_ns[self.names.index(layer)] / 1e9

    def missing(self, workload):
        """Layers predicted to work on this workload that recorded no call."""
        return [layer for layer, wls in WORKS_ON.items()
                if workload in wls and self.count(layer) == 0]

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("span,parent,op,layer,start_ns,end_ns\n")
            s = self.spans
            for i in range(0, len(s), 6):
                f.write(f"{s[i]},{s[i + 1]},{s[i + 2]},{self.names[s[i + 3]]},"
                        f"{s[i + 4]},{s[i + 5]}\n")
