"""Per-layer tracing for the benchmark's traced run.

The tracer wraps the public functions of each halftwist module from outside
the package.  A wrapped call records a span (id, parent id, name, start, end);
a layer's self time is its spans' durations minus the time their child spans
cover.  Q(zeta_8) arithmetic and the pairwise einsum join run far too often
for spans, so they are only counted.

A wrapper replaces the function in every module namespace that binds it (for
example `einsum` in linalg, axioms, tqft and superalgebra), because modules
import library functions by name.  Methods are replaced on their classes.
Spans stay in memory until the run ends and are then written out in one file.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from halftwist import axioms, cli, cyclo, linalg, pingeo, ribbon, superalgebra, tqft  # noqa: F401

AXIOM_IDS = tuple(f"a{k}" for k in range(1, 14))
TQFT_FUNCTIONS = ("state_space", "projector", "partition_function", "connect_sum_pf",
                  "classify_invertible")
# Span name -> (module, function) pairs it covers.  A name given as
# "axioms.<which>" is filled in from the call's second argument.
SPANS = {
    "linalg.einsum": [("linalg", "einsum")],
    "linalg.elim": [("linalg", f) for f in
                    ("nullspace", "mat_invert", "linear_solve", "hermitian_positive_definite")],
    "superalgebra.build": [("superalgebra", f) for f in
                           ("parse_algebra", "build_clifford_real", "build_clifford_complex",
                            "build_matrix", "direct_sum", "supertensor", "custom_from_tensors")],
    "axioms.<which>": [("axioms", "check_axiom")],
    "axioms.derived": [("axioms", "check_derived")],
    "axioms.unitarity": [("axioms", "check_unitarity")],
    "ribbon.parse": [("ribbon", "parse")],
    "ribbon.evaluate": [("ribbon", "evaluate")],
    "pingeo.abk": [("pingeo", "abk")],
    "cli.main": [("cli", "main")],
    **{f"tqft.{f}": [("tqft", f)] for f in TQFT_FUNCTIONS},
}
METHOD_SPANS = {
    "superalgebra.element_mul": (superalgebra.AlgebraElement, "__mul__"),
    "ribbon.then": (ribbon.LinearBlock, "then"),
}
CYCLO_COUNTS = {
    "__mul__": "cyclo.mul_calls", "__rmul__": "cyclo.mul_calls",
    "__add__": "cyclo.add_calls", "__radd__": "cyclo.add_calls",
    "__sub__": "cyclo.add_calls", "__rsub__": "cyclo.add_calls",
    "inverse": "cyclo.inverse_calls", "is_zero": "cyclo.is_zero_calls",
}
MUL_SAMPLES = 256


# Every per-layer metric, in output order, with its unit.
PER_LAYER = (
    [("cyclo.mul_calls", "count"), ("cyclo.add_calls", "count"),
     ("cyclo.inverse_calls", "count"), ("cyclo.is_zero_calls", "count"),
     ("cyclo.mul_ns", "ns"),
     ("linalg.einsum_calls", "count"), ("linalg.einsum_self_s", "s"),
     ("linalg.peak_intermediate_entries", "count"), ("linalg.join_output_entries", "count"),
     ("linalg.elim_calls", "count"), ("linalg.elim_self_s", "s"),
     ("superalgebra.build_calls", "count"), ("superalgebra.build_s", "s"),
     ("superalgebra.element_mul_calls", "count"), ("superalgebra.element_mul_self_s", "s")]
    + [(f"axioms.{a}_s", "s") for a in AXIOM_IDS]
    + [("axioms.derived_s", "s"), ("axioms.unitarity_s", "s"),
       ("ribbon.parse_self_s", "s"), ("ribbon.evaluate_calls", "count"),
       ("ribbon.evaluate_self_s", "s"), ("ribbon.output_cells", "count"),
       ("ribbon.then_self_s", "s"),
       ("pingeo.abk_calls", "count"), ("pingeo.abk_self_s", "s"),
       ("pingeo.abk_classes", "count")]
    + [(f"tqft.{f}_self_s", "s") for f in TQFT_FUNCTIONS]
    + [("cli.main_self_s", "s"), ("cli.import_s", "s"),
       ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
)
# Root spans opened by the benchmark itself; their self time is time spent
# outside every traced library call.
ROOTS = ("bench.setup", "bench.job")


class Tracer:
    """Spans and counts of one traced run; install() patches, uninstall()
    restores."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        # Calls and inclusive time of spans with no open span of the same name
        # around them, so recursion is not counted twice.
        self.outer_calls: Counter = Counter()
        self.outer_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.peak_join_entries = 0
        self.mul_samples: list = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._rng = random.Random(0)

    # -- spans -----------------------------------------------------------

    def open(self, name: str):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append([self._next_id, parent, name, time.perf_counter_ns(), 0])

    def close(self):
        end = time.perf_counter_ns()
        sid, parent, name, start, child_ns = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if self._stack:
            self._stack[-1][4] += duration
        if all(frame[2] != name for frame in self._stack):
            self.outer_calls[name] += 1
            self.outer_ns[name] += duration
        self.spans.append((sid, parent, name, start, end))

    def _spanned(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counts ----------------------------------------------------------

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def _sampled_mul(self, fn):
        counts, samples, rng = self.counts, self.mul_samples, self._rng

        @functools.wraps(fn)
        def wrapper(a, b):
            n = counts["cyclo.mul_calls"] = counts["cyclo.mul_calls"] + 1
            if n <= MUL_SAMPLES:
                samples.append((a, b))
            else:
                slot = rng.randrange(n)
                if slot < MUL_SAMPLES:
                    samples[slot] = (a, b)
            return fn(a, b)

        return wrapper

    def _after_join(self, args, result):
        entries = len(result[0])
        self.counts["linalg.join_output_entries"] += entries
        self.peak_join_entries = max(self.peak_join_entries, entries)

    def _after_evaluate(self, args, block):
        self.counts["ribbon.output_cells"] += len(block.table)

    def _after_abk(self, args, value):
        self.counts["pingeo.abk_classes"] += 1 << args[0].rank

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name == "halftwist" or name.startswith("halftwist."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def install(self):
        after = {"ribbon.evaluate": self._after_evaluate, "pingeo.abk": self._after_abk}
        for span, targets in SPANS.items():
            for module_name, fn_name in targets:
                original = getattr(sys.modules[f"halftwist.{module_name}"], fn_name)
                if span == "axioms.<which>":
                    name = lambda args: "axioms." + args[1]  # noqa: E731
                else:
                    name = span
                self._patch_everywhere(original, self._spanned(original, name, after.get(span)))
        for span, (cls, attr) in METHOD_SPANS.items():
            self._patch(cls, attr, self._spanned(getattr(cls, attr), span))
        for attr, key in CYCLO_COUNTS.items():
            original = getattr(cyclo.CycloNum, attr)
            wrapper = (self._sampled_mul(original) if key == "cyclo.mul_calls"
                       else self._counted(original, key))
            self._patch(cyclo.CycloNum, attr, wrapper)
        join = linalg._join
        self._patch(linalg, "_join", self._spanless(join, self._after_join))

    def _spanless(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args):
            result = fn(*args)
            after(args, result)
            return result

        return wrapper

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def mul_ns(self, repeats: int = 25) -> float:
        """Median time of one Q(zeta_8) multiplication on the sampled
        operands, measured with the tracer uninstalled."""
        if not self.mul_samples:
            return 0.0
        per_mul = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for a, b in self.mul_samples:
                a * b
            per_mul.append((time.perf_counter_ns() - start) / len(self.mul_samples))
        return statistics.median(per_mul)

    def layer_metrics(self, wall_s: float, untraced_wall_s: float, import_s: float,
                      mul_ns: float) -> dict[str, float]:
        s = 1e-9
        values = {
            "cyclo.mul_ns": mul_ns,
            "linalg.einsum_calls": self.calls["linalg.einsum"],
            "linalg.einsum_self_s": self.self_ns["linalg.einsum"] * s,
            "linalg.peak_intermediate_entries": self.peak_join_entries,
            "linalg.elim_calls": self.calls["linalg.elim"],
            "linalg.elim_self_s": self.self_ns["linalg.elim"] * s,
            "superalgebra.build_calls": self.outer_calls["superalgebra.build"],
            "superalgebra.build_s": self.outer_ns["superalgebra.build"] * s,
            "superalgebra.element_mul_calls": self.calls["superalgebra.element_mul"],
            "superalgebra.element_mul_self_s": self.self_ns["superalgebra.element_mul"] * s,
            "axioms.derived_s": self.outer_ns["axioms.derived"] * s,
            "axioms.unitarity_s": self.outer_ns["axioms.unitarity"] * s,
            "ribbon.parse_self_s": self.self_ns["ribbon.parse"] * s,
            "ribbon.evaluate_calls": self.calls["ribbon.evaluate"],
            "ribbon.evaluate_self_s": self.self_ns["ribbon.evaluate"] * s,
            "ribbon.then_self_s": self.self_ns["ribbon.then"] * s,
            "pingeo.abk_calls": self.calls["pingeo.abk"],
            "pingeo.abk_self_s": self.self_ns["pingeo.abk"] * s,
            "cli.main_self_s": self.self_ns["cli.main"] * s,
            "cli.import_s": import_s,
            "trace.wall_s": wall_s,
            "trace.overhead_s": wall_s - untraced_wall_s,
            "trace.unattributed_s": sum(self.self_ns[r] for r in ROOTS) * s,
        }
        for a in AXIOM_IDS:
            values[f"axioms.{a}_s"] = self.outer_ns[f"axioms.{a}"] * s
        for f in TQFT_FUNCTIONS:
            values[f"tqft.{f}_self_s"] = self.self_ns[f"tqft.{f}"] * s
        for key in ("cyclo.mul_calls", "cyclo.add_calls", "cyclo.inverse_calls",
                    "cyclo.is_zero_calls", "linalg.join_output_entries",
                    "ribbon.output_cells", "pingeo.abk_classes"):
            values[key] = self.counts[key]
        return {name: values[name] for name, _ in PER_LAYER}

    def write(self, path: Path, header: dict):
        """Write the header, per-name totals and every span as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            **header,
            "calls": dict(self.calls),
            "self_s": {k: v * 1e-9 for k, v in self.self_ns.items()},
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(document, separators=(",", ":")) + "\n")
