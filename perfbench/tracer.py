"""Per-module spans for one schurlab invocation, added from outside.

Run as ``python perfbench/tracer.py OUT.json ARGS...`` with ``src`` on
PYTHONPATH: it imports schurlab, replaces the public functions listed in
``SPANS`` by timing wrappers at every module attribute and class that
binds them, runs ``schurlab.cli.main(ARGS)`` and writes, per span, the
call count and self time (duration minus the time inside nested spans),
plus the size counters, to OUT.json.  Nothing under ``src/`` changes.

Spans are aggregated in memory as they close rather than stored one by
one; nesting is tracked with a stack, so the self times of all spans
add up to the inclusive time of ``cli.main``.  Time spent in an
unwrapped function is charged to the nearest wrapped caller.
"""

import functools
import importlib
import json
import sys
import time
import weakref
from fractions import Fraction

# Metric group -> spans, named "<module>.<qualname>" under schurlab.
SPANS = {
    "catalog.enumerate": ["catalog.enumerate_catalog", "catalog.catalog_get"],
    "dsl.parse": ["dsl.parse_presentation", "dsl.parse_combo"],
    "liealg.bracket": ["liealg.LieAlgebra.bracket"],
    "liealg.series": [
        "liealg.LieAlgebra.lower_central_series",
        "liealg.LieAlgebra.series",
        "liealg.LieAlgebra.center",
        "liealg.LieAlgebra.derived_subspace",
        "liealg.LieAlgebra.bracket_subspaces",
    ],
    "liealg.validate": ["liealg.LieAlgebra.validate"],
    "liealg.quotient": [
        "liealg.LieAlgebra.quotient",
        "liealg.Quotient.project",
        "liealg.Quotient.lift",
    ],
    "hall.free_algebra": ["hall.free_nilpotent_algebra", "hall.hall_basis"],
    "hall.product": ["hall.FreeNilpotentAlgebra.product"],
    "linalg.kernel_basis": ["linalg.kernel_basis"],
    "linalg.int_row": ["linalg.int_row"],
    "linalg.subspace": [
        "linalg.SpanBuilder.add",
        "linalg.SpanBuilder.reduce",
        "linalg.SpanBuilder.contains",
        "linalg.SpanBuilder.subspace",
        "linalg.Subspace.__init__",
        "linalg.Subspace.reduce",
        "linalg.Subspace.contains",
        "linalg.Subspace.coords",
        "linalg.Subspace.__le__",
        "linalg.Subspace.__add__",
        "linalg.Subspace.__and__",
    ],
    "multiplier.present_minimal": ["multiplier.present_minimal"],
    "multiplier.exterior_center": ["multiplier.exterior_center"],
    "multiplier.report": [
        "multiplier.multiplier_report",
        "multiplier.schur_multiplier_dim",
        "multiplier.schur_multiplier",
        "multiplier.exterior_square_dim",
        "multiplier.is_capable",
    ],
    "bounds.gamma_images": ["bounds.gamma_images"],
    "bounds.checks": [
        "bounds.check_theorem_2_1",
        "bounds.check_theorem_2_2",
        "bounds.check_theorem_2_5",
        "bounds.check_theorem_2_6",
        "bounds.scan_theorem_2_9",
        "bounds.check_theorem_3_7",
        "bounds.classification_sweep",
    ],
}
# Size counters: the largest value seen, or the sum over calls.
MAX_COUNTERS = ("catalog.entries", "hall.free_dim_max", "linalg.kernel_cols_max",
                "linalg.max_entry_bits")
SUM_COUNTERS = ("dsl.bytes", "linalg.spanbuilder_rows_kept")
MAIN_SPAN = "cli.main"
HOOK_SPAN = "trace.hooks"  # time spent reading sizes after a span closed


class Tracer:
    def __init__(self):
        self.stats = {}  # span -> [calls, self seconds]
        self.counters = dict.fromkeys(MAX_COUNTERS + SUM_COUNTERS, 0)
        self.missing = []
        self._stack = [0.0]  # child time of each open span
        self._seen = weakref.WeakSet()

    def _wrap(self, fn, span, after=None):
        stat = self.stats.setdefault(span, [0, 0.0])
        hooks = self.stats.setdefault(HOOK_SPAN, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if after is not None:
                start = clock()
                after(args, kwargs, result)
                elapsed = clock() - start
                hooks[0] += 1
                hooks[1] += elapsed
                stack[-1] += elapsed
            return result

        return wrapper

    # size counters, read after the span has closed
    def _after(self, span):
        c = self.counters
        if span == "catalog.enumerate_catalog":
            def after(args, kwargs, result):
                c["catalog.entries"] = max(c["catalog.entries"], len(result))
        elif span == "dsl.parse_presentation":
            def after(args, kwargs, result):
                text = args[0] if args else kwargs["text"]
                c["dsl.bytes"] += len(text.encode("utf-8"))
        elif span == "hall.free_nilpotent_algebra":
            def after(args, kwargs, result):
                c["hall.free_dim_max"] = max(c["hall.free_dim_max"], result.dim)
        elif span == "linalg.kernel_basis":
            def after(args, kwargs, result):
                c["linalg.kernel_cols_max"] = max(c["linalg.kernel_cols_max"], result.ambient)
        elif span == "linalg.SpanBuilder.add":
            def after(args, kwargs, result):
                c["linalg.spanbuilder_rows_kept"] += bool(result)
        elif span == "multiplier.present_minimal":
            def after(args, kwargs, result):
                if result in self._seen:
                    return
                self._seen.add(result)
                bits = max(
                    (max(abs(Fraction(x).numerator).bit_length(), Fraction(x).denominator.bit_length())
                     for row in result.r.rows for x in row if x),
                    default=0,
                )
                c["linalg.max_entry_bits"] = max(c["linalg.max_entry_bits"], bits)
        else:
            return None
        return after

    def install(self):
        """Wrap every span in SPANS wherever schurlab binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "schurlab" or name.startswith("schurlab.")]
        for spans in SPANS.values():
            for span in spans:
                module_name, *path = span.split(".")
                try:
                    owner = importlib.import_module(f"schurlab.{module_name}")
                    for part in path[:-1]:
                        owner = getattr(owner, part)
                    original = getattr(owner, path[-1])
                except (ImportError, AttributeError):
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(original, span, self._after(span))
                if isinstance(owner, type):
                    setattr(owner, path[-1], wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def run(self, main, argv):
        """Run ``main(argv)`` as the root span; return its exit code."""
        span = self._wrap(main, MAIN_SPAN)
        try:
            return span(argv)
        except SystemExit as exc:  # argparse errors
            if exc.code is None:
                return 0
            return exc.code if isinstance(exc.code, int) else 1

    def dump(self, path):
        doc = {
            "spans": self.stats,
            "main_s": self._stack[0],
            "counters": self.counters,
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    import schurlab.cli

    tracer = Tracer()
    tracer.install()
    code = tracer.run(schurlab.cli.main, argv)
    sys.stdout.flush()
    tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
